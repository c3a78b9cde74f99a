//! The logically centralized, physically distributed Return Address Stack.

/// Rollback state for one speculative RAS operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RasCheckpoint {
    top: usize,
    /// Entry overwritten by a push `(slot, previous value)`, if any.
    overwritten: Option<(usize, u64)>,
}

/// A return-address stack sequentially partitioned across composed cores.
///
/// With N participating cores of `per_core` entries each, the logical
/// stack holds `N * per_core` entries: slots `0..per_core` live on the
/// first core, the next `per_core` on the second, and so on (§4.3). The
/// stack itself is a single state machine — the *distribution* matters
/// only for message timing, which the simulator derives from
/// [`ReturnAddressStack::top_core`].
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    per_core: usize,
    /// Index of the next free slot (number of live entries, wrapping).
    top: usize,
}

impl ReturnAddressStack {
    /// Creates an empty stack distributed over `n_cores` cores with
    /// `per_core` entries each.
    #[must_use]
    pub fn new(n_cores: usize, per_core: usize) -> Self {
        ReturnAddressStack {
            entries: vec![0; n_cores * per_core],
            per_core,
            top: 0,
        }
    }

    /// Total capacity of the composed stack.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of live entries (capped at capacity by wraparound).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.top
    }

    /// The participating-core index (0-based within the composition) that
    /// holds the current top of stack. An empty stack reports core 0.
    #[must_use]
    pub fn top_core(&self) -> usize {
        if self.top == 0 {
            0
        } else {
            ((self.top - 1) % self.entries.len()) / self.per_core
        }
    }

    /// Pushes a predicted return address, returning a checkpoint.
    pub fn push(&mut self, addr: u64) -> RasCheckpoint {
        let slot = self.top % self.entries.len();
        let ckpt = RasCheckpoint {
            top: self.top,
            overwritten: Some((slot, self.entries[slot])),
        };
        self.entries[slot] = addr;
        self.top += 1;
        ckpt
    }

    /// Pops the predicted return address, returning it (or `None` when
    /// empty) and a checkpoint.
    pub fn pop(&mut self) -> (Option<u64>, RasCheckpoint) {
        let ckpt = RasCheckpoint {
            top: self.top,
            overwritten: None,
        };
        if self.top == 0 {
            return (None, ckpt);
        }
        self.top -= 1;
        let slot = self.top % self.entries.len();
        (Some(self.entries[slot]), ckpt)
    }

    /// A checkpoint representing "no RAS activity" at the current top.
    #[must_use]
    pub(crate) fn checkpoint(&self) -> RasCheckpoint {
        RasCheckpoint {
            top: self.top,
            overwritten: None,
        }
    }

    /// Restores the stack to the state captured by `ckpt` (misprediction
    /// recovery: the mispredicting owner sends the corrected top-of-stack
    /// to the core that will hold the new top).
    pub fn repair(&mut self, ckpt: RasCheckpoint) {
        self.top = ckpt.top;
        if let Some((slot, value)) = ckpt.overwritten {
            self.entries[slot] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo() {
        let mut ras = ReturnAddressStack::new(2, 16);
        ras.push(0x100);
        ras.push(0x200);
        ras.push(0x300);
        assert_eq!(ras.pop().0, Some(0x300));
        assert_eq!(ras.pop().0, Some(0x200));
        assert_eq!(ras.pop().0, Some(0x100));
        assert_eq!(ras.pop().0, None);
    }

    #[test]
    fn top_core_follows_sequential_partitioning() {
        let mut ras = ReturnAddressStack::new(2, 16);
        assert_eq!(ras.top_core(), 0);
        for i in 0..16 {
            ras.push(i);
        }
        assert_eq!(ras.top_core(), 0, "entry 15 lives on core 0");
        ras.push(99);
        assert_eq!(ras.top_core(), 1, "entry 16 lives on core 1");
        ras.pop();
        assert_eq!(ras.top_core(), 0);
    }

    #[test]
    fn composition_deepens_the_stack() {
        assert_eq!(ReturnAddressStack::new(1, 16).capacity(), 16);
        assert_eq!(ReturnAddressStack::new(32, 16).capacity(), 512);
    }

    #[test]
    fn wraparound_overwrites_oldest() {
        let mut ras = ReturnAddressStack::new(1, 4);
        for i in 0..5 {
            ras.push(i);
        }
        // Entry 0 was overwritten by 4; popping yields 4,3,2,1 then the
        // stale slot value for the wrapped entry.
        assert_eq!(ras.pop().0, Some(4));
        assert_eq!(ras.pop().0, Some(3));
    }

    #[test]
    fn repair_undoes_push_and_pop() {
        let mut ras = ReturnAddressStack::new(1, 8);
        ras.push(1);
        ras.push(2);
        let before_depth = ras.depth();
        let ckpt = ras.push(3);
        ras.repair(ckpt);
        assert_eq!(ras.depth(), before_depth);
        assert_eq!(ras.pop().0, Some(2));
        let (v, ckpt) = ras.pop();
        assert_eq!(v, Some(1));
        ras.repair(ckpt);
        assert_eq!(ras.pop().0, Some(1));
    }

    #[test]
    fn repair_restores_overwritten_wrapped_entry() {
        let mut ras = ReturnAddressStack::new(1, 2);
        ras.push(10);
        ras.push(20);
        let ckpt = ras.push(30); // overwrites slot 0 (value 10)
        ras.repair(ckpt);
        ras.pop();
        let (v, _) = ras.pop();
        assert_eq!(v, Some(10), "wrapped slot restored");
    }
}
