//! The speculative, versioned architectural register file.
//!
//! TFlex forwards register outputs of older in-flight blocks to younger
//! readers through the distributed register banks. This module models
//! that functionally: each block's register writes create *versions*
//! ordered by block sequence number; a read by block `s` observes the
//! youngest version older than `s`, or stalls if an older in-flight block
//! still owes a write to that register.

use clp_isa::Reg;

/// Result of attempting a speculative register read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegRead {
    /// The value is available.
    Ready(u64),
    /// An older in-flight block will write this register and has not yet
    /// forwarded a value: the reader must wait.
    Wait,
}

/// One logical processor's register state.
///
/// # Examples
///
/// ```
/// use clp_sim::{RegFile, RegRead};
/// use clp_isa::Reg;
///
/// let mut rf = RegFile::new(128);
/// rf.declare_write(Reg::new(5), 1);             // block 1 will write r5
/// assert_eq!(rf.read(Reg::new(5), 2), RegRead::Wait);
/// rf.forward_write(Reg::new(5), 1, Some(42));   // value forwarded
/// assert_eq!(rf.read(Reg::new(5), 2), RegRead::Ready(42));
/// rf.commit(1);
/// assert_eq!(rf.committed(Reg::new(5)), 42);
/// ```
#[derive(Clone, Debug)]
pub struct RegFile {
    committed: Vec<u64>,
    /// Per register: the speculative writes of in-flight blocks as
    /// `(block seq, state)`, ascending by `seq`. `None` is a declared
    /// write not yet forwarded (or nulled), `Some` a forwarded value. A
    /// list is as long as the number of in-flight blocks writing that
    /// register — a handful — so every operation is a short scan.
    writes: Vec<Vec<(u64, Option<u64>)>>,
}

impl RegFile {
    /// Creates a register file with `n` registers, all zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        RegFile {
            committed: vec![0; n],
            writes: vec![Vec::new(); n],
        }
    }

    /// Direct access to the committed value (used for initialization and
    /// final-state inspection).
    #[must_use]
    pub fn committed(&self, reg: Reg) -> u64 {
        self.committed[reg.index()]
    }

    /// Sets a committed value (machine initialization).
    pub fn set_committed(&mut self, reg: Reg, value: u64) {
        self.committed[reg.index()] = value;
    }

    /// Sets block `seq`'s entry for `reg`, keeping the list sorted.
    /// Blocks declare in fetch order, so the common case appends.
    fn set(&mut self, reg: Reg, seq: u64, state: Option<u64>) {
        let list = &mut self.writes[reg.index()];
        match list.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(i) => list[i].1 = state,
            Err(i) => list.insert(i, (seq, state)),
        }
    }

    /// Declares that block `seq` will write `reg` (called at dispatch of
    /// the block's WRITE instructions). Readers younger than `seq` wait
    /// until the write is forwarded or nulled.
    pub fn declare_write(&mut self, reg: Reg, seq: u64) {
        self.set(reg, seq, None);
    }

    /// Forwards block `seq`'s write of `reg`. `value` is `None` for a
    /// null (predicated-off) write, which resolves the pending entry
    /// without creating a version.
    pub fn forward_write(&mut self, reg: Reg, seq: u64, value: Option<u64>) {
        if value.is_some() {
            self.set(reg, seq, value);
        } else {
            self.writes[reg.index()].retain(|&e| e != (seq, None));
        }
    }

    /// Attempts a read of `reg` on behalf of block `seq`.
    #[must_use]
    pub fn read(&self, reg: Reg, seq: u64) -> RegRead {
        let list = &self.writes[reg.index()];
        let older = &list[..list.partition_point(|&(s, _)| s < seq)];
        // Any older pending write blocks the read.
        if older.iter().any(|(_, state)| state.is_none()) {
            return RegRead::Wait;
        }
        match older.last() {
            Some(&(_, Some(v))) => RegRead::Ready(v),
            _ => RegRead::Ready(self.committed[reg.index()]),
        }
    }

    /// Commits block `seq`: its versions become the committed values.
    /// Returns the number of architectural writes performed.
    pub fn commit(&mut self, seq: u64) -> usize {
        let mut n = 0;
        for (list, committed) in self.writes.iter_mut().zip(&mut self.committed) {
            let Ok(i) = list.binary_search_by_key(&seq, |&(s, _)| s) else {
                continue;
            };
            // Pending entries of a committed block must all be resolved.
            debug_assert!(list[i].1.is_some(), "commit with a pending write");
            if let Some(v) = list[i].1 {
                list.remove(i);
                *committed = v;
                n += 1;
            }
        }
        n
    }

    /// Squashes all speculative state of blocks with `seq >= from`.
    pub fn flush_from(&mut self, from: u64) {
        for list in &mut self.writes {
            list.truncate(list.partition_point(|&(s, _)| s < from));
        }
    }

    /// `(reg, seq)` of every pending (or every forwarded) entry.
    fn entries(&self, pending: bool) -> Vec<(u8, u64)> {
        let mut out = Vec::new();
        for (r, list) in self.writes.iter().enumerate() {
            let wanted = list.iter().filter(|(_, state)| state.is_none() == pending);
            out.extend(wanted.map(|&(s, _)| (r as u8, s)));
        }
        out
    }

    /// Outstanding declared-but-unforwarded writes `(reg, seq)` (debug).
    #[must_use]
    pub fn pending_entries(&self) -> Vec<(u8, u64)> {
        self.entries(true)
    }

    /// Forwarded speculative versions `(reg, seq)` (debug).
    #[must_use]
    pub fn version_entries(&self) -> Vec<(u8, u64)> {
        self.entries(false)
    }

    /// True if no speculative state is outstanding.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.writes.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: usize) -> Reg {
        Reg::new(n)
    }

    #[test]
    fn read_committed_when_no_versions() {
        let mut f = RegFile::new(128);
        f.set_committed(r(5), 42);
        assert_eq!(f.read(r(5), 10), RegRead::Ready(42));
    }

    #[test]
    fn read_waits_for_older_pending_write() {
        let mut f = RegFile::new(128);
        f.declare_write(r(3), 1);
        assert_eq!(f.read(r(3), 2), RegRead::Wait);
        // The writing block itself (and older blocks) do not wait.
        assert_eq!(f.read(r(3), 1), RegRead::Ready(0));
        f.forward_write(r(3), 1, Some(7));
        assert_eq!(f.read(r(3), 2), RegRead::Ready(7));
    }

    #[test]
    fn null_write_unblocks_with_old_value() {
        let mut f = RegFile::new(128);
        f.set_committed(r(3), 9);
        f.declare_write(r(3), 1);
        f.forward_write(r(3), 1, None);
        assert_eq!(f.read(r(3), 2), RegRead::Ready(9));
    }

    #[test]
    fn youngest_older_version_wins() {
        let mut f = RegFile::new(128);
        f.forward_write(r(4), 1, Some(10));
        f.forward_write(r(4), 3, Some(30));
        assert_eq!(f.read(r(4), 2), RegRead::Ready(10));
        assert_eq!(f.read(r(4), 4), RegRead::Ready(30));
        assert_eq!(f.read(r(4), 1), RegRead::Ready(0), "own age excluded");
    }

    #[test]
    fn commit_promotes_and_clears() {
        let mut f = RegFile::new(128);
        f.declare_write(r(4), 1);
        f.forward_write(r(4), 1, Some(10));
        assert_eq!(f.commit(1), 1);
        assert_eq!(f.committed(r(4)), 10);
        assert!(f.is_clean());
    }

    #[test]
    fn flush_discards_speculation() {
        let mut f = RegFile::new(128);
        f.set_committed(r(4), 1);
        f.declare_write(r(4), 5);
        f.forward_write(r(4), 5, Some(99));
        f.declare_write(r(6), 6);
        f.flush_from(5);
        assert!(f.is_clean());
        assert_eq!(f.read(r(4), 10), RegRead::Ready(1));
    }

    #[test]
    fn flush_keeps_older_state() {
        let mut f = RegFile::new(128);
        f.forward_write(r(4), 2, Some(20));
        f.declare_write(r(7), 3);
        f.flush_from(3);
        assert_eq!(f.read(r(4), 5), RegRead::Ready(20));
        assert_eq!(f.read(r(7), 5), RegRead::Ready(0));
    }
}
