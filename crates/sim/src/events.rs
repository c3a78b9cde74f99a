//! A timer wheel for the machine's scheduled local events.
//!
//! The hot loop schedules and drains thousands of events per simulated
//! kilocycle, almost all of them within a few hundred cycles of `now`
//! (control hops, cache latencies, DRAM refills). A `BTreeMap<u64,
//! Vec<Ev>>` pays a tree walk per schedule and per drain; the wheel
//! turns both into an indexed `Vec` push/drain. Events further out than
//! the wheel window (rare: only pathological fault delays) overflow
//! into a `BTreeMap` and migrate into the wheel as `now` approaches.
//!
//! Determinism: events for the same cycle drain in schedule order,
//! exactly like the `Vec` per key of the map this replaces. Far events
//! migrate at the *start* of the first cycle whose window reaches them
//! — before any same-cycle scheduling can run — so a far-scheduled
//! event still precedes any later-scheduled event for the same cycle.
//! `Machine::step` is the only thing that moves `now`, one cycle at a
//! time, so `advance` sees every cycle and a far event always lands in
//! an empty slot.

use std::collections::BTreeMap;

/// Wheel window in cycles. Power of two; must exceed every common
/// event delay (control hops, L2 sweeps, DRAM at 150 cycles) so the
/// overflow map stays cold.
const WHEEL: u64 = 256;
const MASK: u64 = WHEEL - 1;

/// A monotonic schedule of `(cycle, event)` pairs drained cycle by
/// cycle. See the module docs for the layout and ordering contract.
#[derive(Debug)]
pub(crate) struct EventWheel<T> {
    /// `slots[c & MASK]` holds the events due at cycle `c` for every
    /// `c` within `WHEEL - 1` cycles of the owner's current cycle.
    slots: Vec<Vec<T>>,
    /// Events at least `WHEEL` cycles out, keyed by due cycle.
    far: BTreeMap<u64, Vec<T>>,
}

impl<T> EventWheel<T> {
    pub(crate) fn new() -> Self {
        EventWheel {
            slots: (0..WHEEL).map(|_| Vec::new()).collect(),
            far: BTreeMap::new(),
        }
    }

    /// Schedules `ev` at cycle `at`, which must be strictly after the
    /// owner's current cycle `now`.
    pub(crate) fn schedule(&mut self, now: u64, at: u64, ev: T) {
        debug_assert!(at > now, "events must be scheduled in the future");
        if at - now < WHEEL {
            self.slots[(at & MASK) as usize].push(ev);
        } else {
            self.far.entry(at).or_default().push(ev);
        }
    }

    /// Rotates the wheel to `now`: far events whose cycle just entered
    /// the window move into their slot. Must run at the start of every
    /// cycle, before any `schedule` calls for that cycle.
    pub(crate) fn advance(&mut self, now: u64) {
        while let Some(entry) = self.far.first_entry() {
            let at = *entry.key();
            if at - now >= WHEEL {
                break;
            }
            let slot = &mut self.slots[(at & MASK) as usize];
            debug_assert!(slot.is_empty());
            slot.append(&mut entry.remove());
        }
    }

    /// Hands every event due at `now` over in `out`, in schedule order.
    /// `out` must come in empty: it trades places with the bucket (which
    /// keeps `out`'s allocation for its next turn), and no event is
    /// copied.
    pub(crate) fn pop_due(&mut self, now: u64, out: &mut Vec<T>) {
        debug_assert!(out.is_empty());
        std::mem::swap(out, &mut self.slots[(now & MASK) as usize]);
    }

    /// Total scheduled events (near and far) — debug dumps only.
    pub(crate) fn len(&self) -> usize {
        let near = self.slots.iter().map(Vec::len).sum::<usize>();
        near + self.far.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Schedules interleaved with cycle advances and pops, against
        /// a `BTreeMap<u64, Vec<_>>`: every cycle drains exactly its
        /// events, in schedule order; an event for `now + 1` scheduled
        /// before the pop of `now` and one scheduled after it both wait
        /// for `now + 1`; far events come out ahead of later-scheduled
        /// near ones; and `len` agrees with the map after every
        /// operation.
        #[test]
        fn behaves_like_a_map_of_cycles(
            ops in prop::collection::vec((0u8..10, 0u64..3 * WHEEL), 1..400),
        ) {
            let mut w: EventWheel<u32> = EventWheel::new();
            let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            let (mut now, mut next_id) = (0u64, 0u32);
            for (op, arg) in ops {
                match op {
                    // Next cycle, a near one, or anywhere up to three
                    // windows out.
                    0..=5 => {
                        let at = now + [1, 1, 1 + arg % 8, 1 + arg % WHEEL, 1 + arg, 1 + arg][usize::from(op)];
                        w.schedule(now, at, next_id);
                        model.entry(at).or_default().push(next_id);
                        next_id += 1;
                    }
                    // Pop the current cycle (a second pop finds nothing).
                    6 | 7 => {
                        let mut out = Vec::new();
                        w.pop_due(now, &mut out);
                        prop_assert_eq!(out, model.remove(&now).unwrap_or_default());
                    }
                    // Advance one cycle, or many (far events migrate),
                    // one at a time; each cycle left behind is drained
                    // first, as `Machine::step` always does.
                    _ => {
                        for _ in 0..if op == 8 { 1 } else { 1 + arg } {
                            let mut out = Vec::new();
                            w.pop_due(now, &mut out);
                            prop_assert_eq!(out, model.remove(&now).unwrap_or_default());
                            now += 1;
                            w.advance(now);
                        }
                    }
                }
                prop_assert_eq!(w.len(), model.values().map(Vec::len).sum::<usize>());
            }
        }
    }

    /// Steps the wheel through `cycles`, collecting what each hands over.
    fn drain(w: &mut EventWheel<u32>, cycles: std::ops::RangeInclusive<u64>) -> Vec<u32> {
        let mut all = Vec::new();
        for c in cycles {
            let mut out = Vec::new();
            w.advance(c);
            w.pop_due(c, &mut out);
            all.extend(out);
        }
        all
    }

    #[test]
    fn drains_in_schedule_order() {
        let mut w: EventWheel<u32> = EventWheel::new();
        w.schedule(0, 3, 1);
        w.schedule(0, 3, 2);
        w.schedule(0, 5, 3);
        assert_eq!(drain(&mut w, 1..=5), vec![1, 2, 3]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn far_events_migrate_before_same_cycle_schedules() {
        let mut w: EventWheel<u32> = EventWheel::new();
        let at = WHEEL + 10;
        w.schedule(0, at, 1); // far
        assert_eq!(w.len(), 1);
        // Advance until `at` enters the window, then schedule another
        // event for the same cycle: the far one must drain first.
        let now = at - WHEEL + 1;
        w.advance(now);
        w.schedule(now, at, 2);
        let mut out = Vec::new();
        w.advance(at);
        w.pop_due(at, &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn drains_across_the_wheel_wrap() {
        let mut w: EventWheel<u32> = EventWheel::new();
        // Place `now` late in the wheel so the event's slot index is
        // numerically smaller (wrap-around).
        let now = WHEEL - 2;
        w.schedule(now, now + 5, 1);
        assert_eq!(drain(&mut w, now + 1..=now + 4), vec![]);
        assert_eq!(drain(&mut w, now + 5..=now + 5), vec![1]);
    }
}
