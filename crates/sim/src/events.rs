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
    /// Occupancy bitmask over `slots` (one bit per slot) so the
    /// skip-ahead horizon can find the next non-empty slot without
    /// scanning all of them.
    occupied: [u64; (WHEEL / 64) as usize],
    /// Events at least `WHEEL` cycles out, keyed by due cycle.
    far: BTreeMap<u64, Vec<T>>,
    /// Events currently in `slots` (kept for the debug dump).
    near: usize,
}

impl<T> EventWheel<T> {
    pub(crate) fn new() -> Self {
        EventWheel {
            slots: (0..WHEEL).map(|_| Vec::new()).collect(),
            occupied: [0; (WHEEL / 64) as usize],
            far: BTreeMap::new(),
            near: 0,
        }
    }

    #[inline]
    fn set_bit(&mut self, slot: u64) {
        self.occupied[(slot / 64) as usize] |= 1 << (slot % 64);
    }

    #[inline]
    fn clear_bit(&mut self, slot: u64) {
        self.occupied[(slot / 64) as usize] &= !(1 << (slot % 64));
    }

    /// Schedules `ev` at cycle `at`, which must be strictly after the
    /// owner's current cycle `now`.
    pub(crate) fn schedule(&mut self, now: u64, at: u64, ev: T) {
        debug_assert!(at > now, "events must be scheduled in the future");
        if at - now < WHEEL {
            let slot = at & MASK;
            self.slots[slot as usize].push(ev);
            self.set_bit(slot);
            self.near += 1;
        } else {
            self.far.entry(at).or_default().push(ev);
        }
    }

    /// Rotates the wheel to `now`: far events whose cycle just entered
    /// the window move into their slot. Must run at the start of each
    /// cycle, before any `schedule` calls for that cycle.
    pub(crate) fn advance(&mut self, now: u64) {
        while let Some(entry) = self.far.first_entry() {
            let at = *entry.key();
            if at - now >= WHEEL {
                break;
            }
            let mut evs = entry.remove();
            let slot = at & MASK;
            self.near += evs.len();
            debug_assert!(self.slots[slot as usize].is_empty());
            self.slots[slot as usize].append(&mut evs);
            self.set_bit(slot);
        }
    }

    /// Hands every event due at `now` over in `out`, in schedule order.
    /// `out` must come in empty: it trades places with the bucket (which
    /// keeps `out`'s allocation for its next turn), and no event is
    /// copied.
    pub(crate) fn pop_due(&mut self, now: u64, out: &mut Vec<T>) {
        debug_assert!(out.is_empty());
        let slot = now & MASK;
        let bucket = &mut self.slots[slot as usize];
        if bucket.is_empty() {
            return;
        }
        self.near -= bucket.len();
        std::mem::swap(out, bucket);
        self.clear_bit(slot);
    }

    /// The earliest cycle after `now` with a scheduled event, or
    /// `u64::MAX` if nothing is scheduled.
    pub(crate) fn next_due(&self, now: u64) -> u64 {
        if self.near > 0 {
            // Scan the occupancy bitmask circularly starting just past
            // `now`'s slot; distance in slots = distance in cycles
            // because every near event is within one wheel turn.
            let start = (now + 1) & MASK;
            for d in 0..(WHEEL / 64) + 1 {
                let word_idx = ((start / 64 + d) % (WHEEL / 64)) as usize;
                let mut word = self.occupied[word_idx];
                if d == 0 {
                    // Mask off slots at or before `start` in this word.
                    word &= !0u64 << (start % 64);
                } else if d == WHEEL / 64 {
                    // Wrapped back to the first word: only slots up to
                    // and including `now & MASK` remain unchecked.
                    word &= !(!0u64 << (start % 64));
                }
                if word != 0 {
                    let slot = (word_idx as u64) * 64 + u64::from(word.trailing_zeros());
                    let delta = (slot.wrapping_sub(now + 1)) & MASK;
                    return now + 1 + delta;
                }
            }
        }
        self.far.first_key_value().map_or(u64::MAX, |(&at, _)| at)
    }

    /// Total scheduled events (near and far) — debug dumps only.
    pub(crate) fn len(&self) -> usize {
        self.near + self.far.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Schedules interleaved with cycle advances (single steps and
        /// skip-ahead jumps up to the next due cycle) and pops, against
        /// a `BTreeMap<u64, Vec<_>>`: every cycle drains exactly its
        /// events, in schedule order; an event for `now + 1` scheduled
        /// before the pop of `now` and one scheduled after it both wait
        /// for `now + 1`; far events come out ahead of later-scheduled
        /// near ones; and `next_due` and `len` agree with the map after
        /// every operation.
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
                    // Advance: one cycle or a jump, never past a due
                    // cycle; the cycle left behind is drained first, as
                    // `Machine::step` always does.
                    _ => {
                        let mut out = Vec::new();
                        w.pop_due(now, &mut out);
                        prop_assert_eq!(out, model.remove(&now).unwrap_or_default());
                        let due = model.keys().next().copied().unwrap_or(u64::MAX);
                        now = (now + 1 + if op == 8 { 0 } else { arg }).min(due);
                        w.advance(now);
                    }
                }
                prop_assert_eq!(w.len(), model.values().map(Vec::len).sum::<usize>());
                // The horizon is asked between steps: `now` is drained.
                if !model.contains_key(&now) {
                    let due = model.keys().next().copied().unwrap_or(u64::MAX);
                    prop_assert_eq!(w.next_due(now), due);
                }
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
    fn next_due_finds_near_and_far() {
        let mut w: EventWheel<u32> = EventWheel::new();
        assert_eq!(w.next_due(0), u64::MAX);
        w.schedule(0, WHEEL * 3, 9);
        assert_eq!(w.next_due(0), WHEEL * 3);
        w.schedule(0, 7, 1);
        assert_eq!(w.next_due(0), 7);
        w.schedule(0, 2, 2);
        assert_eq!(w.next_due(0), 2);
        drain(&mut w, 1..=7);
        assert_eq!(w.next_due(7), WHEEL * 3);
    }

    #[test]
    fn next_due_wraps_around_the_wheel() {
        let mut w: EventWheel<u32> = EventWheel::new();
        // Place `now` late in the wheel so the next event's slot index
        // is numerically smaller (wrap-around).
        let now = WHEEL - 2;
        w.schedule(now, now + 5, 1);
        assert_eq!(w.next_due(now), now + 5);
        assert_eq!(drain(&mut w, now + 1..=now + 5), vec![1]);
    }
}
