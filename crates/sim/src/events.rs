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
//! Ownership: a bucket has a buffer only while it holds events.
//! `pop_due` hands the due bucket's buffer to the caller and leaves the
//! bucket unallocated; the buffer the caller passed in (last cycle's,
//! emptied) goes on a spare stack, and the next `schedule` into an
//! unallocated bucket takes it from there. So the wheel holds as many
//! buffers as buckets were ever non-empty *at once* — 4 to 14 on the
//! suite — where "every bucket keeps the buffer it first grew" ended a
//! long run with all 256 allocated: 100–260 KB that a machine parked at
//! a deadline (clp-serve keeps those) would carry for nothing.
//! `behaves_like_a_map_of_cycles` holds the buffer count to that bound.
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
    /// `c` within `WHEEL - 1` cycles of the owner's current cycle. An
    /// empty bucket is unallocated (capacity 0).
    slots: Vec<Vec<T>>,
    /// Emptied buffers waiting for the next bucket that needs one.
    spare: Vec<Vec<T>>,
    /// Events at least `WHEEL` cycles out, keyed by due cycle.
    far: BTreeMap<u64, Vec<T>>,
}

impl<T> EventWheel<T> {
    pub(crate) fn new() -> Self {
        EventWheel {
            slots: (0..WHEEL).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            far: BTreeMap::new(),
        }
    }

    /// Schedules `ev` at cycle `at`, which must be strictly after the
    /// owner's current cycle `now`.
    pub(crate) fn schedule(&mut self, now: u64, at: u64, ev: T) {
        debug_assert!(at > now, "events must be scheduled in the future");
        if at - now < WHEEL {
            let slot = &mut self.slots[(at & MASK) as usize];
            if slot.capacity() == 0 {
                if let Some(buf) = self.spare.pop() {
                    *slot = buf;
                }
            }
            slot.push(ev);
        } else {
            self.far.entry(at).or_default().push(ev);
        }
    }

    /// Rotates the wheel to `now`: far events whose cycle just entered
    /// the window move into their slot. Must run at the start of every
    /// cycle, before any `schedule` calls for that cycle; with no far
    /// event it is one emptiness test.
    #[inline]
    pub(crate) fn advance(&mut self, now: u64) {
        if self.far.is_empty() {
            return;
        }
        while let Some(entry) = self.far.first_entry() {
            let at = *entry.key();
            if at - now >= WHEEL {
                break;
            }
            let slot = &mut self.slots[(at & MASK) as usize];
            debug_assert_eq!(slot.capacity(), 0, "a far event lands in an empty bucket");
            // The far entry brings its own buffer into circulation, so
            // one spare (if any) retires and the count stays put.
            *slot = entry.remove();
            self.spare.pop();
        }
    }

    /// Whether any event is due at `now`: exactly when [`Self::pop_due`]
    /// would hand some over. The caller's no-work test.
    #[inline]
    pub(crate) fn due(&self, now: u64) -> bool {
        !self.slots[(now & MASK) as usize].is_empty()
    }

    /// Hands every event due at `now` over in `out`, in schedule order.
    /// `out` must come in empty: it becomes the due bucket's buffer, no
    /// event is copied, and the allocation `out` came in with is kept
    /// as a spare for whichever bucket next needs one.
    pub(crate) fn pop_due(&mut self, now: u64, out: &mut Vec<T>) {
        debug_assert!(out.is_empty());
        let slot = &mut self.slots[(now & MASK) as usize];
        if slot.is_empty() {
            return;
        }
        let emptied = std::mem::replace(out, std::mem::take(slot));
        if emptied.capacity() != 0 {
            self.spare.push(emptied);
        }
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

    impl<T> EventWheel<T> {
        /// Buffers the wheel owns: allocated buckets plus spares.
        fn buffers(&self) -> usize {
            self.slots.iter().filter(|s| s.capacity() != 0).count() + self.spare.len()
        }

        fn nonempty_buckets(&self) -> usize {
            self.slots.iter().filter(|s| !s.is_empty()).count()
        }
    }

    proptest! {
        /// Schedules interleaved with cycle advances and pops, against
        /// a `BTreeMap<u64, Vec<_>>`: every cycle drains exactly its
        /// events, in schedule order; an event for `now + 1` scheduled
        /// before the pop of `now` and one scheduled after it both wait
        /// for `now + 1`; far events come out ahead of later-scheduled
        /// near ones; and `len` agrees with the map after every
        /// operation, as does the `due` check with the map's key for
        /// `now`. The caller's buffer goes round as `Machine::step`
        /// sends it, and the wheel never owns more buffers than the
        /// most buckets that held events at once, plus that one.
        #[test]
        fn behaves_like_a_map_of_cycles(
            ops in prop::collection::vec((0u8..10, 0u64..3 * WHEEL), 1..400),
        ) {
            let mut w: EventWheel<u32> = EventWheel::new();
            let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            let (mut now, mut next_id) = (0u64, 0u32);
            let mut out = Vec::new();
            let mut most_nonempty = 0;
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
                        w.pop_due(now, &mut out);
                        prop_assert_eq!(&out, &model.remove(&now).unwrap_or_default());
                        out.clear();
                    }
                    // Advance one cycle, or many (far events migrate),
                    // one at a time; each cycle left behind is drained
                    // first, as `Machine::step` always does.
                    _ => {
                        for _ in 0..if op == 8 { 1 } else { 1 + arg } {
                            w.pop_due(now, &mut out);
                            prop_assert_eq!(&out, &model.remove(&now).unwrap_or_default());
                            out.clear();
                            now += 1;
                            w.advance(now);
                            prop_assert_eq!(w.due(now), model.contains_key(&now));
                            most_nonempty = most_nonempty.max(w.nonempty_buckets());
                        }
                    }
                }
                prop_assert_eq!(w.len(), model.values().map(Vec::len).sum::<usize>());
                prop_assert_eq!(w.due(now), model.contains_key(&now));
                most_nonempty = most_nonempty.max(w.nonempty_buckets());
                prop_assert!(w.buffers() <= most_nonempty + 1, "{} buffers", w.buffers());
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
