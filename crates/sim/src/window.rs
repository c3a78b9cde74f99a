//! The in-flight block window: an ordered map from block sequence
//! number to block state with indexed lookup.

use std::collections::VecDeque;

/// Entries of the direct-mapped lookup table (a power of two, at least
/// twice the 32 blocks a full-chip composition keeps in flight).
const TABLE: usize = 64;
/// Table marker for "this sequence number is known to be absent".
const ABSENT: u32 = u32::MAX;

/// The in-flight block window, ordered by sequence number.
///
/// Block lookup is the single hottest operation in the simulator —
/// every dispatch, wakeup, issue, completion and operand arrival pays
/// one — so it is an index, not a search. Three parts:
///
/// * `slots` holds the (large) block values; a block never moves
///   between install and removal.
/// * `order` holds the live `(seq, slot)` keys, ascending. Sequence
///   numbers are allocated monotonically and blocks install in order,
///   so pushing at the back keeps it sorted; it serves ordered
///   iteration, oldest/youngest access and the lookup fallback.
/// * `table` maps `seq % TABLE` to `(seq, slot)`. A lookup that finds
///   its own `seq` stored there is answered at once — including the
///   answer "absent" for a removed block, which is what stale messages
///   to flushed blocks ask. Flushes leave gaps in the live sequence
///   numbers, so two live blocks can collide in the table; the loser
///   (and any never-installed `seq`) falls back to a binary search of
///   the 16-byte keys in `order`.
#[derive(Debug)]
pub(crate) struct BlockWindow<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    order: VecDeque<(u64, u32)>,
    table: [(u64, u32); TABLE],
}

impl<T> BlockWindow<T> {
    pub(crate) fn new() -> Self {
        BlockWindow {
            slots: Vec::new(),
            free: Vec::new(),
            order: VecDeque::new(),
            table: [(u64::MAX, ABSENT); TABLE],
        }
    }

    #[inline]
    fn slot_of(&self, seq: u64) -> Option<usize> {
        let (s, slot) = self.table[seq as usize % TABLE];
        if s == seq {
            return (slot != ABSENT).then_some(slot as usize);
        }
        let i = self.order.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        Some(self.order[i].1 as usize)
    }

    #[inline]
    pub(crate) fn get(&self, seq: &u64) -> Option<&T> {
        self.slot_of(*seq).and_then(|i| self.slots[i].as_ref())
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, seq: &u64) -> Option<&mut T> {
        self.slot_of(*seq).and_then(|i| self.slots[i].as_mut())
    }

    #[inline]
    pub(crate) fn contains_key(&self, seq: &u64) -> bool {
        self.slot_of(*seq).is_some()
    }

    /// Installs a block; `seq` must exceed every stored sequence.
    pub(crate) fn insert(&mut self, seq: u64, b: T) {
        debug_assert!(self.order.back().is_none_or(|&(s, _)| s < seq));
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(b);
                slot
            }
            None => {
                self.slots.push(Some(b));
                (self.slots.len() - 1) as u32
            }
        };
        self.order.push_back((seq, slot));
        self.table[seq as usize % TABLE] = (seq, slot);
    }

    /// Takes the block out of `slot`, leaving "absent" in the table
    /// unless a colliding block owns the entry.
    fn release(&mut self, seq: u64, slot: u32) -> T {
        let entry = &mut self.table[seq as usize % TABLE];
        if entry.0 == seq {
            entry.1 = ABSENT;
        }
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("keyed slot is live")
    }

    pub(crate) fn remove(&mut self, seq: &u64) -> Option<T> {
        let i = self.order.binary_search_by_key(seq, |&(s, _)| s).ok()?;
        let (_, slot) = self.order.remove(i)?;
        Some(self.release(*seq, slot))
    }

    /// Removes the youngest block if its sequence number is at or above
    /// `from` — called in a loop, this squashes a suffix youngest-first.
    pub(crate) fn pop_back_from(&mut self, from: u64) -> Option<T> {
        let &(seq, slot) = self.order.back().filter(|&&(s, _)| s >= from)?;
        self.order.pop_back();
        Some(self.release(seq, slot))
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Oldest in-flight block (lowest sequence number).
    pub(crate) fn first(&self) -> Option<(u64, &T)> {
        self.iter().next()
    }

    /// Oldest in-flight block, mutably.
    pub(crate) fn first_mut(&mut self) -> Option<(u64, &mut T)> {
        let &(seq, slot) = self.order.front()?;
        Some((seq, self.slots[slot as usize].as_mut()?))
    }

    /// Live blocks in ascending sequence order.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, &T)> {
        self.order.iter().map(|&(seq, slot)| {
            let b = self.slots[slot as usize].as_ref();
            (seq, b.expect("keyed slot is live"))
        })
    }

    pub(crate) fn values(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.iter().map(|(_, b)| b)
    }

    /// Whether any block at or above `from` is in flight.
    pub(crate) fn has_from(&self, from: u64) -> bool {
        self.order.back().is_some_and(|&(s, _)| s >= from)
    }

    /// Panics unless keys, slots, free list and lookup table agree.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_invariants(&self) {
        let keys = self.order.iter();
        assert!(
            keys.clone().zip(keys.skip(1)).all(|(a, b)| a.0 < b.0),
            "window keys strictly ascending"
        );
        let live = self.slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(live, self.order.len(), "one live slot per key");
        assert_eq!(live + self.free.len(), self.slots.len(), "free list");
        for &(seq, slot) in &self.order {
            assert!(
                self.slots[slot as usize].is_some(),
                "key {seq} names a free slot"
            );
        }
        for (i, &(seq, slot)) in self.table.iter().enumerate() {
            let keyed = self.order.iter().find(|&&(s, _)| s == seq);
            if slot == ABSENT {
                assert!(keyed.is_none(), "table says live block {seq} is absent");
            } else {
                assert_eq!(seq as usize % TABLE, i, "table entry in its own bucket");
                assert_eq!(keyed, Some(&(seq, slot)), "table entry for block {seq}");
            }
        }
    }
}

impl<T> std::ops::Index<&u64> for BlockWindow<T> {
    type Output = T;
    fn index(&self, seq: &u64) -> &T {
        self.get(seq).expect("live block")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every read the machine performs, window against model.
    fn assert_same(w: &BlockWindow<u64>, model: &BTreeMap<u64, u64>, next_seq: u64) {
        w.check_invariants();
        assert_eq!(w.len(), model.len());
        assert!(w.iter().eq(model.iter().map(|(&s, v)| (s, v))));
        assert!(w.values().rev().eq(model.values().rev()));
        assert_eq!(w.first(), model.iter().next().map(|(&s, v)| (s, v)));
        // Live, removed and never-issued sequence numbers alike.
        let oldest = model.keys().next().copied().unwrap_or(next_seq);
        for seq in oldest.saturating_sub(2)..next_seq + 2 {
            assert_eq!(w.get(&seq), model.get(&seq), "get {seq}");
            assert_eq!(w.contains_key(&seq), model.contains_key(&seq));
            assert_eq!(w.has_from(seq), model.range(seq..).next().is_some());
        }
    }

    proptest! {
        /// The only operations the machine performs — install with
        /// increasing `seq`, remove the oldest, squash a suffix (which
        /// leaves gaps), look up anything — against a `BTreeMap`. More
        /// than half the cases reach a live span wider than the table.
        #[test]
        fn behaves_like_an_ordered_map(ops in prop::collection::vec((0u8..8, 0u64..64), 1..400)) {
            let mut w = BlockWindow::new();
            let mut model = BTreeMap::new();
            let mut next_seq = 0u64;
            for (op, arg) in ops {
                match op {
                    // Install, while the window has room (32 in flight).
                    // Skipped numbers stand for blocks fetched and
                    // squashed in between, and widen the live span.
                    0..=3 if model.len() < 32 => {
                        next_seq += arg % 5;
                        w.insert(next_seq, next_seq * 7);
                        model.insert(next_seq, next_seq * 7);
                        next_seq += 1;
                    }
                    // Commit the oldest block.
                    4 => {
                        let oldest = model.keys().next().copied().unwrap_or(next_seq);
                        prop_assert_eq!(w.remove(&oldest), model.remove(&oldest));
                    }
                    // Squash everything from a point inside the live
                    // span, youngest first.
                    0..=5 => {
                        let oldest = model.keys().next().copied().unwrap_or(next_seq);
                        let from = oldest + 1 + arg % (next_seq - oldest + 1);
                        while let Some(v) = w.pop_back_from(from) {
                            prop_assert_eq!(Some(v), model.pop_last().map(|(_, v)| v));
                        }
                        prop_assert!(model.range(from..).next().is_none());
                    }
                    // Update a block in place (or find it gone).
                    _ => {
                        let seq = next_seq.saturating_sub(arg);
                        if let Some(v) = w.get_mut(&seq) {
                            *v += 1;
                        }
                        if let Some(v) = model.get_mut(&seq) {
                            *v += 1;
                        }
                    }
                }
                assert_same(&w, &model, next_seq);
                let oldest = model.iter().next().map(|(&s, &v)| (s, v));
                prop_assert_eq!(w.first_mut().map(|(s, v)| (s, *v)), oldest);
            }
            // Slots are reused: storage is bounded by the blocks in
            // flight, not by the span of their sequence numbers.
            prop_assert!(w.slots.len() <= 32);
        }
    }

    /// An old block outlives many squashed successors: the live span
    /// grows past the table, live blocks collide in it, and lookups of
    /// both the evicted and the evicting block still answer.
    #[test]
    fn span_wider_than_the_table() {
        let mut w = BlockWindow::new();
        let mut model = BTreeMap::new();
        w.insert(0, 100);
        model.insert(0, 100);
        let mut next_seq = 1;
        for round in 0..3 * TABLE as u64 {
            for _ in 0..1 + round % 3 {
                w.insert(next_seq, next_seq);
                model.insert(next_seq, next_seq);
                next_seq += 1;
            }
            assert_same(&w, &model, next_seq);
            // Keep block 0 and (every fourth round) one more survivor.
            let from = if round % 4 == 0 { next_seq - 1 } else { 1 };
            let from = from.max(model.keys().nth(1).map_or(1, |&s| s + 1));
            while let Some(v) = w.pop_back_from(from) {
                assert_eq!(Some(v), model.pop_last().map(|(_, v)| v));
            }
            assert_same(&w, &model, next_seq);
        }
        assert!(next_seq > 2 * TABLE as u64);
        assert_eq!(w[&0], 100);
        // `TABLE` collides with block 0's bucket: install it, then both
        // must still resolve.
        let colliding = next_seq.next_multiple_of(TABLE as u64);
        w.insert(colliding, 7);
        model.insert(colliding, 7);
        assert_same(&w, &model, colliding + 1);
        assert_eq!(w.remove(&0), Some(100));
        model.remove(&0);
        assert_same(&w, &model, colliding + 1);
    }
}
