//! The scheduler signals: three lists the stage loops walk every cycle,
//! each kept together with the bitmask that summarises it.
//!
//! `issue_stage`, `completion_stage` and `dispatch_stage` visit only the
//! participants a mask names, in ascending order, and that order feeds
//! mesh arbitration — so a mask that disagrees with its list changes
//! cycle counts silently. Each type here owns one list and its mask; its
//! methods are the only code that writes either, so the two cannot
//! drift, and `check()` (run after every `step` under debug assertions)
//! is a backstop rather than the enforcement.

use std::collections::VecDeque;
use std::ops::Range;

/// The lowest part at or above `from` whose bit is set in `mask`.
#[inline]
fn next_part(mask: u32, from: usize) -> Option<usize> {
    let rest = u64::from(mask) >> from;
    (rest != 0).then(|| from + rest.trailing_zeros() as usize)
}

/// What an issue pass does with a ready entry it visits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Pick {
    /// It issued: leaves the list and uses one issue slot.
    Take,
    /// Passed over this cycle (no FP slot left): stays, in order.
    Keep,
    /// Its block is gone (committed without it): leaves the list and
    /// uses no slot.
    Drop,
}

/// Per participant core: ready-to-issue `(seq, inst)` entries, strictly
/// ascending (the issue order), and the mask of non-empty lists.
#[derive(Debug, Default)]
pub(super) struct ReadyLists {
    lists: Vec<Vec<(u64, u8)>>,
    mask: u32,
}

impl ReadyLists {
    /// Empties the lists and sizes them for `n` participants.
    pub(super) fn reset(&mut self, n: usize) {
        self.lists = vec![Vec::new(); n];
        self.mask = 0;
    }

    /// Whether any participant has an instruction to issue next cycle.
    pub(super) fn any_ready(&self) -> bool {
        self.mask != 0
    }

    /// The lowest part at or above `from` with a non-empty list. The
    /// mask is read at each call, as a scan testing every bit would.
    #[inline]
    pub(super) fn next_part(&self, from: usize) -> Option<usize> {
        next_part(self.mask, from)
    }

    /// Queues an instruction whose last input arrived. Blocks dispatch
    /// and wake oldest-first most of the time, so the common case
    /// appends.
    pub(super) fn push(&mut self, part: usize, entry: (u64, u8)) {
        let list = &mut self.lists[part];
        if list.last().is_none_or(|&last| last < entry) {
            list.push(entry);
        } else if let Err(at) = list.binary_search(&entry) {
            list.insert(at, entry);
        }
        self.mask |= 1 << part;
    }

    /// One ascending pass over `part`'s list, until `width` entries
    /// were taken: `pick` says what becomes of each entry visited. Kept
    /// ones compact down in order and the unvisited tail closes the gap.
    pub(super) fn take_picks(
        &mut self,
        part: usize,
        width: usize,
        mut pick: impl FnMut(u64, u8) -> Pick,
    ) {
        let list = &mut self.lists[part];
        let (mut visited, mut kept, mut taken) = (0, 0, 0);
        while visited < list.len() && taken < width {
            let (seq, id) = list[visited];
            visited += 1;
            match pick(seq, id) {
                Pick::Take => taken += 1,
                Pick::Keep => {
                    list[kept] = (seq, id);
                    kept += 1;
                }
                Pick::Drop => {}
            }
        }
        list.copy_within(visited.., kept);
        list.truncate(list.len() - (visited - kept));
        if list.is_empty() {
            self.mask &= !(1 << part);
        }
    }

    /// Drops every entry of blocks `seq` and younger (a squash).
    pub(super) fn truncate_from(&mut self, seq: u64) {
        for (part, list) in self.lists.iter_mut().enumerate() {
            list.truncate(list.partition_point(|&(s, _)| s < seq));
            if list.is_empty() {
                self.mask &= !(1 << part);
            }
        }
    }

    /// Entries per participant (debug dumps).
    pub(super) fn lens(&self) -> Vec<usize> {
        self.lists.iter().map(Vec::len).collect()
    }

    /// Panics unless every list is strictly ascending and its mask bit
    /// is set iff it is non-empty.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn check(&self) {
        for (part, list) in self.lists.iter().enumerate() {
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "ready[{part}] strictly ascending"
            );
            assert_eq!(
                self.mask >> part & 1 == 1,
                !list.is_empty(),
                "ready mask bit {part}"
            );
        }
    }
}

/// A scheduled execution completion.
#[derive(Clone, Copy, Debug)]
pub(super) struct ExecDone {
    /// Cycle the result becomes routable.
    pub(super) done: u64,
    /// Owning block sequence number.
    pub(super) seq: u64,
    /// Instruction id within the block.
    pub(super) inst: u8,
    /// Produced value.
    pub(super) result: u64,
}

/// Per participant core: in-flight completions in `(done, push order)`
/// — earliest completion first, ties in issue order — and the mask of
/// non-empty queues. Every latency is 1–16 cycles, so a push finds its
/// place at or next to the back, and its position is the tie-break.
#[derive(Debug, Default)]
pub(super) struct ExecQueues {
    queues: Vec<VecDeque<ExecDone>>,
    mask: u32,
}

impl ExecQueues {
    /// Empties the queues and sizes them for `n` participants.
    pub(super) fn reset(&mut self, n: usize) {
        self.queues = (0..n).map(|_| VecDeque::new()).collect();
        self.mask = 0;
    }

    /// The lowest part at or above `from` with completions in flight
    /// (see [`ReadyLists::next_part`]).
    #[inline]
    pub(super) fn next_part(&self, from: usize) -> Option<usize> {
        next_part(self.mask, from)
    }

    /// Starts `inst` of block `seq` on `part`; its result is due at
    /// `done`.
    pub(super) fn push(&mut self, part: usize, done: u64, seq: u64, inst: u8, result: u64) {
        self.mask |= 1 << part;
        let q = &mut self.queues[part];
        let e = ExecDone {
            done,
            seq,
            inst,
            result,
        };
        // Behind everything due at or before `done`: mostly the back.
        if q.back().is_none_or(|last| last.done <= done) {
            q.push_back(e);
        } else {
            q.insert(q.partition_point(|e| e.done <= done), e);
        }
    }

    /// Pops `part`'s next completion due at or before `now`.
    pub(super) fn pop_due(&mut self, part: usize, now: u64) -> Option<ExecDone> {
        let q = &mut self.queues[part];
        let e = *q.front().filter(|e| e.done <= now)?;
        q.pop_front();
        if q.is_empty() {
            self.mask &= !(1 << part);
        }
        Some(e)
    }

    /// Drops every completion of blocks `seq` and younger (a squash).
    pub(super) fn truncate_from(&mut self, seq: u64) {
        for (part, q) in self.queues.iter_mut().enumerate() {
            q.retain(|e| e.seq < seq);
            if q.is_empty() {
                self.mask &= !(1 << part);
            }
        }
    }

    /// Completions in flight per participant (debug dumps).
    pub(super) fn lens(&self) -> Vec<usize> {
        self.queues.iter().map(VecDeque::len).collect()
    }

    /// Panics unless each queue is in completion order and its mask bit
    /// is set iff it is non-empty.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn check(&self) {
        for (part, q) in self.queues.iter().enumerate() {
            assert!(
                q.iter()
                    .zip(q.iter().skip(1))
                    .all(|(a, b)| a.done <= b.done),
                "exec[{part}] in completion order"
            );
            assert_eq!(
                self.mask >> part & 1 == 1,
                !q.is_empty(),
                "exec mask bit {part}"
            );
        }
    }
}

/// One participant's cursor into its dispatch slice of a block.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    /// Cycle the slice may start; `u64::MAX` until the core's fetch
    /// command arrives.
    start_at: u64,
    /// Index of the next instruction of the slice to dispatch.
    next: u8,
    len: u8,
}

/// A block's dispatch progress: one cursor per participant, the mask of
/// *runnable* slices (fetch command arrived, instructions left — the
/// exact set `dispatch_stage` could advance) and the count of slices
/// not yet finished, which gates commit. Only [`Armed`] changes it.
#[derive(Clone, Debug)]
pub(super) struct Slices {
    cur: Vec<Cursor>,
    runnable: u32,
    unfinished: usize,
    /// Cycle the latest slice finished dispatching.
    t_done: u64,
}

impl Slices {
    /// Fresh cursors over slices of the given lengths, none started.
    pub(super) fn new(lens: impl Iterator<Item = usize>) -> Self {
        let cur: Vec<Cursor> = lens
            .map(|len| Cursor {
                start_at: u64::MAX,
                next: 0,
                len: len as u8,
            })
            .collect();
        Slices {
            unfinished: cur.len(),
            cur,
            runnable: 0,
            t_done: 0,
        }
    }

    /// Slices still to finish dispatching (zero gates commit).
    pub(super) fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Cycle the latest slice finished dispatching.
    pub(super) fn t_done(&self) -> u64 {
        self.t_done
    }

    fn finish(&mut self, now: u64) {
        self.unfinished -= 1;
        self.t_done = self.t_done.max(now);
    }

    #[cfg(any(test, debug_assertions))]
    fn check(&self, seq: u64) {
        for (part, c) in self.cur.iter().enumerate() {
            assert_eq!(
                self.runnable >> part & 1 == 1,
                c.start_at != u64::MAX && c.next < c.len,
                "block {seq} runnable bit {part}"
            );
        }
        let finished = |c: &&Cursor| c.start_at != u64::MAX && c.next == c.len;
        let finished = self.cur.iter().filter(finished).count();
        assert_eq!(self.unfinished, self.cur.len() - finished, "block {seq}");
    }
}

/// What [`Armed::advance`] claimed from a slice.
pub(super) struct Claim {
    /// Indices into the slice of the instructions to dispatch now.
    pub(super) ids: Range<usize>,
    /// The block's last runnable slice finished: it left the list.
    pub(super) disarmed: bool,
}

/// Sequence numbers of the in-flight blocks with a runnable slice,
/// ascending: the only blocks the dispatch stage looks at.
#[derive(Debug, Default)]
pub(super) struct Armed {
    seqs: Vec<u64>,
}

impl Armed {
    /// Forgets every block (recomposition flushed them all).
    pub(super) fn reset(&mut self) {
        self.seqs.clear();
    }

    /// The `i`-th oldest armed block.
    pub(super) fn get(&self, i: usize) -> Option<u64> {
        self.seqs.get(i).copied()
    }

    /// `part`'s fetch command for block `seq` arrived at `now`; its
    /// slice may dispatch from `start_at`. An empty slice finishes at
    /// once.
    pub(super) fn arm(&mut self, seq: u64, s: &mut Slices, part: usize, now: u64, start_at: u64) {
        s.cur[part].start_at = start_at;
        if s.cur[part].len == 0 {
            s.finish(now);
            return;
        }
        // Blocks mostly arm oldest-first, but a block whose arrived
        // slices all finished re-arms when a later command lands.
        if s.runnable == 0 {
            if let Err(at) = self.seqs.binary_search(&seq) {
                self.seqs.insert(at, seq);
            }
        }
        s.runnable |= 1 << part;
    }

    /// Claims up to `budget` instructions of the `i`-th armed block's
    /// slice on `part`, if that slice is runnable and has started by
    /// `now`. Finishing the block's last runnable slice removes it from
    /// the list, so the caller's next block is again the `i`-th.
    pub(super) fn advance(
        &mut self,
        i: usize,
        s: &mut Slices,
        part: usize,
        now: u64,
        budget: usize,
    ) -> Option<Claim> {
        let c = &mut s.cur[part];
        if s.runnable & (1 << part) == 0 || c.start_at > now {
            return None;
        }
        let from = usize::from(c.next);
        let take = budget.min(usize::from(c.len) - from);
        c.next += take as u8;
        let mut disarmed = false;
        if c.next == c.len {
            s.finish(now);
            s.runnable &= !(1 << part);
            disarmed = s.runnable == 0;
            if disarmed {
                self.seqs.remove(i);
            }
        }
        Some(Claim {
            ids: from..from + take,
            disarmed,
        })
    }

    /// Drops blocks `seq` and younger (a squash).
    pub(super) fn truncate_from(&mut self, seq: u64) {
        self.seqs.truncate(self.seqs.partition_point(|&s| s < seq));
    }

    /// Union of the armed blocks' runnable masks: every part the
    /// dispatch stage can make progress on.
    pub(super) fn parts<'a>(&self, slices: impl Fn(u64) -> &'a Slices) -> u32 {
        self.seqs.iter().fold(0, |m, &seq| m | slices(seq).runnable)
    }

    /// Panics unless every block's runnable bits and unfinished count
    /// match its cursors and the list names exactly the blocks with a
    /// runnable slice, in window order.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn check<'a>(&self, blocks: impl Iterator<Item = (u64, &'a Slices)>) {
        let mut runnable = Vec::new();
        for (seq, s) in blocks {
            s.check(seq);
            if s.runnable != 0 {
                runnable.push(seq);
            }
        }
        assert_eq!(runnable, self.seqs, "armed list");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    const PARTS: usize = 4;

    proptest! {
        /// Wakeups in any order, issue passes that skip some entries,
        /// squashes and recompositions against a `BTreeSet` per part:
        /// issue order is the set's order.
        #[test]
        fn ready_lists_behave_like_ordered_sets(
            ops in prop::collection::vec((0u8..8, 0usize..PARTS, 0u64..12, 0u8..6), 1..300),
        ) {
            let mut r = ReadyLists::default();
            r.reset(PARTS);
            let mut model = vec![BTreeSet::new(); PARTS];
            let mut out = Vec::new();
            for (op, part, seq, id) in ops {
                match op {
                    0..=3 => {
                        r.push(part, (seq, id));
                        model[part].insert((seq, id));
                    }
                    // Issue up to `id` entries, passing over ids that
                    // are 1 mod 3 and finding those 2 mod 3 gone.
                    4 | 5 => {
                        out.clear();
                        r.take_picks(part, usize::from(id), |s, i| {
                            let verdict = [Pick::Take, Pick::Keep, Pick::Drop][usize::from(i % 3)];
                            if verdict == Pick::Take {
                                out.push((s, i));
                            }
                            verdict
                        });
                        let (mut want, mut gone) = (Vec::new(), Vec::new());
                        for &e in &model[part] {
                            if want.len() == usize::from(id) {
                                break;
                            }
                            match e.1 % 3 {
                                0 => want.push(e),
                                2 => gone.push(e),
                                _ => {}
                            }
                        }
                        for e in want.iter().chain(&gone) {
                            model[part].remove(e);
                        }
                        prop_assert_eq!(&out, &want);
                    }
                    6 => {
                        r.truncate_from(seq);
                        for m in &mut model {
                            m.retain(|&(s, _)| s < seq);
                        }
                    }
                    _ => {
                        r.reset(PARTS);
                        model.iter_mut().for_each(BTreeSet::clear);
                    }
                }
                r.check();
                for (p, m) in model.iter().enumerate() {
                    prop_assert!(r.lists[p].iter().eq(m.iter()));
                }
                prop_assert_eq!(r.any_ready(), model.iter().any(|m| !m.is_empty()));
                let first = (0..PARTS).find(|&p| !model[p].is_empty());
                prop_assert_eq!(r.next_part(0), first);
            }
        }

        /// Completions pop by `(done, push order)` — the order a sorted
        /// `Vec` of the same pushes gives — through squashes.
        #[test]
        fn exec_queues_pop_in_completion_then_issue_order(
            ops in prop::collection::vec((0u8..8, 0usize..PARTS, 0u64..12, 1u64..=16), 1..300),
        ) {
            let mut q = ExecQueues::default();
            q.reset(PARTS);
            // Per part: (done, push order, seq), kept sorted.
            let mut model: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); PARTS];
            let (mut now, mut pushes) = (0u64, 0u64);
            for (op, part, seq, lat) in ops {
                match op {
                    0..=3 => {
                        q.push(part, now + lat, seq, 0, pushes);
                        model[part].push((now + lat, pushes, seq));
                        model[part].sort_unstable();
                        pushes += 1;
                    }
                    4 | 5 => {
                        now += lat - 1;
                        while let Some(e) = q.pop_due(part, now) {
                            prop_assert!(e.done <= now);
                            let (done, order, seq) = model[part].remove(0);
                            prop_assert_eq!((e.done, e.result, e.seq), (done, order, seq));
                        }
                        prop_assert!(model[part].first().is_none_or(|e| e.0 > now));
                    }
                    6 => {
                        q.truncate_from(seq);
                        for m in &mut model {
                            m.retain(|e| e.2 < seq);
                        }
                    }
                    _ => {
                        q.reset(PARTS);
                        model.iter_mut().for_each(Vec::clear);
                    }
                }
                q.check();
                prop_assert_eq!(q.lens(), model.iter().map(Vec::len).collect::<Vec<_>>());
                let first = (0..PARTS).find(|&p| !model[p].is_empty());
                prop_assert_eq!(q.next_part(0), first);
            }
        }

        /// Fetch commands, dispatch and squashes in any order: the list
        /// always names, oldest first, the blocks whose recomputed
        /// runnable mask is non-zero, and claims walk each slice once.
        #[test]
        fn armed_list_tracks_runnable_blocks(
            ops in prop::collection::vec((0u8..8, 0usize..PARTS, 0u64..6, 1usize..4), 1..300),
        ) {
            let lens = [3usize, 0, 2, 5];
            let mut armed = Armed::default();
            let mut blocks: BTreeMap<u64, (Slices, [bool; PARTS], [usize; PARTS])> = BTreeMap::new();
            let (mut now, mut next_seq) = (0u64, 0u64);
            for (op, part, arg, budget) in ops {
                now += 1;
                match op {
                    0 | 1 => {
                        let s = Slices::new(lens.iter().copied());
                        blocks.insert(next_seq, (s, [false; PARTS], [0; PARTS]));
                        next_seq += 1;
                    }
                    // A fetch command for a slice that has none yet.
                    2 | 3 => {
                        let nth = arg as usize % blocks.len().max(1);
                        let live = blocks.iter_mut().nth(nth);
                        if let Some((&seq, (s, cmd, _))) = live.filter(|(_, b)| !b.1[part]) {
                            armed.arm(seq, s, part, now, now + arg);
                            cmd[part] = true;
                        }
                    }
                    // One part's dispatch pass, oldest block first.
                    4..=6 => {
                        let (mut i, mut left) = (0, budget);
                        while let Some(seq) = armed.get(i).filter(|_| left > 0) {
                            let (s, _, taken) = blocks.get_mut(&seq).expect("armed is live");
                            let Some(c) = armed.advance(i, s, part, now, left) else {
                                i += 1;
                                continue;
                            };
                            prop_assert_eq!(c.ids.start, taken[part]);
                            prop_assert!(!c.ids.is_empty() && c.ids.end <= lens[part]);
                            taken[part] = c.ids.end;
                            left -= c.ids.len();
                            i += usize::from(!c.disarmed);
                        }
                    }
                    _ => {
                        let from = arg.min(next_seq);
                        armed.truncate_from(from);
                        blocks.retain(|&seq, _| seq < from);
                    }
                }
                armed.check(blocks.iter().map(|(&seq, b)| (seq, &b.0)));
                // The recomputed signals, from what the model saw happen.
                let bits = |b: &(Slices, [bool; PARTS], [usize; PARTS])| {
                    (0..PARTS).filter(|&p| b.1[p] && b.2[p] < lens[p]).fold(0, |m, p| m | 1 << p)
                };
                let want: Vec<u64> =
                    blocks.iter().filter(|(_, b)| bits(b) != 0).map(|(&s, _)| s).collect();
                prop_assert_eq!(&armed.seqs, &want);
                let slices = |seq: u64| &blocks[&seq].0;
                prop_assert_eq!(armed.parts(slices), blocks.values().fold(0, |m, b| m | bits(b)));
                for b in blocks.values() {
                    let done = (0..PARTS).filter(|&p| b.1[p] && b.2[p] == lens[p]).count();
                    prop_assert_eq!(b.0.unfinished(), PARTS - done);
                }
            }
        }
    }
}
