//! Block-boundary liveness analysis.
//!
//! Only values that are live across a basic-block boundary ever occupy an
//! architectural register in the EDGE lowering (intra-block values flow
//! through dataflow targets), so this analysis drives both register
//! allocation and `READ`/`WRITE` insertion.
//!
//! Each block's transfer is summarised once as `in = gen ∪ (out − kill)`
//! over bit rows indexed by virtual-register id, all of a function's rows
//! in one flat matrix, and a worklist revisits a block only when a
//! successor's live-in grew. Every set iterates in ascending id order,
//! which fixes the order of what follows from it: register colors, frame
//! slots and write-backs.

use crate::ir::{Function, Terminator, VReg};

/// A set of virtual registers: one bit per register id, iterated in
/// ascending id order. It grows to hold any id inserted.
#[derive(Clone, Debug, Default)]
pub(crate) struct VRegSet(Vec<u64>);

impl VRegSet {
    /// Empties the set and makes room for ids `0..n`, keeping its buffer.
    pub(crate) fn reset(&mut self, n: usize) {
        self.0.clear();
        self.0.resize(n.div_ceil(64), 0);
    }

    /// The set as a borrowed row.
    #[must_use]
    pub(crate) fn as_row(&self) -> VRegRow<'_> {
        VRegRow(&self.0)
    }

    /// True if `v` is in the set.
    #[must_use]
    pub fn contains(&self, v: VReg) -> bool {
        self.as_row().contains(v)
    }

    /// Adds `v`; true if it was not there.
    pub(crate) fn insert(&mut self, v: VReg) -> bool {
        let i = v.0 as usize;
        if i / 64 >= self.0.len() {
            self.0.resize(i / 64 + 1, 0);
        }
        let bit = 1 << (i % 64);
        let fresh = self.0[i / 64] & bit == 0;
        self.0[i / 64] |= bit;
        fresh
    }

    /// Adds every member of `other`.
    pub(crate) fn union_with(&mut self, other: VRegRow<'_>) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (w, o) in self.0.iter_mut().zip(other.0) {
            *w |= o;
        }
    }

    /// Keeps only the members of `other`.
    pub(crate) fn intersect_with(&mut self, other: VRegRow<'_>) {
        for (k, w) in self.0.iter_mut().enumerate() {
            *w &= other.0.get(k).copied().unwrap_or(0);
        }
    }

    /// The members, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = VReg> + '_ {
        self.as_row().iter()
    }

    /// The number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_row().len()
    }
}

/// A borrowed set of virtual registers: one row of a [`VRegRows`]
/// matrix, or a whole [`VRegSet`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct VRegRow<'a>(&'a [u64]);

impl<'a> VRegRow<'a> {
    /// True if `v` is in the set.
    #[must_use]
    pub fn contains(self, v: VReg) -> bool {
        let i = v.0 as usize;
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The members, in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = VReg> + 'a {
        set_bits(self.0).map(|i| VReg(i as u32))
    }

    /// The number of members.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Equally wide sets of virtual registers, row after row in one buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VRegRows {
    /// Words per row (at least one).
    words: usize,
    /// The rows, end to end.
    bits: Vec<u64>,
}

impl VRegRows {
    /// `rows` empty rows with room for ids `0..width`.
    #[must_use]
    pub(crate) fn new(rows: usize, width: usize) -> Self {
        let words = width.div_ceil(64).max(1);
        VRegRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    /// The number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len() / self.words.max(1)
    }

    /// True if there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Row `r`.
    #[must_use]
    pub(crate) fn row(&self, r: usize) -> VRegRow<'_> {
        VRegRow(&self.bits[r * self.words..(r + 1) * self.words])
    }

    /// Row `r`, to change in place.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.bits[r * self.words..(r + 1) * self.words]
    }

    /// Every row, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = VRegRow<'_>> {
        self.bits.chunks_exact(self.words.max(1)).map(VRegRow)
    }

    /// Appends `set` (no wider than a row) as a new row.
    pub(crate) fn push(&mut self, set: &VRegSet) {
        let at = self.bits.len();
        self.bits.resize(at + self.words, 0);
        self.bits[at..at + set.0.len()].copy_from_slice(&set.0);
    }
}

/// The indices of the set bits of `words` (bit `i % 64` of word
/// `i / 64`), ascending.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(k, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                k * 64 + bit
            })
        })
    })
}

/// Equal when the members are, however much room either has.
impl PartialEq for VRegSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.0.len() <= other.0.len() {
            (&self.0, &other.0)
        } else {
            (&other.0, &self.0)
        };
        short[..] == long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for VRegSet {}

impl FromIterator<VReg> for VRegSet {
    fn from_iter<I: IntoIterator<Item = VReg>>(iter: I) -> Self {
        let mut set = VRegSet::default();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

/// Live-in/live-out sets per basic block: row `bb` of each matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Liveness {
    /// Registers live at entry of each block.
    pub live_in: VRegRows,
    /// Registers live at exit of each block.
    pub live_out: VRegRows,
}

/// Sets bit `v` of `row`.
fn set(row: &mut [u64], v: VReg) {
    let i = v.0 as usize;
    row[i / 64] |= 1 << (i % 64);
}

/// Clears bit `v` of `row`.
fn clear(row: &mut [u64], v: VReg) {
    let i = v.0 as usize;
    row[i / 64] &= !(1 << (i % 64));
}

/// Block `bb`'s transfer `in = gen ∪ (out − kill)`, into the zeroed rows
/// `gen` and `kill`: the terminator, then the ops in reverse, each
/// killing its unpredicated definition and then adding its uses.
fn gen_kill(f: &Function, bb: usize, gen: &mut [u64], kill: &mut [u64]) {
    let block = &f.blocks[bb];
    if let Terminator::Call { dst: Some(d), .. } = &block.term {
        clear(gen, *d);
        set(kill, *d);
    }
    for u in block.term.uses(f.link_vreg) {
        set(gen, u);
    }
    for op in block.ops.iter().rev() {
        if op.pred.is_empty() {
            if let Some(d) = op.kind.dst() {
                clear(gen, d);
                set(kill, d);
            }
        }
        for u in op.uses() {
            set(gen, u);
        }
    }
}

/// Computes block-boundary liveness for `f`: the least fixed point, by a
/// worklist over predecessors.
#[must_use]
pub fn liveness(f: &Function) -> Liveness {
    let n = f.blocks.len();
    let width = f.n_vregs as usize;
    // Predecessor lists, end to end: block `b`'s are
    // `preds[pred_start[b]..pred_start[b + 1]]`.
    let mut pred_start = vec![0usize; n + 1];
    for b in &f.blocks {
        for s in b.term.successors() {
            pred_start[s.0 + 1] += 1;
        }
    }
    for k in 0..n {
        pred_start[k + 1] += pred_start[k];
    }
    let mut preds = vec![0usize; pred_start[n]];
    let mut fill = pred_start.clone();
    for (bb, b) in f.blocks.iter().enumerate() {
        for s in b.term.successors() {
            preds[fill[s.0]] = bb;
            fill[s.0] += 1;
        }
    }
    let (mut gen, mut kill) = (VRegRows::new(n, width), VRegRows::new(n, width));
    for bb in 0..n {
        gen_kill(f, bb, gen.row_mut(bb), kill.row_mut(bb));
    }
    let mut live_in = VRegRows::new(n, width);
    let mut live_out = VRegRows::new(n, width);
    // Popped last block first, as a backward analysis converges fastest.
    let mut work: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(bb) = work.pop() {
        queued[bb] = false;
        let out = live_out.row_mut(bb);
        out.fill(0);
        for s in f.blocks[bb].term.successors() {
            for (w, i) in out.iter_mut().zip(live_in.row(s.0).0) {
                *w |= i;
            }
        }
        let (g, k) = (gen.row(bb).0, kill.row(bb).0);
        let mut grew = false;
        for (i, w) in live_in.row_mut(bb).iter_mut().enumerate() {
            let inn = g[i] | (out[i] & !k[i]);
            grew |= inn != *w;
            *w = inn;
        }
        if grew {
            for &p in &preds[pred_start[bb]..pred_start[bb + 1]] {
                if !queued[p] {
                    queued[p] = true;
                    work.push(p);
                }
            }
        }
    }
    Liveness { live_in, live_out }
}

/// The fixed point over ordered sets, rerunning every block's transfer
/// until nothing changes: the reference [`liveness`] is held to.
#[cfg(test)]
pub(crate) fn liveness_sets(
    f: &Function,
) -> (
    Vec<std::collections::BTreeSet<VReg>>,
    Vec<std::collections::BTreeSet<VReg>>,
) {
    use std::collections::BTreeSet;
    fn transfer(f: &Function, bb: usize, live_out: &BTreeSet<VReg>) -> BTreeSet<VReg> {
        let block = &f.blocks[bb];
        let mut live = live_out.clone();
        if let Terminator::Call { dst: Some(d), .. } = &block.term {
            live.remove(d);
        }
        for u in block.term.uses(f.link_vreg) {
            live.insert(u);
        }
        for op in block.ops.iter().rev() {
            if op.pred.is_empty() {
                if let Some(d) = op.kind.dst() {
                    live.remove(&d);
                }
            }
            for u in op.uses() {
                live.insert(u);
            }
        }
        live
    }
    let n = f.blocks.len();
    let mut live_in: Vec<BTreeSet<VReg>> = vec![BTreeSet::new(); n];
    let mut live_out: Vec<BTreeSet<VReg>> = vec![BTreeSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for bb in (0..n).rev() {
            let mut out = BTreeSet::new();
            for s in f.blocks[bb].term.successors() {
                out.extend(live_in[s.0].iter().copied());
            }
            let inn = transfer(f, bb, &out);
            if out != live_out[bb] {
                live_out[bb] = out;
                changed = true;
            }
            if inn != live_in[bb] {
                live_in[bb] = inn;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use clp_isa::Opcode;

    impl Liveness {
        /// True if `v` is live across any block boundary.
        fn crosses_blocks(&self, v: VReg) -> bool {
            self.live_in.rows().any(|s| s.contains(v))
        }
    }

    #[test]
    fn loop_carried_values_are_live() {
        let mut f = FunctionBuilder::new("sum", 2);
        let base = f.param(0);
        let n = f.param(1);
        let i = f.c(0);
        let acc = f.c(0);
        let (h, body, exit) = (f.new_block(), f.new_block(), f.new_block());
        f.jump(h);
        f.switch_to(h);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, body, exit);
        f.switch_to(body);
        let v = f.load(base, 0);
        f.bin_into(acc, Opcode::Add, acc, v);
        let one = f.c(1);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(h);
        f.switch_to(exit);
        f.ret(Some(acc));
        let func = f.finish();
        let lv = liveness(&func);
        // i, acc, base, n all live into the loop header.
        for v in [i, acc, base, n] {
            assert!(lv.live_in.row(h.0).contains(v), "{v} live into header");
            assert!(lv.crosses_blocks(v));
        }
        // The loop condition c is consumed by the header's branch and is
        // not live into the body (the body doesn't read it).
        assert!(!lv.live_in.row(body.0).contains(c));
    }

    #[test]
    fn block_local_temp_not_live() {
        let mut f = FunctionBuilder::new("t", 1);
        let x = f.param(0);
        let t = f.bin(Opcode::Add, x, x);
        let u = f.bin(Opcode::Mul, t, t);
        f.ret(Some(u));
        let func = f.finish();
        let lv = liveness(&func);
        assert!(!lv.crosses_blocks(t));
        assert!(!lv.crosses_blocks(u));
    }

    #[test]
    fn link_vreg_live_until_ret() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare();
        let mut f = FunctionBuilder::new("caller", 0);
        let cont = f.new_block();
        f.call(callee, &[], None, cont);
        f.switch_to(cont);
        f.ret(None);
        let func = f.finish();
        let link = func.link_vreg;
        let lv = liveness(&func);
        // The link register must survive across the call (live into cont).
        assert!(lv.live_in.row(cont.0).contains(link));
        assert!(lv.live_in.row(0).contains(link));
        let _ = pb;
    }

    #[test]
    fn call_dst_killed_not_live_before() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare();
        let mut f = FunctionBuilder::new("caller", 0);
        let cont = f.new_block();
        let out = f.vreg();
        f.call(callee, &[], Some(out), cont);
        f.switch_to(cont);
        f.ret(Some(out));
        let func = f.finish();
        let lv = liveness(&func);
        assert!(lv.live_in.row(cont.0).contains(out));
        assert!(
            !lv.live_in.row(0).contains(out),
            "dst defined by the call, not live before it"
        );
    }

    #[test]
    fn predicated_def_does_not_kill() {
        use crate::ir::{Op, OpKind};
        let mut f = FunctionBuilder::new("p", 2);
        let c = f.param(0);
        let x = f.param(1);
        let exit = f.new_block();
        f.jump(exit);
        f.switch_to(exit);
        f.ret(Some(x));
        let mut func = f.finish();
        // Predicated redefinition of x in the entry block.
        func.blocks[0].ops.push(Op {
            pred: vec![(c, true)],
            kind: OpKind::Const { dst: x, value: 1 },
        });
        let lv = liveness(&func);
        assert!(
            lv.live_in.row(0).contains(x),
            "old value may flow through the predicated def"
        );
    }

    proptest::proptest! {
        /// The worklist over bitsets computes the ordered-set fixed point
        /// exactly, block by block, on generated programs.
        #[test]
        fn worklist_bitsets_equal_the_ordered_set_fixed_point(
            stmts in proptest::collection::vec(crate::fuzz::arb_stmt(3), 1..8),
            seeds in proptest::collection::vec(-50i64..50, 1..5),
        ) {
            let func = crate::fuzz::fuzz_function(&stmts, &seeds).finish();
            let lv = liveness(&func);
            let (live_in, live_out) = liveness_sets(&func);
            let sets = |v: &VRegRows| -> Vec<Vec<VReg>> {
                v.rows().map(|s| s.iter().collect()).collect()
            };
            let ordered = |v: &[std::collections::BTreeSet<VReg>]| -> Vec<Vec<VReg>> {
                v.iter().map(|s| s.iter().copied().collect()).collect()
            };
            proptest::prop_assert_eq!(sets(&lv.live_in), ordered(&live_in));
            proptest::prop_assert_eq!(sets(&lv.live_out), ordered(&live_out));
        }
    }
}
