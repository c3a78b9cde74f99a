//! Block-boundary liveness analysis.
//!
//! Only values that are live across a basic-block boundary ever occupy an
//! architectural register in the EDGE lowering (intra-block values flow
//! through dataflow targets), so this analysis drives both register
//! allocation and `READ`/`WRITE` insertion.
//!
//! Each block's transfer is summarised once as `in = gen ∪ (out − kill)`
//! over bitsets indexed by virtual-register id, and a worklist revisits a
//! block only when a successor's live-in grew. Every set iterates in
//! ascending id order, which fixes the order of what follows from it:
//! register colors, frame slots and write-backs.

use crate::ir::{Function, Terminator, VReg};

/// A set of virtual registers: one bit per register id, iterated in
/// ascending id order. It grows to hold any id inserted.
#[derive(Clone, Debug, Default)]
pub struct VRegSet(Vec<u64>);

impl VRegSet {
    /// An empty set with room for ids `0..n` without growing.
    #[must_use]
    pub(crate) fn with_capacity(n: usize) -> Self {
        VRegSet(vec![0; n.div_ceil(64)])
    }

    /// True if `v` is in the set.
    #[must_use]
    pub fn contains(&self, v: VReg) -> bool {
        let i = v.0 as usize;
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
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

    /// Removes `v`.
    pub(crate) fn remove(&mut self, v: VReg) {
        let i = v.0 as usize;
        if let Some(w) = self.0.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// Adds every member of `other`.
    pub(crate) fn union_with(&mut self, other: &VRegSet) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w |= o;
        }
    }

    /// Removes every member of `other`.
    pub(crate) fn subtract(&mut self, other: &VRegSet) {
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w &= !o;
        }
    }

    /// Keeps only the members of `other`.
    pub(crate) fn intersect_with(&mut self, other: &VRegSet) {
        for (k, w) in self.0.iter_mut().enumerate() {
            *w &= other.0.get(k).copied().unwrap_or(0);
        }
    }

    /// The members, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = VReg> + '_ {
        set_bits(&self.0).map(|i| VReg(i as u32))
    }

    /// The number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
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

/// Live-in/live-out sets per basic block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Liveness {
    /// Registers live at entry of each block.
    pub live_in: Vec<VRegSet>,
    /// Registers live at exit of each block.
    pub live_out: Vec<VRegSet>,
}

impl Liveness {
    /// True if `v` is live across any block boundary.
    #[must_use]
    pub fn crosses_blocks(&self, v: VReg) -> bool {
        self.live_in.iter().any(|s| s.contains(v))
    }
}

/// Block `bb`'s transfer `in = gen ∪ (out − kill)` as `(gen, kill)`: the
/// terminator, then the ops in reverse, each killing its unpredicated
/// definition and then adding its uses.
fn gen_kill(f: &Function, bb: usize) -> (VRegSet, VRegSet) {
    let block = &f.blocks[bb];
    let width = f.n_vregs as usize;
    let (mut gen, mut kill) = (VRegSet::with_capacity(width), VRegSet::with_capacity(width));
    if let Terminator::Call { dst: Some(d), .. } = &block.term {
        gen.remove(*d);
        kill.insert(*d);
    }
    for u in block.term.uses(f.link_vreg) {
        gen.insert(u);
    }
    for op in block.ops.iter().rev() {
        if op.pred.is_empty() {
            if let Some(d) = op.kind.dst() {
                gen.remove(d);
                kill.insert(d);
            }
        }
        for u in op.uses() {
            gen.insert(u);
        }
    }
    (gen, kill)
}

/// Computes block-boundary liveness for `f`: the least fixed point, by a
/// worklist over predecessors.
#[must_use]
pub fn liveness(f: &Function) -> Liveness {
    let n = f.blocks.len();
    let succs: Vec<Vec<usize>> = f
        .blocks
        .iter()
        .map(|b| b.term.successors().iter().map(|s| s.0).collect())
        .collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (bb, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(bb);
        }
    }
    let transfer: Vec<(VRegSet, VRegSet)> = (0..n).map(|bb| gen_kill(f, bb)).collect();
    let empty = VRegSet::with_capacity(f.n_vregs as usize);
    let mut live_in = vec![empty.clone(); n];
    let mut live_out = vec![empty; n];
    // Popped last block first, as a backward analysis converges fastest.
    let mut work: Vec<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(bb) = work.pop() {
        queued[bb] = false;
        let mut out = VRegSet::with_capacity(f.n_vregs as usize);
        for &s in &succs[bb] {
            out.union_with(&live_in[s]);
        }
        let (gen, kill) = &transfer[bb];
        let mut inn = out.clone();
        inn.subtract(kill);
        inn.union_with(gen);
        live_out[bb] = out;
        if inn != live_in[bb] {
            live_in[bb] = inn;
            for &p in &preds[bb] {
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
            assert!(lv.live_in[h.0].contains(v), "{v} live into header");
            assert!(lv.crosses_blocks(v));
        }
        // The loop condition c is consumed by the header's branch and is
        // not live into the body (the body doesn't read it).
        assert!(!lv.live_in[body.0].contains(c));
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
        assert!(lv.live_in[cont.0].contains(link));
        assert!(lv.live_in[0].contains(link));
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
        assert!(lv.live_in[cont.0].contains(out));
        assert!(
            !lv.live_in[0].contains(out),
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
            lv.live_in[0].contains(x),
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
            let sets = |v: &[VRegSet]| -> Vec<Vec<VReg>> {
                v.iter().map(|s| s.iter().collect()).collect()
            };
            let ordered = |v: &[std::collections::BTreeSet<VReg>]| -> Vec<Vec<VReg>> {
                v.iter().map(|s| s.iter().copied().collect()).collect()
            };
            proptest::prop_assert_eq!(sets(&lv.live_in), ordered(&live_in));
            proptest::prop_assert_eq!(sets(&lv.live_out), ordered(&live_out));
        }
    }
}
