//! Register allocation for cross-block values.
//!
//! Values that live entirely within one hyperblock travel over dataflow
//! targets and need no register. Only block-crossing values get one of
//! the general-purpose architectural registers, colored greedily on a
//! block-boundary interference graph. Values live across a call are
//! additionally assigned caller-save frame slots.

use crate::ir::{Function, Terminator, VReg};
use crate::liveness::{set_bits, Liveness, VRegRows, VRegSet};
use clp_isa::Reg;

/// First general-purpose allocatable register (below are the argument
/// registers `r1..=r8` and `r0`, reserved).
const FIRST_ALLOC_REG: usize = 9;
/// Last general-purpose allocatable register (above are `SP` and `LINK`).
const LAST_ALLOC_REG: usize = 119;

/// The result of register allocation for one function. Both tables are
/// indexed by virtual-register id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Architectural register of every block-crossing virtual register.
    pub reg_of: Vec<Option<Reg>>,
    /// Caller-save frame slot (index, not byte offset) of every value
    /// live across some call.
    pub frame_slot: Vec<Option<usize>>,
    /// Frame size in bytes (0 for leaf functions with nothing to save).
    pub frame_bytes: i64,
}

impl Allocation {
    /// The register assigned to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not cross a block boundary (no register).
    #[must_use]
    pub fn reg(&self, v: VReg) -> Reg {
        self.try_reg(v)
            .unwrap_or_else(|| panic!("{v} has no register (block-local)"))
    }

    /// The register assigned to `v`, if it crosses a block boundary.
    #[must_use]
    pub(crate) fn try_reg(&self, v: VReg) -> Option<Reg> {
        self.reg_of.get(v.0 as usize).copied().flatten()
    }

    /// The caller-save frame slot of `v`, if it lives across a call.
    #[must_use]
    pub fn slot(&self, v: VReg) -> Option<usize> {
        self.frame_slot.get(v.0 as usize).copied().flatten()
    }
}

/// Register pressure exceeded the architectural register file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegPressureError {
    /// Function name.
    pub function: String,
    /// Colors needed.
    pub needed: usize,
    /// Colors available.
    pub available: usize,
}

impl std::fmt::Display for RegPressureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "function '{}' needs {} registers, only {} available",
            self.function, self.needed, self.available
        )
    }
}

impl std::error::Error for RegPressureError {}

/// The block-boundary interference graph: its vertices are the
/// block-crossing virtual registers in ascending id order, and two
/// interfere when one boundary set (a block's live-in or live-out) or one
/// extra clique holds both. Row `i` is a bitset over vertex indices.
#[derive(Debug)]
pub(crate) struct Interference {
    /// The vertices, ascending.
    pub verts: Vec<VReg>,
    /// Words per row.
    words: usize,
    /// `verts.len()` rows of `words` words.
    rows: Vec<u64>,
}

impl Interference {
    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..(i + 1) * self.words]
    }

    /// The vertices adjacent to vertex `i`, ascending.
    fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.row(i))
    }

    /// The number of vertices adjacent to vertex `i`.
    #[must_use]
    fn degree(&self, i: usize) -> usize {
        self.row(i).iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Builds the interference graph of `lv`'s boundary sets and
/// `extra_cliques`.
#[must_use]
pub(crate) fn interference(lv: &Liveness, extra_cliques: &VRegRows) -> Interference {
    let cliques = || {
        lv.live_in
            .rows()
            .chain(lv.live_out.rows())
            .chain(extra_cliques.rows())
    };
    let mut crossing = VRegSet::default();
    for s in cliques() {
        crossing.union_with(s);
    }
    let verts: Vec<VReg> = crossing.iter().collect();
    let width = verts.last().map_or(0, |v| v.0 as usize + 1);
    let mut index = vec![usize::MAX; width];
    for (i, v) in verts.iter().enumerate() {
        index[v.0 as usize] = i;
    }
    let words = verts.len().div_ceil(64);
    let mut rows = vec![0u64; verts.len() * words];
    let (mut members, mut mask) = (Vec::new(), vec![0u64; words]);
    for s in cliques() {
        members.clear();
        members.extend(s.iter().map(|v| index[v.0 as usize]));
        mask.fill(0);
        for &m in &members {
            mask[m / 64] |= 1 << (m % 64);
        }
        for &m in &members {
            for (w, &b) in rows[m * words..(m + 1) * words].iter_mut().zip(&mask) {
                *w |= b;
            }
        }
    }
    // No vertex interferes with itself.
    for i in 0..verts.len() {
        rows[i * words + i / 64] &= !(1 << (i % 64));
    }
    Interference { verts, words, rows }
}

/// The interference graph over ordered sets and an ordered index: the
/// reference [`interference`] is held to. Its inputs are ordered sets
/// too, so it shares no code with the bitsets.
#[cfg(test)]
pub(crate) fn interference_sets(
    boundary: &[std::collections::BTreeSet<VReg>],
    extra_cliques: &[std::collections::BTreeSet<VReg>],
) -> (Vec<VReg>, Vec<std::collections::BTreeSet<usize>>) {
    use std::collections::{BTreeMap, BTreeSet};
    let mut crossing: BTreeSet<VReg> = BTreeSet::new();
    for s in boundary.iter().chain(extra_cliques) {
        crossing.extend(s.iter().copied());
    }
    let verts: Vec<VReg> = crossing.iter().copied().collect();
    let index: BTreeMap<VReg, usize> = verts.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); verts.len()];
    for s in boundary.iter().chain(extra_cliques) {
        let ids: Vec<usize> = s.iter().map(|v| index[v]).collect();
        for (k, &a) in ids.iter().enumerate() {
            for &b in &ids[k + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
    }
    (verts, adj)
}

/// Allocates registers and frame slots for `f`.
///
/// # Errors
///
/// Returns [`RegPressureError`] if the interference graph needs more
/// colors than `r9..=r119` provides (the compiler does not spill
/// block-crossing values; workloads are written to fit).
pub(crate) fn allocate(
    f: &Function,
    lv: &Liveness,
    extra_cliques: &VRegRows,
) -> Result<Allocation, RegPressureError> {
    let graph = interference(lv, extra_cliques);
    let n = graph.verts.len();

    // Greedy coloring, highest degree first (ties in id order: the sort
    // is stable).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(graph.degree(i)));
    let available = LAST_ALLOC_REG - FIRST_ALLOC_REG + 1;
    let mut color: Vec<Option<usize>> = vec![None; n];
    for &i in &order {
        // Every color given so far is below `available`, which is below
        // 128, so the neighbours' colors fit one mask.
        let used = graph
            .neighbors(i)
            .filter_map(|j| color[j])
            .fold(0u128, |m, c| m | 1 << c);
        let c = (!used).trailing_zeros() as usize;
        if c >= available {
            return Err(RegPressureError {
                function: f.name.clone(),
                needed: c + 1,
                available,
            });
        }
        color[i] = Some(c);
    }

    let mut reg_of = vec![None; f.n_vregs as usize];
    for (i, v) in graph.verts.iter().enumerate() {
        reg_of[v.0 as usize] = Some(Reg::new(FIRST_ALLOC_REG + color[i].expect("colored")));
    }

    // Frame slots: everything live into a call continuation except the
    // call's destination (which returns in r1).
    let mut frame_slot = vec![None; f.n_vregs as usize];
    let mut slots = 0;
    for b in &f.blocks {
        if let Terminator::Call { dst, cont, .. } = &b.term {
            for v in lv.live_in.row(cont.0).iter() {
                let slot = &mut frame_slot[v.0 as usize];
                if Some(v) != *dst && slot.is_none() {
                    *slot = Some(slots);
                    slots += 1;
                }
            }
        }
    }
    let frame_bytes = 8 * slots as i64;

    Ok(Allocation {
        reg_of,
        frame_slot,
        frame_bytes,
    })
}

/// The set of vregs a call block must save: values live into `cont`
/// minus the call destination.
#[must_use]
pub(crate) fn saved_across_call(
    lv: &Liveness,
    cont: crate::ir::BbId,
    dst: Option<VReg>,
) -> Vec<VReg> {
    lv.live_in
        .row(cont.0)
        .iter()
        .filter(|&v| Some(v) != dst)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::liveness::{liveness, liveness_sets};
    use clp_isa::Opcode;
    use std::collections::BTreeSet;

    #[test]
    fn disjoint_values_share_registers() {
        // Two values never live at the same boundary may share a color.
        let mut f = FunctionBuilder::new("g", 1);
        let x = f.param(0);
        let b1 = f.new_block();
        let b2 = f.new_block();
        let a = f.bin(Opcode::Add, x, x);
        f.jump(b1);
        f.switch_to(b1);
        let t = f.bin(Opcode::Mul, a, a); // a dies here
        f.jump(b2);
        f.switch_to(b2);
        let u = f.bin(Opcode::Add, t, t);
        f.ret(Some(u));
        let func = f.finish();
        let lv = liveness(&func);
        let alloc = allocate(&func, &lv, &VRegRows::default()).unwrap();
        // a and t are both crossing; they interfere? a live into b1,
        // t live into b2; never co-live.
        assert_ne!(alloc.try_reg(a), None);
        assert_ne!(alloc.try_reg(t), None);
        let regs: Vec<Reg> = alloc.reg_of.iter().flatten().copied().collect();
        let distinct: BTreeSet<Reg> = regs.iter().copied().collect();
        assert!(distinct.len() <= regs.len());
    }

    #[test]
    fn interfering_values_get_distinct_registers() {
        let mut f = FunctionBuilder::new("g", 2);
        let x = f.param(0);
        let y = f.param(1);
        let b1 = f.new_block();
        f.jump(b1);
        f.switch_to(b1);
        let s = f.bin(Opcode::Add, x, y); // x and y both live into b1
        f.ret(Some(s));
        let func = f.finish();
        let lv = liveness(&func);
        let alloc = allocate(&func, &lv, &VRegRows::default()).unwrap();
        assert_ne!(alloc.reg(x), alloc.reg(y));
    }

    #[test]
    fn frame_slots_for_call_crossing_values() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare();
        let mut f = FunctionBuilder::new("caller", 2);
        let x = f.param(0);
        let y = f.param(1);
        let cont = f.new_block();
        let out = f.vreg();
        f.call(callee, &[x], Some(out), cont);
        f.switch_to(cont);
        let s = f.bin(Opcode::Add, y, out);
        f.ret(Some(s));
        let func = f.finish();
        let link = func.link_vreg;
        let lv = liveness(&func);
        let alloc = allocate(&func, &lv, &VRegRows::default()).unwrap();
        // y and the link must be saved; out comes back in r1.
        assert!(alloc.slot(y).is_some());
        assert!(alloc.slot(link).is_some());
        assert!(alloc.slot(out).is_none());
        assert_eq!(alloc.frame_bytes, 16);
        let saved = saved_across_call(&lv, cont, Some(out));
        assert_eq!(saved.len(), 2);
    }

    #[test]
    fn leaf_function_has_no_frame() {
        let mut f = FunctionBuilder::new("leaf", 1);
        let x = f.param(0);
        f.ret(Some(x));
        let func = f.finish();
        let lv = liveness(&func);
        let alloc = allocate(&func, &lv, &VRegRows::default()).unwrap();
        assert_eq!(alloc.frame_bytes, 0);
    }

    #[test]
    fn registers_stay_in_allocatable_range() {
        let mut f = FunctionBuilder::new("many", 8);
        let b1 = f.new_block();
        let vals: Vec<_> = (0..8).map(|i| f.param(i)).collect();
        f.jump(b1);
        f.switch_to(b1);
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = f.bin(Opcode::Add, acc, v);
        }
        f.ret(Some(acc));
        let func = f.finish();
        let lv = liveness(&func);
        let alloc = allocate(&func, &lv, &VRegRows::default()).unwrap();
        for r in alloc.reg_of.iter().flatten() {
            assert!((FIRST_ALLOC_REG..=LAST_ALLOC_REG).contains(&r.index()));
        }
    }

    proptest::proptest! {
        /// The bit-row graph equals the ordered-set one, vertex for vertex
        /// and edge for edge, on generated programs with their hyperblock
        /// write-back cliques; the reference is fed the reference
        /// liveness.
        #[test]
        fn bit_rows_equal_the_ordered_set_graph(
            stmts in proptest::collection::vec(crate::fuzz::arb_stmt(3), 1..8),
            seeds in proptest::collection::vec(-50i64..50, 1..5),
        ) {
            let func = crate::fuzz::fuzz_function(&stmts, &seeds).finish();
            let hir = crate::hyperblock::form_hyperblocks(&func, &Default::default());
            let lv = liveness(&func);
            let cliques = crate::codegen::write_back_cliques(&func, &hir, &lv);
            let graph = interference(&lv, &cliques);
            let (live_in, live_out) = liveness_sets(&func);
            let boundary: Vec<BTreeSet<VReg>> = live_in.into_iter().chain(live_out).collect();
            let extra: Vec<BTreeSet<VReg>> = cliques.rows().map(|c| c.iter().collect()).collect();
            let (verts, adj) = interference_sets(&boundary, &extra);
            proptest::prop_assert_eq!(&graph.verts, &verts);
            for (i, row) in adj.iter().enumerate() {
                let fresh: Vec<usize> = graph.neighbors(i).collect();
                let reference: Vec<usize> = row.iter().copied().collect();
                proptest::prop_assert_eq!(fresh, reference);
            }
        }
    }
}
