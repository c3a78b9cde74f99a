//! Hyperblock formation: predicated inlining of single-predecessor
//! successors, the generalization of chain merging, triangles, and
//! diamonds used to build large EDGE blocks out of small IR blocks.

use crate::ir::{BbId, Function, OpKind, Terminator, VReg};

/// A guard conjunction of a hyperblock: `len` `(register,
/// expected-truth)` conjuncts from `start` of its function's guard arena,
/// read with [`HirFunction::guard`]. Empty means unconditional.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PredRange {
    start: u32,
    len: u32,
}

impl PredRange {
    /// The number of conjuncts.
    #[must_use]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True for the unconditional guard.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// The conjuncts of every guard of one function, end to end. Guards are
/// never changed once written, so a guard formed from an empty one and
/// another shares the other's conjuncts.
#[derive(Clone, Debug, Default)]
struct GuardArena(Vec<(VReg, bool)>);

impl GuardArena {
    fn get(&self, p: PredRange) -> &[(VReg, bool)] {
        &self.0[p.start as usize..(p.start + p.len) as usize]
    }

    /// Appends `conjuncts` as a new guard.
    fn push(&mut self, conjuncts: &[(VReg, bool)]) -> PredRange {
        if conjuncts.is_empty() {
            return PredRange::default();
        }
        let start = self.0.len() as u32;
        self.0.extend_from_slice(conjuncts);
        PredRange {
            start,
            len: conjuncts.len() as u32,
        }
    }

    /// The guard `outer ∧ inner`, conjuncts of `outer` first.
    fn and(&mut self, outer: PredRange, inner: PredRange) -> PredRange {
        if inner.is_empty() {
            return outer;
        }
        if outer.is_empty() {
            return inner;
        }
        let start = self.0.len() as u32;
        self.0
            .extend_from_within(outer.start as usize..(outer.start + outer.len) as usize);
        self.0
            .extend_from_within(inner.start as usize..(inner.start + inner.len) as usize);
        PredRange {
            start,
            len: outer.len + inner.len,
        }
    }
}

/// An operation of a hyperblock: an IR operation under a guard (a
/// predicated op whose guard fails is a no-op).
#[derive(Clone, Debug, PartialEq)]
pub struct HirOp {
    /// Guard conjunction (empty = always executes).
    pub(crate) pred: PredRange,
    /// The operation proper.
    pub kind: OpKind,
}

/// An exit of a hyperblock: a guard conjunction plus a control transfer.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct HirExit {
    /// Guard (empty = unconditional). The guards of a block's exits
    /// partition: exactly one fires per execution.
    pub pred: PredRange,
    /// The transfer.
    pub kind: HirExitKind,
}

/// Control-transfer kinds of a hyperblock exit.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum HirExitKind {
    /// Jump to another hyperblock of the same function.
    Jump(BbId),
    /// Call a function, continuing at `cont` (always a block's sole,
    /// unconditional exit).
    Call {
        /// Callee.
        func: crate::ir::FuncId,
        /// Arguments (at most 8).
        args: Vec<VReg>,
        /// Destination for the return value.
        dst: Option<VReg>,
        /// Continuation block.
        cont: BbId,
    },
    /// Return from the function (always sole, unconditional).
    Ret(Option<VReg>),
    /// Stop the program.
    Halt,
}

/// A hyperblock: predicated straight-line ops plus partitioned exits.
#[derive(Clone, Debug, PartialEq)]
pub struct HirBlock {
    /// The (possibly predicated) operations, in program order.
    pub ops: Vec<HirOp>,
    /// The exits; their guards partition.
    pub(crate) exits: Vec<HirExit>,
}

impl HirBlock {
    fn from_basic(block: &crate::ir::BasicBlock, guards: &mut GuardArena) -> Self {
        let always = PredRange::default();
        let exits = match &block.term {
            Terminator::Jump(b) => vec![HirExit {
                pred: always,
                kind: HirExitKind::Jump(*b),
            }],
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => vec![
                HirExit {
                    pred: guards.push(&[(*cond, true)]),
                    kind: HirExitKind::Jump(*then_bb),
                },
                HirExit {
                    pred: guards.push(&[(*cond, false)]),
                    kind: HirExitKind::Jump(*else_bb),
                },
            ],
            Terminator::Call {
                func,
                args,
                dst,
                cont,
            } => vec![HirExit {
                pred: always,
                kind: HirExitKind::Call {
                    func: *func,
                    args: args.clone(),
                    dst: *dst,
                    cont: *cont,
                },
            }],
            Terminator::Ret(v) => vec![HirExit {
                pred: always,
                kind: HirExitKind::Ret(*v),
            }],
            Terminator::Halt => vec![HirExit {
                pred: always,
                kind: HirExitKind::Halt,
            }],
        };
        HirBlock {
            ops: block
                .ops
                .iter()
                .map(|op| HirOp {
                    pred: guards.push(&op.pred),
                    kind: op.kind.clone(),
                })
                .collect(),
            exits,
        }
    }

    /// Memory operations in the block (bounds the LSID budget).
    #[must_use]
    fn memory_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.kind.is_memory()).count()
    }

    /// Estimated EDGE instructions contributed by the ops alone
    /// (instruction + fan-out movs + predicate materialization).
    #[must_use]
    fn op_cost(&self) -> usize {
        self.ops.iter().map(|o| 2 + o.pred.len().min(3)).sum()
    }
}

/// A function after hyperblock formation. `blocks[i]` is `None` when the
/// original block `i` was merged into a predecessor.
#[derive(Clone, Debug)]
pub struct HirFunction {
    /// Source-function name.
    pub name: String,
    /// Surviving hyperblocks (index = original [`BbId`]).
    pub blocks: Vec<Option<HirBlock>>,
    /// Entry block.
    pub entry: BbId,
    /// Number of blocks before formation (for reporting).
    pub blocks_before: usize,
    /// The conjuncts of every guard.
    guards: GuardArena,
}

impl HirFunction {
    /// The conjuncts of guard `p`, in order.
    #[must_use]
    pub(crate) fn guard(&self, p: PredRange) -> &[(VReg, bool)] {
        self.guards.get(p)
    }

    /// The layout order for address assignment: ascending block IDs, but
    /// a call's continuation is emitted immediately after the call block
    /// so that the RAS's `call address + frame` push predicts returns.
    #[must_use]
    pub(crate) fn layout_order(&self) -> Vec<BbId> {
        let n = self.blocks.len();
        let mut emitted = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let emit = |id: usize, order: &mut Vec<BbId>, emitted: &mut Vec<bool>| {
            let mut next = Some(id);
            while let Some(i) = next {
                if emitted[i] || self.blocks[i].is_none() {
                    break;
                }
                emitted[i] = true;
                order.push(BbId(i));
                next = self.blocks[i].as_ref().and_then(|b| {
                    b.exits.iter().find_map(|e| match &e.kind {
                        HirExitKind::Call { cont, .. } => Some(cont.0),
                        _ => None,
                    })
                });
            }
        };
        emit(self.entry.0, &mut order, &mut emitted);
        for i in 0..n {
            emit(i, &mut order, &mut emitted);
        }
        order
    }
}

/// Maximum memory operations per merged block (the LSID budget, with
/// headroom below `clp_isa::MAX_BLOCK_LSIDS`).
const MAX_MERGED_MEMORY_OPS: usize = 26;

/// Tuning knob for hyperblock formation: the size cap that the
/// compiler's retry loop lowers. A merged block also holds at most
/// `MAX_MERGED_MEMORY_OPS` memory operations and
/// [`clp_isa::MAX_BLOCK_EXITS`] exits.
#[derive(Clone, Copy, Debug)]
pub struct FormerOptions {
    /// Maximum estimated EDGE instructions per merged block. Every
    /// estimate is at least 24, so a cap of 0 merges nothing and every
    /// IR block becomes one EDGE block.
    pub max_edge_size: usize,
}

impl Default for FormerOptions {
    fn default() -> Self {
        FormerOptions { max_edge_size: 140 }
    }
}

/// Counts, into `counts`, the jump exits targeting each block.
fn jump_pred_counts(blocks: &[Option<HirBlock>], counts: &mut Vec<usize>) {
    counts.clear();
    counts.resize(blocks.len(), 0);
    for b in blocks.iter().flatten() {
        for e in &b.exits {
            if let HirExitKind::Jump(t) = e.kind {
                counts[t.0] += 1;
            }
        }
    }
}

/// Runs hyperblock formation over `f`.
#[must_use]
pub fn form_hyperblocks(f: &Function, opts: &FormerOptions) -> HirFunction {
    let mut guards = GuardArena::default();
    let mut blocks: Vec<Option<HirBlock>> = f
        .blocks
        .iter()
        .map(|b| Some(HirBlock::from_basic(b, &mut guards)))
        .collect();
    let blocks_before = blocks.len();

    // Pinned blocks can never be inlined: the entry (call target) and all
    // call continuations (return targets).
    let mut pinned = vec![false; blocks.len()];
    pinned[f.entry.0] = true;
    for b in &f.blocks {
        if let Terminator::Call { cont, .. } = &b.term {
            pinned[cont.0] = true;
        }
    }

    let mut counts = Vec::new();
    loop {
        jump_pred_counts(&blocks, &mut counts);
        let mut merged_any = false;

        'outer: for a in 0..blocks.len() {
            let Some(ablock) = blocks[a].as_ref() else {
                continue;
            };
            for (ei, exit) in ablock.exits.iter().enumerate() {
                let HirExitKind::Jump(bid) = exit.kind else {
                    continue;
                };
                let b = bid.0;
                if b == a || pinned[b] || counts[b] != 1 {
                    continue;
                }
                let Some(bblock) = blocks[b].as_ref() else {
                    continue;
                };
                // Only pure jump/halt exits may be inlined under a guard.
                if bblock
                    .exits
                    .iter()
                    .any(|e| matches!(e.kind, HirExitKind::Call { .. } | HirExitKind::Ret(_)))
                {
                    continue;
                }
                // Resource budgets.
                let merged_mem = ablock.memory_ops() + bblock.memory_ops();
                let merged_exits = ablock.exits.len() - 1 + bblock.exits.len();
                // Estimate the *merged* block directly: op costs add (the
                // inlined ops gain one guard conjunct each) but the fixed
                // read/write headroom is shared.
                let merged_size = ablock.op_cost()
                    + bblock.op_cost()
                    + bblock.ops.len() / 2
                    + 3 * merged_exits
                    + 24;
                if merged_mem > MAX_MERGED_MEMORY_OPS
                    || merged_exits > clp_isa::MAX_BLOCK_EXITS
                    || merged_size > opts.max_edge_size
                {
                    continue;
                }
                // Guard-corruption check: B's ops must not redefine any
                // vreg used by the inlining guard or by A's other exits'
                // guards (those are semantically evaluated before B runs).
                let guarded_by_a = |d: VReg| {
                    ablock
                        .exits
                        .iter()
                        .any(|e| guards.get(e.pred).iter().any(|&(v, _)| v == d))
                };
                if bblock
                    .ops
                    .iter()
                    .any(|o| o.kind.dst().is_some_and(guarded_by_a))
                {
                    continue;
                }

                // Perform the merge.
                let guard = exit.pred;
                let bblock = blocks[b].take().expect("checked above");
                let ablock = blocks[a].as_mut().expect("checked above");
                ablock.exits.remove(ei);
                for mut op in bblock.ops {
                    op.pred = guards.and(guard, op.pred);
                    ablock.ops.push(op);
                }
                for mut e in bblock.exits {
                    e.pred = guards.and(guard, e.pred);
                    ablock.exits.push(e);
                }
                merged_any = true;
                break 'outer;
            }
        }

        if !merged_any {
            break;
        }
    }

    HirFunction {
        name: f.name.clone(),
        blocks,
        entry: f.entry,
        blocks_before,
        guards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use clp_isa::Opcode;

    impl HirFunction {
        /// Surviving block count.
        fn blocks_after(&self) -> usize {
            self.blocks.iter().flatten().count()
        }
    }

    #[test]
    fn chain_merges_into_one_block() {
        let mut f = FunctionBuilder::new("chain", 1);
        let x = f.param(0);
        let b1 = f.new_block();
        let b2 = f.new_block();
        let t = f.bin(Opcode::Add, x, x);
        f.jump(b1);
        f.switch_to(b1);
        let u = f.bin(Opcode::Mul, t, t);
        f.jump(b2);
        f.switch_to(b2);
        f.ret(Some(u));
        let hir = form_hyperblocks(&f.finish(), &FormerOptions::default());
        // b1 merged into entry; b2 (ret) stays.
        assert_eq!(hir.blocks_after(), 2);
        let entry = hir.blocks[0].as_ref().unwrap();
        assert_eq!(entry.ops.len(), 2);
    }

    #[test]
    fn diamond_if_converts() {
        let mut f = FunctionBuilder::new("diamond", 2);
        let c = f.param(0);
        let x = f.param(1);
        let (t_bb, e_bb, join) = (f.new_block(), f.new_block(), f.new_block());
        let y = f.c(0);
        f.branch(c, t_bb, e_bb);
        f.switch_to(t_bb);
        f.bin_into(y, Opcode::Add, x, x);
        f.jump(join);
        f.switch_to(e_bb);
        f.bin_into(y, Opcode::Mul, x, x);
        f.jump(join);
        f.switch_to(join);
        f.ret(Some(y));
        let hir = form_hyperblocks(&f.finish(), &FormerOptions::default());
        // Entry absorbs both arms; the join (now single-pred from entry)
        // is a Ret block and stays.
        assert_eq!(hir.blocks_after(), 2);
        let entry = hir.blocks[0].as_ref().unwrap();
        let preds: Vec<usize> = entry.ops.iter().map(|o| o.pred.len()).collect();
        assert!(preds.contains(&1), "arm ops predicated: {preds:?}");
        // Exits collapse to one unconditional jump pair to the join.
        assert!(entry
            .exits
            .iter()
            .all(|e| matches!(e.kind, HirExitKind::Jump(_))));
    }

    #[test]
    fn loop_body_rotates_into_header() {
        let mut f = FunctionBuilder::new("loop", 1);
        let n = f.param(0);
        let i = f.c(0);
        let (h, body, exit) = (f.new_block(), f.new_block(), f.new_block());
        f.jump(h);
        f.switch_to(h);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, body, exit);
        f.switch_to(body);
        let one = f.c(1);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(h);
        f.switch_to(exit);
        f.ret(Some(i));
        let hir = form_hyperblocks(&f.finish(), &FormerOptions::default());
        // body inlined into header; header self-loops.
        let header = hir.blocks[h.0].as_ref().unwrap();
        assert!(header
            .exits
            .iter()
            .any(|e| matches!(e.kind, HirExitKind::Jump(t) if t == h)));
        assert!(hir.blocks[body.0].is_none(), "body merged away");
    }

    #[test]
    fn guard_redefinition_blocks_merge() {
        let mut f = FunctionBuilder::new("redef", 1);
        let c = f.param(0);
        let (t_bb, e_bb) = (f.new_block(), f.new_block());
        f.branch(c, t_bb, e_bb);
        f.switch_to(t_bb);
        // The then-arm redefines the condition: inlining it would corrupt
        // the else exit's guard.
        f.c_into(c, 0);
        f.jump(e_bb);
        f.switch_to(e_bb);
        f.ret(Some(c));
        let hir = form_hyperblocks(&f.finish(), &FormerOptions::default());
        assert!(
            hir.blocks[t_bb.0].is_some(),
            "arm redefining the guard must not merge"
        );
    }

    #[test]
    fn call_blocks_never_inline() {
        let mut f = FunctionBuilder::new("c", 1);
        let c = f.param(0);
        let (callb, other, cont) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(c, callb, other);
        f.switch_to(callb);
        f.call(crate::ir::FuncId(0), &[], None, cont);
        f.switch_to(other);
        f.ret(None);
        f.switch_to(cont);
        f.ret(None);
        let hir = form_hyperblocks(&f.finish(), &FormerOptions::default());
        assert!(hir.blocks[callb.0].is_some());
        assert!(hir.blocks[cont.0].is_some(), "cont pinned");
    }

    #[test]
    fn zero_cap_former_keeps_all_blocks() {
        let mut f = FunctionBuilder::new("chain", 0);
        let b1 = f.new_block();
        f.jump(b1);
        f.switch_to(b1);
        f.halt();
        let opts = FormerOptions { max_edge_size: 0 };
        let hir = form_hyperblocks(&f.finish(), &opts);
        assert_eq!(hir.blocks_after(), 2);
    }

    #[test]
    fn layout_places_cont_after_call() {
        let mut f = FunctionBuilder::new("c", 0);
        let other = f.new_block(); // bb1, created before cont
        let cont = f.new_block(); // bb2
        f.call(crate::ir::FuncId(0), &[], None, cont);
        f.switch_to(other);
        f.ret(None);
        f.switch_to(cont);
        f.jump(other);
        let hir = form_hyperblocks(&f.finish(), &FormerOptions::default());
        let order = hir.layout_order();
        let pos = |b: BbId| order.iter().position(|&x| x == b).unwrap();
        assert_eq!(pos(cont), pos(BbId(0)) + 1, "cont directly after call");
    }
}
