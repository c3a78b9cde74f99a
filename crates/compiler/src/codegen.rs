//! Lowering hyperblocks to EDGE blocks.
//!
//! The central invariant is *exactly-one-delivery*: every virtual
//! register's current value is represented as a set of producer
//! instructions (`ValueRef`) of which exactly one fires per execution.
//! Reads always deliver; a predicated definition is merged with a
//! complementary `mov` of the old value; therefore consumers never
//! starve and blocks never deadlock, with no broadcast or hardware
//! renaming — the property EDGE composability relies on.

use crate::hyperblock::{form_hyperblocks, HirBlock, HirExitKind, HirFunction, HirOp};
use crate::ir::{BbId, Function, MemSize, OpKind, Program, Terminator, VReg};
use crate::liveness::{liveness, Liveness, VRegRows, VRegSet};
use crate::placement;
use crate::regalloc::{allocate, saved_across_call, Allocation};
use crate::{CompileError, CompileOptions};
use clp_isa::{
    Block, BlockAddr, BlockBuilder, BranchInfo, BranchKind, EdgeProgram, InstId, Instruction,
    Opcode, Operand, PredSense, ProgramBuilder as EdgeProgramBuilder, Reg, BLOCK_FRAME_BYTES,
    NUM_ARCH_REGS,
};

/// A set of producers of which exactly one fires per execution: one
/// instruction, or a guarded definition and the complementary `mov` of
/// the old value.
#[derive(Clone, Copy, Debug)]
struct ValueRef(InstId, Option<InstId>);

impl ValueRef {
    fn single(id: InstId) -> Self {
        ValueRef(id, None)
    }

    fn producers(self) -> impl Iterator<Item = InstId> {
        std::iter::once(self.0).chain(self.1)
    }
}

/// Register carrying the return value and first argument.
const RET_REG: usize = 1;

/// Virtual address of the first block (the synthetic `_start`).
const BASE_ADDR: BlockAddr = 0x1_0000;

/// The per-vreg state of the block being lowered, kept across the blocks
/// of a program so that lowering a block allocates only the block.
#[derive(Default)]
struct BlockBufs {
    /// Current in-block value of each vreg, indexed by vreg id.
    current: Vec<Option<ValueRef>>,
    /// VRegs (re)defined in this block (candidates for write-back).
    defs: VRegSet,
    /// Entry-block incoming bindings (params and link from the ABI regs),
    /// indexed by vreg id; empty in every other block.
    incoming: Vec<Option<Reg>>,
    /// Memoized materialized multi-conjunct predicates: the conjuncts
    /// `pc_keys[start..start + len]` and their value, per entry.
    pc_cache: Vec<(usize, usize, ValueRef)>,
    /// The conjuncts of every `pc_cache` entry, end to end.
    pc_keys: Vec<(VReg, bool)>,
}

/// Buffers one compilation reuses from block to block.
#[derive(Default)]
struct Scratch {
    bufs: BlockBufs,
    /// The instructions of the block being built, in builder order.
    insts: Vec<Instruction>,
    /// The values live out of the block through its jump exits.
    exit_live: VRegSet,
    /// Whether each op's guarded definition needs a merge.
    need_merge: Vec<bool>,
    /// Values a call exit saves to the frame instead of writing back.
    suppress_write_back: VRegSet,
    /// The values the block writes back.
    to_write: Vec<VReg>,
}

struct BlockCtx<'a> {
    b: BlockBuilder,
    alloc: &'a Allocation,
    bufs: &'a mut BlockBufs,
    /// Memoized READ instructions, indexed by architectural register.
    reads: [Option<InstId>; NUM_ARCH_REGS],
    zero: Option<InstId>,
    next_lsid: usize,
    /// In-block stack-pointer value (post-prologue), if modified here.
    sp_ref: Option<ValueRef>,
    func_name: &'a str,
    bb: BbId,
}

type Guard = Option<(ValueRef, PredSense)>;

impl<'a> BlockCtx<'a> {
    fn new(
        b: BlockBuilder,
        alloc: &'a Allocation,
        bufs: &'a mut BlockBufs,
        n_vregs: usize,
        func_name: &'a str,
        bb: BbId,
    ) -> Self {
        bufs.current.clear();
        bufs.current.resize(n_vregs, None);
        bufs.defs.reset(n_vregs);
        bufs.incoming.clear();
        bufs.pc_cache.clear();
        bufs.pc_keys.clear();
        BlockCtx {
            b,
            alloc,
            bufs,
            reads: [None; NUM_ARCH_REGS],
            zero: None,
            next_lsid: 0,
            sp_ref: None,
            func_name,
            bb,
        }
    }

    fn current(&self, v: VReg) -> Option<ValueRef> {
        self.bufs.current[v.0 as usize]
    }

    fn set_current(&mut self, v: VReg, vr: ValueRef) {
        self.bufs.current[v.0 as usize] = Some(vr);
    }

    fn incoming(&self, v: VReg) -> Option<Reg> {
        self.bufs.incoming.get(v.0 as usize).copied().flatten()
    }

    fn err_too_large(&self) -> CompileError {
        CompileError::BlockTooLarge {
            function: self.func_name.to_owned(),
            bb: self.bb.0,
        }
    }

    fn push(
        &mut self,
        mut inst: Instruction,
        left: Option<&ValueRef>,
        right: Option<&ValueRef>,
        guard: Option<(&ValueRef, PredSense)>,
    ) -> Result<InstId, CompileError> {
        if let Some((_, sense)) = guard {
            inst.pred = Some(sense);
        }
        if self.b.len() > 230 {
            return Err(self.err_too_large());
        }
        let id = self.b.push_raw(inst);
        if let Some(vr) = left {
            for p in vr.producers() {
                self.b.connect(p, id, Operand::Left);
            }
        }
        if let Some(vr) = right {
            for p in vr.producers() {
                self.b.connect(p, id, Operand::Right);
            }
        }
        if let Some((vr, _)) = guard {
            for p in vr.producers() {
                self.b.connect(p, id, Operand::Pred);
            }
        }
        Ok(id)
    }

    fn read_reg(&mut self, reg: Reg) -> InstId {
        if let Some(id) = self.reads[reg.index()] {
            return id;
        }
        let mut inst = Instruction::new(Opcode::Read);
        inst.reg = Some(reg);
        let id = self.b.push_raw(inst);
        self.reads[reg.index()] = Some(id);
        id
    }

    fn value_of(&mut self, v: VReg) -> ValueRef {
        if let Some(vr) = self.current(v) {
            return vr;
        }
        let reg = self.incoming(v).unwrap_or_else(|| self.alloc.reg(v));
        let id = self.read_reg(reg);
        let vr = ValueRef::single(id);
        self.set_current(v, vr);
        vr
    }

    fn sp_value(&mut self) -> ValueRef {
        match self.sp_ref {
            Some(vr) => vr,
            None => ValueRef::single(self.read_reg(Reg::SP)),
        }
    }

    fn zero(&mut self) -> Result<InstId, CompileError> {
        if let Some(z) = self.zero {
            return Ok(z);
        }
        let z = self.push(Instruction::new(Opcode::Movi), None, None, None)?;
        self.zero = Some(z);
        Ok(z)
    }

    /// Materializes a guard conjunction. Single conjuncts use the value
    /// directly with a sense; longer conjunctions are normalized to 0/1
    /// and folded with `and` (all inputs always deliver, so the chain
    /// cannot starve).
    fn guard_of(&mut self, pred: &[(VReg, bool)]) -> Result<Guard, CompileError> {
        match pred.len() {
            0 => Ok(None),
            1 => {
                let (v, s) = pred[0];
                let vr = self.value_of(v);
                Ok(Some((
                    vr,
                    if s {
                        PredSense::OnTrue
                    } else {
                        PredSense::OnFalse
                    },
                )))
            }
            _ => {
                let keys = &self.bufs.pc_keys;
                let cached = self
                    .bufs
                    .pc_cache
                    .iter()
                    .find(|&&(start, len, _)| keys[start..start + len] == *pred);
                if let Some(&(_, _, vr)) = cached {
                    return Ok(Some((vr, PredSense::OnTrue)));
                }
                let mut acc: Option<InstId> = None;
                for &(v, s) in pred {
                    let vr = self.value_of(v);
                    let zero = self.zero()?;
                    let zvr = ValueRef::single(zero);
                    let op = if s { Opcode::Tne } else { Opcode::Teq };
                    let norm = self.push(Instruction::new(op), Some(&vr), Some(&zvr), None)?;
                    acc = Some(match acc {
                        None => norm,
                        Some(prev) => self.push(
                            Instruction::new(Opcode::And),
                            Some(&ValueRef::single(prev)),
                            Some(&ValueRef::single(norm)),
                            None,
                        )?,
                    });
                }
                let vr = ValueRef::single(acc.expect("nonempty"));
                let start = self.bufs.pc_keys.len();
                self.bufs.pc_keys.extend_from_slice(pred);
                self.bufs.pc_cache.push((start, pred.len(), vr));
                Ok(Some((vr, PredSense::OnTrue)))
            }
        }
    }

    fn lsid(&mut self) -> Result<usize, CompileError> {
        if self.next_lsid >= clp_isa::MAX_BLOCK_LSIDS {
            return Err(CompileError::LsidOverflow {
                function: self.func_name.to_owned(),
                bb: self.bb.0,
            });
        }
        let l = self.next_lsid;
        self.next_lsid += 1;
        Ok(l)
    }

    /// Installs `new_id` as the value of `dst`, merging with the previous
    /// value when guarded.
    ///
    /// `need_merge` is false when every later consumer of `dst` is
    /// predicated at least as strongly as this definition and `dst` is
    /// not written back at any exit — then the complementary-path `mov`
    /// would be dead and is omitted (the big code-size win for
    /// if-converted loop bodies).
    fn define(
        &mut self,
        dst: VReg,
        new_id: InstId,
        guard: &Guard,
        need_merge: bool,
    ) -> Result<(), CompileError> {
        self.bufs.defs.insert(dst);
        match guard {
            _ if !need_merge => {
                self.set_current(dst, ValueRef::single(new_id));
            }
            None => {
                self.set_current(dst, ValueRef::single(new_id));
            }
            Some((vr, sense)) => {
                // The complementary path must still deliver a token so the
                // merged value never starves its consumers. A vreg first
                // defined *inside* a predicated region has no prior value
                // anywhere (the source program never observes it on the
                // other path), so an arbitrary constant stands in.
                let has_old = self.current(dst).is_some()
                    || self.incoming(dst).is_some()
                    || self.alloc.try_reg(dst).is_some();
                let old = if has_old {
                    self.value_of(dst)
                } else {
                    ValueRef::single(self.zero()?)
                };
                let mov_old = self.push(
                    Instruction::new(Opcode::Mov),
                    Some(&old),
                    None,
                    Some((vr, sense.invert())),
                )?;
                self.set_current(dst, ValueRef(new_id, Some(mov_old)));
            }
        }
        Ok(())
    }

    fn guard_as_ref(guard: &Guard) -> Option<(&ValueRef, PredSense)> {
        guard.as_ref().map(|(vr, s)| (vr, *s))
    }
}

/// Per-function lowering context shared across blocks.
struct FuncCtx<'a> {
    hir: &'a HirFunction,
    lv: &'a Liveness,
    alloc: &'a Allocation,
    /// `(dst, saved vregs)` of each call continuation block, indexed by
    /// block.
    cont_info: Vec<Option<(Option<VReg>, Vec<VReg>)>>,
    n_vregs: usize,
    link_vreg: VReg,
    entry_bb: BbId,
    params: &'a [VReg],
}

#[allow(clippy::too_many_arguments)]
fn lower_block(
    fc: &FuncCtx<'_>,
    bb: BbId,
    hb: &HirBlock,
    addr: BlockAddr,
    addr_of_bb: &[Option<BlockAddr>],
    func_entry_addr: &dyn Fn(crate::ir::FuncId) -> BlockAddr,
    opts: &CompileOptions,
    scratch: &mut Scratch,
) -> Result<Block, CompileError> {
    let Scratch {
        bufs,
        insts,
        exit_live,
        need_merge,
        suppress_write_back,
        to_write,
    } = scratch;
    let b = BlockBuilder::with_buffer(addr, std::mem::take(insts));
    let mut cx = BlockCtx::new(b, fc.alloc, bufs, fc.n_vregs, &fc.hir.name, bb);
    let conjuncts = |op: &HirOp| fc.hir.guard(op.pred);

    // --- prologues -----------------------------------------------------
    if bb == fc.entry_bb {
        cx.bufs.incoming.resize(fc.n_vregs, None);
        for (i, &p) in fc.params.iter().enumerate() {
            cx.bufs.incoming[p.0 as usize] = Some(Reg::new(RET_REG + i));
            cx.bufs.defs.insert(p);
        }
        cx.bufs.incoming[fc.link_vreg.0 as usize] = Some(Reg::LINK);
        cx.bufs.defs.insert(fc.link_vreg);
        if fc.alloc.frame_bytes > 0 {
            let sp_in = cx.sp_value();
            let mut addi = Instruction::new(Opcode::Addi);
            addi.imm = -fc.alloc.frame_bytes;
            let new_sp = cx.push(addi, Some(&sp_in), None, None)?;
            cx.sp_ref = Some(ValueRef::single(new_sp));
        }
    }
    if let Some((dst, saved)) = &fc.cont_info[bb.0] {
        // Reload caller-saved values from the frame, then the return value.
        let sp = cx.sp_value();
        for &v in saved {
            let slot = fc.alloc.slot(v).expect("saved values have a slot");
            let mut ld = Instruction::new(Opcode::Ld);
            ld.imm = 8 * slot as i64;
            ld.lsid = Some(clp_isa::Lsid::new(cx.lsid()?));
            let id = cx.push(ld, Some(&sp), None, None)?;
            cx.set_current(v, ValueRef::single(id));
            cx.bufs.defs.insert(v);
        }
        if let Some(d) = dst {
            let id = cx.read_reg(Reg::new(RET_REG));
            cx.set_current(*d, ValueRef::single(id));
            cx.bufs.defs.insert(*d);
        }
    }

    // --- merge analysis --------------------------------------------------
    // Values written back at an exit: union of live-in over jump-exit
    // targets (call/ret blocks never contain guarded ops, so their
    // operand uses are handled by the unpredicated-use rule below).
    jump_live_out(hb, fc.lv, exit_live);
    let pred_subset = |p: &[(VReg, bool)], q: &[(VReg, bool)]| p.iter().all(|c| q.contains(c));
    let uses_in_pred = |op: &HirOp, v: VReg| conjuncts(op).iter().any(|&(pv, _)| pv == v);
    let exit_guard_uses = |v: VReg| {
        hb.exits
            .iter()
            .any(|e| fc.hir.guard(e.pred).iter().any(|&(pv, _)| pv == v))
            || hb.exits.iter().any(|e| match &e.kind {
                HirExitKind::Call { args, .. } => args.contains(&v),
                HirExitKind::Ret(Some(r)) => *r == v,
                _ => false,
            })
    };
    need_merge.clear();
    need_merge.extend(hb.ops.iter().enumerate().map(|(k, op)| {
        let Some(dst) = op.kind.dst() else {
            return false;
        };
        if op.pred.is_empty() {
            return false; // unguarded defs never need a merge
        }
        if exit_live.contains(dst) || exit_guard_uses(dst) {
            return true;
        }
        for later in &hb.ops[k + 1..] {
            if uses_in_pred(later, dst) {
                return true; // guard chains must always deliver
            }
            if later.kind.operands().contains(&Some(dst))
                && !pred_subset(conjuncts(op), conjuncts(later))
            {
                return true;
            }
            if later.kind.dst() == Some(dst) {
                // A redefinition: unguarded ones kill the value;
                // guarded ones read it through their own merge —
                // be conservative and merge.
                return !later.pred.is_empty();
            }
        }
        false
    }));

    // --- operations ----------------------------------------------------
    for (op_idx, op) in hb.ops.iter().enumerate() {
        let merge = need_merge[op_idx];
        let guard = cx.guard_of(conjuncts(op))?;
        match &op.kind {
            OpKind::Const { dst, value } => {
                let mut movi = Instruction::new(Opcode::Movi);
                movi.imm = *value;
                let id = cx.push(movi, None, None, BlockCtx::guard_as_ref(&guard))?;
                cx.define(*dst, id, &guard, merge)?;
            }
            OpKind::ConstF { dst, value } => {
                let mut movi = Instruction::new(Opcode::Movi);
                movi.imm = value.to_bits() as i64;
                let id = cx.push(movi, None, None, BlockCtx::guard_as_ref(&guard))?;
                cx.define(*dst, id, &guard, merge)?;
            }
            OpKind::Un { dst, op, a } => {
                let av = cx.value_of(*a);
                let id = cx.push(
                    Instruction::new(*op),
                    Some(&av),
                    None,
                    BlockCtx::guard_as_ref(&guard),
                )?;
                cx.define(*dst, id, &guard, merge)?;
            }
            OpKind::Bin { dst, op, a, b } => {
                let av = cx.value_of(*a);
                let bv = cx.value_of(*b);
                let id = cx.push(
                    Instruction::new(*op),
                    Some(&av),
                    Some(&bv),
                    BlockCtx::guard_as_ref(&guard),
                )?;
                cx.define(*dst, id, &guard, merge)?;
            }
            OpKind::Load {
                dst,
                addr: a,
                offset,
                size,
            } => {
                let av = cx.value_of(*a);
                let mut ld = Instruction::new(match size {
                    MemSize::Byte => Opcode::Ldb,
                    MemSize::Word => Opcode::Ld,
                });
                ld.imm = *offset;
                ld.lsid = Some(clp_isa::Lsid::new(cx.lsid()?));
                let id = cx.push(ld, Some(&av), None, BlockCtx::guard_as_ref(&guard))?;
                cx.define(*dst, id, &guard, merge)?;
            }
            OpKind::Store {
                addr: a,
                offset,
                value,
                size,
            } => {
                let av = cx.value_of(*a);
                let vv = cx.value_of(*value);
                let l = cx.lsid()?;
                let mut st = Instruction::new(match size {
                    MemSize::Byte => Opcode::Stb,
                    MemSize::Word => Opcode::St,
                });
                st.imm = *offset;
                st.lsid = Some(clp_isa::Lsid::new(l));
                cx.push(st, Some(&av), Some(&vv), BlockCtx::guard_as_ref(&guard))?;
                if let Some((vr, sense)) = &guard {
                    // Resolve the store slot on the complementary path.
                    let mut null = Instruction::new(Opcode::Null);
                    null.lsid = Some(clp_isa::Lsid::new(l));
                    cx.push(null, None, None, Some((vr, sense.invert())))?;
                }
            }
        }
    }

    // --- exits -----------------------------------------------------------
    suppress_write_back.reset(0);
    for (i, exit) in hb.exits.iter().enumerate() {
        let exit_id = i as u8;
        let guard = cx.guard_of(fc.hir.guard(exit.pred))?;
        match &exit.kind {
            HirExitKind::Jump(t) => {
                let taddr = addr_of_bb[t.0].expect("jump targets are laid out");
                let kind = if taddr == addr + BLOCK_FRAME_BYTES {
                    BranchKind::Seq
                } else {
                    BranchKind::Branch
                };
                let mut bro = Instruction::new(Opcode::Bro);
                bro.branch = Some(BranchInfo {
                    exit_id,
                    kind,
                    target: Some(taddr),
                });
                cx.push(bro, None, None, BlockCtx::guard_as_ref(&guard))?;
            }
            HirExitKind::Halt => {
                let mut bro = Instruction::new(Opcode::Bro);
                bro.branch = Some(BranchInfo {
                    exit_id,
                    kind: BranchKind::Halt,
                    target: None,
                });
                cx.push(bro, None, None, BlockCtx::guard_as_ref(&guard))?;
            }
            HirExitKind::Call {
                func,
                args,
                dst,
                cont,
            } => {
                if guard.is_some() || hb.exits.len() != 1 {
                    return Err(CompileError::PredicatedCallOrRet {
                        function: fc.hir.name.clone(),
                        bb: bb.0,
                    });
                }
                // Caller saves.
                let saved = saved_across_call(fc.lv, *cont, *dst);
                let sp = cx.sp_value();
                for &v in &saved {
                    let slot = fc.alloc.slot(v).expect("saved values have a slot");
                    let vv = cx.value_of(v);
                    let mut st = Instruction::new(Opcode::St);
                    st.imm = 8 * slot as i64;
                    st.lsid = Some(clp_isa::Lsid::new(cx.lsid()?));
                    cx.push(st, Some(&sp), Some(&vv), None)?;
                    suppress_write_back.insert(v);
                }
                // Arguments.
                for (ai, &a) in args.iter().enumerate() {
                    let av = cx.value_of(a);
                    let mut w = Instruction::new(Opcode::Write);
                    w.reg = Some(Reg::new(RET_REG + ai));
                    cx.push(w, Some(&av), None, None)?;
                }
                // Link: the return address is the continuation block.
                let mut movi = Instruction::new(Opcode::Movi);
                movi.imm = addr_of_bb[cont.0].expect("continuations are laid out") as i64;
                let link_val = cx.push(movi, None, None, None)?;
                let mut w = Instruction::new(Opcode::Write);
                w.reg = Some(Reg::LINK);
                cx.push(w, Some(&ValueRef::single(link_val)), None, None)?;
                // The call itself.
                let mut bro = Instruction::new(Opcode::Bro);
                bro.branch = Some(BranchInfo {
                    exit_id,
                    kind: BranchKind::Call,
                    target: Some(func_entry_addr(*func)),
                });
                cx.push(bro, None, None, None)?;
            }
            HirExitKind::Ret(v) => {
                if guard.is_some() || hb.exits.len() != 1 {
                    return Err(CompileError::PredicatedCallOrRet {
                        function: fc.hir.name.clone(),
                        bb: bb.0,
                    });
                }
                if let Some(v) = v {
                    let vv = cx.value_of(*v);
                    let mut w = Instruction::new(Opcode::Write);
                    w.reg = Some(Reg::new(RET_REG));
                    cx.push(w, Some(&vv), None, None)?;
                }
                if fc.alloc.frame_bytes > 0 {
                    let sp = cx.sp_value();
                    let mut addi = Instruction::new(Opcode::Addi);
                    addi.imm = fc.alloc.frame_bytes;
                    let new_sp = cx.push(addi, Some(&sp), None, None)?;
                    let mut w = Instruction::new(Opcode::Write);
                    w.reg = Some(Reg::SP);
                    cx.push(w, Some(&ValueRef::single(new_sp)), None, None)?;
                }
                let mut bro = Instruction::new(Opcode::Bro);
                bro.branch = Some(BranchInfo {
                    exit_id,
                    kind: BranchKind::Return,
                    target: None,
                });
                let link = cx.value_of(fc.link_vreg);
                cx.push(bro, Some(&link), None, None)?;
            }
        }
    }

    // --- SP prologue write-back -----------------------------------------
    if bb == fc.entry_bb && fc.alloc.frame_bytes > 0 {
        let sp = cx.sp_ref.expect("prologue ran");
        let mut w = Instruction::new(Opcode::Write);
        w.reg = Some(Reg::SP);
        cx.push(w, Some(&sp), None, None)?;
    }

    // --- register write-backs --------------------------------------------
    // The merged block's live-out is the union of live-in over its jump
    // exits' targets (NOT the seed block's original live-out: absorbed
    // ops define values that original liveness attributes to *inner*
    // edges that no longer exist). Call exits contribute nothing — values
    // crossing a call travel through the caller-save frame.
    let live_out = &*exit_live;
    to_write.clear();
    to_write.extend(
        cx.bufs
            .defs
            .iter()
            .filter(|&v| live_out.contains(v) && !suppress_write_back.contains(v)),
    );
    for &v in &*to_write {
        let vv = cx.value_of(v);
        let mut w = Instruction::new(Opcode::Write);
        w.reg = Some(fc.alloc.reg(v));
        cx.push(w, Some(&vv), None, None)?;
    }

    // --- placement + validation ------------------------------------------
    // The block gets a buffer of its own; the builder's goes back to the
    // scratch for the next block.
    *insts = cx.b.into_instructions();
    let block = opts
        .placement
        .then(|| placement::scheduled(insts, opts.placement_cores))
        .flatten()
        .unwrap_or_else(|| insts.to_vec());
    Block::from_instructions(addr, block).map_err(|e| CompileError::Block {
        function: fc.hir.name.clone(),
        bb: bb.0,
        source: e,
    })
}

/// Sets `live` to the values live out of `hb` through its jump exits:
/// the union of their targets' live-in. Call exits contribute nothing
/// (values crossing a call travel through the caller-save frame).
fn jump_live_out(hb: &HirBlock, lv: &Liveness, live: &mut VRegSet) {
    live.reset(0);
    for exit in &hb.exits {
        if let HirExitKind::Jump(t) = &exit.kind {
            live.union_with(lv.live_in.row(t.0));
        }
    }
}

/// Write-back cliques: values defined in one hyperblock and live out of
/// any of its exits are all written back by that block, so they need
/// distinct registers even if their live ranges never overlap (they may
/// be live at *different* exits).
pub(crate) fn write_back_cliques(f: &Function, hir: &HirFunction, lv: &Liveness) -> VRegRows {
    let width = f.n_vregs as usize;
    let mut cliques = VRegRows::new(0, width);
    let (mut defs, mut live) = (VRegSet::default(), VRegSet::default());
    for (bi, hb) in hir.blocks.iter().enumerate() {
        let Some(hb) = hb else { continue };
        defs.reset(width);
        for d in hb.ops.iter().filter_map(|o| o.kind.dst()) {
            defs.insert(d);
        }
        if bi == f.entry.0 {
            // The entry block also "defines" (writes back) its live-out
            // parameters and link register.
            for &p in &f.params {
                defs.insert(p);
            }
            defs.insert(f.link_vreg);
        }
        jump_live_out(hb, lv, &mut live);
        defs.intersect_with(live.as_row());
        if defs.len() > 1 {
            cliques.push(&defs);
        }
    }
    cliques
}

/// Compiles an IR program to an EDGE program.
///
/// Hyperblock formation uses a conservative size estimate; if a merged
/// block still lowers past an EDGE resource limit, compilation retries
/// with progressively smaller formation caps (finally with a cap of 0,
/// which merges nothing, so every IR block trivially fits).
///
/// # Errors
///
/// Returns a [`CompileError`] for register pressure, malformed call
/// structure, or block-validation failures that shrinking cannot fix.
pub fn compile(program: &Program, opts: &CompileOptions) -> Result<EdgeProgram, CompileError> {
    // Liveness is of the IR, which no cap changes: every attempt shares it.
    let lvs: Vec<Liveness> = program.functions.iter().map(liveness).collect();
    let mut attempt = *opts;
    for cap in [attempt.former.max_edge_size, 116, 96, 76, 56, 36, 0] {
        attempt.former.max_edge_size = cap;
        match compile_once(program, &lvs, &attempt) {
            Err(
                CompileError::Block {
                    source: clp_isa::BlockError::TooManyInstructions(_),
                    ..
                }
                | CompileError::BlockTooLarge { .. }
                | CompileError::LsidOverflow { .. },
            ) if cap > 0 => {}
            other => return other,
        }
    }
    unreachable!("loop returns on the zero-cap attempt")
}

/// One attempt of [`compile`] at the formation cap in `opts`; `lvs` is
/// each function's liveness.
fn compile_once(
    program: &Program,
    lvs: &[Liveness],
    opts: &CompileOptions,
) -> Result<EdgeProgram, CompileError> {
    // Per-function analyses.
    let mut hirs = Vec::with_capacity(program.functions.len());
    let mut layouts = Vec::with_capacity(program.functions.len());
    let mut allocs = Vec::with_capacity(program.functions.len());
    for (f, lv) in program.functions.iter().zip(lvs) {
        let hir = form_hyperblocks(f, &opts.former);
        let cliques = write_back_cliques(f, &hir, lv);
        let alloc = allocate(f, lv, &cliques).map_err(CompileError::RegPressure)?;
        layouts.push(hir.layout_order());
        hirs.push(hir);
        allocs.push(alloc);
    }

    // Layout: a synthetic _start block (calls the entry function with the
    // link pointing at a _halt block), then the entry function, then the
    // rest. This keeps every function's returns uniform — the program
    // ends when the entry function returns to _halt.
    let start_addr = BASE_ADDR;
    let halt_addr = start_addr + BLOCK_FRAME_BYTES;
    let mut func_order: Vec<usize> = vec![program.entry.0];
    func_order.extend((0..program.functions.len()).filter(|&i| i != program.entry.0));
    let mut addr_of: Vec<Vec<Option<BlockAddr>>> = program
        .functions
        .iter()
        .map(|f| vec![None; f.blocks.len()])
        .collect();
    let mut next = halt_addr + BLOCK_FRAME_BYTES;
    for &fi in &func_order {
        for &bb in &layouts[fi] {
            addr_of[fi][bb.0] = Some(next);
            next += BLOCK_FRAME_BYTES;
        }
    }
    let entry_addr = |callee: crate::ir::FuncId| {
        let f = &program.functions[callee.0];
        addr_of[callee.0][f.entry.0].expect("entry blocks are laid out")
    };

    // Validate that continuations are only reached by returns.
    for (fi, f) in program.functions.iter().enumerate() {
        let mut is_cont = vec![false; f.blocks.len()];
        for b in &f.blocks {
            if let Terminator::Call { cont, .. } = &b.term {
                is_cont[cont.0] = true;
            }
        }
        for hb in hirs[fi].blocks.iter().flatten() {
            for e in &hb.exits {
                if let HirExitKind::Jump(t) = &e.kind {
                    if is_cont[t.0] {
                        return Err(CompileError::ContIsJumpTarget {
                            function: f.name.clone(),
                            bb: t.0,
                        });
                    }
                }
            }
        }
    }

    let mut epb = EdgeProgramBuilder::new();
    let mut scratch = Scratch::default();
    // Room for a valid block's instructions, so the buffer grows only
    // for a block on its way to `BlockTooLarge`; each op lowers to one
    // instruction or more, so the per-op buffers fit too.
    scratch.insts.reserve(clp_isa::MAX_BLOCK_INSTRUCTIONS);
    scratch.need_merge.reserve(clp_isa::MAX_BLOCK_INSTRUCTIONS);
    {
        let entry_fn_addr = entry_addr(program.entry);
        let mut sb = clp_isa::BlockBuilder::new(start_addr);
        let link_val = sb.movi(halt_addr as i64);
        sb.write(Reg::LINK, link_val);
        sb.branch(BranchKind::Call, Some(entry_fn_addr), 0);
        let start_block = sb.finish().map_err(|e| CompileError::Block {
            function: "_start".to_owned(),
            bb: 0,
            source: e,
        })?;
        epb.add_block(start_block).map_err(CompileError::Program)?;
        let mut hb2 = clp_isa::BlockBuilder::new(halt_addr);
        hb2.branch(BranchKind::Halt, None, 0);
        let halt_block = hb2.finish().map_err(|e| CompileError::Block {
            function: "_halt".to_owned(),
            bb: 0,
            source: e,
        })?;
        epb.add_block(halt_block).map_err(CompileError::Program)?;
    }
    for &fi in &func_order {
        let f = &program.functions[fi];
        let mut cont_info = vec![None; f.blocks.len()];
        for b in &f.blocks {
            if let Terminator::Call { dst, cont, .. } = &b.term {
                cont_info[cont.0] = Some((*dst, saved_across_call(&lvs[fi], *cont, *dst)));
            }
        }
        let fc = FuncCtx {
            hir: &hirs[fi],
            lv: &lvs[fi],
            alloc: &allocs[fi],
            cont_info,
            n_vregs: f.n_vregs as usize,
            link_vreg: f.link_vreg,
            entry_bb: f.entry,
            params: &f.params,
        };
        for &bb in &layouts[fi] {
            let hb = hirs[fi].blocks[bb.0].as_ref().expect("in layout");
            let addr = addr_of[fi][bb.0].expect("in layout");
            let block = lower_block(
                &fc,
                bb,
                hb,
                addr,
                &addr_of[fi],
                &entry_addr,
                opts,
                &mut scratch,
            )?;
            epb.add_block(block).map_err(CompileError::Program)?;
        }
    }
    epb.finish(start_addr).map_err(CompileError::Program)
}
