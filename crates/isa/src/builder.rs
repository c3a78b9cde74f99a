//! Incremental construction of hyperblocks with automatic fan-out trees.

use crate::{
    Block, BlockAddr, BlockError, BranchInfo, BranchKind, InstId, Instruction, Lsid, Opcode,
    Operand, PredSense, Reg, Target,
};

/// Builds a [`Block`] one instruction at a time.
///
/// The builder handles the ISA's two-target fan-out limit transparently:
/// when a producer already feeds two consumers, [`BlockBuilder::connect`]
/// splices in a [`Opcode::Mov`] tree node. A *predicate context*
/// ([`BlockBuilder::set_pred`]) lets compilers emit runs of instructions
/// guarded by the same predicate without wiring each one manually.
///
/// Instruction IDs are assigned in append order; placement-aware ID
/// assignment is a separate concern (see the `clp-compiler` crate).
///
/// # Examples
///
/// ```
/// use clp_isa::{BlockBuilder, BranchKind, Opcode, Reg};
///
/// # fn main() -> Result<(), clp_isa::BlockError> {
/// let mut b = BlockBuilder::new(0x2000);
/// let x = b.read(Reg::new(1));
/// let doubled = b.op2(Opcode::Add, x, x);
/// b.write(Reg::new(1), doubled);
/// b.branch(BranchKind::Seq, Some(0x2200), 0);
/// let block = b.finish()?;
/// assert_eq!(block.exits()[0].kind, BranchKind::Seq);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockBuilder {
    address: BlockAddr,
    insts: Vec<Instruction>,
    pred: Option<(InstId, PredSense)>,
}

impl BlockBuilder {
    /// Starts building a block at `address`.
    #[must_use]
    pub fn new(address: BlockAddr) -> Self {
        BlockBuilder {
            address,
            insts: Vec::new(),
            pred: None,
        }
    }

    /// Starts building a block at `address` in `buffer`'s storage,
    /// dropping its contents: a compiler lowering many blocks reuses one
    /// buffer, taking it back with [`BlockBuilder::into_instructions`].
    #[must_use]
    pub fn with_buffer(address: BlockAddr, mut buffer: Vec<Instruction>) -> Self {
        buffer.clear();
        BlockBuilder {
            address,
            insts: buffer,
            pred: None,
        }
    }

    /// Number of instructions appended so far (including fan-out movs).
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing has been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The block address this builder was created with.
    #[must_use]
    pub fn address(&self) -> BlockAddr {
        self.address
    }

    /// Sets the predicate context: subsequently appended instructions are
    /// predicated on `pred`'s value with the given sense. Pass `None` to
    /// return to unpredicated emission.
    ///
    /// `READ` and `WRITE` instructions ignore the context (the register
    /// interface is never predicated; conditional writes are expressed by
    /// feeding the write from predicated movs/nulls).
    pub fn set_pred(&mut self, pred: Option<(InstId, PredSense)>) {
        self.pred = pred;
    }

    fn alloc(&mut self, inst: Instruction) -> InstId {
        let id = InstId::new(self.insts.len());
        self.insts.push(inst);
        id
    }

    fn append(&mut self, mut inst: Instruction) -> InstId {
        if let Some((pid, sense)) = self.pred {
            inst.pred = Some(sense);
            let id = self.alloc(inst);
            self.connect(pid, id, Operand::Pred);
            id
        } else {
            self.alloc(inst)
        }
    }

    /// Routes `from`'s result into `(to, slot)`, inserting a mov fan-out
    /// node if `from` already has two targets.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (an instruction cannot feed itself).
    pub fn connect(&mut self, from: InstId, to: InstId, slot: Operand) {
        assert_ne!(from, to, "instruction cannot target itself");
        let t = Target::new(to, slot);
        if self.insts[from.index()].push_target(t) {
            return;
        }
        // Producer full: splice a mov that inherits one existing edge.
        // The mov fires whenever the producer fires (it is fed by it), so
        // no predicate is needed.
        let stolen = self.insts[from.index()].targets[1]
            .take()
            .expect("slot 1 full");
        let mut mov = Instruction::new(Opcode::Mov);
        mov.push_target(stolen);
        mov.push_target(t);
        let mov_id = self.alloc(mov);
        let ok = self.insts[from.index()].push_target(Target::new(mov_id, Operand::Left));
        debug_assert!(ok);
    }

    /// Appends a `READ` of architectural register `reg` (unpredicated).
    pub fn read(&mut self, reg: Reg) -> InstId {
        let mut i = Instruction::new(Opcode::Read);
        i.reg = Some(reg);
        self.alloc(i)
    }

    /// Appends a `WRITE` of `value` to architectural register `reg`
    /// (unpredicated; see [`BlockBuilder::write_id`] to wire producers
    /// manually).
    pub fn write(&mut self, reg: Reg, value: InstId) -> InstId {
        let id = self.write_id(reg);
        self.connect(value, id, Operand::Left);
        id
    }

    /// Appends a `WRITE` instruction without wiring its operand; the
    /// caller connects one or more (predicated) producers to it.
    pub fn write_id(&mut self, reg: Reg) -> InstId {
        let mut i = Instruction::new(Opcode::Write);
        i.reg = Some(reg);
        self.alloc(i)
    }

    /// Appends a `movi` of the immediate constant.
    pub fn movi(&mut self, imm: i64) -> InstId {
        let mut i = Instruction::new(Opcode::Movi);
        i.imm = imm;
        self.append(i)
    }

    /// Appends a unary operation with an immediate (`addi`, `shli`, ...).
    pub fn op1i(&mut self, opcode: Opcode, a: InstId, imm: i64) -> InstId {
        debug_assert_eq!(opcode.arity(), 1, "{opcode} is not unary");
        debug_assert!(opcode.has_immediate(), "{opcode} takes no immediate");
        let mut i = Instruction::new(opcode);
        i.imm = imm;
        let id = self.append(i);
        self.connect(a, id, Operand::Left);
        id
    }

    /// Appends a binary operation consuming `a` (left) and `b` (right).
    pub fn op2(&mut self, opcode: Opcode, a: InstId, b: InstId) -> InstId {
        debug_assert_eq!(opcode.arity(), 2, "{opcode} is not binary");
        let id = self.append(Instruction::new(opcode));
        self.connect(a, id, Operand::Left);
        self.connect(b, id, Operand::Right);
        id
    }

    /// Appends a 64-bit load of `addr + offset` with the given LSID.
    pub fn load(&mut self, addr: InstId, offset: i64, lsid: usize) -> InstId {
        self.load_op(Opcode::Ld, addr, offset, lsid)
    }

    /// Appends a load of the given width (`Ld` or `Ldb`).
    fn load_op(&mut self, opcode: Opcode, addr: InstId, offset: i64, lsid: usize) -> InstId {
        debug_assert!(opcode.is_load());
        let mut i = Instruction::new(opcode);
        i.imm = offset;
        i.lsid = Some(Lsid::new(lsid));
        let id = self.append(i);
        self.connect(addr, id, Operand::Left);
        id
    }

    /// Appends a 64-bit store of `value` at `addr` with the given LSID.
    pub fn store(&mut self, addr: InstId, value: InstId, lsid: usize) -> InstId {
        self.store_op(Opcode::St, addr, value, 0, lsid)
    }

    /// Appends a store of the given width with an address offset.
    fn store_op(
        &mut self,
        opcode: Opcode,
        addr: InstId,
        value: InstId,
        offset: i64,
        lsid: usize,
    ) -> InstId {
        debug_assert!(opcode.is_store());
        let mut i = Instruction::new(opcode);
        i.imm = offset;
        i.lsid = Some(Lsid::new(lsid));
        let id = self.append(i);
        self.connect(addr, id, Operand::Left);
        self.connect(value, id, Operand::Right);
        id
    }

    /// Appends an exit branch of the given kind under the current
    /// predicate context.
    pub fn branch(&mut self, kind: BranchKind, target: Option<BlockAddr>, exit_id: u8) -> InstId {
        debug_assert!((exit_id as usize) < crate::MAX_BLOCK_EXITS);
        let mut i = Instruction::new(Opcode::Bro);
        i.branch = Some(BranchInfo {
            exit_id,
            kind,
            target,
        });
        self.append(i)
    }

    /// Appends a fully formed instruction verbatim, bypassing the
    /// predicate context and operand wiring (compilers wire operands
    /// themselves with [`BlockBuilder::connect`]).
    pub fn push_raw(&mut self, inst: Instruction) -> InstId {
        self.alloc(inst)
    }

    /// Validates and produces the block.
    ///
    /// # Errors
    ///
    /// Returns a [`BlockError`] if any ISA invariant is violated, e.g. the
    /// block (including fan-out movs) exceeds 128 instructions.
    pub fn finish(self) -> Result<Block, BlockError> {
        Block::from_instructions(self.address, self.insts)
    }

    /// Consumes the builder, returning the raw instructions without
    /// validation (used by scheduling passes that renumber IDs first).
    #[must_use]
    pub fn into_instructions(self) -> Vec<Instruction> {
        self.insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_inserts_mov_tree() {
        let mut b = BlockBuilder::new(0);
        let src = b.movi(42);
        // Five consumers of one producer: needs mov nodes.
        let mut writes = Vec::new();
        for r in 0..5 {
            writes.push(b.write(Reg::new(r), src));
        }
        b.branch(BranchKind::Halt, None, 0);
        let blk = b.finish().unwrap();
        let movs = blk
            .instructions()
            .iter()
            .filter(|i| i.opcode == Opcode::Mov)
            .count();
        assert!(movs >= 2, "expected mov tree, got {movs} movs");
        // No instruction exceeds two targets.
        for i in blk.instructions() {
            assert!(i.target_count() <= 2);
        }
    }

    #[test]
    fn predicate_context_applies_to_appends() {
        let mut b = BlockBuilder::new(0);
        let c = b.movi(1);
        b.set_pred(Some((c, PredSense::OnTrue)));
        let v = b.movi(10);
        b.set_pred(None);
        let w = b.write_id(Reg::new(0));
        b.connect(v, w, Operand::Left);
        // Resolve the write on the false path too.
        b.set_pred(Some((c, PredSense::OnFalse)));
        let nv = b.append(Instruction::new(Opcode::Null));
        b.connect(nv, w, Operand::Left);
        b.set_pred(None);
        b.branch(BranchKind::Halt, None, 0);
        let blk = b.finish().unwrap();
        let movi10 = blk
            .instructions()
            .iter()
            .find(|i| i.opcode == Opcode::Movi && i.imm == 10)
            .unwrap();
        assert_eq!(movi10.pred, Some(PredSense::OnTrue));
        let null = blk
            .instructions()
            .iter()
            .find(|i| i.opcode == Opcode::Null)
            .unwrap();
        assert_eq!(null.pred, Some(PredSense::OnFalse));
    }

    #[test]
    #[should_panic(expected = "cannot target itself")]
    fn self_connect_panics() {
        let mut b = BlockBuilder::new(0);
        let x = b.movi(1);
        b.connect(x, x, Operand::Left);
    }

    #[test]
    fn overflowing_block_is_rejected_at_finish() {
        let mut b = BlockBuilder::new(0);
        let x = b.movi(1);
        let mut acc = x;
        for _ in 0..140 {
            acc = b.op1i(Opcode::Addi, acc, 1);
        }
        b.write(Reg::new(0), acc);
        b.branch(BranchKind::Halt, None, 0);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, BlockError::TooManyInstructions(_)));
    }
}
