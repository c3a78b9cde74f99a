//! Hyperblocks: the atomic unit of fetch, execution, and commit.

use crate::{
    BlockAddr, BranchKind, Instruction, Opcode, Operand, Reg, Target, MAX_BLOCK_EXITS,
    MAX_BLOCK_INSTRUCTIONS, MAX_BLOCK_LSIDS, MAX_BLOCK_READS, MAX_BLOCK_WRITES,
};
use std::fmt;

/// Validation failure for a [`Block`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockError {
    /// More than 128 instructions.
    TooManyInstructions(usize),
    /// More than 32 register reads.
    TooManyReads(usize),
    /// More than 32 register writes.
    TooManyWrites(usize),
    /// More than 32 distinct load/store IDs.
    TooManyLsids(usize),
    /// More than 8 distinct exit IDs.
    TooManyExits(usize),
    /// No exit branch at all: the block could never complete.
    NoExit,
    /// A target names an instruction index beyond the block length.
    DanglingTarget {
        /// Producer instruction index.
        from: usize,
        /// The out-of-range target.
        target: Target,
    },
    /// A target feeds an operand slot the consumer does not have
    /// (e.g. the right operand of a unary instruction, or the predicate
    /// slot of an unpredicated instruction).
    BadOperandSlot {
        /// Producer instruction index.
        from: usize,
        /// The offending target.
        target: Target,
    },
    /// An instruction requires an operand that no producer feeds, so it
    /// could never fire.
    UnfedOperand {
        /// Consumer instruction index.
        inst: usize,
        /// The starved operand slot.
        operand: Operand,
    },
    /// The intra-block dataflow graph has a cycle (instruction indices of
    /// one cycle member reported).
    CyclicDataflow(usize),
    /// Instruction is missing a required annotation (LSID, branch info,
    /// or register number) for its opcode.
    MissingAnnotation(usize),
    /// Two writes name the same architectural register.
    DuplicateWrite(Reg),
    /// A non-return, non-halt branch lacks a static target, or a
    /// return/halt carries one.
    BadBranchTarget(usize),
    /// The same exit ID is used with conflicting kinds or targets.
    InconsistentExit(u8),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::TooManyInstructions(n) => {
                write!(
                    f,
                    "block has {n} instructions, max {MAX_BLOCK_INSTRUCTIONS}"
                )
            }
            BlockError::TooManyReads(n) => write!(f, "block has {n} reads, max {MAX_BLOCK_READS}"),
            BlockError::TooManyWrites(n) => {
                write!(f, "block has {n} writes, max {MAX_BLOCK_WRITES}")
            }
            BlockError::TooManyLsids(n) => write!(f, "block has {n} LSIDs, max {MAX_BLOCK_LSIDS}"),
            BlockError::TooManyExits(n) => write!(f, "block has {n} exits, max {MAX_BLOCK_EXITS}"),
            BlockError::NoExit => write!(f, "block has no exit branch"),
            BlockError::DanglingTarget { from, target } => {
                write!(f, "instruction {from} targets nonexistent {target}")
            }
            BlockError::BadOperandSlot { from, target } => {
                write!(f, "instruction {from} targets invalid slot {target}")
            }
            BlockError::UnfedOperand { inst, operand } => {
                write!(f, "instruction {inst} operand {operand} has no producer")
            }
            BlockError::CyclicDataflow(i) => {
                write!(f, "dataflow cycle through instruction {i}")
            }
            BlockError::MissingAnnotation(i) => {
                write!(f, "instruction {i} is missing a required annotation")
            }
            BlockError::DuplicateWrite(r) => write!(f, "multiple writes to register {r}"),
            BlockError::BadBranchTarget(i) => {
                write!(f, "branch {i} has an inconsistent static target")
            }
            BlockError::InconsistentExit(e) => {
                write!(f, "exit {e} used with conflicting kind or target")
            }
        }
    }
}

impl std::error::Error for BlockError {}

impl BlockError {
    /// The instruction index the error is primarily about, when the
    /// variant names one. Lets diagnostics (the assembler, `clp-lint`)
    /// point at the offending instruction instead of the whole block.
    #[must_use]
    pub fn primary_inst(&self) -> Option<usize> {
        match self {
            BlockError::DanglingTarget { from, .. } | BlockError::BadOperandSlot { from, .. } => {
                Some(*from)
            }
            BlockError::UnfedOperand { inst, .. } => Some(*inst),
            BlockError::CyclicDataflow(i)
            | BlockError::MissingAnnotation(i)
            | BlockError::BadBranchTarget(i) => Some(*i),
            _ => None,
        }
    }
}

/// One distinct exit of a block, as seen by the next-block predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExitSummary {
    /// The three-bit exit ID.
    pub exit_id: u8,
    /// Control-transfer kind of this exit.
    pub kind: BranchKind,
    /// Static target, if any.
    pub target: Option<BlockAddr>,
}

/// A validated EDGE hyperblock.
///
/// Construct blocks with [`BlockBuilder`](crate::BlockBuilder) or
/// [`Block::from_instructions`]; both enforce the ISA's structural
/// invariants (see [`BlockError`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    address: BlockAddr,
    instructions: Vec<Instruction>,
    reads: Vec<(usize, Reg)>,
    writes: Vec<(usize, Reg)>,
    store_lsids: Vec<u8>,
    exits: Vec<ExitSummary>,
}

impl Block {
    /// Validates `instructions` and assembles a block at `address`.
    ///
    /// # Errors
    ///
    /// Returns a [`BlockError`] describing the first violated invariant.
    pub fn from_instructions(
        address: BlockAddr,
        instructions: Vec<Instruction>,
    ) -> Result<Self, BlockError> {
        let n = instructions.len();
        if n > MAX_BLOCK_INSTRUCTIONS {
            return Err(BlockError::TooManyInstructions(n));
        }

        // Each list is allocated once, at the size the block needs.
        let (mut n_reads, mut n_writes, mut n_branches) = (0, 0, 0);
        for inst in &instructions {
            match inst.opcode {
                Opcode::Read => n_reads += 1,
                Opcode::Write => n_writes += 1,
                Opcode::Bro => n_branches += 1,
                _ => {}
            }
        }
        let mut reads = Vec::with_capacity(n_reads);
        let mut writes = Vec::with_capacity(n_writes);
        // Bit `r` of the register mask, bit `l` of the LSID masks.
        let mut write_regs = 0u128;
        let (mut lsids, mut store_lsids) = (0u32, 0u32);
        let mut exits: Vec<ExitSummary> = Vec::with_capacity(n_branches);

        for (i, inst) in instructions.iter().enumerate() {
            match inst.opcode {
                Opcode::Read => {
                    let r = inst.reg.ok_or(BlockError::MissingAnnotation(i))?;
                    reads.push((i, r));
                }
                Opcode::Write => {
                    let r = inst.reg.ok_or(BlockError::MissingAnnotation(i))?;
                    if write_regs >> r.index() & 1 == 1 {
                        return Err(BlockError::DuplicateWrite(r));
                    }
                    write_regs |= 1 << r.index();
                    writes.push((i, r));
                }
                op if op.is_load() || op.is_store() => {
                    let l = inst.lsid.ok_or(BlockError::MissingAnnotation(i))?;
                    lsids |= 1 << l.index();
                    if op.is_store() {
                        store_lsids |= 1 << l.index();
                    }
                }
                Opcode::Null => {
                    // A null either resolves a store LSID or feeds a write
                    // (or another consumer) with a null token; both uses
                    // are legal and need no annotation beyond what the
                    // instruction already carries.
                    if let Some(l) = inst.lsid {
                        lsids |= 1 << l.index();
                        store_lsids |= 1 << l.index();
                    }
                }
                Opcode::Bro => {
                    let b = inst.branch.ok_or(BlockError::MissingAnnotation(i))?;
                    let needs_target = !matches!(b.kind, BranchKind::Return | BranchKind::Halt);
                    if needs_target != b.target.is_some() {
                        return Err(BlockError::BadBranchTarget(i));
                    }
                    match exits.iter().find(|e| e.exit_id == b.exit_id) {
                        Some(e) if e.kind != b.kind || e.target != b.target => {
                            return Err(BlockError::InconsistentExit(b.exit_id));
                        }
                        Some(_) => {}
                        None => exits.push(ExitSummary {
                            exit_id: b.exit_id,
                            kind: b.kind,
                            target: b.target,
                        }),
                    }
                }
                _ => {}
            }
        }

        if reads.len() > MAX_BLOCK_READS {
            return Err(BlockError::TooManyReads(reads.len()));
        }
        if writes.len() > MAX_BLOCK_WRITES {
            return Err(BlockError::TooManyWrites(writes.len()));
        }
        if lsids.count_ones() as usize > MAX_BLOCK_LSIDS {
            return Err(BlockError::TooManyLsids(lsids.count_ones() as usize));
        }
        if exits.len() > MAX_BLOCK_EXITS {
            return Err(BlockError::TooManyExits(exits.len()));
        }
        if exits.is_empty() {
            return Err(BlockError::NoExit);
        }

        Self::check_targets(&instructions)?;
        Self::check_acyclic(&instructions)?;

        exits.sort_by_key(|e| e.exit_id);
        let mut store_lsid_list = Vec::with_capacity(store_lsids.count_ones() as usize);
        store_lsid_list.extend((0..MAX_BLOCK_LSIDS as u8).filter(|&l| store_lsids >> l & 1 == 1));
        Ok(Block {
            address,
            instructions,
            reads,
            writes,
            store_lsids: store_lsid_list,
            exits,
        })
    }

    fn check_targets(instructions: &[Instruction]) -> Result<(), BlockError> {
        let n = instructions.len();
        // Bit `s` of `has[i]` / `fed[i]`: instruction `i` has / is fed the
        // operand slot `s` encodes to (a block has at most
        // `MAX_BLOCK_INSTRUCTIONS`, checked before this).
        let mut has = [0u8; MAX_BLOCK_INSTRUCTIONS];
        for (slots, inst) in has.iter_mut().zip(instructions) {
            *slots = ((1u8 << inst.data_arity().min(2)) - 1) | u8::from(inst.is_predicated()) << 2;
        }
        let mut fed = [0u8; MAX_BLOCK_INSTRUCTIONS];
        for (i, inst) in instructions.iter().enumerate() {
            for t in inst.targets() {
                let ti = t.inst.index();
                if ti >= n {
                    return Err(BlockError::DanglingTarget { from: i, target: t });
                }
                let slot = 1 << t.operand.encode();
                if has[ti] & slot == 0 {
                    return Err(BlockError::BadOperandSlot { from: i, target: t });
                }
                fed[ti] |= slot;
            }
        }
        // The first unfed slot, instructions in order and each one's
        // slots in encoding order (left, right, predicate).
        match (0..n).find(|&i| has[i] != fed[i]) {
            None => Ok(()),
            Some(i) => Err(BlockError::UnfedOperand {
                inst: i,
                operand: [Operand::Left, Operand::Right, Operand::Pred]
                    [(has[i] & !fed[i]).trailing_zeros() as usize],
            }),
        }
    }

    fn check_acyclic(instructions: &[Instruction]) -> Result<(), BlockError> {
        // Iterative three-color DFS over target edges.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        // The path holds each instruction at most once, so both arrays
        // fit a block of `MAX_BLOCK_INSTRUCTIONS` (checked before this).
        let n = instructions.len();
        let mut color = [WHITE; MAX_BLOCK_INSTRUCTIONS];
        // `stack[..depth]`: the DFS path, each node with its next edge.
        // (Indices below 128 and edges below 2 fit a byte each.)
        let mut stack = [(0u8, 0u8); MAX_BLOCK_INSTRUCTIONS];
        for root in 0..n {
            if color[root] != WHITE {
                continue;
            }
            stack[0] = (root as u8, 0);
            let mut depth = 1;
            color[root] = GRAY;
            while depth > 0 {
                // `edge` walks the target slots in order, skipping empty
                // ones: the order `targets()` yields them in.
                let (node, ref mut edge) = stack[depth - 1];
                let targets = &instructions[usize::from(node)].targets;
                while usize::from(*edge) < targets.len() && targets[usize::from(*edge)].is_none() {
                    *edge += 1;
                }
                if let Some(t) = targets.get(usize::from(*edge)).copied().flatten() {
                    let next = t.inst.index();
                    *edge += 1;
                    match color[next] {
                        WHITE => {
                            color[next] = GRAY;
                            stack[depth] = (next as u8, 0);
                            depth += 1;
                        }
                        GRAY => return Err(BlockError::CyclicDataflow(next)),
                        _ => {}
                    }
                } else {
                    color[usize::from(node)] = BLACK;
                    depth -= 1;
                }
            }
        }
        Ok(())
    }

    /// The block's starting virtual address.
    #[must_use]
    pub fn address(&self) -> BlockAddr {
        self.address
    }

    /// Number of instructions in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True if the block contains no instructions (never true for a
    /// validated block, which must contain at least one branch).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The block's instructions, indexed by [`InstId`](crate::InstId).
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// `(instruction index, register)` pairs for all `READ` instructions.
    #[must_use]
    pub fn reads(&self) -> &[(usize, Reg)] {
        &self.reads
    }

    /// `(instruction index, register)` pairs for all `WRITE` instructions.
    #[must_use]
    pub fn writes(&self) -> &[(usize, Reg)] {
        &self.writes
    }

    /// LSIDs that must resolve (store or null) before the block completes.
    #[must_use]
    pub fn store_lsids(&self) -> &[u8] {
        &self.store_lsids
    }

    /// The block's distinct exits, sorted by exit ID.
    #[must_use]
    pub fn exits(&self) -> &[ExitSummary] {
        &self.exits
    }

    /// Total block outputs that completion detection waits for:
    /// one per register write, one per store LSID, plus one branch.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.writes.len() + self.store_lsids.len() + 1
    }

    /// The instruction slice held by `core` in an `n_cores` composition:
    /// indices `i` with `i % n_cores == core`.
    pub fn slice_for_core(
        &self,
        core: usize,
        n_cores: usize,
    ) -> impl Iterator<Item = (usize, &Instruction)> + '_ {
        debug_assert!(n_cores > 0);
        self.instructions
            .iter()
            .enumerate()
            .skip(core)
            .step_by(n_cores.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockBuilder, InstId, PredSense};

    fn halt_branch() -> Instruction {
        let mut i = Instruction::new(Opcode::Bro);
        i.branch = Some(crate::BranchInfo {
            exit_id: 0,
            kind: BranchKind::Halt,
            target: None,
        });
        i
    }

    #[test]
    fn minimal_block_validates() {
        let b = Block::from_instructions(0x100, vec![halt_branch()]).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.output_count(), 1);
        assert_eq!(b.exits().len(), 1);
        assert_eq!(b.exits()[0].kind, BranchKind::Halt);
    }

    #[test]
    fn empty_block_rejected() {
        assert_eq!(Block::from_instructions(0, vec![]), Err(BlockError::NoExit));
    }

    #[test]
    fn dangling_target_rejected() {
        let mut movi = Instruction::new(Opcode::Movi);
        movi.push_target(Target::new(InstId::new(99), Operand::Left));
        let err = Block::from_instructions(0, vec![movi, halt_branch()]).unwrap_err();
        assert!(matches!(err, BlockError::DanglingTarget { from: 0, .. }));
    }

    #[test]
    fn bad_operand_slot_rejected() {
        // movi targets the Right operand of a unary mov.
        let mut movi = Instruction::new(Opcode::Movi);
        movi.push_target(Target::new(InstId::new(1), Operand::Right));
        let mut mov = Instruction::new(Opcode::Mov);
        mov.push_target(Target::new(InstId::new(2), Operand::Left));
        let mut wr = Instruction::new(Opcode::Write);
        wr.reg = Some(Reg::new(1));
        let err = Block::from_instructions(0, vec![movi, mov, wr, halt_branch()]).unwrap_err();
        assert!(matches!(err, BlockError::BadOperandSlot { from: 0, .. }));
    }

    #[test]
    fn pred_target_requires_predicated_consumer() {
        let mut movi = Instruction::new(Opcode::Movi);
        movi.push_target(Target::new(InstId::new(1), Operand::Pred));
        let halt = halt_branch(); // unpredicated
        let err = Block::from_instructions(0, vec![movi, halt]).unwrap_err();
        assert!(matches!(err, BlockError::BadOperandSlot { .. }));
    }

    #[test]
    fn unfed_operand_rejected() {
        let mut wr = Instruction::new(Opcode::Write);
        wr.reg = Some(Reg::new(0));
        let err = Block::from_instructions(0, vec![wr, halt_branch()]).unwrap_err();
        assert_eq!(
            err,
            BlockError::UnfedOperand {
                inst: 0,
                operand: Operand::Left
            }
        );
    }

    #[test]
    fn cycle_rejected() {
        let mut a = Instruction::new(Opcode::Mov);
        a.push_target(Target::new(InstId::new(1), Operand::Left));
        let mut b = Instruction::new(Opcode::Mov);
        b.push_target(Target::new(InstId::new(0), Operand::Left));
        let err = Block::from_instructions(0, vec![a, b, halt_branch()]).unwrap_err();
        assert!(matches!(err, BlockError::CyclicDataflow(_)));
    }

    #[test]
    fn duplicate_write_rejected() {
        let mut m = Instruction::new(Opcode::Movi);
        m.push_target(Target::new(InstId::new(1), Operand::Left));
        m.push_target(Target::new(InstId::new(2), Operand::Left));
        let mut w1 = Instruction::new(Opcode::Write);
        w1.reg = Some(Reg::new(4));
        let mut w2 = Instruction::new(Opcode::Write);
        w2.reg = Some(Reg::new(4));
        let err = Block::from_instructions(0, vec![m, w1, w2, halt_branch()]).unwrap_err();
        assert_eq!(err, BlockError::DuplicateWrite(Reg::new(4)));
    }

    #[test]
    fn return_with_static_target_rejected() {
        let mut br = Instruction::new(Opcode::Bro);
        br.branch = Some(crate::BranchInfo {
            exit_id: 0,
            kind: BranchKind::Return,
            target: Some(0x40),
        });
        // Return takes its target as an operand; make arity happy.
        let err = Block::from_instructions(0, vec![br]).unwrap_err();
        assert_eq!(err, BlockError::BadBranchTarget(0));
    }

    #[test]
    fn branch_without_target_rejected() {
        let mut br = Instruction::new(Opcode::Bro);
        br.branch = Some(crate::BranchInfo {
            exit_id: 0,
            kind: BranchKind::Branch,
            target: None,
        });
        let err = Block::from_instructions(0, vec![br]).unwrap_err();
        assert_eq!(err, BlockError::BadBranchTarget(0));
    }

    #[test]
    fn inconsistent_exit_rejected() {
        let mut b1 = Instruction::new(Opcode::Bro);
        b1.pred = Some(PredSense::OnTrue);
        b1.branch = Some(crate::BranchInfo {
            exit_id: 0,
            kind: BranchKind::Branch,
            target: Some(0x200),
        });
        let mut b2 = Instruction::new(Opcode::Bro);
        b2.pred = Some(PredSense::OnFalse);
        b2.branch = Some(crate::BranchInfo {
            exit_id: 0,
            kind: BranchKind::Branch,
            target: Some(0x400),
        });
        let mut t = Instruction::new(Opcode::Movi);
        t.push_target(Target::new(InstId::new(0), Operand::Pred));
        t.push_target(Target::new(InstId::new(1), Operand::Pred));
        let err = Block::from_instructions(0, vec![b1, b2, t]).unwrap_err();
        assert_eq!(err, BlockError::InconsistentExit(0));
    }

    #[test]
    fn slice_for_core_stripes_by_low_bits() {
        let mut b = BlockBuilder::new(0);
        for _ in 0..7 {
            let v = b.movi(1);
            b.write(Reg::new(b.len() % 32), v);
        }
        b.branch(BranchKind::Halt, None, 0);
        let blk = b.finish().unwrap();
        let core1: Vec<usize> = blk.slice_for_core(1, 4).map(|(i, _)| i).collect();
        assert!(core1.iter().all(|i| i % 4 == 1));
        let all: usize = (0..4).map(|c| blk.slice_for_core(c, 4).count()).sum();
        assert_eq!(all, blk.len());
    }

    #[test]
    fn output_count_counts_stores_and_writes() {
        let mut b = BlockBuilder::new(0);
        let addr = b.movi(64);
        let val = b.movi(7);
        b.store(addr, val, 0);
        let v = b.movi(3);
        b.write(Reg::new(2), v);
        b.branch(BranchKind::Halt, None, 0);
        let blk = b.finish().unwrap();
        // one write + one store lsid + one branch
        assert_eq!(blk.output_count(), 3);
        assert_eq!(blk.store_lsids(), &[0]);
    }
}
