//! The decoded instruction representation.

use crate::{BlockAddr, BranchKind, Lsid, Opcode, Reg, Target};
use std::fmt;

/// The sense in which a predicated instruction consumes its predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredSense {
    /// Fire when the predicate value is non-zero.
    OnTrue,
    /// Fire when the predicate value is zero.
    OnFalse,
}

impl PredSense {
    /// The complementary sense.
    #[must_use]
    pub fn invert(self) -> Self {
        match self {
            PredSense::OnTrue => PredSense::OnFalse,
            PredSense::OnFalse => PredSense::OnTrue,
        }
    }

    /// Whether a predicate `value` satisfies this sense.
    #[must_use]
    pub fn matches(self, value: u64) -> bool {
        match self {
            PredSense::OnTrue => value != 0,
            PredSense::OnFalse => value == 0,
        }
    }
}

/// Static branch information carried by a [`Opcode::Bro`] instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Which of the block's (up to eight) exits this branch is. The exit
    /// predictor forms its histories from these three-bit IDs rather than
    /// taken/not-taken bits.
    pub exit_id: u8,
    /// The kind of control transfer.
    pub kind: BranchKind,
    /// Statically known target block address. `None` for
    /// [`BranchKind::Return`] (target arrives as the branch operand) and
    /// for [`BranchKind::Halt`].
    pub target: Option<BlockAddr>,
}

/// A decoded EDGE instruction.
///
/// Instructions name *consumers*, not sources: `targets` lists up to two
/// operand slots of other instructions in the same block that receive this
/// instruction's result. Wider fan-out uses [`Opcode::Mov`] trees.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// Predication: `None` executes unconditionally; `Some(sense)` waits
    /// for a predicate operand and fires only if it matches.
    pub pred: Option<PredSense>,
    /// Immediate constant for opcodes with [`Opcode::has_immediate`].
    pub imm: i64,
    /// Dataflow targets receiving this instruction's result (or null token).
    pub targets: [Option<Target>; 2],
    /// Load/store ID for memory operations and for [`Opcode::Null`]
    /// instructions that nullify a store slot.
    pub lsid: Option<Lsid>,
    /// Branch metadata for [`Opcode::Bro`].
    pub branch: Option<BranchInfo>,
    /// Architectural register for [`Opcode::Read`]/[`Opcode::Write`].
    pub reg: Option<Reg>,
}

impl Instruction {
    /// Creates a bare instruction of the given opcode with no targets,
    /// no predicate, and zero immediate.
    #[must_use]
    pub fn new(opcode: Opcode) -> Self {
        Instruction {
            opcode,
            pred: None,
            imm: 0,
            targets: [None, None],
            lsid: None,
            branch: None,
            reg: None,
        }
    }

    /// Iterates over the present targets.
    pub fn targets(&self) -> impl Iterator<Item = Target> + '_ {
        self.targets.iter().flatten().copied()
    }

    /// Number of present targets.
    #[must_use]
    pub fn target_count(&self) -> usize {
        self.targets.iter().flatten().count()
    }

    /// Adds a target, returning `false` if both slots are already full.
    pub(crate) fn push_target(&mut self, t: Target) -> bool {
        for slot in &mut self.targets {
            if slot.is_none() {
                *slot = Some(t);
                return true;
            }
        }
        false
    }

    /// Total number of *data* operands this instruction must receive
    /// before firing (not counting the predicate).
    ///
    /// Unlike [`Opcode::arity`], this accounts for return branches, whose
    /// target address arrives as a data operand.
    #[must_use]
    #[inline]
    pub fn data_arity(&self) -> usize {
        if self.opcode == Opcode::Bro {
            usize::from(matches!(
                self.branch.map(|b| b.kind),
                Some(BranchKind::Return)
            ))
        } else {
            self.opcode.arity()
        }
    }

    /// Whether the instruction waits for a predicate operand.
    #[must_use]
    #[inline]
    pub fn is_predicated(&self) -> bool {
        self.pred.is_some()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pred {
            Some(PredSense::OnTrue) => write!(f, "p_t ")?,
            Some(PredSense::OnFalse) => write!(f, "p_f ")?,
            None => {}
        }
        write!(f, "{}", self.opcode)?;
        if let Some(b) = &self.branch {
            write!(f, " {} e{}", b.kind, b.exit_id)?;
            if let Some(t) = b.target {
                write!(f, " @{t:#x}")?;
            }
        }
        if let Some(r) = self.reg {
            write!(f, " {r}")?;
        }
        if self.opcode.has_immediate() {
            write!(f, " #{}", self.imm)?;
        }
        if let Some(l) = self.lsid {
            write!(f, " {l}")?;
        }
        for t in self.targets() {
            write!(f, " ->{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstId, Operand};

    #[test]
    fn pred_sense_matching() {
        assert!(PredSense::OnTrue.matches(1));
        assert!(PredSense::OnTrue.matches(u64::MAX));
        assert!(!PredSense::OnTrue.matches(0));
        assert!(PredSense::OnFalse.matches(0));
        assert!(!PredSense::OnFalse.matches(2));
        assert_eq!(PredSense::OnTrue.invert(), PredSense::OnFalse);
    }

    #[test]
    fn push_target_fills_slots() {
        let mut i = Instruction::new(Opcode::Add);
        let t0 = Target::new(InstId::new(1), Operand::Left);
        let t1 = Target::new(InstId::new(2), Operand::Right);
        let t2 = Target::new(InstId::new(3), Operand::Pred);
        assert!(i.push_target(t0));
        assert!(i.push_target(t1));
        assert!(!i.push_target(t2));
        assert_eq!(i.target_count(), 2);
        assert_eq!(i.targets().collect::<Vec<_>>(), vec![t0, t1]);
    }

    #[test]
    fn display_is_nonempty_and_informative() {
        let mut i = Instruction::new(Opcode::Ld);
        i.imm = 8;
        i.lsid = Some(Lsid::new(3));
        i.pred = Some(PredSense::OnFalse);
        i.push_target(Target::new(InstId::new(5), Operand::Right));
        let s = i.to_string();
        assert!(s.contains("ld"), "{s}");
        assert!(s.contains("#8"), "{s}");
        assert!(s.contains("ls3"), "{s}");
        assert!(s.contains("p_f"), "{s}");
        assert!(s.contains("->i5.R"), "{s}");
    }
}
