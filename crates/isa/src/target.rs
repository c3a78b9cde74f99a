//! Dataflow targets, instruction identifiers, and small index newtypes.

use std::fmt;

/// Index of an instruction within its hyperblock (0..=127).
///
/// In an N-core composition the microarchitecture interprets the low
/// `log2(N)` bits as the core holding the instruction and the remaining
/// bits as the slot within that core's window partition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId(u8);

impl InstId {
    /// Creates an instruction ID.
    ///
    /// IDs `128..256` are transient artifacts of block construction
    /// (e.g. a [`BlockBuilder`](crate::BlockBuilder) that has grown past
    /// the architectural limit); they are rejected when the block is
    /// validated.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 256`.
    #[must_use]
    pub fn new(id: usize) -> Self {
        assert!(id < 256, "instruction id {id} out of range");
        InstId(id as u8)
    }

    /// The raw index value.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The core that holds this instruction in an `n_cores` composition
    /// (cf. Figure 4a of the paper): instructions stripe round-robin, so
    /// the mapping stays defined for the non-power-of-two survivor sets
    /// left by hard-fault recomposition. For power-of-two compositions
    /// this is the paper's low-order-bits selection, unchanged.
    #[must_use]
    pub fn core_of(self, n_cores: usize) -> usize {
        debug_assert!(n_cores > 0);
        self.index() % n_cores
    }

    /// The window slot within the owning core for an `n_cores` composition.
    #[must_use]
    pub fn slot_of(self, n_cores: usize) -> usize {
        debug_assert!(n_cores > 0);
        self.index() / n_cores
    }
}

impl fmt::Debug for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Operand slot of a consuming instruction targeted by a producer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// First (left) data operand.
    Left,
    /// Second (right) data operand.
    Right,
    /// Predicate operand; the consumer fires only if the predicate value
    /// matches its [`PredSense`](crate::PredSense).
    Pred,
}

impl Operand {
    /// The slot number (0–2), the two operand bits of a nine-bit TRIPS
    /// target; it indexes per-slot arrays.
    #[must_use]
    pub fn encode(self) -> u8 {
        match self {
            Operand::Left => 0,
            Operand::Right => 1,
            Operand::Pred => 2,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Operand::Left => "L",
            Operand::Right => "R",
            Operand::Pred => "P",
        };
        f.write_str(s)
    }
}

/// A nine-bit dataflow target: seven bits of instruction index plus two
/// bits of operand slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target {
    /// Consumer instruction.
    pub inst: InstId,
    /// Operand slot at the consumer.
    pub operand: Operand,
}

impl Target {
    /// Creates a target addressing `inst`'s `operand` slot.
    #[must_use]
    pub fn new(inst: InstId, operand: Operand) -> Self {
        Target { inst, operand }
    }
}

impl fmt::Debug for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.inst, self.operand)
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.inst, self.operand)
    }
}

/// An architectural register number (0..=127).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The link register used by the calling convention.
    pub const LINK: Reg = Reg(127);
    /// The stack-pointer register used by the calling convention.
    pub const SP: Reg = Reg(126);

    /// Creates a register number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 128`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n < crate::NUM_ARCH_REGS, "register r{n} out of range");
        Reg(n as u8)
    }

    /// The raw register number.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The register bank (core) holding this register in an `n_cores`
    /// composition (registers interleave round-robin — the low-order-bit
    /// selection of the paper for power-of-two compositions, and still a
    /// balanced interleaving over non-power-of-two survivor sets after
    /// hard-fault recomposition).
    #[must_use]
    pub fn bank_of(self, n_cores: usize) -> usize {
        debug_assert!(n_cores > 0);
        self.index() % n_cores
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A load/store identifier establishing intra-block memory program order.
///
/// LSIDs are assigned in program order by the compiler; the load/store
/// queues use them (concatenated with block age) for disambiguation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsid(u8);

impl Lsid {
    /// Creates an LSID.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n < crate::MAX_BLOCK_LSIDS, "lsid {n} out of range");
        Lsid(n as u8)
    }

    /// The raw LSID value.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lsid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ls{}", self.0)
    }
}

impl fmt::Display for Lsid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ls{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inst_id_core_and_slot() {
        let id = InstId::new(13); // 0b0001101
        assert_eq!(id.core_of(1), 0);
        assert_eq!(id.slot_of(1), 13);
        assert_eq!(id.core_of(4), 1);
        assert_eq!(id.slot_of(4), 3);
        assert_eq!(id.core_of(32), 13);
        assert_eq!(id.slot_of(32), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inst_id_range_checked() {
        let _ = InstId::new(256);
    }

    #[test]
    fn reg_bank_interleaving() {
        assert_eq!(Reg::new(5).bank_of(4), 1);
        assert_eq!(Reg::new(5).bank_of(1), 0);
        assert_eq!(Reg::new(127).bank_of(32), 31);
    }

    #[test]
    fn display_forms() {
        assert_eq!(InstId::new(7).to_string(), "i7");
        assert_eq!(Reg::new(3).to_string(), "r3");
        assert_eq!(Lsid::new(2).to_string(), "ls2");
        assert_eq!(
            Target::new(InstId::new(9), Operand::Pred).to_string(),
            "i9.P"
        );
    }
}
