//! Opcode definitions and classification.

use std::fmt;

/// The kind of control transfer performed by a branch instruction.
///
/// The branch-type (`Btype`) predictor guesses this kind to select among
/// the BTB, CTB, RAS, and sequential-address target predictors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Regular branch to a statically known block address (BTB-predicted).
    Branch,
    /// Function call (CTB-predicted; pushes the return address onto the RAS).
    Call,
    /// Function return; the actual target arrives as the branch's operand
    /// (RAS-predicted).
    Return,
    /// Fall through to the next sequential block.
    Seq,
    /// Terminate the program (no successor block).
    Halt,
}

impl BranchKind {
    /// All branch kinds, in encoding order.
    pub const ALL: [BranchKind; 5] = [
        BranchKind::Branch,
        BranchKind::Call,
        BranchKind::Return,
        BranchKind::Seq,
        BranchKind::Halt,
    ];

    /// Three-bit encoding.
    #[must_use]
    pub fn encode(self) -> u8 {
        match self {
            BranchKind::Branch => 0,
            BranchKind::Call => 1,
            BranchKind::Return => 2,
            BranchKind::Seq => 3,
            BranchKind::Halt => 4,
        }
    }

    /// Decodes the three-bit branch-kind field.
    #[must_use]
    pub fn decode(bits: u8) -> Option<Self> {
        BranchKind::ALL.get(bits as usize).copied()
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::Branch => "br",
            BranchKind::Call => "call",
            BranchKind::Return => "ret",
            BranchKind::Seq => "seq",
            BranchKind::Halt => "halt",
        };
        f.write_str(s)
    }
}

/// Coarse functional-unit classification of an opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpcodeClass {
    /// Integer ALU operations (issue on an INT port).
    Int,
    /// Floating-point operations (issue on the FP port).
    Float,
    /// Memory operations (effective-address computation on an INT port,
    /// then routed to a data-cache bank).
    Memory,
    /// Branches (INT port).
    Branch,
    /// Register-interface pseudo-ops (`READ`/`WRITE`).
    RegInterface,
}

macro_rules! opcodes {
    ($( $(#[$meta:meta])* $name:ident => ($class:expr, $arity:expr, $lat:expr, $mnem:expr) ),+ $(,)?) => {
        /// An EDGE instruction opcode.
        ///
        /// The tuple in each definition is `(class, data-operand arity,
        /// execution latency in cycles, mnemonic)`.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Opcode {
            $( $(#[$meta])* $name ),+
        }

        impl Opcode {
            /// Every defined opcode.
            pub const ALL: &'static [Opcode] = &[ $(Opcode::$name),+ ];

            /// The functional-unit class of this opcode.
            #[must_use]
            pub fn class(self) -> OpcodeClass {
                match self { $(Opcode::$name => $class),+ }
            }

            /// Number of data operands (`Left`/`Right`) the instruction
            /// waits for before firing (excluding any predicate operand).
            #[must_use]
            pub fn arity(self) -> usize {
                match self { $(Opcode::$name => $arity),+ }
            }

            /// Execution latency in cycles on its functional unit.
            #[must_use]
            pub fn latency(self) -> u32 {
                match self { $(Opcode::$name => $lat),+ }
            }

            /// Assembler mnemonic.
            #[must_use]
            pub fn mnemonic(self) -> &'static str {
                match self { $(Opcode::$name => $mnem),+ }
            }

            /// Looks an opcode up by its assembler mnemonic.
            #[must_use]
            pub(crate) fn from_mnemonic(s: &str) -> Option<Self> {
                match s {
                    $( $mnem => Some(Opcode::$name), )+
                    _ => None,
                }
            }
        }
    };
}

use OpcodeClass::{Branch, Float, Int, Memory, RegInterface};

opcodes! {
    // ---- integer ALU ----
    /// 64-bit integer addition.
    Add => (Int, 2, 1, "add"),
    /// 64-bit integer subtraction.
    Sub => (Int, 2, 1, "sub"),
    /// 64-bit integer multiplication (low 64 bits).
    Mul => (Int, 2, 3, "mul"),
    /// Signed 64-bit division (division by zero yields zero).
    Div => (Int, 2, 12, "div"),
    /// Signed 64-bit remainder (modulo zero yields zero).
    Rem => (Int, 2, 12, "rem"),
    /// Bitwise AND.
    And => (Int, 2, 1, "and"),
    /// Bitwise OR.
    Or => (Int, 2, 1, "or"),
    /// Bitwise XOR.
    Xor => (Int, 2, 1, "xor"),
    /// Logical shift left (shift amount taken modulo 64).
    Shl => (Int, 2, 1, "shl"),
    /// Logical shift right.
    Shr => (Int, 2, 1, "shr"),
    /// Arithmetic shift right.
    Sar => (Int, 2, 1, "sar"),
    /// Two's-complement negate (unary).
    Neg => (Int, 1, 1, "neg"),

    // ---- tests (produce 0/1, usable as data or predicates) ----
    /// Set to 1 if equal.
    Teq => (Int, 2, 1, "teq"),
    /// Set to 1 if not equal.
    Tne => (Int, 2, 1, "tne"),
    /// Set to 1 if signed less-than.
    Tlt => (Int, 2, 1, "tlt"),
    /// Set to 1 if signed less-or-equal.
    Tle => (Int, 2, 1, "tle"),
    /// Set to 1 if signed greater-than.
    Tgt => (Int, 2, 1, "tgt"),
    /// Set to 1 if signed greater-or-equal.
    Tge => (Int, 2, 1, "tge"),

    // ---- data movement ----
    /// Copy the single operand to the targets (fan-out tree node).
    Mov => (Int, 1, 1, "mov"),
    /// Generate the immediate constant (no data operands).
    Movi => (Int, 0, 1, "movi"),
    /// Add the immediate to the single operand (`addi`).
    Addi => (Int, 1, 1, "addi"),
    /// Produce a null token: resolves a register write or a store LSID on
    /// a predicated-off path without performing it.
    Null => (Int, 0, 1, "null"),

    // ---- floating point (f64 bit pattern in the 64-bit value) ----
    /// FP addition.
    Fadd => (Float, 2, 4, "fadd"),
    /// FP subtraction.
    Fsub => (Float, 2, 4, "fsub"),
    /// FP multiplication.
    Fmul => (Float, 2, 4, "fmul"),
    /// FP division.
    Fdiv => (Float, 2, 16, "fdiv"),
    /// Convert signed integer to FP (unary).
    Itof => (Float, 1, 4, "itof"),

    // ---- memory ----
    /// Load a 64-bit word from `operand + imm`; carries an LSID.
    Ld => (Memory, 1, 1, "ld"),
    /// Load a byte (zero-extended) from `operand + imm`; carries an LSID.
    Ldb => (Memory, 1, 1, "ldb"),
    /// Store the right operand as a 64-bit word at `left + imm`.
    St => (Memory, 2, 1, "st"),
    /// Store the low byte of the right operand at `left + imm`.
    Stb => (Memory, 2, 1, "stb"),

    // ---- control ----
    /// Block exit branch. Carries a [`BranchInfo`](crate::BranchInfo):
    /// exit ID, branch kind, and (except for returns) a static target.
    Bro => (Branch, 0, 1, "bro"),

    // ---- register interface ----
    /// Read an architectural register and forward it to the targets.
    Read => (RegInterface, 0, 1, "read"),
    /// Receive one value (or null) and write it to an architectural
    /// register when the block commits.
    Write => (RegInterface, 1, 1, "write"),
}

impl Opcode {
    /// True for `ld`/`ldb`.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Ld | Opcode::Ldb)
    }

    /// True for `st`/`stb`.
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::St | Opcode::Stb)
    }

    /// True if the instruction accepts an immediate field.
    #[must_use]
    pub fn has_immediate(self) -> bool {
        matches!(
            self,
            Opcode::Movi | Opcode::Addi | Opcode::Ld | Opcode::Ldb | Opcode::St | Opcode::Stb
        )
    }

    /// True if the instruction produces a result value routed to targets.
    ///
    /// Stores, branches, writes, and nulls do not produce a data result
    /// (nulls produce a *null token*, delivered to targets but carrying no
    /// value).
    #[must_use]
    pub fn produces_value(self) -> bool {
        !matches!(self, Opcode::St | Opcode::Stb | Opcode::Bro | Opcode::Write)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_decode_roundtrip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn opcode_decode_rejects_unknown() {
        assert_eq!(Opcode::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn branch_kind_roundtrip() {
        for k in BranchKind::ALL {
            assert_eq!(BranchKind::decode(k.encode()), Some(k));
        }
        assert_eq!(BranchKind::decode(7), None);
    }

    #[test]
    fn classes_are_consistent() {
        assert!(Opcode::Ld.is_load());
        assert!(!Opcode::Ld.is_store());
        assert!(Opcode::Stb.is_store());
        assert_eq!(Opcode::Fadd.class(), OpcodeClass::Float);
        assert_eq!(Opcode::Bro.class(), OpcodeClass::Branch);
        assert_eq!(Opcode::Read.arity(), 0);
        assert_eq!(Opcode::Write.arity(), 1);
        assert!(Opcode::St.has_immediate());
        assert!(!Opcode::Add.has_immediate());
        assert!(Opcode::Null.produces_value());
        assert!(!Opcode::Write.produces_value());
    }

    #[test]
    fn latencies_are_plausible() {
        assert_eq!(Opcode::Add.latency(), 1);
        assert!(Opcode::Fdiv.latency() > Opcode::Fmul.latency());
        assert!(Opcode::Div.latency() > Opcode::Mul.latency());
    }
}
