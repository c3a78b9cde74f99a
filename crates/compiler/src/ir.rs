//! The mini intermediate representation consumed by the EDGE compiler.
//!
//! The IR is a conventional CFG over *mutable* virtual registers: an
//! assignment overwrites the register, and a predicated assignment that
//! does not fire leaves the old value in place. This non-SSA convention
//! is what makes if-conversion trivial (no phi nodes are needed: merging
//! a diamond simply predicates both arms' assignments).

use clp_isa::Opcode;
use std::fmt;

/// A virtual register.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl fmt::Debug for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic-block identifier (function-local).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BbId(pub usize);

impl fmt::Debug for BbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A function identifier (program-local).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub usize);

impl fmt::Debug for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// Memory access width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// One byte, zero-extended.
    Byte,
    /// A 64-bit word.
    Word,
}

impl MemSize {
    /// Width in bytes.
    #[must_use]
    pub fn bytes(self) -> u8 {
        match self {
            MemSize::Byte => 1,
            MemSize::Word => 8,
        }
    }
}

/// A conjunction of `(register, expected-truth)` guards; empty means
/// unconditional. Produced by if-conversion.
pub type Pred = Vec<(VReg, bool)>;

/// One IR operation. Every op may carry a predicate (see [`Pred`]); a
/// predicated op whose guard fails is a no-op (its destination keeps its
/// previous value).
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Guard conjunction (empty = always executes).
    pub pred: Pred,
    /// The operation proper.
    pub kind: OpKind,
}

/// The operation payload of an [`Op`].
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// `dst = imm`.
    Const {
        /// Destination.
        dst: VReg,
        /// Constant value.
        value: i64,
    },
    /// `dst = f64 constant` (stored as its bit pattern).
    ConstF {
        /// Destination.
        dst: VReg,
        /// Constant value.
        value: f64,
    },
    /// `dst = op a` for unary ALU opcodes.
    Un {
        /// Destination.
        dst: VReg,
        /// The opcode (must have arity 1).
        op: Opcode,
        /// Operand.
        a: VReg,
    },
    /// `dst = a op b` for binary ALU opcodes.
    Bin {
        /// Destination.
        dst: VReg,
        /// The opcode (must have arity 2).
        op: Opcode,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `dst = mem[addr + offset]`.
    Load {
        /// Destination.
        dst: VReg,
        /// Base address register.
        addr: VReg,
        /// Byte offset.
        offset: i64,
        /// Access width.
        size: MemSize,
    },
    /// `mem[addr + offset] = value`.
    Store {
        /// Base address register.
        addr: VReg,
        /// Byte offset.
        offset: i64,
        /// Value register.
        value: VReg,
        /// Access width.
        size: MemSize,
    },
}

impl OpKind {
    /// The destination register, if the op defines one.
    #[must_use]
    pub fn dst(&self) -> Option<VReg> {
        match *self {
            OpKind::Const { dst, .. }
            | OpKind::ConstF { dst, .. }
            | OpKind::Un { dst, .. }
            | OpKind::Bin { dst, .. }
            | OpKind::Load { dst, .. } => Some(dst),
            OpKind::Store { .. } => None,
        }
    }

    /// The registers the op reads (not counting its predicate), in
    /// operand order.
    pub fn uses(&self) -> impl Iterator<Item = VReg> {
        self.operands().into_iter().flatten()
    }

    /// The registers the op reads (not counting its predicate), in
    /// operand order: [`OpKind::uses`] as a fixed pair.
    #[must_use]
    pub(crate) fn operands(&self) -> [Option<VReg>; 2] {
        match *self {
            OpKind::Const { .. } | OpKind::ConstF { .. } => [None, None],
            OpKind::Un { a, .. } | OpKind::Load { addr: a, .. } => [Some(a), None],
            OpKind::Bin { a, b, .. }
            | OpKind::Store {
                addr: a, value: b, ..
            } => [Some(a), Some(b)],
        }
    }

    /// True for loads and stores.
    #[must_use]
    pub(crate) fn is_memory(&self) -> bool {
        matches!(self, OpKind::Load { .. } | OpKind::Store { .. })
    }
}

impl Op {
    /// An unpredicated op.
    #[must_use]
    pub fn new(kind: OpKind) -> Self {
        Op { pred: vec![], kind }
    }

    /// All registers this op reads: operands, then guard registers, then
    /// the destination of a predicated definition (which may leave the
    /// old value, so it is also a use).
    pub fn uses(&self) -> impl Iterator<Item = VReg> + '_ {
        let may_keep = if self.pred.is_empty() {
            None
        } else {
            self.kind.dst()
        };
        self.kind
            .uses()
            .chain(self.pred.iter().map(|&(v, _)| v))
            .chain(may_keep)
    }
}

/// A basic-block terminator.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BbId),
    /// Two-way branch on `cond != 0`.
    Branch {
        /// Condition register.
        cond: VReg,
        /// Successor when non-zero.
        then_bb: BbId,
        /// Successor when zero.
        else_bb: BbId,
    },
    /// Call `func(args...)`; on return, `dst` (if any) receives the return
    /// value and control continues at `cont`.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument registers (at most 8).
        args: Vec<VReg>,
        /// Register receiving the return value.
        dst: Option<VReg>,
        /// Continuation block.
        cont: BbId,
    },
    /// Return (optionally with a value).
    Ret(Option<VReg>),
    /// Stop the program.
    Halt,
}

impl Terminator {
    /// The registers the terminator reads, in order. `link_vreg` is the
    /// function's implicit link register, consumed (last) by
    /// [`Terminator::Ret`].
    pub fn uses(&self, link_vreg: VReg) -> impl Iterator<Item = VReg> + '_ {
        let (first, args, link): (Option<VReg>, &[VReg], Option<VReg>) = match self {
            Terminator::Jump(_) | Terminator::Halt => (None, &[], None),
            Terminator::Branch { cond, .. } => (Some(*cond), &[], None),
            Terminator::Call { args, .. } => (None, args, None),
            Terminator::Ret(v) => (*v, &[], Some(link_vreg)),
        };
        first.into_iter().chain(args.iter().copied()).chain(link)
    }

    /// Successor blocks within the same function, in order.
    pub fn successors(&self) -> impl Iterator<Item = BbId> {
        let pair = match self {
            Terminator::Jump(b) => [Some(*b), None],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => [Some(*then_bb), Some(*else_bb)],
            Terminator::Call { cont, .. } => [Some(*cont), None],
            Terminator::Ret(_) | Terminator::Halt => [None, None],
        };
        pair.into_iter().flatten()
    }
}

/// A basic block: straight-line ops plus a terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct BasicBlock {
    /// The block body.
    pub ops: Vec<Op>,
    /// The terminator.
    pub term: Terminator,
}

/// A function: a CFG over virtual registers.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Human-readable name.
    pub name: String,
    /// Number of parameters (passed in `r1..`; at most 8).
    pub n_params: usize,
    /// Parameter virtual registers (`params[i]` holds argument `i`).
    pub params: Vec<VReg>,
    /// The implicit link (return address) virtual register.
    pub link_vreg: VReg,
    /// Total virtual registers allocated (IDs `0..n_vregs`).
    pub n_vregs: u32,
    /// Basic blocks, indexed by [`BbId`].
    pub blocks: Vec<BasicBlock>,
    /// The entry block.
    pub entry: BbId,
}

impl Function {
    /// The basic block `id`.
    #[must_use]
    pub fn block(&self, id: BbId) -> &BasicBlock {
        &self.blocks[id.0]
    }
}

/// A whole program: functions plus an entry function.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// All functions, indexed by [`FuncId`].
    pub functions: Vec<Function>,
    /// The function executed first; its `Ret` halts the program.
    pub entry: FuncId,
}

impl Program {
    /// The function `id`.
    #[must_use]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_uses_include_predicates_and_may_def() {
        let mut op = Op::new(OpKind::Bin {
            dst: VReg(3),
            op: Opcode::Add,
            a: VReg(1),
            b: VReg(2),
        });
        assert_eq!(op.uses().collect::<Vec<_>>(), vec![VReg(1), VReg(2)]);
        op.pred = vec![(VReg(9), true)];
        let uses: Vec<VReg> = op.uses().collect();
        assert!(uses.contains(&VReg(9)), "guard is a use");
        assert!(uses.contains(&VReg(3)), "predicated def is a may-use");
    }

    #[test]
    fn store_has_no_dst() {
        let k = OpKind::Store {
            addr: VReg(0),
            offset: 8,
            value: VReg(1),
            size: MemSize::Word,
        };
        assert_eq!(k.dst(), None);
        assert!(k.is_memory());
        assert_eq!(k.uses().collect::<Vec<_>>(), vec![VReg(0), VReg(1)]);
    }

    #[test]
    fn terminator_successors() {
        let succs = |t: Terminator| t.successors().collect::<Vec<_>>();
        assert_eq!(succs(Terminator::Jump(BbId(3))), vec![BbId(3)]);
        assert_eq!(
            succs(Terminator::Branch {
                cond: VReg(0),
                then_bb: BbId(1),
                else_bb: BbId(2)
            }),
            vec![BbId(1), BbId(2)]
        );
        assert!(succs(Terminator::Halt).is_empty());
    }

    #[test]
    fn ret_uses_link() {
        let t = Terminator::Ret(Some(VReg(4)));
        let uses: Vec<VReg> = t.uses(VReg(99)).collect();
        assert!(uses.contains(&VReg(4)));
        assert!(uses.contains(&VReg(99)));
    }
}
