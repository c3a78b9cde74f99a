//! Ergonomic construction of IR programs (used heavily by `clp-workloads`).

use crate::ir::{
    BasicBlock, BbId, FuncId, Function, MemSize, Op, OpKind, Program, Terminator, VReg,
};
use clp_isa::Opcode;

/// Builds one [`Function`] with a cursor over the current basic block.
///
/// # Examples
///
/// ```
/// use clp_compiler::{FunctionBuilder, ProgramBuilder};
/// use clp_isa::Opcode;
///
/// // fn double(x) { return x + x; }
/// let mut f = FunctionBuilder::new("double", 1);
/// let x = f.param(0);
/// let y = f.bin(Opcode::Add, x, x);
/// f.ret(Some(y));
///
/// let mut p = ProgramBuilder::new();
/// let id = p.add_function(f.finish());
/// let program = p.finish(id);
/// assert_eq!(program.function(id).name, "double");
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    n_params: usize,
    params: Vec<VReg>,
    link_vreg: VReg,
    next_vreg: u32,
    blocks: Vec<BasicBlock>,
    terminated: Vec<bool>,
    current: BbId,
}

impl FunctionBuilder {
    /// Starts a function with `n_params` parameters (at most 8) and a
    /// fresh entry block as the cursor.
    ///
    /// # Panics
    ///
    /// Panics if `n_params > 8`.
    #[must_use]
    pub fn new(name: &str, n_params: usize) -> Self {
        assert!(n_params <= 8, "at most 8 parameters");
        let params: Vec<VReg> = (0..n_params as u32).map(VReg).collect();
        let link_vreg = VReg(n_params as u32);
        FunctionBuilder {
            name: name.to_owned(),
            n_params,
            params,
            link_vreg,
            next_vreg: n_params as u32 + 1,
            blocks: vec![BasicBlock {
                ops: vec![],
                term: Terminator::Halt,
            }],
            terminated: vec![false],
            current: BbId(0),
        }
    }

    /// The virtual register holding parameter `i`.
    #[must_use]
    pub fn param(&self, i: usize) -> VReg {
        self.params[i]
    }

    /// Allocates a fresh virtual register.
    pub fn vreg(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    /// Creates a new (unterminated) basic block.
    pub fn new_block(&mut self) -> BbId {
        self.blocks.push(BasicBlock {
            ops: vec![],
            term: Terminator::Halt,
        });
        self.terminated.push(false);
        BbId(self.blocks.len() - 1)
    }

    /// Moves the cursor to `bb`.
    pub fn switch_to(&mut self, bb: BbId) {
        self.current = bb;
    }

    fn push(&mut self, kind: OpKind) {
        assert!(
            !self.terminated[self.current.0],
            "appending to terminated {:?}",
            self.current
        );
        self.blocks[self.current.0].ops.push(Op::new(kind));
    }

    /// `dst = value` into a fresh register.
    pub fn c(&mut self, value: i64) -> VReg {
        let dst = self.vreg();
        self.c_into(dst, value);
        dst
    }

    /// `dst = value` into an existing register.
    pub fn c_into(&mut self, dst: VReg, value: i64) {
        self.push(OpKind::Const { dst, value });
    }

    /// `dst = value` (floating point) into a fresh register.
    pub fn cf(&mut self, value: f64) -> VReg {
        let dst = self.vreg();
        self.push(OpKind::ConstF { dst, value });
        dst
    }

    /// `dst = a op b` into a fresh register.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a binary ALU opcode.
    pub fn bin(&mut self, op: Opcode, a: VReg, b: VReg) -> VReg {
        let dst = self.vreg();
        self.bin_into(dst, op, a, b);
        dst
    }

    /// `dst = a op b` into an existing register.
    pub fn bin_into(&mut self, dst: VReg, op: Opcode, a: VReg, b: VReg) {
        assert_eq!(op.arity(), 2, "{op} is not binary");
        self.push(OpKind::Bin { dst, op, a, b });
    }

    /// `dst = op a` into a fresh register.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a unary ALU opcode.
    pub fn un(&mut self, op: Opcode, a: VReg) -> VReg {
        let dst = self.vreg();
        self.un_into(dst, op, a);
        dst
    }

    /// `dst = op a` into an existing register.
    fn un_into(&mut self, dst: VReg, op: Opcode, a: VReg) {
        assert_eq!(op.arity(), 1, "{op} is not unary");
        self.push(OpKind::Un { dst, op, a });
    }

    /// `dst = src` (register copy) into an existing register.
    pub fn assign(&mut self, dst: VReg, src: VReg) {
        self.un_into(dst, Opcode::Mov, src);
    }

    /// Word load into a fresh register.
    pub fn load(&mut self, addr: VReg, offset: i64) -> VReg {
        let dst = self.vreg();
        self.push(OpKind::Load {
            dst,
            addr,
            offset,
            size: MemSize::Word,
        });
        dst
    }

    /// Byte load (zero-extended) into a fresh register.
    pub fn loadb(&mut self, addr: VReg, offset: i64) -> VReg {
        let dst = self.vreg();
        self.push(OpKind::Load {
            dst,
            addr,
            offset,
            size: MemSize::Byte,
        });
        dst
    }

    /// Word store.
    pub fn store(&mut self, addr: VReg, offset: i64, value: VReg) {
        self.push(OpKind::Store {
            addr,
            offset,
            value,
            size: MemSize::Word,
        });
    }

    /// Byte store.
    pub fn storeb(&mut self, addr: VReg, offset: i64, value: VReg) {
        self.push(OpKind::Store {
            addr,
            offset,
            value,
            size: MemSize::Byte,
        });
    }

    fn terminate(&mut self, term: Terminator) {
        assert!(
            !self.terminated[self.current.0],
            "double terminator on {:?}",
            self.current
        );
        self.blocks[self.current.0].term = term;
        self.terminated[self.current.0] = true;
    }

    /// Ends the current block with an unconditional jump.
    pub fn jump(&mut self, target: BbId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Ends the current block with a branch on `cond != 0`.
    pub fn branch(&mut self, cond: VReg, then_bb: BbId, else_bb: BbId) {
        self.terminate(Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Ends the current block with a call; execution resumes at `cont`
    /// with `dst` holding the return value.
    ///
    /// # Panics
    ///
    /// Panics if more than 8 arguments are passed.
    pub fn call(&mut self, func: FuncId, args: &[VReg], dst: Option<VReg>, cont: BbId) {
        assert!(args.len() <= 8, "at most 8 arguments");
        self.terminate(Terminator::Call {
            func,
            args: args.to_vec(),
            dst,
            cont,
        });
    }

    /// Ends the current block with a return.
    pub fn ret(&mut self, value: Option<VReg>) {
        self.terminate(Terminator::Ret(value));
    }

    /// Ends the current block by halting the program.
    pub fn halt(&mut self) {
        self.terminate(Terminator::Halt);
    }

    /// Finalizes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator.
    #[must_use]
    pub fn finish(self) -> Function {
        for (i, t) in self.terminated.iter().enumerate() {
            assert!(*t, "block bb{i} of '{}' has no terminator", self.name);
        }
        Function {
            name: self.name,
            n_params: self.n_params,
            params: self.params,
            link_vreg: self.link_vreg,
            n_vregs: self.next_vreg,
            blocks: self.blocks,
            entry: BbId(0),
        }
    }
}

/// Collects functions into a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    functions: Vec<Function>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves a [`FuncId`] before the function body exists (forward
    /// references for mutual recursion). The slot must be filled with
    /// [`ProgramBuilder::set_function`].
    pub fn declare(&mut self) -> FuncId {
        self.functions.push(Function {
            name: String::new(),
            n_params: 0,
            params: vec![],
            link_vreg: VReg(0),
            n_vregs: 1,
            blocks: vec![BasicBlock {
                ops: vec![],
                term: Terminator::Halt,
            }],
            entry: BbId(0),
        });
        FuncId(self.functions.len() - 1)
    }

    /// Fills a declared slot.
    pub fn set_function(&mut self, id: FuncId, f: Function) {
        self.functions[id.0] = f;
    }

    /// Appends a function, returning its ID.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        self.functions.push(f);
        FuncId(self.functions.len() - 1)
    }

    /// Produces the program with `entry` as the start function.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    #[must_use]
    pub fn finish(self, entry: FuncId) -> Program {
        assert!(entry.0 < self.functions.len(), "entry function missing");
        Program {
            functions: self.functions,
            entry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Function {
        /// Predecessor counts for every block.
        fn pred_counts(&self) -> Vec<usize> {
            let mut counts = vec![0usize; self.blocks.len()];
            for b in &self.blocks {
                for s in b.term.successors() {
                    counts[s.0] += 1;
                }
            }
            counts
        }
    }

    #[test]
    fn straight_line_function() {
        let mut f = FunctionBuilder::new("f", 2);
        let a = f.param(0);
        let b = f.param(1);
        let s = f.bin(Opcode::Add, a, b);
        f.ret(Some(s));
        let func = f.finish();
        assert_eq!(func.blocks.len(), 1);
        assert_eq!(func.blocks[0].ops.len(), 1);
        assert!(matches!(func.blocks[0].term, Terminator::Ret(Some(_))));
    }

    #[test]
    fn loop_shape() {
        let mut f = FunctionBuilder::new("count", 1);
        let n = f.param(0);
        let i = f.c(0);
        let header = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(header);
        f.switch_to(header);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, body, exit);
        f.switch_to(body);
        let one = f.c(1);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(header);
        f.switch_to(exit);
        f.ret(Some(i));
        let func = f.finish();
        assert_eq!(func.blocks.len(), 4);
        assert_eq!(func.pred_counts()[header.0], 2);
    }

    #[test]
    #[should_panic(expected = "no terminator")]
    fn unterminated_block_caught() {
        let mut f = FunctionBuilder::new("bad", 0);
        let _ = f.new_block(); // never terminated, never reached
        f.halt();
        let _ = f.finish();
    }

    #[test]
    #[should_panic(expected = "double terminator")]
    fn double_terminator_caught() {
        let mut f = FunctionBuilder::new("bad", 0);
        f.halt();
        f.halt();
    }

    #[test]
    fn forward_declaration_for_recursion() {
        let mut p = ProgramBuilder::new();
        let id = p.declare();
        let mut f = FunctionBuilder::new("rec", 1);
        let x = f.param(0);
        let cont = f.new_block();
        let out = f.vreg();
        f.call(id, &[x], Some(out), cont);
        f.switch_to(cont);
        f.ret(Some(out));
        p.set_function(id, f.finish());
        let prog = p.finish(id);
        assert_eq!(prog.function(id).name, "rec");
    }
}
