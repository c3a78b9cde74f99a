//! A reference interpreter for the IR.
//!
//! Used to produce golden outputs for every workload: the TFlex
//! simulator must agree with this interpreter on final memory contents
//! and return values. The conventional baseline does not re-execute the
//! IR: it times this interpreter's run through [`interpret_with`].

use crate::ir::{BbId, FuncId, Op, OpKind, Program, Terminator, VReg};
use clp_isa::value;
use clp_mem::MemoryImage;
use std::fmt;

/// Failure during interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The dynamic operation budget was exhausted (probable infinite loop).
    StepLimit(u64),
    /// The call stack exceeded a sanity bound.
    StackOverflow(usize),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimit(n) => write!(f, "exceeded {n} dynamic operations"),
            InterpError::StackOverflow(n) => write!(f, "call depth exceeded {n}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Dynamic execution statistics gathered by the interpreter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// IR operations evaluated (including predicated-off ones).
    pub ops: u64,
    /// Operations whose guard fired.
    pub fired_ops: u64,
    /// Basic blocks entered.
    pub blocks: u64,
    /// Loads performed.
    pub loads: u64,
    /// Stores performed.
    pub stores: u64,
    /// Two-way branches executed.
    pub branches: u64,
    /// Calls executed.
    pub calls: u64,
}

/// Result of a successful interpretation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterpResult {
    /// The entry function's return value, if any.
    pub ret: Option<u64>,
    /// Dynamic statistics.
    pub stats: InterpStats,
}

/// One step of a run, as [`interpret_with`] reports it.
#[derive(Clone, Copy, Debug)]
pub enum Step<'p> {
    /// An operation, after it evaluated: whether its guard fired and,
    /// for a fired load or store, its effective address.
    Op {
        /// The operation.
        op: &'p Op,
        /// Whether the guard held (an op with no guard always fires).
        fired: bool,
        /// A fired load's or store's effective address.
        addr: Option<u64>,
    },
    /// A block's terminator, before control moves.
    Term {
        /// The function being executed.
        func: FuncId,
        /// The block the terminator ends.
        bb: BbId,
        /// The terminator.
        term: &'p Terminator,
        /// A branch's outcome (`false` for every other terminator).
        taken: bool,
    },
}

const MAX_CALL_DEPTH: usize = 4096;

struct Frame {
    func: FuncId,
    bb: BbId,
    regs: Vec<u64>,
    ret_dst: Option<VReg>,
    ret_bb: BbId,
}

/// Interprets `program` starting at its entry function with `args`,
/// reading and writing `image`.
///
/// # Errors
///
/// Returns [`InterpError::StepLimit`] after `max_ops` dynamic operations
/// or [`InterpError::StackOverflow`] past 4096 nested calls.
pub fn interpret(
    program: &Program,
    args: &[u64],
    image: &mut MemoryImage,
    max_ops: u64,
) -> Result<InterpResult, InterpError> {
    interpret_with(program, args, image, max_ops, |_| {})
}

/// [`interpret`], reporting every [`Step`] to `on_step` in execution
/// order. The callback observes the run and cannot change it.
///
/// # Errors
///
/// As [`interpret`].
pub fn interpret_with<'p>(
    program: &'p Program,
    args: &[u64],
    image: &mut MemoryImage,
    max_ops: u64,
    mut on_step: impl FnMut(Step<'p>),
) -> Result<InterpResult, InterpError> {
    let mut stats = InterpStats::default();
    let mut stack: Vec<Frame> = Vec::new();

    let new_frame = |func_id: FuncId, args: &[u64]| -> Frame {
        let f = program.function(func_id);
        let mut regs = vec![0u64; f.n_vregs as usize];
        for (i, &a) in args.iter().enumerate().take(f.n_params) {
            regs[f.params[i].0 as usize] = a;
        }
        Frame {
            func: func_id,
            bb: f.entry,
            regs,
            ret_dst: None,
            ret_bb: f.entry,
        }
    };

    let mut frame = new_frame(program.entry, args);
    loop {
        let func = program.function(frame.func);
        let block = func.block(frame.bb);
        stats.blocks += 1;

        for op in &block.ops {
            stats.ops += 1;
            if stats.ops > max_ops {
                return Err(InterpError::StepLimit(max_ops));
            }
            let fired = op
                .pred
                .iter()
                .all(|&(v, sense)| (frame.regs[v.0 as usize] != 0) == sense);
            if !fired {
                on_step(Step::Op {
                    op,
                    fired,
                    addr: None,
                });
                continue;
            }
            stats.fired_ops += 1;
            let mut ea = None;
            match op.kind {
                OpKind::Const { dst, value } => frame.regs[dst.0 as usize] = value as u64,
                OpKind::ConstF { dst, value } => frame.regs[dst.0 as usize] = value.to_bits(),
                OpKind::Un { dst, op, a } => {
                    frame.regs[dst.0 as usize] = value::eval(op, 0, frame.regs[a.0 as usize], 0);
                }
                OpKind::Bin { dst, op, a, b } => {
                    frame.regs[dst.0 as usize] =
                        value::eval(op, 0, frame.regs[a.0 as usize], frame.regs[b.0 as usize]);
                }
                OpKind::Load {
                    dst,
                    addr,
                    offset,
                    size,
                } => {
                    stats.loads += 1;
                    let a = frame.regs[addr.0 as usize].wrapping_add(offset as u64);
                    frame.regs[dst.0 as usize] = image.read(a, size.bytes());
                    ea = Some(a);
                }
                OpKind::Store {
                    addr,
                    offset,
                    value,
                    size,
                } => {
                    stats.stores += 1;
                    let a = frame.regs[addr.0 as usize].wrapping_add(offset as u64);
                    image.write(a, size.bytes(), frame.regs[value.0 as usize]);
                    ea = Some(a);
                }
            }
            on_step(Step::Op {
                op,
                fired,
                addr: ea,
            });
        }

        let taken = match block.term {
            Terminator::Branch { cond, .. } => frame.regs[cond.0 as usize] != 0,
            _ => false,
        };
        on_step(Step::Term {
            func: frame.func,
            bb: frame.bb,
            term: &block.term,
            taken,
        });
        match &block.term {
            Terminator::Jump(b) => frame.bb = *b,
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                stats.branches += 1;
                frame.bb = if taken { *then_bb } else { *else_bb };
            }
            Terminator::Call {
                func: callee,
                args,
                dst,
                cont,
            } => {
                stats.calls += 1;
                if stack.len() >= MAX_CALL_DEPTH {
                    return Err(InterpError::StackOverflow(MAX_CALL_DEPTH));
                }
                let arg_vals: Vec<u64> = args.iter().map(|v| frame.regs[v.0 as usize]).collect();
                let mut callee_frame = new_frame(*callee, &arg_vals);
                callee_frame.ret_dst = *dst;
                callee_frame.ret_bb = *cont;
                stack.push(std::mem::replace(&mut frame, callee_frame));
            }
            Terminator::Ret(v) => {
                let rv = v.map(|v| frame.regs[v.0 as usize]);
                match stack.pop() {
                    Some(mut caller) => {
                        if let (Some(dst), Some(val)) = (frame.ret_dst, rv) {
                            caller.regs[dst.0 as usize] = val;
                        }
                        caller.bb = frame.ret_bb;
                        frame = caller;
                    }
                    None => {
                        return Ok(InterpResult { ret: rv, stats });
                    }
                }
            }
            Terminator::Halt => {
                return Ok(InterpResult { ret: None, stats });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use clp_isa::Opcode;

    fn run(p: &Program, args: &[u64]) -> InterpResult {
        let mut image = MemoryImage::new();
        interpret(p, args, &mut image, 1_000_000).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let mut f = FunctionBuilder::new("axpb", 3);
        let (a, x, b) = (f.param(0), f.param(1), f.param(2));
        let ax = f.bin(Opcode::Mul, a, x);
        let y = f.bin(Opcode::Add, ax, b);
        f.ret(Some(y));
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        let p = pb.finish(id);
        assert_eq!(run(&p, &[3, 4, 5]).ret, Some(17));
    }

    #[test]
    fn loop_sums_array() {
        let mut f = FunctionBuilder::new("sum", 2);
        let base = f.param(0);
        let n = f.param(1);
        let i = f.c(0);
        let acc = f.c(0);
        let (h, body, exit) = (f.new_block(), f.new_block(), f.new_block());
        f.jump(h);
        f.switch_to(h);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, body, exit);
        f.switch_to(body);
        let eight = f.c(8);
        let off = f.bin(Opcode::Mul, i, eight);
        let addr = f.bin(Opcode::Add, base, off);
        let v = f.load(addr, 0);
        f.bin_into(acc, Opcode::Add, acc, v);
        let one = f.c(1);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(h);
        f.switch_to(exit);
        f.ret(Some(acc));
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        let p = pb.finish(id);

        let mut image = MemoryImage::new();
        image.load_words(0x1000, &[10, 20, 30, 40]);
        let r = interpret(&p, &[0x1000, 4], &mut image, 100_000).unwrap();
        assert_eq!(r.ret, Some(100));
        assert_eq!(r.stats.loads, 4);
        assert!(r.stats.branches >= 5);
    }

    #[test]
    fn recursion_factorial() {
        let mut pb = ProgramBuilder::new();
        let fact = pb.declare();
        let mut f = FunctionBuilder::new("fact", 1);
        let nv = f.param(0);
        let one = f.c(1);
        let is_base = f.bin(Opcode::Tle, nv, one);
        let (base_bb, rec_bb, cont) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(is_base, base_bb, rec_bb);
        f.switch_to(base_bb);
        f.ret(Some(one));
        f.switch_to(rec_bb);
        let nm1 = f.bin(Opcode::Sub, nv, one);
        let sub = f.vreg();
        f.call(fact, &[nm1], Some(sub), cont);
        f.switch_to(cont);
        let r = f.bin(Opcode::Mul, nv, sub);
        f.ret(Some(r));
        pb.set_function(fact, f.finish());
        let p = pb.finish(fact);
        assert_eq!(run(&p, &[6]).ret, Some(720));
        assert_eq!(run(&p, &[1]).ret, Some(1));
    }

    #[test]
    fn predicated_op_keeps_old_value() {
        use crate::ir::{Op, OpKind};
        let mut f = FunctionBuilder::new("sel", 1);
        let cond = f.param(0);
        let x = f.c(10);
        f.ret(Some(x));
        let mut func = f.finish();
        // Insert a predicated overwrite between the const and the ret.
        func.blocks[0].ops.push(Op {
            pred: vec![(cond, true)],
            kind: OpKind::Const { dst: x, value: 77 },
        });
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(func);
        let p = pb.finish(id);
        assert_eq!(run(&p, &[1]).ret, Some(77));
        assert_eq!(run(&p, &[0]).ret, Some(10), "guard off keeps old value");
    }

    #[test]
    fn step_limit_detects_infinite_loop() {
        let mut f = FunctionBuilder::new("spin", 0);
        let h = f.new_block();
        f.jump(h);
        f.switch_to(h);
        let _ = f.c(0);
        f.jump(h);
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        let p = pb.finish(id);
        let mut image = MemoryImage::new();
        assert_eq!(
            interpret(&p, &[], &mut image, 100),
            Err(InterpError::StepLimit(100))
        );
    }

    #[test]
    fn halt_terminates_without_value() {
        let mut f = FunctionBuilder::new("h", 0);
        f.halt();
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        let p = pb.finish(id);
        assert_eq!(run(&p, &[]).ret, None);
    }
}
