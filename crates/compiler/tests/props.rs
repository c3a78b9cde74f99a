//! Property tests for the compiler passes: placement is a semantics-
//! preserving permutation, liveness is sound, hyperblock formation
//! preserves interpreter results, and compilation is deterministic.

use clp_compiler::hyperblock::{form_hyperblocks, FormerOptions};
use clp_compiler::{
    compile, interpret, liveness, placement, CompileOptions, FunctionBuilder, ProgramBuilder,
};
use clp_isa::{BlockBuilder, BranchKind, Opcode, Reg};
use clp_mem::MemoryImage;
use proptest::prelude::*;

/// Builds a random dataflow block from a straight-line recipe.
fn build_block(ops: &[(u8, u8, u8)], nwrites: usize) -> Vec<clp_isa::Instruction> {
    let mut b = BlockBuilder::new(0);
    let mut vals = vec![b.movi(1), b.movi(2)];
    for &(k, xa, xb) in ops {
        let a = vals[xa as usize % vals.len()];
        let c = vals[xb as usize % vals.len()];
        let op = [Opcode::Add, Opcode::Sub, Opcode::Xor, Opcode::And][k as usize % 4];
        vals.push(b.op2(op, a, c));
    }
    for w in 0..nwrites.max(1) {
        let v = vals[w % vals.len()];
        b.write(Reg::new(w), v);
    }
    b.branch(BranchKind::Halt, None, 0);
    b.into_instructions()
}

/// The dataflow graph as a canonical set of (producer-op, consumer-op,
/// slot) edges, identified by opcode+imm multiset structure. Placement
/// must preserve this graph up to renumbering.
fn edge_fingerprint(insts: &[clp_isa::Instruction]) -> Vec<(String, String, u8)> {
    let label = |i: usize| format!("{:?}#{}", insts[i].opcode, insts[i].imm);
    let mut edges: Vec<(String, String, u8)> = insts
        .iter()
        .enumerate()
        .flat_map(|(i, inst)| {
            inst.targets()
                .map(move |t| (label(i), label(t.inst.index()), t.operand.encode()))
                .collect::<Vec<_>>()
        })
        .collect();
    edges.sort();
    edges
}

proptest! {
    /// Placement permutes instructions without changing the dataflow
    /// graph, and the result still validates as a block.
    #[test]
    fn placement_preserves_dataflow(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
        nwrites in 1usize..6,
        log_cores in 0u32..6,
    ) {
        let insts = build_block(&ops, nwrites);
        let before = edge_fingerprint(&insts);
        let placed = placement::schedule(insts, 1 << log_cores);
        let after = edge_fingerprint(&placed);
        prop_assert_eq!(before, after, "dataflow graph changed");
        clp_isa::Block::from_instructions(0, placed).expect("still a valid block");
    }

    /// Liveness soundness: every register READ the generated code
    /// performs names a register that liveness declared live-in for that
    /// block... approximated end-to-end: compiling with hyperblocks ON
    /// and OFF gives interpreter-identical programs.
    #[test]
    fn formation_preserves_semantics(
        seed in 0u64..500,
        trips in 1u64..12,
    ) {
        // A small loop with a data-dependent branch inside.
        let mut f = FunctionBuilder::new("p", 2);
        let s0 = f.param(0);
        let n = f.param(1);
        let acc = f.c(0);
        let i = f.c(0);
        let (h, body, odd, even, tail, exit) = (
            f.new_block(), f.new_block(), f.new_block(),
            f.new_block(), f.new_block(), f.new_block(),
        );
        f.jump(h);
        f.switch_to(h);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, body, exit);
        f.switch_to(body);
        let mixed = f.bin(Opcode::Xor, acc, s0);
        let one = f.c(1);
        let bit = f.bin(Opcode::And, mixed, one);
        f.branch(bit, odd, even);
        f.switch_to(odd);
        let three = f.c(3);
        f.bin_into(acc, Opcode::Mul, mixed, three);
        f.jump(tail);
        f.switch_to(even);
        let five = f.c(5);
        f.bin_into(acc, Opcode::Add, mixed, five);
        f.jump(tail);
        f.switch_to(tail);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(h);
        f.switch_to(exit);
        f.ret(Some(acc));
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        let program = pb.finish(id);

        let mut img = MemoryImage::new();
        let golden = interpret(&program, &[seed, trips], &mut img, 1_000_000)
            .expect("terminates");

        for cap in [140, 0] {
            let mut opts = CompileOptions::default();
            opts.former.max_edge_size = cap;
            let edge = compile(&program, &opts).expect("compiles");
            // Execute through the cycle simulator at 1 core (cheap) to
            // check functional equality.
            let mut cfg = clp_sim::SimConfig::tflex();
            cfg.deadline = 5_000_000;
            let mut m = clp_sim::Machine::new(cfg);
            let pid = m.compose(1, 0, edge, &[seed, trips]).expect("composes");
            m.run().expect("runs");
            prop_assert_eq!(
                Some(m.register(pid, Reg::new(1))),
                golden.ret,
                "former cap {} diverged", cap
            );
        }
    }

    /// Compilation is deterministic: same program, same binary.
    #[test]
    fn compilation_is_deterministic(n in 1i64..50) {
        let mut f = FunctionBuilder::new("d", 1);
        let x = f.param(0);
        let k = f.c(n);
        let y = f.bin(Opcode::Mul, x, k);
        f.ret(Some(y));
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        let program = pb.finish(id);
        let a = compile(&program, &CompileOptions::default()).expect("compiles");
        let b = compile(&program, &CompileOptions::default()).expect("compiles");
        prop_assert_eq!(a, b);
    }

    /// The former never duplicates or loses IR operations: total op count
    /// across surviving hyperblocks equals the function's op count.
    #[test]
    fn formation_conserves_ops(arms in 1usize..5) {
        let mut f = FunctionBuilder::new("c", 1);
        let x = f.param(0);
        let mut join_blocks = Vec::new();
        for _ in 0..arms {
            let (t, e, j) = (f.new_block(), f.new_block(), f.new_block());
            let one = f.c(1);
            let c = f.bin(Opcode::And, x, one);
            f.branch(c, t, e);
            f.switch_to(t);
            let _ = f.bin(Opcode::Add, x, x);
            f.jump(j);
            f.switch_to(e);
            let _ = f.bin(Opcode::Mul, x, x);
            f.jump(j);
            f.switch_to(j);
            join_blocks.push(j);
        }
        f.ret(Some(x));
        let func = f.finish();
        let total: usize = func.blocks.iter().map(|b| b.ops.len()).sum();
        let hir = form_hyperblocks(&func, &FormerOptions::default());
        let hir_total: usize = hir
            .blocks
            .iter()
            .flatten()
            .map(|b| b.ops.len())
            .sum();
        prop_assert_eq!(total, hir_total);
        // Liveness is computable on the same function (smoke).
        let lv = liveness::liveness(&func);
        prop_assert_eq!(lv.live_in.len(), func.blocks.len());
    }
}
