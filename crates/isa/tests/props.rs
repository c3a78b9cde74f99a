//! Property-based tests for the EDGE ISA: assembler round-trips and
//! builder-produced block validity.

use clp_isa::{asm, BlockBuilder, BranchKind, Opcode, Reg};
use proptest::prelude::*;

proptest! {
    /// Random straight-line dataflow programs built through the builder
    /// always validate and survive an assembler round-trip.
    #[test]
    fn builder_blocks_roundtrip_through_asm(
        seed_consts in proptest::collection::vec(-100i64..100, 1..4),
        ops in proptest::collection::vec((0usize..6, any::<u16>(), any::<u16>()), 0..40),
        nwrites in 1usize..8,
    ) {
        let mut b = BlockBuilder::new(0x4000);
        let mut vals: Vec<_> = seed_consts.iter().map(|&c| b.movi(c)).collect();
        for (kind, xa, xb) in ops {
            let a = vals[(xa as usize) % vals.len()];
            let c = vals[(xb as usize) % vals.len()];
            let opcode = [Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::And,
                          Opcode::Or, Opcode::Xor][kind];
            if a == c {
                // binary ops allow both operands from one producer
                vals.push(b.op2(opcode, a, c));
            } else {
                vals.push(b.op2(opcode, a, c));
            }
        }
        for w in 0..nwrites {
            let v = vals[w % vals.len()];
            b.write(Reg::new(w), v);
        }
        b.branch(BranchKind::Halt, None, 0);
        if let Ok(block) = b.finish() {
            let text = asm::format_block(&block);
            let parsed = asm::parse_block(&text).expect("formatted block parses");
            prop_assert_eq!(parsed, block);
        }
        // Overflow (>128 instructions) is an acceptable outcome for the
        // largest generated programs; finish() reporting it is correct.
    }

    /// `slice_for_core` partitions a block exactly, for every legal
    /// composition size.
    #[test]
    fn slices_partition_block(n in 0usize..20, log_cores in 0u32..6) {
        let n_cores = 1usize << log_cores;
        let mut b = BlockBuilder::new(0);
        for i in 0..n {
            let v = b.movi(i as i64);
            b.write(Reg::new(i % 32), v);
        }
        b.branch(BranchKind::Halt, None, 0);
        let blk = b.finish().unwrap();
        let mut seen = vec![false; blk.len()];
        for core in 0..n_cores {
            for (i, _) in blk.slice_for_core(core, n_cores) {
                prop_assert!(!seen[i], "instruction {} in two slices", i);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
