//! clp-bound soundness: the static cycle bounds claim to be *provable
//! lower bounds* on what the simulator measures, so on randomly
//! generated programs the program-level bound must never exceed the
//! measured cycle count, and no per-block bound may exceed the
//! shortest fetch-to-commit span the profiler records for that block —
//! at every composition size.
//!
//! The generator (see `tests/common/mod.rs`) covers predicated
//! hyperblocks, multi-exit blocks, loops, and memory traffic, so the
//! bound analyzer's predicate-path enumeration, commit-gating closure,
//! and interval bounds are all exercised against the real machine.
//!
//! Degenerate shapes additionally pin the bound to its closed form:
//! a lone-branch block costs exactly 1 cycle, and a pure dependence
//! chain of k unit-latency instructions into a register write costs
//! exactly 2(k+1) cycles (each operand edge is one execute plus one
//! delivery cycle on a single core).

mod common;

use clp::core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp::isa::asm::parse_program;
use clp::lint::{bound_block, bound_program, LintConfig};
use common::{arb_stmt, build_workload};
use proptest::prelude::*;

const SIZES: [usize; 3] = [1, 4, 16];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    #[test]
    fn bounds_never_exceed_measured(
        stmts in prop::collection::vec(arb_stmt(3), 1..8),
        seeds in prop::collection::vec(-50i64..50, 1..4),
    ) {
        let w = build_workload(&stmts, &seeds);
        let cw = compile_workload(&w).expect("generated programs compile");
        let cfg = LintConfig::default();
        for cores in SIZES {
            let pb = bound_program(&cw.edge, &cfg, cores);
            let obs = ObsOptions {
                profile: true,
                ..ObsOptions::default()
            };
            let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(cores), &obs)
                .expect("generated programs run");
            prop_assert!(
                pb.cycles <= r.stats.cycles,
                "program bound {} > measured {} at {cores} cores",
                pb.cycles,
                r.stats.cycles
            );
            let spans = r.profile.expect("profiling enabled").block_spans();
            for bb in &pb.blocks {
                if let Some(s) = spans.get(&bb.addr) {
                    prop_assert!(
                        bb.cycles <= s.min_cycles,
                        "block @{:#x} bound {} ({}) > measured min span {} at {cores} cores",
                        bb.addr,
                        bb.cycles,
                        bb.binding.label(),
                        s.min_cycles
                    );
                }
            }
        }
    }
}

#[test]
fn lone_branch_block_bound_is_one() {
    let p = parse_program(
        "entry @0x1000
         block @0x1000 {
           i0: bro halt e0
         }",
    )
    .expect("valid program");
    let cfg = LintConfig::default();
    for cores in SIZES {
        let b = p.block(0x1000).expect("block exists");
        assert_eq!(bound_block(b, cores).cycles, 1, "at {cores} cores");
        assert_eq!(bound_program(&p, &cfg, cores).cycles, 1, "at {cores} cores");
    }
}

#[test]
fn pure_chain_bound_matches_closed_form() {
    // movi -> k movs -> write, all on one core: the write's value
    // arrives after k+1 operand edges, each costing one execute cycle
    // plus one delivery cycle, so the height (and the bound — the
    // chain dominates issue and dispatch) is exactly 2(k+1).
    for k in [1usize, 4, 11] {
        let mut src = String::from("entry @0x1000\nblock @0x1000 {\n");
        src.push_str("  i0: movi #7 -> i1.L\n");
        for i in 1..=k {
            src.push_str(&format!("  i{}: mov -> i{}.L\n", i, i + 1));
        }
        src.push_str(&format!("  i{}: write r1\n", k + 1));
        src.push_str(&format!("  i{}: bro halt e0\n", k + 2));
        src.push_str("}\n");
        let p = parse_program(&src).expect("valid program");
        let b = p.block(0x1000).expect("block exists");
        let bb = bound_block(b, 1);
        assert_eq!(bb.cycles, 2 * (k as u64 + 1), "chain of {k} movs");
        assert_eq!(bb.binding.label(), "height");
        assert_eq!(bb.height, bb.flat_height, "no hops on one core");
    }
}
