//! Recovery property suite: randomly generated structured programs,
//! with cores hard-killed at random points mid-run, must still match
//! the reference interpreter's golden result — and the same kill
//! schedule must reproduce the same cycle count.
//!
//! This is the hard-fault sibling of `chaos_props`: the same generated
//! programs (shared generator in `tests/common/mod.rs`), but instead of
//! transient perturbations, cores permanently die and the composition
//! recomposes around them (including to non-power-of-two sizes).

mod common;

use clp::compiler::{compile, interpret, CompileOptions};
use clp::isa::Reg;
use clp::sim::{FaultPlan, Machine, SimConfig};
use common::{arb_stmt, build_workload, ARRAY_BASE, ARRAY_WORDS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_programs_survive_random_kills(
        stmts in prop::collection::vec(arb_stmt(3), 1..8),
        seeds in prop::collection::vec(-50i64..50, 1..4),
        kill_seed in 0u64..1024,
        n_kills in 1usize..3,
    ) {
        let w = build_workload(&stmts, &seeds);

        // Golden: the interpreter (never sees faults).
        let mut gimage = w.initial_image();
        let golden = interpret(&w.program, &w.args, &mut gimage, 50_000_000)
            .expect("generated programs terminate");
        let want = gimage.read_words(ARRAY_BASE, ARRAY_WORDS);

        let edge = compile(&w.program, &CompileOptions::default()).expect("compiles");
        for cores in [4usize, 8] {
            // A clean run first: execution before a kill lands is
            // bit-identical to it, so scheduling kills inside the first
            // half of the clean run guarantees they actually fire.
            let clean_cycles = {
                let mut m = Machine::new(SimConfig::tflex());
                for (addr, words) in &w.init_mem {
                    m.memory_mut().image.load_words(*addr, words);
                }
                m.compose(cores, 0, edge.clone(), &w.args).expect("composes");
                m.run().expect("clean run completes");
                m.cycle()
            };
            // Kill targets must be participants: mesh regions are not
            // identity-numbered, so resolve the composition's core set
            // the same way the machine does.
            let region: Vec<usize> = clp::noc::region_for(&SimConfig::tflex().operand_net, cores, 0)
                .expect("region exists")
                .iter()
                .map(|n| n.0)
                .collect();
            // Deterministic per (seed, composition): the kill schedule is
            // drawn from the plan's forked PRNG, not wall-clock anything.
            let mut plan = FaultPlan::none();
            plan.seed = kill_seed;
            let window_hi = (clean_cycles / 2).max(2);
            plan.add_random_kills(&region, n_kills, 1, window_hi).expect("schedule fits");
            let mut cfg = SimConfig::tflex();
            cfg.deadline = 20_000_000;
            cfg.faults = plan;

            let mut cycles = [0u64; 2];
            for (attempt, slot) in cycles.iter_mut().enumerate() {
                let mut m = Machine::new(cfg);
                for (addr, words) in &w.init_mem {
                    m.memory_mut().image.load_words(*addr, words);
                }
                let pid = m.compose(cores, 0, edge.clone(), &w.args).expect("composes");
                // The global watchdog still guards termination: a hung
                // recovery would surface as a Deadlock error here.
                let stats = m.run().expect("killed run completes");
                *slot = m.cycle();
                prop_assert!(stats.recovery.cores_killed >= 1,
                    "kill inside the clean run's first half must fire on {} cores", cores);
                prop_assert_eq!(Some(m.register(pid, Reg::new(1))), golden.ret,
                    "return value differs after kills on {} cores (kill seed {}, attempt {})",
                    cores, kill_seed, attempt);
                let got = m.memory().image.read_words(ARRAY_BASE, ARRAY_WORDS);
                prop_assert_eq!(&got, &want,
                    "memory differs after kills on {} cores (kill seed {})",
                    cores, kill_seed);
            }
            prop_assert_eq!(cycles[0], cycles[1],
                "same kill schedule must reproduce the same cycle count on {} cores",
                cores);
        }
    }
}
