//! Chaos property suite: randomly generated structured programs, run
//! under a nonzero fault-injection plan, must still match the reference
//! interpreter's golden result at 1, 2, and 4 cores.
//!
//! This is the adversarial version of `cross_engine_props`: the same
//! generated programs (shared generator in `tests/common/mod.rs`), but
//! with operand-NoC delays, contention bursts, forced LSQ NACKs, flipped
//! predictions, DRAM spikes, and delayed hand-offs all enabled. Faults
//! may only add cycles — never change what the machine computes.

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
    fn random_programs_survive_fault_injection(
        stmts in prop::collection::vec(arb_stmt(3), 1..8),
        seeds in prop::collection::vec(-50i64..50, 1..4),
        fault_seed in 0u64..1024,
    ) {
        let w = build_workload(&stmts, &seeds);

        // Golden: the interpreter (never sees faults).
        let mut gimage = w.initial_image();
        let golden = interpret(&w.program, &w.args, &mut gimage, 50_000_000)
            .expect("generated programs terminate");
        let want = gimage.read_words(ARRAY_BASE, ARRAY_WORDS);

        let edge = compile(&w.program, &CompileOptions::default()).expect("compiles");
        for cores in [1usize, 2, 4] {
            let mut cfg = SimConfig::tflex();
            cfg.deadline = 20_000_000;
            cfg.faults = FaultPlan::chaos(fault_seed, 100);
            let mut m = Machine::new(cfg);
            for (addr, words) in &w.init_mem {
                m.memory_mut().image.load_words(*addr, words);
            }
            let pid = m.compose(cores, 0, edge.clone(), &w.args).expect("composes");
            // The watchdog still guards termination under injection.
            m.run().expect("faulted run completes");
            prop_assert_eq!(Some(m.register(pid, Reg::new(1))), golden.ret,
                "return value differs under faults on {} cores (fault seed {})",
                cores, fault_seed);
            let got = m.memory().image.read_words(ARRAY_BASE, ARRAY_WORDS);
            prop_assert_eq!(&got, &want,
                "memory differs under faults on {} cores (fault seed {})",
                cores, fault_seed);
        }
    }
}
