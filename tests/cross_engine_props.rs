//! Property-based cross-engine validation: randomly generated structured
//! programs must produce identical results on
//!
//! 1. the reference IR interpreter,
//! 2. the TFlex cycle-level simulator (several composition sizes), and
//! 3. the conventional out-of-order baseline.
//!
//! The program generator lives in `tests/common/mod.rs` (shared with the
//! chaos property suite): every generated program terminates by
//! construction while still exercising hyperblock formation,
//! predication, memory disambiguation, and the distributed protocols.

mod common;

use clp::baseline::{run_baseline, BaselineConfig};
use clp::compiler::{compile, interpret, CompileOptions};
use clp::isa::Reg;
use clp::mem::MemoryImage;
use clp::sim::{Machine, SimConfig};
use common::{arb_stmt, build_workload, ARRAY_BASE, ARRAY_WORDS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_programs_agree_across_engines(
        stmts in prop::collection::vec(arb_stmt(3), 1..8),
        seeds in prop::collection::vec(-50i64..50, 1..4),
        cores in prop::sample::select(vec![1usize, 2, 8, 32]),
    ) {
        let w = build_workload(&stmts, &seeds);

        // Golden: the interpreter.
        let mut gimage = w.initial_image();
        let golden = interpret(&w.program, &w.args, &mut gimage, 50_000_000)
            .expect("generated programs terminate");

        // Engine 2: the TFlex simulator.
        let edge = compile(&w.program, &CompileOptions::default()).expect("compiles");
        let mut cfg = SimConfig::tflex();
        cfg.deadline = 20_000_000;
        let mut m = Machine::new(cfg);
        for (addr, words) in &w.init_mem {
            m.memory_mut().image.load_words(*addr, words);
        }
        let pid = m.compose(cores, 0, edge, &w.args).expect("composes");
        m.run().expect("tflex run completes");
        prop_assert_eq!(Some(m.register(pid, Reg::new(1))), golden.ret,
            "return value differs on {} cores", cores);
        let got = m.memory().image.read_words(ARRAY_BASE, ARRAY_WORDS);
        let want = gimage.read_words(ARRAY_BASE, ARRAY_WORDS);
        prop_assert_eq!(got, want, "memory differs on {} cores", cores);

        // Engine 3: the conventional baseline.
        let b = run_baseline(&w.program, &w.args, &w.init_mem, &BaselineConfig::core2());
        prop_assert_eq!(b.ret, golden.ret, "baseline return value differs");
        let got = b.image.read_words(ARRAY_BASE, ARRAY_WORDS);
        prop_assert_eq!(got, want2(&gimage), "baseline memory differs");
    }
}

fn want2(gimage: &MemoryImage) -> Vec<u64> {
    gimage.read_words(ARRAY_BASE, ARRAY_WORDS)
}
