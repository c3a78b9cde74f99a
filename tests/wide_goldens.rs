//! Pinned 32-core results. `BENCH_baseline.json` and the engine
//! equivalence suites stop at 16 cores, yet the full-chip composition is
//! where mesh traffic and window depth peak; these cells make tier-1
//! notice a drift there. One kernel per workload class, values recorded
//! at commit 768ff12 (the parent of the PR that introduced this file)
//! with `run_one <kernel> 32`.

use clp::core::{compile_workload, run_compiled, ProcessorConfig};

#[test]
fn thirty_two_core_cycles_and_results_are_pinned() {
    for (name, cycles, ret) in [
        ("ct", 14_287, 0x1c76_9d7d), // hand-optimized
        ("rspeed", 9_518, 0x5),      // EEMBC
        ("mcf", 59_257, 0x9_3a63),   // SPEC INT
        ("equake", 36_432, 0x0),     // SPEC FP
    ] {
        let w = clp::workloads::suite::by_name(name).expect("exists");
        let cw = compile_workload(&w).expect("compiles");
        let r = run_compiled(&cw, &ProcessorConfig::tflex(32))
            .unwrap_or_else(|e| panic!("{name} x32: {e}"));
        assert!(r.correct, "{name} x32: wrong output");
        assert_eq!(r.stats.cycles, cycles, "{name} x32: cycle count moved");
        assert_eq!(r.ret, ret, "{name} x32: return value moved");
    }
}
