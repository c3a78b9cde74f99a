//! Workspace integration test: every workload in the suite runs
//! correctly (verified against the reference interpreter) on the
//! 32-core TFlex composition, on the TRIPS baseline configuration, and
//! on the conventional out-of-order reference. The 1- to 16-core TFlex
//! cells are not repeated here: `tests/goldens.rs` runs, verifies and
//! cycle-pins every one of them against `BENCH_baseline.json`.

use clp::baseline::{run_baseline, BaselineConfig};
use clp::core::{compile_workload, run_compiled, ProcessorConfig};
use clp::workloads::suite;
use clp_bench::par_suite;

#[test]
fn every_workload_correct_on_tflex_32() {
    par_suite(&suite::all(), |w| {
        let cw = compile_workload(w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let r = run_compiled(&cw, &ProcessorConfig::tflex(32))
            .unwrap_or_else(|e| panic!("{} on 32 cores: {e}", w.name));
        assert!(r.correct, "{} on 32 cores", w.name);
        assert!(r.stats.cycles > 0);
    });
}

#[test]
fn every_workload_correct_on_trips() {
    for w in suite::all() {
        let cw = compile_workload(&w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let r = run_compiled(&cw, &ProcessorConfig::trips())
            .unwrap_or_else(|e| panic!("{} on TRIPS: {e}", w.name));
        assert!(r.correct, "{} on TRIPS", w.name);
    }
}

#[test]
fn every_workload_correct_on_the_ooo_baseline() {
    for w in suite::all() {
        let golden = w.golden();
        let r = run_baseline(&w.program, &w.args, &w.init_mem, &BaselineConfig::core2());
        if w.check.check_ret {
            assert_eq!(r.ret, golden.ret, "{} return value", w.name);
        }
        for &(base, len) in &w.check.regions {
            for k in 0..len {
                let a = base + 8 * k as u64;
                assert_eq!(
                    r.image.read_u64(a),
                    golden.image.read_u64(a),
                    "{} mem[{a:#x}]",
                    w.name
                );
            }
        }
        assert!(r.cycles > 100, "{} suspiciously fast", w.name);
    }
}
