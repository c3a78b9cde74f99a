//! Tier-1 slice of the engine-equivalence contract: the reference
//! stepper (`ObsOptions::stepped`) and the skip-ahead driver must report
//! the same cycles and byte-identical snapshot / clp-prof / clp-trend
//! JSON. One kernel per workload class at every size up to the full
//! 32-core chip; the full-suite, fault/kill/deadline and
//! generated-program sweeps live in `crates/bench/tests/engine_equiv.rs`.

use clp::core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp::obs::TrendOptions;

#[test]
fn reports_identical_across_engines() {
    for name in ["conv", "mcf", "equake", "a2time", "802.11b"] {
        let w = clp::workloads::suite::by_name(name).expect("exists");
        let cw = compile_workload(&w).expect("compiles");
        let widest = if matches!(name, "mcf" | "802.11b") {
            32
        } else {
            16
        };
        for cores in [1, 2, 4, 8, 16, 32].into_iter().filter(|&c| c <= widest) {
            let [reference, skip] = [true, false].map(|stepped| {
                let obs = ObsOptions {
                    profile: true,
                    trend: Some(TrendOptions::default()),
                    stepped,
                    ..ObsOptions::default()
                };
                run_compiled_observed(&cw, &ProcessorConfig::tflex(cores), &obs)
                    .unwrap_or_else(|e| panic!("{name} x{cores}: {e}"))
            });
            assert!(reference.correct, "{name} x{cores}: wrong output");
            assert_eq!(
                reference.stats.cycles, skip.stats.cycles,
                "{name} x{cores}: cycle count diverged"
            );
            assert_eq!(
                serde_json::to_string(&reference.snapshot).expect("serializes"),
                serde_json::to_string(&skip.snapshot).expect("serializes"),
                "{name} x{cores}: snapshot diverged"
            );
            assert_eq!(
                reference.profile.map(|p| p.to_json_value()),
                skip.profile.map(|p| p.to_json_value()),
                "{name} x{cores}: clp-prof diverged"
            );
            assert_eq!(
                reference.trend.map(|t| t.to_json()),
                skip.trend.map(|t| t.to_json()),
                "{name} x{cores}: clp-trend diverged"
            );
        }
    }
}
