//! Observed and perturbed 32-core results. The full-chip composition is
//! where mesh traffic and window depth peak. One kernel per workload
//! class runs plain, held to its `goldens/suite_wide.json` cell, then
//! with clp-prof and clp-trend on, twice: observers must not move the
//! cycle count, and a second run must give the same bytes.
//!
//! The perturbed cells pin what the fault-free ones cannot reach: the
//! order the stage loops visit cores and blocks in also orders PRNG
//! draws, NACK retries and what a dying core leaves behind, and a
//! run-twice comparison shares that code with itself, so it does not
//! see it move. Values recorded at commit d7882b0 (the parent of the PR
//! that added them) with `run_one <kernel> <cores> --faults all=25
//! --fault-seed 7` and `run_one <kernel> <cores> --kill-core
//! <core>@<cycle>`, flushes read from `--stats-json`; the single-kind
//! and deadline cells at commit 18c0a69, the last with a second driver
//! to agree with.

use clp::core::{
    compile_workload, run_compiled, run_compiled_observed, FaultKind, FaultPlan, ObsOptions,
    ProcessorConfig, RunFailure,
};
use clp::obs::TrendOptions;
use clp::sim::RunError;

#[path = "common/pinned.rs"]
mod pinned;

#[test]
fn thirty_two_core_cycles_and_results_are_pinned() {
    let obs = ObsOptions {
        profile: true,
        trend: Some(TrendOptions::default()),
        ..ObsOptions::default()
    };
    // One kernel each: hand-optimized, EEMBC, SPEC INT, SPEC FP.
    for name in ["ct", "rspeed", "mcf", "equake"] {
        let cycles = pinned::cycles(name, "tflex-32");
        let ret = pinned::ret(name, "tflex-32");
        let w = clp::workloads::suite::by_name(name).expect("exists");
        let cw = compile_workload(&w).expect("compiles");
        let cfg = ProcessorConfig::tflex(32);
        let r = run_compiled(&cw, &cfg).unwrap_or_else(|e| panic!("{name} x32: {e}"));
        assert_eq!(r.stats.cycles, cycles, "{name} x32: cycle count moved");
        assert_eq!(r.ret, ret, "{name} x32: return value moved");
        let [first, second] = [(); 2].map(|()| {
            let r = run_compiled_observed(&cw, &cfg, &obs)
                .unwrap_or_else(|e| panic!("{name} x32 observed: {e}"));
            assert_eq!(r.stats.cycles, cycles, "{name} x32: observers moved it");
            [
                serde_json::to_string(&r.snapshot).expect("serializes"),
                serde_json::to_string(&r.profile.expect("profiled").to_json_value())
                    .expect("serializes"),
                r.trend.expect("recorded").to_json(),
            ]
        });
        for (what, (a, b)) in ["snapshot", "clp-prof", "clp-trend"]
            .iter()
            .zip(first.iter().zip(&second))
        {
            assert_eq!(a, b, "{name} x32: {what} differs between two runs");
        }
    }
}

#[test]
fn perturbed_sixteen_and_thirty_two_core_cells_are_pinned() {
    // `None` runs under `FaultPlan::chaos(7, 25)`; `Some((core, cycle))`
    // kills a core that holds a ready entry and in-flight completions
    // (and, in the rspeed cells, whose processor has armed dispatch
    // slices) at the start of that cycle.
    for (name, cores, kill, cycles, ret, flushed) in [
        ("rspeed", 16, None, 8_842, 0x5, 123),
        ("rspeed", 32, None, 9_532, 0x5, 81),
        ("bzip2", 16, None, 10_685, 0x5e, 21),
        ("bzip2", 32, None, 14_709, 0x5e, 38),
        ("rspeed", 16, Some((15, 2_046)), 9_746, 0x5, 126),
        ("rspeed", 32, Some((23, 202)), 9_503, 0x5, 199),
        ("bzip2", 16, Some((3, 7_562)), 11_271, 0x5e, 56),
        ("bzip2", 32, Some((3, 6_762)), 15_738, 0x5e, 84),
    ] {
        let plan = match kill {
            None => FaultPlan::chaos(7, 25),
            Some((core, cycle)) => {
                let mut plan = FaultPlan::none();
                plan.add_kill(core, cycle).expect("valid kill");
                plan
            }
        };
        let w = clp::workloads::suite::by_name(name).expect("exists");
        let cw = compile_workload(&w).expect("compiles");
        let cfg = ProcessorConfig::tflex(cores).with_faults(plan);
        let cell = format!("{name} x{cores} kill {kill:?}");
        let r = run_compiled(&cw, &cfg).unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(r.stats.cycles, cycles, "{cell}: cycle count moved");
        assert_eq!(r.ret, ret, "{cell}: return value moved");
        let got: u64 = r.stats.procs.iter().map(|p| p.blocks_flushed).sum();
        assert_eq!(got, flushed, "{cell}: blocks_flushed moved");
    }
}

#[test]
fn single_fault_kinds_and_a_deadline_are_pinned_at_sixteen_cores() {
    let w = clp::workloads::suite::by_name("bzip2").expect("exists");
    let cw = compile_workload(&w).expect("compiles");
    for (kind, cycles, injected) in [
        (FaultKind::NocDelay, 10_846, 2_910),
        (FaultKind::NocBurst, 10_516, 1_544),
        (FaultKind::ForcedNack, 9_960, 67),
        (FaultKind::Mispredict, 11_303, 85),
        (FaultKind::DramSpike, 10_505, 44),
        (FaultKind::HandoffDelay, 9_948, 77),
    ] {
        let cfg = ProcessorConfig::tflex(16).with_faults(FaultPlan::only(kind, 0xE0, 150));
        let cell = format!("bzip2 x16 under {kind}");
        let r = run_compiled(&cw, &cfg).unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(r.stats.cycles, cycles, "{cell}: cycle count moved");
        assert_eq!(r.ret, 0x5e, "{cell}: return value moved");
        let got = r.stats.faults.count(kind);
        assert_eq!(got, injected, "{cell}: injections moved");
    }
    // Half of rspeed x16's clean 8 533 cycles.
    let w = clp::workloads::suite::by_name("rspeed").expect("exists");
    let cw = compile_workload(&w).expect("compiles");
    match run_compiled(&cw, &ProcessorConfig::tflex(16).with_deadline(4_266)) {
        Err(RunFailure::Run(RunError::DeadlineExceeded { budget: 4_266 })) => {}
        other => panic!("rspeed x16: expected a deadline kill at 4266, got {other:?}"),
    }
}
