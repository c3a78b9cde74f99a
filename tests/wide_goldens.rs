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
//! see it move. Their cycles, flushes and injections are the
//! `wide_perturbed` and `wide_single_kind` sections of
//! `goldens/cells.json`, written by `regenerate_wide_cells`; their
//! return values are the fault-free cells' in `goldens/suite_wide.json`.

use clp::core::{
    compile_workload, run_compiled, run_compiled_observed, FaultKind, FaultPlan, ObsOptions,
    ProcessorConfig, RunFailure,
};
use clp::obs::TrendOptions;
use clp::sim::RunError;
use serde_json::{json, Value};

#[path = "common/golden.rs"]
mod golden;
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

/// The core a perturbed cell kills and the cycle it dies at, if any.
type Kill = Option<(usize, u64)>;

/// The perturbed cells: `None` runs under `FaultPlan::chaos(7, 25)`;
/// `Some((core, cycle))` kills a core that holds a ready entry and
/// in-flight completions (and, in the rspeed cells, whose processor has
/// armed dispatch slices) at the start of that cycle.
const PERTURBED: [(&str, usize, Kill); 8] = [
    ("rspeed", 16, None),
    ("rspeed", 32, None),
    ("bzip2", 16, None),
    ("bzip2", 32, None),
    ("rspeed", 16, Some((15, 2_046))),
    ("rspeed", 32, Some((23, 202))),
    ("bzip2", 16, Some((3, 7_562))),
    ("bzip2", 32, Some((3, 6_762))),
];

/// Runs every [`PERTURBED`] cell: each one's return value, and the
/// `wide_perturbed` section of `goldens/cells.json` — per cell, its
/// cycles and flushed blocks.
fn perturbed_cells() -> (Vec<u64>, Value) {
    let mut rets = Vec::new();
    let mut cells = Vec::new();
    for (name, cores, kill) in PERTURBED {
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
        let cell = match kill {
            None => format!("{name} x{cores} chaos"),
            Some((core, cycle)) => format!("{name} x{cores} kill {core}@{cycle}"),
        };
        let r = run_compiled(&cw, &cfg).unwrap_or_else(|e| panic!("{cell}: {e}"));
        let flushed: u64 = r.stats.procs.iter().map(|p| p.blocks_flushed).sum();
        rets.push(r.ret);
        cells.push((
            cell,
            json!({"cycles": (r.stats.cycles), "flushed": flushed}),
        ));
    }
    (rets, Value::Object(cells))
}

#[test]
fn perturbed_sixteen_and_thirty_two_core_cells_are_pinned() {
    let (rets, cells) = perturbed_cells();
    for ((name, cores, kill), ret) in PERTURBED.into_iter().zip(rets) {
        let want = pinned::ret(name, "tflex-32");
        assert_eq!(
            ret, want,
            "{name} x{cores} kill {kill:?}: return value moved"
        );
    }
    golden::assert_cells("wide_perturbed", &cells);
}

/// The fault kinds run alone on bzip2 at 16 cores.
const SINGLE_KINDS: [FaultKind; 6] = [
    FaultKind::NocDelay,
    FaultKind::NocBurst,
    FaultKind::ForcedNack,
    FaultKind::Mispredict,
    FaultKind::DramSpike,
    FaultKind::HandoffDelay,
];

/// Runs bzip2 at 16 cores under each of [`SINGLE_KINDS`] alone: each
/// run's return value, and the `wide_single_kind` section of
/// `goldens/cells.json` — per kind, the cycles and injections.
fn single_kind_cells() -> (Vec<u64>, Value) {
    let w = clp::workloads::suite::by_name("bzip2").expect("exists");
    let cw = compile_workload(&w).expect("compiles");
    let mut rets = Vec::new();
    let mut cells = Vec::new();
    for kind in SINGLE_KINDS {
        let cfg = ProcessorConfig::tflex(16).with_faults(FaultPlan::only(kind, 0xE0, 150));
        let r = run_compiled(&cw, &cfg).unwrap_or_else(|e| panic!("bzip2 x16 under {kind}: {e}"));
        let injected = r.stats.faults.count(kind);
        rets.push(r.ret);
        let cell = json!({"cycles": (r.stats.cycles), "injected": injected});
        cells.push((kind.to_string(), cell));
    }
    (rets, Value::Object(cells))
}

#[test]
fn single_fault_kinds_and_a_deadline_are_pinned_at_sixteen_cores() {
    let (rets, cells) = single_kind_cells();
    for (kind, ret) in SINGLE_KINDS.into_iter().zip(rets) {
        let want = pinned::ret("bzip2", "tflex-32");
        assert_eq!(ret, want, "bzip2 x16 under {kind}: return value moved");
    }
    golden::assert_cells("wide_single_kind", &cells);
    // Half of rspeed x16's clean cycles.
    let budget = pinned::cycles("rspeed", "tflex-16") / 2;
    let w = clp::workloads::suite::by_name("rspeed").expect("exists");
    let cw = compile_workload(&w).expect("compiles");
    match run_compiled(&cw, &ProcessorConfig::tflex(16).with_deadline(budget)) {
        Err(RunFailure::Run(RunError::DeadlineExceeded { budget: b })) if b == budget => {}
        other => panic!("rspeed x16: expected a deadline kill at {budget}, got {other:?}"),
    }
}

/// Not a check: rewrites this file's sections of `goldens/cells.json`.
#[test]
#[ignore = "rewrites goldens/; run `cargo test -q --release -- --ignored regenerate`"]
fn regenerate_wide_cells() {
    golden::write_cells(vec![
        ("wide_perturbed", perturbed_cells().1),
        ("wide_single_kind", single_kind_cells().1),
    ]);
}
