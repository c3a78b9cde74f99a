//! Hard-fault recovery suite: killing cores mid-run must degrade the
//! composition, never the answer.
//!
//! Every killed run must still verify bit-identical against the
//! interpreter golden, report its recovery through the unified stats
//! registry, and reproduce exactly under the same kill schedule.
//! Kill-free plans stay bit-identical to the pre-recovery simulator.

use clp::core::{
    compile_workload, run_compiled, run_compiled_observed, CompiledWorkload, FaultPlan, ObsOptions,
    ProcessorConfig, RunFailure,
};
use clp::obs::{RingRecorder, Tracer};
use clp::sim::{FaultPlanError, RunError, MAX_KILLS};
use serde_json::{json, Value};
use std::sync::{Arc, Mutex};

#[path = "common/golden.rs"]
mod golden;

fn compiled(name: &str) -> CompiledWorkload {
    let w = clp::workloads::suite::by_name(name).expect("known workload");
    compile_workload(&w).expect("compiles")
}

fn killed(cores: usize, kills: &[(usize, u64)]) -> ProcessorConfig {
    let mut plan = FaultPlan::none();
    for &(core, cycle) in kills {
        plan.add_kill(core, cycle).expect("valid kill");
    }
    ProcessorConfig::tflex(cores).with_faults(plan)
}

#[test]
fn mid_run_kill_on_8_cores_recovers_and_verifies() {
    let cw = compiled("conv");
    let clean = run_compiled(&cw, &ProcessorConfig::tflex(8)).expect("clean run");
    let kill_at = clean.stats.cycles / 2;
    let r = run_compiled(&cw, &killed(8, &[(3, kill_at)])).expect("recovers");

    let rec = r.stats.recovery;
    assert_eq!(rec.cores_killed, 1);
    assert_eq!(rec.recoveries, 1);
    assert!(rec.probes >= 1, "detection goes through the watchdog");
    assert!(rec.detection_cycles > 0, "detection is never instantaneous");
    assert!(rec.flushed_blocks >= 1, "in-flight work was discarded");
    assert!(rec.migrated_regs > 0, "the dead core owned register banks");
    assert!(rec.degraded_cycles > 0, "the run continued on 7 cores");
    assert!(
        r.stats.cycles > clean.stats.cycles,
        "losing a core mid-run must cost cycles"
    );

    // The recovery counters are part of the unified stats registry.
    assert_eq!(
        r.snapshot.expect("recovery/recoveries"),
        rec.recoveries as f64
    );
    assert_eq!(
        r.snapshot.expect("recovery/cores_killed"),
        rec.cores_killed as f64
    );
    assert!(r.snapshot.expect("recovery/mean_detection_latency") > 0.0);
}

#[test]
fn same_kill_schedule_reproduces_bit_identically() {
    let cw = compiled("tblook");
    let cfg = killed(8, &[(5, 4_000)]);
    let a = run_compiled(&cw, &cfg).expect("first run");
    let b = run_compiled(&cw, &cfg).expect("second run");
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.recovery, b.stats.recovery);
    assert_eq!(a.ret, b.ret);
}

#[test]
fn recovery_to_a_non_power_of_two_composition() {
    // 16 cores minus one leaves 15 survivors: every interleaving hash
    // (register banks, D-banks/LSQ, block owner, instruction slots) must
    // work modulo a non-power-of-two core count.
    let cw = compiled("conv");
    let r = run_compiled(&cw, &killed(16, &[(9, 2_000)])).expect("recovers to 15 cores");
    assert_eq!(r.stats.recovery.cores_killed, 1);
    assert!(r.stats.recovery.recoveries >= 1);
}

#[test]
fn multiple_kills_degrade_stepwise() {
    // 8 -> 6 cores across two separate kill events.
    let cw = compiled("bezier");
    let r = run_compiled(&cw, &killed(8, &[(1, 1_000), (6, 2_500)])).expect("recovers twice");
    assert_eq!(r.stats.recovery.cores_killed, 2);
    assert!(r.stats.recovery.recoveries >= 1);
}

#[test]
fn two_core_composition_degrades_to_one() {
    let cw = compiled("tblook");
    let r = run_compiled(&cw, &killed(2, &[(1, 3_000)])).expect("finishes on one core");
    assert_eq!(r.stats.recovery.cores_killed, 1);
}

#[test]
fn kill_outside_the_composition_is_a_typed_run_error() {
    let cw = compiled("conv");
    // Core 12 exists on the chip but is not part of a 4-core composition.
    let err = run_compiled(&cw, &killed(4, &[(12, 1_000)])).expect_err("must be rejected");
    match err {
        RunFailure::Run(RunError::InvalidKill { core }) => assert_eq!(core, 12),
        other => panic!("expected InvalidKill, got {other}"),
    }
}

#[test]
fn kill_schedules_leaving_no_survivor_are_rejected() {
    let cw = compiled("conv");
    let err = run_compiled(&cw, &killed(2, &[(0, 1_000), (1, 2_000)]))
        .expect_err("a composition must keep one survivor");
    match err {
        RunFailure::Run(RunError::NoSurvivors { proc }) => assert_eq!(proc, 0),
        other => panic!("expected NoSurvivors, got {other}"),
    }
}

#[test]
fn plan_builder_rejects_malformed_kills() {
    let mut plan = FaultPlan::none();
    assert_eq!(
        plan.add_kill(3, 0),
        Err(FaultPlanError::KillCycleZero { core: 3 })
    );
    plan.add_kill(3, 100).expect("valid");
    assert_eq!(
        plan.add_kill(3, 200),
        Err(FaultPlanError::DuplicateKillTarget { core: 3 })
    );
    for core in 4..(3 + MAX_KILLS) {
        plan.add_kill(core, 100 * core as u64).expect("fits");
    }
    assert_eq!(
        plan.add_kill(30, 400),
        Err(FaultPlanError::TooManyKills { max: MAX_KILLS })
    );
}

#[test]
fn kill_free_plans_stay_bit_identical() {
    // The entire recovery layer (watchdog, guards, clamps) must be
    // invisible when no kill is scheduled: same cycle counts as the
    // plain default config, zero recovery activity.
    let cw = compiled("conv");
    let a = run_compiled(&cw, &ProcessorConfig::tflex(8)).expect("runs");
    let b = run_compiled(
        &cw,
        &ProcessorConfig::tflex(8).with_faults(FaultPlan::none()),
    )
    .expect("runs");
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(b.stats.recovery.cores_killed, 0);
    assert_eq!(b.stats.recovery.recoveries, 0);
    assert_eq!(b.stats.recovery.probes, 0);
}

/// The kill schedules whose detection latency is pinned: (workload,
/// cores, victim, kill cycle).
const DETECTION: [(&str, usize, usize, u64); 3] = [
    ("conv", 8, 3, 4_000),
    ("tblook", 8, 5, 4_000),
    ("conv", 16, 9, 2_000),
];

/// Runs every [`DETECTION`] schedule: the `detection` section of
/// `goldens/cells.json` — per schedule, the cycles from kill to
/// declaration and the recoveries.
fn detection_cells() -> Value {
    let cells = DETECTION.map(|(name, cores, victim, at)| {
        let cw = compiled(name);
        let r = run_compiled(&cw, &killed(cores, &[(victim, at)])).expect("recovers");
        let rec = r.stats.recovery;
        let cell = json!({
            "detection_cycles": (rec.detection_cycles),
            "recoveries": (rec.recoveries)
        });
        (format!("{name} x{cores} kill {victim}@{at}"), cell)
    });
    Value::Object(cells.to_vec())
}

/// Detection-latency goldens: for pinned kill schedules the watchdog's
/// behaviour is fully deterministic, so the latency from kill to
/// declaration is an exact number. Drift here means the detection
/// protocol changed.
#[test]
fn detection_latency_matches_the_goldens() {
    golden::assert_cells("detection", &detection_cells());
}

/// Not a check: rewrites this file's section of `goldens/cells.json`.
#[test]
#[ignore = "rewrites goldens/; run `cargo test -q --release -- --ignored regenerate`"]
fn regenerate_detection_cells() {
    golden::write_cells(vec![("detection", detection_cells())]);
}

#[test]
fn recovery_lifecycle_appears_in_the_trace_stream() {
    let cw = compiled("conv");
    let rec = Arc::new(Mutex::new(RingRecorder::new(1 << 16)));
    let obs = ObsOptions {
        tracer: Tracer::shared(rec.clone()),
        ..ObsOptions::default()
    };
    run_compiled_observed(&cw, &killed(8, &[(3, 4_000)]), &obs).expect("recovers");
    let recorder = rec.lock().expect("not poisoned");
    let kinds: Vec<&str> = recorder.events().map(|(_, e)| e.kind()).collect();
    for want in ["core_killed", "core_declared_dead", "recovery_completed"] {
        assert!(kinds.contains(&want), "missing {want} in the trace stream");
    }
}
