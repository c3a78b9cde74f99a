//! Chaos suite: deterministic fault injection across the distributed
//! protocols must cost cycles, never correctness.
//!
//! Sweeps every fault kind alone and all of them together, at
//! composition sizes 1, 4, and 32, over several workloads. Every
//! injected run must still verify against the interpreter golden and
//! terminate without tripping the watchdog; `FaultPlan::none()` must be
//! bit-identical to the pre-fault-layer simulator.

use clp::core::{
    compile_workload, run_compiled, run_compiled_observed, CompiledWorkload, FaultPlan, ObsOptions,
    ProcessorConfig, ALL_FAULT_KINDS,
};
use clp::obs::{RingRecorder, Tracer};
use clp::sim::{ComposeError, Machine, SimConfig};
use std::sync::{Arc, Mutex};

#[path = "common/pinned.rs"]
mod pinned;

/// The composition sizes the chaos suite sweeps.
const CHAOS_SIZES: [usize; 3] = [1, 4, 32];

fn compiled(name: &str) -> CompiledWorkload {
    let w = clp::workloads::suite::by_name(name).expect("known workload");
    compile_workload(&w).expect("compiles")
}

#[test]
fn each_fault_kind_alone_stays_correct_at_every_size() {
    let workloads = [compiled("conv"), compiled("tblook")];
    for kind in ALL_FAULT_KINDS {
        let mut injected_total = 0;
        for cw in &workloads {
            for (i, &cores) in CHAOS_SIZES.iter().enumerate() {
                let plan = FaultPlan::only(kind, 0xC1A0_5000 + i as u64, 150);
                let cfg = ProcessorConfig::tflex(cores).with_faults(plan);
                // `run_compiled` verifies against the golden internally:
                // Ok means the run terminated and the outputs matched.
                let r = run_compiled(cw, &cfg).unwrap_or_else(|e| {
                    panic!("{} under {kind} on {cores} cores: {e}", cw.workload.name)
                });
                assert_eq!(
                    r.stats.faults.total(),
                    r.stats.faults.count(kind),
                    "only {kind} was enabled"
                );
                injected_total += r.stats.faults.count(kind);
            }
        }
        // Single-core runs keep some kinds silent (no cross-core operand
        // traffic, no hand-offs), but across the sweep each kind fires.
        assert!(injected_total > 0, "{kind} never fired across the sweep");
    }
}

#[test]
fn combined_chaos_still_verifies_and_counts_injections() {
    for name in ["conv", "tblook", "bezier"] {
        let cw = compiled(name);
        for &cores in &CHAOS_SIZES {
            let cfg = ProcessorConfig::tflex(cores).with_faults(FaultPlan::chaos(97, 100));
            let r = run_compiled(&cw, &cfg)
                .unwrap_or_else(|e| panic!("{name} under chaos on {cores} cores: {e}"));
            assert!(
                r.stats.faults.total() > 0,
                "{name} on {cores} cores: chaos plan injected nothing"
            );
            // Injection counts are part of the unified stats registry.
            assert_eq!(
                r.snapshot.expect("faults/total"),
                r.stats.faults.total() as f64
            );
        }
    }
}

#[test]
fn faults_cost_cycles_and_same_seed_reproduces_them() {
    let cw = compiled("conv");
    let clean = run_compiled(&cw, &ProcessorConfig::tflex(4)).expect("runs");

    let cfg = ProcessorConfig::tflex(4).with_faults(FaultPlan::chaos(42, 100));
    let a = run_compiled(&cw, &cfg).expect("runs under chaos");
    let b = run_compiled(&cw, &cfg).expect("runs under chaos");
    assert_eq!(
        a.stats.cycles, b.stats.cycles,
        "same seed + same plan must reproduce the cycle count"
    );
    assert_eq!(a.stats.faults, b.stats.faults);
    assert!(
        a.stats.cycles >= clean.stats.cycles,
        "faults may only add cycles: {} < {}",
        a.stats.cycles,
        clean.stats.cycles
    );

    // A different seed draws a different injection stream.
    let c = run_compiled(
        &cw,
        &ProcessorConfig::tflex(4).with_faults(FaultPlan::chaos(43, 100)),
    )
    .expect("runs under chaos");
    assert!(
        c.stats.cycles != a.stats.cycles || c.stats.faults != a.stats.faults,
        "different seeds should perturb differently"
    );
}

#[test]
fn none_plan_is_bit_identical_to_the_default_config() {
    let cw = compiled("tblook");
    let default_cfg = ProcessorConfig::tflex(4);
    // A none() plan with a nonzero seed: zero rates never draw from the
    // PRNG, so the seed must not matter either.
    let mut none_plan = FaultPlan::none();
    none_plan.seed = 0xDEAD_BEEF;
    let with_none = ProcessorConfig::tflex(4).with_faults(none_plan);

    let a = run_compiled(&cw, &default_cfg).expect("runs");
    let b = run_compiled(&cw, &with_none).expect("runs");
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.faults.total(), 0);
    assert_eq!(b.stats.faults.total(), 0);
}

/// `FaultPlan::none()` runs reproduce the committed fault-free cells
/// bit-for-bit (the pre-fault-layer values, unchanged since).
#[test]
fn fault_free_cycle_counts_match_the_pre_fault_layer_goldens() {
    for (name, cores) in [
        ("conv", 1),
        ("conv", 4),
        ("conv", 32),
        ("tblook", 4),
        ("bezier", 32),
    ] {
        let cw = compiled(name);
        let r = run_compiled(&cw, &ProcessorConfig::tflex(cores)).expect("runs");
        assert_eq!(
            r.stats.cycles,
            pinned::cycles(name, &format!("tflex-{cores}")),
            "{name} on {cores} cores drifted from the pre-fault-layer golden"
        );
    }
    // TRIPS exercises the completion queue under centralized control.
    for name in ["conv", "bezier", "tblook"] {
        let cw = compiled(name);
        let r = run_compiled(&cw, &ProcessorConfig::trips()).expect("runs");
        assert_eq!(
            r.stats.cycles,
            pinned::cycles(name, "trips"),
            "{name} on TRIPS drifted from the pre-fault-layer golden"
        );
    }
}

#[test]
fn injections_appear_in_the_trace_stream() {
    let cw = compiled("conv");
    let rec = Arc::new(Mutex::new(RingRecorder::new(1 << 16)));
    let obs = ObsOptions {
        tracer: Tracer::shared(rec.clone()),
        ..ObsOptions::default()
    };
    let cfg = ProcessorConfig::tflex(4).with_faults(FaultPlan::chaos(11, 100));
    let r = run_compiled_observed(&cw, &cfg, &obs).expect("runs under chaos");
    assert!(r.stats.faults.total() > 0);
    let recorder = rec.lock().expect("not poisoned");
    let fault_events = recorder
        .events()
        .filter(|(_, e)| e.kind() == "fault_injected")
        .count();
    assert!(fault_events > 0, "no fault_injected events in the trace");
}

#[test]
fn compose_rejects_more_than_eight_args() {
    let cw = compiled("conv");
    let mut m = Machine::new(SimConfig::tflex());
    let err = m
        .compose(4, 0, cw.edge.clone(), &[0; 9])
        .expect_err("nine arguments exceed the argument registers");
    assert!(matches!(err, ComposeError::TooManyArgs(9)));
    assert!(err.to_string().contains('8'), "message names the limit");
    // Exactly eight is fine (the core is free again after the error).
    let mut m = Machine::new(SimConfig::tflex());
    m.compose(4, 0, cw.edge.clone(), &[0; 8])
        .expect("eight arguments fit r1..=r8");
}
