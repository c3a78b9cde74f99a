//! A [`Run`] put down at a deadline and picked up under a later one
//! returns what [`run_compiled_observed`] returns from cycle 0 under
//! that later deadline — the property clp-serve's continued deadline
//! kills rest on. `crates/sim/tests/machine_api.rs` holds the machine
//! to the same; this file holds the whole tail (reports, verification,
//! power, area) and the rule for which stops hand the run back.

use clp_core::{
    compile_workload, run_compiled_observed, CompiledWorkload, FaultPlan, ObsOptions,
    ProcessorConfig, Run, RunFailure, RunOutcome,
};
use clp_obs::TrendOptions;
use clp_sim::RunError;
use clp_workloads::suite;

/// What two outcomes are compared on: every field, reports as JSON.
fn comparable(r: &RunOutcome) -> impl PartialEq + std::fmt::Debug {
    (
        (r.stats.clone(), r.ret, r.power, r.area_mm2),
        r.snapshot.to_json(),
        r.profile.as_ref().map(|p| p.to_json_value()),
        r.trend.as_ref().map(|t| t.to_json()),
    )
}

/// Every observer on: clp-prof, and clp-trend with path columns, whose
/// per-column last value is state a kill must not lose.
fn observed() -> ObsOptions {
    let paths = [
        "proc0/insts_committed",
        "proc0/blocks_committed",
        "proc0/blocks_flushed",
        "operand_net/delivered",
    ];
    ObsOptions {
        profile: true,
        trend: Some(TrendOptions {
            paths: paths.map(String::from).to_vec(),
            ..TrendOptions::default()
        }),
        ..ObsOptions::default()
    }
}

/// Starts under the ladder's first budget, continues each deadline kill
/// under the next, and compares the outcome with a from-zero run under
/// the budget it finished under. Returns the kills taken.
fn continued_equals_from_zero(
    cw: &CompiledWorkload,
    cfg: &ProcessorConfig,
    obs: &ObsOptions,
    ladder: impl IntoIterator<Item = u64>,
) -> usize {
    let mut ladder = ladder.into_iter();
    let mut budget = ladder.next().expect("a first budget");
    let mut run = Run::start(cw, &cfg.clone().with_deadline(budget), obs).expect("composes");
    let mut kills = 0;
    let continued = loop {
        let from = run.cycle();
        match run.finish(cw) {
            Ok(outcome) => break outcome,
            Err(stopped) => {
                let named = RunError::DeadlineExceeded { budget };
                assert!(
                    matches!(&stopped.failure, RunFailure::Run(e) if *e == named),
                    "{}: {}",
                    cw.workload.name,
                    stopped.failure
                );
                assert_eq!(stopped.cycle, budget.max(from));
                run = stopped.run.expect("a deadline kill hands the run back");
                assert_eq!(run.cycle(), stopped.cycle);
                kills += 1;
                budget = ladder.next().expect("the ladder outlasts the kernel");
                run.set_deadline(budget);
            }
        }
    };
    let from_zero =
        run_compiled_observed(cw, &cfg.clone().with_deadline(budget), obs).expect("runs");
    assert_eq!(
        comparable(&continued),
        comparable(&from_zero),
        "{} on {} cores after {kills} kills",
        cw.workload.name,
        cfg.cores()
    );
    kills
}

fn doubling(first: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(first), |b| Some(b * 2))
}

#[test]
fn a_continued_run_returns_the_from_zero_outcome() {
    // A debug build runs two of the kernels; `--release` runs all seven.
    let kernels: &[&str] = if cfg!(debug_assertions) {
        &["conv", "bezier"]
    } else {
        &["conv", "bezier", "autocor", "tblook", "gzip", "swim", "mcf"]
    };
    for &name in kernels {
        let cw = compile_workload(&suite::by_name(name).expect("suite kernel")).expect("compiles");
        for cores in [1, 4, 16] {
            let cfg = ProcessorConfig::tflex(cores);
            let plain = ObsOptions::default();
            let kills = continued_equals_from_zero(&cw, &cfg, &plain, doubling(2_500));
            assert!(kills >= 1, "{name} on {cores} never met a deadline");
            // An odd ladder that steps back once (a budget at or before
            // the cycle reached kills again at once), observers on.
            let odd = [777, 4_001, 3_000, u64::MAX];
            let kills = continued_equals_from_zero(&cw, &cfg, &observed(), odd);
            assert!(kills >= 1, "{name} on {cores} never met a deadline");
        }
    }
}

#[test]
fn a_run_continued_under_its_fault_plan_returns_the_from_zero_outcome() {
    let mut faults = FaultPlan::chaos(11, 40);
    faults.add_kill(3, 2_000).expect("valid kill");
    let cfg = ProcessorConfig::tflex(8).with_faults(faults);
    for name in ["conv", "tblook"] {
        let cw = compile_workload(&suite::by_name(name).expect("suite kernel")).expect("compiles");
        let kills = continued_equals_from_zero(&cw, &cfg, &observed(), (1..).map(|k| 700 * k));
        assert!(kills >= 3, "{name}: cut before and after the kill");
    }
}

#[test]
fn only_a_deadline_kill_hands_the_run_back() {
    let cw = compile_workload(&suite::by_name("conv").expect("suite kernel")).expect("compiles");
    let obs = ObsOptions::default();
    // A kill schedule with no survivor is refused before cycle 0.
    let mut doomed = FaultPlan::none();
    doomed.add_kill(0, 800).expect("valid kill");
    let cfg = ProcessorConfig::tflex(1).with_faults(doomed);
    let stopped = Run::start(&cw, &cfg, &obs)
        .expect("composes")
        .finish(&cw)
        .expect_err("refused");
    assert!(matches!(
        stopped.failure,
        RunFailure::Run(RunError::NoSurvivors { .. })
    ));
    assert_eq!(stopped.cycle, 0);
    assert!(stopped.run.is_none());
}

#[test]
fn a_run_can_cross_threads() {
    fn is_send<T: Send>() {}
    is_send::<Run>();
}
