//! Guards the cost of the observability hooks.
//!
//! Three properties: (1) attaching the trace recorder or the profiler
//! must not perturb the simulated machine — cycle counts are
//! bit-identical with either on or off; (2) the clp-prof layer's
//! recording and backward walk stay within about twice their measured
//! wall-clock factor over the bare run (the tier-1 guard beside
//! `clp-hostbench`'s `obs.profile_overhead_x`); (3) the clp-trend
//! recorder is equally free — cycle counts with trend recording on stay
//! bit-identical to the pinned goldens *and* to the committed
//! `BENCH_baseline.json` cells, and its wall-clock cost stays within
//! noise of the profiler-on run. That the disabled tracer builds no
//! event is `crates/obs/tests/null_alloc.rs`.

use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_obs::{RingRecorder, Tracer, TrendOptions};
use std::time::Instant;

#[path = "../../../tests/common/pinned.rs"]
mod pinned;

fn run_with(obs: &ObsOptions) -> u64 {
    let w = clp_workloads::suite::by_name("conv").expect("exists");
    let cw = compile_workload(&w).expect("compiles");
    let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(8), obs).expect("runs");
    r.cycles()
}

#[test]
fn tracing_never_perturbs_the_simulation() {
    let off = run_with(&ObsOptions::default());
    let ring = run_with(&ObsOptions {
        tracer: Tracer::new(RingRecorder::new(4096)),
        ..ObsOptions::default()
    });
    let profiled = run_with(&ObsOptions {
        profile: true,
        ..ObsOptions::default()
    });
    assert_eq!(
        off, ring,
        "the trace recorder changed the simulated cycle count"
    );
    assert_eq!(off, profiled, "clp-prof changed the simulated cycle count");
}

#[test]
fn profiler_overhead_bounded() {
    let w = clp_workloads::suite::by_name("conv").expect("exists");
    let cw = compile_workload(&w).expect("compiles");
    let cfg = ProcessorConfig::tflex(8);
    let off_obs = ObsOptions::default();
    let prof_obs = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };

    let time = |obs: &ObsOptions| {
        let _ = run_compiled_observed(&cw, &cfg, obs).expect("runs");
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let _ = run_compiled_observed(&cw, &cfg, obs).expect("runs");
                t.elapsed()
            })
            .min()
            .expect("nonempty")
    };

    let off = time(&off_obs);
    let prof = time(&prof_obs);
    // The recording is O(1) per event and the walk is O(chain) per
    // committed block: over 20 runs of this test (release, 2-CPU Xeon
    // host, 3.1–5.7 ms bare) the best-of-3 ratio had a median of 1.05x
    // and a worst of 1.09x. The cap is about twice the worst, so it only
    // trips on a hot-path mistake — e.g. cloning a block profile or
    // walking per cycle.
    let cap = off.as_secs_f64() * 2.2;
    assert!(
        prof.as_secs_f64() < cap,
        "clp-prof run too slow: {prof:?} vs bare {off:?}"
    );
}

fn trend_cycles(name: &str, cores: usize) -> u64 {
    let w = clp_workloads::suite::by_name(name).expect("exists");
    let cw = compile_workload(&w).expect("compiles");
    let obs = ObsOptions {
        trend: Some(TrendOptions::default()),
        ..ObsOptions::default()
    };
    let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(cores), &obs).expect("runs");
    r.cycles()
}

/// Trend recording is pure observation: with the recorder (and the
/// profiler it pulls in) attached, cycle counts stay bit-identical to
/// the committed cells that gate the fig5/TRIPS numbers.
#[test]
fn trend_never_perturbs_pinned_goldens() {
    for (name, cores) in [("conv", 4), ("conv", 32), ("bezier", 32)] {
        assert_eq!(
            trend_cycles(name, cores),
            pinned::cycles(name, &format!("tflex-{cores}")),
            "{name} x{cores}: trend recording perturbed the cycle count"
        );
    }
}

/// The same bit-identity against the committed `BENCH_baseline.json`
/// cells of a representative workload subset: the perf baseline and the
/// trend layer agree on the machine they measure.
#[test]
fn trend_cycles_match_the_bench_baseline() {
    for name in ["conv", "tblook", "bezier"] {
        for cores in [1, 4, 16] {
            assert_eq!(
                trend_cycles(name, cores),
                pinned::cycles(name, &format!("tflex-{cores}")),
                "{name} x{cores}: trend-on run diverged from BENCH_baseline.json"
            );
        }
    }
}

/// The trend recorder's marginal wall-clock cost over a profiler-on run
/// is one compare per cycle plus a columnar push per interval —
/// measured under 5%. The 1.5x cap (plus a 5 ms floor for fast runs)
/// only trips on a hot-path mistake, e.g. sampling the stats registry
/// every cycle instead of every interval.
#[test]
fn trend_overhead_bounded() {
    let w = clp_workloads::suite::by_name("conv").expect("exists");
    let cw = compile_workload(&w).expect("compiles");
    let cfg = ProcessorConfig::tflex(8);
    let prof_obs = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    let trend_obs = ObsOptions {
        trend: Some(TrendOptions::default()),
        ..ObsOptions::default()
    };

    let time = |obs: &ObsOptions| {
        let _ = run_compiled_observed(&cw, &cfg, obs).expect("runs");
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let _ = run_compiled_observed(&cw, &cfg, obs).expect("runs");
                t.elapsed()
            })
            .min()
            .expect("nonempty")
    };

    let prof = time(&prof_obs);
    let trend = time(&trend_obs);
    let cap = prof.as_secs_f64() * 1.5 + 0.005;
    assert!(
        trend.as_secs_f64() < cap,
        "clp-trend run too slow: {trend:?} vs profiler-on {prof:?}"
    );
}
