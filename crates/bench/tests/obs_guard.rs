//! Guards the cost of the observability hooks.
//!
//! Four properties: (1) attaching any sink must not perturb the
//! simulated machine — cycle counts are bit-identical with tracing on,
//! off, or null; (2) a `NullSink` run's wall-clock throughput stays
//! within noise of a tracer-off run (the hooks are one branch, not a
//! call); (3) the clp-prof layer's recording and backward walk stay
//! within about twice their measured wall-clock factor over the bare run
//! (the tier-1 guard beside `clp-hostbench`'s `obs.profile_overhead_x`);
//! (4) the clp-trend recorder is equally free — cycle counts with trend
//! recording on stay bit-identical to the pinned goldens *and* to the
//! committed `BENCH_baseline.json` cells, and its wall-clock cost stays
//! within noise of the profiler-on run.

use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_obs::{NullSink, RingRecorder, Tracer, TrendOptions};
use std::time::{Duration, Instant};

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
    let null = run_with(&ObsOptions {
        tracer: Tracer::new(NullSink),
        ..ObsOptions::default()
    });
    let ring = run_with(&ObsOptions {
        tracer: Tracer::new(RingRecorder::new(4096)),
        ..ObsOptions::default()
    });
    let profiled = run_with(&ObsOptions {
        profile: true,
        ..ObsOptions::default()
    });
    assert_eq!(off, null, "NullSink changed the simulated cycle count");
    assert_eq!(
        off, ring,
        "recording sink changed the simulated cycle count"
    );
    assert_eq!(off, profiled, "clp-prof changed the simulated cycle count");
}

#[test]
fn null_sink_throughput_within_noise_of_off() {
    let w = clp_workloads::suite::by_name("conv").expect("exists");
    let cw = compile_workload(&w).expect("compiles");
    let cfg = ProcessorConfig::tflex(8);
    let off_obs = ObsOptions::default();
    let null_obs = ObsOptions {
        tracer: Tracer::new(NullSink),
        ..ObsOptions::default()
    };

    let time = |obs: &ObsOptions| {
        let t = Instant::now();
        let _ = run_compiled_observed(&cw, &cfg, obs).expect("runs");
        t.elapsed()
    };

    // Warm-up, then the two sides interleaved, best of 7 each: a burst
    // of scheduler noise lands on both sides instead of one.
    time(&off_obs);
    time(&null_obs);
    let (mut off, mut null) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        off = off.min(time(&off_obs));
        null = null.min(time(&null_obs));
    }
    // Generous noise bound: the hooks add one branch per site, which is
    // well under measurement jitter; 1.5x catches a real regression
    // (e.g. events constructed on the disabled path) without flaking.
    let ratio = null.as_secs_f64() / off.as_secs_f64();
    assert!(
        ratio < 1.5,
        "NullSink run {ratio:.2}x slower than tracer-off ({null:?} vs {off:?})"
    );
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
