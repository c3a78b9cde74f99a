//! clp-trend acceptance tests: the time-series layer is deterministic
//! (byte-identical `clp-trend-v1` JSON between identical runs), exact
//! (per-interval bucket deltas tile the profiler's run-level totals),
//! pinned (phase goldens for two suite kernels at two composition
//! sizes), and useful (clp-diff on a clean-vs-dram_spike pair names the
//! memory buckets, cores, and links that moved).

mod common;

use clp::core::{
    compile_workload, run_compiled_observed, FaultKind, FaultPlan, ObsOptions, ProcessorConfig,
};
use clp::obs::{diff_documents, Bucket, TrendOptions, TrendReport};
use clp::workloads::suite;
use proptest::prelude::*;
use serde::Value;

fn trended(name: &str, cfg: &ProcessorConfig) -> (u64, TrendReport) {
    let cw = compile_workload(&suite::by_name(name).unwrap()).unwrap();
    let obs = ObsOptions {
        trend: Some(TrendOptions::default()),
        ..ObsOptions::default()
    };
    let r = run_compiled_observed(&cw, cfg, &obs).expect("runs");
    (r.stats.cycles, r.trend.expect("trend present"))
}

/// Same workload, same configuration: the full `clp-trend-v1` document
/// is byte-identical between runs — the series is safe to pin in CI.
#[test]
fn trend_json_is_byte_identical_between_runs() {
    let (c1, r1) = trended("conv", &ProcessorConfig::tflex(8));
    let (c2, r2) = trended("conv", &ProcessorConfig::tflex(8));
    assert_eq!(c1, c2, "cycles drifted between runs");
    assert_eq!(r1.to_json(), r2.to_json(), "series drifted between runs");
}

/// Phase-table goldens: interval boundaries, change-point scores, and
/// dominant buckets for two suite kernels at two composition sizes.
/// These pin the integer change-point detector end to end; a modeling
/// change that legitimately moves them must re-pin.
#[test]
fn phase_goldens_hold_for_suite_kernels() {
    // (workload, cores, cycles, intervals,
    //  phases as (start_interval, end_interval, score, dominant)).
    struct Golden {
        name: &'static str,
        cores: usize,
        cycles: u64,
        intervals: usize,
        phases: &'static [(usize, usize, u64, Bucket)],
    }
    let goldens = [
        Golden {
            name: "conv",
            cores: 4,
            cycles: 9_383,
            intervals: 10,
            phases: &[(0, 8, 0, Bucket::Commit), (9, 9, 708, Bucket::Commit)],
        },
        Golden {
            name: "conv",
            cores: 16,
            cycles: 5_668,
            intervals: 6,
            phases: &[(0, 5, 0, Bucket::Commit)],
        },
        Golden {
            name: "tblook",
            cores: 4,
            cycles: 19_286,
            intervals: 20,
            phases: &[(0, 17, 0, Bucket::Commit), (18, 19, 552, Bucket::Commit)],
        },
        Golden {
            name: "tblook",
            cores: 16,
            cycles: 23_261,
            intervals: 24,
            phases: &[
                (0, 14, 0, Bucket::Commit),
                (15, 22, 169, Bucket::Commit),
                (23, 23, 160, Bucket::Commit),
            ],
        },
    ];
    for g in goldens {
        let (cycles, report) = trended(g.name, &ProcessorConfig::tflex(g.cores));
        let tag = format!("{} x{}", g.name, g.cores);
        assert_eq!(cycles, g.cycles, "{tag}: cycle golden drifted");
        assert_eq!(
            report.ends.len(),
            g.intervals,
            "{tag}: interval count drifted"
        );
        let got: Vec<(usize, usize, u64, Bucket)> = report
            .phases
            .iter()
            .map(|p| (p.start_interval, p.end_interval, p.score, p.dominant))
            .collect();
        assert_eq!(got, g.phases, "{tag}: phase table drifted");
    }
}

/// The interval deltas reconstruct the profiler's totals exactly: each
/// bucket column sums to the run-level bucket, interval ends are
/// strictly increasing, and the last end is the elapsed cycle count.
fn check_tiling(report: &TrendReport, cycles: u64, run_buckets: &clp::obs::BucketCycles) {
    assert_eq!(report.cycles, cycles);
    assert!(!report.ends.is_empty(), "run produced no intervals");
    for w in report.ends.windows(2) {
        assert!(w[0] < w[1], "interval ends not strictly increasing");
    }
    assert_eq!(
        *report.ends.last().unwrap(),
        cycles,
        "last interval does not end at the elapsed cycle"
    );
    for (i, col) in report.buckets.iter().enumerate() {
        assert_eq!(col.len(), report.ends.len(), "ragged bucket column {i}");
        let col_sum: u64 = col.iter().sum();
        assert_eq!(
            col_sum,
            run_buckets.0[i],
            "bucket column {} does not tile the run total",
            Bucket::ALL[i].label()
        );
    }
}

/// Tiling holds across the suite and composition sizes.
#[test]
fn interval_deltas_tile_the_run_totals() {
    for name in ["conv", "tblook", "bezier"] {
        for n in [1usize, 4, 16] {
            let cw = compile_workload(&suite::by_name(name).unwrap()).unwrap();
            let obs = ObsOptions {
                trend: Some(TrendOptions::default()),
                ..ObsOptions::default()
            };
            let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(n), &obs).expect("runs");
            let report = r.trend.expect("trend present");
            let profile = r.profile.expect("trend implies profiling");
            check_tiling(&report, r.stats.cycles, &profile.run_buckets());
        }
    }
}

/// clp-diff on a clean run against a dram_spike-faulted run names the
/// memory-system movement (mem_wait grows) and the affected cores and
/// links — the acceptance scenario for attribution.
#[test]
fn diff_attributes_a_dram_spike_to_memory_buckets_cores_and_links() {
    let cw = compile_workload(&suite::by_name("conv").unwrap()).unwrap();
    let obs = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    let clean = run_compiled_observed(&cw, &ProcessorConfig::tflex(8), &obs).expect("clean runs");
    let plan = FaultPlan::only(FaultKind::DramSpike, 1, 200);
    let spiked = run_compiled_observed(&cw, &ProcessorConfig::tflex(8).with_faults(plan), &obs)
        .expect("faulted run completes");
    assert!(
        spiked.stats.cycles > clean.stats.cycles,
        "the spike must cost cycles for the diff to attribute"
    );

    let before = clean.profile.expect("profiled").to_json_value();
    let after = spiked.profile.expect("profiled").to_json_value();
    let report = diff_documents(&before, &after);
    let elapsed = report
        .section("metrics")
        .iter()
        .find(|e| e.label == "elapsed");
    let elapsed = elapsed.expect("the run's cycles moved");
    assert_eq!(
        (elapsed.before, elapsed.after),
        (
            Some(clean.stats.cycles.into()),
            Some(spiked.stats.cycles.into())
        )
    );

    // The memory system must be named: mem_wait grew.
    let mem_wait = report
        .section("buckets")
        .iter()
        .find(|e| e.label == "procs[0]/run_buckets/mem_wait")
        .expect("mem_wait appears in the bucket attribution");
    assert!(
        mem_wait.delta() > 0,
        "dram spike must grow mem_wait, got {:+}",
        mem_wait.delta()
    );
    // And the delta localizes: specific cores and NoC links moved.
    assert!(
        !report.section("cores").is_empty(),
        "no per-core attribution"
    );
    assert!(
        !report.section("links").is_empty(),
        "no per-link attribution"
    );
    let text = report.render(10);
    assert!(text.contains("mem_wait"));
    assert!(text.contains("cores["));
    assert!(text.contains("links[from="));

    // The snapshot-level diff names the same movement from the stats
    // registry alone (the `clp-diff` path for `--stats-json` files).
    let sa = serde_json::from_str::<Value>(&clean.snapshot.to_json()).expect("parses");
    let sb = serde_json::from_str::<Value>(&spiked.snapshot.to_json()).expect("parses");
    let snap_report = diff_documents(&sa, &sb);
    let snap_mem = snap_report
        .section("buckets")
        .iter()
        .find(|e| {
            e.label
                .ends_with("children[name=buckets]/metrics[name=mem_wait]/value/Count")
        })
        .expect("snapshot diff carries the bucket section");
    assert!(snap_mem.delta() > 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Tiling holds for arbitrary generated programs and periods, not
    /// just the hand-written suite at the default period.
    #[test]
    fn interval_deltas_tile_on_generated_programs(
        stmts in prop::collection::vec(common::arb_stmt(2), 1..6),
        seeds in prop::collection::vec(-50i64..50, 1..4),
        period in prop_oneof![Just(64u64), Just(250), Just(1000)],
    ) {
        let w = common::build_workload(&stmts, &seeds);
        let cw = compile_workload(&w).unwrap();
        let obs = ObsOptions {
            trend: Some(TrendOptions { period, ..TrendOptions::default() }),
            ..ObsOptions::default()
        };
        let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(4), &obs).expect("runs");
        let report = r.trend.expect("trend present");
        let profile = r.profile.expect("trend implies profiling");
        prop_assert_eq!(report.cycles, r.stats.cycles);
        for w in report.ends.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert_eq!(*report.ends.last().unwrap(), r.stats.cycles);
        let totals = profile.run_buckets();
        for (i, col) in report.buckets.iter().enumerate() {
            let col_sum: u64 = col.iter().sum();
            prop_assert_eq!(col_sum, totals.0[i]);
        }
    }
}
