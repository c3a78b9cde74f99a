//! clp-trend acceptance tests: the time-series layer is deterministic
//! (byte-identical `clp-trend-v1` JSON between identical runs), exact
//! (per-interval bucket deltas tile the profiler's run-level totals),
//! pinned (phase goldens for two suite kernels at two composition
//! sizes), complete (its path columns are the series the interval
//! sampler it replaced recorded), and useful (clp-diff on a clean-vs-dram_spike pair names the
//! memory buckets, cores, and links that moved).

mod common;

use clp::core::{
    compile_workload, run_compiled_observed, FaultKind, FaultPlan, ObsOptions, ProcessorConfig,
};
use clp::obs::{diff_documents, Bucket, ColumnKind, TrendOptions, TrendReport};
use clp::workloads::suite;
use proptest::prelude::*;

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
/// is byte-identical between runs — the series is safe to pin as a golden.
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

/// The four series PR 1's interval sampler kept, as stats-registry
/// paths: committed instructions, committed blocks, flushed blocks and
/// operand messages delivered.
const HAND_OVER_PATHS: [&str; 4] = [
    "proc0/insts_committed",
    "proc0/blocks_committed",
    "proc0/blocks_flushed",
    "operand_net/delivered",
];

/// What the interval sampler recorded for one cell at commit 4b1af48,
/// the last that had it (`run_one <name> <cores> --stats-json
/// --sample-every <period>`): its window ends and, per
/// [`HAND_OVER_PATHS`] entry, its per-window counts.
struct HandOver {
    name: &'static str,
    cores: usize,
    period: u64,
    ends: &'static [u64],
    columns: [&'static [u64]; 4],
}

const HAND_OVER: [HandOver; 4] = [
    HandOver {
        name: "conv",
        cores: 4,
        period: 500,
        ends: &[
            500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500, 6000, 6500, 7000,
            7500, 8000, 8500, 9000, 9383,
        ],
        columns: [
            &[
                49, 680, 680, 1020, 680, 680, 850, 850, 680, 680, 680, 680, 1020, 680, 765, 850,
                765, 680, 720,
            ],
            &[
                2, 8, 8, 12, 8, 8, 10, 10, 8, 8, 8, 8, 12, 8, 9, 10, 9, 8, 11,
            ],
            &[5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            &[
                292, 523, 460, 566, 595, 614, 556, 617, 628, 504, 527, 530, 601, 535, 626, 612,
                582, 563, 339,
            ],
        ],
    },
    HandOver {
        name: "gzip",
        cores: 16,
        period: 1000,
        ends: &[
            1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000, 11000, 12000, 13000,
            14000, 15000, 16000, 17000, 18000, 19000, 20000, 21000, 22000, 23000, 24000, 25000,
            26000, 27000, 28000, 29000, 30000, 31000, 32000, 33000, 34000, 35000, 36000, 37000,
            38000, 39000, 40000, 41000, 42000, 43000, 44000, 45000, 46000, 47000, 48000, 49000,
            50000, 51000, 52000, 53000, 54000, 55000, 56000, 57000, 58000, 59000, 60000, 61000,
            62000, 63000, 64000, 65000, 66000, 67000, 68000, 69000, 70000, 71000, 72000, 73000,
            74000, 75000, 76000, 77000, 78000, 79000, 80000, 81000, 82000, 83000, 84000, 85000,
            86000, 87000, 88000, 89000, 90000, 91000, 92000, 93000, 94000, 95000, 95820,
        ],
        columns: [
            &[
                283, 1606, 1563, 2078, 2013, 1270, 1192, 2228, 2104, 2306, 2074, 2383, 2601, 2100,
                2105, 2228, 2227, 2229, 2063, 1853, 2108, 2352, 1855, 940, 1734, 2356, 2183, 2353,
                1682, 1737, 1733, 1237, 2320, 1887, 2600, 2205, 2229, 2498, 2473, 1983, 2105, 2475,
                1945, 1480, 2480, 1607, 2104, 2228, 2596, 1737, 2599, 2349, 1568, 1851, 1946, 2601,
                2058, 1361, 1976, 2104, 2103, 2104, 1733, 2110, 2348, 2573, 1961, 1823, 1855, 1732,
                2100, 2227, 2108, 2303, 2233, 2103, 2473, 1934, 2073, 2228, 2228, 1974, 1739, 2224,
                2104, 2311, 2719, 1857, 2232, 2099, 2105, 1580, 1760, 2190, 1856, 1989,
            ],
            &[
                8, 37, 37, 49, 49, 31, 28, 52, 49, 54, 48, 57, 62, 48, 50, 52, 51, 53, 50, 42, 50,
                55, 42, 21, 41, 57, 52, 56, 37, 42, 40, 28, 53, 44, 62, 51, 53, 58, 58, 46, 50, 57,
                46, 32, 59, 36, 49, 52, 60, 41, 61, 55, 38, 41, 47, 62, 48, 31, 45, 49, 48, 49, 40,
                52, 54, 61, 45, 45, 42, 39, 48, 51, 50, 54, 54, 48, 58, 45, 49, 52, 52, 43, 43, 51,
                49, 56, 63, 43, 53, 47, 50, 35, 41, 52, 43, 50,
            ],
            &[
                43, 54, 47, 17, 45, 44, 57, 27, 27, 32, 17, 18, 15, 31, 17, 31, 27, 29, 46, 26, 29,
                32, 39, 59, 44, 17, 32, 2, 49, 56, 32, 59, 25, 42, 17, 27, 28, 27, 15, 38, 18, 26,
                39, 45, 30, 38, 25, 26, 28, 30, 27, 14, 46, 30, 38, 15, 38, 59, 18, 31, 28, 46, 28,
                29, 24, 17, 39, 38, 53, 39, 27, 27, 42, 18, 26, 36, 17, 37, 33, 18, 27, 53, 33, 24,
                32, 25, 14, 28, 36, 26, 42, 41, 42, 37, 25, 20,
            ],
            &[
                2316, 2638, 2766, 2816, 2729, 2771, 2595, 2735, 2814, 2668, 2818, 2565, 2839, 2811,
                2440, 2733, 2809, 2771, 2672, 2782, 2755, 2739, 2696, 2898, 2705, 2850, 2704, 2538,
                2717, 2826, 2728, 2821, 2767, 2697, 2846, 2766, 2735, 2780, 2890, 2733, 2477, 2749,
                2689, 2787, 2730, 2621, 2817, 2803, 2816, 2739, 2775, 2893, 2709, 2399, 2700, 2870,
                2638, 2840, 2649, 2766, 2706, 2729, 2761, 2742, 2779, 2808, 2577, 2708, 2628, 2711,
                2790, 2689, 2644, 2770, 2765, 2523, 2845, 2627, 2607, 2524, 2720, 2735, 2885, 2692,
                2734, 2696, 2867, 2301, 2626, 2781, 2699, 2667, 2665, 2574, 2664, 1821,
            ],
        ],
    },
    HandOver {
        name: "tblook",
        cores: 1,
        period: 250,
        ends: &[
            250, 500, 750, 1000, 1250, 1500, 1750, 2000, 2250, 2500, 2750, 3000, 3250, 3500, 3750,
            4000, 4250, 4500, 4750, 5000, 5250, 5500, 5750, 6000, 6250, 6500, 6750, 7000, 7250,
            7500, 7750, 8000, 8250, 8500, 8750, 9000, 9250, 9500, 9750, 10000, 10250, 10500, 10750,
            11000, 11250, 11500, 11750, 12000, 12250, 12500, 12750, 13000, 13250, 13500, 13750,
            14000, 14250, 14500, 14750, 15000, 15250, 15500, 15750, 16000, 16250, 16500, 16750,
            17000, 17250, 17500, 17750, 18000, 18250, 18500, 18750, 19000, 19250, 19500, 19750,
            20000, 20250, 20500, 20750, 21000, 21250, 21500, 21750, 22000, 22250, 22500, 22750,
            23000, 23250, 23500, 23750, 24000, 24250, 24500, 24750, 25000, 25250, 25500, 25750,
            26000, 26250, 26500, 26750, 27000, 27250, 27500, 27750, 28000, 28250, 28500, 28750,
            29000, 29250, 29500, 29750, 29754,
        ],
        columns: [
            &[
                3, 8, 0, 61, 21, 0, 21, 21, 21, 18, 8, 82, 42, 150, 150, 171, 42, 129, 63, 171,
                150, 47, 163, 69, 110, 124, 150, 150, 150, 171, 110, 163, 69, 102, 69, 171, 110,
                163, 153, 150, 150, 129, 110, 103, 60, 111, 150, 89, 171, 145, 171, 150, 150, 68,
                145, 26, 171, 145, 129, 150, 89, 171, 145, 150, 47, 145, 26, 171, 145, 150, 129,
                150, 110, 145, 129, 68, 124, 47, 145, 129, 150, 150, 110, 171, 145, 150, 47, 145,
                26, 163, 132, 150, 150, 150, 171, 110, 163, 69, 102, 90, 150, 171, 110, 171, 171,
                163, 153, 26, 163, 69, 110, 171, 171, 163, 153, 150, 150, 118, 3, 1,
            ],
            &[
                1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 6, 6, 7, 2, 5, 3, 7, 6, 3, 6, 2, 6, 4, 6, 6,
                6, 7, 6, 6, 2, 5, 2, 7, 6, 6, 6, 6, 6, 5, 6, 3, 3, 4, 6, 5, 7, 5, 7, 6, 6, 4, 5, 2,
                7, 5, 5, 6, 5, 7, 5, 6, 3, 5, 2, 7, 5, 6, 5, 6, 6, 5, 5, 4, 4, 3, 5, 5, 6, 6, 6, 7,
                5, 6, 3, 5, 2, 6, 5, 6, 6, 6, 7, 6, 6, 2, 5, 3, 6, 7, 6, 7, 7, 6, 6, 2, 6, 2, 6, 7,
                7, 6, 6, 6, 6, 5, 1, 1,
            ],
            &[
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0,
            ],
            &[
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0,
            ],
        ],
    },
    HandOver {
        name: "bezier",
        cores: 32,
        period: 777,
        ends: &[777, 1554, 2331, 3108, 3885, 4662, 5012],
        columns: [
            &[549, 1056, 1056, 1056, 1056, 1056, 572],
            &[10, 16, 16, 16, 16, 16, 11],
            &[13, 0, 0, 0, 0, 0, 26],
            &[1745, 1766, 1775, 1776, 1782, 1772, 451],
        ],
    },
];

/// Nothing was lost when the sampler went: clp-trend's path columns are
/// its series, interval for interval on the same window ends, and each
/// column's deltas sum to the end-of-run total.
#[test]
fn path_columns_equal_the_series_the_interval_sampler_recorded() {
    for cell in &HAND_OVER {
        let tag = format!("{} x{} @{}", cell.name, cell.cores, cell.period);
        let cw = compile_workload(&suite::by_name(cell.name).unwrap()).unwrap();
        let obs = ObsOptions {
            trend: Some(TrendOptions {
                period: cell.period,
                paths: HAND_OVER_PATHS.map(String::from).to_vec(),
            }),
            ..ObsOptions::default()
        };
        let r =
            run_compiled_observed(&cw, &ProcessorConfig::tflex(cell.cores), &obs).expect("runs");
        let report = r.trend.expect("trend present");
        assert_eq!(report.ends, cell.ends, "{tag}: window ends");
        assert_eq!(report.columns.len(), HAND_OVER_PATHS.len());
        for ((col, path), want) in report.columns.iter().zip(HAND_OVER_PATHS).zip(cell.columns) {
            assert_eq!((col.path.as_str(), col.kind), (path, ColumnKind::Count));
            assert_eq!(col.values, want, "{tag}: {path}");
            let total = r.snapshot.expect(path) as u64;
            assert_eq!(col.values.iter().sum::<u64>(), total, "{tag}: {path} tiles");
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
    let sa = serde_json::from_str(&clean.snapshot.to_json()).expect("parses");
    let sb = serde_json::from_str(&spiked.snapshot.to_json()).expect("parses");
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
