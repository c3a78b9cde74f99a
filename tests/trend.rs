//! clp-trend acceptance tests: the time-series layer is deterministic
//! (byte-identical `clp-trend-v1` JSON between identical runs), exact
//! (per-interval bucket deltas tile the profiler's run-level totals),
//! pinned (phase goldens for two suite kernels at 4 cores, in
//! `goldens/cells.json`), complete (its path columns are the series the
//! interval sampler it replaced recorded), and useful (clp-diff on a
//! clean-vs-dram_spike pair names the memory buckets, cores, and links
//! that moved).

mod common;
#[path = "common/golden.rs"]
mod golden;
#[path = "common/pinned.rs"]
mod pinned;

use clp::core::{
    compile_workload, run_compiled_observed, FaultKind, FaultPlan, ObsOptions, ProcessorConfig,
};
use clp::obs::{diff_documents, Bucket, ColumnKind, TrendOptions, TrendReport};
use clp::workloads::suite;
use proptest::prelude::*;
use serde_json::{json, Value};

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

/// The cells [`phase_goldens_hold_for_suite_kernels`] pins. (Their 16-core
/// phase tables are in `goldens/trend_suite.txt`.)
const PHASE_CELLS: [(&str, usize); 2] = [("conv", 4), ("tblook", 4)];

/// Runs every [`PHASE_CELLS`] cell: its cycles, and the `trend_phases`
/// section of `goldens/cells.json` — per cell, its interval count and
/// each phase's intervals, change-point score and dominant bucket.
fn phase_cells() -> (Vec<u64>, Value) {
    let mut cycles = Vec::new();
    let mut cells = Vec::new();
    for (name, cores) in PHASE_CELLS {
        let (c, report) = trended(name, &ProcessorConfig::tflex(cores));
        cycles.push(c);
        let phases: Vec<Value> = report
            .phases
            .iter()
            .map(|p| {
                json!({
                    "start_interval": (p.start_interval),
                    "end_interval": (p.end_interval),
                    "score": (p.score),
                    "dominant": (p.dominant.label())
                })
            })
            .collect();
        let cell = json!({"intervals": (report.ends.len()), "phases": phases});
        cells.push((format!("{name} x{cores}"), cell));
    }
    (cycles, Value::Object(cells))
}

/// Phase-table goldens: interval boundaries, change-point scores, and
/// dominant buckets for two suite kernels, on the cycles the suite
/// golden pins. These pin the integer change-point detector end to end.
#[test]
fn phase_goldens_hold_for_suite_kernels() {
    let (cycles, cells) = phase_cells();
    for ((name, cores), cycles) in PHASE_CELLS.into_iter().zip(cycles) {
        let want = pinned::cycles(name, &format!("tflex-{cores}"));
        assert_eq!(cycles, want, "{name} x{cores}: cycle golden drifted");
    }
    golden::assert_cells("trend_phases", &cells);
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

/// A cell the interval sampler recorded (`run_one <name> <cores>
/// --stats-json --sample-every <period>`) before clp-trend replaced it.
struct HandOver {
    name: &'static str,
    cores: usize,
    period: u64,
}

const HAND_OVER: [HandOver; 4] = [
    HandOver {
        name: "conv",
        cores: 4,
        period: 500,
    },
    HandOver {
        name: "gzip",
        cores: 16,
        period: 1000,
    },
    HandOver {
        name: "tblook",
        cores: 1,
        period: 250,
    },
    HandOver {
        name: "bezier",
        cores: 32,
        period: 777,
    },
];

/// Runs every [`HAND_OVER`] cell with clp-trend recording
/// [`HAND_OVER_PATHS`], checking what holds of any run: a window ends
/// every `period` cycles and at the last cycle, and each path is a count
/// column whose deltas sum to the end-of-run total. Returns each run's
/// cycles and the `trend_hand_over` section of `goldens/cells.json`:
/// per cell, per path, its per-window counts.
fn hand_over_cells() -> (Vec<u64>, Value) {
    let mut cycles = Vec::new();
    let mut cells = Vec::new();
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
        let windows = (1..).map(|k| k * cell.period);
        let mut ends: Vec<u64> = windows.take_while(|&end| end < r.stats.cycles).collect();
        ends.push(r.stats.cycles);
        assert_eq!(report.ends, ends, "{tag}: window ends");
        assert_eq!(report.columns.len(), HAND_OVER_PATHS.len());
        let mut columns = Vec::new();
        for (col, path) in report.columns.iter().zip(HAND_OVER_PATHS) {
            assert_eq!((col.path.as_str(), col.kind), (path, ColumnKind::Count));
            let total = r.snapshot.expect(path) as u64;
            assert_eq!(col.values.iter().sum::<u64>(), total, "{tag}: {path} tiles");
            columns.push((path.to_string(), json!((col.values))));
        }
        cycles.push(r.stats.cycles);
        cells.push((tag, Value::Object(columns)));
    }
    (cycles, Value::Object(cells))
}

/// Nothing was lost when the sampler went: clp-trend's path columns are
/// its series, interval for interval on the same window ends, and each
/// column's deltas sum to the end-of-run total.
#[test]
fn path_columns_equal_the_series_the_interval_sampler_recorded() {
    let (cycles, cells) = hand_over_cells();
    for (cell, cycles) in HAND_OVER.iter().zip(cycles) {
        let want = pinned::cycles(cell.name, &format!("tflex-{}", cell.cores));
        assert_eq!(
            cycles, want,
            "{} x{}: cycle golden drifted",
            cell.name, cell.cores
        );
    }
    golden::assert_cells("trend_hand_over", &cells);
}

/// Not a check: rewrites this file's sections of `goldens/cells.json`.
#[test]
#[ignore = "rewrites goldens/; run `cargo test -q --release -- --ignored regenerate`"]
fn regenerate_trend_cells() {
    golden::write_cells(vec![
        ("trend_phases", phase_cells().1),
        ("trend_hand_over", hand_over_cells().1),
    ]);
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
