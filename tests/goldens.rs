//! Tier-1's hold on the suite, observer, fault and lint goldens.
//!
//! The whole suite is simulated once, as one
//! `clp_bench::matrix::SuiteMatrix` at 1–32 cores plus TRIPS and the OoO
//! core, and every suite golden is a view of it.
//! `BENCH_baseline.json` and `BOUND_baseline.json` (the 1–16-core cells)
//! are regenerated by the builders `clp-bound` and the figures call and
//! held to the committed files with `clp_obs::check_golden` — so a cycle
//! that moves fails `cargo test`, and the failure prints which cell and
//! which bucket.
//! `goldens/suite_wide.json` pins the cells the figures divide by: the
//! cycles and return value of every workload at 32 cores, on TRIPS and
//! on the OoO core. Every cell is verified against the interpreter's
//! golden as it runs, and the paper's figure shapes are asserted on the
//! same cells. (`tests/scope.rs` does the same for `BENCH_serve.json`
//! and `SCOPE_serve.json`.)
//!
//! The observer goldens under `goldens/` pin what `clp-prof` and
//! `clp-trend` print at their default 16 cores, built by the same
//! `clp_bench::observe` functions the tools print through, and the
//! Perfetto files of `clp-trend conv --perfetto` and `run_one conv 4
//! --profile --trace` as digests. The fault goldens pin the stats
//! snapshot and the trace of a run in which every fault kind fires.
//! `goldens/lint_suite.json` pins `clp-lint --suite --json`, and
//! `goldens/programs.digest.json` what the compiler emits for every
//! kernel. (What the binaries print themselves, `clp-fig` included, is
//! pinned by `crates/bench/tests/cli.rs`.) `regenerate_suite_goldens`
//! rewrites every golden this file checks, from the builders its checks
//! call.

use clp::compiler::{compile, CompileOptions};
use clp::core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp::isa::asm::format_program;
use clp::lint::{lint_program, LintConfig, LintReport};
use clp::obs::{digest_golden, fnv1a64, RingRecorder, Tracer, TrendOptions};
use clp::power::{perf2_per_watt, perf_per_area};
use clp::sim::FaultPlan;
use clp::workloads::suite;
use clp_bench::matrix::{Row, SuiteMatrix, BENCH_SIZES, SWEEP_SIZES};
use clp_bench::observe::{observe, prof_run, runs_document, trend_run, trend_text};
use clp_bench::par_suite;
use serde_json::{json, Value};
use std::sync::{Arc, LazyLock, Mutex};

#[path = "common/golden.rs"]
mod golden;

/// Whichever test gets here first measures; the others wait for it.
static SUITE: LazyLock<SuiteMatrix> =
    LazyLock::new(|| SuiteMatrix::measure(&suite::all(), &SWEEP_SIZES));

/// A workload's row of [`SUITE`].
fn row(name: &str) -> &'static Row {
    let row = SUITE.rows.iter().find(|r| r.workload.name == name);
    row.unwrap_or_else(|| panic!("{name} has a failed cell: {:?}", SUITE.failures))
}

fn pretty(doc: &serde_json::Value) -> String {
    serde_json::to_string_pretty(doc).expect("serializes")
}

/// The two root suite baselines, fresh: `BENCH_baseline.json` as only
/// `regenerate` writes it, and `BOUND_baseline.json` as `clp-bound
/// --suite --json` prints it.
fn baselines() -> [(&'static str, String); 2] {
    [
        (
            "BENCH_baseline.json",
            pretty(&SUITE.bench_document(&BENCH_SIZES)),
        ),
        (
            "BOUND_baseline.json",
            pretty(&SUITE.bound_document(&BENCH_SIZES)) + "\n",
        ),
    ]
}

#[test]
fn the_suite_reproduces_bench_baseline() {
    let [(file, fresh), _] = baselines();
    golden::assert_golden(file, &fresh);
}

#[test]
fn the_suite_reproduces_bound_baseline_and_every_bound_is_sound() {
    assert_eq!(SUITE.violations, Vec::<String>::new());
    let [_, (file, fresh)] = baselines();
    golden::assert_golden(file, &fresh);
}

/// `goldens/suite_wide.json`: per workload, the cycles and return value
/// at 32 cores, on TRIPS and on the OoO core.
fn wide_golden() -> (&'static str, String) {
    let workloads = SUITE.rows.iter().map(|r| {
        json!({
            "name": (r.workload.name),
            "tflex-32": {"cycles": (r.cycles_at(32)), "ret": (r.at(32).outcome.ret)},
            "trips": {"cycles": (r.trips.cycles()), "ret": (r.trips.ret)},
            "ooo": {"cycles": (r.ooo.cycles), "ret": (r.ooo.ret)}
        })
    });
    let workloads: Vec<_> = workloads.collect();
    let doc = json!({"schema": "clp-suite-wide-v1", "workloads": workloads});
    ("goldens/suite_wide.json", pretty(&doc))
}

/// Every cell of the suite ran and verified — TFlex and TRIPS against
/// the interpreter's golden inside the run, the OoO core against the
/// same golden in the matrix — and the cells the figures divide by
/// reproduce `goldens/suite_wide.json`.
#[test]
fn the_suite_reproduces_suite_wide_and_every_cell_verifies() {
    let failures: Vec<String> = SUITE.failures.iter().map(ToString::to_string).collect();
    assert_eq!(failures, Vec::<String>::new());
    let (file, fresh) = wide_golden();
    golden::assert_golden(file, &fresh);
}

/// `ok` holds of every workload's row ([`row`] names any failed cell).
fn every_row(config: &str, ok: impl Fn(&Row) -> bool) {
    for w in suite::all() {
        assert!(ok(row(w.name)), "{} on {config}", w.name);
    }
}

/// Every workload verifies on 32 TFlex cores, on TRIPS and on the OoO
/// core (whose outputs the matrix holds to the interpreter's golden).
#[test]
fn every_workload_correct_on_tflex_32() {
    every_row("tflex-32", |r| r.cycles_at(32) > 0);
}

#[test]
fn every_workload_correct_on_trips() {
    every_row("trips", |r| r.trips.stats.cycles > 0);
}

#[test]
fn every_workload_correct_on_the_ooo_baseline() {
    every_row("ooo", |r| r.ooo.cycles > 100);
}

/// Fig. 6 shape: a high-ILP kernel speeds up substantially toward
/// mid-size compositions; a serial kernel does not.
#[test]
fn high_ilp_scales_low_ilp_does_not() {
    let autocor = row("autocor").speedup_at(8);
    assert!(autocor > 2.0, "autocor speedup at 8 cores: {autocor:.2}");
    // tblook (dependent-branch binary search, tiny footprint) gains
    // little from more cores. (mcf is deliberately NOT used here: its
    // pointer chase speeds up from composed L1 *capacity*, which is a
    // real TFlex effect the paper calls out, not an ILP effect.)
    assert!(
        row("tblook").speedup_at(32) < 2.0,
        "tblook must not scale like a parallel kernel"
    );
}

/// Fig. 6 shape: 32 cores is past the knee for most work — bigger is not
/// always faster.
#[test]
fn thirty_two_cores_is_past_the_knee_for_serial_code() {
    let (t4, t32) = (row("tblook").cycles_at(4), row("tblook").cycles_at(32));
    assert!(
        t32 > t4,
        "tblook at 32 cores ({t32}) should be slower than at 4 ({t4})"
    );
}

/// Fig. 7 shape: area efficiency peaks at small compositions.
#[test]
fn area_efficiency_peaks_small() {
    for name in ["conv", "gcc"] {
        let efficiency = |n| {
            let o = &row(name).at(n).outcome;
            perf_per_area(o.cycles(), o.area_mm2)
        };
        assert!(
            efficiency(1) > efficiency(16),
            "{name}: 1-core must be more area-efficient"
        );
    }
}

/// Fig. 8 shape: power efficiency peaks strictly between the extremes
/// for a kernel with moderate ILP.
#[test]
fn power_efficiency_peaks_in_the_middle() {
    let efficiency = |n| {
        let o = &row("conv").at(n).outcome;
        perf2_per_watt(o.cycles(), o.power.total())
    };
    assert!(
        efficiency(4) > efficiency(1),
        "4 cores should beat 1 on perf^2/W for conv"
    );
    assert!(
        efficiency(4) > efficiency(32),
        "4 cores should beat 32 on perf^2/W for conv"
    );
}

/// Fig. 6's TRIPS comparison: the 8-core TFlex (same issue width and
/// area) is at least as fast as the TRIPS baseline on high-ILP kernels.
#[test]
fn eight_core_tflex_matches_or_beats_trips() {
    for name in ["conv", "autocor", "art"] {
        let (tflex, trips) = (row(name).cycles_at(8), row(name).trips.cycles());
        assert!(
            tflex <= trips * 11 / 10,
            "{name}: 8-core TFlex ({tflex}) should not lose badly to TRIPS ({trips})"
        );
    }
}

/// Fig. 5's window argument: the EDGE machine's large distributed window
/// wins on memory-latency-bound pointer chasing.
#[test]
fn trips_beats_the_ooo_baseline_on_mcf() {
    let (trips, ooo) = (row("mcf").trips.cycles(), row("mcf").ooo.cycles);
    assert!(
        trips < ooo,
        "TRIPS ({trips}) should beat the 96-entry-window baseline ({ooo}) on mcf"
    );
}

/// Each observer golden under `goldens/` and what it holds, fresh:
/// `clp-prof conv --json`, `clp-trend conv --json` and `clp-trend
/// --suite` in full, and `clp-prof --suite --json`, `clp-trend conv
/// --perfetto` and `run_one conv 4 --profile --trace` as digests. The
/// `clp-prof` runs are [`SUITE`]'s 16-core cells, which ran with the
/// same observers the tool attaches.
fn observer_goldens() -> [(&'static str, String); 6] {
    const CORES: usize = 16;
    let trend = ObsOptions {
        trend: Some(TrendOptions::default()),
        ..ObsOptions::default()
    };
    let workloads = suite::all();
    let runs = par_suite(&workloads, |w| {
        let cw = compile_workload(w).expect("compiles");
        let t = observe(&cw, CORES, &trend)
            .trend
            .expect("trend recording was on");
        (
            prof_run(w.name, CORES, &row(w.name).at(CORES).outcome),
            trend_run(w.name, CORES, &t),
            trend_text(w.name, CORES, &t),
            t.to_chrome_trace(),
        )
    });
    let conv = workloads.iter().position(|w| w.name == "conv");
    let (prof_conv, trend_conv, _, trend_conv_perfetto) =
        &runs[conv.expect("conv is in the suite")];
    let prof_conv = runs_document("clp-prof-v1", vec![prof_conv.clone()]);
    let trend_conv = runs_document("clp-trend-suite-v1", vec![trend_conv.clone()]);
    let trend_suite = runs.iter().map(|(_, _, t, _)| t.as_str()).collect();
    let prof_suite = runs.iter().map(|(p, ..)| p.clone()).collect();
    let prof_suite = digest_golden(&runs_document("clp-prof-v1", prof_suite));
    let perfetto = digest_golden(trend_conv_perfetto);
    let (_, trace) = traced_run(4, FaultPlan::none(), true);
    [
        ("goldens/prof_conv.json", prof_conv),
        ("goldens/trend_conv.json", trend_conv),
        ("goldens/trend_suite.txt", trend_suite),
        ("goldens/prof_suite.digest.json", prof_suite),
        ("goldens/trend_conv.perfetto.digest.json", perfetto),
        (
            "goldens/prof_conv4.trace.digest.json",
            digest_golden(&trace),
        ),
    ]
}

/// Runs conv on `cores` under `faults`, with clp-prof on if `profile`,
/// recording every trace event: the outcome's stats snapshot and the
/// trace, as `run_one`'s `--stats-json` and `--trace` write them.
fn traced_run(cores: usize, faults: FaultPlan, profile: bool) -> (String, String) {
    let w = suite::by_name("conv").expect("conv is in the suite");
    let cw = compile_workload(&w).expect("compiles");
    let recorder = Arc::new(Mutex::new(RingRecorder::new(usize::MAX)));
    let obs = ObsOptions {
        tracer: Tracer::shared(recorder.clone()),
        profile,
        ..ObsOptions::default()
    };
    let cfg = ProcessorConfig::tflex(cores).with_faults(faults);
    let r = run_compiled_observed(&cw, &cfg, &obs).expect("runs correctly");
    let trace = recorder.lock().expect("unpoisoned").to_chrome_trace();
    (r.snapshot.to_json(), trace)
}

#[test]
fn the_observers_reproduce_their_goldens() {
    for (file, fresh) in observer_goldens() {
        golden::assert_golden(file, &fresh);
    }
}

/// `run_one conv 8 --faults all=50 --fault-seed 1`, in which every fault
/// kind fires: its `--stats-json` snapshot in full (the `faults/*` names
/// and counts) and its `--trace` as a digest (every `fault_injected`
/// label and `extra_cycles`).
fn fault_goldens() -> [(&'static str, String); 2] {
    let plan = FaultPlan::parse("all=50", 1).expect("valid spec");
    let (snapshot, trace) = traced_run(8, plan, false);
    [
        ("goldens/faults_conv8.json", snapshot),
        (
            "goldens/faults_conv8.trace.digest.json",
            digest_golden(&trace),
        ),
    ]
}

#[test]
fn the_fault_layer_reproduces_its_goldens() {
    for (file, fresh) in fault_goldens() {
        golden::assert_golden(file, &fresh);
    }
}

/// `clp-lint --suite --json`: every suite workload linted for 32 cores,
/// in suite order, as one report.
fn lint_golden() -> (&'static str, String) {
    let reports = par_suite(&suite::all(), |w| {
        let cw = compile_workload(w).expect("compiles");
        lint_program(&cw.edge, &LintConfig::default())
    });
    let diagnostics = reports.into_iter().flat_map(|r| r.diagnostics).collect();
    (
        "goldens/lint_suite.json",
        LintReport { diagnostics }.to_json(),
    )
}

#[test]
fn the_linter_reproduces_its_suite_golden() {
    let (file, fresh) = lint_golden();
    golden::assert_golden(file, &fresh);
}

/// `goldens/programs.digest.json`: per suite kernel, in suite order, the
/// FNV-1a-64 digest and byte length of its compiled program as
/// `format_program` prints it. That text round-trips exactly
/// (`tests/parsers.rs`), so the digest pins every instruction, target
/// and placement the compiler emits, before any cycle is simulated.
fn programs_golden() -> (&'static str, String) {
    let digests = par_suite(&suite::all(), |w| {
        let edge = compile(&w.program, &CompileOptions::default()).expect("compiles");
        let text = format_program(&edge);
        let digest = format!("{:016x}", fnv1a64(text.as_bytes()));
        (
            w.name.to_string(),
            json!({"fnv1a64": digest, "bytes": (text.len())}),
        )
    });
    (
        "goldens/programs.digest.json",
        serde_json::to_string_pretty(&Value::Object(digests)).expect("serializes") + "\n",
    )
}

#[test]
fn the_compiler_reproduces_its_program_digests() {
    let (file, fresh) = programs_golden();
    golden::assert_golden(file, &fresh);
}

/// Not a check: rewrites every golden this file checks.
#[test]
#[ignore = "rewrites goldens/; run `cargo test -q --release -- --ignored regenerate`"]
fn regenerate_suite_goldens() {
    let goldens = baselines()
        .into_iter()
        .chain([wide_golden()])
        .chain(observer_goldens())
        .chain(fault_goldens())
        .chain([lint_golden(), programs_golden()]);
    for (file, fresh) in goldens {
        golden::write(file, &fresh);
    }
}
