//! Tier-1's hold on the suite, observer, fault and lint goldens.
//!
//! `BENCH_baseline.json` and `BOUND_baseline.json` are regenerated by
//! the builders the `clp-bench` / `clp-bound` tools call and held to the
//! committed files with the same `check_golden` the tools' `--check`
//! uses — so a cycle that moves fails `cargo test`, and the failure
//! prints which cell and which bucket. Both documents are views of one
//! measurement, so the 130 suite cells are simulated once for the two
//! tests. (`tests/scope.rs` does the same for `BENCH_serve.json` and
//! `SCOPE_serve.json`.)
//!
//! The observer goldens under `goldens/` pin what `clp-prof` and
//! `clp-trend` print at their default 16 cores, built by the same
//! `clp_bench::observe` functions the tools print through, and the
//! Perfetto files of `clp-trend conv --perfetto` and `run_one conv 4
//! --profile --trace` as digests. The fault goldens pin the stats
//! snapshot and the trace of a run in which every fault kind fires.
//! `goldens/lint_suite.json` pins `clp-lint --suite --json`. (What the
//! binaries print themselves, `clp-fig` included, is pinned by
//! `crates/bench/tests/cli.rs`.)

use clp::core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp::lint::{lint_program, LintConfig, LintReport};
use clp::obs::{check_golden, digest_golden, ChromeTraceWriter, Tracer, TrendOptions};
use clp::sim::FaultPlan;
use clp::workloads::suite;
use clp_bench::matrix::{SuiteMatrix, BENCH_SIZES};
use clp_bench::observe::{observe, prof_run, runs_document, trend_run, trend_text};
use clp_bench::par_suite;
use std::sync::LazyLock;

/// Whichever test gets here first measures; the other waits for it.
static SUITE: LazyLock<SuiteMatrix> =
    LazyLock::new(|| SuiteMatrix::measure(&suite::all(), &BENCH_SIZES));

fn assert_golden(file: &str, how: &str, fresh: &str) {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    check_golden(&committed, fresh).unwrap_or_else(|moved| {
        panic!("the suite no longer reproduces {file}; re-baseline with `{how}` if intentional\n{moved}")
    });
}

fn pretty(doc: &serde_json::Value) -> String {
    serde_json::to_string_pretty(doc).expect("serializes")
}

#[test]
fn the_suite_reproduces_bench_baseline() {
    assert_golden(
        "BENCH_baseline.json",
        "clp-bench --out BENCH_baseline.json",
        &pretty(&SUITE.bench_document()),
    );
}

#[test]
fn the_suite_reproduces_bound_baseline_and_every_bound_is_sound() {
    assert_eq!(SUITE.violations, Vec::<String>::new());
    assert_golden(
        "BOUND_baseline.json",
        "clp-bound --suite --json > BOUND_baseline.json",
        &pretty(&SUITE.bound_document()),
    );
}

/// The command that rewrites every golden under `goldens/` this file
/// checks.
const REGENERATE: &str = "cargo test -q --release --test goldens -- --ignored";

/// Each observer golden under `goldens/` and what it holds, fresh:
/// `clp-prof conv --json`, `clp-trend conv --json` and `clp-trend
/// --suite` in full, and `clp-prof --suite --json`, `clp-trend conv
/// --perfetto` and `run_one conv 4 --profile --trace` as digests.
fn observer_goldens() -> [(&'static str, String); 6] {
    const CORES: usize = 16;
    let prof = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    let trend = ObsOptions {
        trend: Some(TrendOptions::default()),
        ..ObsOptions::default()
    };
    let workloads = suite::all();
    let runs = par_suite(&workloads, |w| {
        let cw = compile_workload(w).expect("compiles");
        let p = prof_run(w.name, CORES, &observe(&cw, CORES, &prof));
        let t = observe(&cw, CORES, &trend)
            .trend
            .expect("trend recording was on");
        (
            p,
            trend_run(w.name, CORES, &t),
            trend_text(w.name, CORES, &t),
            t.to_chrome_trace(),
        )
    });
    let conv = workloads.iter().position(|w| w.name == "conv");
    let (prof_conv, trend_conv, _, trend_conv_perfetto) =
        &runs[conv.expect("conv is in the suite")];
    let prof_suite = runs.iter().map(|(p, ..)| p.clone()).collect();
    [
        (
            "prof_conv.json",
            runs_document("clp-prof-v1", vec![prof_conv.clone()]),
        ),
        (
            "trend_conv.json",
            runs_document("clp-trend-suite-v1", vec![trend_conv.clone()]),
        ),
        (
            "trend_suite.txt",
            runs.iter().map(|(_, _, t, _)| t.as_str()).collect(),
        ),
        (
            "prof_suite.digest.json",
            digest_golden(&runs_document("clp-prof-v1", prof_suite)),
        ),
        (
            "trend_conv.perfetto.digest.json",
            digest_golden(trend_conv_perfetto),
        ),
        (
            "prof_conv4.trace.digest.json",
            digest_golden(&traced_run("prof_conv4.trace.json", 4, FaultPlan::none(), true).1),
        ),
    ]
}

/// Runs conv on `cores` under `faults`, with clp-prof on if `profile`,
/// tracing to `file` in the test's scratch directory: the outcome's
/// stats snapshot and the trace, as `run_one`'s `--stats-json` and
/// `--trace` write them.
fn traced_run(file: &str, cores: usize, faults: FaultPlan, profile: bool) -> (String, String) {
    let w = suite::by_name("conv").expect("conv is in the suite");
    let cw = compile_workload(&w).expect("compiles");
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    let obs = ObsOptions {
        tracer: Tracer::new(ChromeTraceWriter::new(&trace)),
        profile,
        ..ObsOptions::default()
    };
    let cfg = ProcessorConfig::tflex(cores).with_faults(faults);
    let r = run_compiled_observed(&cw, &cfg, &obs).expect("runs correctly");
    obs.tracer.finish().expect("writes the trace");
    let trace = std::fs::read_to_string(&trace).expect("reads the trace back");
    (r.snapshot.to_json(), trace)
}

#[test]
fn the_observers_reproduce_their_goldens() {
    for (file, fresh) in observer_goldens() {
        assert_golden(&format!("goldens/{file}"), REGENERATE, &fresh);
    }
}

/// `run_one conv 8 --faults all=50 --fault-seed 1`, in which every fault
/// kind fires: its `--stats-json` snapshot in full (the `faults/*` names
/// and counts) and its `--trace` as a digest (every `fault_injected`
/// label and `extra_cycles`).
fn fault_goldens() -> [(&'static str, String); 2] {
    let plan = FaultPlan::parse("all=50", 1).expect("valid spec");
    let (snapshot, trace) = traced_run("faults_conv8.trace.json", 8, plan, false);
    [
        ("faults_conv8.json", snapshot),
        ("faults_conv8.trace.digest.json", digest_golden(&trace)),
    ]
}

#[test]
fn the_fault_layer_reproduces_its_goldens() {
    for (file, fresh) in fault_goldens() {
        assert_golden(&format!("goldens/{file}"), REGENERATE, &fresh);
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
    ("lint_suite.json", LintReport { diagnostics }.to_json())
}

#[test]
fn the_linter_reproduces_its_suite_golden() {
    let (file, fresh) = lint_golden();
    assert_golden(&format!("goldens/{file}"), REGENERATE, &fresh);
}

/// Not a check: rewrites every golden under `goldens/` that this file
/// builds (see [`REGENERATE`]).
#[test]
#[ignore = "rewrites goldens/; run it to re-baseline the observer, fault and lint goldens"]
fn regenerate_observer_goldens() {
    let goldens = observer_goldens()
        .into_iter()
        .chain(fault_goldens())
        .chain([lint_golden()]);
    for (file, fresh) in goldens {
        let path = format!("{}/goldens/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, fresh).unwrap_or_else(|e| panic!("{path}: {e}"));
    }
}
