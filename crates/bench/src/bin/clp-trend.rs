//! clp-trend: deterministic time-series telemetry and phase detection
//! for composed processors.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-trend -- conv 16
//! cargo run --release -p clp-bench --bin clp-trend -- --suite --json
//! cargo run --release -p clp-bench --bin clp-trend -- conv --paths mem/l1d_misses,operand_net/msgs_delivered
//! ```
//!
//! Runs one workload (or the whole built-in suite with `--suite`) with
//! trend recording enabled and prints, per workload, the ASCII IPC
//! timeline with phase boundaries and the phase table with per-phase
//! bucket breakdowns.
//!
//! `--json` replaces the tables with pinned `clp-trend-v1` documents on
//! stdout (one top-level object; per-run reports under `"runs"`);
//! `clp-trend --help` lists the other flags.

use clp_bench::observe::{observe, runs_document, trend_run, trend_text};
use clp_core::cli::{die, or_die, write_or_die, Flag, Spec, SUITE};
use clp_core::{compile_workload, ObsOptions};
use clp_obs::TrendOptions;
use serde_json::Value;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "clp-trend",
    about: "Deterministic time-series telemetry and phase detection for composed processors.",
    positionals: &["[WORKLOAD]", "[CORES]"],
    flags: &[
        SUITE,
        Flag::switch("--json", "emit clp-trend-v1 documents instead of tables"),
        Flag::value("--cores", "N", "composition size (default 16)"),
        Flag::value("--period", "CYCLES", "interval width (default 1000)"),
        Flag::repeated("--paths", "A,B,..", "extra stats-registry columns to record"),
        Flag::value("--perfetto", "PATH", "also write the series as Chrome counter tracks"),
    ],
    epilog: "",
};

fn main() {
    let args = SPEC.parse_env();
    let workloads = or_die(args.workloads());
    let cores = or_die(args.cores()).unwrap_or(16);
    let trend_opts = TrendOptions {
        period: or_die(args.num("--period", 1..)).unwrap_or(1000),
        paths: args.list("--paths"),
    };
    let (json, perfetto) = (args.switch("--json"), args.text("--perfetto"));
    let obs = ObsOptions {
        trend: Some(trend_opts),
        ..ObsOptions::default()
    };
    let mut runs: Vec<Value> = Vec::new();
    for w in &workloads {
        let name = w.name;
        let cw = compile_workload(w).unwrap_or_else(|e| die(format!("{name}: {e}")));
        let r = observe(&cw, cores, &obs);
        let trend = r.trend.expect("trend recording was enabled");
        if let Some(path) = &perfetto {
            write_or_die(path, &trend.to_chrome_trace());
            println!("[perfetto counters -> {path}]");
        }
        if json {
            runs.push(trend_run(name, cores, &trend));
        } else {
            print!("{}", trend_text(name, cores, &trend));
        }
    }
    if json {
        print!("{}", runs_document("clp-trend-suite-v1", runs));
    }
}
