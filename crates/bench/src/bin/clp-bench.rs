//! clp-bench: the performance-regression harness.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-bench            # write BENCH_suite.json
//! cargo run --release -p clp-bench --bin clp-bench -- \
//!     --check BENCH_baseline.json --threshold 2               # CI regression gate
//! ```
//!
//! Runs the built-in suite at 1/2/4/8/16 cores with the clp-prof layer
//! enabled and emits `BENCH_suite.json` (pinned `clp-bench-v1` schema:
//! cycles, IPC, and the top-down cycle-accounting buckets per cell) in
//! the current directory. With `--check <baseline>` it instead compares
//! every `(workload, cores)` cell's cycle count against the committed
//! baseline and exits 1 if any cell regressed by more than
//! `--threshold` percent (default 2) or disappeared — the CI perf gate.
//! The simulator is deterministic, so the threshold only leaves room
//! for intentional modeling changes, which must re-baseline.
//!
//! `--explain` augments every regressed cell with clp-diff bucket
//! attribution: the cycle-accounting buckets that moved between the
//! baseline's recorded breakdown and the fresh measurement, largest
//! movers first — so a gate failure names *what got slower*, not just
//! that something did. It also reports the cell's clp-bound static
//! cycle floor and how the measured/bound tightness ratio moved, which
//! tells whether the regression ate into genuine headroom or the cell
//! was already near its dataflow/resource floor.
//!
//! Host wall-clock throughput is not measured here: that is
//! `clp-hostbench` under `benchmark/` (see its README for the noise
//! protocol).

use clp_bench::par_suite;
use clp_core::cli::{die, or_die, read_json, write_or_die, Flag, Spec};
use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_obs::attribute_buckets;
use clp_workloads::suite;
use serde_json::{json, Value};

/// The composition sizes of the regression matrix.
const BENCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "clp-bench",
    about: "Measures the suite at 1/2/4/8/16 cores (clp-bench-v1) and gates it against a baseline.",
    positionals: &[],
    flags: &[
        Flag::value("--out", "PATH", "write the measured suite here (default BENCH_suite.json)"),
        Flag::value("--check", "BASELINE", "gate cycles per cell on BASELINE; exit 1 if worse"),
        Flag::value("--threshold", "PCT", "regression allowed per cell, percent >= 0 (default 2)"),
        Flag::switch("--explain", "attribute each regressed cell to buckets and its static floor"),
    ],
    epilog: "",
};

/// One measured cell: `(cores, cycles, ipc, run-level buckets json)`.
type Cell = (usize, u64, f64, Value);

fn measure_suite() -> Vec<(String, Vec<Cell>)> {
    let obs = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    par_suite(&suite::all(), |w| {
        let cw = compile_workload(w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let cells: Vec<Cell> = BENCH_SIZES
            .iter()
            .map(|&n| {
                let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(n), &obs)
                    .unwrap_or_else(|e| panic!("{} on {n} cores: {e}", w.name));
                let report = r.profile.expect("profiled");
                let buckets = Value::Object(
                    report
                        .run_buckets()
                        .iter()
                        .map(|(b, c)| (b.label().to_string(), Value::UInt(c)))
                        .collect(),
                );
                (n, r.stats.cycles, r.stats.procs[0].ipc(), buckets)
            })
            .collect();
        (w.name.to_string(), cells)
    })
}

fn to_doc(rows: &[(String, Vec<Cell>)]) -> Value {
    let workloads: Vec<Value> = rows
        .iter()
        .map(|(name, cells)| {
            let runs: Vec<Value> = cells
                .iter()
                .map(|(cores, cycles, ipc, buckets)| {
                    json!({"cores": cores, "cycles": cycles, "ipc": ipc, "buckets": buckets})
                })
                .collect();
            json!({"name": name, "runs": runs})
        })
        .collect();
    json!({"schema": "clp-bench-v1", "sizes": BENCH_SIZES, "workloads": workloads})
}

/// Baseline cells as `(workload, cores) -> (cycles, buckets)`.
fn baseline_cells(doc: &Value) -> Vec<((String, u64), (u64, Value))> {
    let mut out = Vec::new();
    let Some(workloads) = doc.get("workloads").as_array() else {
        die("baseline has no `workloads` array (expected clp-bench-v1)");
    };
    for w in workloads {
        let Some(name) = w.get("name").as_str() else {
            continue;
        };
        let Some(runs) = w.get("runs").as_array() else {
            continue;
        };
        for r in runs {
            if let (Some(cores), Some(cycles)) = (r.get("cores").as_u64(), r.get("cycles").as_u64())
            {
                out.push((
                    (name.to_string(), cores),
                    (cycles, r.get("buckets").clone()),
                ));
            }
        }
    }
    out
}

/// The clp-bound static cycle floor of one suite cell, or `None` if
/// the workload vanished or no longer compiles (the regression line
/// itself already reports that kind of drift).
fn static_floor(name: &str, cores: usize) -> Option<u64> {
    let w = suite::by_name(name)?;
    let cw = compile_workload(&w).ok()?;
    let cfg = clp_lint::LintConfig::default();
    Some(clp_lint::bound_program(&cw.edge, &cfg, cores).cycles)
}

fn main() {
    let args = SPEC.parse_env();
    let out = args
        .text("--out")
        .unwrap_or_else(|| "BENCH_suite.json".into());
    let threshold = or_die(args.num("--threshold", 0.0..)).unwrap_or(2.0);
    let explain = args.switch("--explain");
    let rows = measure_suite();
    let doc = to_doc(&rows);
    // Always emit the measured suite (also under --check, so CI uploads
    // the fresh numbers a re-baseline can copy from).
    write_or_die(
        &out,
        &serde_json::to_string_pretty(&doc).expect("serializes"),
    );
    println!(
        "clp-bench: wrote {} workloads x {:?} cores to {}",
        rows.len(),
        BENCH_SIZES,
        out
    );

    if let Some(baseline_path) = &args.text("--check") {
        let baseline = read_json(baseline_path);
        let mut regressions = Vec::new();
        for ((name, cores), (want, want_buckets)) in baseline_cells(&baseline) {
            let got = rows
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, cells)| cells.iter().find(|(n, ..)| *n as u64 == cores));
            match got {
                None => regressions.push(format!("{name} x{cores}: cell disappeared")),
                Some((_, got, _, got_buckets)) => {
                    let delta = 100.0 * (*got as f64 / want as f64 - 1.0);
                    if delta > threshold {
                        let mut msg = format!(
                            "{name} x{cores}: {want} -> {got} cycles ({delta:+.2}% > {:.2}%)",
                            threshold
                        );
                        if explain {
                            // Attribute the regression to the buckets
                            // that moved, largest movers first.
                            for e in attribute_buckets(&want_buckets, got_buckets).iter().take(3) {
                                msg.push_str(&format!(
                                    "\n      {}: {} -> {} ({:+})",
                                    e.label,
                                    e.before,
                                    e.after,
                                    e.delta()
                                ));
                            }
                            // How much of the regression is headroom:
                            // tightness against the static cycle floor.
                            if let Some(bound) = static_floor(&name, cores as usize) {
                                msg.push_str(&format!(
                                    "\n      static floor {bound} cycles: tightness \
                                     {:.2}x -> {:.2}x",
                                    want as f64 / bound as f64,
                                    *got as f64 / bound as f64,
                                ));
                            }
                        }
                        regressions.push(msg);
                    }
                }
            }
        }
        if regressions.is_empty() {
            println!(
                "clp-bench: {} cells within {:.2}% of {baseline_path}",
                baseline_cells(&baseline).len(),
                threshold
            );
        } else {
            eprintln!("clp-bench: {} regressed cells:", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
