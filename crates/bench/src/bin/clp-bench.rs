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

use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_obs::attribute_buckets;
use clp_workloads::suite;
use serde::Value;
use std::sync::mpsc;
use std::thread;

/// The composition sizes of the regression matrix.
const BENCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

struct Args {
    out: String,
    check: Option<String>,
    threshold: f64,
    explain: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("clp-bench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_suite.json".to_string(),
        check: None,
        threshold: 2.0,
        explain: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut flag_value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--out" => args.out = flag_value("--out"),
            "--check" => args.check = Some(flag_value("--check")),
            "--explain" => args.explain = true,
            "--threshold" => {
                let v = flag_value("--threshold");
                match v.parse() {
                    Ok(t) if t >= 0.0 => args.threshold = t,
                    _ => die(&format!("bad --threshold `{v}`")),
                }
            }
            _ => die(&format!("unexpected argument `{a}`")),
        }
    }
    args
}

/// One measured cell: `(cores, cycles, ipc, run-level buckets json)`.
type Cell = (usize, u64, f64, Value);

fn measure_suite() -> Vec<(String, Vec<Cell>)> {
    let workloads = suite::all();
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        for (idx, w) in workloads.iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                let cw = compile_workload(w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                let obs = ObsOptions {
                    profile: true,
                    ..ObsOptions::default()
                };
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
                tx.send((idx, (w.name.to_string(), cells)))
                    .expect("receiver alive");
            });
        }
        drop(tx);
        let mut rows: Vec<Option<(String, Vec<Cell>)>> =
            (0..workloads.len()).map(|_| None).collect();
        for (idx, row) in rx {
            rows[idx] = Some(row);
        }
        rows.into_iter().map(|r| r.expect("all sent")).collect()
    })
}

fn to_doc(rows: &[(String, Vec<Cell>)]) -> Value {
    Value::Object(vec![
        (
            "schema".to_string(),
            Value::String("clp-bench-v1".to_string()),
        ),
        (
            "sizes".to_string(),
            Value::Array(BENCH_SIZES.iter().map(|&n| Value::UInt(n as u64)).collect()),
        ),
        (
            "workloads".to_string(),
            Value::Array(
                rows.iter()
                    .map(|(name, cells)| {
                        Value::Object(vec![
                            ("name".to_string(), Value::String(name.clone())),
                            (
                                "runs".to_string(),
                                Value::Array(
                                    cells
                                        .iter()
                                        .map(|(n, cycles, ipc, buckets)| {
                                            Value::Object(vec![
                                                ("cores".to_string(), Value::UInt(*n as u64)),
                                                ("cycles".to_string(), Value::UInt(*cycles)),
                                                ("ipc".to_string(), Value::Float(*ipc)),
                                                ("buckets".to_string(), buckets.clone()),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
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
    let args = parse_args();
    let rows = measure_suite();
    let doc = to_doc(&rows);
    // Always emit the measured suite (also under --check, so CI uploads
    // the fresh numbers a re-baseline can copy from).
    std::fs::write(
        &args.out,
        serde_json::to_string_pretty(&doc).expect("serializes"),
    )
    .unwrap_or_else(|e| die(&format!("cannot write `{}`: {e}", args.out)));
    println!(
        "clp-bench: wrote {} workloads x {:?} cores to {}",
        rows.len(),
        BENCH_SIZES,
        args.out
    );

    if let Some(baseline_path) = &args.check {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| die(&format!("cannot read `{baseline_path}`: {e}")));
        let baseline = serde_json::from_str::<Value>(&text)
            .unwrap_or_else(|e| die(&format!("cannot parse `{baseline_path}`: {e}")));
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
                    if delta > args.threshold {
                        let mut msg = format!(
                            "{name} x{cores}: {want} -> {got} cycles ({delta:+.2}% > {:.2}%)",
                            args.threshold
                        );
                        if args.explain {
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
                args.threshold
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
