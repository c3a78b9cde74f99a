//! clp-bound: static per-block cycle/resource lower bounds, checked
//! against the simulator.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-bound -- conv 16
//! cargo run --release -p clp-bench --bin clp-bound -- --suite --json
//! cargo run --release -p clp-bench --bin clp-bound -- --suite --check BOUND_baseline.json
//! ```
//!
//! For each workload and composition size, computes the clp-lint static
//! cycle bound ([`clp_lint::bound_program`]), runs the simulator with
//! profiling, and reports the bound beside the measured cycles with the
//! tightness ratio `measured / bound`. Every invocation *enforces
//! soundness*: the program bound must not exceed the measured cycles,
//! and no per-block bound may exceed the shortest fetch-to-commit span
//! the profiler observed for that block — any violation is printed and
//! the process exits 1.
//!
//! `--json` emits the pinned `clp-bound-v1` schema; `--check FILE`
//! compares the per-cell `bound`/`measured` figures against a committed
//! baseline (the CI regression gate); `--cores A,B,..` overrides the
//! default 1,2,4,8,16 sweep. The `curves` section is the analytic
//! speedup sketch `bound(1)/bound(n)` exported through
//! [`clp_alloc::SpeedupCurve::analytic`].

use clp_alloc::SpeedupCurve;
use clp_core::cli::{die, or_die, read_json, Flag, Spec, SUITE};
use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_lint::{bound_program, LintConfig, ProgramBound};
use serde_json::{json, Value};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "clp-bound",
    about: "Static per-block cycle/resource lower bounds, checked against the simulator.",
    positionals: &["[WORKLOAD]", "[CORES]"],
    flags: &[
        SUITE,
        Flag::switch("--json", "emit the clp-bound-v1 document instead of tables"),
        Flag::value("--check", "BASELINE", "gate bound/measured per cell on BASELINE; exit 1 if off"),
        Flag::value("--cores", "A,B,..", "composition sizes to sweep (default 1,2,4,8,16)"),
    ],
    epilog: "",
};

struct Cell {
    workload: &'static str,
    cores: usize,
    bound: ProgramBound,
    measured: u64,
}

impl Cell {
    fn tightness(&self) -> f64 {
        self.measured as f64 / self.bound.cycles as f64
    }

    /// Which program-level floor set the bound.
    fn floor(&self) -> &'static str {
        let b = &self.bound;
        if b.must_commit >= b.terminal && b.must_commit >= b.work_floor {
            "must-commit"
        } else if b.terminal >= b.work_floor {
            "terminal"
        } else {
            "work"
        }
    }

    fn to_json(&self) -> Value {
        let b = &self.bound;
        json!({
            "workload": (self.workload),
            "cores": (self.cores),
            "bound": (b.cycles),
            "measured": (self.measured),
            "tightness": (self.tightness()),
            "must_commit": (b.must_commit),
            "terminal": (b.terminal),
            "work_floor": (b.work_floor)
        })
    }
}

fn main() {
    let args = SPEC.parse_env();
    let workloads = or_die(args.workloads());
    let mut sizes: Vec<usize> = match args.positional(1) {
        Some(_) => or_die(args.cores()).into_iter().collect(),
        None => or_die(args.nums("--cores", 1..)),
    };
    if sizes.is_empty() {
        sizes = vec![1, 2, 4, 8, 16];
    }
    let cfg = LintConfig::default();
    let mut cells: Vec<Cell> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    for w in &workloads {
        let name = w.name;
        let cw = compile_workload(w).unwrap_or_else(|e| die(format!("{name}: {e}")));
        for &cores in &sizes {
            let pb = bound_program(&cw.edge, &cfg, cores);
            let obs = ObsOptions {
                profile: true,
                ..ObsOptions::default()
            };
            let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(cores), &obs)
                .unwrap_or_else(|e| die(format!("{name} on {cores} cores: {e}")));
            let measured = r.stats.cycles;
            if pb.cycles > measured {
                violations.push(format!(
                    "{name} on {cores} cores: program bound {} > measured {measured}",
                    pb.cycles
                ));
            }
            let spans = r.profile.expect("profiling was enabled").block_spans();
            for bb in &pb.blocks {
                if let Some(s) = spans.get(&bb.addr) {
                    if bb.cycles > s.min_cycles {
                        violations.push(format!(
                            "{name} on {cores} cores: block @{:#x} bound {} \
                             ({}) > measured min span {}",
                            bb.addr,
                            bb.cycles,
                            bb.binding.label(),
                            s.min_cycles
                        ));
                    }
                }
            }
            cells.push(Cell {
                workload: name,
                cores,
                bound: pb,
                measured,
            });
        }
    }

    let curves: Vec<(&str, SpeedupCurve)> = workloads
        .iter()
        .filter_map(|w| {
            let samples: Vec<(usize, u64)> = cells
                .iter()
                .filter(|c| c.workload == w.name)
                .map(|c| (c.cores, c.bound.cycles))
                .collect();
            samples
                .iter()
                .any(|&(c, _)| c == 1)
                .then(|| (w.name, SpeedupCurve::analytic(w.name, &samples)))
        })
        .collect();

    if args.switch("--json") {
        let curves: Vec<Value> = curves
            .iter()
            .map(|(name, curve)| json!({"workload": name, "speedup": (curve.speedup)}))
            .collect();
        let cells: Vec<Value> = cells.iter().map(Cell::to_json).collect();
        let doc =
            json!({"schema": "clp-bound-v1", "cores": sizes, "cells": cells, "curves": curves});
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("serializes")
        );
    } else {
        let mut last = "";
        for cell in &cells {
            if cell.workload != last {
                println!("== {} ==", cell.workload);
                println!(
                    "{:>6} {:>10} {:>10} {:>10}  floor",
                    "cores", "bound", "measured", "tightness"
                );
                last = cell.workload;
            }
            println!(
                "{:>6} {:>10} {:>10} {:>9.2}x  {}",
                cell.cores,
                cell.bound.cycles,
                cell.measured,
                cell.tightness(),
                cell.floor()
            );
        }
        for (name, curve) in &curves {
            let samples: Vec<String> = curve
                .speedup
                .iter()
                .map(|(c, s)| format!("{c}:{s:.2}"))
                .collect();
            println!("analytic speedup sketch {name}: {}", samples.join(" "));
        }
    }

    for v in &violations {
        eprintln!("clp-bound: SOUNDNESS VIOLATION: {v}");
    }
    let mut failed = !violations.is_empty();

    if let Some(path) = &args.text("--check") {
        let doc = read_json(path);
        let Value::Array(baseline) = &doc["cells"] else {
            die(format!("{path} has no `cells` array"));
        };
        let mut mismatches = 0usize;
        for want in baseline {
            let (Some(wl), Some(cores), Some(bound), Some(measured)) = (
                want["workload"].as_str(),
                want["cores"].as_u64(),
                want["bound"].as_u64(),
                want["measured"].as_u64(),
            ) else {
                die(format!("{path} has a malformed cell"));
            };
            let got = cells
                .iter()
                .find(|c| c.workload == wl && c.cores as u64 == cores);
            match got {
                None => {
                    eprintln!("clp-bound: baseline cell {wl}/{cores} was not computed");
                    mismatches += 1;
                }
                Some(c) if c.bound.cycles != bound || c.measured != measured => {
                    eprintln!(
                        "clp-bound: {wl} on {cores} cores drifted: bound {} \
                         (baseline {bound}), measured {} (baseline {measured}), \
                         tightness {:.2}x",
                        c.bound.cycles,
                        c.measured,
                        c.tightness()
                    );
                    mismatches += 1;
                }
                Some(_) => {}
            }
        }
        if baseline.len() != cells.len() {
            eprintln!(
                "clp-bound: baseline has {} cells, this run produced {}",
                baseline.len(),
                cells.len()
            );
            mismatches += 1;
        }
        if mismatches > 0 {
            eprintln!("clp-bound: {mismatches} baseline mismatch(es) against {path}");
            failed = true;
        } else {
            eprintln!("clp-bound: all {} cells match {path}", cells.len());
        }
    }

    if failed {
        std::process::exit(1);
    }
}
