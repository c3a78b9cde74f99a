//! The suite matrix behind two committed goldens: `clp-bench-v1`
//! (`BENCH_baseline.json`) and `clp-bound-v1` (`BOUND_baseline.json`).
//!
//! Both documents are views of one [`SuiteMatrix::measure`], which runs
//! every cell once with the clp-prof layer on. The tools (`clp-bench`,
//! `clp-bound`) and the tier-1 test that regenerates both documents
//! (`tests/goldens.rs`) call it, so what CI gates and what `cargo test`
//! defends are the same bytes.

use crate::par_suite;
use clp_alloc::SpeedupCurve;
use clp_core::cli::die;
use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_lint::{bound_program, LintConfig, ProgramBound};
use clp_obs::BucketCycles;
use clp_workloads::Workload;
use serde_json::{json, Value};

/// The composition sizes of both committed matrices.
pub const BENCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// One `(workload, cores)` cell: what a clp-prof-on run measured, beside
/// the static bound it was held to.
pub struct Cell {
    /// Workload name.
    pub workload: &'static str,
    /// Composition size.
    pub cores: usize,
    /// The static program bound.
    pub bound: ProgramBound,
    /// Cycles the simulator measured.
    pub measured: u64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// The run-level cycle-accounting buckets.
    pub buckets: BucketCycles,
}

impl Cell {
    /// `measured / bound`.
    #[must_use]
    pub fn tightness(&self) -> f64 {
        self.measured as f64 / self.bound.cycles as f64
    }
}

/// Some workloads measured and bounded at some sizes: the cells, the
/// analytic speedup sketches `bound(1)/bound(n)` (for workloads swept
/// at one core), and every soundness violation found on the way.
pub struct SuiteMatrix {
    /// Composition sizes swept.
    pub sizes: Vec<usize>,
    /// Cells, workload-major.
    pub cells: Vec<Cell>,
    /// `(workload, curve)` per workload with a one-core sample.
    pub curves: Vec<(&'static str, SpeedupCurve)>,
    /// A program bound above the measured cycles, or a block bound
    /// above the shortest fetch-to-commit span the profiler saw.
    pub violations: Vec<String>,
}

impl SuiteMatrix {
    /// Runs and bounds every `(workload, size)` cell once, one thread
    /// per workload ([`par_suite`]); [`die`](clp_core::cli::die)s on a
    /// workload that does not compile or a cell that does not run.
    #[must_use]
    pub fn measure(workloads: &[Workload], sizes: &[usize]) -> SuiteMatrix {
        let cfg = LintConfig::default();
        let obs = ObsOptions {
            profile: true,
            ..ObsOptions::default()
        };
        let rows = par_suite(workloads, |w| {
            let name = w.name;
            let cw = compile_workload(w).unwrap_or_else(|e| die(format!("{name}: {e}")));
            let mut violations: Vec<String> = Vec::new();
            let cell = |&cores: &usize| {
                let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(cores), &obs)
                    .unwrap_or_else(|e| die(format!("{name} on {cores} cores: {e}")));
                let pb = bound_program(&cw.edge, &cfg, cores);
                let measured = r.stats.cycles;
                if pb.cycles > measured {
                    violations.push(format!(
                        "{name} on {cores} cores: program bound {} > measured {measured}",
                        pb.cycles
                    ));
                }
                let profile = r.profile.expect("profiling was enabled");
                let spans = profile.block_spans();
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
                Cell {
                    workload: name,
                    cores,
                    bound: pb,
                    measured,
                    ipc: r.stats.procs[0].ipc(),
                    buckets: profile.run_buckets(),
                }
            };
            let cells: Vec<Cell> = sizes.iter().map(cell).collect();
            let samples: Vec<(usize, u64)> =
                cells.iter().map(|c| (c.cores, c.bound.cycles)).collect();
            let one_core = samples.iter().any(|&(c, _)| c == 1);
            let curve = one_core.then(|| (name, SpeedupCurve::analytic(name, &samples)));
            (cells, curve, violations)
        });
        let mut matrix = SuiteMatrix {
            sizes: sizes.to_vec(),
            cells: Vec::new(),
            curves: Vec::new(),
            violations: Vec::new(),
        };
        for (cells, curve, violations) in rows {
            matrix.cells.extend(cells);
            matrix.curves.extend(curve);
            matrix.violations.extend(violations);
        }
        matrix
    }

    /// The `clp-bench-v1` document: cycles, IPC and the run-level
    /// cycle-accounting buckets per cell.
    #[must_use]
    pub fn bench_document(&self) -> Value {
        let rows = self.cells.chunk_by(|a, b| a.workload == b.workload);
        let workloads = rows.map(|row| {
            let runs = row.iter().map(|c| {
                json!({
                    "cores": (c.cores),
                    "cycles": (c.measured),
                    "ipc": (c.ipc),
                    "buckets": (c.buckets)
                })
            });
            let runs: Vec<Value> = runs.collect();
            json!({"name": (row[0].workload), "runs": runs})
        });
        let workloads: Vec<Value> = workloads.collect();
        json!({"schema": "clp-bench-v1", "sizes": (self.sizes), "workloads": workloads})
    }

    /// The `clp-bound-v1` document.
    #[must_use]
    pub fn bound_document(&self) -> Value {
        let cells = self.cells.iter().map(|c| {
            json!({
                "workload": (c.workload),
                "cores": (c.cores),
                "bound": (c.bound.cycles),
                "measured": (c.measured),
                "tightness": (c.tightness()),
                "must_commit": (c.bound.must_commit),
                "terminal": (c.bound.terminal),
                "work_floor": (c.bound.work_floor)
            })
        });
        let cells: Vec<Value> = cells.collect();
        let curves = self.curves.iter();
        let curves: Vec<Value> = curves
            .map(|(name, curve)| json!({"workload": name, "speedup": (curve.speedup)}))
            .collect();
        json!({"schema": "clp-bound-v1", "cores": (self.sizes), "cells": cells, "curves": curves})
    }
}
