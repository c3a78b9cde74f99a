//! The two suite matrices behind committed goldens: `clp-bench-v1`
//! (`BENCH_baseline.json`) and `clp-bound-v1` (`BOUND_baseline.json`).
//!
//! Each document has one builder here, called by its tool
//! (`clp-bench`, `clp-bound`) and by the tier-1 test that regenerates
//! it (`tests/goldens.rs`), so what CI gates and what `cargo test`
//! defends are the same bytes.

use crate::par_suite;
use clp_alloc::SpeedupCurve;
use clp_core::cli::die;
use clp_core::{compile_workload, run_compiled_observed, ObsOptions, ProcessorConfig};
use clp_lint::{bound_program, LintConfig, ProgramBound};
use clp_workloads::{suite, Workload};
use serde_json::{json, Value};

/// The composition sizes of both matrices.
pub const BENCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// Both matrices run every cell with the clp-prof layer on.
fn profiled() -> ObsOptions {
    ObsOptions {
        profile: true,
        ..ObsOptions::default()
    }
}

/// Measures the built-in suite at [`BENCH_SIZES`] with the clp-prof
/// layer on and returns the `clp-bench-v1` document: cycles, IPC and
/// the run-level cycle-accounting buckets per `(workload, cores)` cell.
///
/// # Panics
///
/// Panics if a suite workload does not compile or a cell does not run.
#[must_use]
pub fn bench_document() -> Value {
    let obs = profiled();
    let workloads = par_suite(&suite::all(), |w| {
        let cw = compile_workload(w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let runs: Vec<Value> = BENCH_SIZES
            .iter()
            .map(|&n| {
                let r = run_compiled_observed(&cw, &ProcessorConfig::tflex(n), &obs)
                    .unwrap_or_else(|e| panic!("{} on {n} cores: {e}", w.name));
                let buckets = r.profile.expect("profiled").run_buckets();
                json!({
                    "cores": n,
                    "cycles": (r.stats.cycles),
                    "ipc": (r.stats.procs[0].ipc()),
                    "buckets": buckets
                })
            })
            .collect();
        json!({"name": (w.name), "runs": runs})
    });
    json!({"schema": "clp-bench-v1", "sizes": BENCH_SIZES, "workloads": workloads})
}

/// One `(workload, cores)` cell of the bound matrix.
pub struct BoundCell {
    /// Workload name.
    pub workload: &'static str,
    /// Composition size.
    pub cores: usize,
    /// The static program bound.
    pub bound: ProgramBound,
    /// Cycles the simulator measured.
    pub measured: u64,
}

impl BoundCell {
    /// `measured / bound`.
    #[must_use]
    pub fn tightness(&self) -> f64 {
        self.measured as f64 / self.bound.cycles as f64
    }
}

/// The bound matrix over some workloads and sizes: the cells, the
/// analytic speedup sketches `bound(1)/bound(n)` (for workloads swept
/// at one core), and every soundness violation found on the way.
pub struct BoundMatrix {
    /// Composition sizes swept.
    pub sizes: Vec<usize>,
    /// Cells, workload-major.
    pub cells: Vec<BoundCell>,
    /// `(workload, curve)` per workload with a one-core sample.
    pub curves: Vec<(&'static str, SpeedupCurve)>,
    /// A program bound above the measured cycles, or a block bound
    /// above the shortest fetch-to-commit span the profiler saw.
    pub violations: Vec<String>,
}

impl BoundMatrix {
    /// Bounds and measures every `(workload, size)` cell;
    /// [`die`](clp_core::cli::die)s on a workload that does not compile
    /// or a cell that does not run.
    #[must_use]
    pub fn measure(workloads: &[Workload], sizes: &[usize]) -> BoundMatrix {
        let (cfg, obs) = (LintConfig::default(), profiled());
        let mut cells: Vec<BoundCell> = Vec::new();
        let mut violations: Vec<String> = Vec::new();
        for w in workloads {
            let name = w.name;
            let cw = compile_workload(w).unwrap_or_else(|e| die(format!("{name}: {e}")));
            for &cores in sizes {
                let pb = bound_program(&cw.edge, &cfg, cores);
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
                cells.push(BoundCell {
                    workload: name,
                    cores,
                    bound: pb,
                    measured,
                });
            }
        }
        let curves = workloads
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
        BoundMatrix {
            sizes: sizes.to_vec(),
            cells,
            curves,
            violations,
        }
    }

    /// The `clp-bound-v1` document.
    #[must_use]
    pub fn document(&self) -> Value {
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
