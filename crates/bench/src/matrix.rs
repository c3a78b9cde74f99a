//! The one whole-suite measurement: every workload on each TFlex size
//! (clp-prof on), on TRIPS and on the conventional OoO core, once per
//! cell. The `clp-bench-v1` (`BENCH_baseline.json`) and `clp-bound-v1`
//! (`BOUND_baseline.json`) documents, the `clp-fig` figures of the
//! fault-free suite and tier-1's `tests/goldens.rs` (which also pins
//! `goldens/suite_wide.json`) are all views of it, so what the figures
//! divide and what `cargo test` defends are the same cells.

use crate::{par_suite, CellFailure};
use clp_alloc::SpeedupCurve;
use clp_baseline::{run_baseline, BaselineConfig, BaselineResult};
use clp_core::cli::die;
use clp_core::{
    compile_workload, run_compiled, run_compiled_observed, CompiledWorkload, ObsOptions,
    ProcessorConfig, RunFailure, RunOutcome,
};
use clp_lint::{bound_program, LintConfig, ProgramBound};
use clp_obs::BucketCycles;
use clp_workloads::{IlpClass, Workload};
use serde_json::{json, Value};

/// The composition sizes of both committed documents.
pub const BENCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// The composition sizes of the Figure 6–9 sweep.
pub const SWEEP_SIZES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One `(workload, cores)` TFlex cell: the clp-prof-on run, beside the
/// static bound it was held to.
pub struct Cell {
    /// Composition size.
    pub cores: usize,
    /// The verified run, its clp-prof report included.
    pub outcome: RunOutcome,
    /// The static program bound.
    pub bound: ProgramBound,
}

impl Cell {
    /// Measured cycles over bound cycles.
    #[must_use]
    pub fn tightness(&self) -> f64 {
        self.outcome.stats.cycles as f64 / self.bound.cycles as f64
    }

    /// The run-level cycle-accounting buckets.
    #[must_use]
    pub fn buckets(&self) -> BucketCycles {
        let profile = self.outcome.profile.as_ref();
        profile.expect("profiling was enabled").run_buckets()
    }
}

/// One workload whose every cell ran and verified.
pub struct Row {
    /// The workload.
    pub workload: Workload,
    /// One cell per measured size, in measured order.
    pub tflex: Vec<Cell>,
    /// The TRIPS baseline run.
    pub trips: RunOutcome,
    /// The conventional OoO run, held to the same golden.
    pub ooo: BaselineResult,
}

impl Row {
    /// The TFlex cell at `n` cores; panics if the size was not measured.
    #[must_use]
    pub fn at(&self, n: usize) -> &Cell {
        let cell = self.tflex.iter().find(|c| c.cores == n);
        cell.unwrap_or_else(|| panic!("size {n} not measured"))
    }

    /// The TFlex cells at `sizes`, in measured order.
    fn cells_at<'a>(&'a self, sizes: &'a [usize]) -> impl Iterator<Item = &'a Cell> {
        self.tflex.iter().filter(|c| sizes.contains(&c.cores))
    }

    /// Cycles at a TFlex size.
    #[must_use]
    pub fn cycles_at(&self, n: usize) -> u64 {
        self.at(n).outcome.cycles()
    }

    /// Speedup over one TFlex core at a given size.
    #[must_use]
    pub fn speedup_at(&self, n: usize) -> f64 {
        self.cycles_at(1) as f64 / self.cycles_at(n) as f64
    }

    /// The best (fastest) TFlex size.
    #[must_use]
    pub fn best_size(&self) -> usize {
        let best = self.tflex.iter().min_by_key(|c| c.outcome.cycles());
        best.expect("measured").cores
    }

    /// Speedup of the per-application best configuration.
    #[must_use]
    pub fn best_speedup(&self) -> f64 {
        self.speedup_at(self.best_size())
    }
}

/// Some workloads measured at some TFlex sizes, on TRIPS and on the OoO
/// core: the complete rows, every failed cell, and every soundness
/// violation found on the way.
#[derive(Default)]
pub struct SuiteMatrix {
    /// The rows whose every cell ran, in input order.
    pub rows: Vec<Row>,
    /// Every cell that failed; its row is not in `rows`.
    pub failures: Vec<CellFailure>,
    /// A program bound above the measured cycles, or a block bound
    /// above the shortest fetch-to-commit span the profiler saw.
    pub violations: Vec<String>,
}

impl SuiteMatrix {
    /// Measures each workload on its own thread ([`par_suite`]): compiled
    /// once, run and bounded at each of `sizes`, run on TRIPS, and run on
    /// the OoO core, whose outputs are held to the workload's golden. A
    /// failed cell is recorded in `failures`, and its row left out.
    #[must_use]
    pub fn measure(workloads: &[Workload], sizes: &[usize]) -> SuiteMatrix {
        Self::measure_with(workloads, sizes, compile_workload)
    }

    /// [`SuiteMatrix::measure`] with `compile` for [`compile_workload`].
    fn measure_with(
        workloads: &[Workload],
        sizes: &[usize],
        compile: impl Fn(&Workload) -> Result<CompiledWorkload, RunFailure> + Sync,
    ) -> SuiteMatrix {
        let parts = par_suite(workloads, |w| {
            let mut part = SuiteMatrix::default();
            part.measure_row(w, sizes, &compile);
            part
        });
        let mut matrix = SuiteMatrix::default();
        for part in parts {
            matrix.rows.extend(part.rows);
            matrix.failures.extend(part.failures);
            matrix.violations.extend(part.violations);
        }
        matrix
    }

    /// Measures `w`'s cells into `self`, and its row if none failed.
    fn measure_row(
        &mut self,
        w: &Workload,
        sizes: &[usize],
        compile: impl Fn(&Workload) -> Result<CompiledWorkload, RunFailure>,
    ) {
        let Some(cw) = self.keep(w, "compile", compile(w).map_err(|e| e.to_string())) else {
            return;
        };
        let mut tflex = Vec::new();
        for &n in sizes {
            let cell = tflex_cell(&cw, n, &mut self.violations);
            tflex.push(self.keep(w, &format!("tflex-{n}"), cell));
        }
        let trips = run_compiled(&cw, &ProcessorConfig::trips()).map_err(|e| e.to_string());
        let trips = self.keep(w, "trips", trips);
        let ooo = self.keep(w, "ooo", ooo_cell(&cw));
        if let (Some(tflex), Some(trips), Some(ooo)) = (tflex.into_iter().collect(), trips, ooo) {
            let workload = w.clone();
            self.rows.push(Row {
                workload,
                tflex,
                trips,
                ooo,
            });
        }
    }

    /// `r`'s value, or `None` with its error recorded for `w`'s `config`.
    fn keep<T>(&mut self, w: &Workload, config: &str, r: Result<T, String>) -> Option<T> {
        let (workload, config) = (w.name.to_string(), config.to_string());
        let failed = |error| CellFailure {
            workload,
            config,
            error,
        };
        r.map_err(|e| self.failures.push(failed(e))).ok()
    }

    /// The matrix, or [`die`] naming its first failed cell.
    #[must_use]
    pub fn complete_or_die(self) -> SuiteMatrix {
        if let Some(f) = self.failures.first() {
            die(f);
        }
        self
    }

    /// The rows in Figure 6's x-axis order: low-ILP benchmarks first,
    /// then high-ILP, alphabetical within each group.
    #[must_use]
    pub(crate) fn by_ilp(&self) -> Vec<&Row> {
        let mut rows: Vec<&Row> = self.rows.iter().collect();
        rows.sort_by_key(|r| (r.workload.ilp == IlpClass::High, r.workload.name));
        rows
    }

    /// The analytic speedup sketch `bound(1)/bound(n)` over `sizes`, per
    /// row, when `sizes` holds one core.
    #[must_use]
    pub fn curves(&self, sizes: &[usize]) -> Vec<SpeedupCurve> {
        let rows = self.rows.iter().filter(|_| sizes.contains(&1));
        let curve = |r: &Row| {
            let cells = r.cells_at(sizes);
            let samples: Vec<(usize, u64)> = cells.map(|c| (c.cores, c.bound.cycles)).collect();
            SpeedupCurve::analytic(r.workload.name, &samples)
        };
        rows.map(curve).collect()
    }

    /// The `clp-bench-v1` document of the cells at `sizes`: cycles, IPC
    /// and the run-level cycle-accounting buckets per cell.
    #[must_use]
    pub fn bench_document(&self, sizes: &[usize]) -> Value {
        let workloads = self.rows.iter().map(|r| {
            let runs = r.cells_at(sizes).map(|c| {
                json!({
                    "cores": (c.cores),
                    "cycles": (c.outcome.stats.cycles),
                    "ipc": (c.outcome.stats.procs[0].ipc()),
                    "buckets": (c.buckets())
                })
            });
            let runs: Vec<Value> = runs.collect();
            json!({"name": (r.workload.name), "runs": runs})
        });
        let workloads: Vec<Value> = workloads.collect();
        json!({"schema": "clp-bench-v1", "sizes": sizes, "workloads": workloads})
    }

    /// The `clp-bound-v1` document of the cells at `sizes`.
    #[must_use]
    pub fn bound_document(&self, sizes: &[usize]) -> Value {
        let rows = self.rows.iter();
        let cells = rows.flat_map(|r| r.cells_at(sizes).map(move |c| (r, c)));
        let cells = cells.map(|(r, c)| {
            json!({
                "workload": (r.workload.name),
                "cores": (c.cores),
                "bound": (c.bound.cycles),
                "measured": (c.outcome.stats.cycles),
                "tightness": (c.tightness()),
                "must_commit": (c.bound.must_commit),
                "terminal": (c.bound.terminal),
                "work_floor": (c.bound.work_floor)
            })
        });
        let cells: Vec<Value> = cells.collect();
        let curves = self.curves(sizes).into_iter();
        let curves: Vec<Value> = curves
            .map(|c| json!({"workload": (c.name), "speedup": (c.speedup)}))
            .collect();
        json!({"schema": "clp-bound-v1", "cores": sizes, "cells": cells, "curves": curves})
    }
}

/// Runs `cw` on `cores` TFlex cores with clp-prof on and holds the
/// static bound to the run, pushing every unsound bound to `violations`.
fn tflex_cell(
    cw: &CompiledWorkload,
    cores: usize,
    violations: &mut Vec<String>,
) -> Result<Cell, String> {
    let obs = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    let outcome = run_compiled_observed(cw, &ProcessorConfig::tflex(cores), &obs)
        .map_err(|e| e.to_string())?;
    let profile = outcome.profile.as_ref().expect("profiling was enabled");
    let bound = bound_program(&cw.edge, &LintConfig::default(), cores);
    let name = cw.workload.name;
    let measured = outcome.stats.cycles;
    if bound.cycles > measured {
        violations.push(format!(
            "{name} on {cores} cores: program bound {} > measured {measured}",
            bound.cycles
        ));
    }
    let spans = profile.block_spans();
    for bb in &bound.blocks {
        if let Some(s) = spans.get(&bb.addr) {
            if bb.cycles > s.min_cycles {
                violations.push(format!(
                    "{name} on {cores} cores: block @{:#x} bound {} ({}) > measured min span {}",
                    bb.addr,
                    bb.cycles,
                    bb.binding.label(),
                    s.min_cycles
                ));
            }
        }
    }
    Ok(Cell {
        cores,
        outcome,
        bound,
    })
}

/// Runs `cw`'s workload on the conventional OoO core and holds its
/// return value and checked regions to `cw`'s golden.
fn ooo_cell(cw: &CompiledWorkload) -> Result<BaselineResult, String> {
    let w = &cw.workload;
    let r = run_baseline(&w.program, &w.args, &w.init_mem, &BaselineConfig::core2());
    let golden = &cw.golden;
    if w.check.check_ret && r.ret != golden.ret {
        return Err(format!(
            "verify: return value {:?}, expected {:?}",
            r.ret, golden.ret
        ));
    }
    // The return value matched or is not checked: hold the regions.
    let verified = w.verify_against(golden, golden.ret.unwrap_or_default(), &r.image);
    verified.map(|()| r).map_err(|e| format!("verify: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_workloads::suite;

    #[test]
    fn a_wrong_ooo_output_is_a_cell_failure() {
        // conv's golden with one checked word altered: no engine can
        // match it, and the OoO cell must say so rather than pass.
        let w = suite::by_name("conv").expect("known");
        let (base, _) = w.check.regions[0];
        let altered = |w: &Workload| {
            let mut cw = compile_workload(w)?;
            let word = cw.golden.image.read_u64(base);
            cw.golden.image.write_u64(base, word ^ 1);
            Ok(cw)
        };
        let m = SuiteMatrix::measure_with(&[w], &[1], altered);
        assert!(m.rows.is_empty(), "a row with a failed cell is left out");
        let ooo = m.failures.iter().find(|f| f.config == "ooo");
        let ooo = ooo.expect("the OoO cell failed");
        assert!(
            ooo.error.contains(&format!("{base:#x}")),
            "the failure names the word: {ooo}"
        );
    }
}
