//! # clp-bench — the evaluation harness
//!
//! Eight tools, one front door. `clp-fig <name>...` regenerates every
//! table and figure of the paper from the registry in [`figs`] (see
//! DESIGN.md's experiment index; `clp-fig list` prints it, `clp-fig all`
//! runs EXPERIMENTS.md's list and closes with the paper-versus-measured
//! table): each figure prints the rows/series the paper reports and
//! writes machine-readable JSON under `target/clp-results/`. Beside it
//! sit `run_one`, `clp-bench`, `clp-bound`, `clp-diff`, `clp-lint`,
//! `clp-prof` and `clp-trend`. Every one of them declares its flags as a
//! [`clp_core::cli::Spec`] table, so `<tool> --help` is generated from
//! what the tool parses and usage errors share one format and exit
//! code (2).
//!
//! This library holds the shared sweep machinery: parallel measurement of
//! every workload at every composition size plus the TRIPS baseline,
//! small statistics helpers, ([`matrix`]) the builders of the two
//! suite documents with committed goldens, and ([`observe`]) what
//! `clp-prof` and `clp-trend` print.

#![warn(missing_docs)]

use clp_core::cli::{die, write_or_die};
use clp_core::{compile_workload, run_compiled, ProcessorConfig, RunOutcome};
use clp_workloads::{IlpClass, Workload};
use serde_json::{json, ToValue, Value};
use std::borrow::Borrow;
use std::path::PathBuf;
use std::thread;

pub mod figs;
pub mod matrix;
pub mod observe;

/// The composition sizes of the Figure 6–8 sweeps.
pub const SWEEP_SIZES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Measured results for one workload across the sweep.
pub struct BenchRow {
    /// The workload.
    pub workload: Workload,
    /// `(cores, outcome)` for each TFlex size.
    pub tflex: Vec<(usize, RunOutcome)>,
    /// The TRIPS baseline outcome.
    pub trips: RunOutcome,
}

impl BenchRow {
    /// Cycles at a TFlex size.
    ///
    /// # Panics
    ///
    /// Panics if the size was not swept.
    #[must_use]
    pub fn cycles_at(&self, n: usize) -> u64 {
        self.tflex
            .iter()
            .find(|(c, _)| *c == n)
            .map(|(_, r)| r.cycles())
            .unwrap_or_else(|| panic!("size {n} not swept"))
    }

    /// Speedup over one TFlex core at a given size.
    #[must_use]
    pub fn speedup_at(&self, n: usize) -> f64 {
        self.cycles_at(1) as f64 / self.cycles_at(n) as f64
    }

    /// The best (fastest) TFlex size.
    #[must_use]
    pub fn best_size(&self) -> usize {
        self.tflex
            .iter()
            .min_by_key(|(_, r)| r.cycles())
            .map(|(c, _)| *c)
            .expect("swept")
    }

    /// Speedup of the per-application best configuration.
    #[must_use]
    pub fn best_speedup(&self) -> f64 {
        self.speedup_at(self.best_size())
    }

    /// TFlex-vs-TRIPS speedup at a given size (>1 means TFlex wins).
    #[must_use]
    pub fn vs_trips_at(&self, n: usize) -> f64 {
        self.trips.cycles() as f64 / self.cycles_at(n) as f64
    }
}

/// One failed `(workload, configuration)` cell of a sweep.
///
/// `config` names the failing organization: `tflex-N` or `trips`. A
/// workload that never made it past the compiler fails every cell of its
/// row.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// The workload whose cell failed.
    pub workload: String,
    /// The configuration that failed (`tflex-N`, `trips`, `compile`).
    pub config: String,
    /// The rendered error.
    pub error: String,
}

impl ToValue for CellFailure {
    fn to_value(&self) -> Value {
        json!({"workload": (self.workload), "config": (self.config), "error": (self.error)})
    }
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.workload, self.config, self.error)
    }
}

/// Runs `f` on every workload in parallel (one thread per workload) and
/// returns the results in input order. A panic in `f` is re-raised here
/// once every thread has finished.
pub fn par_suite<T: Send>(workloads: &[Workload], f: impl Fn(&Workload) -> T + Sync) -> Vec<T> {
    thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                let f = &f;
                scope.spawn(move || f(w))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Sweeps every workload over `sizes` plus TRIPS, in parallel (see
/// [`par_suite`]), preserving input order. Every cell's outcome carries
/// the stats snapshot `clp-fig --stats-json` dumps. A failing cell is
/// recorded and the sweep keeps going — one bad `(workload, size)`
/// combination never kills a whole figure.
///
/// Returns the fully-successful rows (ready for the figure math, which
/// needs every size present) and the failed cells (for the warning log
/// and the JSON report): a row with any failed cell is left out of the
/// first list and its failed cells are in the second.
#[must_use]
pub fn sweep_suite_resilient(
    workloads: &[Workload],
    sizes: &[usize],
) -> (Vec<BenchRow>, Vec<CellFailure>) {
    let cells = par_suite(workloads, |w| {
        let cw = compile_workload(w).map_err(|e| e.to_string());
        // A compile failure fails every cell of the row.
        let run = |cfg: ProcessorConfig| match &cw {
            Ok(cw) => run_compiled(cw, &cfg).map_err(|e| e.to_string()),
            Err(e) => Err(e.clone()),
        };
        let tflex: Vec<_> = sizes
            .iter()
            .map(|&n| (n, run(ProcessorConfig::tflex(n))))
            .collect();
        (tflex, run(ProcessorConfig::trips()))
    });
    let mut rows = Vec::with_capacity(workloads.len());
    let mut failures = Vec::new();
    for (w, (cells, trips)) in workloads.iter().zip(cells) {
        let mut failed = |config: String, error: String| {
            failures.push(CellFailure {
                workload: w.name.to_string(),
                config,
                error,
            });
        };
        let mut tflex = Vec::with_capacity(cells.len());
        for (n, r) in cells {
            match r {
                Ok(outcome) => tflex.push((n, outcome)),
                Err(e) => failed(format!("tflex-{n}"), e),
            }
        }
        match trips {
            Ok(trips) if tflex.len() == sizes.len() => rows.push(BenchRow {
                workload: w.clone(),
                tflex,
                trips,
            }),
            // A failed TFlex cell leaves the row out.
            Ok(_) => {}
            Err(e) => failed("trips".to_string(), e),
        }
    }
    (rows, failures)
}

/// Geometric mean (the paper's cross-benchmark average).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Orders rows (owned or borrowed) for the Figure 6 x-axis: low-ILP
/// benchmarks first, then high-ILP, alphabetical within each group.
pub fn order_by_ilp<R: Borrow<BenchRow>>(rows: &mut [R]) {
    rows.sort_by_key(|r| {
        let w = &r.borrow().workload;
        (
            match w.ilp {
                IlpClass::Low => 0,
                IlpClass::High => 1,
            },
            w.name,
        )
    });
}

/// The directory where the figures drop machine-readable results,
/// created on first use; exits 2 if it cannot be.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("clp-results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        die(format!("cannot create `{}`: {e}", dir.display()));
    }
    dir
}

/// Serializes `value` as pretty JSON into `target/clp-results/<name>`;
/// exits 2 if the file cannot be written.
pub fn save_json<T: ToValue>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("serializable");
    write_or_die(&path.to_string_lossy(), &json);
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn resilient_sweep_reports_failed_cells_and_keeps_going() {
        // 64 cores is not a valid composition: that cell fails, the rest
        // of the row (and the other workloads) still produce results.
        let workloads: Vec<Workload> = ["conv", "bezier"]
            .iter()
            .map(|n| clp_workloads::suite::by_name(n).expect("known"))
            .collect();
        let (rows, failures) = sweep_suite_resilient(&workloads, &[1, 64]);
        // Only the 64-core cell of each row failed: the 1-core and TRIPS
        // cells were still measured.
        assert_eq!(failures.len(), 2, "one bad cell per workload");
        for f in &failures {
            assert_eq!(f.config, "tflex-64");
            assert!(f.error.contains("compose"), "unexpected error: {}", f.error);
        }
        // Rows with a failed cell are excluded from the complete set but
        // surfaced in the failure list.
        assert!(rows.is_empty());
    }

    /// No golden holds a sweep with a failed cell: pin how the figure
    /// documents print the failure list.
    #[test]
    fn cell_failures_have_a_pinned_json_shape() {
        let failures = vec![
            CellFailure {
                workload: "conv".into(),
                config: "tflex-64".into(),
                error: "compose: 64 cores".into(),
            },
            CellFailure {
                workload: "gcc".into(),
                config: "compile".into(),
                error: "line\nbreak".into(),
            },
        ];
        assert_eq!(
            serde_json::to_string(&failures).unwrap(),
            r#"[{"workload":"conv","config":"tflex-64","error":"compose: 64 cores"},{"workload":"gcc","config":"compile","error":"line\nbreak"}]"#
        );
    }

    #[test]
    fn resilient_sweep_clean_run_is_complete() {
        let workloads = [clp_workloads::suite::by_name("conv").expect("known")];
        let (rows, failures) = sweep_suite_resilient(&workloads, &[1, 4]);
        assert!(failures.is_empty());
        assert_eq!(rows.len(), 1);
        assert!(rows[0].cycles_at(4) > 0);
    }

    #[test]
    fn smoke_sweep_runs_and_orders() {
        // A few representative workloads at three sizes.
        let workloads: Vec<Workload> = ["conv", "tblook", "bezier"]
            .iter()
            .map(|n| clp_workloads::suite::by_name(n).expect("known"))
            .collect();
        let (mut rows, failures) = sweep_suite_resilient(&workloads, &[1, 4, 16]);
        assert!(failures.is_empty(), "sweep failed: {}", failures[0]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.cycles_at(1) >= r.cycles_at(16) / 64, "sane cycles");
            assert!(r.speedup_at(1) == 1.0);
            assert!(r.best_speedup() >= 1.0);
            assert!(r.vs_trips_at(4) > 0.0);
        }
        order_by_ilp(&mut rows);
        assert_eq!(rows[0].workload.ilp, clp_workloads::IlpClass::Low);
    }
}
