//! # clp-bench — the evaluation harness
//!
//! Seven tools, one front door. `clp-fig <name>...` regenerates every
//! table and figure of the paper from the registry in [`figs`] (see
//! DESIGN.md's "Experiments"; `clp-fig list` prints it, `clp-fig all`
//! runs EXPERIMENTS.md's list and closes with the paper-versus-measured
//! table): each figure prints the rows/series the paper reports and
//! writes machine-readable JSON under `target/clp-results/`. Beside it
//! sit `run_one`, `clp-bound`, `clp-diff`, `clp-lint`, `clp-prof` and
//! `clp-trend`; the workspace's eighth tool, `clp-serve`, is the
//! clp-serve crate's. Every one of them declares its flags as a
//! [`clp_core::cli::Spec`] table, so `<tool> --help` is generated from
//! what the tool parses and usage errors share one format and exit
//! code (2).
//!
//! This library holds ([`matrix`]) the one whole-suite measurement that
//! the figures, `clp-bound` and tier-1's goldens all read, and the
//! builders of its two committed documents; ([`figs`]) the
//! figure registry; ([`observe`]) what `clp-prof` and `clp-trend`
//! print; and the small helpers they share.

#![warn(missing_docs)]

use clp_core::cli::{die, write_or_die};
use clp_workloads::Workload;
use serde_json::{json, ToValue, Value};
use std::path::PathBuf;
use std::thread;

pub mod figs;
pub mod matrix;
pub mod observe;

/// One failed `(workload, configuration)` cell of a
/// [`SuiteMatrix`](matrix::SuiteMatrix). A workload that never made it
/// past the compiler fails one `compile` cell and has no other.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// The workload whose cell failed.
    pub workload: String,
    /// The configuration that failed: `tflex-N`, `trips`, `ooo`, `compile`.
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

/// Geometric mean (the paper's cross-benchmark average).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
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
fn save_json<T: ToValue>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("serializable");
    write_or_die(&path.to_string_lossy(), &json);
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SuiteMatrix;

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
        let m = SuiteMatrix::measure(&workloads, &[1, 64]);
        // Only the 64-core cell of each row failed: the 1-core, TRIPS
        // and OoO cells were still measured.
        assert_eq!(m.failures.len(), 2, "one bad cell per workload");
        for f in &m.failures {
            assert_eq!(f.config, "tflex-64");
            assert!(f.error.contains("compose"), "unexpected error: {}", f.error);
        }
        // Rows with a failed cell are excluded from the complete set but
        // surfaced in the failure list.
        assert!(m.rows.is_empty());
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
        let m = SuiteMatrix::measure(&workloads, &[1, 4]);
        assert!(m.failures.is_empty());
        assert_eq!(m.rows.len(), 1);
        assert!(m.rows[0].cycles_at(4) > 0);
        assert!(m.rows[0].ooo.cycles > 0);
    }

    #[test]
    fn smoke_sweep_runs_and_orders() {
        // A few representative workloads at three sizes.
        let workloads: Vec<Workload> = ["conv", "tblook", "bezier"]
            .iter()
            .map(|n| clp_workloads::suite::by_name(n).expect("known"))
            .collect();
        let m = SuiteMatrix::measure(&workloads, &[1, 4, 16]);
        assert!(m.failures.is_empty(), "sweep failed: {}", m.failures[0]);
        assert_eq!(m.rows.len(), 3);
        for r in &m.rows {
            assert!(r.cycles_at(1) >= r.cycles_at(16) / 64, "sane cycles");
            assert!(r.speedup_at(1) == 1.0);
            assert!(r.best_speedup() >= 1.0);
            assert!(r.trips.cycles() > 0 && r.ooo.cycles > 0);
        }
        let rows = m.by_ilp();
        assert_eq!(rows[0].workload.ilp, clp_workloads::IlpClass::Low);
    }
}
