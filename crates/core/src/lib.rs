//! # clp-core — the high-level Composable Lightweight Processor API
//!
//! Ties the stack together for users and for the evaluation harness:
//! compile a [`Workload`](clp_workloads::Workload) once, run it on any processor organization
//! (TFlex compositions of 1–32 cores, or the TRIPS baseline), verify the
//! outputs against the reference interpreter, and collect performance,
//! power, and area metrics. Runs across composition sizes feed the
//! Figure 6–8 plots and the Figure 10 allocator.
//!
//! ```no_run
//! use clp_core::{run_workload, ProcessorConfig};
//! use clp_workloads::suite;
//!
//! let w = suite::by_name("conv").expect("exists");
//! let r = run_workload(&w, &ProcessorConfig::tflex(8)).expect("runs");
//! println!("{} cycles, {:.2} W", r.stats.cycles, r.power.total());
//! ```

#![warn(missing_docs)]

pub mod cli;
mod multiprogram;
mod run;

pub use multiprogram::{run_multiprogram, MultiOutcome, PlacementError, ProgramSpec};
pub use run::{
    compile_workload, run_compiled, run_compiled_observed, run_workload, CompiledWorkload,
    FailureClass, ObsOptions, ProcessorConfig, ProcessorKind, Run, RunFailure, RunOutcome, Stopped,
};
// Fault-injection vocabulary, re-exported so harnesses and tests can
// build plans without depending on clp-sim directly.
pub use clp_sim::{FaultKind, FaultPlan, FaultStats, ALL_FAULT_KINDS};
