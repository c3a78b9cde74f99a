//! # clp-sim — the TFlex composable-processor simulator
//!
//! A cycle-stepped model of the TFlex CLP microarchitecture (Kim et al.,
//! MICRO 2007): up to 32 dual-issue EDGE cores on a 2-D mesh that can be
//! dynamically aggregated into logical processors of 1-32 cores, plus a
//! TRIPS-prototype configuration of the same machine for the paper's
//! baseline comparisons.
//!
//! The simulator executes EDGE programs *functionally* (every run's
//! outputs are checked against the IR interpreter in the test suite)
//! while charging Table 1 latencies and modeling the paper's distributed
//! protocols:
//!
//! * composable fetch: block-owner hash, next-block prediction,
//!   owner-to-owner hand-off, fetch-command broadcast, sliced dispatch;
//! * composable execution: dataflow wakeup, dual issue, operand routing
//!   over a contended mesh with single-cycle hops;
//! * composable memory: address-interleaved L1/LSQ banks with NACK
//!   overflow handling and violation flushes;
//! * composable commit: completion detection at the owner, 4-phase
//!   commit handshake, dealloc;
//! * misprediction rollback with exact repair of speculative predictor
//!   state.
//!
//! Each protocol is one module under `src/machine/` (`fetch.rs`,
//! `dispatch.rs`, `execute.rs`, `operand.rs`, `commit.rs`, plus
//! `recovery.rs` for hard faults); the header of `machine/mod.rs` is the
//! module map, and DESIGN.md ("Machine anatomy") tabulates the state,
//! derived signals and events of each.
//!
//! ```no_run
//! use clp_sim::{Machine, SimConfig};
//! # fn example(program: clp_isa::EdgeProgram) -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Machine::new(SimConfig::tflex());
//! let pid = m.compose(8, 0, program, &[])?;
//! let stats = m.run()?;
//! println!("cycles: {}", stats.cycles);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod config;
mod events;
pub mod fault;
mod machine;
mod regfile;
mod stats;
mod window;

pub use config::{table1_text, CoreConfig, ProtocolTiming, SimConfig, FP_ISSUE};
pub use fault::{
    CoreKill, FaultKind, FaultPlan, FaultPlanError, FaultStats, ALL_FAULT_KINDS, MAX_KILLS,
};
pub use machine::{ComposeError, Machine, ProcId, RunError};
pub use regfile::{RegFile, RegRead};
pub use stats::{
    CommitLatencyBreakdown, ComposeStats, FetchLatencyBreakdown, ProcStats, RecoveryStats, RunStats,
};
