//! # clp-power — area and energy models for TFlex and TRIPS
//!
//! Event-based power modeling in the style of Wattch (§6.3): the
//! simulator counts microarchitectural events (cache accesses, ALU
//! operations, register-file and LSQ activity, router hops, predictor
//! lookups), and this crate converts them into per-category power using
//! per-access energies, plus clock-tree power per active core-cycle and
//! an area-based leakage estimate of 8–10% of total power.
//!
//! Absolute constants are *invented but internally consistent* estimates
//! for a 130 nm / 1.5 V / 366 MHz process (DESIGN.md, "Invented constants": the paper's
//! Table 2 numbers come from the TRIPS design database, which is not
//! public). Every reproduced claim is a ratio (performance/area,
//! performance²/W), which depends only on the relative breakdown.

#![warn(missing_docs)]

mod area;
mod energy;
mod metrics;

pub use area::{chip_area_mm2, AreaModel};
pub use energy::{EnergyModel, PowerBreakdown, PowerConfig};
pub use metrics::{perf2_per_watt, perf_per_area};
