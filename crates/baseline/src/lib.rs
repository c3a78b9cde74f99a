//! # clp-baseline — a conventional out-of-order superscalar reference
//!
//! The paper's Figure 5 calibrates TRIPS against a measured Intel Core2
//! Duo. That hardware (and its compiler) cannot be reproduced here, so
//! this crate provides the closest synthetic equivalent: a conventional
//! 4-wide out-of-order core with a gshare branch predictor, a 96-entry
//! window, and a classic two-level cache hierarchy, running the *same
//! mini-IR programs* as the EDGE stack. Calls and returns only redirect
//! fetch (there is no return-address stack).
//!
//! The model is timing only: [`clp_compiler::interpret_with`] executes
//! the program and reports each step, and the model charges it. Values,
//! addresses, branch outcomes and the final image are the reference
//! interpreter's.
//!
//! Timing uses the standard dataflow approximation for OoO cores: each
//! dynamic operation issues at the maximum of its fetch cycle, operand
//! ready times, and functional-unit availability; the instruction window
//! and fetch width bound parallelism; branch mispredictions stall fetch
//! until resolution plus a redirect penalty. This model captures exactly
//! the effects the comparison needs (ILP extraction limits, branch and
//! memory sensitivity) without pretending to be a validated Core2 model —
//! the figure's claim is about *relative shape* (see DESIGN.md, "Substitutions").

#![warn(missing_docs)]

mod ooo;

pub use ooo::{run_baseline, BaselineConfig, BaselineResult};
