//! # clp-predictor — the composable next-block predictor
//!
//! TFlex makes one control-flow prediction per 128-instruction
//! hyperblock. The predictor is *fully distributed*: every core carries an
//! identical bank of prediction state, and a block's predictions are made
//! by its owner core's bank (block ownership is a hash of the block
//! address, so bank capacity scales with composition size).
//!
//! A prediction proceeds in two stages, mirroring §4.3 of the paper:
//!
//! 1. **Exit prediction** — an Alpha-21264-style tournament (local /
//!    global / choice) over three-bit *exit IDs* rather than single
//!    taken/not-taken bits.
//! 2. **Target prediction** — a branch-type (`Btype`) table picks the
//!    mechanism: BTB for regular branches, CTB for calls, a distributed
//!    Return Address Stack for returns, and a next-sequential-address
//!    adder otherwise.
//!
//! The RAS is *sequentially* partitioned across the composed cores into
//! one logical stack (entries `0..16` on core 0, `16..32` on core 1, ...);
//! [`Prediction::ras_core`] names the core that held the top, so that the
//! simulator can charge the push/pop message latency.
//!
//! Histories are updated speculatively at predict time. Every prediction
//! carries a checkpoint; on a misprediction the owner calls
//! [`ComposedPredictor::resolve`] with the prediction and the actual
//! outcome, which rolls the speculative state back and reapplies the
//! correct history, exactly as the mispredicting owner does in hardware.

#![warn(missing_docs)]

mod composed;
mod config;
mod exit;
mod ras;
mod tables;
mod target;

pub use composed::{block_owner, ComposedPredictor, ExitOutcome, Prediction, PredictorStats};
pub use config::{PredictorConfig, PREDICT_LATENCY};
pub use ras::ReturnAddressStack;
