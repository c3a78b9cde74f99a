//! # clp-mem — the composable memory system
//!
//! TFlex address-partitions every memory structure so that capacity and
//! bandwidth scale with composition size (§4.5):
//!
//! * **L1 data caches** — one 8 KB bank per core. A composed processor
//!   interleaves cache lines across its participating banks with the XOR
//!   hash [`dbank_for`]; every additional core adds a port and 8 KB.
//! * **Load/store queues** — one 44-entry bank per core, interleaved with
//!   the same hash. A full bank NACKs the request and the core retries
//!   (the low-overhead overflow handling of Sethumadhavan et al. cited in
//!   §4.5). The LSQ performs store-to-load forwarding at byte granularity
//!   and detects ordering violations.
//! * **L1 instruction caches** — one 8 KB bank per core holding that
//!   core's *slice* of each block.
//! * **L2** — a 4 MB shared S-NUCA cache of 32 banks with
//!   distance-dependent latency (5-27 cycles) and a directory that tracks
//!   L1 sharers, so composition changes need no flush: stale lines are
//!   invalidated or forwarded on demand.
//! * **DRAM** — a flat 150-cycle-latency memory.
//!
//! Functional values live in a [`MemoryImage`]; caches and queues model
//! *state and timing* only. Speculative stores are buffered in the LSQ
//! and reach the image only at block commit, giving correct rollback for
//! free.

#![warn(missing_docs)]

mod cache;
mod config;
mod image;
mod l2;
mod lsq;
mod stats;
mod system;

pub use cache::{AccessResult, CacheBank, CacheGeometry};
pub use config::{
    DRAM_LATENCY, L1D_BYTES, L1D_HIT_LATENCY, L1D_WAYS, L1I_BYTES, L1I_HIT_LATENCY, L2_BYTES,
    L2_MAX_LATENCY, L2_MIN_LATENCY, L2_WAYS, LSQ_ENTRIES,
};
pub use image::MemoryImage;
pub use l2::MAX_CHIP_CORES;
pub use lsq::{LsqBank, LsqInsert};
pub use stats::MemStats;
pub use system::{
    dbank_for, EvacuationReport, LoadResponse, LoadServe, MemorySystem, StoreResponse,
};
