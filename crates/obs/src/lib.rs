//! Observability for the CLP/TFlex simulation stack.
//!
//! The paper's results (Figures 5–10) are all derived views of
//! microarchitectural events — fetch/commit latency breakdowns, operand
//! network occupancy, flush causes. This crate makes those events
//! first-class:
//!
//! - [`TraceEvent`] is a typed vocabulary for the block lifecycle
//!   (fetch → issue → commit/flush), memory system activity (LSQ NACKs,
//!   cache misses, ordering violations), operand/control mesh routing,
//!   and next-block prediction.
//! - [`TraceSink`] is the pluggable consumer trait, with three
//!   implementations: [`NullSink`] (drops everything; used to prove the
//!   hooks stay off the hot path), [`RingRecorder`] (last-N events in
//!   memory, for tests and debugging), and [`ChromeTraceWriter`]
//!   (Chrome trace-event JSON that loads directly in Perfetto).
//! - [`Tracer`] is the cheap cloneable handle distributed to every
//!   subsystem. When tracing is off it is a single `Option` branch and
//!   the event-constructing closure never runs.
//! - [`StatsSnapshot`] unifies the per-subsystem stats structs
//!   (`ProcStats`, `MemStats`, `MeshStats`, `PredictorStats`) into one
//!   hierarchical, serde-serializable tree of end-of-run totals,
//!   addressed by `"mem/l1d_hits"`-style paths.
//! - [`ProfileReport`] (the clp-prof data model) carries the top-down
//!   cycle-accounting buckets and critical-path attribution the
//!   simulator extracts from last-arrival dependence edges; see
//!   [`profile`] for the bucket taxonomy.
//! - [`TrendReport`] (the clp-trend data model) is the one time series
//!   of a run: integer columns over values its caller hands in — any
//!   set of stats-registry paths, plus the profiler's buckets and
//!   per-core heat rows when it is handed them — with a deterministic
//!   integer-only phase detector on top; see [`trend`].
//! - [`diff`] flattens any two JSON documents into path-keyed leaves
//!   and ranks the ones that moved (the clp-diff library);
//!   [`check_golden`] is the one equality gate every committed golden
//!   goes through.
//! - [`scope`] (the clp-scope data model) lifts the same discipline to
//!   the service layer: the per-job lifecycle span trees on virtual time
//!   that clp-serve keeps as part of its job records, and [`ScopeReport`],
//!   a view over them — worker occupancy tracks, a fleet-wide top-down
//!   cycle book rolled up per workload class and composition size, and a
//!   service time series handed to the trend recorder.

pub mod diff;
pub mod event;
pub mod latency;
pub mod profile;
pub mod scope;
pub mod sink;
pub mod snapshot;
pub mod trend;

pub use diff::{
    check_golden, diff_documents, digest_golden, fnv1a64, AttributionReport, DiffEntry, TextEntry,
};
pub use event::{CacheLevel, FlushReason, TraceEvent};
pub use latency::LatencySummary;
pub use profile::{BlockSpanStat, Bucket, BucketCycles, ProcProfile, ProfileReport, NUM_BUCKETS};
pub use scope::{
    AttemptEnd, AttemptSpan, ClassBook, FleetBook, JobSpans, ScopeOptions, ScopeReport, Span,
    Terminal, WorkerSlice, WorkerTrack,
};
pub use sink::{ChromeTraceWriter, NullSink, RingRecorder, TraceSink, Tracer};
pub use snapshot::{Metric, MetricValue, StatsNode, StatsSnapshot};
pub use trend::{ColumnKind, Phase, TrendColumn, TrendOptions, TrendRecorder, TrendReport};

/// A `json!` object minus its `null` fields: how the emitters spell an
/// optional key (none of this crate's documents carries a `null`).
pub(crate) fn skip_nulls(mut object: serde::Value) -> serde::Value {
    if let serde::Value::Object(fields) = &mut object {
        fields.retain(|(_, v)| !v.is_null());
    }
    object
}
