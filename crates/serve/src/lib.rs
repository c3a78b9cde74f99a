//! # clp-serve — a deterministic, fault-tolerant simulation service
//!
//! Long-running experiment campaigns treat the simulator as a *service*:
//! jobs (workload, composition size, cycle budget) arrive over time,
//! execute on a fixed number of worker slots, and must survive everything the
//! robustness layers can throw at them — injected protocol faults,
//! scheduled core kills, runaway simulations, even a panicking worker —
//! without dropping or corrupting any *other* job.
//!
//! The subsystem is built from five pieces:
//!
//! - [`job`] — the typed vocabulary: [`JobSpec`], the typed rejections
//!   ([`Rejected`]), and terminal [`JobOutcome`]s.
//! - [`arrivals`] — a seeded open-loop arrival generator; the schedule
//!   is a pure function of `(seed, count)`.
//! - [`cache`] — a content-hashed cache of compiled hyperblock programs
//!   and their lint results, owned by the scheduler so which attempts
//!   hit is deterministic.
//! - [`pool`] — what one attempt runs, and [`pool::run_batch`]: each
//!   dispatch tick's attempts as one `std::thread::scope` fork-join, a
//!   thread per attempt; a panicking attempt ends only its own thread
//!   and comes back as a `Panicked` response. A deadline-killed
//!   attempt's machine comes back with the response and goes out again
//!   with the retry, which continues it instead of re-simulating from
//!   cycle 0.
//! - [`service`] — the virtual-time scheduler: bounded admission queue
//!   with deterministic load shedding and graceful degradation, per-job
//!   cycle-budget deadlines, seeded exponential backoff with jitter for
//!   transient failures, and a full drain on shutdown. Its
//!   [`HostLedger`] counts what the host stepped against what the
//!   attempts were charged.
//! - [`report`] — the pinned `clp-serve-v1` JSON document, and
//!   [`serve_scoped`]: the clp-scope view (from `clp-obs`) of the span
//!   trees the service keeps with its job records — worker occupancy
//!   tracks, a fleet-wide cycle-attribution book summed from per-job
//!   clp-prof books, and a service time series, all replayable
//!   byte-for-byte and all strictly observational (scope on only turns
//!   per-attempt profiling on).
//!
//! The load-bearing property is *replayability*: no wall-clock exists
//! anywhere, every stochastic choice draws from seeded SplitMix64
//! streams, and event classes are processed in a fixed order per virtual
//! tick — so one `(seed, job list)` pair reproduces the entire service
//! run, including every retry, panic, and shed job, byte-for-byte.
//!
//! ```
//! use clp_serve::{arrivals, report::ServiceReport, service};
//!
//! let acfg = arrivals::ArrivalConfig { jobs: 2, seed: 7, ..Default::default() };
//! let scfg = service::ServiceConfig::default();
//! let result = service::serve(arrivals::generate(&acfg), &scfg);
//! let report = ServiceReport::new(&acfg, &scfg, &result);
//! assert_eq!(report.totals.submitted, 2);
//! ```

#![warn(missing_docs)]

pub mod arrivals;
pub mod cache;
pub mod job;
pub mod pool;
pub mod report;
pub mod service;

pub use arrivals::ArrivalConfig;
pub use job::{JobOutcome, JobSpec, Rejected};
pub use report::ServiceReport;
pub use service::{
    serve, serve_scoped, HostLedger, JobRecord, ServiceConfig, ServiceResult, ServiceTotals,
};

/// The pinned benchmark specification behind `clp-serve --bench`, the
/// committed `BENCH_serve.json` / `SCOPE_serve.json` goldens and the
/// tests that replay them: fixed seed, two planted panics, a
/// no-survivor core kill and tight-budget jobs, so one run exercises
/// every fault domain and reproduces byte-for-byte.
#[must_use]
pub fn bench_spec() -> (ArrivalConfig, ServiceConfig) {
    let acfg = ArrivalConfig {
        jobs: 48,
        seed: 42,
        mean_gap: 3_000,
        budget: 200_000,
        tight_every: 7,
        tight_budget: 2_500,
        plant_panic: vec![5, 23],
        kill_at: vec![(11, 800)],
    };
    let scfg = ServiceConfig {
        workers: 4,
        queue_cap: 8,
        degrade_at: 6,
        max_retries: 3,
        seed: 42,
    };
    (acfg, scfg)
}
