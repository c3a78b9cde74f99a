//! The reports of a service run: the `clp-serve-v1` document, a pinned,
//! serde-serialized view of the records, and [`serve_scoped`], the
//! clp-scope view of the span trees.
//!
//! Because the service is deterministic, the same `(seed, config)`
//! reproduces the report *byte-for-byte* — the replay golden test pins
//! that, and `clp-serve --bench --check BENCH_serve.json` (CI, and
//! tier-1 through `tests/scope.rs`) holds a fresh run to the committed
//! document with `clp_obs::check_golden`, the same equality gate every
//! other golden goes through.

use crate::arrivals::ArrivalConfig;
use crate::job::JobSpec;
use crate::service::{serve, serve_with, JobRecord, ServiceConfig, ServiceResult, ServiceTotals};
use clp_obs::{LatencySummary, ScopeOptions, ScopeReport};
use serde::Serialize;

/// [`serve`] with clp-scope: with `scope` set, every attempt runs under
/// clp-prof and the run is followed by [`ScopeReport::new`] over its
/// span trees — a pure function of `(arrival schedule, config, scope
/// options)` that replays byte-identically. Profiling never changes a
/// cycle count, so the result is `serve`'s but for the completed jobs'
/// books in the spans. With `scope: None` this *is* `serve`.
#[must_use]
pub fn serve_scoped(
    schedule: Vec<(u64, JobSpec)>,
    cfg: &ServiceConfig,
    scope: Option<&ScopeOptions>,
) -> (ServiceResult, Option<ScopeReport>) {
    let Some(opts) = scope else {
        return (serve(schedule, cfg), None);
    };
    let result = serve_with(schedule, cfg, true);
    let drained_at = result.totals.drained_at;
    let workers = cfg.workers.max(1);
    let view = ScopeReport::new(result.spans.clone(), workers, drained_at, cfg.seed, opts);
    (result, Some(view))
}

/// Schema tag of the serialized report.
pub const SCHEMA: &str = "clp-serve-v1";

/// The full report document.
#[derive(Clone, Debug, Serialize)]
pub struct ServiceReport {
    /// Schema tag (`clp-serve-v1`).
    pub schema: String,
    /// Arrival-generator seed (the replay key, together with the
    /// configs echoed below).
    pub seed: u64,
    /// Jobs in the arrival schedule.
    pub jobs_generated: usize,
    /// Mean interarrival gap in ticks.
    pub mean_gap: u64,
    /// Service policy configuration (echoed for replay).
    pub config: ServiceConfig,
    /// Aggregate counters.
    pub totals: ServiceTotals,
    /// Sojourn-latency summary over completed jobs, in virtual ticks.
    pub latency_ticks: LatencySummary,
    /// Completed jobs per 1000 ticks of drained service time.
    pub throughput_per_ktick: f64,
    /// Per-job terminal records, sorted by id.
    pub jobs: Vec<JobRecord>,
}

impl ServiceReport {
    /// Assembles the report from a drained service run.
    #[must_use]
    pub fn new(arrivals: &ArrivalConfig, cfg: &ServiceConfig, result: &ServiceResult) -> Self {
        let mut samples = result.latencies.clone();
        let latency = LatencySummary::from_samples(&mut samples);
        let drained = result.totals.drained_at.max(1);
        ServiceReport {
            schema: SCHEMA.to_string(),
            seed: arrivals.seed,
            jobs_generated: arrivals.jobs,
            mean_gap: arrivals.mean_gap,
            config: cfg.clone(),
            totals: result.totals,
            latency_ticks: latency,
            throughput_per_ktick: result.totals.completed as f64 * 1000.0 / drained as f64,
            jobs: result.records.clone(),
        }
    }

    /// Pinned pretty-printed JSON (byte-stable for a given run).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::generate;
    use serde::Value;

    fn small_report() -> ServiceReport {
        let acfg = ArrivalConfig {
            jobs: 4,
            seed: 9,
            mean_gap: 5_000,
            ..ArrivalConfig::default()
        };
        let scfg = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let result = serve(generate(&acfg), &scfg);
        ServiceReport::new(&acfg, &scfg, &result)
    }

    #[test]
    fn report_serializes_with_schema_tag() {
        let r = small_report();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"clp-serve-v1\""));
        let v: Value = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(v["seed"].as_f64(), Some(9.0));
    }

    #[test]
    fn scope_off_and_scope_on_agree_on_the_service_result() {
        // Profiling per job must not perturb the virtual schedule: the
        // scope-on run's ServiceResult, spans included, equals the
        // scope-off run's but for the completed jobs' books.
        let cfg = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let sched = || {
            vec![
                (1u64, JobSpec::new(0, "conv", 8, 2_000)),
                (500, JobSpec::new(1, "bezier", 4, 200_000)),
            ]
        };
        let off = serve(sched(), &cfg);
        let (mut on, report) = serve_scoped(sched(), &cfg, Some(&ScopeOptions::default()));
        let rep = report.expect("scope on");
        assert!(on.spans.iter().all(|s| s.book.is_some()), "both complete");
        assert!(off.spans.iter().all(|s| s.book.is_none()));
        // The scope report is the view of the result's spans.
        assert_eq!(rep.jobs, on.spans);
        assert_eq!(rep.drained_at, on.totals.drained_at);
        assert_eq!(
            rep.fleet.total.jobs, on.totals.completed,
            "every completed job folded into the fleet book"
        );
        for s in &mut on.spans {
            s.book = None;
        }
        assert_eq!(off, on);
        // conv's 2k budget is killed twice: three attempts, two backoffs.
        assert_eq!(off.spans[0].attempts.len(), 3);
        assert_eq!(off.spans[0].backoffs.len(), 2);
    }
}
