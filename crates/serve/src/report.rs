//! The `clp-serve-v1` report: a pinned, serde-serialized document of one
//! service run.
//!
//! Because the service is deterministic, the same `(seed, config)`
//! reproduces the report *byte-for-byte* — the replay golden test pins
//! that, and `clp-serve --bench --check BENCH_serve.json` (CI, and
//! tier-1 through `tests/scope.rs`) holds a fresh run to the committed
//! document with `clp_obs::check_golden`, the same equality gate every
//! other golden goes through.

use crate::arrivals::ArrivalConfig;
use crate::service::{JobRecord, ServiceConfig, ServiceResult, ServiceTotals};
use clp_obs::LatencySummary;
use serde::Serialize;

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
    use crate::service::serve;
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
}
