//! The names the binary prints, and their agreement with `BENCHMARK.json`.
//!
//! Host time and simulated time are never mixed: `*_s`, `*_ns_*`,
//! `*_per_s`, `*_x` and `*_pct` are host measurements; every metric
//! marked `exact` is a simulated count that repeats bit for bit. The
//! end-to-end host times are reference seconds (`crate::calib`), the
//! per-layer ones fastest wall times.

use serde_json::Value;
use std::collections::BTreeMap;

/// One printed metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// A simulated count: two runs of one program must agree exactly.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

pub const WORKLOADS: [&str; 4] = ["sweep_narrow", "sweep_wide", "analysis", "serve_batch"];

/// Printed by a `--trace 0` run.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s", "lower"),
    host("pass_s", "s", "lower"),
    host("sim_mcycles_per_s", "Mcycles/s", "higher"),
    host("jobs_per_s", "1/s", "higher"),
    exact("sim_cycles", "cycles", "lower"),
    host("peak_rss_mb", "MiB", "lower"),
];

/// Printed by a `--trace 1` run. A metric that a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    host("sim.run_s", "s", "lower"),
    host("sim.run_ns_per_cycle", "ns/cycle", "lower"),
    host("sim.run_ns_per_inst", "ns/inst", "lower"),
    host("sim.run_ns_per_cycle.c1", "ns/cycle", "lower"),
    host("sim.run_ns_per_cycle.c2", "ns/cycle", "lower"),
    host("sim.run_ns_per_cycle.c4", "ns/cycle", "lower"),
    host("sim.run_ns_per_cycle.c16", "ns/cycle", "lower"),
    host("sim.run_ns_per_cycle.c32", "ns/cycle", "lower"),
    host("sim.new_s", "s", "lower"),
    host("sim.compose_s", "s", "lower"),
    host("sim.snapshot_s", "s", "lower"),
    host("sim.stepped_ratio_x", "x", "higher"),
    exact("sim.cycles", "cycles", "lower"),
    exact("sim.insts_committed", "count", "lower"),
    exact("sim.blocks_committed", "count", "lower"),
    exact("sim.blocks_flushed", "count", "lower"),
    exact("sim.ipc_milli", "count", "higher"),
    host("noc.mesh_ns_per_msg", "ns/msg", "lower"),
    exact("noc.link_traversals", "count", "lower"),
    exact("noc.hops_per_kcycle", "count", "lower"),
    host("mem.lsq_ns_per_op", "ns/op", "lower"),
    host("mem.image_load_s", "s", "lower"),
    exact("mem.l1d_misses", "count", "lower"),
    exact("mem.l2_misses", "count", "lower"),
    exact("mem.dram_accesses", "count", "lower"),
    exact("mem.lsq_nacks", "count", "lower"),
    host("predictor.ns_per_block", "ns/block", "lower"),
    exact("predictor.predictions", "count", "lower"),
    exact("predictor.mispredictions", "count", "lower"),
    host("compiler.compile_s", "s", "lower"),
    host("compiler.interp_s", "s", "lower"),
    host("compiler.interp_mops_per_s", "Mops/s", "higher"),
    host("isa.asm_roundtrip_s", "s", "lower"),
    host("workloads.suite_build_s", "s", "lower"),
    host("workloads.verify_s", "s", "lower"),
    host("lint.lint_s", "s", "lower"),
    host("lint.bound_s", "s", "lower"),
    exact("lint.diagnostics", "count", "lower"),
    host("power.model_s", "s", "lower"),
    host("baseline.trips_run_s", "s", "lower"),
    host("baseline.ooo_run_s", "s", "lower"),
    host("core.cell_s", "s", "lower"),
    host("core.cell_self_share", "ratio", "lower"),
    host("obs.profile_overhead_x", "x", "lower"),
    host("obs.trend_overhead_x", "x", "lower"),
    host("obs.trace_overhead_x", "x", "lower"),
    host("obs.emit_s", "s", "lower"),
    exact("obs.emit_bytes", "bytes", "lower"),
    host("obs.scope_overhead_x", "x", "lower"),
    host("serve.generate_s", "s", "lower"),
    host("serve.serve_s", "s", "lower"),
    host("serve.report_s", "s", "lower"),
    host("serve.direct_run_s", "s", "lower"),
    host("serve.overhead_x", "x", "lower"),
    exact("serve.completed", "count", "higher"),
    exact("serve.retries", "count", "lower"),
    exact("serve.deadline_kills", "count", "lower"),
    exact("serve.panics", "count", "lower"),
    exact("serve.shed", "count", "lower"),
    exact("serve.cache_hits", "count", "higher"),
    exact("serve.cache_misses", "count", "lower"),
    exact("serve.virtual_ticks", "ticks", "lower"),
    exact("serve.latency_p50_ticks", "ticks", "lower"),
    exact("serve.latency_p99_ticks", "ticks", "lower"),
    exact("failed_share", "ratio", "lower"),
    host("bench.passes", "count", "higher"),
    host("bench.pass_spread_pct", "%", "lower"),
    host("bench.setup_cold_s", "s", "lower"),
    host("bench.trace_overhead_pct", "%", "lower"),
    host("bench.wall_s", "s", "lower"),
    host("bench.pass_s", "s", "lower"),
    host("bench.host_speed_x", "x", "lower"),
];

/// Looks a metric up in both lists.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// What `BENCHMARK.json` says about the names above.
#[derive(Debug)]
pub struct Manifest {
    /// Regression bound of each end-to-end metric, as a share.
    pub bounds: BTreeMap<String, f64>,
}

fn list_of<'a>(doc: &'a Value, list: &str) -> Result<&'a [Value], String> {
    doc[list]
        .as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))
}

fn check_metrics(doc: &Value, list: &str, defs: &[MetricDef]) -> Result<(), String> {
    let listed = list_of(doc, list)?;
    let mut seen = Vec::new();
    for m in listed {
        let name = m["name"].as_str().unwrap_or("");
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("BENCHMARK.json {list} metric `{name}` is not printed"))?;
        if m["unit"].as_str() != Some(def.unit) || m["better"].as_str() != Some(def.better) {
            return Err(format!(
                "BENCHMARK.json and the binary disagree on the unit or direction of `{name}`"
            ));
        }
        if seen.contains(&name) {
            return Err(format!("BENCHMARK.json lists `{name}` twice"));
        }
        seen.push(name);
    }
    match defs.iter().find(|d| !seen.contains(&d.name)) {
        Some(d) => Err(format!("BENCHMARK.json {list} lacks `{}`", d.name)),
        None => Ok(()),
    }
}

/// Parses `BENCHMARK.json` and refuses any disagreement with the binary
/// on a workload or metric name, unit or direction.
pub fn load(text: &str) -> Result<Manifest, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json is not JSON: {e:?}"))?;
    let workloads: Vec<&str> = list_of(&doc, "workloads")?
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} differ from the binary's {WORKLOADS:?}"
        ));
    }
    check_metrics(&doc, "end_to_end", END_TO_END)?;
    check_metrics(&doc, "per_layer", PER_LAYER)?;
    let mut bounds = BTreeMap::new();
    for m in list_of(&doc, "end_to_end")? {
        let name = m["name"].as_str().unwrap_or("");
        let bound = m["bound"]
            .as_f64()
            .ok_or_else(|| format!("BENCHMARK.json gives `{name}` no bound"))?;
        bounds.insert(name.to_string(), bound);
    }
    Ok(Manifest { bounds })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn every_printed_name_is_well_formed_and_listed_exactly_once() {
        let text = benchmark_json();
        load(&text).expect("binary and BENCHMARK.json agree");
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS)
        {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.as_bytes()[0].is_ascii_alphanumeric()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "`{name}` is not a legal metric name"
            );
            let quoted = format!("\"name\": \"{name}\"");
            assert_eq!(
                text.matches(&quoted).count(),
                1,
                "`{name}` must appear exactly once in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn units_fit_the_contract() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "`{}` is not a legal unit",
                m.unit
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    #[test]
    fn a_renamed_metric_or_workload_is_refused() {
        let text = benchmark_json();
        let renamed = text.replace("\"name\": \"pass_s\"", "\"name\": \"pass_seconds\"");
        assert!(load(&renamed).unwrap_err().contains("pass_seconds"));
        let reordered = text.replace("\"name\": \"analysis\"", "\"name\": \"analyses\"");
        assert!(load(&reordered).unwrap_err().contains("analyses"));
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let m = load(&benchmark_json()).expect("loads");
        let setup = m.bounds["setup_s"];
        for (name, &b) in &m.bounds {
            assert!(b > 0.0 && b <= 0.25, "{name} bound {b}");
            assert!(b <= setup, "{name} bound exceeds setup_s's");
        }
    }
}
