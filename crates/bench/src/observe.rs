//! What `clp-prof` and `clp-trend` print, built here so that the tools
//! and the tier-1 test holding their output to `goldens/`
//! (`tests/goldens.rs`) emit the same bytes.

use clp_core::cli::die;
use clp_core::{run_compiled_observed, CompiledWorkload, ObsOptions, ProcessorConfig, RunOutcome};
use clp_obs::TrendReport;
use serde_json::{json, Value};

/// Runs `cw` on `cores` TFlex cores under `obs`; [`die`]s if the run
/// fails.
#[must_use]
pub fn observe(cw: &CompiledWorkload, cores: usize, obs: &ObsOptions) -> RunOutcome {
    let name = cw.workload.name;
    run_compiled_observed(cw, &ProcessorConfig::tflex(cores), obs)
        .unwrap_or_else(|e| die(format!("{name} on {cores} cores: {e}")))
}

/// One run of a `clp-prof-v1` document.
///
/// # Panics
///
/// Panics if `r` was not profiled.
#[must_use]
pub fn prof_run(name: &str, cores: usize, r: &RunOutcome) -> Value {
    let report = r.profile.as_ref().expect("profiling was enabled");
    json!({
        "workload": name,
        "cores": cores,
        "cycles": (r.stats.cycles),
        "ipc": (r.stats.procs[0].ipc()),
        "profile": (report.to_json_value())
    })
}

/// One run of a `clp-trend-suite-v1` document.
#[must_use]
pub fn trend_run(name: &str, cores: usize, trend: &TrendReport) -> Value {
    json!({"workload": name, "cores": cores, "trend": (trend.to_json_value())})
}

/// What `clp-trend` prints of one run without `--json`: the IPC
/// timeline and the phase table.
#[must_use]
pub fn trend_text(name: &str, cores: usize, trend: &TrendReport) -> String {
    format!(
        "== {name} on {cores} cores: {} cycles ==\n{}{}\n",
        trend.cycles,
        trend.render_timeline(),
        trend.render_phase_table()
    )
}

/// A tool's `--json` output: the runs under `schema`, pretty-printed,
/// with the final newline.
#[must_use]
pub fn runs_document(schema: &str, runs: Vec<Value>) -> String {
    let doc = json!({"schema": schema, "runs": runs});
    let text = serde_json::to_string_pretty(&doc).expect("serializes");
    format!("{text}\n")
}
