//! The ablations: each runs the whole suite twice per composition size —
//! the standard TFlex machine and one variant — and reports the geomean
//! cycle ratio as a percentage.
//!
//! * `handshake` (§6.4): modeled distributed-protocol handshakes against
//!   an idealized machine where all handshaking is instantaneous. Paper:
//!   less than 2% at the largest (32-core) composition — the
//!   block-structured ISA amortizes the coordination.
//! * `bandwidth` and `issue`: the two TFlex optimizations over TRIPS
//!   (§5) — operand-network link bandwidth 2 vs 1, dual vs single issue.
//! * `predictor` (§4.3): distributed versus centralized next-block
//!   prediction and control. The centralized variant sequences every
//!   block through core 0 with a single predictor bank, as the TRIPS
//!   prototype does.
//! * `placement` (§4.4 / Figure 4a): compiled with and without the
//!   locality-aware instruction scheduler.
//! * `schedule_target` (§5): "performing instruction scheduling for a
//!   larger number of cores and running it on fewer results in little
//!   performance degradation" — binaries scheduled for the 32-core
//!   composition (the default, used for every other experiment) against
//!   binaries scheduled exactly for the composition they run on.

use super::Ctx;
use crate::{geomean, par_suite, save_json};
use clp_compiler::{compile, CompileOptions};
use clp_core::{
    compile_workload, run_compiled, run_compiled_observed, CompiledWorkload, ObsOptions,
    ProcessorConfig, RunOutcome,
};
use clp_obs::{Bucket, ProfileReport};
use clp_sim::ProtocolTiming;
use clp_workloads::{suite, Workload};
use serde::{Serialize, Value};

/// Runs `cw` on `cfg`, panicking with the workload's name on failure: an
/// ablation has no use for a partial suite.
fn run(cw: &CompiledWorkload, cfg: &ProcessorConfig) -> RunOutcome {
    run_compiled(cw, cfg).unwrap_or_else(|e| panic!("{}: {e}", cw.workload.name))
}

fn cycles(cw: &CompiledWorkload, cfg: &ProcessorConfig) -> u64 {
    run(cw, cfg).stats.cycles
}

fn compiled(w: &Workload) -> CompiledWorkload {
    compile_workload(w).unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

fn compiled_with(w: &Workload, opts: &CompileOptions) -> CompiledWorkload {
    CompiledWorkload {
        golden: w.golden(),
        workload: w.clone(),
        edge: compile(&w.program, opts).unwrap_or_else(|e| panic!("{}: {e}", w.name)),
    }
}

/// The shape four of the six share: per size, the suite geomean of
/// `ratio(workload, cores)` as a percentage over 1, printed through
/// `line`. Returns the `(cores, pct)` series.
fn ratio_series(
    sizes: &[usize],
    ratio: impl Fn(&Workload, usize) -> f64 + Sync,
    line: impl Fn(usize, f64) -> String,
) -> Vec<(usize, f64)> {
    let workloads = suite::all();
    let mut series = Vec::new();
    for &n in sizes {
        let ratios = par_suite(&workloads, |w| ratio(w, n));
        let pct = 100.0 * (geomean(&ratios) - 1.0);
        println!("{}", line(n, pct));
        series.push((n, pct));
    }
    series
}

/// Saves a [`ratio_series`] to `<name>.json` as `[{cores, <key>}]`.
fn save_series(name: &str, key: &str, series: &[(usize, f64)]) {
    let point = |&(n, pct): &(usize, f64)| {
        Value::Object(vec![
            ("cores".to_string(), n.to_value()),
            (key.to_string(), pct.to_value()),
        ])
    };
    let points: Vec<Value> = series.iter().map(point).collect();
    save_json(&format!("{name}.json"), &points);
}

pub(super) fn handshake(_: &mut Ctx) -> Option<String> {
    let series = ratio_series(
        &[4, 8, 16, 32],
        |w, n| {
            let cw = compiled(w);
            let mut ideal_cfg = ProcessorConfig::tflex(n);
            ideal_cfg.sim.protocol = ProtocolTiming::Instant;
            let modeled = cycles(&cw, &ProcessorConfig::tflex(n));
            modeled as f64 / cycles(&cw, &ideal_cfg) as f64
        },
        |n, pct| format!("{n:>2} cores: modeled handshakes cost {pct:+.1}% vs instantaneous"),
    );
    println!("paper: <2% at 32 cores");
    save_series("ablation_handshake", "overhead_pct", &series);
    let p32 = series.last().expect("32 cores swept").1;
    Some(format!(
        "§6.4    handshake overhead at 32 cores: {p32:+.1}% (paper <2%)"
    ))
}

pub(super) fn issue(_: &mut Ctx) -> Option<String> {
    let series = ratio_series(
        &[8, 16],
        |w, n| {
            let cw = compiled(w);
            let mut single_cfg = ProcessorConfig::tflex(n);
            single_cfg.sim.core.issue_width = 1;
            let dual = cycles(&cw, &ProcessorConfig::tflex(n));
            cycles(&cw, &single_cfg) as f64 / dual as f64
        },
        |n, pct| format!("{n:>2} cores: dual issue buys {pct:+.1}%"),
    );
    save_series("ablation_issue", "speedup_from_dual_issue_pct", &series);
    None
}

pub(super) fn placement(_: &mut Ctx) -> Option<String> {
    let series = ratio_series(
        &[8, 32],
        |w, n| {
            let unplaced_opts = CompileOptions {
                placement: false,
                ..Default::default()
            };
            let cfg = ProcessorConfig::tflex(n);
            let placed = cycles(&compiled_with(w, &CompileOptions::default()), &cfg);
            cycles(&compiled_with(w, &unplaced_opts), &cfg) as f64 / placed as f64
        },
        |n, pct| format!("{n:>2} cores: locality-aware placement buys {pct:+.1}%"),
    );
    save_series("ablation_placement", "speedup_from_placement_pct", &series);
    None
}

pub(super) fn schedule(_: &mut Ctx) -> Option<String> {
    let series = ratio_series(
        &[2, 4, 8],
        |w, n| {
            let scheduled_for = |cores| {
                let opts = CompileOptions {
                    placement_cores: cores,
                    ..Default::default()
                };
                cycles(&compiled_with(w, &opts), &ProcessorConfig::tflex(n))
            };
            scheduled_for(32) as f64 / scheduled_for(n) as f64
        },
        |n, pct| {
            format!(
                "{n:>2} cores: scheduling for 32 instead of {n} costs {pct:+.1}% (paper: 'little')"
            )
        },
    );
    save_series("ablation_schedule_target", "degradation_pct", &series);
    let worst = series.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    Some(format!(
        "§5      schedule-for-32 penalty on fewer cores: worst {worst:+.1}% (paper: 'little')"
    ))
}

#[derive(Serialize)]
struct BandwidthPoint {
    cores: usize,
    speedup_from_double_bw_pct: f64,
    /// Share of the critical path in operand-mesh transit (narrow bw).
    narrow_noc_share_pct: f64,
    /// Share of the critical path in operand-mesh transit (doubled bw).
    wide_noc_share_pct: f64,
    /// Mean dimension-order route length of critical operands, in links
    /// (profiler link attribution / operand_noc cycles, doubled bw).
    mean_critical_hops: f64,
}

/// The share of the whole-run critical path spent in operand-mesh
/// transit (hop latency plus contention), and the mean route length of
/// critical operands: each critical mesh segment is spread over the
/// dimension-order route it took, so total link cycles / operand_noc
/// cycles is the average hop count. Both come from the clp-prof
/// attribution, the single source of truth for operand-network numbers.
fn noc_share_and_hops(report: &ProfileReport) -> (f64, f64) {
    let buckets = report.run_buckets();
    let noc = buckets.get(Bucket::OperandNoc);
    let share = 100.0 * noc as f64 / buckets.total().max(1) as f64;
    let link_total: u64 = report.link_cycles.iter().map(|&(_, c)| c).sum();
    let hops = if noc == 0 {
        0.0
    } else {
        link_total as f64 / noc as f64
    };
    (share, hops)
}

pub(super) fn bandwidth(_: &mut Ctx) -> Option<String> {
    let workloads = suite::all();
    let obs = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    let mut series = Vec::new();
    for &n in &[8usize, 16] {
        // Per workload: (cycle ratio, narrow share, wide share, wide hops).
        let cells = par_suite(&workloads, |w| {
            let cw = compiled(w);
            let wide = run_compiled_observed(&cw, &ProcessorConfig::tflex(n), &obs)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let mut narrow_cfg = ProcessorConfig::tflex(n);
            narrow_cfg.sim.operand_net.link_bandwidth = 1;
            let narrow = run_compiled_observed(&cw, &narrow_cfg, &obs)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let (ns, _) = noc_share_and_hops(narrow.profile.as_ref().expect("profiled"));
            let (ws, wh) = noc_share_and_hops(wide.profile.as_ref().expect("profiled"));
            let ratio = narrow.stats.cycles as f64 / wide.stats.cycles as f64;
            (ratio, ns, ws, wh)
        });
        let pct = 100.0 * (geomean(&cells.iter().map(|c| c.0).collect::<Vec<_>>()) - 1.0);
        let count = workloads.len() as f64;
        let narrow_share = cells.iter().map(|c| c.1).sum::<f64>() / count;
        let wide_share = cells.iter().map(|c| c.2).sum::<f64>() / count;
        let hops = cells.iter().map(|c| c.3).sum::<f64>() / count;
        println!(
            "{n:>2} cores: doubling operand bandwidth buys {pct:+.1}% \
             (critical-path noc share {narrow_share:.1}% -> {wide_share:.1}%, \
             {hops:.1} hops/critical operand)"
        );
        series.push(BandwidthPoint {
            cores: n,
            speedup_from_double_bw_pct: pct,
            narrow_noc_share_pct: narrow_share,
            wide_noc_share_pct: wide_share,
            mean_critical_hops: hops,
        });
    }
    save_json("ablation_bandwidth.json", &series);
    None
}

#[derive(Serialize)]
struct PredictorPoint {
    cores: usize,
    speedup_from_distribution_pct: f64,
    mispredict_rate_distributed: f64,
    mispredict_rate_centralized: f64,
}

pub(super) fn predictor(_: &mut Ctx) -> Option<String> {
    let workloads = suite::all();
    let mut series = Vec::new();
    for &n in &[8usize, 16, 32] {
        // Per workload: (cycle ratio, distributed rate, centralized rate).
        let cells = par_suite(&workloads, |w| {
            let cw = compiled(w);
            let dist = run(&cw, &ProcessorConfig::tflex(n));
            let mut central_cfg = ProcessorConfig::tflex(n);
            central_cfg.sim.centralized_control = true;
            let central = run(&cw, &central_cfg);
            let rate = |r: &RunOutcome| {
                let p = &r.stats.procs[0].predictor;
                if p.predictions == 0 {
                    0.0
                } else {
                    p.mispredictions as f64 / p.predictions as f64
                }
            };
            let ratio = central.stats.cycles as f64 / dist.stats.cycles as f64;
            (ratio, rate(&dist), rate(&central))
        });
        let pct = 100.0 * (geomean(&cells.iter().map(|c| c.0).collect::<Vec<_>>()) - 1.0);
        let count = workloads.len() as f64;
        let mp_d = cells.iter().map(|c| c.1).sum::<f64>() / count;
        let mp_c = cells.iter().map(|c| c.2).sum::<f64>() / count;
        println!(
            "{n:>2} cores: distribution buys {pct:+.1}% (mispredict rate {:.1}% vs {:.1}% centralized)",
            100.0 * mp_d,
            100.0 * mp_c
        );
        series.push(PredictorPoint {
            cores: n,
            speedup_from_distribution_pct: pct,
            mispredict_rate_distributed: mp_d,
            mispredict_rate_centralized: mp_c,
        });
    }
    save_json("ablation_predictor.json", &series);
    None
}
