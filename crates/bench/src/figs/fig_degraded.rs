//! Degraded-mode throughput sweep: how much performance survives a hard
//! core failure, across composition sizes.
//!
//! For each workload and each composition size in {2, 4, 8, 16}, a clean
//! run pins the baseline cycle count; a second run kills one composed
//! core halfway through and must still verify against the interpreter
//! golden on the surviving cores. The sweep reports the throughput
//! retained (clean cycles / degraded cycles), the detection latency of
//! the heartbeat watchdog, and the recovery cost (flushed blocks,
//! migrated architectural state).
//!
//! The shape to expect: larger compositions lose a smaller fraction of
//! their throughput (one core of sixteen is 6% of the capacity; one of
//! two is half), but pay a slightly higher detection latency because the
//! probe round-trip spans a wider region. Everything is deterministic —
//! the kill schedule derives from the clean run's cycle count, not from
//! any wall clock.

use super::Ctx;
use crate::{geomean, save_json};
use clp_core::{compile_workload, run_compiled, ProcessorConfig};
use clp_sim::FaultPlan;
use clp_workloads::suite;
use serde::Serialize;

/// The composition sizes swept; 1 is excluded because a 1-core
/// composition has no survivor to recover onto.
const SIZES: [usize; 4] = [2, 4, 8, 16];

/// The workloads swept: one per class with short-enough clean runs that
/// the whole sweep stays interactive.
const WORKLOADS: [&str; 5] = ["conv", "tblook", "a2time", "bezier", "gzip"];

#[derive(Serialize)]
struct Row {
    name: &'static str,
    cores: usize,
    /// The composed core that dies (global mesh ID).
    victim: usize,
    kill_cycle: u64,
    clean_cycles: u64,
    degraded_cycles: u64,
    /// clean/degraded: 1.0 means the failure cost nothing.
    throughput_retained: f64,
    detection_cycles: u64,
    flushed_blocks: u64,
    migrated_bytes: u64,
    degraded_ipc: f64,
}

pub(super) fn run(ctx: &mut Ctx) -> Option<String> {
    let fig = &ctx.obs;
    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    for name in WORKLOADS {
        let w = suite::by_name(name).expect("workload exists");
        let cw = compile_workload(&w).unwrap_or_else(|e| panic!("{name}: {e}"));
        for n in SIZES {
            let clean_cfg = ProcessorConfig::tflex(n);
            let clean = run_compiled(&cw, &clean_cfg)
                .unwrap_or_else(|e| panic!("{name} clean on {n}: {e}"));
            assert!(clean.correct, "{name} clean on {n} cores must verify");

            // Kill a mid-region core halfway through the clean run's
            // cycle count: pre-kill execution is bit-identical to the
            // clean run, so the kill is guaranteed to land mid-flight.
            let region =
                clp_noc::region_for(&clean_cfg.sim.operand_net, n, 0).expect("region exists");
            let victim = region[n / 2].0;
            let kill_cycle = (clean.stats.cycles / 2).max(1);
            let mut plan = FaultPlan::none();
            plan.add_kill(victim, kill_cycle).expect("valid kill");
            let degraded = run_compiled(&cw, &ProcessorConfig::tflex(n).with_faults(plan))
                .unwrap_or_else(|e| panic!("{name} degraded on {n}: {e}"));
            assert!(
                degraded.correct,
                "{name} on {n} cores must verify after losing core {victim}"
            );
            if fig.stats_json.is_some() {
                snapshots.push((format!("{name}/tflex-{n}/clean"), clean.snapshot.clone()));
                snapshots.push((
                    format!("{name}/tflex-{n}/degraded"),
                    degraded.snapshot.clone(),
                ));
            }
            let rec = &degraded.stats.recovery;
            rows.push(Row {
                name: w.name,
                cores: n,
                victim,
                kill_cycle,
                clean_cycles: clean.stats.cycles,
                degraded_cycles: degraded.stats.cycles,
                throughput_retained: clean.stats.cycles as f64 / degraded.stats.cycles as f64,
                detection_cycles: rec.detection_cycles,
                flushed_blocks: rec.flushed_blocks,
                migrated_bytes: rec.migrated_bytes,
                degraded_ipc: rec.degraded_ipc(),
            });
        }
    }

    println!("Degraded-mode throughput: one core hard-killed mid-run, per composition size");
    println!(
        "{:<8} {:>5} {:>6} {:>10} {:>10} {:>9} {:>7} {:>7} {:>9} {:>7}",
        "bench",
        "cores",
        "victim",
        "clean cyc",
        "killed cyc",
        "retained",
        "detect",
        "flush",
        "migr B",
        "d-ipc"
    );
    for r in &rows {
        println!(
            "{:<8} {:>5} {:>6} {:>10} {:>10} {:>8.0}% {:>7} {:>7} {:>9} {:>7.2}",
            r.name,
            r.cores,
            r.victim,
            r.clean_cycles,
            r.degraded_cycles,
            100.0 * r.throughput_retained,
            r.detection_cycles,
            r.flushed_blocks,
            r.migrated_bytes,
            r.degraded_ipc,
        );
    }

    println!();
    for n in SIZES {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.cores == n)
            .map(|r| r.throughput_retained)
            .collect();
        println!(
            "geomean throughput retained at {n:>2} cores: {:.0}%",
            100.0 * geomean(&v)
        );
    }

    save_json("fig_degraded.json", &rows);
    fig.save_snapshots(snapshots);
    None
}
