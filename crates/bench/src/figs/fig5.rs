//! Figure 5: relative performance (1/cycles) of the TRIPS configuration
//! normalized to the conventional out-of-order reference, per benchmark.
//!
//! The paper's claim (measured hardware): hand-optimized code runs ~2.7x
//! faster on TRIPS than a Core2; compiled embedded code ~1.5x; SPEC-INT-
//! like code slower. The reproduction checks the *shape*: hand-optimized
//! >> compiled-INT, with compiled-INT at or below parity.

use super::Ctx;
use crate::{geomean, save_json};
use clp_baseline::{run_baseline, BaselineConfig};
use clp_core::{compile_workload, run_compiled, ProcessorConfig};
use clp_workloads::{suite, WorkloadClass};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: &'static str,
    class: String,
    trips_cycles: u64,
    baseline_cycles: u64,
    /// baseline/trips: >1 means the EDGE machine wins.
    relative: f64,
}

pub(super) fn run(ctx: &mut Ctx) -> Option<String> {
    let fig = &ctx.obs;
    let mut rows = Vec::new();
    let mut snapshots = Vec::new();
    for w in suite::all() {
        let cw = compile_workload(&w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let trips = run_compiled(&cw, &ProcessorConfig::trips())
            .unwrap_or_else(|e| panic!("{} on TRIPS: {e}", w.name));
        if fig.stats_json.is_some() {
            snapshots.push((format!("{}/trips", w.name), trips.snapshot.clone()));
        }
        let base = run_baseline(&w.program, &w.args, &w.init_mem, &BaselineConfig::core2());
        rows.push(Row {
            name: w.name,
            class: format!("{:?}", w.class),
            trips_cycles: trips.cycles(),
            baseline_cycles: base.cycles,
            relative: base.cycles as f64 / trips.cycles() as f64,
        });
    }

    println!("Figure 5: TRIPS performance relative to the conventional OoO reference");
    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>9}",
        "benchmark", "class", "OoO cyc", "TRIPS cyc", "rel"
    );
    for r in &rows {
        println!(
            "{:<10} {:>14} {:>12} {:>12} {:>8.2}x",
            r.name, r.class, r.baseline_cycles, r.trips_cycles, r.relative
        );
    }

    let class_mean = |pred: &dyn Fn(&Row) -> bool| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.relative)
            .collect();
        geomean(&v)
    };
    let hand = class_mean(&|r| {
        r.class == format!("{:?}", WorkloadClass::HandOptimized)
            || r.class == format!("{:?}", WorkloadClass::Eembc)
            || r.class == format!("{:?}", WorkloadClass::Versabench)
    });
    let int = class_mean(&|r| r.class == format!("{:?}", WorkloadClass::SpecInt));
    let fp = class_mean(&|r| r.class == format!("{:?}", WorkloadClass::SpecFp));
    println!();
    println!("geomean  hand-optimized+embedded: {hand:.2}x   SPEC-INT-like: {int:.2}x   SPEC-FP-like: {fp:.2}x");
    println!(
        "paper    hand-optimized ~2.7x; EEMBC/Versabench ~1.5x; SPEC INT 0.64x; SPEC FP 0.97x"
    );

    save_json("fig5.json", &rows);
    fig.save_snapshots(snapshots);
    None
}
