//! Table 1: single-core TFlex microarchitectural parameters. Table 2:
//! component areas (mm² at 130 nm) and the average power breakdown of
//! TRIPS versus an 8-core TFlex processor.

use super::Ctx;
use crate::save_json;
use clp_power::PowerBreakdown;
use clp_sim::{table1_text, SimConfig};
use serde_json::{json, Value};

/// Table 2's power rows, in watts per category.
fn power_json(p: &PowerBreakdown) -> Value {
    json!({
        "fetch": (p.fetch),
        "execution": (p.execution),
        "l1d": (p.l1d),
        "routers": (p.routers),
        "l2": (p.l2),
        "dram_io": (p.dram_io),
        "clock": (p.clock),
        "leakage": (p.leakage)
    })
}

pub(super) fn table1(_: &mut Ctx) -> Option<String> {
    println!("{}", table1_text(&SimConfig::tflex()));
    println!();
    println!("TRIPS baseline differences: 16 single-issue tiles, centralized");
    println!("control/prediction at tile 0, operand-network bandwidth 1,");
    println!("8 in-flight blocks (1K-instruction window).");
    None
}

pub(super) fn table2(ctx: &mut Ctx) -> Option<String> {
    let area = clp_power::AreaModel::at_130nm();
    println!("{}", area.table());
    println!(
        "die check: 8 TFlex cores + 1.5MB L2 = {:.1} mm^2 (18mm x 18mm die = 324 mm^2)",
        clp_power::chip_area_mm2(8, 1.5)
    );
    println!();

    // Average power across the suite at the paper's two organizations.
    let suite = ctx.suite();
    let n = suite.rows.len() as f64;
    let mut tflex8 = PowerBreakdown::default();
    let mut trips = PowerBreakdown::default();
    let add = |acc: &mut PowerBreakdown, p: &PowerBreakdown, n: f64| {
        acc.fetch += p.fetch / n;
        acc.execution += p.execution / n;
        acc.l1d += p.l1d / n;
        acc.routers += p.routers / n;
        acc.l2 += p.l2 / n;
        acc.dram_io += p.dram_io / n;
        acc.clock += p.clock / n;
        acc.leakage += p.leakage / n;
    };
    for r in &suite.rows {
        add(&mut tflex8, &r.at(8).outcome.power, n);
        add(&mut trips, &r.trips.power, n);
    }

    println!("Table 2 (average power across the 26-benchmark suite)");
    println!("{}", tflex8.table_row("8-core TFlex"));
    println!("{}", trips.table_row("TRIPS"));
    println!(
        "leakage fractions: TFlex {:.1}%  TRIPS {:.1}%  (paper: 8-10%)",
        100.0 * tflex8.leakage_fraction(),
        100.0 * trips.leakage_fraction()
    );

    let doc = json!({
        "tflex8": (power_json(&tflex8)),
        "trips": (power_json(&trips)),
        "failures": (suite.failures)
    });
    save_json("table2.json", &doc);
    None
}
