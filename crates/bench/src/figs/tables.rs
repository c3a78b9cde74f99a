//! Table 1: single-core TFlex microarchitectural parameters. Table 2:
//! component areas (mm² at 130 nm) and the average power breakdown of
//! TRIPS versus an 8-core TFlex processor.

use super::{warn_dropped, Ctx};
use crate::{save_json, sweep_suite_resilient, CellFailure};
use clp_power::PowerBreakdown;
use clp_sim::{table1_text, SimConfig};
use clp_workloads::suite;
use serde::Serialize;

#[derive(Serialize)]
struct PowerRows {
    tflex8: PowerBreakdown,
    trips: PowerBreakdown,
    failures: Vec<CellFailure>,
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
        clp_power::chip_area_mm2(&area, 8, 1.5)
    );
    println!();

    // Average power across the suite at the paper's two organizations.
    let (rows, failures) = sweep_suite_resilient(&suite::all(), &[8]);
    warn_dropped(&failures);
    ctx.failed_cells += failures.len();
    let n = rows.len() as f64;
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
    for r in &rows {
        add(&mut tflex8, &r.tflex[0].1.power, n);
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

    save_json(
        "table2.json",
        &PowerRows {
            tflex8,
            trips,
            failures,
        },
    );
    None
}
