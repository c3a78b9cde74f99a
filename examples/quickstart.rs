//! Quickstart: compile one benchmark to EDGE code, compose a 4-core
//! TFlex processor, run it, verify against the reference interpreter,
//! and print performance/power/area.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use clp::core::{run_workload, ProcessorConfig};
use clp::workloads::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = suite::by_name("conv").expect("conv is in the suite");
    println!(
        "workload: {} ({:?}, {:?} ILP)",
        workload.name, workload.class, workload.ilp
    );

    let outcome = run_workload(&workload, &ProcessorConfig::tflex(4))?;
    let proc = &outcome.stats.procs[0];
    // `run_workload` returns an error on a golden mismatch.
    println!("correct:  true");
    println!("cycles:   {}", outcome.stats.cycles);
    println!(
        "blocks:   {} committed, {} flushed",
        proc.blocks_committed, proc.blocks_flushed
    );
    println!("IPC:      {:.2}", proc.ipc());
    println!(
        "branch prediction: {}/{} mispredicted",
        proc.predictor.mispredictions, proc.predictor.predictions
    );
    println!("power:    {:.2} W", outcome.power.total());
    println!("area:     {:.1} mm^2 (4 TFlex cores)", outcome.area_mm2);
    Ok(())
}
