//! Composition sweep: run one benchmark on every TFlex composition from
//! one core to the full 32-core chip (Figure 1c's "one big processor"
//! story), plus the TRIPS baseline, and report the speedup curve and the
//! best operating points for performance, area efficiency, and power
//! efficiency.
//!
//! ```sh
//! cargo run --release --example compose_sweep [workload]
//! ```

use clp::core::{compile_workload, run_compiled, ProcessorConfig};
use clp::power::{perf2_per_watt, perf_per_area};
use clp::workloads::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "autocor".into());
    let workload = suite::by_name(&name)
        .unwrap_or_else(|| panic!("unknown workload '{name}'; see clp::workloads::suite"));

    // Compile once; every composition and TRIPS run the same EDGE code.
    let cw = compile_workload(&workload)?;
    let runs = [1, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|n| run_compiled(&cw, &ProcessorConfig::tflex(n)).map(|r| (n, r)))
        .collect::<Result<Vec<_>, _>>()?;
    let base_cycles = runs[0].1.stats.cycles;

    println!("{name}: composition sweep");
    println!(
        "{:>6} {:>10} {:>9} {:>12} {:>12}",
        "cores", "cycles", "speedup", "perf/area", "perf^2/W"
    );
    let mut best = (0usize, 0.0f64);
    let mut best_area = (0usize, 0.0f64);
    let mut best_power = (0usize, 0.0f64);
    for (n, r) in &runs {
        let speedup = base_cycles as f64 / r.stats.cycles as f64;
        let pa = perf_per_area(r.stats.cycles, r.area_mm2);
        let pw = perf2_per_watt(r.stats.cycles, r.power.total());
        println!(
            "{n:>6} {:>10} {speedup:>8.2}x {pa:>12.3e} {pw:>12.3e}",
            r.stats.cycles
        );
        if speedup > best.1 {
            best = (*n, speedup);
        }
        if pa > best_area.1 {
            best_area = (*n, pa);
        }
        if pw > best_power.1 {
            best_power = (*n, pw);
        }
    }

    let trips = run_compiled(&cw, &ProcessorConfig::trips())?;
    println!(
        "{:>6} {:>10}   (TRIPS baseline)",
        "trips", trips.stats.cycles
    );

    println!();
    println!("best performance      : {} cores ({:.2}x)", best.0, best.1);
    println!("best area efficiency  : {} cores", best_area.0);
    println!("best power efficiency : {} cores", best_power.0);
    println!();
    println!("The composable array can pick any of these operating points at");
    println!("run time without recompiling — that is the paper's central claim.");
    Ok(())
}
