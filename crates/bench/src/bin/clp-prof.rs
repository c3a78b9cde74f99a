//! clp-prof: critical-path extraction and top-down cycle accounting for
//! composed processors.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-prof -- conv 16
//! cargo run --release -p clp-bench --bin clp-prof -- --suite --json
//! ```
//!
//! Runs one workload (or the whole built-in suite with `--suite`) with
//! the profiler enabled and prints, per workload:
//!
//! * the top-down breakdown table — one row per cycle-accounting bucket,
//!   summing exactly to the run's critical-path cycles;
//! * a per-core contribution heatmap shaped like the operand mesh;
//! * the hottest operand-mesh links on the critical path.
//!
//! `--json` replaces the tables with the pinned `clp-prof-v1` schema on
//! stdout (one top-level object; per-run reports under `"runs"`);
//! `clp-prof --help` lists the other flags.

use clp_bench::observe::{observe, prof_run, runs_document};
use clp_core::cli::{die, or_die, Flag, Spec, SUITE};
use clp_core::{compile_workload, ObsOptions};
use serde_json::Value;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "clp-prof",
    about: "Critical-path extraction and top-down cycle accounting for composed processors.",
    positionals: &["[WORKLOAD]", "[CORES]"],
    flags: &[
        SUITE,
        Flag::switch("--json", "emit the clp-prof-v1 document instead of tables"),
        Flag::value("--cores", "N", "composition size (default 16)"),
        Flag::value("--top-links", "N", "hottest mesh links to list (default 8)"),
    ],
    epilog: "",
};

fn main() {
    let args = SPEC.parse_env();
    let workloads = or_die(args.workloads());
    let cores = or_die(args.cores()).unwrap_or(16);
    let top_links: usize = or_die(args.num("--top-links", ..)).unwrap_or(8);
    let json = args.switch("--json");
    let obs = ObsOptions {
        profile: true,
        ..ObsOptions::default()
    };
    let mut runs: Vec<Value> = Vec::new();
    for w in &workloads {
        let name = w.name;
        let cw = compile_workload(w).unwrap_or_else(|e| die(format!("{name}: {e}")));
        let r = observe(&cw, cores, &obs);
        if json {
            runs.push(prof_run(name, cores, &r));
        } else {
            let report = r.profile.expect("profiling was enabled");
            println!(
                "== {name} on {cores} cores: {} cycles, critical path {} ==",
                r.stats.cycles,
                report.crit_path_cycles()
            );
            print!("{}", report.render_breakdown());
            println!("per-core critical cycles:");
            print!("{}", report.render_core_heatmap());
            println!("hottest operand links:");
            print!("{}", report.render_links(top_links));
            println!();
        }
    }
    if json {
        print!("{}", runs_document("clp-prof-v1", runs));
    }
}
