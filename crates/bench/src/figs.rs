//! The figure registry behind `clp-fig`: every table, figure and
//! ablation of the paper's evaluation as one named function.
//!
//! A figure prints the rows/series the paper reports, saves its JSON
//! under `target/clp-results/`, and *returns* its headline — the
//! paper-versus-measured line of `clp-fig all`'s closing table — so the
//! table is built from what was just measured, never re-read from disk.
//! Figures 6–9 draw on one shared full-suite sweep (`Ctx::suite_sweep`),
//! taken once per `clp-fig` invocation however many of them run.
//! `--stats-json` needs no observer attached: every cell's `RunOutcome`
//! already carries the stats snapshot the figures read and the flag dumps.

use crate::{sweep_suite_resilient, BenchRow, CellFailure, SWEEP_SIZES};
use clp_core::cli::{write_or_die, Flag};
use clp_core::{compile_workload, run_compiled, run_workload, ProcessorConfig};
use clp_obs::StatsSnapshot;
use clp_sim::FaultPlan;
use clp_workloads::suite;
use serde_json::{json, Value};
use std::borrow::Borrow;
use std::rc::Rc;

mod ablations;
mod fig10;
mod fig5;
mod fig_degraded;
mod sweep;
mod tables;

/// The flag shared by the figures that can dump the stats snapshot of
/// every cell they run (`takes_obs` in the registry).
#[rustfmt::skip]
pub const OBS_FLAGS: [Flag; 1] = [
    Flag::value("--stats-json", "PATH", "write labeled stats snapshots (exactly one figure)"),
];

/// The values of [`OBS_FLAGS`].
#[derive(Clone, Debug, Default)]
pub struct FigObs {
    /// Where to write labeled stats snapshots (`--stats-json`).
    pub stats_json: Option<String>,
}

impl FigObs {
    /// Writes `labeled` snapshots to the `--stats-json` path as a JSON
    /// array of `{label, snapshot}` objects. No-op when the flag was not
    /// given.
    pub fn save_snapshots(&self, labeled: Vec<(String, StatsSnapshot)>) {
        let Some(path) = &self.stats_json else {
            return;
        };
        let entries: Vec<Value> = labeled
            .iter()
            .map(|(label, snapshot)| json!({"label": label, "snapshot": snapshot}))
            .collect();
        let json = serde_json::to_string_pretty(&entries).expect("serializable");
        write_or_die(path, &json);
        println!("[saved {path}]");
    }

    /// Labels and writes every cell snapshot of a completed sweep
    /// (`<workload>/tflex-<n>` and `<workload>/trips`). No-op when
    /// `--stats-json` was not given.
    pub fn save_sweep_snapshots<R: Borrow<BenchRow>>(&self, rows: &[R]) {
        if self.stats_json.is_none() {
            return;
        }
        let mut labeled = Vec::new();
        for r in rows.iter().map(Borrow::borrow) {
            for (n, o) in &r.tflex {
                labeled.push((format!("{}/tflex-{n}", r.workload.name), o.snapshot.clone()));
            }
            labeled.push((
                format!("{}/trips", r.workload.name),
                r.trips.snapshot.clone(),
            ));
        }
        self.save_snapshots(labeled);
    }
}

/// What one `clp-fig` invocation shares between its figures.
#[derive(Default)]
pub struct Ctx {
    /// Where the figures that take `--stats-json` dump their snapshots.
    pub obs: FigObs,
    /// Cells that failed in any figure's sweep so far.
    pub failed_cells: usize,
    suite_sweep: Option<Rc<Sweep>>,
}

/// A sweep's complete rows and the cells it dropped.
type Sweep = (Vec<BenchRow>, Vec<CellFailure>);

impl Ctx {
    /// A fresh invocation with the given observability flags.
    #[must_use]
    pub fn new(obs: FigObs) -> Ctx {
        Ctx {
            obs,
            ..Ctx::default()
        }
    }

    /// The full-suite 26 × (six sizes + TRIPS) sweep behind Figures
    /// 6–9, in suite order: taken on first use, then reused. Warns about
    /// every dropped cell each time, as each figure reports its own.
    fn suite_sweep(&mut self) -> Rc<Sweep> {
        if self.suite_sweep.is_none() {
            let sweep = sweep_suite_resilient(&suite::all(), &SWEEP_SIZES);
            self.failed_cells += sweep.1.len();
            self.suite_sweep = Some(Rc::new(sweep));
        }
        let sweep = self.suite_sweep.clone().expect("just taken");
        warn_dropped(&sweep.1);
        sweep
    }
}

fn warn_dropped(failures: &[CellFailure]) {
    for f in failures {
        eprintln!("warning: dropping failed cell {f}");
    }
}

/// One entry of the registry.
pub struct Figure {
    /// The name `clp-fig` takes (the former binary's).
    pub name: &'static str,
    /// What it reproduces.
    pub what: &'static str,
    /// Whether it honours [`OBS_FLAGS`].
    pub takes_obs: bool,
    /// Prints and saves the figure; returns its closing-table headline.
    pub run: fn(&mut Ctx) -> Option<String>,
}

/// Every figure, in the order `clp-fig all` runs them (EXPERIMENTS.md's
/// regeneration list), then the ones `all` leaves out.
#[rustfmt::skip]
pub static REGISTRY: [Figure; 15] = [
    fig("table1", "Table 1  core parameters", false, tables::table1),
    fig("fig5", "Fig. 5   TRIPS vs conventional OoO", true, fig5::run),
    fig("fig6", "Fig. 6   speedup vs composition size", true, sweep::fig6),
    fig("table2", "Table 2  area + power breakdown", false, tables::table2),
    fig("fig7", "Fig. 7   performance/area", true, sweep::fig7),
    fig("fig8", "Fig. 8   performance^2/Watt", true, sweep::fig8),
    fig("fig9", "Fig. 9   fetch/commit latency breakdowns", true, sweep::fig9),
    fig("fig10", "Fig. 10  multiprogrammed weighted speedup", true, fig10::run),
    fig("ablation_handshake", "§6.4 idealized handshakes", false, ablations::handshake),
    fig("ablation_bandwidth", "operand-network bandwidth 1 vs 2", false, ablations::bandwidth),
    fig("ablation_issue", "dual vs single issue", false, ablations::issue),
    fig("ablation_predictor", "distributed vs centralized control", false, ablations::predictor),
    fig("ablation_placement", "locality-aware instruction placement", false, ablations::placement),
    fig("ablation_schedule_target", "§5 schedule for 32 run on fewer", false, ablations::schedule),
    fig("fig_degraded", "throughput retained after a core kill", true, fig_degraded::run),
];

/// How many leading [`REGISTRY`] entries `clp-fig all` runs.
pub const ALL: usize = 14;

const fn fig(
    name: &'static str,
    what: &'static str,
    takes_obs: bool,
    run: fn(&mut Ctx) -> Option<String>,
) -> Figure {
    Figure {
        name,
        what,
        takes_obs,
        run,
    }
}

/// Looks a figure up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Figure> {
    REGISTRY.iter().find(|f| f.name == name)
}

/// Runs [`REGISTRY`]`[..`[`ALL`]`]` in order, then prints the
/// paper-versus-measured table from the headlines they returned plus the
/// two robustness rows.
pub fn run_all(ctx: &mut Ctx) {
    let headlines: Vec<String> = REGISTRY[..ALL]
        .iter()
        .filter_map(|f| (f.run)(ctx))
        .collect();
    println!("CLP reproduction summary (see EXPERIMENTS.md for the full discussion)");
    println!();
    for line in headlines {
        println!("{line}");
    }
    robustness_rows();
}

/// The fault-injection and recovery rows of the closing table, from the
/// unified stats-registry nodes (`faults/*`, `recovery/*`) of two quick
/// deterministic runs.
fn robustness_rows() {
    // A seeded chaos run on conv x8.
    let w = suite::by_name("conv").expect("conv exists");
    let plan = FaultPlan::parse("all=50", 1).expect("valid spec");
    match run_workload(&w, &ProcessorConfig::tflex(8).with_faults(plan)) {
        Ok(r) => println!(
            "Faults  conv x8 @ all=50 seed 1: {} injected ({} noc delays, {} forced nacks, \
             {} flipped predictions), still correct={}",
            r.snapshot.expect("faults/total") as u64,
            r.snapshot.expect("faults/noc_delays") as u64,
            r.snapshot.expect("faults/forced_nacks") as u64,
            r.snapshot.expect("faults/flipped_predictions") as u64,
            r.correct,
        ),
        Err(e) => println!("Faults  [chaos run failed: {e}]"),
    }

    // Kill one core of four mid-run.
    let cw = compile_workload(&w).expect("compiles");
    let clean = run_compiled(&cw, &ProcessorConfig::tflex(4)).expect("clean run");
    let region = clp_noc::region_for(&ProcessorConfig::tflex(4).sim.operand_net, 4, 0)
        .expect("region exists");
    let victim = region[2].0;
    let mut plan = FaultPlan::none();
    plan.add_kill(victim, (clean.stats.cycles / 2).max(1))
        .expect("valid kill");
    match run_compiled(&cw, &ProcessorConfig::tflex(4).with_faults(plan)) {
        Ok(r) => println!(
            "Recov   conv x4, core {victim} killed mid-run: detection {} cycles, \
             {} blocks flushed, {} B migrated, degraded ipc {:.2}, correct={}",
            r.snapshot.expect("recovery/detection_cycles") as u64,
            r.snapshot.expect("recovery/flushed_blocks") as u64,
            r.snapshot.expect("recovery/migrated_bytes") as u64,
            r.snapshot.expect("recovery/degraded_ipc"),
            r.correct,
        ),
        Err(e) => println!("Recov   [kill run failed: {e}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a document's `clp-fig` command lines mention.
    fn names_after_clp_fig(doc: &str) -> Vec<&str> {
        let mut names = Vec::new();
        for line in doc.lines() {
            let Some((_, rest)) = line.split_once("clp-fig ") else {
                continue;
            };
            names.extend(
                rest.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .take_while(|t| !t.is_empty())
                    .filter(|t| !matches!(*t, "all" | "list")),
            );
        }
        names
    }

    #[test]
    fn registry_names_are_unique_and_the_docs_resolve() {
        for (i, f) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[..i].iter().all(|g| g.name != f.name),
                "{} registered twice",
                f.name
            );
        }
        // EXPERIMENTS.md spells out what `clp-fig all` runs, in order.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let experiments = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).unwrap();
        let listed = names_after_clp_fig(&experiments);
        let all: Vec<&str> = REGISTRY[..ALL].iter().map(|f| f.name).collect();
        assert_eq!(listed[..ALL], all[..], "EXPERIMENTS.md's regeneration list");
        let readme = std::fs::read_to_string(format!("{root}/README.md")).unwrap();
        let mentioned = names_after_clp_fig(&readme);
        assert!(
            mentioned.len() >= REGISTRY.len(),
            "README lists the figures"
        );
        for name in listed.iter().chain(&mentioned) {
            assert!(by_name(name).is_some(), "docs name unknown figure `{name}`");
        }
    }
}
