//! Command-line runner: one workload at one composition, with a full
//! machine-state dump on failure. Handy for quick measurements, for
//! debugging protocol stalls, and for capturing traces.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin run_one -- mcf 16
//! cargo run --release -p clp-bench --bin run_one -- \
//!     802.11b 16 --trace out.json --stats-json stats.json
//! cargo run --release -p clp-bench --bin run_one -- \
//!     conv 4 --trend --sample-every 500
//! ```
//!
//! `run_one --help` lists the flags (generated from the table below).
//! What the one-liners there leave out:
//!
//! * `--trace` files open at <https://ui.perfetto.dev>; `--stats-json`
//!   writes the unified [`clp_obs::StatsSnapshot`] (end-of-run totals;
//!   a series over any of its paths is `clp-trend --paths`).
//! * `--faults` kinds: `noc_delay`, `noc_burst`, `forced_nack`,
//!   `mispredict`, `dram_spike`, `handoff_delay`, e.g. `--faults
//!   noc_delay,forced_nack=100`; the same spec and `--fault-seed` always
//!   reproduce the same cycle count.
//! * `--bound` also prints the per-block component breakdown (which
//!   resource binds each block: dataflow height, issue bandwidth, NoC
//!   link, or dispatch) and renders the L5xx bound lints rustc-style.
//! * `--trend` / `--phase-table` enable profiling so the bucket columns
//!   are populated; cycle counts stay bit-identical either way.
//!   `--sample-every` is their interval width and is refused without
//!   one of them.
//! * `--kill-core` is a *hard* kill: the core dies permanently and the
//!   composition must detect it, migrate state, and recompose around the
//!   survivors. The schedule is exactly reproducible.
//! * `--max-cycles` is the run's deadline (2 000 000 by default): past
//!   it the run is killed with a typed `DeadlineExceeded` and its own
//!   exit code, so wrappers (CI timeouts, clp-serve) can tell "job was
//!   slow" from "job is broken".
//!
//! Exit codes tell failure modes apart: 1 = outputs diverged from the
//! golden, 2 = usage error, 3 = the run itself failed (deadlock, invalid
//! kill schedule — i.e. recovery failure), 4 = killed by the
//! `--max-cycles` deadline.

use clp_core::cli::{self, die, or_die, write_or_die, CliError, Flag, Spec};
use clp_core::{compile_workload, ObsOptions};
use clp_isa::Reg;
use clp_obs::{RingRecorder, Tracer, TrendOptions};
use clp_sim::{CoreKill, FaultPlan, RunError, SimConfig, ALL_FAULT_KINDS};
use std::sync::{Arc, Mutex};

/// `print!` and `println!` through [`cli::out`]: a closed pipe ends the
/// run quietly.
macro_rules! out {
    ($($arg:tt)*) => { cli::out(format_args!($($arg)*)) };
}
macro_rules! outln {
    ($($arg:tt)*) => { cli::out(format_args!("{}\n", format_args!($($arg)*))) };
}

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "run_one",
    about: "Runs one workload at one composition; exits 1 wrong output, 3 run failed, 4 deadline.",
    positionals: &["[WORKLOAD]", "[CORES]"],
    flags: &[
        Flag::value("--trace", "PATH", "write a Chrome trace-event JSON file"),
        Flag::value("--stats-json", "PATH", "write the unified stats snapshot"),
        Flag::switch("--bound", "print the static cycle floor beside the measured cycles"),
        Flag::switch("--profile", "print the clp-prof breakdown, heatmap and hottest links"),
        Flag::switch("--trend", "print the clp-trend phase timeline"),
        Flag::switch("--phase-table", "also print the per-phase bucket table (implies --trend)"),
        Flag::value("--sample-every", "CYCLES", "--trend / --phase-table interval width (default 1000)"),
        Flag::value("--faults", "SPEC", "fault plan: kind[=rate],.. or all[=rate] (per-mille; 25)"),
        Flag::value("--fault-seed", "N", "fault PRNG stream (default 1)"),
        Flag::repeated("--kill-core", "ID@CYCLE", "hard-kill global core ID at CYCLE (up to 4)"),
        Flag::value("--max-cycles", "N", "deadline watchdog: exit 4 past N cycles (default 2000000)"),
    ],
    epilog: "",
};

fn main() {
    // Nonzero exit on a failed or incorrect run, so wrappers can gate on
    // run_one directly.
    let mut exit_code = 0;
    let args = SPEC.parse_env();
    let w = &or_die(cli::workload(args.positional(0).unwrap_or("gzip")));
    let (name, n) = (w.name, or_die(args.cores()).unwrap_or(32));
    let (trace, stats_json) = (args.text("--trace"), args.text("--stats-json"));
    let faults = args.text("--faults");
    let fault_seed: u64 = or_die(args.num("--fault-seed", ..)).unwrap_or(1);
    let kills: Vec<CoreKill> = args
        .texts("--kill-core")
        .map(|v| CoreKill::parse(v).unwrap_or_else(|e| die(format!("bad --kill-core: {e}"))))
        .collect();
    let deadline: u64 = or_die(args.num("--max-cycles", 1..)).unwrap_or(2_000_000);
    let bound = args.switch("--bound");
    let (profile, phase_table) = (args.switch("--profile"), args.switch("--phase-table"));
    let trend = args.switch("--trend") || phase_table;
    let period: u64 = or_die(match args.num("--sample-every", 1..) {
        Ok(Some(_)) if !trend => Err(CliError::Usage(
            "--sample-every is the --trend / --phase-table interval width; pass one of them".into(),
        )),
        given => given,
    })
    .unwrap_or(1000);
    let cw = compile_workload(w).unwrap_or_else(|e| {
        outln!("{name} on {n} cores FAILED: {e}");
        std::process::exit(3);
    });
    // Fail on an unwritable output path now, not after a long run.
    for path in trace.iter().chain(&stats_json) {
        write_or_die(path, "");
    }
    let mut cfg = SimConfig::tflex();
    cfg.deadline = deadline;
    if let Some(spec) = &faults {
        cfg.faults = FaultPlan::parse(spec, fault_seed)
            .unwrap_or_else(|e| die(format!("bad --faults spec: {e}")));
    }
    for k in &kills {
        cfg.faults
            .add_kill(usize::from(k.core), k.cycle)
            .unwrap_or_else(|e| die(format!("bad --kill-core schedule: {e}")));
    }
    // Every event of the run, rendered as the `--trace` file at the end.
    let recorder = trace
        .as_ref()
        .map(|_| Arc::new(Mutex::new(RingRecorder::new(usize::MAX))));
    let obs = ObsOptions {
        tracer: recorder.clone().map_or_else(Tracer::off, Tracer::shared),
        profile,
        trend: trend.then(|| TrendOptions {
            period,
            ..TrendOptions::default()
        }),
        ..ObsOptions::default()
    };
    let mut m = obs.machine(cfg);
    for (addr, words) in &w.init_mem {
        m.memory_mut().image.load_words(*addr, words);
    }
    let pid = m
        .compose(n, 0, cw.edge.clone(), &w.args)
        .unwrap_or_else(|e| die(format!("cannot compose {n} cores: {e:?}")));
    match m.run() {
        Ok(stats) => {
            let ret = m.register(pid, Reg::new(1));
            let ok = w.verify_against(&cw.golden, ret, &m.memory().image).is_ok();
            outln!(
                "{name} on {n} cores: {} cycles, ret={ret:#x}, correct={ok}",
                stats.cycles
            );
            if !ok {
                exit_code = 1;
            }
            if faults.is_some() {
                let fs = stats.faults;
                let per_kind: Vec<String> = ALL_FAULT_KINDS
                    .iter()
                    .filter(|&&k| fs.count(k) > 0)
                    .map(|&k| format!("{}={}", k.label(), fs.count(k)))
                    .collect();
                outln!(
                    "[faults: {} injected (seed {}){}{}]",
                    fs.total(),
                    fault_seed,
                    if per_kind.is_empty() { "" } else { ": " },
                    per_kind.join(", ")
                );
            }
            if !kills.is_empty() {
                let rec = stats.recovery;
                outln!(
                    "[recovery: {} killed, {} recoveries, detection {:.0} cycles, \
                     {} blocks flushed, {} B migrated, degraded ipc {:.2}]",
                    rec.cores_killed,
                    rec.recoveries,
                    rec.mean_detection_latency(),
                    rec.flushed_blocks,
                    rec.migrated_bytes,
                    rec.degraded_ipc(),
                );
            }
            if bound {
                let lcfg = clp_lint::LintConfig { placement_cores: n };
                let pb = clp_lint::bound_program(&cw.edge, &lcfg, n);
                outln!(
                    "[bound: static floor {} cycles vs {} measured ({:.2}x), \
                     floors must-commit={} terminal={} work={}]",
                    pb.cycles,
                    stats.cycles,
                    stats.cycles as f64 / pb.cycles as f64,
                    pb.must_commit,
                    pb.terminal,
                    pb.work_floor,
                );
                for b in &pb.blocks {
                    outln!(
                        "  block @{:#x}: bound {} cycles, bound by {} \
                         (height {}, flat {}, issue {}, noc {}, dispatch {}{})",
                        b.addr,
                        b.cycles,
                        b.binding.label(),
                        b.height,
                        b.flat_height,
                        b.issue,
                        b.noc,
                        b.dispatch,
                        if b.exhaustive {
                            ""
                        } else {
                            "; sampled predicate paths"
                        },
                    );
                }
                let diags = clp_lint::lint_bounds(&cw.edge, &lcfg);
                if !diags.is_empty() {
                    let report = clp_lint::LintReport { diagnostics: diags };
                    out!("{}", clp_lint::render_report(&report, Some(&cw.edge)));
                }
            }
            if profile {
                let report = m.profile_report().expect("profiling enabled");
                out!("{}", report.render_breakdown());
                out!("{}", report.render_core_heatmap());
                out!("{}", report.render_links(8));
            }
            if trend {
                let trend = m.take_trend_report().expect("trend enabled");
                out!("{}", trend.render_timeline());
                if phase_table {
                    out!("{}", trend.render_phase_table());
                }
            }
            if let Some(path) = &stats_json {
                let snapshot = m.snapshot();
                write_or_die(path, &snapshot.to_json());
                outln!("[stats -> {path}: ipc {:.2}]", snapshot.expect("proc0/ipc"));
            }
        }
        Err(RunError::DeadlineExceeded { budget }) => {
            outln!("{name} on {n} cores KILLED: exceeded --max-cycles deadline of {budget}");
            // 4: the watchdog fired. The job may well be fine, just
            // slower than the budget — callers decide whether to retry
            // with a larger one.
            exit_code = 4;
        }
        Err(e) => {
            outln!("{name} on {n} cores FAILED: {e}");
            outln!("{}", m.debug_snapshot());
            // 3, not 1: the run itself died (deadlock, bad kill
            // schedule), as opposed to finishing with wrong outputs.
            exit_code = 3;
        }
    }
    if let (Some(path), Some(recorder)) = (&trace, &recorder) {
        let recorder = recorder.lock().expect("trace recorder poisoned");
        write_or_die(path, &recorder.to_chrome_trace());
        outln!("[trace -> {path}]");
    }
    std::process::exit(exit_code);
}
