//! Command-line runner: one workload at one composition, with a full
//! machine-state dump on failure. Handy for quick measurements, for
//! debugging protocol stalls, and for capturing traces.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin run_one -- mcf 16
//! cargo run --release -p clp-bench --bin run_one -- \
//!     802.11b 16 --trace out.json --stats-json stats.json --sample-every 500
//! ```
//!
//! `--trace <path>` writes a Chrome trace-event JSON file (open at
//! <https://ui.perfetto.dev>); `--stats-json <path>` writes the unified
//! [`clp_obs::StatsSnapshot`]; `--sample-every <cycles>` sets the
//! interval-sampling period (default 1000 when `--stats-json` is given).
//!
//! `--faults <spec>` attaches a deterministic fault-injection plan: a
//! comma-separated list of `kind[=rate]` entries (rate in per-mille,
//! default 25), or `all[=rate]` for every kind, e.g.
//! `--faults noc_delay,forced_nack=100`. Kinds: `noc_delay`, `noc_burst`,
//! `forced_nack`, `mispredict`, `dram_spike`, `handoff_delay`.
//! `--fault-seed <n>` picks the PRNG stream (default 1); the same spec
//! and seed always reproduce the same cycle count.
//!
//! `--lint` runs the [`clp_lint`] static analyses on the compiled
//! program before simulating and refuses to run it if any
//! error-severity diagnostic is found.
//!
//! `--bound` computes the clp-bound static cycle floor at the chosen
//! composition size, prints it beside the measured cycles with the
//! per-block component breakdown (which resource binds each block:
//! dataflow height, issue bandwidth, NoC link, or dispatch), and
//! renders the L5xx bound lints rustc-style.
//!
//! `--profile` enables the clp-prof cycle-accounting layer and prints
//! the top-down breakdown, the per-core contribution heatmap, and the
//! hottest mesh links after the run (see also the `clp-prof` binary for
//! suite-wide tables and JSON output).
//!
//! `--trend` records the clp-trend columnar time series (bucket shares
//! and IPC per interval) and prints the ASCII phase timeline after the
//! run; `--phase-table` also prints the per-phase bucket breakdown
//! table (and implies `--trend`). Both enable profiling so the bucket
//! columns are populated; cycle counts stay bit-identical either way.
//!
//! `--kill-core ID@CYCLE` (repeatable, up to 4) schedules a *hard*
//! kill: global core ID dies permanently at that cycle and the
//! composition must detect it, migrate state, and recompose around the
//! survivors. The schedule is exactly reproducible.
//!
//! `--max-cycles N` arms the per-run deadline watchdog: if the
//! simulation crosses N cycles it is killed with a typed
//! `DeadlineExceeded` error and run_one exits with code 4 — distinct
//! from other run failures so wrappers (CI timeouts, clp-serve) can
//! tell "job was slow" from "job is broken".
//!
//! Exit codes tell failure modes apart: 1 = outputs diverged from the
//! golden, 2 = usage error, 3 = the run itself failed (deadlock, cycle
//! limit, invalid kill schedule — i.e. recovery failure), 4 = killed by
//! the `--max-cycles` deadline.

use clp_core::compile_workload;
use clp_isa::Reg;
use clp_obs::{ChromeTraceWriter, Tracer, TrendOptions};
use clp_sim::{CoreKill, FaultPlan, Machine, RunError, SimConfig, ALL_FAULT_KINDS};
use clp_workloads::suite;

struct Args {
    name: String,
    cores: usize,
    trace: Option<String>,
    stats_json: Option<String>,
    sample_every: Option<u64>,
    faults: Option<String>,
    fault_seed: u64,
    kills: Vec<CoreKill>,
    max_cycles: Option<u64>,
    lint: bool,
    bound: bool,
    profile: bool,
    trend: bool,
    phase_table: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("run_one: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        name: "gzip".to_string(),
        cores: 32,
        trace: None,
        stats_json: None,
        sample_every: None,
        faults: None,
        fault_seed: 1,
        kills: Vec::new(),
        max_cycles: None,
        lint: false,
        bound: false,
        profile: false,
        trend: false,
        phase_table: false,
    };
    let mut positional = 0;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut flag_value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--trace" => args.trace = Some(flag_value("--trace")),
            "--stats-json" => args.stats_json = Some(flag_value("--stats-json")),
            "--sample-every" => {
                let v = flag_value("--sample-every");
                match v.parse() {
                    Ok(p) if p > 0 => args.sample_every = Some(p),
                    _ => die(&format!("--sample-every wants a period >= 1, got `{v}`")),
                }
            }
            "--lint" => args.lint = true,
            "--bound" => args.bound = true,
            "--profile" => args.profile = true,
            "--trend" => args.trend = true,
            "--phase-table" => {
                args.phase_table = true;
                args.trend = true;
            }
            "--faults" => args.faults = Some(flag_value("--faults")),
            "--kill-core" => {
                let v = flag_value("--kill-core");
                match CoreKill::parse(&v) {
                    Ok(k) => args.kills.push(k),
                    Err(e) => die(&format!("bad --kill-core: {e}")),
                }
            }
            "--max-cycles" => {
                let v = flag_value("--max-cycles");
                match v.parse() {
                    Ok(n) if n > 0 => args.max_cycles = Some(n),
                    _ => die(&format!("--max-cycles wants a budget >= 1, got `{v}`")),
                }
            }
            "--fault-seed" => {
                let v = flag_value("--fault-seed");
                match v.parse() {
                    Ok(s) => args.fault_seed = s,
                    Err(_) => die(&format!("bad --fault-seed `{v}`")),
                }
            }
            _ => {
                match positional {
                    0 => args.name = a,
                    1 => match a.parse() {
                        Ok(c) => args.cores = c,
                        Err(_) => die(&format!("bad core count `{a}`")),
                    },
                    _ => die(&format!("unexpected argument `{a}`")),
                }
                positional += 1;
            }
        }
    }
    args
}

fn main() {
    // Nonzero exit on a failed or incorrect run, so CI smoke jobs can
    // gate on run_one directly.
    let mut exit_code = 0;
    let args = parse_args();
    let (name, n) = (args.name.as_str(), args.cores);
    let w = suite::by_name(name).unwrap_or_else(|| {
        let names: Vec<&str> = suite::all().into_iter().map(|w| w.name).collect();
        die(&format!(
            "unknown workload `{name}`; available: {}",
            names.join(", ")
        ))
    });
    let cw = compile_workload(&w).expect("compiles");
    if args.lint {
        let cfg = clp_lint::LintConfig {
            placement_cores: n,
            ..clp_lint::LintConfig::default()
        };
        let report = clp_lint::lint_program(&cw.edge, &cfg);
        if report.is_empty() {
            println!("[lint: clean]");
        } else {
            print!("{}", clp_lint::render_report(&report, Some(&cw.edge)));
        }
        if report.has_errors() {
            die("lint found error-severity diagnostics");
        }
    }
    // Fail on an unwritable output path now, not after a long run.
    for path in args.trace.iter().chain(&args.stats_json) {
        if let Err(e) = std::fs::write(path, "") {
            die(&format!("cannot write `{path}`: {e}"));
        }
    }
    let mut cfg = SimConfig::tflex();
    cfg.max_cycles = 2_000_000;
    cfg.deadline = args.max_cycles;
    if let Some(spec) = &args.faults {
        cfg.faults = FaultPlan::parse(spec, args.fault_seed)
            .unwrap_or_else(|e| die(&format!("bad --faults spec: {e}")));
    }
    for k in &args.kills {
        cfg.faults
            .add_kill(usize::from(k.core), k.cycle)
            .unwrap_or_else(|e| die(&format!("bad --kill-core schedule: {e}")));
    }
    let mut m = Machine::new(cfg);
    if let Some(path) = &args.trace {
        m.set_tracer(Tracer::new(ChromeTraceWriter::new(path)));
    }
    if args.stats_json.is_some() || args.sample_every.is_some() {
        m.set_sample_period(args.sample_every.unwrap_or(1000));
    }
    if args.profile {
        m.enable_profiling();
    }
    if args.trend {
        if !args.profile {
            m.enable_profiling();
        }
        m.enable_trend(TrendOptions {
            period: args.sample_every.unwrap_or(1000),
            ..TrendOptions::default()
        });
    }
    for (addr, words) in &w.init_mem {
        m.memory_mut().image.load_words(*addr, words);
    }
    let pid = m
        .compose(n, 0, cw.edge.clone(), &w.args)
        .unwrap_or_else(|e| die(&format!("cannot compose {n} cores: {e:?}")));
    match m.run() {
        Ok(stats) => {
            let ret = m.register(pid, Reg::new(1));
            let ok = w.verify_against(&cw.golden, ret, &m.memory().image).is_ok();
            println!(
                "{name} on {n} cores: {} cycles, ret={ret:#x}, correct={ok}",
                stats.cycles
            );
            if !ok {
                exit_code = 1;
            }
            if args.faults.is_some() {
                let fs = stats.faults;
                let per_kind: Vec<String> = ALL_FAULT_KINDS
                    .iter()
                    .filter(|&&k| fs.count(k) > 0)
                    .map(|&k| format!("{}={}", k.label(), fs.count(k)))
                    .collect();
                println!(
                    "[faults: {} injected (seed {}){}{}]",
                    fs.total(),
                    args.fault_seed,
                    if per_kind.is_empty() { "" } else { ": " },
                    per_kind.join(", ")
                );
            }
            if !args.kills.is_empty() {
                let rec = stats.recovery;
                println!(
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
            if args.bound {
                let lcfg = clp_lint::LintConfig {
                    placement_cores: n,
                    ..clp_lint::LintConfig::default()
                };
                let pb = clp_lint::bound_program(&cw.edge, &lcfg, n);
                println!(
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
                    println!(
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
                    print!("{}", clp_lint::render_report(&report, Some(&cw.edge)));
                }
            }
            if args.profile {
                let report = m.profile_report().expect("profiling enabled");
                print!("{}", report.render_breakdown());
                print!("{}", report.render_core_heatmap());
                print!("{}", report.render_links(8));
            }
            if args.trend {
                let trend = m.take_trend_report().expect("trend enabled");
                print!("{}", trend.render_timeline());
                if args.phase_table {
                    print!("{}", trend.render_phase_table());
                }
            }
            let snapshot = m.snapshot();
            if let Some(path) = &args.stats_json {
                std::fs::write(path, snapshot.to_json()).expect("can write stats");
                println!(
                    "[stats -> {path}: {} intervals, ipc {:.2}]",
                    snapshot.intervals.len(),
                    snapshot.expect("proc0/ipc"),
                );
            }
        }
        Err(RunError::DeadlineExceeded { budget }) => {
            println!("{name} on {n} cores KILLED: exceeded --max-cycles deadline of {budget}");
            // 4: the watchdog fired. The job may well be fine, just
            // slower than the budget — callers decide whether to retry
            // with a larger one.
            exit_code = 4;
        }
        Err(e) => {
            println!("{name} on {n} cores FAILED: {e}");
            println!("{}", m.debug_snapshot());
            // 3, not 1: the run itself died (deadlock, cycle limit, bad
            // kill schedule), as opposed to finishing with wrong outputs.
            exit_code = 3;
        }
    }
    if let Some(path) = &args.trace {
        m.tracer().finish().expect("can write trace");
        println!("[trace -> {path}]");
    }
    std::process::exit(exit_code);
}
