//! The clp-serve driver: generate a seeded job schedule, run the
//! service to full drain, and report.
//!
//! ```sh
//! # A quick chaotic run: 24 jobs, a planted panic, a doomed kill job.
//! cargo run --release -p clp-serve -- \
//!     --jobs 24 --seed 7 --plant-panic 5 --kill-core 11@800
//!
//! # Emit the pinned benchmark's report.
//! cargo run --release -p clp-serve -- --bench --json /tmp/bench.json
//! ```
//!
//! `--bench` pins the full configuration (seed 42, 48 jobs, 4 workers,
//! tight-budget jobs, a planted panic, and a no-survivor core kill) so
//! the resulting `clp-serve-v1` document is byte-reproducible: tier-1
//! holds it to the committed `BENCH_serve.json`, and `clp-diff` ranks
//! the leaves that moved between any two reports.
//!
//! `--scope` turns on the clp-scope recorder and prints its report
//! after the run — run summary, fleet cycle-attribution book, service
//! time series and phase table; `--scope-json <path>` writes the full
//! `clp-scope-v1` document (with `--bench`, byte-for-byte the committed
//! `SCOPE_serve.json`; `tests/scope.rs` pins that, the `--scope` text
//! and the Perfetto export) and `--perfetto <path>` a Chrome
//! trace-event file of the span trees and worker tracks. Scope is
//! observational: with it off the run takes the identical code path,
//! and with it on the `clp-serve-v1` report bytes do not change.
//!
//! Besides the report's counters, stdout carries one `[host: …]` line:
//! attempts run, how many of them continued a deadline-killed machine
//! instead of starting over, and the cycles the workers stepped against
//! the cycles the attempts were charged for (`service::HostLedger`; in
//! no JSON document — `tests/scope.rs` pins the bench's ledger).
//!
//! Exit codes: 0 = drained, 2 = usage error.

use clp_core::cli::{or_die, write_or_die, Flag, Spec};
use clp_obs::ScopeOptions;
use clp_serve::{arrivals, service, ServiceReport};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "clp-serve",
    about: "Generates a seeded job schedule, runs the service to full drain, and reports.",
    positionals: &[],
    flags: &[
        Flag::value("--jobs", "N", "jobs to generate (default 24)"),
        Flag::value("--seed", "N", "arrival and retry-jitter seed (default 7)"),
        Flag::value("--workers", "N", "worker slots (default 4)"),
        Flag::value("--queue-cap", "N", "submission-queue bound; arrivals beyond it are shed (8)"),
        Flag::value("--degrade-at", "N", "queue depth that halves an arrival's composition (6)"),
        Flag::value("--mean-gap", "TICKS", "mean interarrival gap (default 3000)"),
        Flag::value("--budget", "CYCLES", "per-attempt cycle budget (default 200000)"),
        Flag::value("--tight-every", "N", "every N-th job gets the tight budget; 0 = never (0)"),
        Flag::value("--tight-budget", "CYCLES", "the tight budget (default 2500)"),
        Flag::value("--retries", "N", "retries per job beyond the first attempt (default 3)"),
        Flag::repeated("--plant-panic", "JOB", "job whose first attempt panics its worker"),
        Flag::repeated("--kill-core", "JOB@CYCLE", "job whose first attempt kills its core"),
        Flag::switch("--bench", "pin the whole schedule to the committed benchmark configuration"),
        Flag::value("--json", "PATH", "write the clp-serve-v1 report"),
        Flag::switch("--scope", "record with clp-scope and print its report"),
        Flag::value("--scope-json", "PATH", "write the clp-scope-v1 document"),
        Flag::value("--perfetto", "PATH", "write span trees and worker tracks as a Chrome trace"),
    ],
    epilog: "",
};

fn main() {
    let a = SPEC.parse_env();
    let seed = or_die(a.num("--seed", ..)).unwrap_or(7);
    let acfg = arrivals::ArrivalConfig {
        jobs: or_die(a.num("--jobs", ..)).unwrap_or(24),
        seed,
        mean_gap: or_die(a.num("--mean-gap", 1..)).unwrap_or(3_000),
        budget: or_die(a.num("--budget", ..)).unwrap_or(200_000),
        tight_every: or_die(a.num("--tight-every", ..)).unwrap_or(0),
        tight_budget: or_die(a.num("--tight-budget", ..)).unwrap_or(2_500),
        plant_panic: or_die(a.nums("--plant-panic", ..)),
        kill_at: or_die(a.pairs("--kill-core")),
    };
    let scfg = service::ServiceConfig {
        workers: or_die(a.num("--workers", 1..)).unwrap_or(4),
        queue_cap: or_die(a.num("--queue-cap", 1..)).unwrap_or(8),
        degrade_at: or_die(a.num("--degrade-at", 1..)).unwrap_or(6),
        max_retries: or_die(a.num("--retries", ..)).unwrap_or(3),
        seed,
    };
    // The scheduling flags are validated even under --bench, then
    // replaced wholesale by the pinned specification.
    let (acfg, scfg) = if a.switch("--bench") {
        clp_serve::bench_spec()
    } else {
        (acfg, scfg)
    };
    let (scope_json, perfetto) = (a.text("--scope-json"), a.text("--perfetto"));

    let schedule = arrivals::generate(&acfg);
    let want_scope = a.switch("--scope") || scope_json.is_some() || perfetto.is_some();
    let sopts = want_scope.then(ScopeOptions::default);
    let (result, scope) = service::serve_scoped(schedule, &scfg, sopts.as_ref());
    let rep = ServiceReport::new(&acfg, &scfg, &result);

    let t = &rep.totals;
    println!(
        "clp-serve: {} submitted, {} completed, {} shed, {} invalid, \
         {} permanent, {} exhausted ({} retries)",
        t.submitted,
        t.completed,
        t.rejected_overloaded,
        t.rejected_invalid,
        t.failed_permanent,
        t.exhausted,
        t.retries,
    );
    println!(
        "[faults: {} deadline kills, {} panics, {} respawns, {} transient, {} degraded]",
        t.deadline_kills, t.panics, t.respawns, t.transient_failures, t.degraded,
    );
    println!(
        "[cache: {} hits, {} misses, {} programs, {} lint warnings]",
        t.cache_hits, t.cache_misses, t.cache_entries, t.lint_warnings,
    );
    // What the host did for it; on stdout only, never in the report.
    let h = &result.host;
    println!(
        "[host: {} attempts, {} resumed, {} cycles stepped for {} charged]",
        h.attempts, h.resumed, h.cycles_stepped, h.cycles_charged,
    );
    // No completed jobs means no percentiles; print `-` rather than a
    // fake zero.
    let tick = |v: Option<u64>| v.map_or("-".to_string(), |t| t.to_string());
    println!(
        "[latency: p50 {} p90 {} p99 {} max {} ticks; throughput {:.3}/ktick; drained at {}]",
        tick(rep.latency_ticks.p50),
        tick(rep.latency_ticks.p90),
        tick(rep.latency_ticks.p99),
        tick(rep.latency_ticks.max),
        rep.throughput_per_ktick,
        t.drained_at,
    );

    if let Some(path) = &a.text("--json") {
        write_or_die(path, &rep.to_json());
        println!("[report -> {path}]");
    }
    if let Some(sr) = &scope {
        if a.switch("--scope") {
            println!("{}", sr.render_summary());
            print!("{}", sr.render_fleet());
            print!("{}", sr.series.render_timeline());
            print!("{}", sr.series.render_phase_table());
        }
        if let Some(path) = &scope_json {
            write_or_die(path, &sr.to_json());
            println!("[scope -> {path}]");
        }
        if let Some(path) = &perfetto {
            write_or_die(path, &sr.to_perfetto());
            println!("[perfetto -> {path}]");
        }
    }
}
