//! Integration suite for clp-scope: span-tree invariants over random
//! seeded arrival streams, the view's series against the service's own
//! totals, byte-identical scope-on replay against the committed
//! `SCOPE_serve.json` golden (and its `--scope` text and `--perfetto`
//! export against `goldens/scope_bench{.txt,.perfetto.digest.json}`) and
//! of README's chaotic run against `goldens/{serve,scope}_chaos.json`
//! (and, at 1 and 8 workers, `goldens/{serve,scope}_w{1,8}.json`), and
//! the observational guarantee that turning scope on does not change the
//! `clp-serve-v1` document.
//!
//! The span invariants are structural: a job's lifecycle must *tile* —
//! queued, attempt, and backoff spans meet edge-to-edge from arrival to
//! finish with no gaps and no overlaps — and the worker occupancy
//! tracks must never double-book a slot. Any scheduler change that
//! breaks the event ordering contract shows up here as a torn span.

use clp::obs::{digest_golden, ScopeOptions, ScopeReport, Terminal};
use clp::serve::{
    arrivals::{self, ArrivalConfig},
    bench_spec, serve, serve_scoped, ServiceConfig, ServiceReport, ServiceResult,
};
use proptest::prelude::*;
use serde_json::{json, Value};

#[path = "common/golden.rs"]
mod golden;

/// Asserts every structural span invariant on one scope report.
fn assert_span_invariants(rep: &ScopeReport) {
    let mut completed = 0u64;
    for j in &rep.jobs {
        let executed = !matches!(j.terminal, Terminal::Shed | Terminal::Invalid);
        if !executed {
            // Rejected at admission: no lifecycle beyond the arrival.
            assert!(j.queued.is_empty(), "job {}: shed jobs have no spans", j.id);
            assert!(j.attempts.is_empty());
            assert_eq!(j.finish, j.arrival);
            continue;
        }
        if matches!(j.terminal, Terminal::Completed { .. }) {
            completed += 1;
        }
        // The lifecycle tiles: queued[k] | attempt[k] | backoff[k] |
        // queued[k+1] | ... with every edge meeting exactly.
        assert_eq!(
            j.attempts.len(),
            j.backoffs.len() + 1,
            "job {}: one more attempt than backoffs",
            j.id
        );
        assert_eq!(j.queued.len(), j.attempts.len(), "job {}", j.id);
        assert_eq!(j.queued[0].start, j.arrival, "job {}", j.id);
        for (k, a) in j.attempts.iter().enumerate() {
            assert_eq!(j.queued[k].end, a.start, "job {} attempt {k}", j.id);
            assert!(a.start <= a.end, "job {} attempt {k}", j.id);
            if let Some(c) = &a.compile {
                // A cache miss compiles inside the attempt, never a hit.
                assert!(!a.cache_hit, "job {} attempt {k}: hit never compiles", j.id);
                assert!(c.start >= a.start && c.end <= a.end, "job {}", j.id);
            }
            if let Some(b) = j.backoffs.get(k) {
                assert_eq!(a.end, b.start, "job {} backoff {k}", j.id);
                assert_eq!(
                    b.end,
                    j.queued[k + 1].start,
                    "job {} backoff {k} releases into the next queued span",
                    j.id
                );
            }
        }
        assert_eq!(
            j.attempts.last().expect("executed jobs attempt").end,
            j.finish,
            "job {}: the last attempt ends the lifecycle",
            j.id
        );
        assert!(j.finish <= rep.drained_at, "job {}", j.id);
    }

    // Worker occupancy: per-slot slices are sorted and disjoint.
    assert_eq!(rep.tracks.len(), rep.workers);
    for (w, track) in rep.tracks.iter().enumerate() {
        for pair in track.slices.windows(2) {
            assert!(
                pair[0].end <= pair[1].start,
                "worker {w}: occupancy overlaps ({:?} then {:?})",
                (pair[0].job, pair[0].start, pair[0].end),
                (pair[1].job, pair[1].start, pair[1].end),
            );
        }
    }
    // Every occupancy slice is some job's attempt, edge for edge.
    for track in &rep.tracks {
        for s in &track.slices {
            let j = rep.jobs.iter().find(|j| j.id == s.job).expect("job exists");
            let a = &j.attempts[s.attempt as usize];
            assert_eq!((a.start, a.end), (s.start, s.end));
        }
    }

    // The fleet book is exactly the sum of the per-job run-level books.
    assert_eq!(rep.fleet.total.jobs, completed);
    let mut want = clp::obs::BucketCycles::default();
    let mut want_sim = 0u64;
    for j in &rep.jobs {
        if let Some(book) = &j.book {
            want.merge(book);
        }
        if let Terminal::Completed { cycles } = &j.terminal {
            want_sim += cycles;
        }
    }
    assert_eq!(
        rep.fleet.total.buckets, want,
        "fleet book = sum of job books"
    );
    assert_eq!(rep.fleet.total.sim_cycles, want_sim);
    let by_class: u64 = rep.fleet.by_class.values().map(|b| b.sim_cycles).sum();
    let by_cores: u64 = rep.fleet.by_cores.values().map(|b| b.sim_cycles).sum();
    assert_eq!(by_class, want_sim, "class rollups partition the fleet");
    assert_eq!(by_cores, want_sim, "size rollups partition the fleet");
}

/// The view against the service's own totals: each count column of the
/// series sums to the matching counter, and the view's jobs are the
/// result's span trees.
fn assert_view_matches_totals(rep: &ScopeReport, result: &ServiceResult) {
    let t = &result.totals;
    for (path, total) in [
        ("scope/completed", t.completed),
        ("scope/retries", t.retries),
        ("scope/shed", t.rejected_overloaded),
        ("scope/cache_hits", t.cache_hits),
        ("scope/cache_misses", t.cache_misses),
    ] {
        let col = rep.series.columns.iter().find(|c| c.path == path);
        let sum: u64 = col.expect("series column").values.iter().sum();
        assert_eq!(sum, total, "{path} sums to its total");
    }
    assert_eq!(rep.jobs, result.spans);
    assert_eq!(rep.drained_at, t.drained_at);
}

/// The pinned `clp-serve --bench` run with scope on.
fn bench_run() -> (ServiceResult, ScopeReport) {
    let (acfg, scfg) = bench_spec();
    let (result, scope) = serve_scoped(
        arrivals::generate(&acfg),
        &scfg,
        Some(&ScopeOptions::default()),
    );
    (result, scope.expect("scope on"))
}

/// What `clp-serve --bench --scope --perfetto` prints and writes besides
/// `SCOPE_serve.json`: the four text reports, and the Perfetto export as
/// a digest.
fn bench_scope_goldens(scope: &ScopeReport) -> [(&'static str, String); 2] {
    let text = format!(
        "{}\n{}{}{}",
        scope.render_summary(),
        scope.render_fleet(),
        scope.series.render_timeline(),
        scope.series.render_phase_table()
    );
    [
        ("goldens/scope_bench.txt", text),
        (
            "goldens/scope_bench.perfetto.digest.json",
            digest_golden(&scope.to_perfetto()),
        ),
    ]
}

/// The bench's committed documents, fresh: `BENCH_serve.json`, the
/// `clp-serve-v1` document of `result`, and from `scope`,
/// `SCOPE_serve.json` and [`bench_scope_goldens`].
fn bench_goldens(result: &ServiceResult, scope: &ScopeReport) -> Vec<(&'static str, String)> {
    let (acfg, scfg) = bench_spec();
    let rep = ServiceReport::new(&acfg, &scfg, result).to_json();
    let mut goldens = vec![
        ("BENCH_serve.json", rep),
        ("SCOPE_serve.json", scope.to_json()),
    ];
    goldens.extend(bench_scope_goldens(scope));
    goldens
}

/// The host's ledger of the bench: the `scope_bench` section of
/// `goldens/cells.json`.
fn bench_cells(result: &ServiceResult) -> Value {
    let host = &result.host;
    json!({
        "attempts": (host.attempts),
        "resumed": (host.resumed),
        "cycles_stepped": (host.cycles_stepped),
        "cycles_charged": (host.cycles_charged)
    })
}

#[test]
fn bench_replay_is_byte_identical_and_matches_the_committed_goldens() {
    let (result_a, scope_a) = bench_run();
    let (result_b, scope_b) = bench_run();

    // Same (seed, job list) => byte-identical clp-scope-v1 documents.
    assert_eq!(
        scope_a.to_json(),
        scope_b.to_json(),
        "scope replay must be byte-identical"
    );
    assert_eq!(result_a, result_b);

    // ... and identical to the committed goldens: the scope document,
    // the clp-serve-v1 document of the scope-on run (scope on must not
    // perturb the committed scope-off benchmark, which is what
    // `regenerate_scope_goldens` writes), the scope text reports and the
    // Perfetto export.
    for (file, fresh) in bench_goldens(&result_a, &scope_a) {
        golden::assert_golden(file, &fresh);
    }

    // Deadline kills are continued on the machine they stopped, not
    // re-simulated from cycle 0. No report can tell (virtual time is
    // charged from budgets and cycle counts), so the host's own ledger
    // is pinned: the bench continues some of its attempts, and steps
    // fewer cycles than it is charged for.
    let host = result_a.host;
    assert!(host.resumed > 0 && host.cycles_stepped < host.cycles_charged);
    golden::assert_cells("scope_bench", &bench_cells(&result_a));

    // The chaotic bench run satisfies every span invariant too.
    assert_span_invariants(&scope_a);
    assert_view_matches_totals(&scope_a, &result_a);
    assert_eq!(scope_a.fleet.total.jobs, result_a.totals.completed);
}

/// README's chaotic run, `clp-serve --jobs 24 --seed 7 --plant-panic 5
/// --kill-core 11@800`, with every other flag at its default: a second
/// pinned stream beside the bench. Besides the default 4 workers it is
/// pinned at 1, a dispatch batch of one, and at 8, batches wider than a
/// two-CPU host. Each run must satisfy every span invariant; returns
/// each run's two documents under their golden's name.
fn chaos_goldens() -> Vec<(&'static str, String)> {
    let acfg = ArrivalConfig {
        jobs: 24,
        seed: 7,
        plant_panic: vec![5],
        kill_at: vec![(11, 800)],
        ..ArrivalConfig::default()
    };
    let mut goldens = Vec::new();
    for (workers, serve_golden, scope_golden) in [
        (4, "goldens/serve_chaos.json", "goldens/scope_chaos.json"),
        (1, "goldens/serve_w1.json", "goldens/scope_w1.json"),
        (8, "goldens/serve_w8.json", "goldens/scope_w8.json"),
    ] {
        let scfg = ServiceConfig {
            workers,
            seed: 7,
            ..ServiceConfig::default()
        };
        let (result, scope) = serve_scoped(
            arrivals::generate(&acfg),
            &scfg,
            Some(&ScopeOptions::default()),
        );
        let scope = scope.expect("scope on");
        assert_span_invariants(&scope);
        assert_view_matches_totals(&scope, &result);
        let rep = ServiceReport::new(&acfg, &scfg, &result).to_json();
        goldens.push((serve_golden, rep));
        goldens.push((scope_golden, scope.to_json()));
    }
    goldens
}

#[test]
fn chaos_run_matches_the_committed_chaos_goldens() {
    for (file, fresh) in chaos_goldens() {
        golden::assert_golden(file, &fresh);
    }
}

/// Not a check: rewrites every golden this file holds — the bench's and
/// the chaos run's documents, and this file's section of
/// `goldens/cells.json`.
#[test]
#[ignore = "rewrites goldens/; run `cargo test -q --release -- --ignored regenerate`"]
fn regenerate_scope_goldens() {
    let (result, scope) = bench_run();
    let (acfg, scfg) = bench_spec();
    let scope_off = serve(arrivals::generate(&acfg), &scfg);
    for (file, fresh) in bench_goldens(&scope_off, &scope)
        .into_iter()
        .chain(chaos_goldens())
    {
        golden::write(file, &fresh);
    }
    golden::write_cells(vec![("scope_bench", bench_cells(&result))]);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 50,
        ..ProptestConfig::default()
    })]

    #[test]
    fn span_invariants_hold_over_random_arrival_streams(
        jobs in 1usize..10,
        seed in 0u64..512,
        workers in 1usize..4,
        queue_cap in 1usize..6,
        tight_every in 0usize..5,
        panic_pick in 0u64..4,
    ) {
        let acfg = ArrivalConfig {
            jobs,
            seed,
            mean_gap: 2_500,
            budget: 150_000,
            tight_every,
            tight_budget: 2_000,
            // Sometimes sabotage a job that may or may not exist.
            plant_panic: vec![panic_pick],
            kill_at: vec![],
        };
        let scfg = ServiceConfig {
            workers,
            queue_cap,
            degrade_at: queue_cap.max(2) - 1,
            max_retries: 2,
            seed,
        };
        let (result, scope) =
            serve_scoped(arrivals::generate(&acfg), &scfg, Some(&ScopeOptions::default()));
        let scope = scope.expect("scope on");
        prop_assert_eq!(scope.jobs.len(), jobs, "every submitted job gets a span tree");
        prop_assert_eq!(scope.fleet.total.jobs, result.totals.completed);
        prop_assert_eq!(scope.drained_at, result.totals.drained_at);
        assert_span_invariants(&scope);
        assert_view_matches_totals(&scope, &result);
    }
}
