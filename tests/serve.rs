//! Integration suite for clp-serve: deterministic replay, panic
//! isolation, deadline kills with budget escalation, recovery-failure
//! retries, overload shedding, graceful degradation, full drain, and
//! the continued deadline kill: which attempts run on a parked machine,
//! that doing so never shows in a cycle count, and what it saves the
//! host ([`HostLedger`]); and, under all of it, the worker side:
//! [`run_batch`] runs one dispatch tick's attempts, a panic is one
//! request's `Panicked` response, and a parked machine is continued only
//! under equal settings.
//!
//! Everything here leans on the service's central contract: no
//! wall-clock anywhere, so one `(arrival schedule, config)` pair
//! reproduces the entire run — including every retry, panic, and shed
//! job — byte-for-byte.

use clp::core::{run_workload, FailureClass, ProcessorConfig};
use clp::obs::{AttemptEnd, ScopeOptions};
use clp::serve::pool::{run_batch, ExecOutcome, ExecRequest, ExecResponse, Settings};
use clp::serve::{
    arrivals::{self, ArrivalConfig},
    cache::content_hash,
    serve, serve_scoped, HostLedger, JobOutcome, JobRecord, JobSpec, Rejected, ServiceConfig,
    ServiceReport, ServiceResult,
};
use clp::sim::{FaultKind, FaultPlan};
use proptest::prelude::*;
use std::sync::Arc;

fn chaos_arrivals() -> ArrivalConfig {
    // A small but fully loaded schedule: a planted panic, a doomed
    // one-core kill job (guaranteed recovery failure on attempt 0), and
    // tight budgets that force deadline kills + escalation.
    ArrivalConfig {
        jobs: 10,
        seed: 1234,
        mean_gap: 4_000,
        budget: 200_000,
        // Stride 4 puts the tight budgets on ids 3 and 7 — deliberately
        // away from the kill job, which must recover on a full budget.
        tight_every: 4,
        tight_budget: 2_500,
        plant_panic: vec![2],
        kill_at: vec![(4, 600)],
    }
}

/// A `serve_scoped` result with the books taken out of its span trees,
/// after checking that exactly the completed jobs carry one: what
/// `serve` returns for the same run, spans included.
fn unbooked(mut scoped: ServiceResult) -> ServiceResult {
    for (s, r) in scoped.spans.iter_mut().zip(&scoped.records) {
        assert_eq!((s.id, s.workload.as_str()), (r.id, r.workload.as_str()));
        let book = s.book.take();
        assert_eq!(book.is_some(), r.outcome.is_completed(), "job {}", s.id);
    }
    scoped
}

/// Recounts, here and not with the service's code, every counter of
/// `totals` that is a view of the job book — from the records, from the
/// span trees, or from both — and the latency multiset, and checks that
/// each record is its span tree's.
fn assert_totals_are_the_records(r: &ServiceResult) {
    let t = &r.totals;
    let rejected = |x: &JobRecord| matches!(x.outcome, JobOutcome::Rejected(_));
    let count =
        |pred: &dyn Fn(&JobRecord) -> bool| r.records.iter().filter(|x| pred(x)).count() as u64;
    assert_eq!(t.submitted, r.records.len() as u64);
    assert_eq!(t.admitted, count(&|x| !rejected(x)));
    assert_eq!(t.completed, count(&|x| x.outcome.is_completed()));
    let shed =
        |x: &JobRecord| matches!(x.outcome, JobOutcome::Rejected(Rejected::Overloaded { .. }));
    assert_eq!(t.rejected_overloaded, count(&shed));
    assert_eq!(t.rejected_invalid, count(&|x| rejected(x) && !shed(x)));
    assert_eq!(
        t.failed_permanent,
        count(&|x| matches!(x.outcome, JobOutcome::Failed { .. }))
    );
    assert_eq!(
        t.exhausted,
        count(&|x| matches!(x.outcome, JobOutcome::Exhausted { .. }))
    );
    assert_eq!(
        t.degraded,
        count(&|x| !rejected(x) && x.cores_granted < x.cores_requested)
    );

    let attempts = || r.spans.iter().flat_map(|s| &s.attempts);
    let ended = |kind: AttemptEnd| attempts().filter(|a| a.end_kind == kind).count() as u64;
    let backoffs: usize = r.spans.iter().map(|s| s.backoffs.len()).sum();
    assert_eq!(t.retries, backoffs as u64);
    assert_eq!(t.deadline_kills, ended(AttemptEnd::DeadlineKill));
    assert_eq!(t.panics, ended(AttemptEnd::Panicked));
    assert_eq!(
        t.respawns, t.panics,
        "a virtual worker is respawned exactly on a panic"
    );
    assert_eq!(t.transient_failures, ended(AttemptEnd::Transient));
    assert_eq!(
        t.cache_hits,
        attempts().filter(|a| a.cache_hit).count() as u64
    );
    assert_eq!(
        t.cache_misses,
        attempts().filter(|a| !a.cache_hit).count() as u64
    );

    assert_eq!(r.spans.len(), r.records.len());
    for (x, s) in r.records.iter().zip(&r.spans) {
        assert_eq!((x.id, x.arrival, x.finish), (s.id, s.arrival, s.finish));
        assert_eq!(x.attempts as usize, s.attempts.len(), "job {}", x.id);
        let granted = if rejected(x) { 0 } else { s.cores };
        assert_eq!(x.cores_granted, granted, "job {}", x.id);
    }
    let sorted = |mut v: Vec<u64>| {
        v.sort_unstable();
        v
    };
    let completed = r.records.iter().filter(|x| x.outcome.is_completed());
    let want: Vec<u64> = completed.map(|x| x.finish - x.arrival).collect();
    assert_eq!(sorted(r.latencies.clone()), sorted(want), "latencies");
}

fn quiet_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 3,
        seed: 1234,
        ..ServiceConfig::default()
    }
}

#[test]
fn same_seed_replays_byte_for_byte() {
    let acfg = chaos_arrivals();
    let scfg = quiet_cfg();
    let run = || {
        let result = serve(arrivals::generate(&acfg), &scfg);
        ServiceReport::new(&acfg, &scfg, &result).to_json()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "clp-serve-v1 reports must be byte-identical");
    assert!(a.contains("\"schema\": \"clp-serve-v1\""));
}

#[test]
fn chaos_run_survives_panic_kill_and_deadline_without_corrupting_siblings() {
    // The acceptance run: one seeded service run absorbing a worker
    // panic, a no-survivor core kill (recovery failure), and deadline
    // kills — while every job not deliberately doomed completes.
    let acfg = chaos_arrivals();
    let scfg = quiet_cfg();
    let result = serve(arrivals::generate(&acfg), &scfg);
    let t = &result.totals;
    assert_eq!(t.submitted, 10);
    assert_eq!(t.panics, 1, "the planted panic fired");
    assert_eq!(t.respawns, 1, "the panicked worker was respawned");
    assert!(t.transient_failures >= 1, "the kill job failed transiently");
    assert!(t.deadline_kills >= 1, "tight budgets were reaped");
    // Every submitted job reached a terminal state; nothing hung or
    // vanished.
    assert_eq!(result.records.len(), 10);
    // The sabotaged and killed jobs recovered via retry.
    let by_id = |id: u64| {
        result
            .records
            .iter()
            .find(|r| r.id == id)
            .expect("record exists")
    };
    assert!(by_id(2).outcome.is_completed(), "panicked job retried OK");
    assert!(by_id(4).outcome.is_completed(), "killed job retried OK");
    assert!(by_id(2).attempts >= 2);
    assert!(by_id(4).attempts >= 2);
    // No permanent failures: all of the suite verifies.
    assert_eq!(t.failed_permanent, 0);
}

#[test]
fn planted_panic_leaves_sibling_cycle_counts_untouched() {
    // Two identical schedules, except one plants a panic in job 1.
    // Simulated cycle counts are pure functions of (workload, cores,
    // budget, faults), so every *other* job must report exactly the
    // same cycles in both runs — panic isolation down to the cycle.
    let schedule = |sabotage: bool| {
        let mut jobs = vec![
            (1_000u64, JobSpec::new(0, "conv", 8, 200_000)),
            (2_000, JobSpec::new(1, "bezier", 4, 200_000)),
            (3_000, JobSpec::new(2, "autocor", 4, 200_000)),
            (4_000, JobSpec::new(3, "tblook", 2, 200_000)),
        ];
        jobs[1].1.sabotage = sabotage;
        jobs
    };
    let cfg = quiet_cfg();
    let clean = serve(schedule(false), &cfg);
    let chaotic = serve(schedule(true), &cfg);
    assert_eq!(chaotic.totals.panics, 1);
    assert_eq!(clean.totals.panics, 0);
    for id in [0u64, 2, 3] {
        let cycles = |r: &clp::serve::ServiceResult| match r
            .records
            .iter()
            .find(|rec| rec.id == id)
            .expect("record")
            .outcome
        {
            JobOutcome::Completed { cycles } => cycles,
            ref other => panic!("job {id} should complete, got {other:?}"),
        };
        assert_eq!(
            cycles(&clean),
            cycles(&chaotic),
            "job {id} cycle count perturbed by sibling panic"
        );
    }
    // The sabotaged job itself still completes, one retry later.
    assert!(chaotic
        .records
        .iter()
        .find(|r| r.id == 1)
        .unwrap()
        .outcome
        .is_completed());
}

#[test]
fn deadline_kills_escalate_budget_until_success() {
    // conv at 8 cores needs ~7k cycles. A 2k budget dies, 4k dies, 8k
    // succeeds: two deadline kills, two retries, then completion.
    let jobs = vec![(1u64, JobSpec::new(0, "conv", 8, 2_000))];
    let r = serve(jobs, &quiet_cfg());
    assert_eq!(r.totals.deadline_kills, 2);
    assert_eq!(r.totals.retries, 2);
    assert_eq!(r.totals.completed, 1);
    assert_eq!(r.records[0].attempts, 3);
}

#[test]
fn recovery_failure_from_kill_schedule_is_retried_fault_free() {
    // Killing the only core of a 1-core composition leaves no survivor:
    // attempt 0 fails transiently; the retry runs fault-free by policy
    // and completes.
    let mut spec = JobSpec::new(0, "conv", 1, 500_000);
    spec.faults.add_kill(0, 500).expect("valid kill");
    let r = serve(vec![(1, spec)], &quiet_cfg());
    assert_eq!(r.totals.transient_failures, 1);
    assert_eq!(r.totals.retries, 1);
    assert_eq!(r.totals.completed, 1);
    assert_eq!(r.records[0].attempts, 2);
}

#[test]
fn overload_sheds_at_a_pinned_deterministic_rate() {
    // One worker, queue capped at 3: ten near-simultaneous long jobs.
    // Job 0 dispatches, jobs 1-3 queue; every later arrival sees a full
    // queue and is shed with a typed Overloaded rejection.
    let cfg = ServiceConfig {
        workers: 1,
        queue_cap: 3,
        degrade_at: 2,
        seed: 7,
        ..ServiceConfig::default()
    };
    let jobs: Vec<(u64, JobSpec)> = (0..10)
        .map(|i| (i + 1, JobSpec::new(i, "conv", 8, 200_000)))
        .collect();
    let r = serve(jobs, &cfg);
    assert_eq!(r.totals.rejected_overloaded, 6, "exactly jobs 4..=9 shed");
    assert_eq!(r.totals.admitted, 4);
    assert_eq!(r.totals.completed, 4);
    assert_eq!(r.totals.max_queue_depth, 3);
    for rec in r.records.iter().filter(|rec| rec.id >= 4) {
        assert!(
            matches!(
                rec.outcome,
                JobOutcome::Rejected(Rejected::Overloaded { depth: 3 })
            ),
            "job {} should be shed at depth 3, got {:?}",
            rec.id,
            rec.outcome
        );
    }
}

#[test]
fn degradation_halves_composition_before_refusing() {
    // Queue deep enough to cross the degrade watermark but not the cap:
    // later arrivals are admitted at half their requested size.
    let cfg = ServiceConfig {
        workers: 1,
        queue_cap: 8,
        degrade_at: 2,
        seed: 7,
        ..ServiceConfig::default()
    };
    let jobs: Vec<(u64, JobSpec)> = (0..5)
        .map(|i| (i + 1, JobSpec::new(i, "conv", 16, 200_000)))
        .collect();
    let r = serve(jobs, &cfg);
    assert_eq!(r.totals.rejected_overloaded, 0);
    assert_eq!(r.totals.degraded, 2, "jobs 3 and 4 arrive above watermark");
    let granted: Vec<usize> = r.records.iter().map(|rec| rec.cores_granted).collect();
    assert_eq!(granted, vec![16, 16, 16, 8, 8]);
    assert_eq!(r.totals.completed, 5, "degraded jobs still run and verify");
}

#[test]
fn malformed_jobs_get_typed_rejections_not_panics() {
    let jobs = vec![
        (1u64, JobSpec::new(0, "not-a-workload", 8, 1_000)),
        (2, JobSpec::new(1, "conv", 5, 1_000)),
        (3, JobSpec::new(2, "conv", 8, 0)),
        (4, JobSpec::new(3, "conv", 8, 200_000)),
    ];
    let r = serve(jobs, &quiet_cfg());
    assert_eq!(r.totals.rejected_invalid, 3);
    assert_eq!(r.totals.completed, 1, "the well-formed job is unaffected");
    assert!(matches!(
        r.records[0].outcome,
        JobOutcome::Rejected(Rejected::UnknownWorkload { .. })
    ));
    assert!(matches!(
        r.records[1].outcome,
        JobOutcome::Rejected(Rejected::InvalidCores { cores: 5 })
    ));
    assert!(matches!(
        r.records[2].outcome,
        JobOutcome::Rejected(Rejected::ZeroBudget)
    ));
}

#[test]
fn service_drains_gracefully_on_shutdown() {
    // Drain contract: serve() returns only after every admitted job —
    // including retries in flight when arrivals stop — reaches a
    // terminal record, and every worker thread is joined within its tick.
    let acfg = chaos_arrivals();
    let scfg = quiet_cfg();
    let r = serve(arrivals::generate(&acfg), &scfg);
    assert_totals_are_the_records(&r);
    let t = &r.totals;
    let terminal =
        t.completed + t.rejected_overloaded + t.rejected_invalid + t.failed_permanent + t.exhausted;
    assert_eq!(terminal, t.submitted, "every job reached a terminal state");
    assert_eq!(r.records.len(), acfg.jobs);
    // Drained strictly after the last arrival was processed.
    let last_arrival = arrivals::generate(&acfg).last().unwrap().0;
    assert!(t.drained_at >= last_arrival);
    // Ids are unique and sorted in the report.
    for pair in r.records.windows(2) {
        assert!(pair[0].id < pair[1].id);
    }
}

#[test]
fn fault_free_plan_is_default_and_kill_plans_round_trip() {
    // Sanity on the job-facing fault surface the service exposes.
    let spec = JobSpec::new(0, "conv", 4, 1_000);
    assert_eq!(spec.faults, FaultPlan::none());
    let mut with_kill = spec.clone();
    with_kill.faults.add_kill(2, 99).expect("valid");
    assert_ne!(with_kill.faults, FaultPlan::none());
}

/// Cycles of `name` run directly — from cycle 0, fault-free, no
/// deadline — on `cores` cores.
fn direct_cycles(name: &str, cores: usize) -> u64 {
    let w = clp::workloads::suite::by_name(name).expect("suite kernel");
    let out = run_workload(&w, &ProcessorConfig::tflex(cores)).expect("runs directly");
    out.stats.cycles
}

/// Every completed record reports the cycles of the direct run at its
/// granted size: whatever was continued, nothing of it shows.
fn assert_completed_cycles_are_direct(result: &ServiceResult) {
    for r in &result.records {
        if let JobOutcome::Completed { cycles } = r.outcome {
            let direct = direct_cycles(&r.workload, r.cores_granted);
            assert_eq!(cycles, direct, "job {} ({})", r.id, r.workload);
        }
    }
}

#[test]
fn a_deadline_kill_under_attempt_0_faults_is_not_continued() {
    // Attempt 0 runs under the job's fault plan and a budget it cannot
    // meet; the retry runs fault-free, so its settings differ and the
    // faulted machine must be dropped: continuing it would carry the
    // faulted prefix into the reported cycle count. Attempt 1 is killed
    // fault-free at 4 000 and attempt 2 continues *that* machine.
    let mut spec = JobSpec::new(0, "conv", 8, 2_000);
    spec.faults = FaultPlan::only(FaultKind::DramSpike, 9, 400);
    let r = serve(vec![(1, spec)], &quiet_cfg());
    assert_eq!((r.totals.deadline_kills, r.totals.completed), (2, 1));
    assert_eq!(r.records[0].attempts, 3);
    assert_completed_cycles_are_direct(&r);
    let JobOutcome::Completed { cycles } = r.records[0].outcome else {
        unreachable!("checked above");
    };
    assert_eq!(
        r.host,
        HostLedger {
            attempts: 3,
            resumed: 1,
            // 0..2 000 faulted, 0..4 000 afresh, then on from 4 000.
            cycles_stepped: 2_000 + cycles,
            cycles_charged: 2_000 + 4_000 + cycles,
        }
    );
}

#[test]
fn the_gzip_shape_resumes_exactly_once() {
    // A no-survivor kill is refused before cycle 0 (transient), the
    // fault-free retry outlives 200 000 cycles, and the third attempt
    // runs the second's machine on: gzip is simulated once, end to end.
    let mut spec = JobSpec::new(0, "gzip", 1, 200_000);
    spec.faults.add_kill(0, 800).expect("valid kill");
    let r = serve(vec![(1, spec)], &quiet_cfg());
    let t = &r.totals;
    assert_eq!((t.transient_failures, t.deadline_kills), (1, 1));
    assert_eq!((t.retries, t.completed), (2, 1));
    assert_completed_cycles_are_direct(&r);
    let JobOutcome::Completed { cycles } = r.records[0].outcome else {
        unreachable!("checked above");
    };
    assert_eq!(
        r.host,
        HostLedger {
            attempts: 3,
            resumed: 1,
            cycles_stepped: cycles,
            cycles_charged: 200_000 + cycles,
        }
    );
}

#[test]
fn serve_batch_shaped_streams_step_only_the_cycles_that_complete() {
    // The four pinned streams of clp-hostbench's `serve_batch` (the
    // specification is copied from benchmark/src/workloads.rs): 48 jobs
    // all complete, 27 deadline kills on the way. Before kills were
    // continued the workers stepped every charged cycle — 1 785 851 —
    // of which 410 000 were re-simulated prefixes.
    let scfg = ServiceConfig {
        workers: 2,
        queue_cap: 64,
        degrade_at: 48,
        max_retries: 7,
        seed: 42,
        ..ServiceConfig::default()
    };
    let mut host = HostLedger::default();
    let (mut completed, mut kills) = (0, 0);
    for stream in 0..4 {
        let acfg = ArrivalConfig {
            jobs: 12,
            seed: 42 + stream,
            mean_gap: 3_000,
            budget: 200_000,
            tight_every: 5,
            tight_budget: 2_500,
            plant_panic: vec![5],
            kill_at: vec![(11, 800)],
        };
        let plain = serve(arrivals::generate(&acfg), &scfg);
        let (scoped, _) = serve_scoped(
            arrivals::generate(&acfg),
            &scfg,
            Some(&ScopeOptions::default()),
        );
        assert_eq!(
            plain,
            unbooked(scoped),
            "stream {stream}: scope on changes nothing but the books"
        );
        completed += plain.totals.completed;
        kills += plain.totals.deadline_kills;
        host.attempts += plain.host.attempts;
        host.resumed += plain.host.resumed;
        host.cycles_stepped += plain.host.cycles_stepped;
        host.cycles_charged += plain.host.cycles_charged;
    }
    assert_eq!((completed, kills), (48, 27));
    assert_eq!(
        host,
        HostLedger {
            attempts: 83,
            resumed: 27,
            cycles_stepped: 1_375_851,
            cycles_charged: 1_785_851,
        }
    );
}

/// A fault-free first attempt of `name` on `cores` cores, compiling on
/// the worker.
fn plain_request(id: u64, name: &str, cores: usize, budget: u64) -> ExecRequest {
    let workload = clp::workloads::suite::by_name(name).expect("suite workload");
    ExecRequest {
        job_id: id,
        settings: Settings {
            program: content_hash(&workload),
            cores,
            faults: FaultPlan::none(),
            sabotage: false,
            profile: false,
        },
        budget,
        workload: Arc::new(workload),
        compiled: None,
        parked: None,
    }
}

/// `req` as a batch of one, on slot 0.
fn run_alone(req: ExecRequest) -> ExecResponse {
    let mut responses = run_batch(vec![(0, req)]);
    assert_eq!(responses.len(), 1, "one response per request");
    responses.pop().expect("checked")
}

/// A success's `(cycles, resumed, stepped)`.
fn completed(resp: ExecResponse) -> (u64, bool, u64) {
    match resp.outcome {
        ExecOutcome::Success { cycles, .. } => (cycles, resp.resumed, resp.stepped),
        _ => panic!("expected the request to complete"),
    }
}

/// conv on 8 cores killed at 500 cycles: the response.
fn killed_at_500() -> ExecResponse {
    let resp = run_alone(plain_request(3, "conv", 8, 500));
    match &resp.outcome {
        ExecOutcome::Failure(f) => assert_eq!(f.class(), FailureClass::DeadlineKill),
        _ => panic!("expected a deadline kill"),
    }
    resp
}

/// conv on 8 cores with a 200 000-cycle budget, continuing the machine
/// [`killed_at_500`] parked.
fn continued_after_500() -> ExecRequest {
    ExecRequest {
        parked: killed_at_500().parked,
        ..plain_request(3, "conv", 8, 200_000)
    }
}

#[test]
fn run_batch_runs_a_job_and_returns_the_compile() {
    let resp = run_alone(plain_request(7, "conv", 8, 200_000));
    assert!(resp.compiled_here.is_some(), "miss compiles");
    let (cycles, resumed, stepped) = completed(resp);
    assert!(cycles > 100);
    assert_eq!((resumed, stepped), (false, cycles));
}

#[test]
fn a_planted_panic_is_a_panicked_response_and_the_slot_runs_on() {
    let mut req = plain_request(1, "conv", 4, 200_000);
    req.settings.sabotage = true;
    let resp = run_alone(req);
    assert!(matches!(resp.outcome, ExecOutcome::Panicked));
    assert!(resp.parked.is_none() && resp.compiled_here.is_none());
    // The next batch on the same slot is serviceable.
    completed(run_alone(plain_request(2, "conv", 4, 200_000)));
}

#[test]
fn deadline_kill_is_reported_as_typed_failure_and_hands_the_machine_back() {
    let resp = killed_at_500();
    assert!(resp.parked.is_some());
    assert_eq!((resp.resumed, resp.stepped), (false, 500));
}

#[test]
fn a_parked_machine_is_continued_only_under_equal_settings() {
    let retry = |change: fn(&mut Settings)| {
        let mut req = continued_after_500();
        change(&mut req.settings);
        let resp = run_alone(req);
        assert!(resp.parked.is_none());
        completed(resp)
    };
    // Only the budget differs: runs on from cycle 500.
    let (cycles, resumed, stepped) = retry(|_| ());
    assert_eq!((resumed, stepped), (true, cycles - 500));
    // Any one setting differs: the machine is dropped, cycle 0.
    let changes: [fn(&mut Settings); 4] = [
        |s| s.cores = 4,
        |s| s.profile = true,
        |s| s.faults = FaultPlan::only(FaultKind::DramSpike, 1, 200),
        |s| s.program ^= 1,
    ];
    for change in changes {
        let (from_zero, resumed, stepped) = retry(change);
        assert_eq!((resumed, stepped), (false, from_zero));
    }
}

#[test]
fn results_are_pure_functions_of_the_request() {
    let responses = run_batch(vec![
        (0, plain_request(1, "bezier", 4, 200_000)),
        (1, plain_request(2, "bezier", 4, 200_000)),
    ]);
    let cycles: Vec<u64> = responses.into_iter().map(|r| completed(r).0).collect();
    assert_eq!(
        cycles[0], cycles[1],
        "same request, same cycles, any thread"
    );
}

#[test]
fn a_panic_in_a_batch_leaves_its_sibling_as_if_run_alone() {
    // One batch: a sabotaged request beside one that continues a parked
    // machine. The panic ends only its own thread; the sibling's
    // response is the one it gets alone, down to what it stepped.
    let alone = completed(run_alone(continued_after_500()));
    assert!(alone.1, "the sibling continues its parked machine");
    let mut sabotaged = plain_request(1, "bezier", 4, 200_000);
    sabotaged.settings.sabotage = true;
    let mut both = run_batch(vec![(0, sabotaged), (1, continued_after_500())]).into_iter();
    let first = both.next().expect("a response per request");
    assert!(matches!(first.outcome, ExecOutcome::Panicked));
    assert_eq!(
        completed(both.next().expect("a response per request")),
        alone
    );
    assert!(both.next().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 20,
        ..ProptestConfig::default()
    })]

    /// Over any arrival stream with tight budgets, a planted panic and
    /// a doomed kill job: completed cycles are the direct run's (what
    /// clp-hostbench's `serve_direct` checks for its four streams), and
    /// scope on — every attempt profiled — agrees with scope off on the
    /// whole result, span trees and host ledger included, but for the
    /// completed jobs' books.
    #[test]
    fn continued_kills_never_show_in_the_results(
        seed in 0u64..4096,
        jobs in 4usize..9,
        tight_every in 1usize..4,
        panic_pick in 0u64..8,
        kill_pick in 0u64..8,
        kill_cycle in 1u64..3_000,
    ) {
        let acfg = ArrivalConfig {
            jobs,
            seed,
            mean_gap: 2_500,
            budget: 150_000,
            tight_every,
            tight_budget: 2_500,
            plant_panic: vec![panic_pick],
            kill_at: vec![(kill_pick, kill_cycle)],
        };
        let scfg = ServiceConfig {
            workers: 2,
            queue_cap: 16,
            degrade_at: 12,
            max_retries: 7,
            seed,
            ..ServiceConfig::default()
        };
        let plain = serve(arrivals::generate(&acfg), &scfg);
        assert_completed_cycles_are_direct(&plain);
        assert_totals_are_the_records(&plain);
        let h = plain.host;
        prop_assert!(h.resumed <= plain.totals.deadline_kills);
        prop_assert!(h.cycles_stepped <= h.cycles_charged);
        let (scoped, _) =
            serve_scoped(arrivals::generate(&acfg), &scfg, Some(&ScopeOptions::default()));
        prop_assert_eq!(plain, unbooked(scoped));
    }
}
