//! The worker side of clp-serve: what one attempt of one job runs, and
//! [`run_batch`], the fork-join that runs one dispatch tick's attempts
//! on real OS threads.
//!
//! Each request of a batch runs on a thread of its own, named for its
//! worker slot, inside one [`std::thread::scope`], joined in slot order.
//! A panicking attempt ends its thread: the request and any machine in
//! it unwind with it, and the join error is its `Panicked` response. No
//! thread outlives its tick, and siblings never observe anything but
//! their own requests, which the panic-isolation tests pin per cycle.
//!
//! Continue, don't redo: a deadline-killed attempt's machine is not
//! dropped. The attempt hands it back ([`Parked`]) with the
//! `DeadlineExceeded` response, the scheduler keeps it with the job, and
//! the retry's request carries it to whichever slot is dispatched, whose
//! thread raises the deadline to the new budget and runs on from the
//! cycle the kill stopped at. The one test is equality, made here where
//! both sides are in hand: the retry's [`Settings`] — everything about
//! the request but the budget — must equal the killed attempt's, or the
//! parked machine is dropped and the attempt starts at cycle 0. So a
//! fault-free attempt continues, and an attempt 0 that ran under the
//! job's fault plan never does, because retries run `FaultPlan::none()`.
//!
//! A profiled attempt (`Settings::profile`, set on every attempt of a
//! `serve_scoped` run) hands back the run-level clp-prof book with its
//! success — the fourteen bucket counts, not the whole report — for the
//! job's span tree to keep.
//!
//! Determinism: a job's result is a pure function of its request
//! (workload content, composition size, budget, fault plan, and the
//! parked machine — itself a pure function of the job's earlier
//! requests, and by `Machine::run`'s contract indistinguishable in its
//! result from starting over), so physical thread scheduling cannot
//! leak into outcomes. The *service* keeps all ordering decisions on
//! virtual time; the threads are just muscle.

use clp_core::{compile_workload, CompiledWorkload, ObsOptions, ProcessorConfig, Run, RunFailure};
use clp_obs::BucketCycles;
use clp_sim::FaultPlan;
use clp_workloads::Workload;
use std::sync::{Arc, Once};

/// Prefix of worker thread names; the panic hook stays quiet for these so
/// planted panics don't spray backtraces over test and bench output.
const WORKER_THREAD_PREFIX: &str = "clp-serve-worker";

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_THREAD_PREFIX));
            if !in_worker {
                previous(info);
            }
        }));
    });
}

/// What an attempt runs under, apart from its budget: the
/// configuration two attempts must share for the second to continue
/// the first's machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Settings {
    /// Content hash of the workload ([`crate::cache::content_hash`]).
    pub program: u64,
    /// Composition size actually granted (may be degraded below the
    /// job's request under load).
    pub cores: usize,
    /// Fault plan of this attempt ([`FaultPlan::none`] on retries).
    pub faults: FaultPlan,
    /// Whether to plant a panic (attempt 0 of a sabotaged job).
    pub sabotage: bool,
    /// Whether to run with clp-prof cycle accounting on, so a success
    /// carries the run-level bucket book (the job's span tree keeps it;
    /// clp-scope sums the books into the fleet book). Profiling never
    /// changes cycle counts — the PR-5 bit-identity contract — so the
    /// virtual schedule is the same either way.
    pub profile: bool,
}

/// A deadline-killed attempt's machine, stopped at the cycle its budget
/// ran out, with the settings it ran under.
pub struct Parked {
    run: Run,
    settings: Settings,
}

/// A request handed to a worker slot: one attempt of one job. The workload
/// is resolved at admission (an unknown name is a typed rejection long
/// before any worker sees it), so the worker never does name lookups,
/// and shared from there on: a request is a few words.
pub struct ExecRequest {
    /// The job being attempted.
    pub job_id: u64,
    /// Everything the attempt runs under but the budget.
    pub settings: Settings,
    /// Cycle budget of *this* attempt (escalates across deadline kills).
    pub budget: u64,
    /// The resolved workload, read only to compile on a cache miss.
    pub workload: Arc<Workload>,
    /// Cache-hit program, or `None` when the worker must compile.
    pub compiled: Option<Arc<CompiledWorkload>>,
    /// The machine the job's previous attempt was deadline-killed on.
    pub parked: Option<Parked>,
}

/// What a worker reports back.
pub enum ExecOutcome {
    /// The run completed and verified.
    Success {
        /// Simulated cycles.
        cycles: u64,
        /// The run's clp-prof run-level book, when the request asked for
        /// profiling.
        book: Option<BucketCycles>,
    },
    /// The run failed with a typed error.
    Failure(RunFailure),
    /// The attempt panicked; its thread, and everything the attempt
    /// held, is gone.
    Panicked,
}

/// A worker's response: what happened, and (on a cache miss) the
/// program it compiled, for the scheduler to insert.
pub struct ExecResponse {
    /// The outcome.
    pub outcome: ExecOutcome,
    /// Compiled on this attempt (cache miss): the program plus its lint
    /// warning count, ready for cache insertion.
    pub compiled_here: Option<(Arc<CompiledWorkload>, u64)>,
    /// Whether the attempt continued the request's parked machine.
    pub resumed: bool,
    /// Cycles this attempt stepped on the host: from the parked cycle
    /// on a resumed attempt, from 0 otherwise.
    pub stepped: u64,
    /// The machine, when the outcome is a deadline kill.
    pub parked: Option<Parked>,
}

impl ExecResponse {
    /// A response for an attempt whose machine never ran.
    fn unrun(outcome: ExecOutcome) -> Self {
        ExecResponse {
            outcome,
            compiled_here: None,
            resumed: false,
            stepped: 0,
            parked: None,
        }
    }
}

/// Executes one attempt. Pure: the result depends only on the request.
fn execute(req: ExecRequest) -> ExecResponse {
    let settings = req.settings;
    if settings.sabotage {
        panic!("planted panic in job {}", req.job_id);
    }
    let (compiled, compiled_here) = match req.compiled {
        Some(arc) => (arc, None),
        None => {
            let cw = match compile_workload(&req.workload) {
                Ok(cw) => Arc::new(cw),
                Err(e) => return ExecResponse::unrun(ExecOutcome::Failure(e)),
            };
            let lint = clp_lint::lint_program(&cw.edge, &clp_lint::LintConfig::default());
            let warnings = lint.count(clp_lint::Severity::Warn) as u64;
            (cw.clone(), Some((cw, warnings)))
        }
    };
    // Continue the parked machine if it ran under these very settings;
    // otherwise it is dropped here and the attempt starts at cycle 0.
    let (run, resumed) = match req.parked.filter(|p| p.settings == settings) {
        Some(mut p) => {
            p.run.set_deadline(req.budget);
            (p.run, true)
        }
        None => {
            let cfg = ProcessorConfig::tflex(settings.cores)
                .with_faults(settings.faults)
                .with_deadline(req.budget);
            let obs = ObsOptions {
                profile: settings.profile,
                ..ObsOptions::default()
            };
            match Run::start(&compiled, &cfg, &obs) {
                Ok(run) => (run, false),
                Err(e) => {
                    return ExecResponse {
                        compiled_here,
                        ..ExecResponse::unrun(ExecOutcome::Failure(e))
                    }
                }
            }
        }
    };
    let from = run.cycle();
    let (outcome, reached, parked) = match run.finish(&compiled) {
        Ok(r) => {
            let (cycles, book) = (r.stats.cycles, r.profile.map(|p| p.run_buckets()));
            (ExecOutcome::Success { cycles, book }, cycles, None)
        }
        Err(stopped) => {
            let parked = stopped.run.map(|run| Parked { run, settings });
            (ExecOutcome::Failure(stopped.failure), stopped.cycle, parked)
        }
    };
    ExecResponse {
        outcome,
        compiled_here,
        resumed,
        stepped: reached - from,
        parked,
    }
}

/// Runs one dispatch tick's batch: each `(slot, request)` on its own
/// thread, `clp-serve-worker-{slot}`, inside one scope, joined in batch
/// order — the service builds the batch in slot order. Returns one
/// response per request, in the same order; a request that panicked
/// gets [`ExecOutcome::Panicked`].
#[must_use]
pub fn run_batch(batch: Vec<(usize, ExecRequest)>) -> Vec<ExecResponse> {
    install_quiet_hook();
    std::thread::scope(|scope| {
        let threads: Vec<_> = batch
            .into_iter()
            .map(|(slot, req)| {
                std::thread::Builder::new()
                    .name(format!("{WORKER_THREAD_PREFIX}-{slot}"))
                    .spawn_scoped(scope, move || execute(req))
                    .expect("spawn worker thread")
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| ExecResponse::unrun(ExecOutcome::Panicked))
            })
            .collect()
    })
}
