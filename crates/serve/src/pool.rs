//! The persistent worker pool: real OS threads executing simulation
//! jobs, with per-job panic isolation and poisoned-worker respawn.
//!
//! Each virtual worker slot of the service maps 1:1 to a physical
//! thread. A job runs under [`std::panic::catch_unwind`]; if it panics,
//! the worker reports the panic and then *exits* — its state is treated
//! as poisoned and discarded — and the pool spawns a fresh thread into
//! the slot. Sibling workers never observe anything but their own jobs,
//! which is what the panic-isolation test pins down cycle-for-cycle.
//!
//! Continue, don't redo: a deadline-killed attempt's machine is not
//! dropped. The worker hands it back ([`Parked`]) with the
//! `DeadlineExceeded` response, the scheduler keeps it with the job, and
//! the retry's request carries it to whichever worker is dispatched,
//! which raises the deadline to the new budget and runs on from the
//! cycle the kill stopped at. The one test is equality, made here where
//! both sides are in hand: the retry's [`Settings`] — everything about
//! the request but the budget — must equal the killed attempt's, or the
//! parked machine is dropped and the attempt starts at cycle 0. So a
//! fault-free attempt continues, and an attempt 0 that ran under the
//! job's fault plan never does, because retries run `FaultPlan::none()`.
//! A panic takes the request, and any machine in it, down with the
//! poisoned worker.
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
//! virtual time; the pool is just muscle.

use clp_core::{compile_workload, CompiledWorkload, ObsOptions, ProcessorConfig, Run, RunFailure};
use clp_obs::BucketCycles;
use clp_sim::FaultPlan;
use clp_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;

/// Prefix of pool thread names; the panic hook stays quiet for these so
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

/// A request handed to a worker: one attempt of one job. The workload
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
    /// The job panicked; the worker is poisoned and has exited.
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

struct Slot {
    tx: Sender<ExecRequest>,
    rx: Receiver<ExecResponse>,
    handle: Option<JoinHandle<()>>,
}

fn spawn_worker(index: usize) -> Slot {
    let (req_tx, req_rx) = channel::<ExecRequest>();
    let (resp_tx, resp_rx) = channel::<ExecResponse>();
    let handle = std::thread::Builder::new()
        .name(format!("{WORKER_THREAD_PREFIX}-{index}"))
        .spawn(move || {
            while let Ok(req) = req_rx.recv() {
                match catch_unwind(AssertUnwindSafe(|| execute(req))) {
                    Ok(resp) => {
                        if resp_tx.send(resp).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        // Poisoned: report, then dispose of this thread.
                        // Whatever half-mutated state the job left behind
                        // (a parked machine it was continuing included)
                        // dies with it; the pool respawns the slot.
                        let _ = resp_tx.send(ExecResponse::unrun(ExecOutcome::Panicked));
                        return;
                    }
                }
            }
        })
        .expect("spawn worker thread");
    Slot {
        tx: req_tx,
        rx: resp_rx,
        handle: Some(handle),
    }
}

/// The pool: `workers` persistent threads, respawned on poisoning.
pub struct WorkerPool {
    slots: Vec<Slot>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        install_quiet_hook();
        WorkerPool {
            slots: (0..workers.max(1)).map(spawn_worker).collect(),
        }
    }

    /// Hands a request to slot `i` without waiting — the service
    /// dispatches a whole batch first so independent jobs execute on
    /// their threads in parallel, then awaits in worker-index order.
    pub fn dispatch(&self, i: usize, req: ExecRequest) {
        self.slots[i].tx.send(req).expect("worker accepts requests");
    }

    /// Blocks for slot `i`'s response to its in-flight request. If the
    /// job panicked, the poisoned thread has already exited; the slot is
    /// respawned here, so the pool is whole again before the next
    /// dispatch round. A `Panicked` response is therefore exactly one
    /// respawn, which is how the service counts them.
    pub fn await_response(&mut self, i: usize) -> ExecResponse {
        let resp = self.slots[i].rx.recv().expect("worker always responds");
        if matches!(resp.outcome, ExecOutcome::Panicked) {
            if let Some(h) = self.slots[i].handle.take() {
                let _ = h.join();
            }
            self.slots[i] = spawn_worker(i);
        }
        resp
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the request channels, then reap the threads.
        for slot in &mut self.slots {
            let (dead_tx, _) = channel();
            slot.tx = dead_tx;
        }
        for slot in &mut self.slots {
            if let Some(h) = slot.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_request(id: u64, name: &str, cores: usize, budget: u64) -> ExecRequest {
        let workload = clp_workloads::suite::by_name(name).expect("suite workload");
        ExecRequest {
            job_id: id,
            settings: Settings {
                program: crate::cache::content_hash(&workload),
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

    #[test]
    fn pool_runs_a_job_and_returns_the_compile() {
        let mut pool = WorkerPool::new(1);
        pool.dispatch(0, plain_request(7, "conv", 8, 200_000));
        let resp = pool.await_response(0);
        assert!(matches!(resp.outcome, ExecOutcome::Success { cycles, .. } if cycles > 100));
        assert!(resp.compiled_here.is_some(), "miss compiles");
    }

    #[test]
    fn planted_panic_poisons_and_respawns_the_worker() {
        let mut pool = WorkerPool::new(1);
        let mut req = plain_request(1, "conv", 4, 200_000);
        req.settings.sabotage = true;
        pool.dispatch(0, req);
        let resp = pool.await_response(0);
        assert!(matches!(resp.outcome, ExecOutcome::Panicked));
        // The respawned worker is immediately serviceable.
        pool.dispatch(0, plain_request(2, "conv", 4, 200_000));
        let resp = pool.await_response(0);
        assert!(matches!(resp.outcome, ExecOutcome::Success { .. }));
    }

    /// conv on 8 cores killed at 500 cycles: the response.
    fn killed_at_500(pool: &mut WorkerPool) -> ExecResponse {
        pool.dispatch(0, plain_request(3, "conv", 8, 500));
        let resp = pool.await_response(0);
        match &resp.outcome {
            ExecOutcome::Failure(f) => {
                assert_eq!(f.class(), clp_core::FailureClass::DeadlineKill);
            }
            _ => panic!("expected a deadline kill"),
        }
        resp
    }

    #[test]
    fn deadline_kill_is_reported_as_typed_failure_and_hands_the_machine_back() {
        let resp = killed_at_500(&mut WorkerPool::new(1));
        assert!(resp.parked.is_some());
        assert_eq!((resp.resumed, resp.stepped), (false, 500));
    }

    #[test]
    fn a_parked_machine_is_continued_only_under_equal_settings() {
        let mut pool = WorkerPool::new(1);
        let mut retry = |change: fn(&mut Settings)| {
            let mut req = plain_request(3, "conv", 8, 200_000);
            change(&mut req.settings);
            req.parked = killed_at_500(&mut pool).parked;
            pool.dispatch(0, req);
            let resp = pool.await_response(0);
            assert!(resp.parked.is_none());
            match resp.outcome {
                ExecOutcome::Success { cycles, .. } => (resp.resumed, resp.stepped, cycles),
                _ => panic!("the retry completes"),
            }
        };
        // Only the budget differs: runs on from cycle 500.
        let (resumed, stepped, cycles) = retry(|_| ());
        assert_eq!((resumed, stepped), (true, cycles - 500));
        // Any one setting differs: the machine is dropped, cycle 0.
        let changes: [fn(&mut Settings); 4] = [
            |s| s.cores = 4,
            |s| s.profile = true,
            |s| s.faults = FaultPlan::only(clp_sim::FaultKind::DramSpike, 1, 200),
            |s| s.program ^= 1,
        ];
        for change in changes {
            let (resumed, stepped, from_zero) = retry(change);
            assert_eq!((resumed, stepped), (false, from_zero));
        }
    }

    #[test]
    fn results_are_pure_functions_of_the_request() {
        let mut pool = WorkerPool::new(2);
        pool.dispatch(0, plain_request(1, "bezier", 4, 200_000));
        pool.dispatch(1, plain_request(2, "bezier", 4, 200_000));
        let a = pool.await_response(0);
        let b = pool.await_response(1);
        match (a.outcome, b.outcome) {
            (ExecOutcome::Success { cycles: ca, .. }, ExecOutcome::Success { cycles: cb, .. }) => {
                assert_eq!(ca, cb, "same request, same cycles, any thread");
            }
            _ => panic!("both succeed"),
        }
    }
}
