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
//! Determinism: a job's result is a pure function of its request
//! (workload content, composition size, budget, fault plan), so physical
//! thread scheduling cannot leak into outcomes. The *service* keeps all
//! ordering decisions on virtual time; the pool is just muscle.

use crate::job::JobSpec;
use clp_core::{
    compile_workload, run_compiled_observed, CompiledWorkload, ObsOptions, ProcessorConfig,
    RunFailure,
};
use clp_sim::FaultPlan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Once;
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

/// A request handed to a worker: one attempt of one job. The workload
/// is resolved at admission (an unknown name is a typed rejection long
/// before any worker sees it), so the worker never does name lookups.
pub struct ExecRequest {
    /// The job being attempted.
    pub spec: JobSpec,
    /// The resolved workload.
    pub workload: clp_workloads::Workload,
    /// Composition size actually granted (may be degraded below
    /// `spec.cores` under load).
    pub cores: usize,
    /// Cycle budget of *this* attempt (escalates across deadline kills).
    pub budget: u64,
    /// Fault plan of this attempt ([`FaultPlan::none`] on retries).
    pub faults: FaultPlan,
    /// Whether to plant a panic (attempt 0 of a sabotaged job).
    pub sabotage: bool,
    /// Whether to run with clp-prof cycle accounting on, so the
    /// response can carry the run-level bucket book (clp-scope folds it
    /// into the fleet book). Profiling never changes cycle counts — the
    /// PR-5 bit-identity contract — so the virtual schedule is the same
    /// either way.
    pub profile: bool,
    /// Cache-hit program, or `None` when the worker must compile.
    pub compiled: Option<std::sync::Arc<CompiledWorkload>>,
}

/// What a worker reports back.
pub enum ExecOutcome {
    /// The run completed and verified.
    Success {
        /// Simulated cycles.
        cycles: u64,
        /// The clp-prof report when the request asked for profiling
        /// (boxed: it is much larger than the rest of the response).
        profile: Option<Box<clp_obs::ProfileReport>>,
    },
    /// The run failed with a typed error.
    Failure(RunFailure),
    /// The job panicked; the worker is poisoned and has exited.
    Panicked,
}

/// A worker's response: the job id it ran, what happened, and (on a
/// cache miss) the program it compiled, for the scheduler to insert.
pub struct ExecResponse {
    /// Echo of the request's job id.
    pub job_id: u64,
    /// The outcome.
    pub outcome: ExecOutcome,
    /// Compiled on this attempt (cache miss): the program plus its lint
    /// warning count, ready for cache insertion.
    pub compiled_here: Option<(std::sync::Arc<CompiledWorkload>, u64)>,
}

/// Executes one attempt. Pure: the result depends only on the request.
fn execute(req: &ExecRequest) -> ExecResponse {
    if req.sabotage {
        panic!("planted panic in job {}", req.spec.id);
    }
    let (compiled, compiled_here) = match &req.compiled {
        Some(arc) => (arc.clone(), None),
        None => {
            let cw = match compile_workload(&req.workload) {
                Ok(cw) => std::sync::Arc::new(cw),
                Err(e) => {
                    return ExecResponse {
                        job_id: req.spec.id,
                        outcome: ExecOutcome::Failure(e),
                        compiled_here: None,
                    };
                }
            };
            let lint = clp_lint::lint_program(&cw.edge, &clp_lint::LintConfig::default());
            let warnings = lint.count(clp_lint::Severity::Warn) as u64;
            (cw.clone(), Some((cw, warnings)))
        }
    };
    let cfg = ProcessorConfig::tflex(req.cores)
        .with_faults(req.faults)
        .with_deadline(req.budget);
    let obs = ObsOptions {
        profile: req.profile,
        ..ObsOptions::default()
    };
    let outcome = match run_compiled_observed(&compiled, &cfg, &obs) {
        Ok(r) => ExecOutcome::Success {
            cycles: r.stats.cycles,
            profile: r.profile.map(Box::new),
        },
        Err(e) => ExecOutcome::Failure(e),
    };
    ExecResponse {
        job_id: req.spec.id,
        outcome,
        compiled_here,
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
                let job_id = req.spec.id;
                match catch_unwind(AssertUnwindSafe(|| execute(&req))) {
                    Ok(resp) => {
                        if resp_tx.send(resp).is_err() {
                            return;
                        }
                    }
                    Err(_) => {
                        // Poisoned: report, then dispose of this thread.
                        // Whatever half-mutated state the job left behind
                        // dies with it; the pool respawns the slot.
                        let _ = resp_tx.send(ExecResponse {
                            job_id,
                            outcome: ExecOutcome::Panicked,
                            compiled_here: None,
                        });
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
    respawns: u64,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        install_quiet_hook();
        WorkerPool {
            slots: (0..workers.max(1)).map(spawn_worker).collect(),
            respawns: 0,
        }
    }

    /// Number of worker slots.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Workers respawned after poisoning so far.
    #[must_use]
    pub fn respawns(&self) -> u64 {
        self.respawns
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
    /// dispatch round.
    pub fn await_response(&mut self, i: usize) -> ExecResponse {
        let resp = self.slots[i].rx.recv().expect("worker always responds");
        if matches!(resp.outcome, ExecOutcome::Panicked) {
            if let Some(h) = self.slots[i].handle.take() {
                let _ = h.join();
            }
            self.slots[i] = spawn_worker(i);
            self.respawns += 1;
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
        ExecRequest {
            spec: JobSpec::new(id, name, cores, budget),
            workload: clp_workloads::suite::by_name(name).expect("suite workload"),
            cores,
            budget,
            faults: FaultPlan::none(),
            sabotage: false,
            profile: false,
            compiled: None,
        }
    }

    #[test]
    fn pool_runs_a_job_and_returns_the_compile() {
        let mut pool = WorkerPool::new(1);
        pool.dispatch(0, plain_request(7, "conv", 8, 200_000));
        let resp = pool.await_response(0);
        assert_eq!(resp.job_id, 7);
        assert!(matches!(resp.outcome, ExecOutcome::Success { cycles, .. } if cycles > 100));
        assert!(resp.compiled_here.is_some(), "miss compiles");
        assert_eq!(pool.respawns(), 0);
    }

    #[test]
    fn planted_panic_poisons_and_respawns_the_worker() {
        let mut pool = WorkerPool::new(1);
        let mut req = plain_request(1, "conv", 4, 200_000);
        req.sabotage = true;
        pool.dispatch(0, req);
        let resp = pool.await_response(0);
        assert!(matches!(resp.outcome, ExecOutcome::Panicked));
        assert_eq!(pool.respawns(), 1);
        // The respawned worker is immediately serviceable.
        pool.dispatch(0, plain_request(2, "conv", 4, 200_000));
        let resp = pool.await_response(0);
        assert!(matches!(resp.outcome, ExecOutcome::Success { .. }));
    }

    #[test]
    fn deadline_kill_is_reported_as_typed_failure() {
        let mut pool = WorkerPool::new(1);
        pool.dispatch(0, plain_request(3, "conv", 8, 500));
        let resp = pool.await_response(0);
        match resp.outcome {
            ExecOutcome::Failure(f) => {
                assert_eq!(f.class(), clp_core::FailureClass::DeadlineKill);
            }
            _ => panic!("expected a deadline kill"),
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
