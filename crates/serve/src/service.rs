//! The deterministic service loop: virtual-time scheduling over one
//! physical fork-join per dispatch tick.
//!
//! All policy decisions — admission, shedding, degradation, dispatch,
//! retry timing — happen on a *virtual* tick clock, with event classes
//! processed in a fixed order per tick (completions by worker index,
//! then retry releases by job id, then arrivals in schedule order, then
//! dispatch by worker index). A tick's dispatch batch executes
//! physically in parallel ([`run_batch`]), but every result is a pure
//! function of its request, so the virtual schedule — and therefore the
//! entire service report — is bit-for-bit reproducible from `(arrival
//! schedule, config)`. No wall-clock exists anywhere in this module.
//!
//! Charged vs stepped: what an attempt is *charged* (below) is a
//! function of budgets and cycle counts only, never of what the host
//! did to produce them. That is what lets a deadline-killed attempt's
//! machine stay with its job (`JobState::parked`) and ride the retry's
//! request back to a worker, which runs it on to the doubled budget
//! instead of re-simulating from cycle 0 (`pool.rs` holds the rule for
//! when it may): the retry is still charged its full cycle count, as if
//! it had started over, and every tick, counter and record is what it
//! was. [`HostLedger`] counts the difference and stays out of the
//! report.
//!
//! Service time charged per attempt:
//! - success: the simulated cycle count (plus the compile charge on a
//!   cache miss);
//! - deadline kill: the full budget (the watchdog ran the machine that
//!   long before reaping it);
//! - deadlock: the cycle at which the stall was detected;
//! - compose/placement/compile/golden rejections and kill-schedule
//!   validation failures: a small fixed validation charge;
//! - verify mismatch: the budget (the run finished but its exact cycle
//!   count is not reported with the error — documented pessimism);
//! - planted panic: a fixed respawn charge, the virtual worker's
//!   replacement (physically the attempt's thread is simply gone).
//!
//! One book: each job's span tree ([`JobSpans`] — its queued, attempt
//! and backoff spans, the compile sub-span of a cache miss, how each
//! attempt ended, the terminal, and with profiled attempts the
//! completed run's clp-prof book) is the only thing the scheduler writes
//! per job event. A job carries its tree through queue, worker and
//! backoff, and its terminal event enters it in the book beside the two
//! facts the tree lacks: the composition size asked for and the typed
//! [`JobOutcome`]. Everything else is a view of that book, built once at
//! drain (`Ledger::drain`): the [`JobRecord`]s, the latencies, and
//! every [`ServiceTotals`] counter but the deepest queue and what the
//! cache holds. clp-scope is another view over the same trees
//! (`report.rs`), and nothing here records on its behalf.

use crate::cache::{content_hash, CacheEntry, CompileCache};
use crate::job::{JobOutcome, JobSpec, Rejected};
use crate::pool::{run_batch, ExecOutcome, ExecRequest, ExecResponse, Parked, Settings};
use clp_core::{FailureClass, RunFailure};
use clp_obs::{AttemptEnd, AttemptSpan, JobSpans, Span, Terminal};
use clp_sim::fault::Prng;
use clp_sim::{FaultPlan, RunError};
use clp_workloads::Workload;
use serde_json::{json, ToValue, Value};
use std::collections::VecDeque;
use std::sync::Arc;

pub use crate::report::serve_scoped;

/// Base backoff delay in ticks; attempt `k` waits
/// `BACKOFF_BASE << min(k-1, BACKOFF_CAP)` plus seeded jitter in
/// `0..BACKOFF_BASE`.
const BACKOFF_BASE: u64 = 500;
/// Cap on the backoff shift.
const BACKOFF_CAP: u32 = 5;
/// Ticks charged for compiling on a cache miss.
const COMPILE_TICKS: u64 = 2_000;
/// Ticks charged for a panicked attempt: the virtual worker's respawn.
const RESPAWN_TICKS: u64 = 1_000;
/// Ticks charged for attempts rejected before the machine ran
/// (compose/placement errors, kill-schedule validation).
const VALIDATE_TICKS: u64 = 50;

/// Service policy knobs. Everything is in virtual ticks; nothing reads
/// a clock. The fixed tick charges and the backoff shape are constants
/// (`BACKOFF_BASE`, `COMPILE_TICKS`, …), written into the report's
/// `config` object beside these fields.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker slots: at most this many attempts run at once.
    pub workers: usize,
    /// Hard bound of the submission queue: an arrival finding this many
    /// jobs queued is shed with [`Rejected::Overloaded`].
    pub queue_cap: usize,
    /// Degradation watermark: an arrival finding at least this many jobs
    /// queued is admitted at *half* its requested composition size
    /// (minimum 1 core) — graceful degradation before refusal.
    pub degrade_at: usize,
    /// Retries allowed per job beyond the first attempt.
    pub max_retries: u32,
    /// Seed of the retry-jitter PRNG stream (mixed with job id and
    /// attempt, so jitter is independent of event interleaving).
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_cap: 8,
            degrade_at: 6,
            max_retries: 3,
            seed: 1,
        }
    }
}

impl ToValue for ServiceConfig {
    fn to_value(&self) -> Value {
        json!({
            "workers": (self.workers),
            "queue_cap": (self.queue_cap),
            "degrade_at": (self.degrade_at),
            "max_retries": (self.max_retries),
            "backoff_base": BACKOFF_BASE,
            "backoff_cap": BACKOFF_CAP,
            "compile_ticks": COMPILE_TICKS,
            "respawn_ticks": RESPAWN_TICKS,
            "validate_ticks": VALIDATE_TICKS,
            "seed": (self.seed)
        })
    }
}

/// Aggregate counters of one service run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceTotals {
    /// Jobs submitted (admitted + rejected).
    pub submitted: u64,
    /// Jobs admitted into the queue.
    pub admitted: u64,
    /// Jobs that completed and verified.
    pub completed: u64,
    /// Arrivals shed because the queue was full.
    pub rejected_overloaded: u64,
    /// Arrivals refused as malformed (cores/budget/name).
    pub rejected_invalid: u64,
    /// Jobs that failed permanently (no retry can help).
    pub failed_permanent: u64,
    /// Jobs that spent every retry without succeeding.
    pub exhausted: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Attempts reaped by the deadline watchdog.
    pub deadline_kills: u64,
    /// Attempts that panicked in the worker.
    pub panics: u64,
    /// Virtual workers respawned after a panic (one per panic).
    pub respawns: u64,
    /// Attempts that failed transiently (faults, recovery failure,
    /// placement).
    pub transient_failures: u64,
    /// Jobs admitted at a degraded (halved) composition size.
    pub degraded: u64,
    /// Compile-cache hits.
    pub cache_hits: u64,
    /// Compile-cache misses.
    pub cache_misses: u64,
    /// Distinct programs cached at drain.
    pub cache_entries: u64,
    /// Warning-severity lint diagnostics across cached programs.
    pub lint_warnings: u64,
    /// Largest queue depth observed.
    pub max_queue_depth: u64,
    /// Tick at which the last event was processed (full drain).
    pub drained_at: u64,
}

impl ToValue for ServiceTotals {
    fn to_value(&self) -> Value {
        json!({
            "submitted": (self.submitted),
            "admitted": (self.admitted),
            "completed": (self.completed),
            "rejected_overloaded": (self.rejected_overloaded),
            "rejected_invalid": (self.rejected_invalid),
            "failed_permanent": (self.failed_permanent),
            "exhausted": (self.exhausted),
            "retries": (self.retries),
            "deadline_kills": (self.deadline_kills),
            "panics": (self.panics),
            "respawns": (self.respawns),
            "transient_failures": (self.transient_failures),
            "degraded": (self.degraded),
            "cache_hits": (self.cache_hits),
            "cache_misses": (self.cache_misses),
            "cache_entries": (self.cache_entries),
            "lint_warnings": (self.lint_warnings),
            "max_queue_depth": (self.max_queue_depth),
            "drained_at": (self.drained_at)
        })
    }
}

/// Terminal record of one submitted job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: u64,
    /// Workload name.
    pub workload: String,
    /// Composition size the client asked for.
    pub cores_requested: usize,
    /// Composition size actually granted (degraded under load).
    pub cores_granted: usize,
    /// Arrival tick.
    pub arrival: u64,
    /// Tick of the terminal event (arrival tick for rejections).
    pub finish: u64,
    /// Attempts executed (0 for rejections).
    pub attempts: u32,
    /// Terminal disposition.
    pub outcome: JobOutcome,
}

impl ToValue for JobRecord {
    fn to_value(&self) -> Value {
        json!({
            "id": (self.id),
            "workload": (self.workload),
            "cores_requested": (self.cores_requested),
            "cores_granted": (self.cores_granted),
            "arrival": (self.arrival),
            "finish": (self.finish),
            "attempts": (self.attempts),
            "outcome": (self.outcome)
        })
    }
}

/// What the host did to produce a run, beside what the run was charged:
/// deterministic like everything else here, but about the simulator,
/// not the simulated service, so it is in no report and no golden.
/// `cycles_charged - cycles_stepped` is the simulation the service
/// billed for without redoing it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostLedger {
    /// Attempts handed to a worker.
    pub attempts: u64,
    /// Attempts that continued a deadline-killed machine instead of
    /// starting at cycle 0.
    pub resumed: u64,
    /// Cycles the workers stepped.
    pub cycles_stepped: u64,
    /// Cycles the attempts were charged for: the cycle count of a
    /// success, the budget of a deadline kill, the cycle of a deadlock.
    pub cycles_charged: u64,
}

/// Everything a service run produces: counters, per-job records and
/// span trees in id order, and the completed-job sojourn times
/// (finish − arrival).
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceResult {
    /// Aggregate counters.
    pub totals: ServiceTotals,
    /// One record per submitted job, sorted by id.
    pub records: Vec<JobRecord>,
    /// One span tree per submitted job, sorted by id: the lifecycle
    /// behind each record. A completed job's carries its clp-prof book
    /// when the attempts were profiled.
    pub spans: Vec<JobSpans>,
    /// Sojourn latencies of completed jobs, in id order. Only the
    /// order-free `LatencySummary::from_samples` reads them.
    pub latencies: Vec<u64>,
    /// Host-side work, outside the pinned report.
    pub host: HostLedger,
}

struct JobState {
    spec: JobSpec,
    workload: Arc<Workload>,
    /// [`content_hash`] of the workload: the compile-cache key.
    program: u64,
    /// Budget of the next attempt (escalates on deadline kills).
    budget: u64,
    /// The machine the last attempt was deadline-killed on, for the
    /// next attempt to continue. Any other outcome leaves `None`.
    parked: Option<Parked>,
    /// The job's span tree so far, holding its granted composition and
    /// arrival. While the job waits, its last queued span is open
    /// (`end == start`); dispatch closes it.
    spans: JobSpans,
}

impl JobState {
    /// Attempts dispatched so far.
    fn attempts(&self) -> u32 {
        self.spans.attempts.len() as u32
    }

    /// Closes the open queued span at `now` and opens the attempt that
    /// occupies `worker` until `done_at`, compiling first on a cache
    /// miss.
    fn dispatched(&mut self, worker: usize, now: u64, done_at: u64, miss: bool) {
        let attempt = self.attempts();
        let s = &mut self.spans;
        let queued = s
            .queued
            .last_mut()
            .expect("a queued job has an open queued span");
        queued.end = now;
        s.attempts.push(AttemptSpan {
            attempt,
            worker,
            start: now,
            end: done_at,
            cache_hit: !miss,
            compile: miss.then_some(Span {
                start: now,
                end: now + COMPILE_TICKS,
            }),
            // Set when the completion event is processed.
            end_kind: AttemptEnd::Success,
        });
    }

    /// Marks how the attempt in flight ended.
    fn close_attempt(&mut self, end: AttemptEnd) {
        let last = self.spans.attempts.last_mut();
        let attempt = last.expect("a completing job has an attempt in flight");
        attempt.end_kind = end;
    }
}

/// A span tree with no spans yet for a job arriving at `now`: a refused
/// job's whole tree, or an admitted one's so far. [`Ledger::finish`]
/// writes its terminal and finish.
fn arrived(spec: &JobSpec, class: &str, cores: usize, now: u64) -> JobSpans {
    JobSpans {
        id: spec.id,
        workload: spec.workload.clone(),
        class: class.to_string(),
        cores,
        arrival: now,
        finish: now,
        terminal: Terminal::Failed,
        queued: Vec::new(),
        attempts: Vec::new(),
        backoffs: Vec::new(),
        book: None,
    }
}

struct InFlight {
    job: JobState,
    done_at: u64,
    response: ExecResponse,
}

/// One job's entry in the book: its closed span tree, and the two facts
/// the tree lacks.
struct Entry {
    spans: JobSpans,
    /// Composition size the client asked for.
    requested: usize,
    outcome: JobOutcome,
}

/// The run's output side: the job book, plus the deepest queue and the
/// host's work, which no job's tree records.
#[derive(Default)]
struct Ledger {
    jobs: Vec<Entry>,
    max_queue_depth: u64,
    host: HostLedger,
}

impl Ledger {
    /// Closes a job's span tree at `now` with `outcome` and enters it in
    /// the book: every terminal event, rejections included.
    fn finish(&mut self, mut spans: JobSpans, requested: usize, now: u64, outcome: JobOutcome) {
        spans.finish = now;
        spans.terminal = outcome.terminal();
        self.jobs.push(Entry {
            spans,
            requested,
            outcome,
        });
    }

    /// The result, derived once from the book, the cache and the drain
    /// tick: records and span trees in id order, latencies, and totals.
    fn drain(mut self, cache: &CompileCache, drained_at: u64) -> ServiceResult {
        self.jobs.sort_by_key(|e| e.spans.id);
        let mut records = Vec::with_capacity(self.jobs.len());
        let mut spans = Vec::with_capacity(self.jobs.len());
        for e in self.jobs {
            let admitted = !matches!(e.outcome, JobOutcome::Rejected(_));
            records.push(JobRecord {
                id: e.spans.id,
                workload: e.spans.workload.clone(),
                cores_requested: e.requested,
                cores_granted: if admitted { e.spans.cores } else { 0 },
                arrival: e.spans.arrival,
                finish: e.spans.finish,
                attempts: e.spans.attempts.len() as u32,
                outcome: e.outcome,
            });
            spans.push(e.spans);
        }
        let latencies: Vec<u64> = records
            .iter()
            .filter(|r| r.outcome.is_completed())
            .map(|r| r.finish - r.arrival)
            .collect();
        let ended_as = |t: Terminal| spans.iter().filter(|s| s.terminal == t).count() as u64;
        let attempts = || spans.iter().flat_map(|s| &s.attempts);
        let ended = |k: AttemptEnd| attempts().filter(|a| a.end_kind == k).count() as u64;
        let submitted = records.len() as u64;
        let shed = ended_as(Terminal::Shed);
        let invalid = ended_as(Terminal::Invalid);
        let cache_hits = attempts().filter(|a| a.cache_hit).count() as u64;
        let panics = ended(AttemptEnd::Panicked);
        let totals = ServiceTotals {
            submitted,
            admitted: submitted - shed - invalid,
            completed: latencies.len() as u64,
            rejected_overloaded: shed,
            rejected_invalid: invalid,
            failed_permanent: ended_as(Terminal::Failed),
            exhausted: ended_as(Terminal::Exhausted),
            retries: spans.iter().map(|s| s.backoffs.len() as u64).sum(),
            deadline_kills: ended(AttemptEnd::DeadlineKill),
            panics,
            // A panic ends its attempt's thread: one respawn per panic.
            respawns: panics,
            transient_failures: ended(AttemptEnd::Transient),
            // Admitted (granted >= 1 core) below the size asked for.
            degraded: records
                .iter()
                .filter(|r| (1..r.cores_requested).contains(&r.cores_granted))
                .count() as u64,
            cache_hits,
            cache_misses: attempts().count() as u64 - cache_hits,
            cache_entries: cache.len() as u64,
            lint_warnings: cache.lint_warnings(),
            max_queue_depth: self.max_queue_depth,
            drained_at,
        };
        ServiceResult {
            totals,
            records,
            spans,
            latencies,
            host: self.host,
        }
    }
}

fn jitter_prng(cfg: &ServiceConfig, job_id: u64, attempt: u32) -> Prng {
    // Mix the stream id so per-(job, attempt) jitter never depends on
    // how many other jobs drew before it.
    Prng::new(cfg.seed ^ job_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(attempt) << 48))
}

fn backoff_delay(cfg: &ServiceConfig, job_id: u64, attempt: u32) -> u64 {
    let shift = (attempt.saturating_sub(1)).min(BACKOFF_CAP);
    let jitter = jitter_prng(cfg, job_id, attempt).next_below(BACKOFF_BASE);
    (BACKOFF_BASE << shift) + jitter
}

/// Ticks an attempt is charged, and how many of them are simulated
/// cycles (the rest are fixed charges for work that is not simulation).
fn service_ticks(outcome: &ExecOutcome, compile_miss: bool, budget: u64) -> (u64, u64) {
    let compile = if compile_miss { COMPILE_TICKS } else { 0 };
    let (work, simulated) = match outcome {
        ExecOutcome::Success { cycles, .. } => (*cycles, true),
        ExecOutcome::Panicked => (RESPAWN_TICKS, false),
        ExecOutcome::Failure(f) => match f {
            RunFailure::Run(RunError::DeadlineExceeded { budget }) => (*budget, true),
            RunFailure::Run(RunError::Deadlock { cycle }) => (*cycle, true),
            RunFailure::Run(_) => (VALIDATE_TICKS, false),
            RunFailure::Compose(_)
            | RunFailure::Placement(_)
            | RunFailure::Compile(_)
            | RunFailure::Golden(_) => (VALIDATE_TICKS, false),
            RunFailure::Verify(_) => (budget, true),
        },
    };
    (compile + work.max(1), if simulated { work } else { 0 })
}

/// Runs the service over a pre-generated arrival schedule (strictly
/// increasing ticks) and drains it completely: every admitted job
/// reaches a terminal record before the function returns, and every
/// worker thread is joined within its tick — the graceful-shutdown
/// contract.
///
/// # Panics
///
/// Panics if `cfg.workers`, `cfg.queue_cap` or `cfg.degrade_at` is 0: no
/// worker would run a job, every arrival would be shed, or every arrival
/// would be degraded. The message names the field.
#[must_use]
pub fn serve(schedule: Vec<(u64, JobSpec)>, cfg: &ServiceConfig) -> ServiceResult {
    serve_with(schedule, cfg, false)
}

/// [`serve`], with every attempt run under clp-prof when `profile` is
/// set, so each completed job's span tree carries its run-level book.
/// Profiling never changes a cycle count, so the virtual schedule, and
/// with it everything in the result but those books, is the same either
/// way.
pub(crate) fn serve_with(
    schedule: Vec<(u64, JobSpec)>,
    cfg: &ServiceConfig,
    profile: bool,
) -> ServiceResult {
    for (field, value) in [
        ("workers", cfg.workers),
        ("queue_cap", cfg.queue_cap),
        ("degrade_at", cfg.degrade_at),
    ] {
        assert!(value >= 1, "ServiceConfig::{field} must be at least 1");
    }
    let mut cache = CompileCache::new();
    let mut workers: Vec<Option<InFlight>> = (0..cfg.workers).map(|_| None).collect();
    let mut queue: VecDeque<JobState> = VecDeque::new();
    let mut retry_bin: Vec<(u64, JobState)> = Vec::new();
    let mut ledger = Ledger::default();
    let mut arrivals = schedule.into_iter().peekable();
    let mut now = 0u64;

    loop {
        // Pick the next event tick across completions, retry releases,
        // and arrivals. No event left means the service has drained.
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| next = Some(next.map_or(t, |n| n.min(t)));
        for w in workers.iter().flatten() {
            consider(w.done_at);
        }
        for (t, _) in &retry_bin {
            consider(*t);
        }
        if let Some((t, _)) = arrivals.peek() {
            consider(*t);
        }
        let Some(t) = next else { break };
        now = t;

        // 1. Completions, in worker-index order.
        for slot in workers.iter_mut() {
            if slot.as_ref().is_some_and(|f| f.done_at == now) {
                let f = slot.take().expect("checked");
                complete(f, now, cfg, &mut cache, &mut retry_bin, &mut ledger);
            }
        }

        // 2. Retry releases, in job-id order.
        let mut due: Vec<JobState> = Vec::new();
        let mut waiting: Vec<(u64, JobState)> = Vec::with_capacity(retry_bin.len());
        for (t, job) in retry_bin.drain(..) {
            if t == now {
                due.push(job);
            } else {
                waiting.push((t, job));
            }
        }
        retry_bin = waiting;
        due.sort_by_key(|j| j.spec.id);
        // Retries bypass admission: the job was already admitted once,
        // and shedding a half-done job would turn a transient fault into
        // a client-visible loss.
        queue.extend(due);

        // 3. Arrivals, in schedule order.
        while arrivals.peek().is_some_and(|(t, _)| *t == now) {
            let (_, spec) = arrivals.next().expect("peeked");
            admit(spec, now, cfg, &mut queue, &mut ledger);
        }

        // 4. Dispatch to free workers, in worker-index order. The whole
        // batch runs as one fork-join, so independent jobs execute
        // physically in parallel; the join keeps every virtual decision
        // downstream of deterministic state only.
        let mut jobs: Vec<(usize, JobState, bool)> = Vec::new();
        let mut batch: Vec<(usize, ExecRequest)> = Vec::new();
        for (i, slot) in workers.iter().enumerate() {
            if slot.is_some() {
                continue;
            }
            let Some(mut job) = queue.pop_front() else {
                break;
            };
            let hit = cache.lookup(job.program);
            let miss = hit.is_none();
            let first_attempt = job.attempts() == 0;
            batch.push((
                i,
                ExecRequest {
                    job_id: job.spec.id,
                    settings: Settings {
                        program: job.program,
                        cores: job.spans.cores,
                        // Attempt-0 faults only: a retry runs on fresh
                        // hardware with the transient condition cleared.
                        faults: if first_attempt {
                            job.spec.faults
                        } else {
                            FaultPlan::none()
                        },
                        sabotage: first_attempt && job.spec.sabotage,
                        profile,
                    },
                    budget: job.budget,
                    workload: job.workload.clone(),
                    compiled: hit.map(|e| e.compiled),
                    parked: job.parked.take(),
                },
            ));
            jobs.push((i, job, miss));
        }
        for ((i, mut job, miss), response) in jobs.into_iter().zip(run_batch(batch)) {
            let (ticks, charged) = service_ticks(&response.outcome, miss, job.budget);
            ledger.host.attempts += 1;
            ledger.host.resumed += u64::from(response.resumed);
            ledger.host.cycles_stepped += response.stepped;
            ledger.host.cycles_charged += charged;
            job.dispatched(i, now, now + ticks, miss);
            workers[i] = Some(InFlight {
                done_at: now + ticks,
                job,
                response,
            });
        }
    }

    ledger.drain(&cache, now)
}

fn admit(
    spec: JobSpec,
    now: u64,
    cfg: &ServiceConfig,
    queue: &mut VecDeque<JobState>,
    ledger: &mut Ledger,
) {
    // A refused job's span tree is its arrival, at the size it asked for;
    // `class` is the workload-class label when the name resolved.
    let refuse = |ledger: &mut Ledger, class: &str, why: Rejected| {
        let spans = arrived(&spec, class, spec.cores, now);
        ledger.finish(spans, spec.cores, now, JobOutcome::Rejected(why));
    };
    let Some(workload) = clp_workloads::suite::by_name(&spec.workload) else {
        let name = spec.workload.clone();
        refuse(ledger, "unknown", Rejected::UnknownWorkload { name });
        return;
    };
    let class = workload.class.label();
    let depth = queue.len();
    let refused = if spec.cores == 0 || !spec.cores.is_power_of_two() || spec.cores > 32 {
        Some(Rejected::InvalidCores { cores: spec.cores })
    } else if spec.budget == 0 {
        Some(Rejected::ZeroBudget)
    } else if depth >= cfg.queue_cap {
        Some(Rejected::Overloaded { depth })
    } else {
        None
    };
    if let Some(why) = refused {
        refuse(ledger, class, why);
        return;
    }
    // Graceful degradation: shrink the composition before ever refusing
    // work. Halving a power of two stays a power of two.
    let degrade = depth >= cfg.degrade_at && spec.cores > 1;
    let granted = if degrade { spec.cores / 2 } else { spec.cores };
    let mut spans = arrived(&spec, class, granted, now);
    spans.queued.push(Span {
        start: now,
        end: now,
    });
    let budget = spec.budget;
    queue.push_back(JobState {
        spec,
        program: content_hash(&workload),
        workload: Arc::new(workload),
        budget,
        parked: None,
        spans,
    });
    ledger.max_queue_depth = ledger.max_queue_depth.max(queue.len() as u64);
}

fn complete(
    f: InFlight,
    now: u64,
    cfg: &ServiceConfig,
    cache: &mut CompileCache,
    retry_bin: &mut Vec<(u64, JobState)>,
    ledger: &mut Ledger,
) {
    let InFlight {
        mut job, response, ..
    } = f;
    // A deadline kill leaves its machine with the job for the retry to
    // continue; after anything else there is none to keep.
    job.parked = response.parked;
    // Cache insertion happens here, at the completion event, in
    // deterministic order — workers never touch the cache.
    if let Some((compiled, lint_warnings)) = response.compiled_here {
        cache.insert(
            job.program,
            CacheEntry {
                compiled,
                lint_warnings,
            },
        );
    }
    let (error, end) = match response.outcome {
        ExecOutcome::Success { cycles, book } => {
            job.close_attempt(AttemptEnd::Success);
            job.spans.book = book;
            let outcome = JobOutcome::Completed { cycles };
            ledger.finish(job.spans, job.spec.cores, now, outcome);
            return;
        }
        ExecOutcome::Panicked => {
            let error = "panic: worker poisoned and respawned".to_string();
            (error, AttemptEnd::Panicked)
        }
        ExecOutcome::Failure(failure) => {
            let end = match failure.class() {
                FailureClass::Permanent => AttemptEnd::Permanent,
                FailureClass::Transient => AttemptEnd::Transient,
                FailureClass::DeadlineKill => {
                    // A killed job only makes sense to retry with more
                    // headroom.
                    job.budget = job.budget.saturating_mul(2);
                    AttemptEnd::DeadlineKill
                }
            };
            (failure.to_string(), end)
        }
    };
    job.close_attempt(end);
    let attempts = job.attempts();
    let outcome = match end {
        AttemptEnd::Permanent => JobOutcome::Failed { error },
        _ if attempts > cfg.max_retries => JobOutcome::Exhausted {
            attempts,
            last_error: error,
        },
        _ => {
            let release = now + backoff_delay(cfg, job.spec.id, attempts);
            job.spans.backoffs.push(Span {
                start: now,
                end: release,
            });
            // Queued again from the release on.
            job.spans.queued.push(Span {
                start: release,
                end: release,
            });
            retry_bin.push((release, job));
            return;
        }
    };
    ledger.finish(job.spans, job.spec.cores, now, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "ServiceConfig::workers must be at least 1")]
    fn zero_workers_are_refused() {
        let cfg = ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        };
        let _ = serve(Vec::new(), &cfg);
    }

    #[test]
    #[should_panic(expected = "ServiceConfig::queue_cap must be at least 1")]
    fn a_zero_queue_cap_is_refused() {
        let cfg = ServiceConfig {
            queue_cap: 0,
            ..ServiceConfig::default()
        };
        let _ = serve(Vec::new(), &cfg);
    }

    #[test]
    #[should_panic(expected = "ServiceConfig::degrade_at must be at least 1")]
    fn a_zero_degrade_watermark_is_refused() {
        let cfg = ServiceConfig {
            degrade_at: 0,
            ..ServiceConfig::default()
        };
        let _ = serve(Vec::new(), &cfg);
    }

    #[test]
    fn a_single_job_completes_and_drains() {
        let sched = vec![(5, JobSpec::new(0, "conv", 8, 200_000))];
        let r = serve(sched, &quick_cfg());
        assert_eq!(r.totals.submitted, 1);
        assert_eq!(r.totals.completed, 1);
        assert_eq!(r.records.len(), 1);
        assert!(r.records[0].outcome.is_completed());
        assert_eq!(r.totals.cache_misses, 1);
        assert!(r.totals.drained_at > 5);
        assert_eq!(r.latencies.len(), 1);
    }

    #[test]
    fn repeated_content_hits_the_cache() {
        let sched = vec![
            (1, JobSpec::new(0, "conv", 8, 200_000)),
            // Far enough apart that job 0 has completed (and inserted)
            // before job 1 dispatches.
            (200_000, JobSpec::new(1, "conv", 8, 200_000)),
        ];
        let r = serve(sched, &quick_cfg());
        assert_eq!(r.totals.completed, 2);
        assert_eq!(r.totals.cache_misses, 1);
        assert_eq!(r.totals.cache_hits, 1);
        assert_eq!(r.totals.cache_entries, 1);
    }

    #[test]
    fn malformed_jobs_are_rejected_typed() {
        let sched = vec![
            (1, JobSpec::new(0, "nonesuch", 8, 1_000)),
            (2, JobSpec::new(1, "conv", 3, 1_000)),
            (3, JobSpec::new(2, "conv", 8, 0)),
        ];
        let r = serve(sched, &quick_cfg());
        assert_eq!(r.totals.rejected_invalid, 3);
        assert_eq!(r.totals.admitted, 0);
        assert!(matches!(
            &r.records[0].outcome,
            JobOutcome::Rejected(Rejected::UnknownWorkload { .. })
        ));
        assert!(matches!(
            &r.records[1].outcome,
            JobOutcome::Rejected(Rejected::InvalidCores { cores: 3 })
        ));
        assert!(matches!(
            &r.records[2].outcome,
            JobOutcome::Rejected(Rejected::ZeroBudget)
        ));
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let cfg = ServiceConfig::default();
        let d1 = backoff_delay(&cfg, 3, 1);
        let d2 = backoff_delay(&cfg, 3, 2);
        let d3 = backoff_delay(&cfg, 3, 3);
        assert_eq!(d1, backoff_delay(&cfg, 3, 1));
        // Exponential envelope: base<<k plus jitter < base.
        assert!((500..1_000).contains(&d1), "{d1}");
        assert!((1_000..1_500).contains(&d2), "{d2}");
        assert!((2_000..2_500).contains(&d3), "{d3}");
        // Different jobs get different jitter streams.
        assert_ne!(
            backoff_delay(&cfg, 1, 1),
            backoff_delay(&cfg, 2, 1),
            "jitter streams decorrelate by job id (overwhelmingly likely)"
        );
    }

    #[test]
    fn deadline_kill_escalates_budget_and_succeeds_on_retry() {
        // conv at 8 cores takes ~7k cycles: a 2k budget dies, 4k dies,
        // 8k succeeds — two retries with doubling.
        let sched = vec![(1, JobSpec::new(0, "conv", 8, 2_000))];
        let r = serve(sched, &quick_cfg());
        assert_eq!(r.totals.completed, 1);
        assert_eq!(r.totals.deadline_kills, 2);
        assert_eq!(r.totals.retries, 2);
        assert_eq!(r.records[0].attempts, 3);
    }
}
