//! clp-scope: service-level spans and fleet-wide cycle attribution.
//!
//! clp-obs, clp-prof, and clp-trend see inside *one* run; this module
//! gives the service layer (clp-serve) the same treatment. The service
//! keeps one book: each job's span tree ([`JobSpans`]) is part of its own
//! per-job record, written where its terminal record is written. A
//! [`ScopeReport`] is a view of those trees — a pure function of the
//! spans, the worker count, the drain tick, the seed and
//! [`ScopeOptions`]; nothing is recorded beside them:
//!
//! - a **deterministic span model on virtual time** — every job's tree
//!   of lifecycle spans (queued → attempt{compile} → backoff → …) and
//!   every worker's occupancy track (its attempts, in start order), so
//!   the same `(seed, job list)` produces byte-identical span logs;
//! - a **fleet-level top-down book** — each completed job's clp-prof
//!   run-level [`BucketCycles`] summed into per-workload-class and
//!   per-composition-size rollups (summing raw books is inherently
//!   cycle-weighted), the feedback signal an online compose/decompose
//!   policy would read;
//! - a **virtual-time series** — queue depth, worker utilization,
//!   retry/shed counts, and cache hit ratio at the ticks the service
//!   processed (arrivals, attempt ends, retry releases), each derived
//!   from the spans and handed to the [`TrendRecorder`] as values;
//! - **exports** — the pinned `clp-scope-v1` JSON, a Perfetto
//!   track export (one track per worker plus queue/admission tracks,
//!   spans nested per job), and an ASCII fleet breakdown.
//!
//! The span types are plain values (ids, ticks, string labels), so this
//! crate stays independent of the service crate; clp-serve owns the
//! emission points and the determinism argument (see
//! DESIGN.md, "Service observability").

use crate::profile::BucketCycles;
use crate::sink::{chrome_trace, ChromeEvent};
use crate::skip_nulls;
use crate::snapshot::MetricValue;
use crate::trend::{TrendOptions, TrendRecorder, TrendReport};
use serde_json::{json, ToValue, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Scope layer configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScopeOptions {
    /// Virtual-tick width of the time-series sampling interval.
    pub period: u64,
}

impl Default for ScopeOptions {
    fn default() -> Self {
        ScopeOptions { period: 5_000 }
    }
}

/// A half-open interval of virtual ticks `[start, end)` (zero-length
/// spans are legal: a job can be dispatched on its arrival tick).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// First tick of the span.
    pub start: u64,
    /// End tick (exclusive).
    pub end: u64,
}

impl ToValue for Span {
    fn to_value(&self) -> Value {
        json!({"start": (self.start), "end": (self.end)})
    }
}

/// How one dispatched attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptEnd {
    /// Ran to completion and verified.
    Success,
    /// Reaped by the deadline watchdog (retryable with a bigger budget).
    DeadlineKill,
    /// Failed transiently (faults, recovery failure, placement).
    Transient,
    /// Panicked; the attempt's worker thread ended with it, and the
    /// slot's next attempt runs on a fresh one.
    Panicked,
    /// Failed permanently; no retry can help.
    Permanent,
}

impl AttemptEnd {
    /// Stable snake_case label (JSON, Perfetto args).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttemptEnd::Success => "success",
            AttemptEnd::DeadlineKill => "deadline_kill",
            AttemptEnd::Transient => "transient",
            AttemptEnd::Panicked => "panic",
            AttemptEnd::Permanent => "permanent",
        }
    }
}

/// One dispatched attempt: occupancy of one worker for one span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptSpan {
    /// 0-based attempt index.
    pub attempt: u32,
    /// Worker slot that executed the attempt.
    pub worker: usize,
    /// Dispatch tick.
    pub start: u64,
    /// Completion-event tick.
    pub end: u64,
    /// Whether the program came out of the compile cache.
    pub cache_hit: bool,
    /// Compile sub-span (present on a cache miss; charged at the front
    /// of the attempt).
    pub compile: Option<Span>,
    /// How the attempt ended.
    pub end_kind: AttemptEnd,
}

/// Terminal disposition of a job, as the span model sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// Completed and verified; carries the successful attempt's
    /// simulated cycles.
    Completed {
        /// Simulated cycles of the successful attempt.
        cycles: u64,
    },
    /// Failed permanently.
    Failed,
    /// Spent every retry without a success.
    Exhausted,
    /// Shed at admission (queue full).
    Shed,
    /// Refused as malformed at admission.
    Invalid,
}

impl Terminal {
    /// Stable snake_case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Terminal::Completed { .. } => "completed",
            Terminal::Failed => "failed",
            Terminal::Exhausted => "exhausted",
            Terminal::Shed => "shed",
            Terminal::Invalid => "invalid",
        }
    }

    fn to_json(self) -> Value {
        let cycles = match self {
            Terminal::Completed { cycles } => Some(cycles),
            _ => None,
        };
        skip_nulls(json!({"kind": (self.label()), "cycles": cycles}))
    }
}

/// The complete span tree of one job. Invariants (asserted by the
/// property suite): spans nest and tile — `queued[k].end ==
/// attempts[k].start`, `attempts[k].end == backoffs[k].start`,
/// `backoffs[k].end == queued[k+1].start`, compile sub-spans lie inside
/// their attempt, and `attempts.last().end == finish`.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpans {
    /// Job id.
    pub id: u64,
    /// Workload name.
    pub workload: String,
    /// Workload-class label (e.g. `spec_int`), or `unknown` for jobs
    /// rejected before name resolution.
    pub class: String,
    /// Composition size: the one granted to an admitted job (halved
    /// under load), the one requested by a rejected job.
    pub cores: usize,
    /// Arrival tick.
    pub arrival: u64,
    /// Terminal-event tick.
    pub finish: u64,
    /// Terminal disposition.
    pub terminal: Terminal,
    /// Ready-to-dispatch waits: one per dispatch, opened at admission or
    /// retry release.
    pub queued: Vec<Span>,
    /// Dispatched attempts, in attempt order.
    pub attempts: Vec<AttemptSpan>,
    /// Backoff waits between a failed attempt and its retry release
    /// (always `attempts.len() - 1` entries for executed jobs).
    pub backoffs: Vec<Span>,
    /// The job's clp-prof run-level book (completed jobs whose attempts
    /// were profiled); the fleet book is exactly the sum of these.
    pub book: Option<BucketCycles>,
}

impl JobSpans {
    fn to_json(&self) -> Value {
        let attempts = self.attempts.iter().map(|a| {
            skip_nulls(json!({
                "attempt": (a.attempt),
                "worker": (a.worker),
                "start": (a.start),
                "end": (a.end),
                "cache": (if a.cache_hit { "hit" } else { "miss" }),
                "outcome": (a.end_kind.label()),
                "compile": (a.compile)
            }))
        });
        let attempts: Vec<Value> = attempts.collect();
        skip_nulls(json!({
            "id": (self.id),
            "workload": (self.workload),
            "class": (self.class),
            "cores": (self.cores),
            "arrival": (self.arrival),
            "finish": (self.finish),
            "terminal": (self.terminal.to_json()),
            "queued": (self.queued),
            "attempts": attempts,
            "backoffs": (self.backoffs),
            "book": (self.book)
        }))
    }
}

/// One occupancy slice of a worker track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerSlice {
    /// Job occupying the worker.
    pub job: u64,
    /// That job's attempt index.
    pub attempt: u32,
    /// Dispatch tick.
    pub start: u64,
    /// Completion-event tick.
    pub end: u64,
}

/// One worker's occupancy track: slices in dispatch order, never
/// overlapping (a slot holds one in-flight job at a time).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerTrack {
    /// Occupancy slices, sorted by start tick.
    pub slices: Vec<WorkerSlice>,
}

impl WorkerTrack {
    /// Total ticks this worker spent occupied.
    #[must_use]
    fn busy_ticks(&self) -> u64 {
        self.slices.iter().map(|s| s.end - s.start).sum()
    }
}

/// Cycle rollup for one key of the fleet book (a workload class or a
/// composition size).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassBook {
    /// Completed jobs folded in.
    pub jobs: u64,
    /// Sum of the jobs' simulated cycle counts.
    pub sim_cycles: u64,
    /// Sum of the jobs' run-level clp-prof books.
    pub buckets: BucketCycles,
}

impl ClassBook {
    fn fold(&mut self, sim_cycles: u64, buckets: &BucketCycles) {
        self.jobs += 1;
        self.sim_cycles += sim_cycles;
        self.buckets.merge(buckets);
    }

    /// One rollup row of the fleet book, led by the `label` or `cores`
    /// it is keyed by.
    fn to_json(&self, label: Option<&str>, cores: Option<usize>) -> Value {
        skip_nulls(json!({
            "label": label,
            "cores": cores,
            "jobs": (self.jobs),
            "sim_cycles": (self.sim_cycles),
            "buckets": (self.buckets)
        }))
    }
}

/// The fleet-wide top-down book: where the fleet's cycles went, total
/// and rolled up per workload class and per composition size. Weighting
/// is by construction cycle-proportional — raw per-job books are summed,
/// never averaged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetBook {
    /// Rollup over every completed job.
    pub total: ClassBook,
    /// Per-workload-class rollups, keyed by class label.
    pub by_class: BTreeMap<String, ClassBook>,
    /// Per-composition-size rollups, keyed by granted cores.
    pub by_cores: BTreeMap<usize, ClassBook>,
}

impl FleetBook {
    /// Folds one completed job's run-level book into the fleet book.
    fn fold(&mut self, class: &str, cores: usize, sim_cycles: u64, buckets: &BucketCycles) {
        self.total.fold(sim_cycles, buckets);
        self.by_class
            .entry(class.to_string())
            .or_default()
            .fold(sim_cycles, buckets);
        self.by_cores
            .entry(cores)
            .or_default()
            .fold(sim_cycles, buckets);
    }

    fn to_json(&self) -> Value {
        let by_class = self.by_class.iter();
        let by_class: Vec<Value> = by_class
            .map(|(label, b)| b.to_json(Some(label), None))
            .collect();
        let by_cores = self.by_cores.iter();
        let by_cores: Vec<Value> = by_cores
            .map(|(&cores, b)| b.to_json(None, Some(cores)))
            .collect();
        json!({
            "jobs": (self.total.jobs),
            "sim_cycles": (self.total.sim_cycles),
            "buckets": (self.total.buckets),
            "by_class": by_class,
            "by_cores": by_cores
        })
    }
}

/// Column paths of the scope time series, in the order [`series_at`]
/// hands their values in.
const SERIES_PATHS: [&str; 9] = [
    "scope/queue_depth",
    "scope/busy_workers",
    "scope/utilization",
    "scope/cache_hit_ratio",
    "scope/completed",
    "scope/retries",
    "scope/shed",
    "scope/cache_hits",
    "scope/cache_misses",
];

/// The series values as they stood at the end of processed tick `t`,
/// after its dispatch, and the jobs completed by then: queue depth counts
/// the attempts with `ready <= t < start` (ready: their queued span's
/// start), busy those with `start <= t < end`; completions, retries
/// (backoffs), sheds and cache lookups (attempts, by hit) count those
/// that happened at ticks `<= t`.
fn series_at(jobs: &[JobSpans], workers: usize, t: u64) -> ([Option<MetricValue>; 9], u64) {
    let (mut queued, mut busy, mut completed, mut retries) = (0u64, 0u64, 0, 0);
    let (mut shed, mut hits, mut misses) = (0, 0u64, 0u64);
    for j in jobs {
        match j.terminal {
            Terminal::Completed { .. } if j.finish <= t => completed += 1,
            Terminal::Shed if j.arrival <= t => shed += 1,
            _ => {}
        }
        retries += j.backoffs.iter().filter(|b| b.start <= t).count() as u64;
        for (ready, a) in j.queued.iter().zip(&j.attempts) {
            queued += u64::from(ready.start <= t && t < a.start);
            if a.start > t {
                continue;
            }
            busy += u64::from(t < a.end);
            if a.cache_hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
    }
    let values = [
        MetricValue::Gauge(queued as f64),
        MetricValue::Gauge(busy as f64),
        MetricValue::Gauge(busy as f64 / workers.max(1) as f64),
        MetricValue::Gauge(hits as f64 / (hits + misses).max(1) as f64),
        MetricValue::Count(completed),
        MetricValue::Count(retries),
        MetricValue::Count(shed),
        MetricValue::Count(hits),
        MetricValue::Count(misses),
    ];
    (values.map(Some), completed)
}

/// The service time series: an interval closes at each processed tick
/// (arrivals, attempt ends and retry releases) that is due, and at the
/// drain; its "instructions" are completed jobs.
fn series(jobs: &[JobSpans], workers: usize, drained_at: u64, opts: &ScopeOptions) -> TrendReport {
    let mut ticks = BTreeSet::new();
    for j in jobs {
        ticks.insert(j.arrival);
        ticks.extend(j.attempts.iter().map(|a| a.end));
        ticks.extend(j.backoffs.iter().map(|b| b.end));
    }
    let mut trend = TrendRecorder::new(TrendOptions {
        period: opts.period.max(1),
        paths: SERIES_PATHS.map(String::from).to_vec(),
    });
    for t in ticks {
        if trend.due(t) {
            let (values, completed) = series_at(jobs, workers, t);
            trend.record(t, &values, completed, None);
        }
    }
    let (values, completed) = series_at(jobs, workers, drained_at);
    trend.finish(drained_at, &values, completed, None)
}

/// The complete service-level observability document of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScopeReport {
    /// Service seed (provenance echo; the replay key lives with the
    /// arrival schedule).
    pub seed: u64,
    /// Worker slots.
    pub workers: usize,
    /// Tick of the last processed event.
    pub drained_at: u64,
    /// Per-job span trees, sorted by job id.
    pub jobs: Vec<JobSpans>,
    /// Per-worker occupancy tracks, by worker index.
    pub tracks: Vec<WorkerTrack>,
    /// The fleet-wide top-down cycle book.
    pub fleet: FleetBook,
    /// The virtual-time series (queue depth, utilization, rates).
    pub series: TrendReport,
}

impl ScopeReport {
    /// The clp-scope view of one drained service run: `jobs` are the
    /// service's span trees in id order, `workers` its worker slots,
    /// `drained_at` the tick of its last event, `seed` echoed for
    /// provenance. Everything else is derived from the spans: the worker
    /// tracks are the attempts grouped by worker in start order, the
    /// fleet book is the sum of the completed jobs' books, and the series
    /// is sampled at the ticks the service processed.
    #[must_use]
    pub fn new(
        jobs: Vec<JobSpans>,
        workers: usize,
        drained_at: u64,
        seed: u64,
        opts: &ScopeOptions,
    ) -> ScopeReport {
        let mut tracks = vec![WorkerTrack::default(); workers];
        let mut fleet = FleetBook::default();
        for j in &jobs {
            for a in &j.attempts {
                tracks[a.worker].slices.push(WorkerSlice {
                    job: j.id,
                    attempt: a.attempt,
                    start: a.start,
                    end: a.end,
                });
            }
            if let (Terminal::Completed { cycles }, Some(book)) = (j.terminal, &j.book) {
                fleet.fold(&j.class, j.cores, cycles, book);
            }
        }
        for t in &mut tracks {
            t.slices.sort_by_key(|s| s.start);
        }
        let series = series(&jobs, workers, drained_at, opts);
        ScopeReport {
            seed,
            workers,
            drained_at,
            jobs,
            tracks,
            fleet,
            series,
        }
    }

    /// The report under the pinned `clp-scope-v1` schema. Every value is
    /// an integer or a string, so equal runs serialize byte-identically.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let jobs: Vec<Value> = self.jobs.iter().map(JobSpans::to_json).collect();
        let tracks = self.tracks.iter().enumerate().map(|(w, t)| {
            let slice = |s: &WorkerSlice| {
                json!({"job": (s.job), "attempt": (s.attempt), "start": (s.start), "end": (s.end)})
            };
            let slices: Vec<Value> = t.slices.iter().map(slice).collect();
            json!({"worker": w, "busy": (t.busy_ticks()), "slices": slices})
        });
        let tracks: Vec<Value> = tracks.collect();
        json!({
            "schema": "clp-scope-v1",
            "seed": (self.seed),
            "workers": (self.workers),
            "drained_at": (self.drained_at),
            "jobs": jobs,
            "worker_tracks": tracks,
            "fleet": (self.fleet.to_json()),
            "series": (self.series.to_json_value())
        })
    }

    /// The report serialized as pretty `clp-scope-v1` JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!("{:#}", self.to_json_value())
    }

    /// One-paragraph run summary (terminal-state census + utilization).
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
        for j in &self.jobs {
            *census.entry(j.terminal.label()).or_default() += 1;
        }
        let census: Vec<String> = census.iter().map(|(k, v)| format!("{v} {k}")).collect();
        let busy: u64 = self.tracks.iter().map(WorkerTrack::busy_ticks).sum();
        let capacity = self.drained_at.max(1) * self.workers.max(1) as u64;
        let mut out = format!(
            "clp-scope: {} jobs over {} workers, drained at tick {}\n",
            self.jobs.len(),
            self.workers,
            self.drained_at
        );
        out.push_str(&format!(
            "  terminals: {}\n  worker occupancy: {}.{:01}% of {} worker-ticks\n",
            census.join(", "),
            busy * 1000 / capacity / 10,
            busy * 1000 / capacity % 10,
            capacity,
        ));
        out
    }

    /// The ASCII fleet breakdown: per-class and per-composition-size
    /// rollup tables plus the total bucket book.
    #[must_use]
    pub fn render_fleet(&self) -> String {
        let total_crit = self.fleet.total.buckets.total().max(1);
        let mut out = format!(
            "fleet cycle attribution: {} completed jobs, {} critical cycles, {} simulated\n",
            self.fleet.total.jobs,
            self.fleet.total.buckets.total(),
            self.fleet.total.sim_cycles,
        );
        let section = |out: &mut String, title: &str, rows: Vec<(String, &ClassBook)>| {
            out.push_str(&format!(
                "\n{title}\n{:<16} {:>5} {:>12} {:>7}  top buckets\n",
                "key", "jobs", "cycles", "share"
            ));
            for (label, book) in rows {
                let cycles = book.buckets.total();
                out.push_str(&format!(
                    "{:<16} {:>5} {:>12} {:>6.1}%  {}\n",
                    label,
                    book.jobs,
                    cycles,
                    100.0 * cycles as f64 / total_crit as f64,
                    book.buckets.render_top3()
                ));
            }
        };
        section(
            &mut out,
            "by workload class:",
            self.fleet
                .by_class
                .iter()
                .map(|(l, b)| (l.clone(), b))
                .collect(),
        );
        section(
            &mut out,
            "by composition size:",
            self.fleet
                .by_cores
                .iter()
                .map(|(c, b)| (format!("x{c}"), b))
                .collect(),
        );
        out.push_str("\nfleet bucket book:\n");
        out.push_str(&self.fleet.total.buckets.render_table());
        out
    }

    /// Chrome trace-event JSON loadable at <https://ui.perfetto.dev>:
    /// one thread track per worker carrying occupancy slices (compile
    /// sub-spans nested inside), one async track per job with its
    /// queued/attempt/backoff spans nested, instant marks for
    /// shed/invalid arrivals on the admission track, and queue-depth /
    /// utilization counter tracks from the time series.
    #[must_use]
    pub fn to_perfetto(&self) -> String {
        let mut events: Vec<Value> = Vec::new();
        let mut push = |event: ChromeEvent| events.push(event.into_value());
        let meta = |name: &str, tid: u64, label: String| ChromeEvent {
            name: name.to_string(),
            ph: "M",
            pid: 1,
            tid: Some(tid),
            args: Some(json!({"name": label})),
            ..ChromeEvent::default()
        };
        push(meta("process_name", 0, "clp-serve".to_string()));
        push(meta("thread_name", 0, "admission".to_string()));
        for w in 0..self.workers {
            push(meta("thread_name", w as u64 + 1, format!("worker {w}")));
        }
        // Worker occupancy: complete ("X") slices, compile sub-spans
        // nested within by timestamp containment.
        let slice = |name: String, tid: usize, start: u64, end: u64| ChromeEvent {
            name,
            cat: Some("worker"),
            ph: "X",
            ts: Some(start),
            dur: Some(end - start),
            pid: 1,
            tid: Some(tid as u64 + 1),
            ..ChromeEvent::default()
        };
        for (w, track) in self.tracks.iter().enumerate() {
            for s in &track.slices {
                let job = self.jobs.iter().find(|j| j.id == s.job);
                let job = job.expect("slice has a job");
                let title = format!("job {} {} x{}", job.id, job.workload, job.cores);
                push(ChromeEvent {
                    args: Some(json!({"attempt": (s.attempt)})),
                    ..slice(title, w, s.start, s.end)
                });
                let attempt = job.attempts.iter().find(|a| a.attempt == s.attempt);
                if let Some(c) = attempt.expect("slice has an attempt").compile {
                    push(slice("compile".to_string(), w, c.start, c.end));
                }
            }
        }
        // Per-job async span trees (one track per job id) + admission
        // instants for refused arrivals.
        for job in &self.jobs {
            if matches!(job.terminal, Terminal::Shed | Terminal::Invalid) {
                push(ChromeEvent {
                    name: format!("{} job {} {}", job.terminal.label(), job.id, job.workload),
                    cat: Some("admission"),
                    ph: "i",
                    ts: Some(job.arrival),
                    pid: 1,
                    tid: Some(0),
                    scope: Some("t"),
                    ..ChromeEvent::default()
                });
                continue;
            }
            let async_ev = |name: String, ph: &'static str, ts: u64| ChromeEvent {
                name,
                cat: Some("job"),
                ph,
                ts: Some(ts),
                pid: 1,
                id: Some(job.id.to_value()),
                ..ChromeEvent::default()
            };
            let title = format!("job {} {} x{}", job.id, job.workload, job.cores);
            push(async_ev(title.clone(), "b", job.arrival));
            for (k, q) in job.queued.iter().enumerate() {
                push(async_ev("queued".to_string(), "b", q.start));
                push(async_ev("queued".to_string(), "e", q.end));
                let a = &job.attempts[k];
                let attempt = format!("attempt {} ({})", a.attempt, a.end_kind.label());
                push(async_ev(attempt.clone(), "b", a.start));
                if let Some(c) = a.compile {
                    push(async_ev("compile".to_string(), "b", c.start));
                    push(async_ev("compile".to_string(), "e", c.end));
                }
                push(async_ev(attempt, "e", a.end));
                if let Some(bo) = job.backoffs.get(k) {
                    push(async_ev("backoff".to_string(), "b", bo.start));
                    push(async_ev("backoff".to_string(), "e", bo.end));
                }
            }
            push(async_ev(title, "e", job.finish));
        }
        // Counter tracks from the series: queue depth and utilization.
        for (path, name, divisor) in [
            ("scope/queue_depth", "queue_depth", 1000u64),
            ("scope/utilization", "utilization_milli", 1),
        ] {
            if let Some(col) = self.series.columns.iter().find(|c| c.path == path) {
                for (&v, &ts) in col.values.iter().zip(&self.series.ends) {
                    let args = json!({"value": (v / divisor)});
                    events.push(ChromeEvent::counter(name, ts, 1, args));
                }
            }
        }
        chrome_trace(events, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Bucket;

    fn book(execute: u64, mem: u64) -> BucketCycles {
        let mut b = BucketCycles::default();
        b.add(Bucket::Execute, execute);
        b.add(Bucket::MemWait, mem);
        b
    }

    fn span(start: u64, end: u64) -> Span {
        Span { start, end }
    }

    /// A job's span tree with no spans yet.
    fn arrived(id: u64, workload: &str, class: &str, cores: usize, arrival: u64) -> JobSpans {
        JobSpans {
            id,
            workload: workload.to_string(),
            class: class.to_string(),
            cores,
            arrival,
            finish: arrival,
            terminal: Terminal::Shed,
            queued: Vec::new(),
            attempts: Vec::new(),
            backoffs: Vec::new(),
            book: None,
        }
    }

    /// One small synthetic service history on two workers, as the
    /// service writes it: job 0 completes on attempt 0 (a cache miss
    /// compiling for 5 ticks); job 1 fails once and completes on its
    /// retry (both hits); job 2 is shed.
    fn history() -> Vec<JobSpans> {
        let attempt = |attempt, start, end, end_kind| AttemptSpan {
            attempt,
            worker: 1,
            start,
            end,
            cache_hit: true,
            compile: None,
            end_kind,
        };
        let job0 = JobSpans {
            finish: 50,
            terminal: Terminal::Completed { cycles: 35 },
            queued: vec![span(10, 10)],
            attempts: vec![AttemptSpan {
                worker: 0,
                cache_hit: false,
                compile: Some(span(10, 15)),
                ..attempt(0, 10, 50, AttemptEnd::Success)
            }],
            book: Some(book(30, 5)),
            ..arrived(0, "conv", "hand_optimized", 4, 10)
        };
        let job1 = JobSpans {
            finish: 90,
            terminal: Terminal::Completed { cycles: 25 },
            queued: vec![span(12, 12), span(60, 60)],
            attempts: vec![
                attempt(0, 12, 40, AttemptEnd::Transient),
                attempt(1, 60, 90, AttemptEnd::Success),
            ],
            backoffs: vec![span(40, 60)],
            book: Some(book(20, 5)),
            ..arrived(1, "bezier", "eembc", 2, 12)
        };
        vec![job0, job1, arrived(2, "conv", "hand_optimized", 8, 14)]
    }

    fn recorded() -> ScopeReport {
        ScopeReport::new(history(), 2, 90, 7, &ScopeOptions { period: 100 })
    }

    fn column(rep: &ScopeReport, path: &str) -> Vec<u64> {
        let col = rep.series.columns.iter().find(|c| c.path == path);
        col.expect("column").values.clone()
    }

    #[test]
    fn spans_nest_and_tile() {
        let rep = recorded();
        assert_eq!(rep.jobs.len(), 3);
        let j1 = &rep.jobs[1];
        assert_eq!(j1.id, 1);
        assert_eq!(j1.queued.len(), 2);
        assert_eq!(j1.attempts.len(), 2);
        assert_eq!(j1.backoffs.len(), 1);
        // queued -> attempt -> backoff -> queued -> attempt tiles.
        assert_eq!(j1.queued[0].end, j1.attempts[0].start);
        assert_eq!(j1.attempts[0].end, j1.backoffs[0].start);
        assert_eq!(j1.backoffs[0].end, j1.queued[1].start);
        assert_eq!(j1.queued[1].end, j1.attempts[1].start);
        assert_eq!(j1.attempts[1].end, j1.finish);
        assert_eq!(j1.attempts[0].end_kind, AttemptEnd::Transient);
        assert_eq!(j1.attempts[1].end_kind, AttemptEnd::Success);
        // Compile sub-span inside the missing attempt only.
        let j0 = &rep.jobs[0];
        let c = j0.attempts[0].compile.expect("miss compiles");
        assert!(c.start >= j0.attempts[0].start && c.end <= j0.attempts[0].end);
        assert!(j1.attempts[0].compile.is_none(), "hit has no compile span");
        // The shed job has no spans.
        assert_eq!(rep.jobs[2].terminal, Terminal::Shed);
        assert!(rep.jobs[2].attempts.is_empty());
    }

    #[test]
    fn worker_tracks_never_overlap() {
        let rep = recorded();
        assert_eq!(rep.tracks.len(), 2);
        assert_eq!(rep.tracks[1].slices.len(), 2);
        for track in &rep.tracks {
            for pair in track.slices.windows(2) {
                assert!(pair[0].end <= pair[1].start);
            }
        }
        assert_eq!(rep.tracks[0].busy_ticks(), 40);
        assert_eq!(rep.tracks[1].busy_ticks(), 28 + 30);
    }

    #[test]
    fn fleet_book_sums_the_per_job_books() {
        let rep = recorded();
        assert_eq!(rep.fleet.total.jobs, 2);
        assert_eq!(rep.fleet.total.sim_cycles, 60);
        assert_eq!(rep.fleet.total.buckets.total(), 60);
        assert_eq!(rep.fleet.by_class.len(), 2);
        assert_eq!(rep.fleet.by_class["hand_optimized"].buckets.total(), 35);
        assert_eq!(rep.fleet.by_class["eembc"].buckets.total(), 25);
        assert_eq!(rep.fleet.by_cores[&4].jobs, 1);
        assert_eq!(rep.fleet.by_cores[&2].jobs, 1);
        // The per-job books sum exactly to the fleet total.
        let mut sum = BucketCycles::default();
        for j in &rep.jobs {
            if let Some(b) = &j.book {
                sum.merge(b);
            }
        }
        assert_eq!(sum, rep.fleet.total.buckets);
    }

    #[test]
    fn series_records_levels_and_deltas() {
        let rep = recorded();
        // The sample at tick 20 is before the first due tick (period
        // 100), so only the finish flush closes an interval.
        assert!(!rep.series.ends.is_empty());
        let depth = rep
            .series
            .columns
            .iter()
            .find(|c| c.path == "scope/queue_depth")
            .expect("column");
        assert_eq!(depth.values.len(), rep.series.ends.len());
        let completed = rep
            .series
            .columns
            .iter()
            .find(|c| c.path == "scope/completed")
            .expect("column");
        let total: u64 = completed.values.iter().sum();
        assert_eq!(total, 2, "completed column deltas sum to the census");
    }

    /// With a one-tick period every processed tick (10, 12, 14, 40, 50,
    /// 60, 90) closes an interval, so each column reads the derivation
    /// identities tick by tick.
    #[test]
    fn series_derives_levels_and_counts_from_the_spans() {
        let rep = ScopeReport::new(history(), 2, 90, 7, &ScopeOptions { period: 1 });
        assert_eq!(rep.series.ends, vec![10, 12, 14, 40, 50, 60, 90]);
        assert_eq!(column(&rep, "scope/queue_depth"), vec![0; 7]);
        let busy = vec![1000, 2000, 2000, 1000, 0, 1000, 0];
        assert_eq!(column(&rep, "scope/busy_workers"), busy);
        assert_eq!(
            column(&rep, "scope/utilization"),
            vec![500, 1000, 1000, 500, 0, 500, 0]
        );
        assert_eq!(column(&rep, "scope/completed"), vec![0, 0, 0, 0, 1, 0, 1]);
        assert_eq!(rep.series.insts, column(&rep, "scope/completed"));
        assert_eq!(column(&rep, "scope/retries"), vec![0, 0, 0, 1, 0, 0, 0]);
        assert_eq!(column(&rep, "scope/shed"), vec![0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(column(&rep, "scope/cache_hits"), vec![0, 1, 0, 0, 0, 1, 0]);
        assert_eq!(
            column(&rep, "scope/cache_misses"),
            vec![1, 0, 0, 0, 0, 0, 0]
        );
        let ratio = vec![0, 500, 500, 500, 500, 667, 667];
        assert_eq!(column(&rep, "scope/cache_hit_ratio"), ratio);
        // A job released but not yet dispatched at a processed tick is
        // queued there: hold job 1's retry back from 60 to 70.
        let mut jobs = history();
        jobs[1].queued[1] = span(60, 70);
        jobs[1].attempts[1].start = 70;
        let rep = ScopeReport::new(jobs, 2, 90, 7, &ScopeOptions { period: 1 });
        let depth = column(&rep, "scope/queue_depth");
        assert_eq!(depth, vec![0, 0, 0, 0, 0, 1000, 0]);
    }

    #[test]
    fn json_and_renderers_are_deterministic() {
        let a = recorded();
        let b = recorded();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"schema\": \"clp-scope-v1\""));
        assert_eq!(a.to_perfetto(), b.to_perfetto());
        let trace = a.to_perfetto();
        assert!(trace.contains("traceEvents"));
        assert!(trace.contains("worker 0"));
        assert!(trace.contains("queue_depth"));
        assert!(trace.contains("shed job 2"));
        let fleet = a.render_fleet();
        assert!(fleet.contains("by workload class"));
        assert!(fleet.contains("hand_optimized"));
        assert!(fleet.contains("x4"));
        assert!(fleet.contains("execute"));
        let summary = a.render_summary();
        assert!(summary.contains("2 completed"));
        assert!(summary.contains("1 shed"));
    }
}
