//! The four workloads: what one pass does, what it checks, and which
//! layer calls it times.
//!
//! A pass runs every *unit* of the workload once, in an order the seed
//! picks; each unit keeps its fastest wall time and every
//! speed-normalised CPU time over all passes (see [`crate::book`] and
//! [`crate::calib`]). Every workload is a closed loop from one process:
//! the sweeps and `analysis` are single-threaded, `serve_batch` is the
//! blocked scheduler thread plus two pool workers.

use crate::book::{Book, Key};
use crate::calib::{cpu_ns, Calibrator, Watch};
use crate::probes;
use crate::spans::{self_times, SpanLog};
use clp_compiler::{compile, CompileOptions};
use clp_core::{
    compile_workload, run_compiled, run_compiled_observed, CompiledWorkload, ObsOptions,
    ProcessorConfig, RunFailure,
};
use clp_isa::Reg;
use clp_lint::{bound_program, lint_program, LintConfig};
use clp_obs::{
    LatencySummary, ProfileReport, RingRecorder, ScopeOptions, StatsSnapshot, Tracer, TrendOptions,
    TrendReport,
};
use clp_power::{AreaModel, EnergyModel, PowerConfig};
use clp_serve::{
    arrivals, service, ArrivalConfig, JobOutcome, ServiceConfig, ServiceReport, ServiceTotals,
};
use clp_sim::{fault::Prng, Machine, RunStats};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds of the cold set-up path; each kernel keeps its lower quartile.
const SETUP_ROUNDS: usize = 200;
/// A run never reports fewer passes than this, whatever `--seconds` says.
const MIN_PASSES: usize = 5;
/// Sizes `analysis` bounds and observes every kernel at.
const ANALYSIS_SIZES: [usize; 3] = [1, 4, 16];
/// Events the `obs.trace_overhead_x` ring keeps.
const RING_EVENTS: usize = 4096;

/// Whether the kernel also runs the observer and driver variants that
/// the `*_overhead_x` and `sim.stepped_ratio_x` ratios are taken on:
/// every fourth one (ct, basefp, tblook, bzip2, vpr, mgrid, ammp), a
/// fifth of the suite's cycles. Offset 1 keeps gzip out, which alone is
/// a quarter of them.
fn is_probe(kernel: usize) -> bool {
    kernel % 4 == 1
}

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 26 kernels at 1 and 2 cores: the per-instruction core model.
    SweepNarrow,
    /// 26 kernels at 16 and 32 cores: mesh, protocols and horizon.
    SweepWide,
    /// Compile, lint, bound, observe and emit, per kernel.
    Analysis,
    /// One drained run of the job service over a pinned arrival stream.
    ServeBatch,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SweepNarrow,
        Workload::SweepWide,
        Workload::Analysis,
        Workload::ServeBatch,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name `BENCHMARK.json` lists the workload under.
    pub fn name(self) -> &'static str {
        crate::manifest::WORKLOADS[self as usize]
    }

    fn sizes(self) -> &'static [usize] {
        match self {
            Workload::SweepNarrow => &[1, 2],
            Workload::SweepWide => &[16, 32],
            Workload::Analysis => &ANALYSIS_SIZES,
            Workload::ServeBatch => &[],
        }
    }
}

/// Arrival streams one `serve_batch` pass drains, one service run each.
/// Four short runs, not one long one: a figure per unit needs undisturbed
/// samples of the unit, and on a shared 2-core host a quarter-second with
/// both cores free comes by far more often than a whole second.
const SERVE_STREAMS: usize = 4;

/// One arrival stream of `serve_batch`. The streams are pinned, not
/// drawn from `--seed`: another stream is another job mix, and its wall
/// time differs by tens of percent, which the run-to-run bounds cannot
/// hold. Each plants a worker panic (job 5), a no-survivor core kill
/// (job 11) and tight budgets (jobs 4 and 9).
fn serve_arrivals(stream: usize) -> ArrivalConfig {
    ArrivalConfig {
        jobs: 12,
        seed: 42 + stream as u64,
        mean_gap: 3_000,
        budget: 200_000,
        tight_every: 5,
        tight_budget: 2_500,
        plant_panic: vec![5],
        kill_at: vec![(11, 800)],
    }
}

/// Two workers and the blocked scheduler thread; nothing is shed or
/// degraded, and seven retries let budget doubling reach every kernel's
/// length, so no job of a stream fails.
fn serve_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_cap: 64,
        degrade_at: 48,
        max_retries: 7,
        seed: 42,
        ..ServiceConfig::default()
    }
}

/// The spec `clp-serve --bench` pins, whose report is `BENCH_serve.json`.
fn pinned_bench_spec() -> (ArrivalConfig, ServiceConfig) {
    let acfg = ArrivalConfig {
        jobs: 48,
        seed: 42,
        mean_gap: 3_000,
        budget: 200_000,
        tight_every: 7,
        tight_budget: 2_500,
        plant_panic: vec![5, 23],
        kill_at: vec![(11, 800)],
    };
    let scfg = ServiceConfig {
        workers: 4,
        queue_cap: 8,
        degrade_at: 6,
        max_retries: 3,
        seed: 42,
        ..ServiceConfig::default()
    };
    (acfg, scfg)
}

/// One thing a pass runs and times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unit {
    /// `analysis`: compile → golden → lint → bound of one kernel.
    Front(usize),
    /// One kernel at one size (index into `cells`).
    Cell(usize),
    /// One drained service run over one arrival stream.
    ServePass(usize),
    /// Traced runs only, below.
    ServeScoped(usize),
    ServeDirect(usize),
    Trips(usize),
    Ooo(usize),
    AsmRoundtrip(usize),
    NocProbe,
    LsqProbe,
    PredictorProbe,
}

#[derive(Clone, Copy, Debug)]
struct Cell {
    kernel: usize,
    cores: usize,
}

impl Cell {
    fn key(self) -> Key {
        Key::cell(self.kernel, self.cores)
    }
}

/// The name a variant's timings are booked under, and what it turns on.
type Variant = (&'static str, fn(&mut ObsOptions));

/// The observer and driver variants a probe cell also runs with.
const VARIANTS: [Variant; 5] = [
    ("cell.off", |_| {}),
    ("cell.stepped", |o| o.stepped = true),
    ("cell.profile", |o| o.profile = true),
    ("cell.trend", |o| o.trend = Some(TrendOptions::default())),
    ("cell.tracer", |o| {
        o.tracer = Tracer::new(RingRecorder::new(RING_EVENTS));
    }),
];

/// What `analysis` observes every cell with.
fn analysis_options() -> ObsOptions {
    ObsOptions {
        profile: true,
        trend: Some(TrendOptions::default()),
        ..ObsOptions::default()
    }
}

/// Emits a run's reports through their public JSON writers and returns
/// the bytes written.
fn emit_reports(
    snapshot: &StatsSnapshot,
    profile: Option<&ProfileReport>,
    trend: Option<&TrendReport>,
) -> usize {
    let mut bytes = black_box(snapshot.to_json()).len();
    if let Some(p) = profile {
        let text = serde_json::to_string(&p.to_json_value()).expect("serializes");
        bytes += black_box(text).len();
    }
    if let Some(t) = trend {
        bytes += black_box(t.to_json()).len();
    }
    bytes
}

/// Simulated counts of one pass, summed over its cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counts {
    cycles: u64,
    insts_committed: u64,
    blocks_committed: u64,
    blocks_flushed: u64,
    link_traversals: u64,
    l1d_misses: u64,
    l2_misses: u64,
    dram_accesses: u64,
    lsq_nacks: u64,
    predictions: u64,
    mispredictions: u64,
    emit_bytes: u64,
}

impl Counts {
    fn add_run(&mut self, stats: &RunStats) {
        self.cycles += stats.cycles;
        for p in &stats.procs {
            self.insts_committed += p.insts_committed;
            self.blocks_committed += p.blocks_committed;
            self.blocks_flushed += p.blocks_flushed;
            self.predictions += p.predictor.predictions;
            self.mispredictions += p.predictor.mispredictions;
        }
        self.link_traversals +=
            stats.operand_net.link_traversals + stats.control_net.link_traversals;
        self.l1d_misses += stats.mem.l1d_misses;
        self.l2_misses += stats.mem.l2_misses;
        self.dram_accesses += stats.mem.dram_accesses;
        self.lsq_nacks += stats.mem.lsq_nacks;
    }
}

/// What one service run produced.
struct ServeOut {
    result: service::ServiceResult,
    report: String,
}

/// A digest of outputs that must repeat from pass to pass.
fn hash_of(outputs: &impl Hash) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    outputs.hash(&mut h);
    h.finish()
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("duration fits u64 nanoseconds")
}

/// The seed's order of `n` units in pass `pass`: a Fisher–Yates shuffle
/// driven by SplitMix64, so the same (seed, pass) gives the same order.
pub fn permutation(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut prng = Prng::new(seed ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = prng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Reads the pinned cycle count of every `BENCH_baseline.json` cell.
fn baseline_cycles(root: &Path) -> Result<BTreeMap<(String, usize), u64>, String> {
    let path = root.join("BENCH_baseline.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let mut cells = BTreeMap::new();
    for w in doc["workloads"]
        .as_array()
        .ok_or("baseline: no workloads")?
    {
        let name = w["name"].as_str().ok_or("baseline: unnamed workload")?;
        for r in w["runs"].as_array().ok_or("baseline: no runs")? {
            let cores = r["cores"].as_u64().ok_or("baseline: no cores")? as usize;
            let cycles = r["cycles"].as_u64().ok_or("baseline: no cycles")?;
            cells.insert((name.to_string(), cores), cycles);
        }
    }
    Ok(cells)
}

/// What a finished run hands to the printer.
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// How far the median pass sat above the sum of fastest times.
    pub pass_spread_pct: f64,
    /// The pass as the sum of its units' fastest wall times, in seconds.
    pub wall_fastest_s: f64,
    /// Median host-speed sample of the run; 1 is the reference host.
    pub host_speed_x: f64,
    /// Quartile distance of the host-speed samples over their median.
    pub host_speed_spread_pct: f64,
    /// Every pass: its wall seconds and the mean host speed during it,
    /// so that a result file shows whether slow passes were a slow host.
    pub pass_log: Vec<(f64, f64)>,
    /// The span document of a traced run.
    pub trace_json: Option<String>,
}

/// One run of one workload.
pub struct Bench {
    workload: Workload,
    traced: bool,
    seed: u64,
    book: Book,
    calib: Calibrator,
    log: SpanLog,
    kernels: Vec<CompiledWorkload>,
    cells: Vec<Cell>,
    units: Vec<Unit>,
    /// Values that must repeat: the first sighting (or the committed
    /// baseline) pins a slot, every later one must match it.
    pins: BTreeMap<(&'static str, Key), u64>,
    /// Counts of the pass under way, and of the first pass.
    pass_counts: Counts,
    first_counts: Option<Counts>,
    /// The first run of each `serve_batch` stream.
    serve_first: BTreeMap<usize, ServeOut>,
    pass_ns: Vec<u64>,
    /// Mean host-speed sample of each pass.
    pass_speed: Vec<f64>,
    attempted: u64,
    failed: u64,
    setup_cold_ns: u64,
    lint_diagnostics: u64,
    interp_ops: u64,
}

impl Bench {
    /// Sets the workload up (timing the cold path `SETUP_ROUNDS` times)
    /// and pins every cell the committed baseline covers.
    pub fn new(workload: Workload, seed: u64, traced: bool, root: &Path) -> Result<Self, String> {
        let mut b = Bench {
            workload,
            traced,
            seed,
            book: Book::default(),
            calib: Calibrator::new(),
            log: SpanLog::new(),
            kernels: Vec::new(),
            cells: Vec::new(),
            units: Vec::new(),
            pins: BTreeMap::new(),
            pass_counts: Counts::default(),
            first_counts: None,
            serve_first: BTreeMap::new(),
            pass_ns: Vec::new(),
            pass_speed: Vec::new(),
            attempted: 0,
            failed: 0,
            setup_cold_ns: 0,
            lint_diagnostics: 0,
            interp_ops: 0,
        };
        b.set_up()?;
        let baseline = baseline_cycles(root)?;
        for (kernel, cw) in b.kernels.iter().enumerate() {
            for &cores in workload.sizes() {
                let cell = Cell { kernel, cores };
                if let Some(&cycles) = baseline.get(&(cw.workload.name.to_string(), cores)) {
                    b.pins.insert(("cycles", cell.key()), cycles);
                } else if cores <= 16 {
                    return Err(format!(
                        "BENCH_baseline.json has no cell {}@{cores}",
                        cw.workload.name
                    ));
                }
                b.cells.push(cell);
            }
        }
        b.units = b.unit_list();
        if traced && workload == Workload::ServeBatch {
            replay_pinned_bench(root)?;
        }
        Ok(b)
    }

    fn unit_list(&self) -> Vec<Unit> {
        let kernels = 0..self.kernels.len();
        let probe_kernels = || kernels.clone().filter(|&k| is_probe(k));
        let mut units = Vec::new();
        match self.workload {
            Workload::ServeBatch => {
                units.extend((0..SERVE_STREAMS).map(Unit::ServePass));
                if self.traced {
                    units.extend((0..SERVE_STREAMS).map(Unit::ServeScoped));
                    units.extend((0..SERVE_STREAMS).map(Unit::ServeDirect));
                }
            }
            _ => {
                if self.workload == Workload::Analysis {
                    units.extend(kernels.clone().map(Unit::Front));
                }
                units.extend((0..self.cells.len()).map(Unit::Cell));
                if self.traced && self.workload == Workload::SweepWide {
                    units.extend(probe_kernels().map(Unit::Trips));
                    units.extend(probe_kernels().map(Unit::Ooo));
                }
            }
        }
        if self.traced {
            units.extend(probe_kernels().map(Unit::AsmRoundtrip));
            units.extend([Unit::NocProbe, Unit::LsqProbe, Unit::PredictorProbe]);
        }
        units
    }

    /// The cold path every user pays before the first cell runs:
    /// `suite::all()` → `compile_workload` → `lint_program` per kernel
    /// (plus `arrivals::generate` for `serve_batch`). A traced run times
    /// the stages of `compile_workload` one by one. A round is a few
    /// milliseconds, so the host-speed samples on either side of it
    /// normalise every CPU time taken inside.
    fn set_up(&mut self) -> Result<(), String> {
        let lint_cfg = LintConfig::default();
        let mut cpu_times: Vec<(&'static str, Key, u64)> = Vec::new();
        for round in 0..SETUP_ROUNDS {
            cpu_times.clear();
            let watch = self.calib.start();
            let (t, c) = (Instant::now(), cpu_ns());
            let suite = clp_workloads::suite::all();
            self.book
                .record("workloads.suite_build", Key::GLOBAL, ns(t.elapsed()));
            cpu_times.push(("workloads.suite_build", Key::GLOBAL, cpu_ns() - c));
            let mut kernels = Vec::with_capacity(suite.len());
            let mut diagnostics = 0;
            for (k, w) in suite.iter().enumerate() {
                let key = Key::kernel(k);
                let fail = |e: RunFailure| format!("set-up of {}: {e}", w.name);
                let (t, c) = (Instant::now(), cpu_ns());
                let cw = if self.traced {
                    let edge = compile(&w.program, &CompileOptions::default())
                        .map_err(|e| fail(RunFailure::Compile(e)))?;
                    let compiled = t.elapsed();
                    let golden = w.try_golden().map_err(|e| fail(RunFailure::Golden(e)))?;
                    let interpreted = t.elapsed();
                    self.book.record("compiler.compile", key, ns(compiled));
                    self.book
                        .record("compiler.interp", key, ns(interpreted - compiled));
                    CompiledWorkload {
                        workload: w.clone(),
                        edge,
                        golden,
                    }
                } else {
                    compile_workload(w).map_err(fail)?
                };
                let linted = Instant::now();
                let report = lint_program(&cw.edge, &lint_cfg);
                self.book.record("lint.lint", key, ns(linted.elapsed()));
                self.book.record("setup.kernel", key, ns(t.elapsed()));
                cpu_times.push(("setup.kernel", key, cpu_ns() - c));
                diagnostics += report.diagnostics.len() as u64;
                kernels.push(cw);
            }
            if self.workload == Workload::ServeBatch {
                let (t, c) = (Instant::now(), cpu_ns());
                for stream in 0..SERVE_STREAMS {
                    black_box(arrivals::generate(&serve_arrivals(stream)));
                }
                self.book
                    .record("setup.arrivals", Key::GLOBAL, ns(t.elapsed()));
                cpu_times.push(("setup.arrivals", Key::GLOBAL, cpu_ns() - c));
            }
            let whole = self.calib.stop(watch);
            for &(name, key, cpu) in &cpu_times {
                self.book
                    .record_ref(name, key, cpu as f64 / whole.slowdown());
            }
            if round == 0 {
                self.setup_cold_ns = whole.wall_ns;
                self.lint_diagnostics = diagnostics;
                self.interp_ops = kernels.iter().map(|cw| cw.golden.stats.ops).sum();
                self.kernels = kernels;
            }
        }
        Ok(())
    }

    /// Pins `value` under `(what, key)` on first sight and fails the run
    /// when a later sighting differs.
    fn pin(&mut self, what: &'static str, key: Key, value: u64) -> Result<(), String> {
        let pinned = *self.pins.entry((what, key)).or_insert(value);
        if pinned == value {
            Ok(())
        } else {
            Err(format!(
                "{what} of {} is {value}, pinned {pinned}",
                self.label(key)
            ))
        }
    }

    /// Keys past the kernels' are the `serve_batch` streams'.
    fn stream_key(&self, stream: usize) -> Key {
        Key::kernel(self.kernels.len() + stream)
    }

    fn label(&self, key: Key) -> String {
        let index = key.kernel as usize;
        match self.kernels.get(index) {
            Some(cw) if key.cores > 0 => format!("{}@{}", cw.workload.name, key.cores),
            Some(cw) => cw.workload.name.to_string(),
            None if key == Key::GLOBAL => self.workload.name().to_string(),
            None => format!("stream {}", index - self.kernels.len()),
        }
    }

    /// Runs passes until the next one would end after `deadline`, going
    /// by the mean pass so far; at least [`MIN_PASSES`], and a pass once
    /// started is finished.
    pub fn run_passes(&mut self, deadline: Instant) -> Result<(), String> {
        let started = Instant::now();
        loop {
            let pass = self.pass_ns.len();
            let mean_pass = started.elapsed() / pass.max(1) as u32;
            if pass >= MIN_PASSES && Instant::now() + mean_pass > deadline {
                return Ok(());
            }
            let spans_before = self.log.len();
            let pass_start = Instant::now();
            let samples_before = self.calib.samples_taken();
            self.pass_counts = Counts::default();
            let mut main_ns = 0;
            for i in permutation(self.seed, pass as u64, self.units.len()) {
                main_ns += self.run_unit(self.units[i])?;
            }
            self.pass_ns.push(main_ns);
            self.pass_speed
                .push(self.calib.mean_speed_since(samples_before));
            let counts = std::mem::take(&mut self.pass_counts);
            match &self.first_counts {
                None => self.first_counts = Some(counts),
                Some(first) if *first != counts => {
                    return Err(format!(
                        "pass {pass} counted {counts:?}, the first pass {first:?}"
                    ));
                }
                Some(_) => {}
            }
            if pass == 0 && self.traced {
                // Room for every later pass's spans, so that pushes in
                // timed regions do not reallocate.
                let per_pass = self.log.len() - spans_before;
                let left = deadline.saturating_duration_since(Instant::now());
                let passes = left.as_secs_f64() / pass_start.elapsed().as_secs_f64();
                self.log
                    .reserve(per_pass * (passes as usize + MIN_PASSES + 1));
            }
        }
    }

    /// Runs one unit; returns the nanoseconds it adds to the pass (zero
    /// for the probes and variants that only feed per-layer metrics).
    fn run_unit(&mut self, unit: Unit) -> Result<u64, String> {
        let seed = self.seed;
        match unit {
            Unit::Front(k) => self.front(k),
            Unit::Cell(c) => self.cell(c),
            Unit::ServePass(k) => self.serve_pass(k),
            Unit::ServeScoped(k) => self.serve_scoped(k).map(|()| 0),
            Unit::ServeDirect(k) => self.serve_direct(k).map(|()| 0),
            Unit::Trips(k) => self.probe("baseline.trips_run", Key::kernel(k), |b| {
                run_compiled(&b.kernels[k], &ProcessorConfig::trips())
                    .map(|out| out.stats.cycles)
                    .map_err(|e| format!("{} on TRIPS: {e}", b.kernels[k].workload.name))
            }),
            Unit::Ooo(k) => self.probe("baseline.ooo_run", Key::kernel(k), |b| b.ooo(k)),
            Unit::AsmRoundtrip(k) => self.probe("isa.asm_roundtrip", Key::kernel(k), |b| {
                probes::asm_roundtrip(&b.kernels[k].edge)
            }),
            Unit::NocProbe => self.probe("noc.probe", Key::GLOBAL, |_| probes::noc(seed)),
            Unit::LsqProbe => self.probe("mem.lsq_probe", Key::GLOBAL, |_| Ok(probes::lsq(seed))),
            Unit::PredictorProbe => self.probe("predictor.probe", Key::GLOBAL, |b| {
                Ok(probes::predictor(seed, &b.kernels))
            }),
        }
    }

    /// Times `f`, books it under `name`, and pins the value it returns:
    /// a probe that stops doing its work fails the run.
    fn probe(
        &mut self,
        name: &'static str,
        key: Key,
        f: impl FnOnce(&Self) -> Result<u64, String>,
    ) -> Result<u64, String> {
        let t = Instant::now();
        let value = f(self);
        let elapsed = ns(t.elapsed());
        self.book.record(name, key, elapsed);
        self.pin(name, key, value?).map(|()| 0)
    }

    /// Ends the timing of one end-to-end unit and books it both ways;
    /// returns its wall nanoseconds.
    fn book_unit(&mut self, name: &'static str, key: Key, watch: Watch) -> u64 {
        let timed = self.calib.stop(watch);
        self.book.record(name, key, timed.wall_ns);
        self.book.record_ref(name, key, timed.ref_ns());
        timed.wall_ns
    }

    /// Counts one finished operation of the pass.
    fn attempt<T>(&mut self, what: Key, result: Result<T, RunFailure>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("clp-hostbench: {} failed: {e}", self.label(what));
                }
                self.failed += 1;
                None
            }
        }
    }

    // ---- sweep and analysis cells -------------------------------------

    /// The cell as a user runs it: one public call (plus, for
    /// `analysis`, the report writers).
    fn plain_cell(&self, cell: Cell) -> Result<(RunStats, usize), RunFailure> {
        let cw = &self.kernels[cell.kernel];
        let cfg = ProcessorConfig::tflex(cell.cores);
        if self.workload == Workload::Analysis {
            let out = run_compiled_observed(cw, &cfg, &analysis_options())?;
            let bytes = emit_reports(&out.snapshot, out.profile.as_ref(), out.trend.as_ref());
            Ok((out.stats, bytes))
        } else {
            run_compiled(cw, &cfg).map(|out| (out.stats, 0))
        }
    }

    /// The same cell rebuilt from the public pieces
    /// `run_compiled_observed` itself calls, a span around each.
    fn traced_cell(&mut self, cell: Cell, id: u32) -> Result<(RunStats, usize), RunFailure> {
        let observed = self.workload == Workload::Analysis;
        let cw = &self.kernels[cell.kernel];
        let cfg = ProcessorConfig::tflex(cell.cores);
        let log = &mut self.log;
        let whole = log.open("core.cell", id);
        let mut m = log.time("sim.new", id, || {
            let mut m = Machine::new(cfg.sim);
            if observed {
                m.enable_profiling();
                m.enable_trend(TrendOptions::default());
            }
            m
        });
        log.time("mem.image_load", id, || {
            for (addr, words) in &cw.workload.init_mem {
                m.memory_mut().image.load_words(*addr, words);
            }
        });
        let composed = log.time("sim.compose", id, || {
            m.compose(cfg.cores(), 0, cw.edge.clone(), &cw.workload.args)
        });
        let out = composed.map_err(RunFailure::Compose).and_then(|pid| {
            let stats = log
                .time("sim.run", id, || m.run())
                .map_err(RunFailure::Run)?;
            let (trend, snapshot, profile) = log.time("sim.snapshot", id, || {
                (m.take_trend_report(), m.snapshot(), m.profile_report())
            });
            let ret = m.register(pid, Reg::new(1));
            log.time("workloads.verify", id, || {
                cw.workload
                    .verify_against(&cw.golden, ret, &m.memory().image)
            })
            .map_err(RunFailure::Verify)?;
            log.time("power.model", id, || {
                let area = AreaModel::at_130nm();
                let power =
                    EnergyModel::at_130nm().power(&stats, &PowerConfig::tflex(cell.cores), &area);
                black_box((power, area.tflex_mm2(cell.cores)));
            });
            let bytes = if observed {
                log.time("obs.emit", id, || {
                    emit_reports(&snapshot, profile.as_ref(), trend.as_ref())
                })
            } else {
                0
            };
            Ok((stats, bytes))
        });
        log.close(whole);
        out
    }

    /// Books the fastest total and self time of every span recorded
    /// since index `from`; returns the duration of the first (the root).
    fn book_spans(&mut self, from: usize, key: Key) -> u64 {
        let spans = self.log.since(from);
        for (s, self_ns) in spans.iter().zip(self_times(spans, from)) {
            self.book.record_span(s.name, key, s.duration_ns(), self_ns);
        }
        spans[0].duration_ns()
    }

    fn check_cell(&mut self, cell: Cell, stats: &RunStats, bytes: usize) -> Result<(), String> {
        self.pin("cycles", cell.key(), stats.cycles)?;
        self.pin("emit bytes", cell.key(), bytes as u64)
    }

    fn cell(&mut self, index: usize) -> Result<u64, String> {
        let cell = self.cells[index];
        let key = cell.key();
        let watch = self.calib.start();
        let plain = self.plain_cell(cell);
        let plain_ns = self.book_unit("cell.plain", key, watch);
        if let Ok((stats, bytes)) = &plain {
            self.check_cell(cell, stats, *bytes)?;
        }
        let (result, elapsed) = if self.traced {
            let from = self.log.len();
            let traced = self.traced_cell(cell, index as u32);
            if traced.is_err() != plain.is_err() {
                return Err(format!(
                    "{}: traced and untraced runs disagree",
                    self.label(key)
                ));
            }
            (traced, self.book_spans(from, key))
        } else {
            (plain, plain_ns)
        };
        let Some((stats, bytes)) = self.attempt(key, result) else {
            return Ok(elapsed);
        };
        // Pinned to the same slots as the untraced run above: traced and
        // untraced runs of a cell must simulate the same.
        self.check_cell(cell, &stats, bytes)?;
        self.pass_counts.add_run(&stats);
        self.pass_counts.emit_bytes += bytes as u64;
        if self.traced && is_probe(cell.kernel) {
            self.variants(cell)?;
        }
        Ok(elapsed)
    }

    /// The probe cell again under the reference stepper and each
    /// observer; cycles must not move.
    fn variants(&mut self, cell: Cell) -> Result<(), String> {
        let key = cell.key();
        let cfg = ProcessorConfig::tflex(cell.cores);
        // The sweeps' plain cell already is the observers-off run.
        let skip = usize::from(self.workload != Workload::Analysis);
        for (name, set) in &VARIANTS[skip..] {
            let mut obs = ObsOptions::default();
            set(&mut obs);
            let t = Instant::now();
            let out = run_compiled_observed(&self.kernels[cell.kernel], &cfg, &obs);
            let elapsed = ns(t.elapsed());
            let out = out.map_err(|e| format!("{} {name}: {e}", self.label(key)))?;
            self.book.record(name, key, elapsed);
            self.pin("cycles", key, out.stats.cycles)?;
        }
        Ok(())
    }

    // ---- analysis front end -------------------------------------------

    fn front(&mut self, kernel: usize) -> Result<u64, String> {
        let key = Key::kernel(kernel);
        let id = (self.cells.len() + kernel) as u32;
        let w = &self.kernels[kernel].workload;
        let watch = self.calib.start();
        let plain = front_stages(w, &mut Stages::untraced());
        let plain_ns = self.book_unit("front.plain", key, watch);
        let w = &self.kernels[kernel].workload;
        let (result, elapsed) = if self.traced {
            let from = self.log.len();
            let traced = front_stages(w, &mut Stages::traced(&mut self.log, id));
            if traced.is_err() != plain.is_err() {
                return Err(format!(
                    "{}: traced and untraced fronts disagree",
                    self.label(key)
                ));
            }
            (traced, self.book_spans(from, key))
        } else {
            (plain, plain_ns)
        };
        let Some((signature, bytes)) = self.attempt(key, result) else {
            return Ok(elapsed);
        };
        self.pin("front signature", key, signature)?;
        self.pin("lint bytes", key, bytes as u64)?;
        self.pass_counts.emit_bytes += bytes as u64;
        Ok(elapsed)
    }

    /// The kernel on the conventional out-of-order baseline; returns
    /// its cycles.
    fn ooo(&self, kernel: usize) -> Result<u64, String> {
        let cw = &self.kernels[kernel];
        let w = &cw.workload;
        let out = clp_baseline::run_baseline(
            &w.program,
            &w.args,
            &w.init_mem,
            &clp_baseline::BaselineConfig::core2(),
        );
        if w.check.check_ret && out.ret != cw.golden.ret {
            return Err(format!(
                "{} on the OoO baseline returned {:?}",
                w.name, out.ret
            ));
        }
        Ok(out.cycles)
    }

    // ---- serve_batch ---------------------------------------------------

    fn serve_pass(&mut self, stream: usize) -> Result<u64, String> {
        let key = self.stream_key(stream);
        let watch = self.calib.start();
        let plain = serve_once(stream, &mut Stages::untraced());
        let plain_ns = self.book_unit("serve.pass", key, watch);
        self.check_report(key, &plain.report)?;
        let (out, elapsed) = if self.traced {
            let from = self.log.len();
            let traced = serve_once(stream, &mut Stages::traced(&mut self.log, stream as u32));
            self.check_report(key, &traced.report)?;
            (traced, self.book_spans(from, key))
        } else {
            (plain, plain_ns)
        };
        let jobs = out.result.records.len() as u64;
        self.attempted += jobs;
        self.failed += jobs - out.result.totals.completed;
        self.pass_counts.cycles += completed_cycles(&out.result);
        self.serve_first.entry(stream).or_insert(out);
        Ok(elapsed)
    }

    /// Every run's report must equal the stream's first, byte for byte.
    fn check_report(&mut self, key: Key, report: &str) -> Result<(), String> {
        self.pin("report bytes", key, hash_of(&report))
    }

    /// The same run with the clp-scope recorder on; totals must agree.
    fn serve_scoped(&mut self, stream: usize) -> Result<(), String> {
        let t = Instant::now();
        let schedule = arrivals::generate(&serve_arrivals(stream));
        let (result, scope) =
            service::serve_scoped(schedule, &serve_config(), Some(&ScopeOptions::default()));
        black_box(scope);
        self.book
            .record("serve.scoped", self.stream_key(stream), ns(t.elapsed()));
        match self.serve_first.get(&stream) {
            Some(first) if first.result.totals != result.totals => Err(format!(
                "stream {stream}: serve_scoped and serve disagree on the totals"
            )),
            _ => Ok(()),
        }
    }

    /// Every completed job of the stream re-run serially at its granted
    /// size: what the run costs without scheduler, retries and hand-off.
    fn serve_direct(&mut self, stream: usize) -> Result<(), String> {
        let Some(first) = self.serve_first.get(&stream) else {
            return Ok(());
        };
        let mut total = Duration::ZERO;
        for r in &first.result.records {
            let JobOutcome::Completed { cycles } = r.outcome else {
                continue;
            };
            let cw = self
                .kernels
                .iter()
                .find(|cw| cw.workload.name == r.workload)
                .ok_or_else(|| format!("job {} names unknown kernel {}", r.id, r.workload))?;
            let t = Instant::now();
            let out = run_compiled(cw, &ProcessorConfig::tflex(r.cores_granted));
            total += t.elapsed();
            let out = out.map_err(|e| format!("direct run of job {}: {e}", r.id))?;
            if out.stats.cycles != cycles {
                return Err(format!(
                    "stream {stream} job {} took {cycles} cycles in the service, {} run directly",
                    r.id, out.stats.cycles
                ));
            }
        }
        self.book
            .record("serve.direct_run", self.stream_key(stream), ns(total));
        Ok(())
    }

    // ---- results -------------------------------------------------------

    /// What a pass costs at reference host speed: the sum of its units'
    /// lower-quartile normalised CPU times, in reference nanoseconds.
    fn pass_ref_ns(&self) -> f64 {
        let b = &self.book;
        b.typical_ref_ns("cell.plain")
            + b.typical_ref_ns("front.plain")
            + b.typical_ref_ns("serve.pass")
    }

    /// What a pass costs on the wall clock, untraced and traced: the
    /// sums of its units' fastest times.
    fn pass_costs(&self) -> (u64, u64) {
        let b = &self.book;
        (
            b.total_ns("cell.plain") + b.total_ns("front.plain") + b.total_ns("serve.pass"),
            b.total_ns("core.cell") + b.total_ns("bench.front") + b.total_ns("bench.serve_pass"),
        )
    }

    /// Derives every metric of the run's mode from the book.
    pub fn finish(self, peak_rss_mb: f64) -> Outcome {
        let (plain_ns, traced_ns) = self.pass_costs();
        let main_ns = if self.traced { traced_ns } else { plain_ns };
        let passes: Vec<f64> = self.pass_ns.iter().map(|&n| n as f64).collect();
        let pass_spread_pct = (ratio(crate::book::median(&passes), main_ns as f64) - 1.0) * 100.0;
        let values = if self.traced {
            self.per_layer(pass_spread_pct)
        } else {
            self.end_to_end(peak_rss_mb)
        };
        let trace_json = self.traced.then(|| {
            let mut labels: Vec<String> = self.cells.iter().map(|c| self.label(c.key())).collect();
            if self.workload == Workload::Analysis {
                labels.extend(self.kernels.iter().map(|cw| cw.workload.name.to_string()));
            }
            if self.workload == Workload::ServeBatch {
                labels.extend((0..SERVE_STREAMS).map(|k| self.label(self.stream_key(k))));
            }
            self.log.to_json(self.workload.name(), &labels)
        });
        Outcome {
            values,
            attempted: self.attempted,
            failed: self.failed,
            passes: self.pass_ns.len(),
            pass_spread_pct,
            wall_fastest_s: secs(plain_ns),
            host_speed_x: self.calib.median_speed(),
            host_speed_spread_pct: self.calib.speed_spread_pct(),
            pass_log: self
                .pass_ns
                .iter()
                .map(|&n| secs(n))
                .zip(self.pass_speed.iter().copied())
                .collect(),
            trace_json,
        }
    }

    /// A service counter summed over the streams' first runs.
    fn serve_total(&self, pick: fn(&ServiceTotals) -> u64) -> u64 {
        self.serve_first
            .values()
            .map(|s| pick(&s.result.totals))
            .sum()
    }

    fn first_counts(&self) -> Counts {
        self.first_counts.clone().unwrap_or_default()
    }

    /// The `--trace 0` metrics.
    fn end_to_end(&self, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
        let b = &self.book;
        let cycles = self.first_counts().cycles as f64;
        let jobs = match self.workload {
            Workload::ServeBatch => self.serve_total(|t| t.completed),
            _ => self.cells.len() as u64,
        };
        let pass_s = self.pass_ref_ns() / 1e9;
        let setup_ns = b.typical_ref_ns("workloads.suite_build")
            + b.typical_ref_ns("setup.kernel")
            + b.typical_ref_ns("setup.arrivals");
        BTreeMap::from([
            ("setup_s", setup_ns / 1e9),
            ("pass_s", pass_s),
            ("sim_mcycles_per_s", ratio(cycles, pass_s) / 1e6),
            ("jobs_per_s", ratio(jobs as f64, pass_s)),
            ("sim_cycles", cycles),
            ("peak_rss_mb", peak_rss_mb),
        ])
    }

    /// The `--trace 1` metrics.
    fn per_layer(&self, pass_spread_pct: f64) -> BTreeMap<&'static str, f64> {
        let b = &self.book;
        let counts = self.first_counts();
        let (plain_ns, traced_ns) = self.pass_costs();
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        let run_ns = b.total_ns("sim.run");
        v.insert("sim.run_s", secs(run_ns));
        v.insert(
            "sim.run_ns_per_cycle",
            ratio(run_ns as f64, counts.cycles as f64),
        );
        v.insert(
            "sim.run_ns_per_inst",
            ratio(run_ns as f64, counts.insts_committed as f64),
        );
        for (name, cores) in [
            ("sim.run_ns_per_cycle.c1", 1),
            ("sim.run_ns_per_cycle.c2", 2),
            ("sim.run_ns_per_cycle.c4", 4),
            ("sim.run_ns_per_cycle.c16", 16),
            ("sim.run_ns_per_cycle.c32", 32),
        ] {
            let run = b.total_ns_where("sim.run", |k| k.cores == cores);
            let cycles: u64 = self
                .pins
                .iter()
                .filter(|((what, k), _)| *what == "cycles" && k.cores == cores)
                .map(|(_, &c)| c)
                .sum();
            v.insert(name, ratio(run as f64, cycles as f64));
        }
        v.insert("sim.new_s", secs(b.total_ns("sim.new")));
        v.insert("sim.compose_s", secs(b.total_ns("sim.compose")));
        v.insert("sim.snapshot_s", secs(b.total_ns("sim.snapshot")));
        // The ratios' base: the observers-off event-engine run of
        // the probe cells.
        let off_name = if self.workload == Workload::Analysis {
            "cell.off"
        } else {
            "cell.plain"
        };
        let probe = |k: Key| is_probe(k.kernel as usize);
        let off = b.total_ns_where(off_name, probe) as f64;
        let over_off = |name: &str| ratio(b.total_ns(name) as f64, off);
        v.insert("sim.stepped_ratio_x", over_off("cell.stepped"));
        v.insert("obs.profile_overhead_x", over_off("cell.profile"));
        v.insert("obs.trend_overhead_x", over_off("cell.trend"));
        v.insert("obs.trace_overhead_x", over_off("cell.tracer"));
        v.insert("sim.cycles", counts.cycles as f64);
        v.insert("sim.insts_committed", counts.insts_committed as f64);
        v.insert("sim.blocks_committed", counts.blocks_committed as f64);
        v.insert("sim.blocks_flushed", counts.blocks_flushed as f64);
        let per_kcycle = |n: u64| (n * 1000).checked_div(counts.cycles).unwrap_or(0) as f64;
        v.insert("sim.ipc_milli", per_kcycle(counts.insts_committed));
        v.insert(
            "noc.mesh_ns_per_msg",
            b.total_ns("noc.probe") as f64 / probes::NOC_MESSAGES as f64,
        );
        v.insert("noc.link_traversals", counts.link_traversals as f64);
        v.insert("noc.hops_per_kcycle", per_kcycle(counts.link_traversals));
        v.insert(
            "mem.lsq_ns_per_op",
            b.total_ns("mem.lsq_probe") as f64 / probes::LSQ_OPS as f64,
        );
        v.insert("mem.image_load_s", secs(b.total_ns("mem.image_load")));
        v.insert("mem.l1d_misses", counts.l1d_misses as f64);
        v.insert("mem.l2_misses", counts.l2_misses as f64);
        v.insert("mem.dram_accesses", counts.dram_accesses as f64);
        v.insert("mem.lsq_nacks", counts.lsq_nacks as f64);
        v.insert(
            "predictor.ns_per_block",
            ratio(
                b.total_ns("predictor.probe") as f64,
                probes::predictor_blocks(&self.kernels) as f64,
            ),
        );
        v.insert("predictor.predictions", counts.predictions as f64);
        v.insert("predictor.mispredictions", counts.mispredictions as f64);
        let interp_s = secs(b.total_ns("compiler.interp"));
        v.insert("compiler.compile_s", secs(b.total_ns("compiler.compile")));
        v.insert("compiler.interp_s", interp_s);
        v.insert(
            "compiler.interp_mops_per_s",
            ratio(self.interp_ops as f64, interp_s) / 1e6,
        );
        v.insert("isa.asm_roundtrip_s", secs(b.total_ns("isa.asm_roundtrip")));
        v.insert(
            "workloads.suite_build_s",
            secs(b.total_ns("workloads.suite_build")),
        );
        v.insert("workloads.verify_s", secs(b.total_ns("workloads.verify")));
        v.insert("lint.lint_s", secs(b.total_ns("lint.lint")));
        v.insert("lint.bound_s", secs(b.total_ns("lint.bound")));
        v.insert("lint.diagnostics", self.lint_diagnostics as f64);
        v.insert("power.model_s", secs(b.total_ns("power.model")));
        v.insert(
            "baseline.trips_run_s",
            secs(b.total_ns("baseline.trips_run")),
        );
        v.insert("baseline.ooo_run_s", secs(b.total_ns("baseline.ooo_run")));
        v.insert("core.cell_s", secs(b.total_ns("core.cell")));
        v.insert(
            "core.cell_self_share",
            ratio(
                b.self_ns("core.cell") as f64,
                b.total_ns("core.cell") as f64,
            ),
        );
        v.insert("obs.emit_s", secs(b.total_ns("obs.emit")));
        v.insert("obs.emit_bytes", counts.emit_bytes as f64);
        let serve_ns = b.total_ns("serve.serve") as f64;
        // Both sides are generate + serve; the scoped side records.
        let unscoped = b.total_ns("serve.generate") as f64 + serve_ns;
        v.insert(
            "obs.scope_overhead_x",
            ratio(b.total_ns("serve.scoped") as f64, unscoped),
        );
        v.insert("serve.generate_s", secs(b.total_ns("serve.generate")));
        v.insert("serve.serve_s", serve_ns / 1e9);
        v.insert("serve.report_s", secs(b.total_ns("serve.report")));
        v.insert("serve.direct_run_s", secs(b.total_ns("serve.direct_run")));
        v.insert(
            "serve.overhead_x",
            ratio(serve_ns, b.total_ns("serve.direct_run") as f64),
        );
        let total = |pick: fn(&ServiceTotals) -> u64| self.serve_total(pick) as f64;
        v.insert("serve.completed", total(|t| t.completed));
        v.insert("serve.retries", total(|t| t.retries));
        v.insert("serve.deadline_kills", total(|t| t.deadline_kills));
        v.insert("serve.panics", total(|t| t.panics));
        v.insert("serve.shed", total(|t| t.rejected_overloaded));
        v.insert("serve.cache_hits", total(|t| t.cache_hits));
        v.insert("serve.cache_misses", total(|t| t.cache_misses));
        v.insert("serve.virtual_ticks", total(|t| t.drained_at));
        let mut latencies: Vec<u64> = self
            .serve_first
            .values()
            .flat_map(|s| s.result.latencies.iter().copied())
            .collect();
        let latency = LatencySummary::from_samples(&mut latencies);
        v.insert("serve.latency_p50_ticks", latency.p50.unwrap_or(0) as f64);
        v.insert("serve.latency_p99_ticks", latency.p99.unwrap_or(0) as f64);
        v.insert(
            "failed_share",
            ratio(self.failed as f64, self.attempted as f64),
        );
        v.insert("bench.pass_spread_pct", pass_spread_pct);
        v.insert("bench.setup_cold_s", secs(self.setup_cold_ns));
        v.insert(
            "bench.trace_overhead_pct",
            (ratio(traced_ns as f64, plain_ns as f64) - 1.0) * 100.0,
        );
        v.insert("bench.passes", self.pass_ns.len() as f64);
        v.insert("bench.wall_s", secs(plain_ns));
        v.insert("bench.pass_s", self.pass_ref_ns() / 1e9);
        v.insert("bench.host_speed_x", self.calib.median_speed());
        v
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `num / den`, or 0 when the denominator was not measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Spans around stages when tracing, plain calls otherwise, so that
/// the traced and untraced runs of a stage list share one body.
struct Stages<'a> {
    log: Option<&'a mut SpanLog>,
    cell: u32,
}

impl<'a> Stages<'a> {
    fn untraced() -> Self {
        Stages { log: None, cell: 0 }
    }

    fn traced(log: &'a mut SpanLog, cell: u32) -> Self {
        Stages {
            log: Some(log),
            cell,
        }
    }

    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.log {
            Some(log) => log.time(name, self.cell, f),
            None => f(),
        }
    }

    /// Runs `f`, whose stages become children of a span `name`.
    fn under<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let root = self.log.as_mut().map(|log| log.open(name, self.cell));
        let out = f(self);
        if let (Some(log), Some(root)) = (&mut self.log, root) {
            log.close(root);
        }
        out
    }
}

/// The `analysis` front end of one kernel: compile → golden → lint →
/// bound at 1/4/16 → lint report. Returns a signature of the outputs
/// (they must repeat) and the bytes the lint report emitted.
fn front_stages(
    w: &clp_workloads::Workload,
    stages: &mut Stages,
) -> Result<(u64, usize), RunFailure> {
    let lint_cfg = LintConfig::default();
    stages.under("bench.front", |st| {
        let edge = st
            .run("compiler.compile", || {
                compile(&w.program, &CompileOptions::default())
            })
            .map_err(RunFailure::Compile)?;
        let golden = st
            .run("compiler.interp", || w.try_golden())
            .map_err(RunFailure::Golden)?;
        let report = st.run("lint.lint", || lint_program(&edge, &lint_cfg));
        let bounds = st.run("lint.bound", || {
            ANALYSIS_SIZES.map(|n| bound_program(&edge, &lint_cfg, n).cycles)
        });
        let bytes = st.run("obs.emit", || black_box(report.to_json()).len());
        let outputs = (
            edge.instruction_count(),
            golden.ret,
            golden.stats.ops,
            report.diagnostics.len(),
            bounds,
        );
        Ok((hash_of(&outputs), bytes))
    })
}

/// One service run of `serve_batch`: generate → serve → report.
fn serve_once(stream: usize, stages: &mut Stages) -> ServeOut {
    let (acfg, scfg) = (serve_arrivals(stream), serve_config());
    stages.under("bench.serve_pass", |st| {
        let schedule = st.run("serve.generate", || arrivals::generate(&acfg));
        let result = st.run("serve.serve", || service::serve(schedule, &scfg));
        let report = st.run("serve.report", || {
            ServiceReport::new(&acfg, &scfg, &result).to_json()
        });
        ServeOut { result, report }
    })
}

fn completed_cycles(result: &service::ServiceResult) -> u64 {
    result
        .records
        .iter()
        .map(|r| match r.outcome {
            JobOutcome::Completed { cycles } => cycles,
            _ => 0,
        })
        .sum()
}

/// Replays the spec `clp-serve --bench` pins and byte-compares its
/// report with the committed `BENCH_serve.json`.
fn replay_pinned_bench(root: &Path) -> Result<(), String> {
    let path = root.join("BENCH_serve.json");
    let committed =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (acfg, scfg) = pinned_bench_spec();
    let result = service::serve(arrivals::generate(&acfg), &scfg);
    if ServiceReport::new(&acfg, &scfg, &result).to_json() == committed {
        Ok(())
    } else {
        Err("the pinned --bench spec no longer reproduces BENCH_serve.json".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_gives_a_deterministic_permutation() {
        for n in [0, 1, 2, 52, 104] {
            for (seed, pass) in [(0, 0), (1, 0), (1, 7), (u64::MAX, 3)] {
                let order = permutation(seed, pass, n);
                assert_eq!(order, permutation(seed, pass, n), "same seed, same order");
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..n).collect::<Vec<_>>(),
                    "a permutation of 0..{n}"
                );
            }
        }
        assert_ne!(permutation(1, 0, 52), permutation(2, 0, 52));
        assert_ne!(permutation(1, 0, 52), permutation(1, 1, 52));
    }

    #[test]
    fn workload_names_round_trip_and_match_the_manifest() {
        for name in crate::manifest::WORKLOADS {
            assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
        }
        assert_eq!(Workload::parse("sweep"), None);
    }
}
