//! Single-workload runs and composition sweeps.

use clp_alloc::{SpeedupCurve, SIZES};
use clp_compiler::{compile, CompileError, CompileOptions};
use clp_isa::{EdgeProgram, Reg};
use clp_obs::{ProfileReport, StatsSnapshot, Tracer, TrendOptions, TrendReport};
use clp_power::{AreaModel, EnergyModel, PowerBreakdown, PowerConfig};
use clp_sim::{Machine, ProcId, RunError, RunStats, SimConfig};
use clp_workloads::{Golden, VerifyError, Workload};
use std::fmt;

/// The processor organization to run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessorKind {
    /// A TFlex composition of N cores (N a power of two, 1..=32).
    TFlex {
        /// Participating cores.
        cores: usize,
    },
    /// The TRIPS prototype baseline (16 tiles, centralized control).
    Trips,
}

/// A processor configuration (organization + simulator knobs).
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessorConfig {
    /// The organization.
    pub kind: ProcessorKind,
    /// Simulator configuration (derived from `kind` by the constructors;
    /// override fields for ablations).
    pub sim: SimConfig,
}

impl ProcessorConfig {
    /// A TFlex composition of `cores` cores.
    #[must_use]
    pub fn tflex(cores: usize) -> Self {
        ProcessorConfig {
            kind: ProcessorKind::TFlex { cores },
            sim: SimConfig::tflex(),
        }
    }

    /// The TRIPS baseline.
    #[must_use]
    pub fn trips() -> Self {
        ProcessorConfig {
            kind: ProcessorKind::Trips,
            sim: SimConfig::trips(),
        }
    }

    /// The same configuration with a fault-injection plan attached
    /// (builder style). `FaultPlan::none()` is the default and leaves
    /// cycle counts bit-identical.
    #[must_use]
    pub fn with_faults(mut self, faults: clp_sim::FaultPlan) -> Self {
        self.sim.faults = faults;
        self
    }

    /// The same configuration with a per-run cycle deadline (builder
    /// style): the run aborts with a typed deadline kill
    /// ([`RunError::DeadlineExceeded`]) once `budget` cycles have
    /// elapsed. clp-serve attaches one to every job so a runaway
    /// simulation is reaped and reported instead of occupying a worker
    /// until the 200M-cycle safety net.
    #[must_use]
    pub fn with_deadline(mut self, budget: u64) -> Self {
        self.sim.deadline = Some(budget);
        self
    }

    /// Cores the organization occupies.
    #[must_use]
    pub fn cores(&self) -> usize {
        match self.kind {
            ProcessorKind::TFlex { cores } => cores,
            ProcessorKind::Trips => 16,
        }
    }
}

impl ProcessorKind {
    fn power_config(self) -> PowerConfig {
        match self {
            ProcessorKind::TFlex { cores } => PowerConfig::tflex(cores),
            ProcessorKind::Trips => PowerConfig::trips(),
        }
    }
}

/// Why a run failed.
#[derive(Debug)]
pub enum RunFailure {
    /// The workload failed to compile to EDGE code.
    Compile(CompileError),
    /// The reference interpreter could not produce a golden result (the
    /// program never terminates or blows the call stack) — a malformed
    /// job, rejected before any machine is composed.
    Golden(clp_compiler::InterpError),
    /// The machine could not be composed.
    Compose(clp_sim::ComposeError),
    /// No chip region could be found for a program of a multiprogrammed
    /// mix (region exhaustion is a schedulable condition, not a crash).
    Placement(crate::multiprogram::PlacementError),
    /// The simulation did not complete.
    Run(RunError),
    /// Outputs differ from the reference interpreter.
    Verify(VerifyError),
}

/// How a [`RunFailure`] should be treated by a scheduler: the typed
/// taxonomy clp-serve uses to decide between rejecting a job outright,
/// retrying it with backoff, and retrying it with a larger budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// The job itself is bad (malformed program, wrong outputs): no
    /// retry can ever succeed.
    Permanent,
    /// The *environment* failed (injected faults, recovery failure,
    /// region exhaustion, busy cores): the same job can be retried.
    Transient,
    /// The job outlived its cycle budget: retryable, but only with an
    /// escalated deadline.
    DeadlineKill,
}

impl RunFailure {
    /// Classifies this failure for retry policy. See [`FailureClass`].
    #[must_use]
    pub fn class(&self) -> FailureClass {
        match self {
            RunFailure::Compile(_) | RunFailure::Golden(_) | RunFailure::Verify(_) => {
                FailureClass::Permanent
            }
            // Argument overflow is a property of the job; busy cores and
            // unsatisfiable regions are properties of the moment.
            RunFailure::Compose(clp_sim::ComposeError::TooManyArgs(_)) => FailureClass::Permanent,
            RunFailure::Compose(_) | RunFailure::Placement(_) => FailureClass::Transient,
            RunFailure::Run(RunError::DeadlineExceeded { .. })
            | RunFailure::Run(RunError::CycleLimit(_)) => FailureClass::DeadlineKill,
            // Deadlock, invalid kills, and no-survivor schedules are
            // recovery failures: the next attempt runs on fresh hardware.
            RunFailure::Run(_) => FailureClass::Transient,
        }
    }
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunFailure::Compile(e) => write!(f, "compile: {e}"),
            RunFailure::Golden(e) => write!(f, "golden: {e}"),
            RunFailure::Compose(e) => write!(f, "compose: {e}"),
            RunFailure::Placement(e) => write!(f, "placement: {e}"),
            RunFailure::Run(e) => write!(f, "run: {e}"),
            RunFailure::Verify(e) => write!(f, "verify: {e}"),
        }
    }
}

impl std::error::Error for RunFailure {}

/// A workload compiled to EDGE code, with its golden reference
/// (compile/interpret once, run many).
#[derive(Clone, Debug)]
pub struct CompiledWorkload {
    /// The source workload.
    pub workload: Workload,
    /// The compiled EDGE program.
    pub edge: EdgeProgram,
    /// The interpreter's golden result.
    pub golden: Golden,
}

/// Compiles a workload and computes its golden reference.
///
/// # Errors
///
/// Returns [`RunFailure::Compile`] if lowering fails, or
/// [`RunFailure::Golden`] if the reference interpreter cannot produce a
/// golden result (non-terminating or stack-blowing program) — both are
/// typed rejections of a malformed job, never panics.
pub fn compile_workload(w: &Workload) -> Result<CompiledWorkload, RunFailure> {
    let edge = compile(&w.program, &CompileOptions::default()).map_err(RunFailure::Compile)?;
    Ok(CompiledWorkload {
        golden: w.try_golden().map_err(RunFailure::Golden)?,
        workload: w.clone(),
        edge,
    })
}

/// Outcome of a verified run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Chip-level statistics.
    pub stats: RunStats,
    /// The unified stats registry for the run (tree of every subsystem's
    /// counters).
    pub snapshot: StatsSnapshot,
    /// The entry function's return value (`r1`).
    pub ret: u64,
    /// Whether outputs matched the golden reference.
    pub correct: bool,
    /// Power breakdown for the run.
    pub power: PowerBreakdown,
    /// Area of the organization in mm².
    pub area_mm2: f64,
    /// Cycle-accounting profile (present when [`ObsOptions::profile`]
    /// was set).
    pub profile: Option<ProfileReport>,
    /// Columnar time series + phase table (present when
    /// [`ObsOptions::trend`] was set).
    pub trend: Option<TrendReport>,
}

impl RunOutcome {
    /// Total machine cycles, read through the stats registry — the
    /// figure binaries take their inputs from the snapshot rather than
    /// plucking raw stats fields.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.snapshot.expect("cycles") as u64
    }
}

/// Observability options for a run.
#[derive(Clone, Debug, Default)]
pub struct ObsOptions {
    /// Tracer to attach to the machine (default: off). The caller keeps
    /// ownership of the sink and is responsible for
    /// [`Tracer::finish`]-ing it after the run.
    pub tracer: Tracer,
    /// Enable the clp-prof cycle-accounting layer (default: off). When
    /// off, the run is bit-identical to an unprofiled run.
    pub profile: bool,
    /// Record a clp-trend columnar time series (default: off). Turns
    /// profiling on too: the series carries the profiler's bucket and
    /// heat columns, read but never fed back into timing, so cycles stay
    /// bit-identical either way.
    pub trend: Option<TrendOptions>,
    /// Ignored: there is one driver ([`Machine::run`]). The field only
    /// keeps `benchmark/` compiling and is removed with its
    /// `cell.stepped` / `sim.stepped_ratio_x` by the benchmark PR of
    /// ROADMAP 1(a).
    pub stepped: bool,
}

impl ObsOptions {
    /// Builds the machine for `cfg` with these observers attached, in
    /// the one order: tracer, clp-prof, clp-trend.
    #[must_use]
    pub fn machine(&self, cfg: SimConfig) -> Machine {
        let mut m = Machine::new(cfg);
        if self.tracer.enabled() {
            m.set_tracer(self.tracer.clone());
        }
        if self.profile {
            m.enable_profiling();
        }
        if let Some(t) = &self.trend {
            m.enable_trend(t.clone());
        }
        m
    }
}

/// Runs a pre-compiled workload on `cfg`, verifying outputs.
///
/// # Errors
///
/// Returns a [`RunFailure`] on composition errors, simulation failures,
/// or output mismatches.
pub fn run_compiled(
    cw: &CompiledWorkload,
    cfg: &ProcessorConfig,
) -> Result<RunOutcome, RunFailure> {
    run_compiled_observed(cw, cfg, &ObsOptions::default())
}

/// Like [`run_compiled`], with `obs`'s tracer, profiler and trend
/// recorder attached.
///
/// # Errors
///
/// Returns a [`RunFailure`] on composition errors, simulation failures,
/// or output mismatches.
pub fn run_compiled_observed(
    cw: &CompiledWorkload,
    cfg: &ProcessorConfig,
    obs: &ObsOptions,
) -> Result<RunOutcome, RunFailure> {
    Run::start(cw, cfg, obs)?
        .finish(cw)
        .map_err(|stopped| stopped.failure)
}

/// One workload composed on one machine: a run that can be put down at
/// its deadline and picked up again.
///
/// [`Run::start`] builds the machine (observers, memory image, compose)
/// and [`Run::finish`] runs it to the halt and does everything after
/// (reports, verification against the golden, power, area);
/// [`run_compiled_observed`] is the two back to back. The one thing a
/// `Run` adds is what happens at a deadline kill: `finish` hands the
/// run back inside [`Stopped`] instead of dropping it, and after
/// [`Run::set_deadline`] a second `finish` continues from the cycle the
/// first stopped at and returns exactly what a from-zero run under the
/// final deadline returns (`tests/resume.rs`). It is `Send`, so
/// clp-serve parks it with the job and any worker may pick it up.
pub struct Run {
    /// Boxed: the handle travels through channels and `Result`s.
    m: Box<Machine>,
    pid: ProcId,
    kind: ProcessorKind,
}

/// Why [`Run::finish`] returned no outcome.
pub struct Stopped {
    /// The failure, as [`run_compiled_observed`] reports it.
    pub failure: RunFailure,
    /// The cycle the machine had reached.
    pub cycle: u64,
    /// The run itself, when the failure was a deadline kill
    /// ([`RunError::DeadlineExceeded`]): the only stop that leaves a
    /// machine worth continuing. Every other failure drops it.
    pub run: Option<Run>,
}

impl Run {
    /// Builds the machine for `cfg` with `obs` attached, loads the
    /// workload's memory image and composes its processor: cycle 0.
    ///
    /// # Errors
    ///
    /// Returns [`RunFailure::Compose`] if the composition is refused.
    pub fn start(
        cw: &CompiledWorkload,
        cfg: &ProcessorConfig,
        obs: &ObsOptions,
    ) -> Result<Run, RunFailure> {
        let mut m = Box::new(obs.machine(cfg.sim));
        for (addr, words) in &cw.workload.init_mem {
            m.memory_mut().image.load_words(*addr, words);
        }
        let pid = m
            .compose(cfg.cores(), 0, cw.edge.clone(), &cw.workload.args)
            .map_err(RunFailure::Compose)?;
        Ok(Run {
            m,
            pid,
            kind: cfg.kind,
        })
    }

    /// The cycle the machine has reached.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.m.cycle()
    }

    /// Moves the deadline to `budget` cycles from cycle 0 (what
    /// [`ProcessorConfig::with_deadline`] set at the start).
    pub fn set_deadline(&mut self, budget: u64) {
        self.m.set_deadline(Some(budget));
    }

    /// Runs to the halt, then takes the reports, verifies the outputs
    /// against `cw`'s golden (`cw` must be the workload the run was
    /// started with) and prices power and area.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] on a simulation failure or an output
    /// mismatch; a deadline kill carries the run back in it.
    pub fn finish(mut self, cw: &CompiledWorkload) -> Result<RunOutcome, Stopped> {
        let ran = self.m.run();
        let cycle = self.m.cycle();
        let stopped = |failure, run| Stopped {
            failure,
            cycle,
            run,
        };
        let stats = match ran {
            Ok(stats) => stats,
            Err(e) => {
                let keep = matches!(e, RunError::DeadlineExceeded { .. });
                return Err(stopped(RunFailure::Run(e), keep.then_some(self)));
            }
        };
        let trend = self.m.take_trend_report();
        let m = &self.m;
        let snapshot = m.snapshot();
        let profile = m.profile_report();
        let ret = m.register(self.pid, Reg::new(1));
        cw.workload
            .verify_against(&cw.golden, ret, &m.memory().image)
            .map_err(|e| stopped(RunFailure::Verify(e), None))?;
        let area = AreaModel::at_130nm();
        let energy = EnergyModel::at_130nm();
        let pc = self.kind.power_config();
        let power = energy.power(&stats, &pc, &area);
        let area_mm2 = match self.kind {
            ProcessorKind::TFlex { cores } => area.tflex_mm2(cores),
            ProcessorKind::Trips => area.trips_mm2(),
        };
        Ok(RunOutcome {
            stats,
            snapshot,
            ret,
            correct: true,
            power,
            area_mm2,
            profile,
            trend,
        })
    }
}

/// Compiles and runs a workload on `cfg` (convenience wrapper).
///
/// # Errors
///
/// See [`run_compiled`].
pub fn run_workload(w: &Workload, cfg: &ProcessorConfig) -> Result<RunOutcome, RunFailure> {
    let cw = compile_workload(w)?;
    run_compiled(&cw, cfg)
}

/// Runs a workload at every requested TFlex composition size.
///
/// # Errors
///
/// Propagates the first failure.
pub fn sweep(w: &Workload, sizes: &[usize]) -> Result<Vec<(usize, RunOutcome)>, RunFailure> {
    let cw = compile_workload(w)?;
    sizes
        .iter()
        .map(|&n| run_compiled(&cw, &ProcessorConfig::tflex(n)).map(|r| (n, r)))
        .collect()
}

/// Measures the full Figure 6 speedup curve (all six sizes, normalized
/// to one core).
///
/// # Errors
///
/// Propagates the first failure.
pub fn speedup_curve(w: &Workload) -> Result<SpeedupCurve, RunFailure> {
    let runs = sweep(w, &SIZES)?;
    let base = runs
        .iter()
        .find(|(n, _)| *n == 1)
        .map(|(_, r)| r.stats.cycles)
        .expect("size 1 in SIZES");
    let samples: Vec<(usize, f64)> = runs
        .iter()
        .map(|(n, r)| (*n, base as f64 / r.stats.cycles as f64))
        .collect();
    Ok(SpeedupCurve::new(w.name, &samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_workloads::suite;

    #[test]
    fn processor_config_cores() {
        assert_eq!(ProcessorConfig::tflex(4).cores(), 4);
        assert_eq!(ProcessorConfig::trips().cores(), 16);
        assert_eq!(
            ProcessorConfig::tflex(8).kind,
            ProcessorKind::TFlex { cores: 8 }
        );
    }

    #[test]
    fn run_failure_renders() {
        let e = RunFailure::Run(clp_sim::RunError::CycleLimit(9));
        assert!(e.to_string().contains("9"));
        let e = RunFailure::Compose(clp_sim::ComposeError::CoreBusy(3));
        assert!(e.to_string().starts_with("compose"));
    }

    #[test]
    fn bad_composition_is_reported_not_panicking() {
        let w = suite::by_name("conv").unwrap();
        let err = run_workload(&w, &ProcessorConfig::tflex(64)).unwrap_err();
        assert!(matches!(err, RunFailure::Compose(_)));
    }

    #[test]
    fn conv_runs_correctly_on_4_cores() {
        let w = suite::by_name("conv").unwrap();
        let r = run_workload(&w, &ProcessorConfig::tflex(4)).expect("runs");
        assert!(r.correct);
        assert!(r.stats.cycles > 100);
        assert!(r.power.total() > 0.0);
        assert!(r.area_mm2 > 1.0);
    }

    #[test]
    fn trips_mode_runs_conv() {
        let w = suite::by_name("conv").unwrap();
        let r = run_workload(&w, &ProcessorConfig::trips()).expect("runs");
        assert!(r.correct);
    }

    #[test]
    fn sweep_produces_monotone_sizes() {
        let w = suite::by_name("bezier").unwrap();
        let runs = sweep(&w, &[1, 4, 16]).expect("sweeps");
        assert_eq!(runs.len(), 3);
        for (n, r) in &runs {
            assert!(r.correct, "incorrect at {n} cores");
        }
    }

    #[test]
    fn speedup_curve_normalizes_to_one() {
        let w = suite::by_name("autocor").unwrap();
        let c = speedup_curve(&w).expect("curve");
        assert!((c.at(1) - 1.0).abs() < 1e-12);
        assert!(c.best_speedup() >= 1.0);
    }
}
