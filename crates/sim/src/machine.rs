//! The cycle-stepped TFlex machine: composition, distributed fetch,
//! dataflow execution, distributed commit, and flush protocols.
//!
//! ## Modeling notes (see DESIGN.md)
//!
//! * The **operand network** is a real contended mesh ([`clp_noc::Mesh`])
//!   — operand bandwidth is one of the two TFlex optimizations the paper
//!   calls out, so contention is modeled at link granularity.
//! * **Control messages** (fetch commands, hand-offs, completion
//!   notifications, commit handshakes) are charged analytic Manhattan-hop
//!   latencies without contention; with
//!   [`ProtocolTiming::Instant`](crate::ProtocolTiming) they cost one
//!   cycle, reproducing the idealized-handshake ablation of §6.4.
//! * Functional state (memory image, register values) is updated through
//!   speculation-safe structures (LSQ buffering, versioned registers), so
//!   every run checks end-to-end correctness against the IR interpreter.

use crate::config::{ProtocolTiming, SimConfig};
use crate::events::EventWheel;
use crate::fault::{CoreKill, FaultInjector};
use crate::regfile::{RegFile, RegRead};
use crate::stats::{CommitLatencyBreakdown, ComposeStats, ProcStats, RecoveryStats, RunStats};
use crate::window::BlockWindow;
use clp_isa::{Block, BlockAddr, BranchKind, EdgeProgram, Opcode, OpcodeClass, Reg, Target};
use clp_mem::{dbank_for, LoadResponse, LoadServe, MemorySystem, StoreResponse};
use clp_noc::{region_for, Mesh, NodeId, RegionError};
use clp_obs::{
    Bucket, FlushReason, IntervalSampler, ProcProfile, ProfileReport, SampleCounters,
    StatsSnapshot, TraceEvent, Tracer, TrendOptions, TrendRecorder, TrendReport,
};
use clp_predictor::{block_owner, ComposedPredictor, ExitOutcome, Prediction};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::sync::Arc;

/// Identifies a logical processor within a [`Machine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

/// Failure to compose a logical processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ComposeError {
    /// The requested region is invalid or does not fit.
    Region(RegionError),
    /// One of the requested cores already belongs to a processor.
    CoreBusy(usize),
    /// The workload passes more arguments than the `r1..=r8` argument
    /// registers can hold (the machine used to silently truncate these).
    TooManyArgs(usize),
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::Region(e) => write!(f, "{e}"),
            ComposeError::CoreBusy(c) => write!(f, "core {c} already composed"),
            ComposeError::TooManyArgs(n) => {
                write!(f, "{n} arguments exceed the 8 argument registers (r1..=r8)")
            }
        }
    }
}

impl std::error::Error for ComposeError {}

impl From<RegionError> for ComposeError {
    fn from(e: RegionError) -> Self {
        ComposeError::Region(e)
    }
}

/// Failure during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The cycle budget was exhausted.
    CycleLimit(u64),
    /// The per-run deadline ([`SimConfig::deadline`](crate::SimConfig))
    /// was crossed and the watchdog aborted the run. Distinct from
    /// [`RunError::CycleLimit`] so callers can tell a policy kill (a job
    /// that outlived its budget and may deserve a retry with a larger
    /// one) from the safety net against simulator bugs.
    DeadlineExceeded {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// No forward progress for a long time (a protocol deadlock — this is
    /// a simulator bug if it ever fires).
    Deadlock {
        /// Cycle at which the stall was detected.
        cycle: u64,
    },
    /// The fault plan schedules a kill of a core that is not part of any
    /// composed processor (validated before the first cycle — a kill the
    /// machine could never observe is a configuration error, not a
    /// no-op).
    InvalidKill {
        /// The targeted core.
        core: usize,
    },
    /// The fault plan kills every core of a composed processor, leaving
    /// no survivor to run the recovery protocol.
    NoSurvivors {
        /// The doomed logical processor.
        proc: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::CycleLimit(n) => write!(f, "exceeded cycle budget of {n}"),
            RunError::DeadlineExceeded { budget } => {
                write!(f, "deadline kill: exceeded cycle deadline of {budget}")
            }
            RunError::Deadlock { cycle } => write!(f, "no progress near cycle {cycle}"),
            RunError::InvalidKill { core } => {
                write!(
                    f,
                    "scheduled kill targets core {core}, which is not composed"
                )
            }
            RunError::NoSurvivors { proc } => {
                write!(f, "scheduled kills leave proc{proc} with no surviving core")
            }
        }
    }
}

impl std::error::Error for RunError {}

// ---------------------------------------------------------------------------
// Profiling provenance (clp-prof)
// ---------------------------------------------------------------------------

/// Why a pending fetch exists. Recorded unconditionally (one byte per
/// fetch) and read only by the profiler, which maps the idle gap before
/// the block's fetch to a top-down bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum FetchReason {
    /// Program entry (first fetch after compose).
    #[default]
    Entry,
    /// Speculative owner-to-owner hand-off on the predicted chain.
    HandOff,
    /// Redirect after a next-block misprediction.
    Redirect,
    /// Refetch after a violation or overflow squash.
    Refetch,
    /// Non-speculative sequencing (single-block windows).
    Sequential,
    /// Resume after hard-fault recovery.
    Resume,
}

/// What kind of producer a last-arrival provenance edge points at.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum ProvKind {
    /// The instruction's own dispatch was the last arrival (all operands
    /// beat it into the window, or it has none).
    #[default]
    Dispatch,
    /// A dataflow producer (ALU/FPU result or null token).
    Exec,
    /// A register-read round trip at the owning bank.
    RegRead,
    /// A memory-system load reply.
    Load,
}

/// Last-arrival provenance carried alongside operand-class messages:
/// which instruction produced the value, where it departed from, when
/// the producer started (`origin`) and when the value left (`sent`).
///
/// Written on every path — a cheap `Copy` riding existing messages — but
/// never read by any scheduling decision, so runs with the profiler
/// disabled stay bit-identical.
#[derive(Clone, Copy, Debug, Default)]
struct Prov {
    kind: ProvKind,
    /// Producer instruction id within the block.
    inst: u8,
    /// Global core the value departed from (bank core for reads/loads).
    from: u8,
    /// Cycle the producer started (issue / read dispatch / load issue).
    origin: u64,
    /// Cycle the value left the producer and routing began.
    sent: u64,
    /// Load service class (0 = store forward, 1 = L1 hit, 2 = miss).
    aux: u8,
}

/// Per-block profiling state, allocated (one boxed struct per in-flight
/// block) only when profiling is enabled.
#[derive(Clone, Debug)]
struct BlkProf {
    reason: FetchReason,
    /// Per instruction: dispatch cycle.
    disp: Vec<u64>,
    /// Per instruction: cycle the last input arrived (became ready).
    ready: Vec<u64>,
    /// Per instruction: issue (fire) cycle.
    issue: Vec<u64>,
    /// Per instruction: the last-arrival edge that made it ready.
    edge: Vec<Prov>,
    /// Cycle the exit branch resolved at the owner.
    t_resolved: u64,
    /// Provenance of the exit branch message.
    bro_prov: Prov,
    /// Cycle the last output acknowledgment reached the owner.
    t_last_output: u64,
    /// Provenance of that last output.
    out_prov: Prov,
    /// Cycle the commit handshake started.
    t_commit_start: u64,
}

impl BlkProf {
    fn new(nops: usize, reason: FetchReason) -> Self {
        BlkProf {
            reason,
            disp: vec![0; nops],
            ready: vec![0; nops],
            issue: vec![0; nops],
            edge: vec![Prov::default(); nops],
            t_resolved: 0,
            bro_prov: Prov::default(),
            t_last_output: 0,
            out_prov: Prov::default(),
            t_commit_start: 0,
        }
    }
}

/// Machine-level profile accumulator (behind `Machine::enable_profiling`).
struct ProfAcc {
    per_proc: Vec<ProcProfile>,
    core_cycles: Vec<u64>,
    link_cycles: BTreeMap<(usize, usize), u64>,
    /// Per proc: end cycle of the previously committed block — the clip
    /// point of the commit-pull accounting.
    last_commit_end: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum OpMsg {
    /// A dataflow operand (None = null token) for a consumer slot.
    Operand {
        proc: usize,
        seq: u64,
        target: Target,
        value: Option<u64>,
        prov: Prov,
    },
    /// Register-read request from an instruction's core to the bank.
    ReadReq {
        proc: usize,
        seq: u64,
        reg: Reg,
        targets: [Option<Target>; 2],
        prov: Prov,
    },
    /// Register write forwarded to its bank.
    WriteFwd {
        proc: usize,
        seq: u64,
        reg: Reg,
        value: Option<u64>,
        prov: Prov,
    },
    /// Memory request to a D-cache/LSQ bank.
    MemReq {
        proc: usize,
        seq: u64,
        lsid: u8,
        store: bool,
        addr: u64,
        size: u8,
        value: u64,
        targets: [Option<Target>; 2],
        prov: Prov,
    },
}

#[derive(Clone, Debug)]
enum Ev {
    /// Operand-class message delivered locally (same-core fast path, bank
    /// responses, NACK retries).
    Op(usize, OpMsg),
    /// One block output resolved. `lsid` is set when the output is a
    /// store slot (accepted store or null), which also feeds the
    /// conservative-ordering machinery for dependence-violating blocks.
    OutputDone {
        proc: usize,
        seq: u64,
        lsid: Option<u8>,
        prov: Prov,
    },
    /// The block's exit branch resolved.
    Branch {
        proc: usize,
        seq: u64,
        outcome: ExitOutcome,
        prov: Prov,
    },
    /// Next-block hand-off arrived at the new owner.
    HandOff { proc: usize, addr: BlockAddr },
    /// Fetch command arrived at a participating core.
    FetchCmd { proc: usize, seq: u64, part: usize },
    /// Route a produced value from `from` to the given targets.
    SendOperands {
        from: usize,
        proc: usize,
        seq: u64,
        targets: [Option<Target>; 2],
        value: Option<u64>,
        prov: Prov,
    },
    /// All commit acknowledgments arrived at the owner.
    CommitDone { proc: usize, seq: u64 },
    /// A window slot became visible as free to the fetch engine.
    SlotFree { proc: usize },
    /// An operand-network injection held back by the fault layer is
    /// released onto the mesh (only ever scheduled by injected NoC
    /// delays; never present on fault-free runs).
    Inject { from: usize, to: usize, msg: OpMsg },
}

// ---------------------------------------------------------------------------
// Per-instruction and per-block state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
struct OpState {
    dispatched: bool,
    queued: bool,
    fired: bool,
    got: [bool; 3],
    val: [Option<u64>; 3], // Some(None-is-null) flattened: value when got
    is_null: [bool; 3],
}

/// One core's cursor into its dispatch slice of a block,
/// `tmpl.slices[part]`.
#[derive(Clone, Copy, Debug)]
struct DispatchState {
    /// Index of the next instruction id of the slice to dispatch.
    next: usize,
    /// Cycle the slice may start; `u64::MAX` until the core's fetch
    /// command arrives.
    start_at: u64,
    done: bool,
}

/// Everything about a block that is identical across fetches of the
/// same address: built once per address (per composition) and shared
/// afterwards — a fetch takes one handle to it, never a deep clone of
/// the block or a walk of its dispatch slices.
#[derive(Debug)]
struct FetchTemplate {
    block: Block,
    /// Per participant core: instruction ids of its dispatch slice.
    slices: Vec<Box<[u8]>>,
    outputs_needed: usize,
    /// Bitmask of store LSIDs the block declares.
    store_mask: u32,
}

#[derive(Clone, Debug)]
struct Blk {
    seq: u64,
    addr: BlockAddr,
    /// The block itself, its dispatch slices and its output counts.
    tmpl: Arc<FetchTemplate>,
    ops: Vec<OpState>,
    outputs_done: usize,
    resolved: bool,
    outcome: Option<ExitOutcome>,
    /// Prediction this block's owner made for its successor.
    next_pred: Option<Prediction>,
    /// Address actually fetched after this block (speculatively or not).
    spec_next: Option<BlockAddr>,
    committing: bool,
    /// Dependence-predictor state: blocks that previously violated run
    /// with conservative load ordering (loads wait for older-LSID stores).
    conservative: bool,
    /// Bitmask of resolved store LSIDs (accepted or nulled).
    stores_resolved: u32,
    /// Loads deferred by conservative ordering: `(part, inst id)`.
    deferred_loads: Vec<(usize, u8)>,
    dispatch: Vec<DispatchState>,
    dispatch_pending_cores: usize,
    /// Bitmask of parts with a started, unfinished dispatch slice (the
    /// slice's fetch command arrived and `done` is still false) — the
    /// exact set of slices `dispatch_stage` could make progress on.
    runnable: u32,
    // timing marks
    t_init: u64,
    predict_cycles: f64,
    hand_off_cycles: f64,
    t_cmds_sent: u64,
    t_last_cmd: u64,
    t_dispatch_done: u64,
    /// clp-prof per-block state; `None` whenever profiling is disabled.
    prof: Option<Box<BlkProf>>,
}

impl Blk {
    fn owner_part(&self, n: usize, centralized: bool) -> usize {
        if centralized {
            0
        } else {
            block_owner(self.addr, n)
        }
    }
}

/// The lowest part at or above `from` whose bit is set in `mask`.
#[inline]
fn next_part(mask: u32, from: usize) -> Option<usize> {
    let rest = u64::from(mask) >> from;
    (rest != 0).then(|| from + rest.trailing_zeros() as usize)
}

/// A scheduled execution completion.
///
/// The derived `Ord` compares fields in declaration order, so a min-heap
/// of these pops by `(done, push_seq)`: earliest completion first, ties
/// broken by issue order — exactly the order the old FIFO scan produced
/// (every opcode latency is >= 1, so nothing can complete in arrears).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ExecDone {
    /// Cycle the result becomes routable.
    done: u64,
    /// Monotonic per-processor push counter (FIFO tie-break).
    push_seq: u64,
    /// Owning block sequence number.
    seq: u64,
    /// Instruction id within the block.
    inst: u8,
    /// Produced value (`None` routes a null token).
    result: Option<u64>,
}

#[derive(Clone, Debug)]
struct PendingFetch {
    addr: BlockAddr,
    ready_at: u64,
    hand_off_cycles: f64,
    reason: FetchReason,
}

#[derive(Clone, Copy, Debug)]
struct WaitingRead {
    seq: u64,
    reg: Reg,
    targets: [Option<Target>; 2],
    bank_core: usize,
    prov: Prov,
}

struct Proc {
    cores: Vec<usize>, // global core ids
    n: usize,
    /// Physical base of this processor's address space: every data and
    /// instruction address is translated by this offset, isolating
    /// multiprogrammed workloads that use identical virtual layouts.
    addr_base: u64,
    program: EdgeProgram,
    /// Per-address fetch templates (see [`FetchTemplate`]); cleared on
    /// recomposition because dispatch slices depend on `n`.
    fetch_cache: BTreeMap<BlockAddr, Arc<FetchTemplate>>,
    predictor: ComposedPredictor,
    regs: RegFile,
    blocks: BlockWindow<Blk>,
    next_seq: u64,
    pending: Option<PendingFetch>,
    /// Target of the youngest live prediction: the hand-off the fetch
    /// engine is willing to accept next.
    chain_next: Option<BlockAddr>,
    slots_free: usize,
    max_inflight: usize,
    halted: bool,
    /// Sequence number of a resolved (possibly wrong-path) halt block;
    /// fetch stops while set, and flushing that block clears it.
    halt_seq: Option<u64>,
    /// Block addresses that suffered a load/store ordering violation:
    /// re-fetches of these run loads conservatively (the dependence
    /// predictor that keeps same-block violations from livelocking).
    violated_addrs: std::collections::BTreeSet<BlockAddr>,
    stats: ProcStats,
    waiting_reads: Vec<WaitingRead>,
    /// Per participant core: ready-to-issue `(seq, inst)` entries,
    /// strictly ascending — the issue order.
    ready: Vec<Vec<(u64, u8)>>,
    /// Bitmask over parts: bit set iff `ready[part]` is non-empty.
    ready_mask: u32,
    /// Per participant core: in-flight completions, popped by done cycle
    /// (issue order within a cycle — see [`ExecDone`]).
    exec: Vec<BinaryHeap<Reverse<ExecDone>>>,
    /// Bitmask over parts: bit set iff `exec[part]` is non-empty.
    exec_mask: u32,
    /// Monotonic counter feeding [`ExecDone::push_seq`].
    exec_pushes: u64,
    /// Sequence numbers of the in-flight blocks with `runnable != 0`,
    /// ascending: the only blocks the dispatch stage and the event
    /// horizon look at.
    armed: Vec<u64>,
    /// Last cycle this processor made observable protocol progress —
    /// the "heartbeat" the hard-fault watchdog listens to. Only read
    /// when the fault plan schedules kills.
    last_beat: u64,
    /// Watchdog backoff state: each all-alive probe round doubles the
    /// silence threshold, up to `watchdog_timeout << watchdog_backoff_cap`.
    probe_round: u32,
    /// A heartbeat probe is in flight; at this deadline the survivors
    /// either declare unresponsive cores dead or back off.
    probe_deadline: Option<u64>,
    /// Dead participants were declared; recovery runs as soon as any
    /// point-of-no-return (committing) block finishes draining.
    recovery_pending: bool,
    /// Successor address of the most recently committed block — the
    /// architecturally correct resume point if recovery finds no
    /// in-flight block and no pending fetch.
    last_commit_target: Option<BlockAddr>,
}

// ---------------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------------

/// A TFlex chip: 32 cores, a shared memory system, and any number of
/// dynamically composed logical processors.
pub struct Machine {
    cfg: SimConfig,
    now: u64,
    mem: MemorySystem,
    opnet: Mesh<OpMsg>,
    local: EventWheel<Ev>,
    /// Control-message latency between every pair of chip cores, indexed
    /// `a * core_map.len() + b`: one cycle plus (under modeled timing)
    /// the Manhattan hops of [`clp_noc::MeshConfig::hops`].
    ctrl_delays: Vec<u64>,
    procs: Vec<Proc>,
    /// global core -> (proc, participant index)
    core_map: Vec<Option<(usize, usize)>>,
    last_progress: u64,
    tracer: Tracer,
    sampler: Option<IntervalSampler>,
    /// Deterministic fault injector (inert under `FaultPlan::none()`:
    /// zero PRNG draws, zero scheduling changes).
    faults: FaultInjector,
    /// Whether the fault plan schedules hard core kills. When false the
    /// watchdog and every dead-core check are skipped entirely, keeping
    /// kill-free runs bit-identical to builds without this machinery.
    has_kills: bool,
    /// Scheduled kills not yet applied, sorted by kill cycle.
    pending_kills: Vec<CoreKill>,
    /// Per global core: permanently silenced by a hard fault.
    dead: Vec<bool>,
    /// Per global core: cycle the kill fired (for detection latency).
    killed_at: Vec<Option<u64>>,
    /// Per global core: the watchdog already declared it dead.
    declared_dead: Vec<bool>,
    /// Hard-fault detection/recomposition counters.
    recovery_stats: RecoveryStats,
    /// `(cycle, insts_dispatched)` when the first recovery completed;
    /// everything after it is the degraded-mode portion of the run.
    recovery_mark: Option<(u64, u64)>,
    /// clp-prof accumulator; `None` (the default) keeps every hook down
    /// to a single branch and the run bit-identical to unprofiled builds.
    prof: Option<Box<ProfAcc>>,
    /// clp-trend columnar time-series recorder; `None` (the default)
    /// costs one branch per cycle and keeps the run bit-identical.
    trend: Option<Box<TrendRecorder>>,
    /// Composition-allocation counters (observation only).
    compose_stats: ComposeStats,
    /// Whether [`Machine::run`] may use event-driven skip-ahead. False
    /// only when the fault plan draws PRNG state every cycle
    /// (`noc_burst`), where skipping cycles would skip draws and change
    /// the injected-fault schedule.
    can_skip: bool,
    /// Reusable scratch buffers for the per-cycle stages, so the hot
    /// loop never allocates. Each is empty between uses.
    scratch_ids: Vec<u8>,
    scratch_picks: Vec<(u64, u8)>,
    scratch_loads: Vec<(usize, u8)>,
    scratch_reads: Vec<WaitingRead>,
    scratch_evs: Vec<Ev>,
    scratch_delivered: Vec<(NodeId, OpMsg)>,
}

impl Machine {
    /// Creates an idle machine.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        let cores = cfg.chip_cores();
        let mut pending_kills: Vec<CoreKill> = cfg.faults.kills().collect();
        pending_kills.sort_by_key(|k| (k.cycle, k.core));
        let ctrl_delays = (0..cores * cores)
            .map(|i| match cfg.protocol {
                ProtocolTiming::Instant => 1,
                ProtocolTiming::Modeled => {
                    1 + cfg.operand_net.hops(NodeId(i / cores), NodeId(i % cores)) as u64
                }
            })
            .collect();
        Machine {
            now: 0,
            mem: MemorySystem::new(cfg.mem, cores),
            opnet: Mesh::new(cfg.operand_net),
            local: EventWheel::new(),
            ctrl_delays,
            procs: Vec::new(),
            core_map: vec![None; cores],
            last_progress: 0,
            tracer: Tracer::off(),
            sampler: None,
            faults: FaultInjector::new(cfg.faults),
            has_kills: !pending_kills.is_empty(),
            pending_kills,
            dead: vec![false; cores],
            killed_at: vec![None; cores],
            declared_dead: vec![false; cores],
            recovery_stats: RecoveryStats::default(),
            recovery_mark: None,
            prof: None,
            trend: None,
            compose_stats: ComposeStats::default(),
            can_skip: !cfg.faults.has_per_cycle_draws(),
            scratch_ids: Vec::new(),
            scratch_picks: Vec::new(),
            scratch_loads: Vec::new(),
            scratch_reads: Vec::new(),
            scratch_evs: Vec::new(),
            scratch_delivered: Vec::new(),
            cfg,
        }
    }

    /// Enables clp-prof cycle accounting: every committed block records
    /// last-arrival provenance, is walked backward from its commit
    /// handshake, and charges its cycles to the top-down buckets exposed
    /// by [`Machine::profile_report`]. Call before [`Machine::run`].
    ///
    /// Profiling is observational: it never changes scheduling, so cycle
    /// counts match unprofiled runs exactly.
    pub fn enable_profiling(&mut self) {
        let cores = self.cfg.chip_cores();
        self.prof = Some(Box::new(ProfAcc {
            per_proc: Vec::new(),
            core_cycles: vec![0; cores],
            link_cycles: BTreeMap::new(),
            last_commit_end: Vec::new(),
        }));
    }

    /// Whether [`Machine::enable_profiling`] was called.
    #[must_use]
    pub fn profiling_enabled(&self) -> bool {
        self.prof.is_some()
    }

    /// The accumulated cycle-accounting report, or `None` when profiling
    /// is disabled. Meaningful once the run has committed blocks; the
    /// `elapsed` field reflects the current cycle.
    #[must_use]
    pub fn profile_report(&self) -> Option<ProfileReport> {
        let acc = self.prof.as_deref()?;
        Some(ProfileReport {
            procs: acc.per_proc.clone(),
            core_cycles: acc.core_cycles.clone(),
            link_cycles: acc.link_cycles.iter().map(|(&k, &v)| (k, v)).collect(),
            mesh_width: self.cfg.operand_net.width,
            mesh_height: self.cfg.operand_net.height,
            elapsed: self.now,
        })
    }

    /// Enables clp-trend columnar time-series recording: one sample per
    /// `opts.period` cycles over the selected stats paths plus (when
    /// profiling is also enabled) the cycle-accounting buckets and the
    /// per-core heat rows. Call before [`Machine::run`]; collect with
    /// [`Machine::take_trend_report`].
    ///
    /// Recording is observational — samples are written on due cycles
    /// but never read back for timing, so cycle counts stay bit-identical
    /// to unrecorded runs.
    pub fn enable_trend(&mut self, opts: TrendOptions) {
        let cores = self.cfg.chip_cores();
        self.trend = Some(Box::new(TrendRecorder::new(opts, cores)));
    }

    /// Finalizes and returns the trend report (closing the last partial
    /// interval), or `None` when trend recording was never enabled.
    /// Recording stops; a second call returns `None`.
    #[must_use]
    pub fn take_trend_report(&mut self) -> Option<TrendReport> {
        let rec = self.trend.take()?;
        let stats = self.collect_stats();
        let root = stats.to_snapshot(Vec::new()).root;
        let insts = stats.total_insts();
        let prof = self.prof.as_deref().map(|acc| {
            let mut total = clp_obs::BucketCycles::default();
            for p in &acc.per_proc {
                total.merge(&p.run_buckets);
            }
            (total, acc.core_cycles.clone())
        });
        Some(rec.finish(
            self.now,
            &root,
            insts,
            prof.as_ref().map(|(b, h)| (b, h.as_slice())),
        ))
    }

    /// Closes the trend interval ending now. Only called on due cycles.
    fn trend_sample(&mut self) {
        let Some(mut rec) = self.trend.take() else {
            return;
        };
        let stats = self.collect_stats();
        let root = stats.to_snapshot(Vec::new()).root;
        let insts = stats.total_insts();
        let prof = self.prof.as_deref().map(|acc| {
            let mut total = clp_obs::BucketCycles::default();
            for p in &acc.per_proc {
                total.merge(&p.run_buckets);
            }
            (total, acc.core_cycles.clone())
        });
        rec.record(
            self.now,
            &root,
            insts,
            prof.as_ref().map(|(b, h)| (b, h.as_slice())),
        );
        self.trend = Some(rec);
    }

    /// Composition-allocation counters so far.
    #[must_use]
    pub fn compose_stats(&self) -> &ComposeStats {
        &self.compose_stats
    }

    /// Hard-fault detection/recomposition counters so far (all zero when
    /// the fault plan schedules no kills).
    #[must_use]
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery_stats
    }

    /// Whether global core `core` has been silenced by a hard fault.
    #[must_use]
    pub fn is_core_dead(&self, core: usize) -> bool {
        self.dead[core]
    }

    /// What the fault layer injected so far (all zeros on fault-free
    /// runs).
    #[must_use]
    pub fn fault_stats(&self) -> &crate::fault::FaultStats {
        self.faults.stats()
    }

    /// Attaches a tracer; clones of the handle propagate to the memory
    /// system and the operand network so every subsystem stamps events
    /// into the same sink. Call before [`Machine::run`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mem.set_tracer(tracer.clone());
        self.opnet.set_tracer(tracer.clone(), "operand");
        self.tracer = tracer;
    }

    /// The attached tracer handle.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Enables per-interval sampling: one [`clp_obs::IntervalSample`]
    /// every `period` cycles, surfaced through [`Machine::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_sample_period(&mut self, period: u64) {
        self.sampler = Some(IntervalSampler::new(period));
    }

    fn sample_counters(&self) -> SampleCounters {
        SampleCounters {
            insts_committed: self.procs.iter().map(|p| p.stats.insts_committed).sum(),
            blocks_committed: self.procs.iter().map(|p| p.stats.blocks_committed).sum(),
            blocks_flushed: self.procs.iter().map(|p| p.stats.blocks_flushed).sum(),
            operand_msgs: self.opnet.stats().delivered,
        }
    }

    /// The unified stats registry for the run so far: end-of-run totals
    /// as a navigable tree plus the sampled time series (which this call
    /// finalizes — the last partial window is closed and the sampler
    /// retired).
    #[must_use]
    pub fn snapshot(&mut self) -> StatsSnapshot {
        let counters = self.sample_counters();
        let intervals = match self.sampler.take() {
            Some(s) => s.finish(self.now, counters),
            None => Vec::new(),
        };
        let mut snap = self.collect_stats().to_snapshot(intervals);
        if let Some(report) = self.profile_report() {
            let root = std::mem::take(&mut snap.root);
            snap.root = root.child(report.to_node());
        }
        snap
    }

    /// The simulator configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Mutable access to the memory system (workload setup: initial
    /// image) — only meaningful before [`Machine::run`].
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Read access to the memory system (output verification).
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Composes a logical processor from `n_cores` cores (region `index`
    /// of the standard tiling) and loads `program` with up to 8 integer
    /// arguments in `r1..=r8`.
    ///
    /// # Errors
    ///
    /// Returns [`ComposeError`] if the region is invalid, overlaps an
    /// existing processor, or `args` exceeds the 8 argument registers
    /// (arguments are never silently truncated).
    pub fn compose(
        &mut self,
        n_cores: usize,
        index: usize,
        program: EdgeProgram,
        args: &[u64],
    ) -> Result<ProcId, ComposeError> {
        let base = (self.procs.len() as u64) << 36;
        self.compose_at(n_cores, index, program, args, base)
    }

    /// Like [`Machine::compose`], but with an explicit address-space
    /// base. Composing a new processor with the base of a *decomposed*
    /// predecessor hands the data over through the cache-coherence
    /// protocol — the §4.7 story: the new interleaving misses, and the
    /// directory forwards or invalidates the old banks' lines, with no
    /// flush on the composition change.
    ///
    /// # Errors
    ///
    /// Returns [`ComposeError`] if the region is invalid or overlaps an
    /// active processor.
    pub fn compose_at(
        &mut self,
        n_cores: usize,
        index: usize,
        program: EdgeProgram,
        args: &[u64],
        addr_base: u64,
    ) -> Result<ProcId, ComposeError> {
        if args.len() > 8 {
            return Err(ComposeError::TooManyArgs(args.len()));
        }
        let nodes = region_for(&self.cfg.operand_net, n_cores, index)?;
        let cores: Vec<usize> = nodes.iter().map(|n| n.0).collect();
        for &c in &cores {
            if self.core_map[c].is_some() {
                return Err(ComposeError::CoreBusy(c));
            }
        }
        let pid = self.procs.len();
        for (p, &c) in cores.iter().enumerate() {
            self.core_map[c] = Some((pid, p));
        }
        self.compose_stats.compositions += 1;
        self.compose_stats.cores_allocated += n_cores as u64;
        self.compose_stats.last_change_cycle = self.now;
        let base_core = cores[0];
        self.tracer
            .emit(self.now, || TraceEvent::ProcessorComposed {
                proc: pid,
                cores: n_cores,
                base_core,
                why: "compose",
            });
        let pred_banks = if self.cfg.centralized_control {
            1
        } else {
            n_cores
        };
        let mut regs = RegFile::new(clp_isa::NUM_ARCH_REGS);
        for (i, &a) in args.iter().enumerate() {
            regs.set_committed(Reg::new(1 + i), a);
        }
        regs.set_committed(Reg::SP, self.cfg.stack_top);
        let max_inflight = self.cfg.max_inflight.unwrap_or(n_cores).max(1);
        let entry = program.entry();
        self.procs.push(Proc {
            cores,
            n: n_cores,
            addr_base,
            program,
            fetch_cache: BTreeMap::new(),
            predictor: ComposedPredictor::new(self.cfg.predictor, pred_banks),
            regs,
            blocks: BlockWindow::new(),
            next_seq: 0,
            pending: Some(PendingFetch {
                addr: entry,
                ready_at: 0,
                hand_off_cycles: 0.0,
                reason: FetchReason::Entry,
            }),
            chain_next: None,
            slots_free: max_inflight,
            max_inflight,
            halted: false,
            halt_seq: None,
            violated_addrs: std::collections::BTreeSet::new(),
            stats: ProcStats::default(),
            waiting_reads: Vec::new(),
            ready: vec![Vec::new(); n_cores],
            ready_mask: 0,
            exec: (0..n_cores).map(|_| BinaryHeap::new()).collect(),
            exec_mask: 0,
            exec_pushes: 0,
            armed: Vec::new(),
            last_beat: 0,
            probe_round: 0,
            probe_deadline: None,
            recovery_pending: false,
            last_commit_target: None,
        });
        Ok(ProcId(pid))
    }

    // -- helpers ----------------------------------------------------------

    #[inline]
    fn ctrl_delay(&self, a: usize, b: usize) -> u64 {
        self.ctrl_delays[a * self.core_map.len() + b]
    }

    fn push_local(&mut self, at: u64, ev: Ev) {
        let at = at.max(self.now + 1);
        self.local.schedule(self.now, at, ev);
    }

    /// Injects an operand-class message onto the mesh — unless the fault
    /// layer decides to hold it back first, in which case the injection
    /// is re-scheduled as an [`Ev::Inject`] a few cycles out (modeling a
    /// slow or retried link). Fault-free plans take the direct path with
    /// zero overhead.
    fn inject_op_msg(&mut self, from: usize, to: usize, msg: OpMsg) {
        if self.faults.active() {
            if let Some(extra) = self.faults.noc_delay() {
                self.tracer.emit(self.now, || TraceEvent::FaultInjected {
                    kind: "noc_delay",
                    core: from,
                    extra_cycles: extra,
                });
                self.push_local(self.now + extra, Ev::Inject { from, to, msg });
                return;
            }
        }
        self.opnet.inject(NodeId(from), NodeId(to), msg);
    }

    /// Routes a produced value (or null token) to targets, from `from`.
    fn route_operands(
        &mut self,
        from: usize,
        proc: usize,
        seq: u64,
        targets: &[Option<Target>; 2],
        value: Option<u64>,
        prov: Prov,
    ) {
        let n = self.procs[proc].n;
        for t in targets.iter().flatten() {
            let part = t.inst.core_of(n);
            let dst = self.procs[proc].cores[part];
            let msg = OpMsg::Operand {
                proc,
                seq,
                target: *t,
                value,
                prov,
            };
            if dst == from {
                self.push_local(self.now + 1, Ev::Op(dst, msg));
            } else {
                self.inject_op_msg(from, dst, msg);
            }
        }
    }

    fn send_op(&mut self, from: usize, to: usize, msg: OpMsg) {
        if from == to {
            self.push_local(self.now + 1, Ev::Op(to, msg));
        } else {
            self.inject_op_msg(from, to, msg);
        }
    }

    // -- hard faults: kill, detect, recompose -------------------------------
    //
    // A scheduled kill permanently silences a core: deliveries to it are
    // dropped, its pipeline stages stop, and nothing it had queued ever
    // leaves. Survivors get NO side channel — they notice only that acks,
    // hand-offs, and operands stop arriving. The heartbeat watchdog turns
    // that silence into a declaration: after `watchdog_timeout` cycles
    // without protocol progress it probes the participants (a modeled
    // round trip on the control network); an unresponsive participant is
    // declared dead, an all-alive round doubles the threshold (bounded
    // exponential backoff, so long-but-healthy stalls like DRAM misses
    // don't thrash). Recovery then waits for any committing block to
    // drain (commit effects are past the point of no return), flushes
    // every in-flight block, migrates architectural state off the dead
    // cores (register banks by accounting — the register file is
    // logically unified — and dirty L1 lines physically through the
    // S-NUCA L2), recomputes every interleaving hash over the survivor
    // set (which may be non-power-of-two), and resumes fetch at the
    // architecturally correct next block. Modeled simplifications,
    // documented in DESIGN.md: a block whose commit handshake started
    // always completes it (its functional effects are already durable),
    // and mesh messages routed *through* a dead core's router are not
    // re-routed (only endpoints are silenced).

    /// Marks any kill whose cycle has arrived. Called once per step,
    /// only when the plan schedules kills.
    fn apply_due_kills(&mut self) {
        while self
            .pending_kills
            .first()
            .is_some_and(|k| k.cycle <= self.now)
        {
            let k = self.pending_kills.remove(0);
            let core = usize::from(k.core);
            if !self.dead[core] {
                self.dead[core] = true;
                self.killed_at[core] = Some(self.now);
                self.recovery_stats.cores_killed += 1;
                self.tracer
                    .emit(self.now, || TraceEvent::CoreKilled { core });
            }
        }
    }

    /// Modeled round trip of a heartbeat probe across the composition.
    fn probe_rtt(&self, pi: usize) -> u64 {
        let p = &self.procs[pi];
        let origin = p.cores[0];
        let max_hop = p
            .cores
            .iter()
            .map(|&c| self.ctrl_delay(origin, c))
            .max()
            .unwrap_or(1);
        2 * max_hop + 2
    }

    /// Emits death declarations (and detection-latency accounting) for
    /// every dead-but-undeclared participant of `pi`.
    fn declare_dead(&mut self, pi: usize) {
        let now = self.now;
        let cores = self.procs[pi].cores.clone();
        for core in cores {
            if self.dead[core] && !self.declared_dead[core] {
                self.declared_dead[core] = true;
                let det = now.saturating_sub(self.killed_at[core].unwrap_or(now));
                self.recovery_stats.detection_cycles += det;
                self.tracer.emit(now, || TraceEvent::CoreDeclaredDead {
                    proc: pi,
                    core,
                    detection_cycles: det,
                });
            }
        }
    }

    /// One watchdog evaluation for processor `pi` (kill plans only).
    /// Fully cycle-count driven — no PRNG draws — so detection timing is
    /// deterministic per plan.
    fn watchdog(&mut self, pi: usize) {
        let now = self.now;
        if self.procs[pi].recovery_pending {
            self.try_recover(pi);
            return;
        }
        if self.procs[pi].cores.is_empty() {
            return;
        }
        match self.procs[pi].probe_deadline {
            Some(d) if now >= d => {
                let any_dead = self.procs[pi].cores.iter().any(|&c| self.dead[c]);
                if any_dead {
                    self.declare_dead(pi);
                    self.procs[pi].recovery_pending = true;
                    self.try_recover(pi);
                } else {
                    // Spurious: the stall was slow, not dead. Back off.
                    let cap = self.cfg.watchdog_backoff_cap;
                    let p = &mut self.procs[pi];
                    p.probe_deadline = None;
                    p.probe_round = (p.probe_round + 1).min(cap);
                    p.last_beat = now;
                }
            }
            Some(_) => {}
            None => {
                let round = self.procs[pi]
                    .probe_round
                    .min(self.cfg.watchdog_backoff_cap);
                let timeout = self.cfg.watchdog_timeout << round;
                if now.saturating_sub(self.procs[pi].last_beat) > timeout {
                    let rtt = self.probe_rtt(pi);
                    self.procs[pi].probe_deadline = Some(now + rtt);
                    self.recovery_stats.probes += 1;
                }
            }
        }
    }

    /// Runs recovery once every point-of-no-return block has drained.
    fn try_recover(&mut self, pi: usize) {
        if self.procs[pi].halted {
            self.procs[pi].recovery_pending = false;
            return;
        }
        // A committing block's functional effects are already durable;
        // its handshake completes (CommitDone is pre-scheduled) and then
        // recovery flushes everything younger.
        if self.procs[pi].blocks.values().any(|b| b.committing) {
            return;
        }
        self.perform_recovery(pi);
    }

    /// The degraded-mode recomposition: flush, migrate, re-interleave,
    /// resume.
    fn perform_recovery(&mut self, pi: usize) {
        let now = self.now;
        let (old_n, old_cores) = {
            let p = &self.procs[pi];
            (p.n, p.cores.clone())
        };
        let dead_parts: Vec<usize> = (0..old_n)
            .filter(|&part| self.dead[old_cores[part]])
            .collect();
        if dead_parts.is_empty() {
            self.procs[pi].recovery_pending = false;
            return;
        }
        // Kills can land while a commit drains; declare any stragglers.
        self.declare_dead(pi);
        let new_n = old_n - dead_parts.len();
        assert!(new_n >= 1, "no-survivor plans are rejected before running");

        // Resume point, computed before the flush: the oldest in-flight
        // block is always on the architecturally correct path (its
        // predecessor resolved — and corrected any misprediction —
        // before committing).
        let resume = {
            let p = &self.procs[pi];
            p.blocks
                .values()
                .next()
                .map(|b| b.addr)
                .or(p.pending.as_ref().map(|f| f.addr))
                .or(p.last_commit_target)
                .unwrap_or_else(|| p.program.entry())
        };

        // Flush every in-flight block: any of them may hold operands,
        // LSQ entries, or dispatch slices on the dead cores.
        let flushed = self.procs[pi].blocks.len();
        if let Some((oldest, b)) = self.procs[pi].blocks.first() {
            let addr = b.addr;
            self.tracer.emit(now, || TraceEvent::BlockFlushed {
                proc: pi,
                addr,
                reason: FlushReason::Recovery,
            });
            self.flush_from(pi, oldest);
        }

        // Migrate architectural state. Registers interleave by the OLD
        // hash; banks on dead cores stream to survivors (the register
        // file is logically unified, so this is accounting + latency).
        let migrated_regs = (0..clp_isa::NUM_ARCH_REGS)
            .filter(|&r| dead_parts.contains(&Reg::new(r).bank_of(old_n)))
            .count() as u64;
        let mut migrated_lines = 0u64;
        let mut migrated_bytes = migrated_regs * 8;
        let mut bank_latency = 0u64;
        for &part in &dead_parts {
            let rep = self.mem.evacuate_core(old_cores[part]);
            migrated_lines += rep.dirty_lines;
            migrated_bytes += rep.bytes;
            // Dead banks drain in parallel; the slowest gates resume.
            bank_latency = bank_latency.max(rep.latency);
        }
        let migration_cycles = bank_latency + migrated_regs;

        // Recompose over the survivors: every interleaving hash
        // (register bank, D-bank/LSQ, instruction slot, block owner)
        // re-evaluates over `new_n`, which need not be a power of two.
        let survivors: Vec<usize> = old_cores
            .iter()
            .copied()
            .filter(|&c| !self.dead[c])
            .collect();
        for &part in &dead_parts {
            self.core_map[old_cores[part]] = None;
        }
        for (new_part, &c) in survivors.iter().enumerate() {
            self.core_map[c] = Some((pi, new_part));
        }
        let centralized = self.cfg.centralized_control;
        let pred_cfg = self.cfg.predictor;
        let max_inflight = self.cfg.max_inflight.unwrap_or(new_n).max(1);
        {
            let p = &mut self.procs[pi];
            p.cores = survivors;
            p.n = new_n;
            // Dispatch slices are hashed over `n`: stale templates
            // would dispatch dead-core slices.
            p.fetch_cache.clear();
            // The predictor restarts cold: its banked tables were hashed
            // over the old core set and the dead bank's history is gone.
            p.predictor = ComposedPredictor::new(pred_cfg, if centralized { 1 } else { new_n });
            p.ready = vec![Vec::new(); new_n];
            p.ready_mask = 0;
            p.exec = (0..new_n).map(|_| BinaryHeap::new()).collect();
            p.exec_mask = 0;
            p.armed.clear();
            p.waiting_reads.clear();
            p.max_inflight = max_inflight;
            p.slots_free = max_inflight;
            p.chain_next = None;
            p.halt_seq = None;
            p.pending = Some(PendingFetch {
                addr: resume,
                ready_at: now + migration_cycles,
                hand_off_cycles: 0.0,
                reason: FetchReason::Resume,
            });
            p.recovery_pending = false;
            p.probe_deadline = None;
            p.probe_round = 0;
            p.last_beat = now + migration_cycles;
        }
        self.last_progress = now;

        self.recovery_stats.recoveries += 1;
        // A recovery is a forced recomposition: the survivor set is a new
        // (smaller) core allocation for the same logical processor.
        self.compose_stats.recompositions += 1;
        self.compose_stats.cores_released += 1;
        self.compose_stats.last_change_cycle = now;
        self.recovery_stats.flushed_blocks += flushed as u64;
        self.recovery_stats.migrated_regs += migrated_regs;
        self.recovery_stats.migrated_lines += migrated_lines;
        self.recovery_stats.migrated_bytes += migrated_bytes;
        self.recovery_stats.migration_cycles += migration_cycles;
        if self.recovery_mark.is_none() {
            let insts: u64 = self.procs.iter().map(|p| p.stats.insts_dispatched).sum();
            self.recovery_mark = Some((now + migration_cycles, insts));
        }
        self.tracer.emit(now, || TraceEvent::RecoveryCompleted {
            proc: pi,
            survivors: new_n,
            flushed_blocks: flushed,
            migrated_bytes,
        });
    }

    /// True if the owner core of block `seq` on `pi` is dead (the block
    /// cannot run its resolution/commit protocol; its events are
    /// dropped, and recovery will flush it).
    fn owner_dead(&self, pi: usize, seq: u64) -> bool {
        if !self.has_kills {
            return false;
        }
        let p = &self.procs[pi];
        match p.blocks.get(&seq) {
            Some(b) => self.dead[p.cores[b.owner_part(p.n, self.cfg.centralized_control)]],
            None => false,
        }
    }

    // -- fetch engine -------------------------------------------------------

    fn fetch_stage(&mut self, pi: usize) {
        let now = self.now;
        let can_install = {
            let p = &self.procs[pi];
            !p.halted
                && p.halt_seq.is_none()
                && !p.recovery_pending
                && p.slots_free > 0
                && p.pending.as_ref().is_some_and(|f| f.ready_at <= now)
        };
        if !can_install {
            return;
        }
        // A pending fetch of a block that does not exist (wrong-path
        // beyond program bounds) waits until a redirect replaces it.
        let addr = self.procs[pi].pending.as_ref().expect("checked").addr;
        if self.procs[pi].program.block(addr).is_none() {
            return;
        }
        // A dead owner cannot run the fetch protocol: the fetch stalls
        // (survivors see only silence) until the watchdog recomposes.
        if self.has_kills {
            let p = &self.procs[pi];
            let owner_part = if self.cfg.centralized_control {
                0
            } else {
                block_owner(addr, p.n)
            };
            if self.dead[p.cores[owner_part]] {
                return;
            }
        }
        let pending = self.procs[pi].pending.take().expect("checked");
        self.install_block(pi, pending);
    }

    fn install_block(&mut self, pi: usize, pending: PendingFetch) {
        let now = self.now;
        self.last_progress = now;
        self.procs[pi].last_beat = now;
        let (seq, owner_core, n, speculate) = {
            let p = &mut self.procs[pi];
            let seq = p.next_seq;
            p.next_seq += 1;
            p.slots_free -= 1;
            let n = p.n;
            let owner_part = if self.cfg.centralized_control {
                0
            } else {
                block_owner(pending.addr, n)
            };
            (seq, p.cores[owner_part], n, p.max_inflight > 1)
        };
        // A non-zero hand-off means this fetch continues a predicted
        // chain; entry and redirect fetches are non-speculative.
        self.tracer.emit(now, || TraceEvent::BlockFetched {
            proc: pi,
            core: owner_core,
            addr: pending.addr,
            speculative: pending.hand_off_cycles > 0.0,
        });
        // First fetch of this address (since compose / recovery) builds
        // the per-address template: the block plus the per-core dispatch
        // slices. Every later fetch is one refcount bump instead of a
        // deep block clone and `n` slice walks.
        let Proc {
            fetch_cache,
            program,
            regs,
            ..
        } = &mut self.procs[pi];
        let tmpl = Arc::clone(fetch_cache.entry(pending.addr).or_insert_with(|| {
            let block = program.block(pending.addr).expect("caller checked");
            Arc::new(FetchTemplate {
                slices: (0..n)
                    .map(|part| {
                        block
                            .slice_for_core(part, n)
                            .map(|(i, _)| i as u8)
                            .collect()
                    })
                    .collect(),
                outputs_needed: block.output_count(),
                store_mask: block.store_lsids().iter().fold(0u32, |m, &l| m | (1 << l)),
                block: block.clone(),
            })
        }));

        // Declare register writes so younger readers wait (write mask is
        // part of the block header, known at fetch).
        for &(_, reg) in tmpl.block.writes() {
            regs.declare_write(reg, seq);
        }

        let nops = tmpl.block.len();
        let conservative = self.procs[pi].violated_addrs.contains(&pending.addr);
        let mut blk = Blk {
            seq,
            addr: pending.addr,
            tmpl,
            ops: vec![OpState::default(); nops],
            outputs_done: 0,
            resolved: false,
            outcome: None,
            next_pred: None,
            spec_next: None,
            committing: false,
            conservative,
            stores_resolved: 0,
            deferred_loads: Vec::new(),
            dispatch: vec![
                DispatchState {
                    next: 0,
                    start_at: u64::MAX,
                    done: false,
                };
                n
            ],
            dispatch_pending_cores: n,
            runnable: 0,
            t_init: now,
            predict_cycles: 0.0,
            hand_off_cycles: pending.hand_off_cycles,
            t_cmds_sent: now + 1,
            t_last_cmd: now + 1,
            t_dispatch_done: now + 1,
            prof: self
                .prof
                .is_some()
                .then(|| Box::new(BlkProf::new(nops, pending.reason))),
        };

        // Tag access (1 cycle), then broadcast fetch commands.
        blk.t_cmds_sent = now + 1;
        blk.t_last_cmd = now + 1;
        for part in 0..n {
            let dst = self.procs[pi].cores[part];
            let d = self.ctrl_delay(owner_core, dst);
            self.push_local(
                now + 1 + d,
                Ev::FetchCmd {
                    proc: pi,
                    seq,
                    part,
                },
            );
        }

        // Predict the successor and hand off control.
        if speculate {
            let mut pred = self.procs[pi].predictor.predict(pending.addr);
            // Forced mispredict: steer the prediction one block frame off
            // its target. The checkpoint inside `pred` is untouched, so
            // rollback and resolution-time training follow the normal
            // mispredict recovery path; the wrong-path fetch either finds
            // a real (wrong) block or stalls until the redirect.
            if self.faults.active() && self.faults.flip_prediction() {
                let owner = owner_core;
                self.tracer.emit(now, || TraceEvent::FaultInjected {
                    kind: "mispredict",
                    core: owner,
                    extra_cycles: 0,
                });
                pred.target = pred.target.wrapping_add(clp_isa::BLOCK_FRAME_BYTES);
            }
            self.tracer.emit(now, || TraceEvent::BlockPredicted {
                core: owner_core,
                addr: pending.addr,
                target: pred.target,
            });
            let pred_lat = u64::from(self.procs[pi].predictor.latency());
            blk.predict_cycles = pred_lat as f64;
            // RAS traffic: a push/pop message to the stack-top core.
            let ras_extra = match pred.ras_core {
                Some(rc) if !self.cfg.centralized_control => {
                    let rc_core = self.procs[pi].cores[rc.min(n - 1)];
                    self.ctrl_delay(owner_core, rc_core)
                }
                _ => 0,
            };
            let next_owner_part = if self.cfg.centralized_control {
                0
            } else {
                block_owner(pred.target, n)
            };
            let next_owner_core = self.procs[pi].cores[next_owner_part];
            let send_at = now + 1 + pred_lat + ras_extra;
            let flight = self.ctrl_delay(owner_core, next_owner_core);
            blk.spec_next = Some(pred.target);
            self.procs[pi].chain_next = Some(pred.target);
            // Delayed hand-off: the control message to the next owner
            // simply takes longer, as if the control mesh were congested.
            let mut handoff_at = send_at + flight;
            if self.faults.active() {
                if let Some(extra) = self.faults.handoff_delay() {
                    let owner = owner_core;
                    self.tracer.emit(now, || TraceEvent::FaultInjected {
                        kind: "handoff_delay",
                        core: owner,
                        extra_cycles: extra,
                    });
                    handoff_at += extra;
                }
            }
            self.push_local(
                handoff_at,
                Ev::HandOff {
                    proc: pi,
                    addr: pred.target,
                },
            );
            blk.next_pred = Some(pred);
        }
        self.procs[pi].blocks.insert(seq, blk);
    }

    fn on_handoff(&mut self, pi: usize, addr: BlockAddr) {
        // Wrong-path hand-offs are dropped when the proc already halted,
        // a redirect replaced the chain, or the speculation they continue
        // was squashed.
        let (accept, prev_owner, next_owner) = {
            let p = &self.procs[pi];
            if p.halted || p.halt_seq.is_some() || p.pending.is_some() || p.chain_next != Some(addr)
            {
                (false, 0, 0)
            } else {
                let po = p
                    .blocks
                    .values()
                    .next_back()
                    .map(|b| b.owner_part(p.n, self.cfg.centralized_control))
                    .unwrap_or(0);
                let no = if self.cfg.centralized_control {
                    0
                } else {
                    block_owner(addr, p.n)
                };
                (true, p.cores[po], p.cores[no])
            }
        };
        if !accept {
            return;
        }
        // A hand-off from or to a dead core is lost in flight.
        if self.has_kills && (self.dead[prev_owner] || self.dead[next_owner]) {
            return;
        }
        self.tracer.emit(self.now, || TraceEvent::FetchHandoff {
            proc: pi,
            from_core: prev_owner,
            to_core: next_owner,
            addr,
        });
        let flight = self.ctrl_delay(prev_owner, next_owner) as f64;
        self.procs[pi].chain_next = None;
        self.procs[pi].pending = Some(PendingFetch {
            addr,
            ready_at: self.now,
            hand_off_cycles: flight,
            reason: FetchReason::HandOff,
        });
    }

    // -- dispatch -----------------------------------------------------------

    fn on_fetch_cmd(&mut self, pi: usize, seq: u64, part: usize) {
        let now = self.now;
        let (core, addr, n, exists) = {
            let p = &self.procs[pi];
            match p.blocks.get(&seq) {
                Some(b) => (p.cores[part], b.addr, p.n, true),
                None => (0, 0, 1, false),
            }
        };
        if !exists {
            return;
        }
        // A dead core never services its fetch command; the slice simply
        // never dispatches and the watchdog eventually flushes the block.
        if self.has_kills && self.dead[core] {
            return;
        }
        let lat =
            self.mem
                .fetch_block_slice(core, addr.wrapping_add(self.procs[pi].addr_base), part, n);
        let p = &mut self.procs[pi];
        let mut newly_armed = false;
        if let Some(b) = p.blocks.get_mut(&seq) {
            b.t_last_cmd = b.t_last_cmd.max(now);
            let ds = &mut b.dispatch[part];
            ds.start_at = now + u64::from(lat);
            if b.tmpl.slices[part].is_empty() {
                ds.done = true;
                b.dispatch_pending_cores -= 1;
                b.t_dispatch_done = b.t_dispatch_done.max(now);
            } else {
                newly_armed = b.runnable == 0;
                b.runnable |= 1 << part;
            }
        }
        if newly_armed {
            // Blocks mostly arm oldest-first, but a block whose arrived
            // slices all finished re-arms when a later command lands.
            if let Err(at) = p.armed.binary_search(&seq) {
                p.armed.insert(at, seq);
            }
        }
    }

    fn dispatch_stage(&mut self, pi: usize) {
        let p = &self.procs[pi];
        if p.armed.is_empty() {
            return;
        }
        let now = self.now;
        let bw = self.cfg.core.dispatch_per_cycle;
        // Only armed blocks matter: every slice of any other block is
        // either `done` or still waiting for its fetch command. Parts
        // run in ascending order and, within a part, blocks oldest
        // first; a part none of the armed blocks has a runnable slice
        // on would find nothing to do. No bit is set during the stage
        // (only a fetch command sets one), so the union taken here
        // names every part that can make progress.
        let mut parts = p.armed.iter().fold(0, |m, seq| m | p.blocks[seq].runnable);
        let mut to_dispatch = std::mem::take(&mut self.scratch_ids);
        debug_assert!(to_dispatch.is_empty());
        let mut disarmed = false;
        while parts != 0 {
            let part = parts.trailing_zeros() as usize;
            parts &= parts - 1;
            if self.has_kills && self.dead[self.procs[pi].cores[part]] {
                continue;
            }
            let mut budget = bw;
            for i in 0..self.procs[pi].armed.len() {
                if budget == 0 {
                    break;
                }
                let seq = self.procs[pi].armed[i];
                // Collect ids to dispatch this cycle.
                to_dispatch.clear();
                {
                    let b = self.procs[pi].blocks.get_mut(&seq);
                    let b = b.expect("armed blocks are in flight");
                    if b.runnable & (1 << part) == 0 {
                        continue;
                    }
                    let ds = &mut b.dispatch[part];
                    debug_assert!(!ds.done);
                    if ds.start_at > now {
                        continue;
                    }
                    let ids = &b.tmpl.slices[part];
                    let take = budget.min(ids.len() - ds.next);
                    to_dispatch.extend_from_slice(&ids[ds.next..ds.next + take]);
                    ds.next += take;
                    budget -= take;
                    if ds.next == ids.len() {
                        ds.done = true;
                        b.dispatch_pending_cores -= 1;
                        b.t_dispatch_done = b.t_dispatch_done.max(now);
                        b.runnable &= !(1 << part);
                        disarmed |= b.runnable == 0;
                    }
                }
                for &id in &to_dispatch {
                    self.dispatch_inst(pi, seq, part, id);
                }
            }
        }
        if disarmed {
            let Proc { armed, blocks, .. } = &mut self.procs[pi];
            armed.retain(|seq| blocks[seq].runnable != 0);
        }
        to_dispatch.clear();
        self.scratch_ids = to_dispatch;
    }

    fn dispatch_inst(&mut self, pi: usize, seq: u64, part: usize, id: u8) {
        self.last_progress = self.now;
        self.procs[pi].last_beat = self.now;
        let now = self.now;
        let (opcode, reg, targets) = {
            let p = &mut self.procs[pi];
            let b = p.blocks.get_mut(&seq).expect("dispatching live block");
            b.ops[id as usize].dispatched = true;
            if let Some(pr) = b.prof.as_deref_mut() {
                pr.disp[id as usize] = now;
            }
            let inst = &b.tmpl.block.instructions()[id as usize];
            (inst.opcode, inst.reg, inst.targets)
        };
        match opcode {
            Opcode::Read => {
                let reg = reg.expect("read has reg");
                let (bank_core, from) = {
                    let p = &self.procs[pi];
                    (p.cores[reg.bank_of(p.n)], p.cores[part])
                };
                self.send_op(
                    from,
                    bank_core,
                    OpMsg::ReadReq {
                        proc: pi,
                        seq,
                        reg,
                        targets,
                        prov: Prov {
                            kind: ProvKind::RegRead,
                            inst: id,
                            from: from as u8,
                            origin: now,
                            sent: now,
                            aux: 0,
                        },
                    },
                );
            }
            _ => {
                self.maybe_ready(
                    pi,
                    seq,
                    part,
                    id,
                    Prov {
                        origin: now,
                        sent: now,
                        ..Prov::default()
                    },
                );
            }
        }
    }

    /// Enqueues the instruction for issue if all its inputs are present.
    /// `trigger` is the provenance of the arrival that prompted this call
    /// (the instruction's own dispatch, or an operand delivery); when the
    /// call transitions the instruction to ready it is, by construction,
    /// the last-arrival edge the profiler records.
    fn maybe_ready(&mut self, pi: usize, seq: u64, part: usize, id: u8, trigger: Prov) {
        enum Action {
            None,
            Queue,
            Write {
                from: usize,
                bank_core: usize,
                reg: Reg,
                value: Option<u64>,
            },
        }
        let now = self.now;
        let action = {
            let p = &mut self.procs[pi];
            let Some(b) = p.blocks.get_mut(&seq) else {
                return;
            };
            let inst = &b.tmpl.block.instructions()[id as usize];
            if inst.opcode == Opcode::Read {
                return;
            }
            let arity = inst.data_arity();
            let need_pred = inst.is_predicated();
            let is_write = inst.opcode == Opcode::Write;
            let reg = inst.reg;
            let st = &mut b.ops[id as usize];
            if !st.dispatched || st.queued || st.fired {
                Action::None
            } else {
                let have = (arity < 1 || st.got[0]) && (arity < 2 || st.got[1]);
                let have_pred = !need_pred || st.got[2];
                if !(have && have_pred) {
                    Action::None
                } else if is_write {
                    st.fired = true;
                    let value = if st.is_null[0] { None } else { st.val[0] };
                    let reg = reg.expect("write has reg");
                    if let Some(pr) = b.prof.as_deref_mut() {
                        // Writes fire the moment their input lands.
                        pr.ready[id as usize] = now;
                        pr.issue[id as usize] = now;
                        pr.edge[id as usize] = trigger;
                    }
                    Action::Write {
                        from: p.cores[part],
                        bank_core: p.cores[reg.bank_of(p.n)],
                        reg,
                        value,
                    }
                } else {
                    st.queued = true;
                    if let Some(pr) = b.prof.as_deref_mut() {
                        pr.ready[id as usize] = now;
                        pr.edge[id as usize] = trigger;
                    }
                    Action::Queue
                }
            }
        };
        match action {
            Action::None => {}
            Action::Queue => {
                // Blocks dispatch and wake oldest-first most of the time,
                // so the common case appends.
                let p = &mut self.procs[pi];
                let list = &mut p.ready[part];
                let entry = (seq, id);
                if list.last().is_none_or(|&last| last < entry) {
                    list.push(entry);
                } else if let Err(at) = list.binary_search(&entry) {
                    list.insert(at, entry);
                }
                p.ready_mask |= 1 << part;
            }
            Action::Write {
                from,
                bank_core,
                reg,
                value,
            } => {
                let p = &mut self.procs[pi];
                p.stats.insts_fired += 1;
                p.stats.reg_writes += 1;
                self.send_op(
                    from,
                    bank_core,
                    OpMsg::WriteFwd {
                        proc: pi,
                        seq,
                        reg,
                        value,
                        prov: Prov {
                            kind: ProvKind::Exec,
                            inst: id,
                            from: from as u8,
                            origin: now,
                            sent: now,
                            aux: 0,
                        },
                    },
                );
            }
        }
    }

    // -- issue & execute ----------------------------------------------------

    fn issue_stage(&mut self, pi: usize) {
        if self.procs[pi].ready_mask == 0 {
            return;
        }
        let mut picks = std::mem::take(&mut self.scratch_picks);
        debug_assert!(picks.is_empty());
        // Parts with a non-empty ready list, ascending; the mask is read
        // again for each next part, as a scan testing every bit would.
        let mut above = 0;
        while let Some(part) = next_part(self.procs[pi].ready_mask, above) {
            above = part + 1;
            if self.has_kills && self.dead[self.procs[pi].cores[part]] {
                continue;
            }
            let mut total = self.cfg.core.issue_width;
            let mut fp = self.cfg.core.fp_issue;
            picks.clear();
            {
                // One ascending pass: picked entries move to `picks`,
                // passed-over ones (no FP slot left, block gone) compact
                // down in order, the unvisited tail closes the gap.
                let p = &mut self.procs[pi];
                let list = &mut p.ready[part];
                let (mut visited, mut kept) = (0, 0);
                while visited < list.len() && total > 0 {
                    let (seq, id) = list[visited];
                    visited += 1;
                    let pick = p.blocks.get(&seq).is_some_and(|b| {
                        let class = b.tmpl.block.instructions()[id as usize].opcode.class();
                        if class != OpcodeClass::Float {
                            return true;
                        }
                        let slot = fp > 0;
                        fp -= usize::from(slot);
                        slot
                    });
                    if pick {
                        total -= 1;
                        picks.push((seq, id));
                    } else {
                        list[kept] = (seq, id);
                        kept += 1;
                    }
                }
                list.copy_within(visited.., kept);
                list.truncate(list.len() - picks.len());
                if list.is_empty() {
                    p.ready_mask &= !(1 << part);
                }
            }
            for &(seq, id) in &picks {
                self.execute_inst(pi, seq, part, id);
            }
        }
        picks.clear();
        self.scratch_picks = picks;
    }

    fn execute_inst(&mut self, pi: usize, seq: u64, part: usize, id: u8) {
        self.last_progress = self.now;
        self.procs[pi].last_beat = self.now;
        let now = self.now;
        let (opcode, imm, lsid, branch, targets, pred, vals, nulls, blk_addr) = {
            let p = &mut self.procs[pi];
            let Some(b) = p.blocks.get_mut(&seq) else {
                return;
            };
            let st = &mut b.ops[id as usize];
            st.fired = true;
            let vals = st.val;
            let nulls = st.is_null;
            if let Some(pr) = b.prof.as_deref_mut() {
                pr.issue[id as usize] = now;
            }
            let inst = &b.tmpl.block.instructions()[id as usize];
            (
                inst.opcode,
                inst.imm,
                inst.lsid,
                inst.branch,
                inst.targets,
                inst.pred,
                vals,
                nulls,
                b.addr,
            )
        };
        {
            let p = &mut self.procs[pi];
            p.stats.insts_fired += 1;
            if opcode.class() == OpcodeClass::Float {
                p.stats.fp_ops += 1;
            } else {
                p.stats.int_ops += 1;
            }
        }
        let issue_core = self.procs[pi].cores[part];
        self.tracer.emit(now, || TraceEvent::InstIssued {
            proc: pi,
            core: issue_core,
            block: blk_addr,
            inst: id as usize,
            opcode: opcode.mnemonic(),
        });

        // Predicated-off instructions consume the slot and vanish.
        if let Some(sense) = pred {
            let pv = vals[2].unwrap_or(0);
            let pv = if nulls[2] { 0 } else { pv };
            if !sense.matches(pv) {
                return;
            }
        }

        let left = if nulls[0] { 0 } else { vals[0].unwrap_or(0) };
        let right = if nulls[1] { 0 } else { vals[1].unwrap_or(0) };
        let latency = u64::from(opcode.latency());

        match opcode {
            Opcode::Bro => {
                let info = branch.expect("bro has branch info");
                let actual = match info.kind {
                    BranchKind::Return => left,
                    _ => info
                        .target
                        .unwrap_or(self.procs[pi].blocks[&seq].addr + 512),
                };
                let outcome = ExitOutcome {
                    exit_id: info.exit_id,
                    kind: info.kind,
                    target: actual,
                };
                let (owner_core, from) = {
                    let p = &self.procs[pi];
                    let b = &p.blocks[&seq];
                    let op = b.owner_part(p.n, self.cfg.centralized_control);
                    (p.cores[op], p.cores[part])
                };
                let d = self.ctrl_delay(from, owner_core);
                self.push_local(
                    now + latency + d,
                    Ev::Branch {
                        proc: pi,
                        seq,
                        outcome,
                        prov: Prov {
                            kind: ProvKind::Exec,
                            inst: id,
                            from: from as u8,
                            origin: now,
                            sent: now + latency,
                            aux: 0,
                        },
                    },
                );
            }
            op if op.is_load() || op.is_store() => {
                let l = lsid.expect("memory op has lsid").index() as u8;
                if op.is_load() {
                    // Conservative ordering for previously-violating
                    // blocks: the load waits until every older-LSID store
                    // slot has resolved (the LSID order is acyclic, so
                    // this cannot deadlock).
                    let defer = {
                        let b = &self.procs[pi].blocks[&seq];
                        let older = b.tmpl.store_mask & ((1u32 << l) - 1);
                        b.conservative && older & !b.stores_resolved != 0
                    };
                    if defer {
                        self.procs[pi]
                            .blocks
                            .get_mut(&seq)
                            .expect("exists")
                            .deferred_loads
                            .push((part, id));
                        return;
                    }
                }
                self.send_mem_req(
                    pi,
                    seq,
                    part,
                    id,
                    op.is_store(),
                    l,
                    imm,
                    left,
                    right,
                    targets,
                );
            }
            Opcode::Null if lsid.is_some() => {
                // Store-slot nullification: an output resolves.
                let (owner_core, from) = {
                    let p = &self.procs[pi];
                    let b = &p.blocks[&seq];
                    let op = b.owner_part(p.n, self.cfg.centralized_control);
                    (p.cores[op], p.cores[part])
                };
                let d = self.ctrl_delay(from, owner_core);
                self.push_local(
                    now + latency + d,
                    Ev::OutputDone {
                        proc: pi,
                        seq,
                        lsid: Some(lsid.expect("checked").index() as u8),
                        prov: Prov {
                            kind: ProvKind::Exec,
                            inst: id,
                            from: from as u8,
                            origin: now,
                            sent: now + latency,
                            aux: 0,
                        },
                    },
                );
            }
            Opcode::Null => {
                // Null token to consumers (typically a WRITE).
                let from = self.procs[pi].cores[part];
                self.push_local(
                    now + latency,
                    Ev::SendOperands {
                        from,
                        proc: pi,
                        seq,
                        targets,
                        value: None,
                        prov: Prov {
                            kind: ProvKind::Exec,
                            inst: id,
                            from: from as u8,
                            origin: now,
                            sent: now + latency,
                            aux: 0,
                        },
                    },
                );
            }
            _ => {
                let result = clp_isa::value::eval(opcode, imm, left, right);
                let from = self.procs[pi].cores[part];
                let p = &mut self.procs[pi];
                let push_seq = p.exec_pushes;
                p.exec_pushes += 1;
                p.exec_mask |= 1 << part;
                p.exec[part].push(Reverse(ExecDone {
                    done: now + latency,
                    push_seq,
                    seq,
                    inst: id,
                    result: Some(result),
                }));
                let _ = from;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_mem_req(
        &mut self,
        pi: usize,
        seq: u64,
        part: usize,
        id: u8,
        store: bool,
        lsid: u8,
        imm: i64,
        left: u64,
        right: u64,
        targets: [Option<Target>; 2],
    ) {
        let ea = ((left as i64).wrapping_add(imm) as u64).wrapping_add(self.procs[pi].addr_base);
        let (size, origin) = {
            let b = &self.procs[pi].blocks[&seq];
            let size = match b.tmpl.block.instructions()[id as usize].opcode {
                Opcode::Ldb | Opcode::Stb => 1,
                _ => 8,
            };
            // MemWait starts at the load/store's issue cycle — deferred
            // loads released by conservative ordering keep their original
            // issue as origin, so the deferral charges to MemWait.
            let origin = b.prof.as_deref().map_or(0, |pr| pr.issue[id as usize]);
            (size, origin)
        };
        let (bank_core, from) = {
            let p = &self.procs[pi];
            let bank_part = dbank_for(ea, p.n);
            (p.cores[bank_part], p.cores[part])
        };
        let msg = OpMsg::MemReq {
            proc: pi,
            seq,
            lsid,
            store,
            addr: ea,
            size,
            value: right,
            targets,
            prov: Prov {
                kind: ProvKind::Load,
                inst: id,
                from: from as u8,
                origin,
                sent: self.now,
                aux: 0,
            },
        };
        if bank_core == from {
            self.push_local(self.now + 1, Ev::Op(bank_core, msg));
        } else {
            self.inject_op_msg(from, bank_core, msg);
        }
    }

    fn completion_stage(&mut self, pi: usize) {
        if self.procs[pi].exec_mask == 0 {
            return;
        }
        let now = self.now;
        // Parts with in-flight completions, ascending (see `issue_stage`).
        let mut above = 0;
        while let Some(part) = next_part(self.procs[pi].exec_mask, above) {
            above = part + 1;
            if self.has_kills && self.dead[self.procs[pi].cores[part]] {
                continue;
            }
            loop {
                // The heap pops by (done, issue order): every latency is
                // >= 1, so due items complete exactly this cycle and come
                // out in the same order the old FIFO scan produced.
                let item = {
                    let q = &mut self.procs[pi].exec[part];
                    match q.peek() {
                        Some(&Reverse(e)) if e.done <= now => q.pop().map(|Reverse(e)| e),
                        _ => None,
                    }
                };
                let Some(ExecDone {
                    seq,
                    inst: id,
                    result,
                    ..
                }) = item
                else {
                    break;
                };
                let (alive, targets, origin) = {
                    let p = &self.procs[pi];
                    match p.blocks.get(&seq) {
                        Some(b) => (
                            true,
                            b.tmpl.block.instructions()[id as usize].targets,
                            b.prof.as_deref().map_or(0, |pr| pr.issue[id as usize]),
                        ),
                        None => (false, [None, None], 0),
                    }
                };
                if alive {
                    let from = self.procs[pi].cores[part];
                    let prov = Prov {
                        kind: ProvKind::Exec,
                        inst: id,
                        from: from as u8,
                        origin,
                        sent: now,
                        aux: 0,
                    };
                    self.route_operands(from, pi, seq, &targets, result, prov);
                }
            }
            if self.procs[pi].exec[part].is_empty() {
                self.procs[pi].exec_mask &= !(1 << part);
            }
        }
    }

    // -- message handling -----------------------------------------------------

    fn handle_op(&mut self, core: usize, msg: OpMsg) {
        // Messages delivered to a dead core vanish — its receive queues
        // are powered off along with everything else.
        if self.has_kills && self.dead[core] {
            return;
        }
        match msg {
            OpMsg::Operand {
                proc,
                seq,
                target,
                value,
                prov,
            } => {
                let part = match self.core_map[core] {
                    Some((pp, part)) if pp == proc => part,
                    _ => return,
                };
                {
                    let p = &mut self.procs[proc];
                    let Some(b) = p.blocks.get_mut(&seq) else {
                        return;
                    };
                    let st = &mut b.ops[target.inst.index()];
                    let slot = target.operand.encode() as usize;
                    st.got[slot] = true;
                    st.val[slot] = value;
                    st.is_null[slot] = value.is_none();
                }
                self.maybe_ready(proc, seq, part, target.inst.index() as u8, prov);
            }
            OpMsg::ReadReq {
                proc,
                seq,
                reg,
                targets,
                prov,
            } => {
                if !self.procs[proc].blocks.contains_key(&seq) {
                    return;
                }
                self.try_read(proc, seq, reg, targets, core, prov);
            }
            OpMsg::WriteFwd {
                proc,
                seq,
                reg,
                value,
                prov,
            } => {
                let alive = self.procs[proc].blocks.contains_key(&seq);
                if !alive {
                    return;
                }
                self.procs[proc].regs.forward_write(reg, seq, value);
                // Output resolves at the owner.
                let owner_core = {
                    let p = &self.procs[proc];
                    let b = &p.blocks[&seq];
                    let op = b.owner_part(p.n, self.cfg.centralized_control);
                    p.cores[op]
                };
                let d = self.ctrl_delay(core, owner_core);
                self.push_local(
                    self.now + d,
                    Ev::OutputDone {
                        proc,
                        seq,
                        lsid: None,
                        prov,
                    },
                );
                self.retry_waiting_reads(proc, reg);
            }
            OpMsg::MemReq {
                proc,
                seq,
                lsid,
                store,
                addr,
                size,
                value,
                targets,
                prov,
            } => {
                if !self.procs[proc].blocks.contains_key(&seq) {
                    return;
                }
                let gseq = seq * 32 + u64::from(lsid);
                // Forced NACK: the bank refuses a request it could have
                // accepted. The request retries through the existing
                // NACK/replay path; no overflow eviction (the LSQ is not
                // actually full, so no forward-progress action is owed).
                if self.faults.active() && self.faults.forced_nack() {
                    let retry_wait = u64::from(self.cfg.nack_retry);
                    self.tracer.emit(self.now, || TraceEvent::FaultInjected {
                        kind: "forced_nack",
                        core,
                        extra_cycles: retry_wait,
                    });
                    self.mem.note_injected_nack(core, addr);
                    self.procs[proc].stats.nack_retries += 1;
                    self.push_local(
                        self.now + retry_wait,
                        Ev::Op(
                            core,
                            OpMsg::MemReq {
                                proc,
                                seq,
                                lsid,
                                store,
                                addr,
                                size,
                                value,
                                targets,
                                prov,
                            },
                        ),
                    );
                    return;
                }
                if store {
                    match self.mem.execute_store(core, gseq, addr, size, value) {
                        StoreResponse::Nack => {
                            self.procs[proc].stats.nack_retries += 1;
                            self.overflow_flush(proc, core, seq);
                            let retry = self.now + u64::from(self.cfg.nack_retry);
                            self.push_local(
                                retry,
                                Ev::Op(
                                    core,
                                    OpMsg::MemReq {
                                        proc,
                                        seq,
                                        lsid,
                                        store,
                                        addr,
                                        size,
                                        value,
                                        targets,
                                        prov,
                                    },
                                ),
                            );
                        }
                        StoreResponse::Ok { violation } => {
                            self.procs[proc].stats.stores += 1;
                            let owner_core = {
                                let p = &self.procs[proc];
                                let b = &p.blocks[&seq];
                                let op = b.owner_part(p.n, self.cfg.centralized_control);
                                p.cores[op]
                            };
                            let d = self.ctrl_delay(core, owner_core);
                            self.push_local(
                                self.now + d,
                                Ev::OutputDone {
                                    proc,
                                    seq,
                                    lsid: Some(lsid),
                                    prov: Prov {
                                        from: core as u8,
                                        sent: self.now,
                                        ..prov
                                    },
                                },
                            );
                            if let Some(vseq) = violation {
                                self.procs[proc].stats.violations += 1;
                                let vblock = vseq / 32;
                                self.violation_flush(proc, vblock, FlushReason::Violation);
                            }
                        }
                    }
                } else {
                    match self.mem.execute_load(core, gseq, addr, size) {
                        LoadResponse::Nack => {
                            self.procs[proc].stats.nack_retries += 1;
                            self.overflow_flush(proc, core, seq);
                            let retry = self.now + u64::from(self.cfg.nack_retry);
                            self.push_local(
                                retry,
                                Ev::Op(
                                    core,
                                    OpMsg::MemReq {
                                        proc,
                                        seq,
                                        lsid,
                                        store,
                                        addr,
                                        size,
                                        value,
                                        targets,
                                        prov,
                                    },
                                ),
                            );
                        }
                        LoadResponse::Ok {
                            value,
                            latency,
                            served,
                        } => {
                            self.procs[proc].stats.loads += 1;
                            // DRAM spike: the reply is charged extra
                            // cycles, as if the line had missed all the
                            // way to a busy memory controller. The value
                            // is unchanged — only its arrival time moves.
                            let mut total = u64::from(latency);
                            if self.faults.active() {
                                if let Some(extra) = self.faults.dram_spike() {
                                    self.tracer.emit(self.now, || TraceEvent::FaultInjected {
                                        kind: "dram_spike",
                                        core,
                                        extra_cycles: extra,
                                    });
                                    self.mem.note_injected_dram_spike(core, extra);
                                    total += extra;
                                }
                            }
                            self.push_local(
                                self.now + total,
                                Ev::SendOperands {
                                    from: core,
                                    proc,
                                    seq,
                                    targets,
                                    value: Some(value),
                                    prov: Prov {
                                        kind: ProvKind::Load,
                                        inst: prov.inst,
                                        from: core as u8,
                                        origin: prov.origin,
                                        sent: self.now + total,
                                        aux: match served {
                                            LoadServe::Forward => 0,
                                            LoadServe::L1 => 1,
                                            LoadServe::Miss => 2,
                                        },
                                    },
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    fn try_read(
        &mut self,
        proc: usize,
        seq: u64,
        reg: Reg,
        targets: [Option<Target>; 2],
        bank_core: usize,
        prov: Prov,
    ) {
        match self.procs[proc].regs.read(reg, seq) {
            RegRead::Ready(v) => {
                self.procs[proc].stats.reg_reads += 1;
                self.push_local(
                    self.now + 1,
                    Ev::SendOperands {
                        from: bank_core,
                        proc,
                        seq,
                        targets,
                        value: Some(v),
                        prov: Prov {
                            kind: ProvKind::RegRead,
                            inst: prov.inst,
                            from: bank_core as u8,
                            origin: prov.origin,
                            sent: self.now + 1,
                            aux: 0,
                        },
                    },
                );
            }
            RegRead::Wait => {
                self.procs[proc].waiting_reads.push(WaitingRead {
                    seq,
                    reg,
                    targets,
                    bank_core,
                    prov,
                });
            }
        }
    }

    fn retry_waiting_reads(&mut self, proc: usize, reg: Reg) {
        // Stable in-place partition: matching reads move (in order) to
        // the scratch buffer, the rest compact down without reordering.
        // Retries that miss again re-append behind the kept entries —
        // exactly the order the old drain-and-partition produced, and
        // order matters: each retry schedules a SendOperands whose
        // within-cycle position feeds mesh arbitration.
        let mut hit = std::mem::take(&mut self.scratch_reads);
        debug_assert!(hit.is_empty());
        {
            let p = &mut self.procs[proc];
            let mut kept = 0;
            for i in 0..p.waiting_reads.len() {
                let w = p.waiting_reads[i];
                if w.reg == reg {
                    hit.push(w);
                } else {
                    p.waiting_reads[kept] = w;
                    kept += 1;
                }
            }
            p.waiting_reads.truncate(kept);
        }
        for &w in &hit {
            if self.procs[proc].blocks.contains_key(&w.seq) {
                self.try_read(proc, w.seq, w.reg, w.targets, w.bank_core, w.prov);
            }
        }
        hit.clear();
        self.scratch_reads = hit;
    }

    // -- owner logic: resolution, flush, commit -----------------------------

    fn on_branch(&mut self, pi: usize, seq: u64, outcome: ExitOutcome, prov: Prov) {
        let now = self.now;
        let exists = self.procs[pi].blocks.contains_key(&seq);
        if !exists || self.procs[pi].blocks[&seq].resolved {
            return;
        }
        // The resolution protocol runs on the block's owner; a dead
        // owner never sees the branch arrive.
        if self.owner_dead(pi, seq) {
            return;
        }
        {
            let b = self.procs[pi].blocks.get_mut(&seq).expect("exists");
            b.resolved = true;
            b.outcome = Some(outcome);
            b.outputs_done += 1; // the branch is an output
            if let Some(pr) = b.prof.as_deref_mut() {
                pr.t_resolved = now;
                pr.bro_prov = prov;
            }
        }
        let next_pred = self.procs[pi].blocks[&seq].next_pred;
        let spec_next = self.procs[pi].blocks[&seq].spec_next;
        let addr = self.procs[pi].blocks[&seq].addr;
        let is_halt = outcome.kind == BranchKind::Halt;

        match next_pred {
            Some(pred) => {
                let mispredicted = is_halt || pred.target != outcome.target;
                self.tracer.emit(now, || TraceEvent::BranchResolved {
                    proc: pi,
                    addr,
                    correct: !mispredicted,
                });
                if mispredicted {
                    self.procs[pi].stats.mispredicts += 1;
                    self.tracer.emit(now, || TraceEvent::BlockFlushed {
                        proc: pi,
                        addr,
                        reason: FlushReason::Mispredict,
                    });
                    // Roll back orphaned younger predictions, youngest first.
                    self.flush_from(pi, seq + 1);
                    {
                        let p = &mut self.procs[pi];
                        p.predictor.resolve(addr, &pred, &outcome, true);
                        p.pending = None;
                        p.chain_next = None;
                        if is_halt {
                            p.halt_seq = Some(seq);
                        }
                    }
                    if !is_halt {
                        // The flush broadcast must reach every core before
                        // the corrected chain restarts.
                        let owner = {
                            let p = &self.procs[pi];
                            let op = if self.cfg.centralized_control {
                                0
                            } else {
                                block_owner(addr, p.n)
                            };
                            p.cores[op]
                        };
                        let redirect_delay = self.procs[pi]
                            .cores
                            .iter()
                            .map(|&c| self.ctrl_delay(owner, c))
                            .max()
                            .unwrap_or(1);
                        self.procs[pi].pending = Some(PendingFetch {
                            addr: outcome.target,
                            ready_at: now + redirect_delay,
                            hand_off_cycles: 0.0,
                            reason: FetchReason::Redirect,
                        });
                    }
                } else {
                    let p = &mut self.procs[pi];
                    p.predictor.resolve(addr, &pred, &outcome, false);
                }
            }
            None => {
                // Non-speculative sequencing (single-block windows or a
                // freshly redirected chain whose successor is not yet
                // pending).
                if is_halt {
                    if self.procs[pi].blocks.has_from(seq + 1) {
                        self.tracer.emit(now, || TraceEvent::BlockFlushed {
                            proc: pi,
                            addr,
                            reason: FlushReason::Mispredict,
                        });
                    }
                    self.flush_from(pi, seq + 1);
                    self.procs[pi].halt_seq = Some(seq);
                    self.procs[pi].pending = None;
                    self.procs[pi].chain_next = None;
                } else if spec_next.is_none() && self.procs[pi].max_inflight == 1 {
                    let p = &mut self.procs[pi];
                    if p.pending.is_none() {
                        p.pending = Some(PendingFetch {
                            addr: outcome.target,
                            ready_at: now + 1,
                            hand_off_cycles: 0.0,
                            reason: FetchReason::Sequential,
                        });
                    }
                }
            }
        }
        self.check_commit(pi);
    }

    /// Rolls back orphaned predictions and squashes blocks `>= from`.
    fn flush_from(&mut self, pi: usize, from: u64) {
        let p = &mut self.procs[pi];
        if p.halt_seq.is_some_and(|h| h >= from) {
            p.halt_seq = None;
        }
        // Squash youngest-first, rolling back each block's orphaned
        // speculation (its own next_pred, i.e. the prediction for the
        // block beyond it) on the way.
        let before = p.blocks.len();
        while let Some(b) = p.blocks.pop_back_from(from) {
            if let Some(pred) = b.next_pred {
                p.predictor.rollback(&pred);
            }
            p.slots_free += 1;
            p.stats.blocks_flushed += 1;
        }
        if p.blocks.len() < before {
            p.armed.truncate(p.armed.partition_point(|&s| s < from));
            // The block numbering restarts after the flushed range so
            // stale in-flight messages can never alias re-fetched blocks.
            p.regs.flush_from(from);
            p.ready_mask = 0;
            for (part, list) in p.ready.iter_mut().enumerate() {
                list.truncate(list.partition_point(|&(s, _)| s < from));
                if !list.is_empty() {
                    p.ready_mask |= 1 << part;
                }
            }
            p.exec_mask = 0;
            for (part, q) in p.exec.iter_mut().enumerate() {
                q.retain(|&Reverse(e)| e.seq < from);
                if !q.is_empty() {
                    p.exec_mask |= 1 << part;
                }
            }
            p.waiting_reads.retain(|w| w.seq < from);
            self.mem.flush_from(&self.procs[pi].cores, from * 32);
            // Re-check surviving reads that may have been waiting on
            // flushed writers, in order; misses re-append behind via
            // the normal Wait path. The scratch buffer keeps this
            // allocation-free.
            let mut retry = std::mem::take(&mut self.scratch_reads);
            debug_assert!(retry.is_empty());
            retry.append(&mut self.procs[pi].waiting_reads);
            for &w in &retry {
                if self.procs[pi].blocks.contains_key(&w.seq) {
                    self.try_read(pi, w.seq, w.reg, w.targets, w.bank_core, w.prov);
                }
            }
            retry.clear();
            self.scratch_reads = retry;
        }
        // The youngest surviving block no longer speculates a successor.
        if let Some(b) = self.procs[pi].blocks.last_mut() {
            if b.seq < from {
                // Its spec_next (if it pointed at a flushed block) is now
                // moot; keep next_pred for training at resolution.
                if b.next_pred.is_none() {
                    b.spec_next = None;
                }
            }
        }
    }

    /// Forward progress for the NACK overflow protocol: a request from
    /// the *oldest* in-flight block that keeps getting NACKed can only be
    /// satisfied by freeing LSQ entries, so the youngest block is
    /// squashed (and refetched later). Bank capacity (44) exceeds one
    /// block's LSID budget (32), so the oldest block alone always fits.
    fn overflow_flush(&mut self, pi: usize, bank_core: usize, nacked_seq: u64) {
        // Age-based eviction (the forward-progress half of the NACK
        // protocol): if the full bank holds entries from a block younger
        // than the requester, squash that youngest block; its re-fetch
        // re-executes long after the NACKed request retries, so older
        // requests always make progress.
        let Some(y_gseq) = self.mem.lsq_youngest(bank_core) else {
            return;
        };
        let y_block = y_gseq / 32;
        if y_block > nacked_seq && self.procs[pi].blocks.contains_key(&y_block) {
            self.violation_flush(pi, y_block, FlushReason::Overflow);
        }
    }

    /// Flush after a load/store ordering violation (or LSQ overflow
    /// eviction) at block `vblock`: squash it and everything younger,
    /// then refetch the same address.
    fn violation_flush(&mut self, pi: usize, vblock: u64, reason: FlushReason) {
        let Some(addr) = self.procs[pi].blocks.get(&vblock).map(|b| b.addr) else {
            return;
        };
        self.tracer.emit(self.now, || TraceEvent::BlockFlushed {
            proc: pi,
            addr,
            reason,
        });
        // Train the dependence predictor: future fetches of this block
        // order their loads behind older stores.
        self.procs[pi].violated_addrs.insert(addr);
        self.flush_from(pi, vblock);
        let p = &mut self.procs[pi];
        p.chain_next = None;
        p.pending = Some(PendingFetch {
            addr,
            ready_at: self.now + 2,
            hand_off_cycles: 0.0,
            reason: FetchReason::Refetch,
        });
    }

    fn on_output_done(&mut self, pi: usize, seq: u64, lsid: Option<u8>, prov: Prov) {
        // Output acks collect at the block's owner; a dead owner never
        // tallies them.
        if self.owner_dead(pi, seq) {
            return;
        }
        let now = self.now;
        let mut ready_loads = std::mem::take(&mut self.scratch_loads);
        debug_assert!(ready_loads.is_empty());
        if let Some(b) = self.procs[pi].blocks.get_mut(&seq) {
            b.outputs_done += 1;
            if !b.committing {
                if let Some(pr) = b.prof.as_deref_mut() {
                    pr.t_last_output = now;
                    pr.out_prov = prov;
                }
            }
            if let Some(l) = lsid {
                b.stores_resolved |= 1 << l;
                // Release conservative loads whose older stores resolved
                // — a stable in-place partition: released loads collect
                // (in order) into the scratch buffer, the rest compact
                // down without reordering or reallocating.
                let resolved = b.stores_resolved;
                let mask = b.tmpl.store_mask;
                let block = &b.tmpl.block;
                let mut kept = 0;
                for i in 0..b.deferred_loads.len() {
                    let (part, id) = b.deferred_loads[i];
                    let ll = block.instructions()[id as usize]
                        .lsid
                        .expect("load has lsid")
                        .index() as u8;
                    let older = mask & ((1u32 << ll) - 1);
                    if older & !resolved == 0 {
                        ready_loads.push((part, id));
                    } else {
                        b.deferred_loads[kept] = (part, id);
                        kept += 1;
                    }
                }
                b.deferred_loads.truncate(kept);
            }
        }
        for &(part, id) in &ready_loads {
            let (op_is_store, l, imm, left, right, targets) = {
                let b = &self.procs[pi].blocks[&seq];
                let inst = &b.tmpl.block.instructions()[id as usize];
                let st = &b.ops[id as usize];
                (
                    inst.opcode.is_store(),
                    inst.lsid.expect("has lsid").index() as u8,
                    inst.imm,
                    if st.is_null[0] {
                        0
                    } else {
                        st.val[0].unwrap_or(0)
                    },
                    if st.is_null[1] {
                        0
                    } else {
                        st.val[1].unwrap_or(0)
                    },
                    inst.targets,
                )
            };
            self.send_mem_req(pi, seq, part, id, op_is_store, l, imm, left, right, targets);
        }
        ready_loads.clear();
        self.scratch_loads = ready_loads;
        self.check_commit(pi);
    }

    fn check_commit(&mut self, pi: usize) {
        let now = self.now;
        // No new block passes the commit point while a recovery is
        // draining — only already-committing blocks finish.
        if self.procs[pi].recovery_pending {
            return;
        }
        let Some((seq, _)) = self.procs[pi].blocks.first() else {
            return;
        };
        // A dead owner cannot run the commit handshake.
        if self.owner_dead(pi, seq) {
            return;
        }
        let ready = {
            let b = &self.procs[pi].blocks[&seq];
            !b.committing
                && b.resolved
                && b.outputs_done >= b.tmpl.outputs_needed
                && b.dispatch_pending_cores == 0
        };
        if !ready {
            return;
        }
        self.last_progress = now;
        // Commit: functional effects now; timing modeled analytically.
        let (owner_core, n) = {
            let p = &self.procs[pi];
            let b = &p.blocks[&seq];
            let op = b.owner_part(p.n, self.cfg.centralized_control);
            (p.cores[op], p.n)
        };
        // Count register writes per bank before committing them. A
        // block writes at most 32 registers, so a fixed array replaces
        // the per-commit heap allocation (`n <= 32` participants).
        let mut reg_writes_per_bank = [0u32; 32];
        {
            let b = &self.procs[pi].blocks[&seq];
            for &(_, reg) in b.tmpl.block.writes() {
                reg_writes_per_bank[reg.bank_of(n)] += 1;
            }
        }
        self.procs[pi].regs.commit(seq);
        let lo = seq * 32;
        let hi = lo + 32;
        let mut last_ack = now + 1;
        let mut max_update = 0u64;
        for (part, &bank_writes) in reg_writes_per_bank.iter().enumerate().take(n) {
            let core = self.procs[pi].cores[part];
            let cmd = self.ctrl_delay(owner_core, core);
            let store_lat = u64::from(self.mem.commit_stores_core(core, lo, hi));
            let update = store_lat.max(u64::from(bank_writes));
            max_update = max_update.max(update);
            let ack = now + cmd + update + cmd;
            last_ack = last_ack.max(ack);
        }
        {
            let b = self.procs[pi].blocks.get_mut(&seq).expect("exists");
            b.committing = true;
            b.t_dispatch_done = b.t_dispatch_done.max(b.t_init);
            if let Some(pr) = b.prof.as_deref_mut() {
                pr.t_commit_start = now;
            }
        }
        // Record commit-latency components.
        {
            let p = &mut self.procs[pi];
            p.stats.commit_lat_sum.arch_update += max_update as f64;
            p.stats.commit_lat_sum.handshake += (last_ack - now) as f64 - max_update as f64;
            p.stats.commit_samples += 1;
        }
        self.push_local(last_ack, Ev::CommitDone { proc: pi, seq });
    }

    fn on_commit_done(&mut self, pi: usize, seq: u64) {
        let now = self.now;
        let Some(b) = self.procs[pi].blocks.remove(&seq) else {
            return;
        };
        // Commit gates on dispatch_pending_cores == 0, so every slice is
        // done and the block can't still be counted as armed.
        debug_assert_eq!(b.runnable, 0);
        // Commit completion is past the point of no return: the block's
        // functional effects applied when the handshake started, so it
        // finishes even if its owner died mid-handshake (modeling
        // simplification, see DESIGN.md).
        self.last_progress = now;
        self.procs[pi].last_beat = now;
        let (owner_core, max_hop) = {
            let p = &self.procs[pi];
            let op = b.owner_part(p.n, self.cfg.centralized_control);
            let owner = p.cores[op];
            let mh = p
                .cores
                .iter()
                .map(|&c| self.ctrl_delay(owner, c))
                .max()
                .unwrap_or(1);
            (owner, mh)
        };
        let fired = b.ops.iter().filter(|o| o.fired).count();
        self.tracer.emit(now, || TraceEvent::BlockCommitted {
            proc: pi,
            core: owner_core,
            addr: b.addr,
            insts: fired,
        });
        {
            let p = &mut self.procs[pi];
            p.stats.blocks_committed += 1;
            p.stats.insts_dispatched += b.tmpl.block.len() as u64;
            p.stats.insts_committed += fired as u64;
            // Fig 9a components for this committed block.
            p.stats.fetch_lat_sum.prediction += b.predict_cycles;
            p.stats.fetch_lat_sum.tag_access += 1.0;
            p.stats.fetch_lat_sum.hand_off += b.hand_off_cycles;
            p.stats.fetch_lat_sum.fetch_distribution +=
                b.t_last_cmd.saturating_sub(b.t_cmds_sent) as f64;
            p.stats.fetch_lat_sum.dispatch += b.t_dispatch_done.saturating_sub(b.t_last_cmd) as f64;
            p.stats.fetch_samples += 1;
        }
        // Dealloc: the fetch engine learns about the free slot after the
        // dealloc broadcast reaches the prospective owner.
        self.push_local(now + max_hop, Ev::SlotFree { proc: pi });
        if b.outcome.map(|o| o.kind) == Some(BranchKind::Halt) {
            let p = &mut self.procs[pi];
            p.halted = true;
            p.stats.cycles = now;
        } else if let Some(o) = b.outcome {
            // Recovery resume point of last resort: the architecturally
            // committed successor of the last committed block.
            self.procs[pi].last_commit_target = Some(o.target);
        }
        if self.prof.is_some() {
            self.profile_commit(pi, &b, now);
        }
        self.check_commit(pi);
    }

    /// Attributes every cycle of a committed block's fetch-to-commit span
    /// to a top-down bucket by walking last-arrival edges backward from
    /// the commit handshake.
    ///
    /// Two books are kept:
    /// * **block-level** — the full `[t_init, t_end)` span, tiled exactly
    ///   by the segments the backward walk cuts (buckets sum to the span);
    /// * **run-level** — the same segments clipped at the previous commit
    ///   end, so overlapped blocks are not double-counted and per-proc run
    ///   totals sum to the final commit cycle.
    fn profile_commit(&mut self, pi: usize, b: &Blk, t_end: u64) {
        let Some(pr) = b.prof.as_deref() else {
            return;
        };
        let n = self.procs[pi].n;
        let cores = &self.procs[pi].cores;
        let owner = cores[b.owner_part(n, self.cfg.centralized_control)];
        let mesh = self.cfg.operand_net;
        let t0 = b.t_init.min(t_end);

        // A backward "cutter": each cut takes `[max(t0, min(start,
        // cursor)), cursor)` and lowers the cursor, so the segments tile
        // `[t0, t_end)` exactly regardless of timestamp noise.
        type Seg = (u64, u64, Bucket, usize, Option<(usize, usize)>);
        struct Cutter {
            t0: u64,
            cursor: u64,
            segs: Vec<Seg>,
        }
        impl Cutter {
            fn cut(
                &mut self,
                start: u64,
                bucket: Bucket,
                core: usize,
                link: Option<(usize, usize)>,
            ) {
                let s = start.clamp(self.t0, self.cursor);
                if s < self.cursor {
                    self.segs.push((s, self.cursor, bucket, core, link));
                }
                self.cursor = s;
            }
        }
        let mut cutter = Cutter {
            t0,
            cursor: t_end,
            segs: Vec::with_capacity(16),
        };

        cutter.cut(pr.t_commit_start, Bucket::Commit, owner, None);

        // Which event gated commit? Ties break toward the later stage
        // (output drain >= branch resolution >= dispatch).
        let g_out = pr.t_last_output;
        let g_res = pr.t_resolved;
        let g_disp = b.t_dispatch_done;
        let mut chain_from: Option<Prov> = None;
        if g_out >= g_res && g_out >= g_disp {
            cutter.cut(g_out, Bucket::CommitWait, owner, None);
            cutter.cut(pr.out_prov.origin, Bucket::OutputDrain, owner, None);
            chain_from = Some(pr.out_prov);
        } else if g_res >= g_disp {
            cutter.cut(g_res, Bucket::CommitWait, owner, None);
            cutter.cut(pr.bro_prov.origin, Bucket::Resolve, owner, None);
            chain_from = Some(pr.bro_prov);
        } else {
            cutter.cut(g_disp, Bucket::CommitWait, owner, None);
        }

        // Walk the last-arrival chain backward through the dataflow graph.
        let mut edges = 0u64;
        let mut load_class = [0u64; 3];
        if let Some(head) = chain_from {
            let core_of = |inst: u8| cores[(inst as usize) % n];
            let mut i = head.inst as usize;
            for _ in 0..(4 * pr.edge.len().max(1)) {
                if cutter.cursor <= t0 || i >= pr.edge.len() {
                    break;
                }
                edges += 1;
                let here = core_of(i as u8);
                cutter.cut(pr.ready[i], Bucket::IssueWait, here, None);
                let e = pr.edge[i];
                match e.kind {
                    ProvKind::Dispatch => break,
                    ProvKind::Exec => {
                        if e.from as usize == here {
                            cutter.cut(e.sent, Bucket::OperandLocal, here, None);
                        } else {
                            cutter.cut(
                                e.sent,
                                Bucket::OperandNoc,
                                here,
                                Some((e.from as usize, here)),
                            );
                        }
                        cutter.cut(e.origin, Bucket::Execute, e.from as usize, None);
                        i = e.inst as usize;
                    }
                    ProvKind::Load => {
                        if e.from as usize == here {
                            cutter.cut(e.sent, Bucket::OperandLocal, here, None);
                        } else {
                            cutter.cut(
                                e.sent,
                                Bucket::OperandNoc,
                                here,
                                Some((e.from as usize, here)),
                            );
                        }
                        cutter.cut(e.origin, Bucket::MemWait, e.from as usize, None);
                        load_class[(e.aux as usize).min(2)] += 1;
                        // Continue through the load's own address operands.
                        i = e.inst as usize;
                    }
                    ProvKind::RegRead => {
                        if e.from as usize == here {
                            cutter.cut(e.sent, Bucket::OperandLocal, here, None);
                        } else {
                            cutter.cut(
                                e.sent,
                                Bucket::OperandNoc,
                                here,
                                Some((e.from as usize, here)),
                            );
                        }
                        cutter.cut(e.origin, Bucket::RegWait, e.from as usize, None);
                        break;
                    }
                }
            }
        }
        // Whatever remains below the walk is block fetch/dispatch work.
        cutter.cut(t0, Bucket::Fetch, owner, None);

        let chain_len = edges;
        let acc = self.prof.as_deref_mut().expect("profiling enabled");
        if acc.per_proc.len() <= pi {
            acc.per_proc.resize_with(pi + 1, ProcProfile::default);
        }
        if acc.last_commit_end.len() <= pi {
            acc.last_commit_end.resize(pi + 1, 0);
        }
        let lc = acc.last_commit_end[pi];
        let pp = &mut acc.per_proc[pi];

        // Block-level book: the unclipped span.
        pp.blocks += 1;
        pp.block_cycles += t_end - t0;
        pp.record_span(b.addr, t_end - t0);
        for &(s, e, bucket, _, _) in &cutter.segs {
            pp.block_buckets.add(bucket, e - s);
        }
        pp.crit_path_edges += edges;
        pp.longest_chain = pp.longest_chain.max(chain_len);
        pp.crit_loads_forwarded += load_class[0];
        pp.crit_loads_l1 += load_class[1];
        pp.crit_loads_missed += load_class[2];

        // Run-level book: commit-pull accounting. The gap between the
        // previous commit end and this block's init is charged to the
        // reason this block was fetched; segments are clipped at `lc`.
        if t0 > lc {
            let gap_bucket = match pr.reason {
                FetchReason::Entry | FetchReason::Sequential => Bucket::Fetch,
                FetchReason::HandOff => Bucket::HandOff,
                FetchReason::Redirect => Bucket::Mispredict,
                FetchReason::Refetch | FetchReason::Resume => Bucket::Squash,
            };
            let gap = t0 - lc;
            pp.run_buckets.add(gap_bucket, gap);
            acc.core_cycles[owner] += gap;
        }
        for &(s, e, bucket, core, link) in &cutter.segs {
            let s = s.max(lc);
            if s >= e {
                continue;
            }
            let d = e - s;
            pp.run_buckets.add(bucket, d);
            acc.core_cycles[core] += d;
            if let Some((a, bb)) = link {
                // Spread the stall across the dimension-order route.
                let path = mesh.route_nodes(NodeId(a), NodeId(bb));
                let hops = path.len().saturating_sub(1) as u64;
                if let Some(share) = d.checked_div(hops) {
                    let extra = (d % hops) as usize;
                    for (k, w) in path.windows(2).enumerate() {
                        let amount = share + u64::from(k < extra);
                        if amount > 0 {
                            *acc.link_cycles.entry((w[0].0, w[1].0)).or_insert(0) += amount;
                        }
                    }
                }
            }
        }
        pp.crit_path_cycles += t_end.saturating_sub(lc);
        acc.last_commit_end[pi] = t_end;
        let cum = pp.run_buckets.0;
        if self.tracer.enabled() {
            self.tracer.emit(t_end, || TraceEvent::ProfileBuckets {
                proc: pi,
                buckets: cum,
            });
        }
    }

    // -- main loop ------------------------------------------------------------

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        self.now += 1;
        self.mem.set_cycle(self.now);
        // Rotate the event wheel first: far events whose cycle just
        // entered the window must land in their slot before anything
        // this cycle can schedule after them.
        self.local.advance(self.now);
        // 0a. Hard faults: silence any core whose kill cycle arrived.
        if self.has_kills {
            self.apply_due_kills();
        }
        // 0. Fault layer: maybe start a link-contention burst (clamps
        // the operand mesh to bandwidth 1 for the burst length). One
        // Bernoulli draw per cycle; zero draws when the kind is off.
        if self.faults.active() {
            if let Some(len) = self.faults.noc_burst() {
                self.tracer.emit(self.now, || TraceEvent::FaultInjected {
                    kind: "noc_burst",
                    core: 0,
                    extra_cycles: len,
                });
                self.opnet.throttle(len);
            }
        }
        // 1. Networks.
        self.opnet.step();
        let mut delivered = std::mem::take(&mut self.scratch_delivered);
        self.opnet.swap_delivered(&mut delivered);
        for (node, msg) in delivered.drain(..) {
            self.handle_op(node.0, msg);
        }
        self.scratch_delivered = delivered;
        // 2. Scheduled local/control events.
        let mut evs = std::mem::take(&mut self.scratch_evs);
        debug_assert!(evs.is_empty());
        self.local.pop_due(self.now, &mut evs);
        {
            for ev in evs.drain(..) {
                match ev {
                    Ev::Op(core, msg) => self.handle_op(core, msg),
                    Ev::OutputDone {
                        proc,
                        seq,
                        lsid,
                        prov,
                    } => self.on_output_done(proc, seq, lsid, prov),
                    Ev::Branch {
                        proc,
                        seq,
                        outcome,
                        prov,
                    } => self.on_branch(proc, seq, outcome, prov),
                    Ev::HandOff { proc, addr } => self.on_handoff(proc, addr),
                    Ev::FetchCmd { proc, seq, part } => self.on_fetch_cmd(proc, seq, part),
                    Ev::SendOperands {
                        from,
                        proc,
                        seq,
                        targets,
                        value,
                        prov,
                    } => {
                        // A dead sender's queued operands never leave.
                        if self.has_kills && self.dead[from] {
                            continue;
                        }
                        if self.procs[proc].blocks.contains_key(&seq) {
                            self.route_operands(from, proc, seq, &targets, value, prov);
                        }
                    }
                    Ev::CommitDone { proc, seq } => self.on_commit_done(proc, seq),
                    Ev::SlotFree { proc } => {
                        // Clamp: a recovery resets slots to the (possibly
                        // smaller) degraded allocation while dealloc
                        // broadcasts from pre-recovery commits are still
                        // in flight. No-op on healthy runs.
                        let p = &mut self.procs[proc];
                        p.slots_free = (p.slots_free + 1).min(p.max_inflight);
                    }
                    Ev::Inject { from, to, msg } => {
                        // A dead core's NoC ports are powered off.
                        if self.has_kills && self.dead[from] {
                            continue;
                        }
                        self.opnet.inject(NodeId(from), NodeId(to), msg);
                    }
                }
            }
        }
        self.scratch_evs = evs;
        // 3. Per-proc pipeline stages.
        for pi in 0..self.procs.len() {
            if self.procs[pi].halted {
                continue;
            }
            if self.has_kills {
                self.watchdog(pi);
                if self.procs[pi].halted {
                    continue;
                }
            }
            self.fetch_stage(pi);
            self.dispatch_stage(pi);
            self.completion_stage(pi);
            self.issue_stage(pi);
            self.check_commit(pi);
        }
        // 4. Interval sampling: one integer compare unless a window
        // closes this cycle.
        if self.sampler.as_ref().is_some_and(|s| s.due(self.now)) {
            let counters = self.sample_counters();
            if let Some(s) = self.sampler.as_mut() {
                s.sample(self.now, counters);
            }
        }
        // 5. clp-trend columnar recording: same one-compare contract.
        if self.trend.as_ref().is_some_and(|t| t.due(self.now)) {
            self.trend_sample();
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Panics unless the derived per-cycle state matches what it
    /// summarises: each ready list strictly ascending with its
    /// `ready_mask` bit set iff it is non-empty, each `exec_mask` bit set
    /// iff that core has completions in flight, each `runnable` bit set
    /// iff that slice's fetch command arrived and it is not done, the
    /// armed list naming exactly the blocks with a runnable slice in
    /// window order, and the block window consistent with every block
    /// filed under its own `seq`.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        for (pi, p) in self.procs.iter().enumerate() {
            for (part, q) in p.exec.iter().enumerate() {
                assert_eq!(
                    p.exec_mask >> part & 1 == 1,
                    !q.is_empty(),
                    "proc{pi} exec_mask bit {part}"
                );
            }
            for (seq, b) in p.blocks.iter() {
                for (part, ds) in b.dispatch.iter().enumerate() {
                    assert_eq!(
                        b.runnable >> part & 1 == 1,
                        ds.start_at != u64::MAX && !ds.done,
                        "proc{pi} block {seq} runnable bit {part}"
                    );
                }
            }
            let runnable = p.blocks.iter().filter(|(_, b)| b.runnable != 0);
            assert!(
                runnable.map(|(seq, _)| seq).eq(p.armed.iter().copied()),
                "proc{pi} armed list"
            );
            for (part, list) in p.ready.iter().enumerate() {
                assert!(
                    list.windows(2).all(|w| w[0] < w[1]),
                    "proc{pi} ready[{part}] strictly ascending"
                );
                assert_eq!(
                    p.ready_mask >> part & 1 == 1,
                    !list.is_empty(),
                    "proc{pi} ready_mask bit {part}"
                );
            }
            p.blocks.check_invariants();
            assert!(p.blocks.iter().all(|(seq, b)| b.seq == seq));
        }
    }

    /// The earliest future cycle at which any subsystem can do work —
    /// the event-driven skip-ahead horizon.
    ///
    /// Deliberately conservative: it may name a cycle *earlier* than
    /// the true next event (waking up to a quiet cycle is a provable
    /// no-op) but never later (sleeping past an event would change the
    /// run). Every state transition in the machine is driven by one of
    /// the sources below — scheduled local events, mesh traffic, exec
    /// completions, dispatch slices, the fetch engine, the watchdog and
    /// kill schedule, and the samplers — so between `now` and the
    /// returned cycle every [`Machine::step`] is an empty loop over
    /// empty queues. `u64::MAX` means nothing is scheduled at all.
    fn next_event_cycle(&self) -> u64 {
        // In-flight mesh traffic moves every cycle.
        if !self.opnet.is_idle() {
            return self.now + 1;
        }
        let mut h = u64::MAX;
        // Scheduled local/control events.
        h = h.min(self.local.next_due(self.now));
        for p in &self.procs {
            if p.halted {
                continue;
            }
            // A draining recovery re-evaluates every cycle.
            if p.recovery_pending {
                return self.now + 1;
            }
            // Ready-to-issue instructions issue on the next step.
            if p.ready_mask != 0 {
                return self.now + 1;
            }
            // Earliest in-flight execution completion per core.
            let mut em = p.exec_mask;
            while em != 0 {
                let part = em.trailing_zeros() as usize;
                em &= em - 1;
                if let Some(&Reverse(e)) = p.exec[part].peek() {
                    h = h.min(e.done);
                }
            }
            // The fetch engine acts once its pending block is ready.
            // The dead-owner stall is deliberately ignored: waking to a
            // cycle where fetch still can't install is harmless.
            if p.halt_seq.is_none() && p.slots_free > 0 {
                if let Some(f) = &p.pending {
                    if p.program.block(f.addr).is_some() {
                        h = h.min(f.ready_at);
                    }
                }
            }
            // Dispatch slices whose fetch command has arrived: exactly
            // the `runnable` bits (`start_at` stays `u64::MAX` until the
            // FetchCmd event — which the local horizon already covers).
            for seq in &p.armed {
                let b = &p.blocks[seq];
                let mut rm = b.runnable;
                while rm != 0 {
                    let part = rm.trailing_zeros() as usize;
                    rm &= rm - 1;
                    h = h.min(b.dispatch[part].start_at);
                }
            }
        }
        if self.has_kills {
            if let Some(k) = self.pending_kills.first() {
                h = h.min(k.cycle);
            }
            for p in &self.procs {
                if p.halted || p.cores.is_empty() {
                    continue;
                }
                match p.probe_deadline {
                    // An armed probe is judged at its deadline.
                    Some(d) => h = h.min(d),
                    // Otherwise the watchdog fires one cycle past the
                    // current (backed-off) silence threshold.
                    None => {
                        let round = p.probe_round.min(self.cfg.watchdog_backoff_cap);
                        let timeout = self.cfg.watchdog_timeout << round;
                        h = h.min(p.last_beat + timeout + 1);
                    }
                }
            }
        }
        // Interval boundaries are events too: skipping past a due cycle
        // would shift every later window.
        if let Some(s) = &self.sampler {
            h = h.min(s.next_due_cycle());
        }
        if let Some(t) = &self.trend {
            h = h.min(t.next_due_cycle());
        }
        h
    }

    /// Runs until every composed processor halts, using event-driven
    /// skip-ahead: whole idle stretches (no tile has work, nothing in
    /// flight) are jumped over instead of stepped. Cycle counts, stats,
    /// traces, profiles, and trends are bit-identical to
    /// [`Machine::run_stepped`]; only wall-clock time differs. Plans
    /// with per-cycle PRNG draws (`noc_burst`) fall back to stepping so
    /// the draw schedule is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::CycleLimit`] past the configured budget,
    /// [`RunError::DeadlineExceeded`] past a configured per-run
    /// deadline, or [`RunError::Deadlock`] if nothing progresses for a
    /// long time.
    pub fn run(&mut self) -> Result<RunStats, RunError> {
        self.run_inner(self.can_skip)
    }

    /// The reference single-step loop: semantically identical to
    /// [`Machine::run`] but advances one cycle at a time with no
    /// skip-ahead. Exists so equivalence tests (and benchmarks) can
    /// compare the optimized engine against the plainly-correct one.
    ///
    /// # Errors
    ///
    /// Same contract as [`Machine::run`].
    pub fn run_stepped(&mut self) -> Result<RunStats, RunError> {
        self.run_inner(false)
    }

    fn run_inner(&mut self, skip: bool) -> Result<RunStats, RunError> {
        // Kill schedules are validated against the *composed* machine:
        // every target must be a participating core, and every logical
        // processor must keep at least one survivor.
        if self.has_kills {
            let mut kills_on_proc = vec![0usize; self.procs.len()];
            for k in &self.pending_kills {
                let core = usize::from(k.core);
                match self.core_map.get(core).copied().flatten() {
                    Some((pi, _)) => kills_on_proc[pi] += 1,
                    None => return Err(RunError::InvalidKill { core }),
                }
            }
            for (pi, &n_kills) in kills_on_proc.iter().enumerate() {
                if n_kills >= self.procs[pi].n {
                    return Err(RunError::NoSurvivors { proc: pi });
                }
            }
        }
        // Horizon backoff: during work-dense phases the skip check
        // never fires, so its cost is pure overhead. After each failed
        // attempt the next one is deferred exponentially (up to 64
        // steps). This only changes *when* a skip is attempted — a
        // cycle the horizon could have jumped is instead stepped, and
        // stepping an idle cycle is exactly equivalent — so reported
        // cycles stay bit-identical while dense phases pay (almost)
        // nothing for the feature.
        let mut backoff_steps = 0u32;
        let mut fail_streak = 0u32;
        while self.procs.iter().any(|p| !p.halted) {
            if self.now >= self.cfg.max_cycles {
                return Err(RunError::CycleLimit(self.cfg.max_cycles));
            }
            if let Some(d) = self.cfg.deadline {
                if self.now >= d {
                    return Err(RunError::DeadlineExceeded { budget: d });
                }
            }
            if self.now.saturating_sub(self.last_progress) > 500_000 {
                return Err(RunError::Deadlock { cycle: self.now });
            }
            if skip && backoff_steps == 0 {
                // Jump to one cycle *before* the horizon so the next
                // step lands exactly on it. The clamp makes the
                // CycleLimit / Deadlock checks above trip at the same
                // `now` a stepped run reports: a stepped run's last
                // executed step lands on `max_cycles` (or
                // `last_progress + 500_001`), then the loop top errors.
                let h = self.next_event_cycle();
                let mut stop =
                    (self.cfg.max_cycles.saturating_sub(1)).min(self.last_progress + 500_000);
                // A skip may never jump past the deadline: the stepped
                // run's last executed step lands exactly on it, then the
                // loop top reports the kill at the same `now`.
                if let Some(d) = self.cfg.deadline {
                    stop = stop.min(d.saturating_sub(1));
                }
                let target = h.saturating_sub(1).min(stop);
                if target > self.now {
                    // The mesh keeps its own cycle counter (it stamps
                    // injections and ages throttles); an idle mesh step
                    // is a pure increment, so syncing the counter is
                    // exactly equivalent to stepping it.
                    self.opnet.skip_to(target);
                    self.now = target;
                    fail_streak = 0;
                } else {
                    fail_streak = (fail_streak + 1).min(6);
                    backoff_steps = 1 << fail_streak;
                }
            } else {
                backoff_steps = backoff_steps.saturating_sub(1);
            }
            self.step();
        }
        Ok(self.collect_stats())
    }

    fn collect_stats(&self) -> RunStats {
        let mut stats = RunStats {
            cycles: self.now,
            procs: self.procs.iter().map(|p| p.stats.clone()).collect(),
            mem: self.mem.stats(),
            operand_net: *self.opnet.stats(),
            control_net: Default::default(),
            faults: *self.faults.stats(),
            recovery: {
                let mut r = self.recovery_stats;
                if let Some((c0, i0)) = self.recovery_mark {
                    let insts: u64 = self.procs.iter().map(|p| p.stats.insts_dispatched).sum();
                    r.degraded_cycles = self.now.saturating_sub(c0);
                    r.degraded_insts = insts.saturating_sub(i0);
                }
                r
            },
            compose: self.compose_stats,
        };
        for (i, p) in self.procs.iter().enumerate() {
            stats.procs[i].predictor = *p.predictor.stats();
            if stats.procs[i].cycles == 0 {
                stats.procs[i].cycles = self.now;
            }
        }
        stats
    }

    /// The committed value of register `reg` on processor `pid` (read
    /// after the run; `r1` is the entry function's return value).
    #[must_use]
    pub fn register(&self, pid: ProcId, reg: Reg) -> u64 {
        self.procs[pid.0].regs.committed(reg)
    }

    /// Releases a halted processor's cores so they can be recomposed.
    /// The released cores' L1 caches are deliberately *not* flushed: the
    /// directory keeps them coherent, which is what lets composition
    /// changes hand data over on demand (§4.7).
    ///
    /// # Panics
    ///
    /// Panics if the processor has not halted (its speculative state
    /// would be dangling).
    pub fn decompose(&mut self, pid: ProcId) {
        assert!(
            self.procs[pid.0].halted,
            "decompose requires a halted processor"
        );
        let released = self.procs[pid.0].cores.len();
        for &c in &self.procs[pid.0].cores {
            self.core_map[c] = None;
        }
        self.procs[pid.0].cores.clear();
        self.compose_stats.decompositions += 1;
        self.compose_stats.cores_released += released as u64;
        self.compose_stats.last_change_cycle = self.now;
        self.tracer
            .emit(self.now, || TraceEvent::ProcessorDecomposed {
                proc: pid.0,
                cores: released,
            });
    }

    /// The physical base of processor `pid`'s address space (multiply
    /// composed programs use identical virtual layouts; read their final
    /// memory at `addr_base + virtual`).
    #[must_use]
    pub fn addr_base(&self, pid: ProcId) -> u64 {
        self.procs[pid.0].addr_base
    }

    /// Whether processor `pid` has halted.
    #[must_use]
    pub fn is_halted(&self, pid: ProcId) -> bool {
        self.procs[pid.0].halted
    }

    /// The current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// A human-readable snapshot of in-flight state (stall debugging).
    #[must_use]
    pub fn debug_snapshot(&self) -> String {
        let mut out = format!("cycle {}\n", self.now);
        for (pi, p) in self.procs.iter().enumerate() {
            out.push_str(&format!(
                "proc{pi}: halted={} halt_seq={:?} slots_free={} pending={:?} chain_next={:?}\n",
                p.halted,
                p.halt_seq,
                p.slots_free,
                p.pending.as_ref().map(|f| (f.addr, f.ready_at)),
                p.chain_next,
            ));
            for (seq, b) in p.blocks.iter() {
                out.push_str(&format!(
                    "  blk {seq} @{:#x}: outputs {}/{} resolved={} committing={} disp_pending={}\n",
                    b.addr,
                    b.outputs_done,
                    b.tmpl.outputs_needed,
                    b.resolved,
                    b.committing,
                    b.dispatch_pending_cores
                ));
                for (i, st) in b.ops.iter().enumerate() {
                    let inst = &b.tmpl.block.instructions()[i];
                    if !st.fired {
                        out.push_str(&format!(
                            "    i{i} {} disp={} queued={} got={:?} arity={} pred={}\n",
                            inst.opcode,
                            st.dispatched,
                            st.queued,
                            st.got,
                            inst.data_arity(),
                            inst.is_predicated()
                        ));
                    }
                }
            }
            out.push_str(&format!(
                "  rf pendings={:?} versions={:?}\n",
                p.regs.pending_entries(),
                p.regs.version_entries()
            ));
            out.push_str("  regs:");
            for r in 9..24 {
                out.push_str(&format!(" r{r}={}", p.regs.committed(Reg::new(r))));
            }
            out.push('\n');
            out.push_str(&format!(
                "  waiting_reads={:?} ready={:?} exec={:?} local_events={}\n",
                p.waiting_reads
                    .iter()
                    .map(|w| (w.seq, w.reg))
                    .collect::<Vec<_>>(),
                p.ready.iter().map(|r| r.len()).collect::<Vec<_>>(),
                p.exec.iter().map(|q| q.len()).collect::<Vec<_>>(),
                self.local.len(),
            ));
        }
        out
    }

    /// The commit-latency breakdown helper for tests.
    #[must_use]
    pub fn commit_breakdown(&self, pid: ProcId) -> CommitLatencyBreakdown {
        self.procs[pid.0].stats.commit_latency()
    }
}
