//! The persistent state of a logical processor and what travels
//! between its cores: messages, scheduled events, per-instruction and
//! per-block state, and [`Proc`] itself. Signals derived from this
//! state (which cores have work) live in `sched.rs`.

use super::decode::{FetchTemplate, Kind};
use super::prof::{BlkProf, FetchReason, Prov};
use super::sched::{Armed, ExecQueues, ReadyLists, Slices};
use crate::config::SimConfig;
use crate::regfile::RegFile;
use crate::stats::ProcStats;
use crate::window::BlockWindow;
use clp_isa::{BlockAddr, EdgeProgram, Instruction, Reg, Target};
use clp_predictor::{block_owner, ComposedPredictor, ExitOutcome, Prediction};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A processor's index in `Machine::procs` as messages and events
/// carry it (`compose_at` bounds the index).
pub(super) type ProcIx = u16;

/// An operand-class message for block `seq` of processor `proc`, sent
/// over the mesh or, within a core, through the event wheel.
#[derive(Clone, Copy, Debug)]
pub(super) struct OpMsg {
    pub(super) proc: ProcIx,
    pub(super) seq: u64,
    pub(super) prov: Prov,
    pub(super) body: OpBody,
}

#[derive(Clone, Copy, Debug)]
pub(super) enum OpBody {
    /// A dataflow operand (None = null token) for a consumer slot.
    Operand { target: Target, value: Option<u64> },
    /// Register-read request from an instruction's core to the bank.
    ReadReq {
        reg: Reg,
        targets: [Option<Target>; 2],
    },
    /// Register write forwarded to its bank.
    WriteFwd { reg: Reg, value: Option<u64> },
    /// Memory request to a D-cache/LSQ bank. The fields sit in the
    /// variant, not in a struct of their own, so that the tag shares
    /// their padding.
    MemReq {
        lsid: u8,
        store: bool,
        size: u8,
        /// Consumers of a load's reply.
        targets: [Option<Target>; 2],
        /// Physical effective address.
        addr: u64,
        /// Store data.
        value: u64,
    },
}

/// A scheduled local or control event. Core, participant and processor
/// ids are narrow (a chip has 32 cores) to keep a wheel bucket dense.
#[derive(Clone, Copy, Debug)]
pub(super) enum Ev {
    /// Operand-class message delivered locally (same-core fast path, bank
    /// responses, NACK retries) at the given core.
    Op(u8, OpMsg),
    /// One block output resolved. `lsid` is set when the output is a
    /// store slot (accepted store or null), which also feeds the
    /// conservative-ordering machinery for dependence-violating blocks.
    OutputDone {
        proc: ProcIx,
        seq: u64,
        lsid: Option<u8>,
        prov: Prov,
    },
    /// The block's exit branch resolved.
    Branch {
        proc: ProcIx,
        seq: u64,
        outcome: ExitOutcome,
        prov: Prov,
    },
    /// Next-block hand-off arrived at the new owner.
    HandOff { proc: ProcIx, addr: BlockAddr },
    /// Fetch command arrived at a participating core.
    FetchCmd { proc: ProcIx, seq: u64, part: u8 },
    /// Route a produced value from `from` to the given targets.
    SendOperands {
        from: u8,
        proc: ProcIx,
        seq: u64,
        targets: [Option<Target>; 2],
        value: Option<u64>,
        prov: Prov,
    },
    /// All commit acknowledgments arrived at the owner.
    CommitDone { proc: ProcIx, seq: u64 },
    /// A window slot became visible as free to the fetch engine.
    SlotFree { proc: ProcIx },
    /// An operand-network injection held back by the fault layer is
    /// released onto the mesh (only ever scheduled by injected NoC
    /// delays; never present on fault-free runs).
    Inject { from: u8, to: u8, msg: OpMsg },
}

// Both ride the event wheel's buckets, and `OpMsg` the mesh slab too.
const _: () = assert!(size_of::<OpMsg>() <= 56);
const _: () = assert!(size_of::<Ev>() <= 64);

/// Per-instruction ready state: all a wakeup touches.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct OpState {
    /// `DISPATCHED | QUEUED | FIRED`.
    pub(super) flags: u8,
    /// Operand slots that arrived, one bit per slot; the instruction is
    /// ready once these cover its `Decoded::need`.
    pub(super) got: u8,
    /// Arrived slots whose operand is a null token.
    null: u8,
    /// Operand values by slot; 0 until one arrives, and for a null
    /// token.
    pub(super) val: [u64; 3],
}

const _: () = assert!(size_of::<OpState>() <= 32);

impl OpState {
    pub(super) const DISPATCHED: u8 = 1;
    pub(super) const QUEUED: u8 = 2;
    pub(super) const FIRED: u8 = 4;

    pub(super) fn fired(&self) -> bool {
        self.flags & Self::FIRED != 0
    }

    /// An operand (None = null token) arrived for `slot`.
    pub(super) fn deliver(&mut self, slot: usize, value: Option<u64>) {
        let bit = 1 << slot;
        self.got |= bit;
        self.null = self.null & !bit | if value.is_none() { bit } else { 0 };
        self.val[slot] = value.unwrap_or(0);
    }

    /// The operand that arrived for `slot`: `None` for a null token.
    pub(super) fn arrived(&self, slot: usize) -> Option<u64> {
        (self.null & 1 << slot == 0).then_some(self.val[slot])
    }
}

#[derive(Debug)]
pub(super) struct Blk {
    pub(super) addr: BlockAddr,
    /// Global core that owns the block: runs its fetch, collects its
    /// outputs and drives its commit. Fixed for the block's life (a
    /// recomposition flushes every block first).
    pub(super) owner: usize,
    /// The block itself, its decoded form, its dispatch slices and its
    /// output counts.
    pub(super) tmpl: Arc<FetchTemplate>,
    pub(super) ops: Vec<OpState>,
    pub(super) outputs_done: usize,
    /// The resolved exit branch.
    pub(super) outcome: Option<ExitOutcome>,
    /// Prediction this block's owner made for its successor.
    pub(super) next_pred: Option<Prediction>,
    pub(super) committing: bool,
    /// Dependence-predictor state: blocks that previously violated run
    /// with conservative load ordering (loads wait for older-LSID stores).
    conservative: bool,
    /// Bitmask of resolved store LSIDs (accepted or nulled).
    pub(super) stores_resolved: u32,
    /// Loads deferred by conservative ordering: `(part, inst id)`.
    pub(super) deferred_loads: Vec<(usize, u8)>,
    /// Dispatch progress of each participant's slice.
    pub(super) slices: Slices,
    // timing marks; fetch commands leave one cycle (the tag access)
    // after `t_init`
    pub(super) t_init: u64,
    pub(super) predict_cycles: f64,
    pub(super) hand_off_cycles: f64,
    pub(super) t_last_cmd: u64,
    /// clp-prof per-block state; `None` whenever profiling is disabled.
    pub(super) prof: Option<BlkProf>,
}

impl Blk {
    /// A block fetched at `now`.
    pub(super) fn new(
        f: &PendingFetch,
        owner: usize,
        tmpl: Arc<FetchTemplate>,
        conservative: bool,
        now: u64,
        profiled: bool,
    ) -> Self {
        let nops = tmpl.block.len();
        Blk {
            addr: f.addr,
            owner,
            ops: vec![OpState::default(); nops],
            outputs_done: 0,
            outcome: None,
            next_pred: None,
            committing: false,
            conservative,
            stores_resolved: 0,
            deferred_loads: Vec::new(),
            slices: tmpl.cursors.clone(),
            tmpl,
            t_init: now,
            predict_cycles: 0.0,
            hand_off_cycles: f.hand_off_cycles,
            t_last_cmd: now + 1,
            prof: profiled.then(|| BlkProf::new(nops, f.reason)),
        }
    }

    #[inline]
    pub(super) fn inst(&self, id: u8) -> &Instruction {
        &self.tmpl.block.instructions()[usize::from(id)]
    }

    /// Cycle `id` issued, as the profiler recorded it (0 unprofiled).
    pub(super) fn issue_cycle(&self, id: u8) -> u64 {
        let pr = self.prof.as_ref();
        pr.map_or(0, |pr| pr.insts[usize::from(id)].issue)
    }

    /// Conservative ordering for previously-violating blocks: whether a
    /// load with this LSID must wait because an older-LSID store slot is
    /// unresolved (the LSID order is acyclic, so this cannot deadlock).
    pub(super) fn load_must_wait(&self, lsid: u8) -> bool {
        let older = self.tmpl.store_mask & ((1u32 << lsid) - 1);
        self.conservative && older & !self.stores_resolved != 0
    }

    /// The memory request instruction `id` makes with the operands it
    /// holds, in the address space at `base`.
    pub(super) fn mem_req(&self, id: u8, base: u64) -> OpBody {
        let i = usize::from(id);
        let d = &self.tmpl.dec[i];
        let [left, right, _] = self.ops[i].val;
        OpBody::MemReq {
            lsid: d.lsid,
            store: d.kind == Kind::Store,
            size: d.size,
            targets: d.targets,
            addr: ((left as i64).wrapping_add(self.tmpl.imm[i]) as u64).wrapping_add(base),
            value: right,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub(super) struct PendingFetch {
    pub(super) addr: BlockAddr,
    pub(super) ready_at: u64,
    pub(super) hand_off_cycles: f64,
    pub(super) reason: FetchReason,
}

impl PendingFetch {
    /// A non-speculative fetch of `addr`, not before `ready_at`.
    pub(super) fn new(addr: BlockAddr, ready_at: u64, reason: FetchReason) -> Self {
        PendingFetch {
            addr,
            ready_at,
            hand_off_cycles: 0.0,
            reason,
        }
    }
}

/// A register read parked at its bank until an older write arrives.
#[derive(Clone, Copy, Debug)]
pub(super) struct WaitingRead {
    pub(super) seq: u64,
    pub(super) reg: Reg,
    pub(super) targets: [Option<Target>; 2],
    pub(super) bank_core: usize,
    pub(super) prov: Prov,
}

pub(super) struct Proc {
    /// Index in `Machine::procs`, as messages and trace events name it.
    pub(super) id: usize,
    pub(super) cores: Vec<usize>, // global core ids
    pub(super) n: usize,
    /// Cores that own blocks and hold a predictor bank: `n`, or 1 under
    /// centralized control.
    pub(super) ctrl_banks: usize,
    /// Physical base of this processor's address space: every data and
    /// instruction address is translated by this offset, isolating
    /// multiprogrammed workloads that use identical virtual layouts.
    pub(super) addr_base: u64,
    pub(super) program: EdgeProgram,
    /// Per-address fetch templates (see [`FetchTemplate`]); cleared on
    /// recomposition because dispatch slices depend on `n`.
    pub(super) fetch_cache: BTreeMap<BlockAddr, Arc<FetchTemplate>>,
    pub(super) predictor: ComposedPredictor,
    pub(super) regs: RegFile,
    pub(super) blocks: BlockWindow<Blk>,
    pub(super) next_seq: u64,
    pub(super) pending: Option<PendingFetch>,
    /// Target of the youngest live prediction: the hand-off the fetch
    /// engine is willing to accept next.
    pub(super) chain_next: Option<BlockAddr>,
    pub(super) slots_free: usize,
    pub(super) max_inflight: usize,
    pub(super) halted: bool,
    /// Sequence number of a resolved (possibly wrong-path) halt block;
    /// fetch stops while set, and flushing that block clears it.
    pub(super) halt_seq: Option<u64>,
    /// Block addresses that suffered a load/store ordering violation:
    /// re-fetches of these run loads conservatively (the dependence
    /// predictor that keeps same-block violations from livelocking).
    pub(super) violated_addrs: BTreeSet<BlockAddr>,
    pub(super) stats: ProcStats,
    pub(super) waiting_reads: Vec<WaitingRead>,
    /// Instructions ready to issue, per participant.
    pub(super) ready: ReadyLists,
    /// Executions in flight, per participant.
    pub(super) exec: ExecQueues,
    /// Blocks with a dispatch slice that can make progress.
    pub(super) armed: Armed,
    /// Last cycle this processor made observable protocol progress —
    /// the "heartbeat" the hard-fault watchdog listens to. Only read
    /// when the fault plan schedules kills.
    pub(super) last_beat: u64,
    /// Watchdog backoff state: each all-alive probe round doubles the
    /// silence threshold, up to `watchdog_timeout << watchdog_backoff_cap`.
    pub(super) probe_round: u32,
    /// A heartbeat probe is in flight; at this deadline the survivors
    /// either declare unresponsive cores dead or back off.
    pub(super) probe_deadline: Option<u64>,
    /// Dead participants were declared; recovery runs as soon as any
    /// point-of-no-return (committing) block finishes draining.
    pub(super) recovery_pending: bool,
    /// Successor address of the most recently committed block — the
    /// architecturally correct resume point if recovery finds no
    /// in-flight block and no pending fetch.
    pub(super) last_commit_target: Option<BlockAddr>,
}

impl Proc {
    /// A processor composed over `cores`, about to fetch its program's
    /// entry block.
    pub(super) fn new(
        cfg: &SimConfig,
        id: usize,
        cores: Vec<usize>,
        addr_base: u64,
        program: EdgeProgram,
        regs: RegFile,
    ) -> Self {
        let n = cores.len();
        let ctrl_banks = Proc::ctrl_banks_for(cfg, n);
        let max_inflight = cfg.max_inflight.unwrap_or(n).max(1);
        let mut p = Proc {
            id,
            cores,
            n,
            ctrl_banks,
            addr_base,
            pending: Some(PendingFetch::new(program.entry(), 0, FetchReason::Entry)),
            program,
            fetch_cache: BTreeMap::new(),
            predictor: ComposedPredictor::new(cfg.predictor, ctrl_banks),
            regs,
            blocks: BlockWindow::new(),
            next_seq: 0,
            chain_next: None,
            slots_free: max_inflight,
            max_inflight,
            halted: false,
            halt_seq: None,
            violated_addrs: BTreeSet::new(),
            stats: ProcStats::default(),
            waiting_reads: Vec::new(),
            ready: ReadyLists::default(),
            exec: ExecQueues::default(),
            armed: Armed::default(),
            last_beat: 0,
            probe_round: 0,
            probe_deadline: None,
            recovery_pending: false,
            last_commit_target: None,
        };
        p.ready.reset(n);
        p.exec.reset(n);
        p
    }

    /// Cores of an `n`-core composition that own blocks and hold a
    /// predictor bank.
    pub(super) fn ctrl_banks_for(cfg: &SimConfig, n: usize) -> usize {
        if cfg.centralized_control {
            1
        } else {
            n
        }
    }

    /// This processor as messages and events name it.
    pub(super) fn ix(&self) -> ProcIx {
        self.id as ProcIx
    }

    /// The core that owns (fetches, resolves, commits) the block at
    /// `addr`.
    pub(super) fn owner_core(&self, addr: BlockAddr) -> usize {
        self.cores[block_owner(addr, self.ctrl_banks)]
    }

    /// The fetch template of the block at `addr`, built on its first
    /// fetch since (re)composition; `None` if the program has no such
    /// block (a wrong-path address beyond its bounds).
    pub(super) fn template(&mut self, addr: BlockAddr) -> Option<Arc<FetchTemplate>> {
        if let Some(tmpl) = self.fetch_cache.get(&addr) {
            return Some(Arc::clone(tmpl));
        }
        let block = self.program.block(addr)?;
        let tmpl = Arc::new(FetchTemplate::new(block, addr, self.ix(), &self.cores));
        self.fetch_cache.insert(addr, Arc::clone(&tmpl));
        Some(tmpl)
    }
}
