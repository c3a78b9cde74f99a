//! The persistent state of a logical processor and what travels
//! between its cores: messages, scheduled events, per-instruction and
//! per-block state, and [`Proc`] itself. Signals derived from this
//! state (which cores have work) live in `sched.rs`.

use super::fabric::Fabric;
use super::prof::{BlkProf, FetchReason, Prov};
use super::sched::{Armed, ExecQueues, ReadyLists, Slices};
use crate::config::SimConfig;
use crate::regfile::RegFile;
use crate::stats::ProcStats;
use crate::window::BlockWindow;
use clp_isa::{Block, BlockAddr, EdgeProgram, Instruction, Opcode, Reg, Target};
use clp_predictor::{block_owner, ComposedPredictor, ExitOutcome, Prediction};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An operand-class message for block `seq` of processor `proc`, sent
/// over the mesh or, within a core, through the event wheel.
#[derive(Clone, Copy, Debug)]
pub(super) struct OpMsg {
    pub(super) proc: usize,
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
    /// Memory request to a D-cache/LSQ bank.
    MemReq(MemReq),
}

#[derive(Clone, Copy, Debug)]
pub(super) struct MemReq {
    pub(super) lsid: u8,
    pub(super) store: bool,
    /// Physical effective address.
    pub(super) addr: u64,
    pub(super) size: u8,
    /// Store data.
    pub(super) value: u64,
    /// Consumers of a load's reply.
    pub(super) targets: [Option<Target>; 2],
}

#[derive(Clone, Debug)]
pub(super) enum Ev {
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

#[derive(Clone, Copy, Debug, Default)]
pub(super) struct OpState {
    pub(super) dispatched: bool,
    pub(super) queued: bool,
    pub(super) fired: bool,
    pub(super) got: [bool; 3],
    /// Operand values by slot; `None` until it arrives, and for a null
    /// token.
    pub(super) val: [Option<u64>; 3],
}

/// Everything about a block that is identical across fetches of the
/// same address: built once per address (per composition) and shared
/// afterwards — a fetch takes one handle to it, never a deep clone of
/// the block or a walk of its dispatch slices.
#[derive(Debug)]
pub(super) struct FetchTemplate {
    pub(super) block: Block,
    /// Per participant core: instruction ids of its dispatch slice.
    pub(super) slices: Vec<Box<[u8]>>,
    /// Untouched dispatch cursors over `slices`, copied by each fetch.
    cursors: Slices,
    pub(super) outputs_needed: usize,
    /// Bitmask of store LSIDs the block declares.
    store_mask: u32,
}

impl FetchTemplate {
    fn new(block: &Block, n: usize) -> Self {
        let slice = |part| block.slice_for_core(part, n).map(|(i, _)| i as u8);
        let slices: Vec<Box<[u8]>> = (0..n).map(|part| slice(part).collect()).collect();
        FetchTemplate {
            cursors: Slices::new(slices.iter().map(|s| s.len())),
            slices,
            outputs_needed: block.output_count(),
            store_mask: block.store_lsids().iter().fold(0u32, |m, &l| m | (1 << l)),
            block: block.clone(),
        }
    }
}

/// The LSID of a memory instruction or store-slot null.
pub(super) fn lsid_of(inst: &Instruction) -> u8 {
    let lsid = inst.lsid.expect("Block::from_instructions checks LSIDs");
    lsid.index() as u8
}

#[derive(Debug)]
pub(super) struct Blk {
    pub(super) addr: BlockAddr,
    /// Global core that owns the block: runs its fetch, collects its
    /// outputs and drives its commit. Fixed for the block's life (a
    /// recomposition flushes every block first).
    pub(super) owner: usize,
    /// The block itself, its dispatch slices and its output counts.
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
    pub(super) prof: Option<Box<BlkProf>>,
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
            prof: profiled.then(|| Box::new(BlkProf::new(nops, f.reason))),
        }
    }

    #[inline]
    pub(super) fn inst(&self, id: u8) -> &Instruction {
        &self.tmpl.block.instructions()[usize::from(id)]
    }

    /// Cycle `id` issued, as the profiler recorded it (0 unprofiled).
    pub(super) fn issue_cycle(&self, id: u8) -> u64 {
        let pr = self.prof.as_deref();
        pr.map_or(0, |pr| pr.issue[usize::from(id)])
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
    pub(super) fn mem_req(&self, id: u8, base: u64) -> MemReq {
        let inst = self.inst(id);
        let [left, right, _] = self.ops[usize::from(id)].val.map(|v| v.unwrap_or(0));
        MemReq {
            lsid: lsid_of(inst),
            store: inst.opcode.is_store(),
            addr: ((left as i64).wrapping_add(inst.imm) as u64).wrapping_add(base),
            size: match inst.opcode {
                Opcode::Ldb | Opcode::Stb => 1,
                _ => 8,
            },
            value: right,
            targets: inst.targets,
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

    /// The core that owns (fetches, resolves, commits) the block at
    /// `addr`.
    pub(super) fn owner_core(&self, addr: BlockAddr) -> usize {
        self.cores[block_owner(addr, self.ctrl_banks)]
    }

    /// Records observable protocol progress: resets the deadlock window
    /// and the watchdog's silence timer.
    pub(super) fn beat(&mut self, fab: &mut Fabric) {
        fab.last_progress = fab.now;
        self.last_beat = fab.now;
    }

    /// The fetch template of the block at `addr`, built on its first
    /// fetch since (re)composition; `None` if the program has no such
    /// block (a wrong-path address beyond its bounds).
    pub(super) fn template(&mut self, addr: BlockAddr) -> Option<Arc<FetchTemplate>> {
        if let Some(tmpl) = self.fetch_cache.get(&addr) {
            return Some(Arc::clone(tmpl));
        }
        let tmpl = Arc::new(FetchTemplate::new(self.program.block(addr)?, self.n));
        self.fetch_cache.insert(addr, Arc::clone(&tmpl));
        Some(tmpl)
    }
}
