//! The cycle-stepped TFlex machine: composition, distributed fetch,
//! dataflow execution, distributed commit, and flush protocols.
//!
//! ## Module map
//!
//! [`Machine`] is the shared chip (`fabric.rs`) plus the composed
//! logical processors (`state.rs`, and `decode.rs` for what is fixed
//! per block address); [`Machine::step`] borrows the two
//! side by side and runs one module per TFlex protocol over them, in
//! pipeline order: `fetch.rs`, `dispatch.rs`, `execute.rs`,
//! `operand.rs`, `commit.rs`, and `recovery.rs` for hard faults. The
//! stage loops walk the derived ready / executing / armed signals of
//! `sched.rs`; `prof.rs` holds what only clp-prof and clp-trend run
//! (the trend recorder's `due` compare is the one observer check in
//! `step`, and [`Machine::snapshot`] a pure read of the totals);
//! `driver.rs` holds `run`, the one loop that calls `step`. Each
//! file's header names its protocol, and DESIGN.md ("Machine anatomy")
//! tabulates the state, signals and events of each.
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

mod commit;
mod decode;
mod dispatch;
mod driver;
mod error;
mod execute;
mod fabric;
mod fetch;
mod operand;
mod prof;
mod recovery;
mod sched;
mod state;

pub use error::{ComposeError, RunError};

use crate::config::SimConfig;
use crate::regfile::RegFile;
use crate::stats::{ComposeStats, RecoveryStats, RunStats};
use clp_isa::{EdgeProgram, Reg};
use clp_mem::MemorySystem;
use clp_noc::{region_for, NodeId};
use clp_obs::{StatsSnapshot, TraceEvent, Tracer, TrendRecorder};
use fabric::Fabric;
use state::{Ev, OpState, Proc, ProcIx};

/// Identifies a logical processor within a [`Machine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

/// A TFlex chip: 32 cores, a shared memory system, and any number of
/// dynamically composed logical processors.
pub struct Machine {
    fab: Fabric,
    procs: Vec<Proc>,
    /// clp-trend columnar time-series recorder; `None` (the default)
    /// costs one branch per cycle and keeps the run bit-identical.
    trend: Option<Box<TrendRecorder>>,
}

impl Machine {
    /// Creates an idle machine.
    ///
    /// # Panics
    ///
    /// Panics if the operand mesh has more than 256 nodes: messages name
    /// a core in 8 bits.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Machine {
            fab: Fabric::new(cfg),
            procs: Vec::new(),
            trend: None,
        }
    }

    /// Composition-allocation counters so far.
    #[must_use]
    pub fn compose_stats(&self) -> &ComposeStats {
        &self.fab.compose_stats
    }

    /// Hard-fault detection/recomposition counters so far (all zero when
    /// the fault plan schedules no kills).
    #[must_use]
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.fab.recovery_stats
    }

    /// Attaches a tracer; clones of the handle propagate to the memory
    /// system and the operand network so every subsystem stamps events
    /// into the same sink. Call before [`Machine::run`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.fab.mem.set_tracer(tracer.clone());
        self.fab.opnet.set_tracer(tracer.clone(), "operand");
        self.fab.tracer = tracer;
    }

    /// The attached tracer handle.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.fab.tracer
    }

    /// The unified stats registry for the run so far: the totals as a
    /// navigable tree, with clp-prof's node when profiling is on.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = self.collect_stats().to_snapshot();
        if let Some(report) = self.profile_report() {
            let root = std::mem::take(&mut snap.root);
            snap.root = root.child(report.to_node());
        }
        snap
    }

    /// The simulator configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.fab.cfg
    }

    /// Mutable access to the memory system (workload setup: initial
    /// image) — only meaningful before [`Machine::run`].
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.fab.mem
    }

    /// Read access to the memory system (output verification).
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.fab.mem
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
    /// active processor, or at the 65 537th processor composed on one
    /// machine (decomposed ones count).
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
        let fab = &mut self.fab;
        let nodes = region_for(&fab.cfg.operand_net, n_cores, index)?;
        let cores: Vec<usize> = nodes.iter().map(|n| n.0).collect();
        if let Some(&c) = cores.iter().find(|&&c| fab.core_map[c].is_some()) {
            return Err(ComposeError::CoreBusy(c));
        }
        let pid = self.procs.len();
        if pid > usize::from(ProcIx::MAX) {
            return Err(ComposeError::TooManyProcs);
        }
        for (p, &c) in cores.iter().enumerate() {
            fab.core_map[c] = Some((pid, p));
        }
        fab.compose_stats.compositions += 1;
        fab.compose_stats.cores_allocated += n_cores as u64;
        fab.compose_stats.last_change_cycle = fab.now;
        let base_core = cores[0];
        fab.tracer.emit(fab.now, || TraceEvent::ProcessorComposed {
            proc: pid,
            cores: n_cores,
            base_core,
            why: "compose",
        });
        let mut regs = RegFile::new(clp_isa::NUM_ARCH_REGS);
        for (i, &a) in args.iter().enumerate() {
            regs.set_committed(Reg::new(1 + i), a);
        }
        regs.set_committed(Reg::SP, fab.cfg.stack_top);
        let p = Proc::new(&fab.cfg, pid, cores, addr_base, program, regs);
        self.procs.push(p);
        Ok(ProcId(pid))
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
        let (fab, p) = (&mut self.fab, &mut self.procs[pid.0]);
        assert!(p.halted, "decompose requires a halted processor");
        let released = p.cores.len();
        for c in p.cores.drain(..) {
            fab.core_map[c] = None;
        }
        fab.compose_stats.decompositions += 1;
        fab.compose_stats.cores_released += released as u64;
        fab.compose_stats.last_change_cycle = fab.now;
        fab.tracer
            .emit(fab.now, || TraceEvent::ProcessorDecomposed {
                proc: pid.0,
                cores: released,
            });
    }

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        let fab = &mut self.fab;
        fab.now += 1;
        fab.mem.set_cycle(fab.now);
        // Rotate the event wheel first: far events whose cycle just
        // entered the window must land in their slot before anything
        // this cycle can schedule after them.
        fab.local.advance(fab.now);
        // 0a. Hard faults: silence any core whose kill cycle arrived.
        if fab.has_kills {
            fab.apply_due_kills();
        }
        // 0. Fault layer: maybe start a link-contention burst (clamps
        // the operand mesh to bandwidth 1 for the burst length). One
        // Bernoulli draw per cycle; zero draws when the kind is off.
        if let Some(len) = fab.fault("noc_burst", 0, |f| f.noc_burst()) {
            fab.opnet.throttle(len);
        }
        // 1. Networks.
        fab.opnet.step();
        let mut delivered = std::mem::take(&mut fab.scratch_delivered);
        fab.opnet.swap_delivered(&mut delivered);
        for (node, msg) in &delivered {
            self.procs[usize::from(msg.proc)].handle_op(fab, node.0, msg);
        }
        delivered.clear();
        fab.scratch_delivered = delivered;
        // 2. Scheduled local/control events.
        let mut evs = std::mem::take(&mut fab.scratch_evs);
        fab.local.pop_due(fab.now, &mut evs);
        for ev in &evs {
            Self::run_event(fab, &mut self.procs, ev);
        }
        evs.clear();
        fab.scratch_evs = evs;
        // 3. Per-proc pipeline stages.
        for pi in 0..self.procs.len() {
            if self.fab.has_kills && !self.procs[pi].halted {
                self.watchdog(pi);
            }
            let (fab, p) = (&mut self.fab, &mut self.procs[pi]);
            if p.halted {
                continue;
            }
            p.fetch_stage(fab);
            p.dispatch_stage(fab);
            p.completion_stage(fab);
            p.issue_stage(fab);
            p.check_commit(fab);
        }
        // 4. clp-trend columnar recording: one integer compare unless
        // an interval closes this cycle.
        let now = self.fab.now;
        if self.trend.as_ref().is_some_and(|t| t.due(now)) {
            self.trend_sample();
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Hands a due event to the processor it names.
    fn run_event(fab: &mut Fabric, procs: &mut [Proc], ev: &Ev) {
        match *ev {
            Ev::Op(core, ref msg) => {
                procs[usize::from(msg.proc)].handle_op(fab, usize::from(core), msg)
            }
            Ev::OutputDone {
                proc,
                seq,
                lsid,
                prov,
            } => procs[usize::from(proc)].on_output_done(fab, seq, lsid, prov),
            Ev::Branch {
                proc,
                seq,
                outcome,
                prov,
            } => procs[usize::from(proc)].on_branch(fab, seq, outcome, prov),
            Ev::HandOff { proc, addr } => procs[usize::from(proc)].on_handoff(fab, addr),
            Ev::FetchCmd { proc, seq, part } => {
                procs[usize::from(proc)].on_fetch_cmd(fab, seq, usize::from(part));
            }
            Ev::SendOperands {
                from,
                proc,
                seq,
                ref targets,
                value,
                prov,
            } => {
                // A dead sender's queued operands never leave.
                let from = usize::from(from);
                let b = procs[usize::from(proc)].blocks.get(&seq);
                if let Some(b) = b.filter(|_| !fab.is_dead(from)) {
                    b.route_operands(fab, from, seq, targets, value, prov);
                }
            }
            Ev::CommitDone { proc, seq } => procs[usize::from(proc)].on_commit_done(fab, seq),
            Ev::SlotFree { proc } => {
                // Clamp: a recovery resets slots to the (possibly
                // smaller) degraded allocation while dealloc
                // broadcasts from pre-recovery commits are still
                // in flight. No-op on healthy runs.
                let p = &mut procs[usize::from(proc)];
                p.slots_free = (p.slots_free + 1).min(p.max_inflight);
            }
            Ev::Inject { from, to, msg } => {
                // A dead core's NoC ports are powered off.
                let (from, to) = (usize::from(from), usize::from(to));
                if !fab.is_dead(from) {
                    fab.opnet.inject(NodeId(from), NodeId(to), msg);
                }
            }
        }
    }

    /// Panics unless the derived per-cycle state matches what it
    /// summarises: the three scheduler signals (see `sched.rs`) and the
    /// block window's index.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        for p in &self.procs {
            p.ready.check();
            p.exec.check();
            let blocks = p.blocks.iter();
            p.armed.check(blocks.map(|(seq, b)| (seq, &b.slices)));
            p.blocks.check_invariants();
        }
    }

    fn collect_stats(&self) -> RunStats {
        let now = self.fab.now;
        let mut recovery = self.fab.recovery_stats;
        if let Some((c0, i0)) = self.fab.recovery_mark {
            let insts: u64 = self.procs.iter().map(|p| p.stats.insts_dispatched).sum();
            recovery.degraded_cycles = now.saturating_sub(c0);
            recovery.degraded_insts = insts.saturating_sub(i0);
        }
        let proc_stats = |p: &Proc| {
            let mut s = p.stats.clone();
            s.predictor = *p.predictor.stats();
            if s.cycles == 0 {
                s.cycles = now;
            }
            s
        };
        RunStats {
            cycles: now,
            procs: self.procs.iter().map(proc_stats).collect(),
            mem: self.fab.mem.stats(),
            operand_net: *self.fab.opnet.stats(),
            control_net: Default::default(),
            faults: *self.fab.faults.stats(),
            recovery,
            compose: self.fab.compose_stats,
        }
    }

    /// The committed value of register `reg` on processor `pid` (read
    /// after the run; `r1` is the entry function's return value).
    #[must_use]
    pub fn register(&self, pid: ProcId, reg: Reg) -> u64 {
        self.procs[pid.0].regs.committed(reg)
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
        self.fab.now
    }

    /// A human-readable snapshot of in-flight state (stall debugging).
    #[must_use]
    pub fn debug_snapshot(&self) -> String {
        let mut out = format!("cycle {}\n", self.fab.now);
        for p in &self.procs {
            out.push_str(&format!(
                "proc{}: halted={} halt_seq={:?} slots_free={} pending={:?} chain_next={:?}\n",
                p.id,
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
                    b.outcome.is_some(),
                    b.committing,
                    b.slices.unfinished()
                ));
                for (i, st) in b.ops.iter().enumerate().filter(|(_, st)| !st.fired()) {
                    let inst = b.inst(i as u8);
                    out.push_str(&format!(
                        "    i{i} {} disp={} queued={} got={:?} arity={} pred={}\n",
                        inst.opcode,
                        st.flags & OpState::DISPATCHED != 0,
                        st.flags & OpState::QUEUED != 0,
                        [0, 1, 2].map(|slot| st.got >> slot & 1 == 1),
                        inst.data_arity(),
                        inst.is_predicated()
                    ));
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
            let waiting = p.waiting_reads.iter().map(|w| (w.seq, w.reg));
            out.push_str(&format!(
                "  waiting_reads={:?} ready={:?} exec={:?} local_events={}\n",
                waiting.collect::<Vec<_>>(),
                p.ready.lens(),
                p.exec.lens(),
                self.fab.local.len(),
            ));
        }
        out
    }
}
