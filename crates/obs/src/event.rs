//! The typed trace-event vocabulary.
//!
//! Every variant is plain-old-data — no heap allocation — so
//! constructing an event on the traced path never touches the
//! allocator.

/// Why a processor's speculative state was flushed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// Next-block (exit or target) misprediction.
    Mispredict,
    /// Load/store ordering violation detected by the LSQ.
    Violation,
    /// Speculative-resource overflow (in-flight block window full).
    Overflow,
    /// Hard-fault recovery discarded everything younger than the last
    /// globally committed block before recomposing without the dead
    /// cores.
    Recovery,
}

impl FlushReason {
    /// Short label used in trace output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::Mispredict => "mispredict",
            FlushReason::Violation => "violation",
            FlushReason::Overflow => "overflow",
            FlushReason::Recovery => "recovery",
        }
    }
}

/// Which cache level an access touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLevel {
    /// Per-core L1 data bank.
    L1D,
    /// Per-core L1 instruction bank.
    L1I,
    /// Shared NUCA L2.
    L2,
}

impl CacheLevel {
    /// Short label used in trace output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheLevel::L1D => "L1D",
            CacheLevel::L1I => "L1I",
            CacheLevel::L2 => "L2",
        }
    }
}

/// A cycle-stamped microarchitectural event.
///
/// The stamp itself (the cycle) travels alongside the event in
/// [`RingRecorder::record`](crate::RingRecorder::record), so the variants only
/// carry *what* happened and *where*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A block was installed into a core's instruction window.
    BlockFetched {
        /// Logical processor id.
        proc: usize,
        /// Physical core the block landed on.
        core: usize,
        /// Block address.
        addr: u64,
        /// Whether the block was speculatively fetched off a prediction.
        speculative: bool,
    },
    /// Block-fetch ownership was handed from one core to the next owner.
    FetchHandoff {
        /// Logical processor id.
        proc: usize,
        /// Core handing off.
        from_core: usize,
        /// Core taking ownership.
        to_core: usize,
        /// Block address being handed off.
        addr: u64,
    },
    /// An instruction fired on an execution port.
    InstIssued {
        /// Logical processor id.
        proc: usize,
        /// Core issuing.
        core: usize,
        /// Owning block address.
        block: u64,
        /// Index of the instruction within its block.
        inst: usize,
        /// Opcode mnemonic.
        opcode: &'static str,
    },
    /// An operand (or protocol message) finished routing on a mesh.
    OperandRouted {
        /// Which mesh plane (`"operand"` or `"control"`).
        plane: &'static str,
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
        /// Cycles from injection to delivery.
        latency: u64,
    },
    /// A mesh router could not forward a message this cycle.
    LinkContention {
        /// Which mesh plane (`"operand"` or `"control"`).
        plane: &'static str,
        /// Node whose output queue stalled.
        node: usize,
    },
    /// A block finished its distributed commit handshake.
    BlockCommitted {
        /// Logical processor id.
        proc: usize,
        /// Owning core.
        core: usize,
        /// Block address.
        addr: u64,
        /// Instructions the block dispatched (committed slots).
        insts: usize,
    },
    /// Speculative state was flushed from a block onward.
    BlockFlushed {
        /// Logical processor id.
        proc: usize,
        /// Block address the flush started at.
        addr: u64,
        /// Why the flush happened.
        reason: FlushReason,
    },
    /// The exit/target predictor resolved a block's actual exit.
    BranchResolved {
        /// Logical processor id.
        proc: usize,
        /// Block whose exit resolved.
        addr: u64,
        /// Whether the next-block prediction was correct.
        correct: bool,
    },
    /// The next-block predictor produced a prediction.
    BlockPredicted {
        /// Core that owns the predictor bank consulted.
        core: usize,
        /// Block being predicted from.
        addr: u64,
        /// Predicted next-block address.
        target: u64,
    },
    /// The LSQ refused a memory operation (flow-control NACK).
    LsqNack {
        /// LSQ bank (global core index).
        bank: usize,
        /// Effective address.
        addr: u64,
    },
    /// The LSQ detected a load/store ordering violation.
    MemViolation {
        /// LSQ bank (global core index) that detected the conflict.
        bank: usize,
        /// Effective address of the conflicting access.
        addr: u64,
    },
    /// A cache miss (with optional dirty write-back of the victim).
    CacheMiss {
        /// Which cache level missed.
        level: CacheLevel,
        /// Bank index within the level.
        bank: usize,
        /// Missing line address.
        addr: u64,
        /// Whether a dirty victim was written back.
        writeback: bool,
    },
    /// The deterministic fault-injection layer perturbed a protocol.
    ///
    /// Injected faults cost cycles, never correctness; this event makes
    /// each perturbation visible in Perfetto so a slow chaos run can be
    /// debugged alongside the protocol events it disturbed.
    FaultInjected {
        /// Stable fault-kind label (e.g. `"noc_delay"`, `"forced_nack"`).
        kind: &'static str,
        /// Core the fault was injected at (owner core for fetch-side
        /// faults, bank core for memory-side faults).
        core: usize,
        /// Extra cycles charged by the fault (0 for faults whose cost is
        /// indirect, like a flipped prediction).
        extra_cycles: u64,
    },
    /// A scheduled hard fault permanently silenced a core's pipelines
    /// and NoC ports. Survivors do *not* see this event's information —
    /// they must detect the silence through the heartbeat watchdog.
    CoreKilled {
        /// Global core index that died.
        core: usize,
    },
    /// The heartbeat watchdog on a logical processor concluded a
    /// participating core is dead.
    CoreDeclaredDead {
        /// Logical processor id.
        proc: usize,
        /// Global core index declared dead.
        core: usize,
        /// Cycles from the kill to this declaration.
        detection_cycles: u64,
    },
    /// Degraded-mode recomposition finished: state migrated off the dead
    /// cores, interleavings re-hashed over the survivors, fetch resumed.
    RecoveryCompleted {
        /// Logical processor id.
        proc: usize,
        /// Cores remaining in the composition.
        survivors: usize,
        /// In-flight blocks discarded by the recovery flush.
        flushed_blocks: usize,
        /// Bytes of architectural state migrated (registers + dirty
        /// cache lines).
        migrated_bytes: u64,
    },
    /// A logical processor was composed from a region of cores — the
    /// allocation decisions (multiprogramming, degraded-mode
    /// recomposition) all flow through this event so trend
    /// series can be aligned with composition changes.
    ProcessorComposed {
        /// Logical processor id assigned.
        proc: usize,
        /// Number of cores in the composition.
        cores: usize,
        /// Global index of the region's first core.
        base_core: usize,
        /// Why the composition happened (e.g. `"compose"`,
        /// `"recompose"`).
        why: &'static str,
    },
    /// A logical processor released its cores back to the chip.
    ProcessorDecomposed {
        /// Logical processor id.
        proc: usize,
        /// Number of cores released.
        cores: usize,
    },
    /// A snapshot of the profiler's cumulative run-level cycle buckets,
    /// emitted at each block commit when both tracing and profiling are
    /// on. Renders as Perfetto counter tracks (`ph: "C"`) so the
    /// top-down accounting draws alongside the event timeline.
    ProfileBuckets {
        /// Logical processor id.
        proc: usize,
        /// Cumulative cycles per bucket, indexed per
        /// [`Bucket::ALL`](crate::profile::Bucket::ALL).
        buckets: [u64; crate::profile::NUM_BUCKETS],
    },
}

impl TraceEvent {
    /// The event's kind as a stable snake_case name (trace `name` field).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::BlockFetched { .. } => "block_fetched",
            TraceEvent::FetchHandoff { .. } => "fetch_handoff",
            TraceEvent::InstIssued { .. } => "inst_issued",
            TraceEvent::OperandRouted { .. } => "operand_routed",
            TraceEvent::LinkContention { .. } => "link_contention",
            TraceEvent::BlockCommitted { .. } => "block_committed",
            TraceEvent::BlockFlushed { .. } => "block_flushed",
            TraceEvent::BranchResolved { .. } => "branch_resolved",
            TraceEvent::BlockPredicted { .. } => "block_predicted",
            TraceEvent::LsqNack { .. } => "lsq_nack",
            TraceEvent::MemViolation { .. } => "mem_violation",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::CoreKilled { .. } => "core_killed",
            TraceEvent::CoreDeclaredDead { .. } => "core_declared_dead",
            TraceEvent::RecoveryCompleted { .. } => "recovery_completed",
            TraceEvent::ProcessorComposed { .. } => "processor_composed",
            TraceEvent::ProcessorDecomposed { .. } => "processor_decomposed",
            TraceEvent::ProfileBuckets { .. } => "cycle_accounting",
        }
    }

    /// Trace category (groups related kinds in viewers).
    #[must_use]
    pub(crate) fn category(&self) -> &'static str {
        match self {
            TraceEvent::BlockFetched { .. }
            | TraceEvent::FetchHandoff { .. }
            | TraceEvent::BlockCommitted { .. }
            | TraceEvent::BlockFlushed { .. } => "block",
            TraceEvent::InstIssued { .. } => "issue",
            TraceEvent::OperandRouted { .. } | TraceEvent::LinkContention { .. } => "noc",
            TraceEvent::BranchResolved { .. } | TraceEvent::BlockPredicted { .. } => "predict",
            TraceEvent::LsqNack { .. }
            | TraceEvent::MemViolation { .. }
            | TraceEvent::CacheMiss { .. } => "mem",
            TraceEvent::FaultInjected { .. } | TraceEvent::CoreKilled { .. } => "fault",
            TraceEvent::CoreDeclaredDead { .. } | TraceEvent::RecoveryCompleted { .. } => {
                "recovery"
            }
            TraceEvent::ProcessorComposed { .. } | TraceEvent::ProcessorDecomposed { .. } => {
                "compose"
            }
            TraceEvent::ProfileBuckets { .. } => "profile",
        }
    }

    /// The track a viewer should draw this event on: `(pid, tid)`.
    ///
    /// Cores render as process 0 with one thread per logical processor;
    /// the memory system, NoC planes, and predictor get processes 1–3.
    #[must_use]
    pub fn track(&self) -> (u64, u64) {
        match self {
            TraceEvent::BlockFetched { proc, .. }
            | TraceEvent::FetchHandoff { proc, .. }
            | TraceEvent::InstIssued { proc, .. }
            | TraceEvent::BlockCommitted { proc, .. }
            | TraceEvent::BlockFlushed { proc, .. }
            | TraceEvent::BranchResolved { proc, .. } => (0, *proc as u64),
            TraceEvent::LsqNack { bank, .. } => (1, *bank as u64),
            TraceEvent::MemViolation { bank, .. } => (1, *bank as u64),
            TraceEvent::CacheMiss { bank, .. } => (1, *bank as u64),
            TraceEvent::OperandRouted { plane, dst, .. } => {
                (if *plane == "control" { 3 } else { 2 }, *dst as u64)
            }
            TraceEvent::LinkContention { plane, node } => {
                (if *plane == "control" { 3 } else { 2 }, *node as u64)
            }
            TraceEvent::BlockPredicted { core, .. } => (4, *core as u64),
            TraceEvent::FaultInjected { core, .. } | TraceEvent::CoreKilled { core } => {
                (5, *core as u64)
            }
            TraceEvent::CoreDeclaredDead { proc, .. }
            | TraceEvent::RecoveryCompleted { proc, .. }
            | TraceEvent::ProcessorComposed { proc, .. }
            | TraceEvent::ProcessorDecomposed { proc, .. } => (0, *proc as u64),
            TraceEvent::ProfileBuckets { proc, .. } => (6, *proc as u64),
        }
    }

    /// The event's payload as `(key, value)` pairs for the trace `args`
    /// object. Allocation happens only here, at sink-encoding time —
    /// never on the emitting hot path.
    #[must_use]
    pub fn args(&self) -> Vec<(&'static str, serde_json::Value)> {
        use serde_json::Value;
        let hex = |a: u64| Value::String(format!("{a:#x}"));
        match *self {
            TraceEvent::BlockFetched {
                proc,
                core,
                addr,
                speculative,
            } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("core", Value::UInt(core as u64)),
                ("addr", hex(addr)),
                ("speculative", Value::Bool(speculative)),
            ],
            TraceEvent::FetchHandoff {
                proc,
                from_core,
                to_core,
                addr,
            } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("from_core", Value::UInt(from_core as u64)),
                ("to_core", Value::UInt(to_core as u64)),
                ("addr", hex(addr)),
            ],
            TraceEvent::InstIssued {
                proc,
                core,
                block,
                inst,
                opcode,
            } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("core", Value::UInt(core as u64)),
                ("block", hex(block)),
                ("inst", Value::UInt(inst as u64)),
                ("opcode", Value::String(opcode.to_string())),
            ],
            TraceEvent::OperandRouted {
                plane,
                src,
                dst,
                latency,
            } => vec![
                ("plane", Value::String(plane.to_string())),
                ("src", Value::UInt(src as u64)),
                ("dst", Value::UInt(dst as u64)),
                ("latency", Value::UInt(latency)),
            ],
            TraceEvent::LinkContention { plane, node } => vec![
                ("plane", Value::String(plane.to_string())),
                ("node", Value::UInt(node as u64)),
            ],
            TraceEvent::BlockCommitted {
                proc,
                core,
                addr,
                insts,
            } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("core", Value::UInt(core as u64)),
                ("addr", hex(addr)),
                ("insts", Value::UInt(insts as u64)),
            ],
            TraceEvent::BlockFlushed { proc, addr, reason } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("addr", hex(addr)),
                ("reason", Value::String(reason.label().to_string())),
            ],
            TraceEvent::BranchResolved {
                proc,
                addr,
                correct,
            } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("addr", hex(addr)),
                ("correct", Value::Bool(correct)),
            ],
            TraceEvent::BlockPredicted { core, addr, target } => vec![
                ("core", Value::UInt(core as u64)),
                ("addr", hex(addr)),
                ("target", hex(target)),
            ],
            TraceEvent::LsqNack { bank, addr } => {
                vec![("bank", Value::UInt(bank as u64)), ("addr", hex(addr))]
            }
            TraceEvent::MemViolation { bank, addr } => {
                vec![("bank", Value::UInt(bank as u64)), ("addr", hex(addr))]
            }
            TraceEvent::CacheMiss {
                level,
                bank,
                addr,
                writeback,
            } => vec![
                ("level", Value::String(level.label().to_string())),
                ("bank", Value::UInt(bank as u64)),
                ("addr", hex(addr)),
                ("writeback", Value::Bool(writeback)),
            ],
            TraceEvent::FaultInjected {
                kind,
                core,
                extra_cycles,
            } => vec![
                ("kind", Value::String(kind.to_string())),
                ("core", Value::UInt(core as u64)),
                ("extra_cycles", Value::UInt(extra_cycles)),
            ],
            TraceEvent::CoreKilled { core } => vec![("core", Value::UInt(core as u64))],
            TraceEvent::CoreDeclaredDead {
                proc,
                core,
                detection_cycles,
            } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("core", Value::UInt(core as u64)),
                ("detection_cycles", Value::UInt(detection_cycles)),
            ],
            TraceEvent::RecoveryCompleted {
                proc,
                survivors,
                flushed_blocks,
                migrated_bytes,
            } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("survivors", Value::UInt(survivors as u64)),
                ("flushed_blocks", Value::UInt(flushed_blocks as u64)),
                ("migrated_bytes", Value::UInt(migrated_bytes)),
            ],
            TraceEvent::ProcessorComposed {
                proc,
                cores,
                base_core,
                why,
            } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("cores", Value::UInt(cores as u64)),
                ("base_core", Value::UInt(base_core as u64)),
                ("why", Value::String(why.to_string())),
            ],
            TraceEvent::ProcessorDecomposed { proc, cores } => vec![
                ("proc", Value::UInt(proc as u64)),
                ("cores", Value::UInt(cores as u64)),
            ],
            TraceEvent::ProfileBuckets { buckets, .. } => crate::profile::Bucket::ALL
                .iter()
                .map(|b| (b.label(), Value::UInt(buckets[b.index()])))
                .collect(),
        }
    }
}
