//! Simulation statistics, including the Figure 9 latency breakdowns.

use crate::fault::FaultStats;
use clp_mem::MemStats;
use clp_noc::MeshStats;
use clp_predictor::PredictorStats;

/// Average per-block distributed-fetch latency components (Figure 9a).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FetchLatencyBreakdown {
    /// Next-block prediction (0 for unspeculated single-core runs).
    pub prediction: f64,
    /// I-cache tag access at the owner.
    pub tag_access: f64,
    /// Control hand-off from the previous owner.
    pub hand_off: f64,
    /// Broadcasting the fetch command to participating cores.
    pub fetch_distribution: f64,
    /// Fetching and dispatching the block's instructions into the window.
    pub dispatch: f64,
}

impl FetchLatencyBreakdown {
    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.prediction + self.tag_access + self.hand_off + self.fetch_distribution + self.dispatch
    }
}

/// Average per-block commit latency components (Figure 9b).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommitLatencyBreakdown {
    /// Commit command + acknowledgment handshaking across cores.
    pub handshake: f64,
    /// Writing architectural state (register writes + store drain).
    pub arch_update: f64,
}

impl CommitLatencyBreakdown {
    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.handshake + self.arch_update
    }
}

/// Counters for one logical processor's run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProcStats {
    /// Cycles until this processor halted.
    pub cycles: u64,
    /// Blocks committed.
    pub blocks_committed: u64,
    /// Blocks squashed (mispredict, violation, or wrong-path).
    pub blocks_flushed: u64,
    /// Instructions actually fired (including predicated no-op firings).
    pub insts_fired: u64,
    /// Block slots in committed blocks (every slot, fired or not).
    pub insts_dispatched: u64,
    /// Instructions that actually fired in committed blocks.
    pub insts_committed: u64,
    /// Integer-class ALU executions.
    pub int_ops: u64,
    /// Floating-point executions.
    pub fp_ops: u64,
    /// Register-bank reads performed.
    pub reg_reads: u64,
    /// Register writes forwarded.
    pub reg_writes: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Branch mispredictions (target-level).
    pub mispredicts: u64,
    /// Load/store ordering violations (pipeline flushes).
    pub violations: u64,
    /// Memory requests retried after an LSQ NACK.
    pub nack_retries: u64,
    /// Next-block predictor counters.
    pub predictor: PredictorStats,
    /// Accumulated fetch-latency components (sums; divide by
    /// `fetch_samples`).
    pub fetch_lat_sum: FetchLatencyBreakdown,
    /// Blocks contributing to `fetch_lat_sum`.
    pub fetch_samples: u64,
    /// Accumulated commit-latency components.
    pub commit_lat_sum: CommitLatencyBreakdown,
    /// Blocks contributing to `commit_lat_sum`.
    pub commit_samples: u64,
}

impl ProcStats {
    /// Mean fetch-latency breakdown per block.
    #[must_use]
    pub fn fetch_latency(&self) -> FetchLatencyBreakdown {
        let n = self.fetch_samples.max(1) as f64;
        FetchLatencyBreakdown {
            prediction: self.fetch_lat_sum.prediction / n,
            tag_access: self.fetch_lat_sum.tag_access / n,
            hand_off: self.fetch_lat_sum.hand_off / n,
            fetch_distribution: self.fetch_lat_sum.fetch_distribution / n,
            dispatch: self.fetch_lat_sum.dispatch / n,
        }
    }

    /// Mean commit-latency breakdown per block.
    #[must_use]
    pub fn commit_latency(&self) -> CommitLatencyBreakdown {
        let n = self.commit_samples.max(1) as f64;
        CommitLatencyBreakdown {
            handshake: self.commit_lat_sum.handshake / n,
            arch_update: self.commit_lat_sum.arch_update / n,
        }
    }

    /// Dispatched (block-slot) instructions per cycle — the useful-work
    /// rate the figures plot: every slot of a committed block, fired or
    /// predicated off.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts_dispatched as f64 / self.cycles as f64
        }
    }

    /// Committed instructions per cycle, counting only instructions that
    /// actually fired in committed blocks. Always `<= ipc()`; the gap is
    /// the predicated-off and never-fired slot fraction.
    #[must_use]
    fn committed_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts_committed as f64 / self.cycles as f64
        }
    }

    /// Renders these counters as a stats-registry node named `name`.
    #[must_use]
    pub fn to_node(&self, name: &str) -> clp_obs::StatsNode {
        let fetch = self.fetch_latency();
        let commit = self.commit_latency();
        clp_obs::StatsNode::new(name)
            .count("cycles", self.cycles)
            .count("blocks_committed", self.blocks_committed)
            .count("blocks_flushed", self.blocks_flushed)
            .count("insts_fired", self.insts_fired)
            .count("insts_dispatched", self.insts_dispatched)
            .count("insts_committed", self.insts_committed)
            .count("int_ops", self.int_ops)
            .count("fp_ops", self.fp_ops)
            .count("reg_reads", self.reg_reads)
            .count("reg_writes", self.reg_writes)
            .count("loads", self.loads)
            .count("stores", self.stores)
            .count("mispredicts", self.mispredicts)
            .count("violations", self.violations)
            .count("nack_retries", self.nack_retries)
            .gauge("ipc", self.ipc())
            .gauge("committed_ipc", self.committed_ipc())
            .child(self.predictor.to_node("predictor"))
            .child(
                clp_obs::StatsNode::new("fetch_latency")
                    .gauge("prediction", fetch.prediction)
                    .gauge("tag_access", fetch.tag_access)
                    .gauge("hand_off", fetch.hand_off)
                    .gauge("fetch_distribution", fetch.fetch_distribution)
                    .gauge("dispatch", fetch.dispatch)
                    .gauge("total", fetch.total()),
            )
            .child(
                clp_obs::StatsNode::new("commit_latency")
                    .gauge("handshake", commit.handshake)
                    .gauge("arch_update", commit.arch_update)
                    .gauge("total", commit.total()),
            )
    }
}

/// Counters for hard-fault detection and degraded-mode recomposition.
///
/// All zero unless the fault plan scheduled core kills and at least one
/// fired during the run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Cores killed by the fault plan during the run.
    pub cores_killed: u64,
    /// Completed recovery episodes (one may cover several dead cores).
    pub recoveries: u64,
    /// Heartbeat probe rounds issued by the watchdog (including the
    /// all-alive rounds that only fed the exponential backoff).
    pub probes: u64,
    /// Total cycles from each kill to its detection (sum over dead cores;
    /// divide by `cores_killed` for the mean detection latency).
    pub detection_cycles: u64,
    /// In-flight blocks flushed by recovery (speculative work discarded
    /// because it might have depended on the dead cores).
    pub flushed_blocks: u64,
    /// Architectural registers migrated off dead cores' banks.
    pub migrated_regs: u64,
    /// Dirty L1 lines written back through the S-NUCA L2 during state
    /// evacuation.
    pub migrated_lines: u64,
    /// Bytes of architectural state moved (registers + dirty lines).
    pub migrated_bytes: u64,
    /// Cycles charged to state migration before fetch resumed.
    pub migration_cycles: u64,
    /// Instructions dispatched after the first recovery completed.
    pub degraded_insts: u64,
    /// Cycles executed after the first recovery completed.
    pub degraded_cycles: u64,
}

impl RecoveryStats {
    /// Mean kill-to-detection latency in cycles (0 if nothing died).
    #[must_use]
    pub fn mean_detection_latency(&self) -> f64 {
        if self.cores_killed == 0 {
            0.0
        } else {
            self.detection_cycles as f64 / self.cores_killed as f64
        }
    }

    /// Dispatched IPC over the post-recovery (degraded) portion of the
    /// run; 0 if no recovery happened.
    #[must_use]
    pub fn degraded_ipc(&self) -> f64 {
        if self.degraded_cycles == 0 {
            0.0
        } else {
            self.degraded_insts as f64 / self.degraded_cycles as f64
        }
    }

    /// Renders these counters as a stats-registry node named
    /// `"recovery"`.
    #[must_use]
    pub fn to_node(&self) -> clp_obs::StatsNode {
        clp_obs::StatsNode::new("recovery")
            .count("cores_killed", self.cores_killed)
            .count("recoveries", self.recoveries)
            .count("probes", self.probes)
            .count("detection_cycles", self.detection_cycles)
            .gauge("mean_detection_latency", self.mean_detection_latency())
            .count("flushed_blocks", self.flushed_blocks)
            .count("migrated_regs", self.migrated_regs)
            .count("migrated_lines", self.migrated_lines)
            .count("migrated_bytes", self.migrated_bytes)
            .count("migration_cycles", self.migration_cycles)
            .count("degraded_insts", self.degraded_insts)
            .count("degraded_cycles", self.degraded_cycles)
            .gauge("degraded_ipc", self.degraded_ipc())
    }
}

/// Counters for composition-allocation decisions: when logical
/// processors were composed, decomposed, or recomposed, and over how
/// many cores. Lets trend series be aligned with allocation changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComposeStats {
    /// Logical processors composed (including the initial composition).
    pub compositions: u64,
    /// Processors that released their cores back to the chip.
    pub decompositions: u64,
    /// Degraded-mode recompositions after a hard core failure.
    pub recompositions: u64,
    /// Total cores allocated across all compositions.
    pub cores_allocated: u64,
    /// Total cores released across all decompositions.
    pub cores_released: u64,
    /// Cycle of the most recent allocation change (0 if none happened
    /// after cycle 0).
    pub last_change_cycle: u64,
}

impl ComposeStats {
    /// Renders these counters as a stats-registry node named
    /// `"compose"`.
    #[must_use]
    pub fn to_node(&self) -> clp_obs::StatsNode {
        clp_obs::StatsNode::new("compose")
            .count("compositions", self.compositions)
            .count("decompositions", self.decompositions)
            .count("recompositions", self.recompositions)
            .count("cores_allocated", self.cores_allocated)
            .count("cores_released", self.cores_released)
            .count("last_change_cycle", self.last_change_cycle)
    }
}

/// Chip-level statistics for a completed run (inputs to the power model).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Total machine cycles simulated.
    pub cycles: u64,
    /// Per-logical-processor counters.
    pub procs: Vec<ProcStats>,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// Operand-network counters.
    pub operand_net: MeshStats,
    /// Control-network counters: always zero, because control messages
    /// are charged analytically (`Fabric::ctrl_delay`) and never cross a
    /// mesh. Kept because the node is in every pinned snapshot and
    /// `benchmark/` sums it.
    pub control_net: MeshStats,
    /// Fault-injection counters (all zero on fault-free runs).
    pub faults: FaultStats,
    /// Hard-fault detection/recomposition counters (all zero unless a
    /// scheduled core kill fired).
    pub recovery: RecoveryStats,
    /// Composition-allocation counters (when, how many cores).
    pub compose: ComposeStats,
}

impl RunStats {
    /// Sums a field across processors.
    #[must_use]
    pub fn total_blocks_committed(&self) -> u64 {
        self.procs.iter().map(|p| p.blocks_committed).sum()
    }

    /// Block slots of committed blocks across processors, fired or not:
    /// the sum of `insts_dispatched`, not of `insts_committed`.
    #[must_use]
    fn total_insts(&self) -> u64 {
        self.procs.iter().map(|p| p.insts_dispatched).sum()
    }

    /// Builds the unified hierarchical stats registry for this run.
    ///
    /// The tree shape is stable:
    ///
    /// ```text
    /// run
    /// ├── proc0, proc1, …   (ProcStats, each with predictor/fetch/commit)
    /// ├── mem               (MemStats)
    /// ├── operand_net       (MeshStats)
    /// ├── control_net       (MeshStats)
    /// ├── faults            (FaultStats — zeros on fault-free runs)
    /// ├── recovery          (RecoveryStats — zeros unless a core died)
    /// └── compose           (ComposeStats — allocation decisions)
    /// ```
    #[must_use]
    pub(crate) fn to_snapshot(&self) -> clp_obs::StatsSnapshot {
        let mut root = clp_obs::StatsNode::new("run")
            .count("cycles", self.cycles)
            .count("total_blocks_committed", self.total_blocks_committed())
            .count("total_insts", self.total_insts());
        for (i, p) in self.procs.iter().enumerate() {
            root = root.child(p.to_node(&format!("proc{i}")));
        }
        root = root
            .child(self.mem.to_node())
            .child(self.operand_net.to_node("operand_net"))
            .child(self.control_net.to_node("control_net"))
            .child(self.faults.to_node())
            .child(self.recovery.to_node())
            .child(self.compose.to_node());
        clp_obs::StatsSnapshot {
            cycles: self.cycles,
            root,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let f = FetchLatencyBreakdown {
            prediction: 3.0,
            tag_access: 1.0,
            hand_off: 2.0,
            fetch_distribution: 4.0,
            dispatch: 8.0,
        };
        assert!((f.total() - 18.0).abs() < 1e-12);
        let c = CommitLatencyBreakdown {
            handshake: 5.0,
            arch_update: 2.0,
        };
        assert!((c.total() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn averages_divide_by_samples() {
        let mut p = ProcStats::default();
        p.fetch_lat_sum.dispatch = 30.0;
        p.fetch_samples = 10;
        assert!((p.fetch_latency().dispatch - 3.0).abs() < 1e-12);
        p.commit_lat_sum.handshake = 40.0;
        p.commit_samples = 20;
        assert!((p.commit_latency().handshake - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ipc_guards_zero_cycles() {
        let p = ProcStats::default();
        assert_eq!(p.ipc(), 0.0);
    }
}
