//! Simulator configuration (Table 1 of the paper).

use crate::fault::FaultPlan;
use clp_mem::MemConfig;
use clp_noc::MeshConfig;
use clp_predictor::PredictorConfig;
use serde::{Deserialize, Serialize};

/// How distributed-protocol handshakes are charged (§6.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolTiming {
    /// Full message-level timing over the control network.
    Modeled,
    /// All protocol handshakes (hand-off, fetch command, completion,
    /// commit, dealloc) are instantaneous — the idealized architecture of
    /// the §6.4 ablation. Operand traffic is still modeled.
    Instant,
}

/// Per-core microarchitectural parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Maximum instructions issued per cycle.
    pub issue_width: usize,
    /// Of which at most this many floating-point.
    pub fp_issue: usize,
    /// Instructions dispatched into the window per cycle.
    pub dispatch_per_cycle: usize,
    /// Issue-window entries (one block's worth).
    pub window_entries: usize,
}

/// Full simulator configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Next-block predictor parameters.
    pub predictor: PredictorConfig,
    /// Operand-network parameters (TFlex doubles link bandwidth).
    pub operand_net: MeshConfig,
    /// Handshake timing mode.
    pub protocol: ProtocolTiming,
    /// Cycles a NACKed memory request waits before retrying.
    pub nack_retry: u32,
    /// Maximum in-flight blocks per logical processor; `None` means one
    /// per participating core (the TFlex window rule).
    pub max_inflight: Option<usize>,
    /// TRIPS mode: every block is owned and sequenced by core 0
    /// (centralized control/prediction) and the predictor is a single
    /// shared bank.
    pub centralized_control: bool,
    /// Initial stack-pointer value installed in `r126`.
    pub stack_top: u64,
    /// Cycle budget before [`RunError::CycleLimit`](crate::RunError).
    pub max_cycles: u64,
    /// Per-run cycle deadline, enforced by the run-loop watchdog:
    /// crossing it aborts the run with
    /// [`RunError::DeadlineExceeded`](crate::RunError) instead of hanging
    /// until `max_cycles`. Unlike `max_cycles` (a safety net against
    /// simulator bugs), the deadline is a *policy* knob — clp-serve sets
    /// it per job so a runaway simulation is killed and reported as a
    /// retryable deadline kill. `None` (the default) disables it.
    pub deadline: Option<u64>,
    /// Deterministic fault-injection plan ([`FaultPlan::none`] disables
    /// injection entirely and is bit-identical to a fault-free build).
    pub faults: FaultPlan,
    /// Base heartbeat timeout (cycles of protocol silence from a
    /// participating core before the survivors probe it). Only armed when
    /// the fault plan schedules core kills; fault-free runs never pay for
    /// the watchdog.
    pub watchdog_timeout: u64,
    /// Cap on the exponent of the watchdog's bounded exponential backoff:
    /// after each all-alive probe round the timeout doubles, up to
    /// `watchdog_timeout << watchdog_backoff_cap`.
    pub watchdog_backoff_cap: u32,
}

impl SimConfig {
    /// The TFlex configuration of Table 1: dual-issue (two INT, one FP)
    /// cores, 128-entry windows, partitioned 8 KB I/D caches, 44-entry
    /// LSQ banks, the distributed tournament predictor, and a
    /// double-bandwidth operand mesh.
    #[must_use]
    pub fn tflex() -> Self {
        SimConfig {
            core: CoreConfig {
                issue_width: 2,
                fp_issue: 1,
                dispatch_per_cycle: 4,
                window_entries: 128,
            },
            mem: MemConfig::tflex(),
            predictor: PredictorConfig::tflex(),
            operand_net: MeshConfig::tflex_operand(),
            protocol: ProtocolTiming::Modeled,
            nack_retry: 4,
            max_inflight: None,
            centralized_control: false,
            stack_top: 0x4000_0000,
            max_cycles: 200_000_000,
            deadline: None,
            faults: FaultPlan::none(),
            watchdog_timeout: 64,
            watchdog_backoff_cap: 6,
        }
    }

    /// The TRIPS prototype baseline: 16 single-issue tiles, centralized
    /// next-block prediction and control at tile 0, single-bandwidth
    /// operand network, 8 in-flight blocks (1K-instruction window),
    /// slower per-tile dispatch.
    #[must_use]
    pub fn trips() -> Self {
        SimConfig {
            core: CoreConfig {
                issue_width: 1,
                fp_issue: 1,
                dispatch_per_cycle: 1,
                window_entries: 64,
            },
            mem: MemConfig::tflex(),
            predictor: PredictorConfig::trips_centralized(),
            operand_net: MeshConfig::trips_operand(),
            protocol: ProtocolTiming::Modeled,
            nack_retry: 4,
            max_inflight: Some(8),
            centralized_control: true,
            stack_top: 0x4000_0000,
            max_cycles: 200_000_000,
            deadline: None,
            faults: FaultPlan::none(),
            watchdog_timeout: 64,
            watchdog_backoff_cap: 6,
        }
    }

    /// The number of cores on the chip.
    #[must_use]
    pub fn chip_cores(&self) -> usize {
        self.operand_net.nodes()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::tflex()
    }
}

/// Renders the Table 1 parameter listing (used by the `table1` binary).
#[must_use]
pub fn table1_text(cfg: &SimConfig) -> String {
    format!(
        "Table 1: single-core TFlex parameters\n\
         Instruction Supply : partitioned {}KB I-cache ({}-cycle hit); \
         local/gshare tournament predictor ({} bits, {}-cycle latency), \
         speculative updates; Local {}(L1)+{}(L2), Global {}, Choice {}, \
         RAS {}, CTB {}, BTB {}, Btype {}\n\
         Execution          : out-of-order, {}-entry RAM-structured window, \
         dual-issue (up to {} INT, {} FP)\n\
         Data Supply        : partitioned {}KB D-cache ({}-cycle hit, {}-way, \
         1R/1W port); {}-entry LSQ bank; {}MB S-NUCA L2 ({}-way, LRU), \
         L2 hit {}..{} cycles; DRAM {} cycles (unloaded)",
        cfg.mem.l1i_bytes / 1024,
        cfg.mem.l1i_hit_latency,
        cfg.predictor.state_bits(),
        cfg.predictor.latency,
        cfg.predictor.local_l1,
        cfg.predictor.local_l2,
        cfg.predictor.global,
        cfg.predictor.choice,
        cfg.predictor.ras_per_core,
        cfg.predictor.ctb,
        cfg.predictor.btb,
        cfg.predictor.btype,
        cfg.core.window_entries,
        cfg.core.issue_width,
        cfg.core.fp_issue,
        cfg.mem.l1d_bytes / 1024,
        cfg.mem.l1d_hit_latency,
        cfg.mem.l1d_ways,
        cfg.mem.lsq_entries,
        cfg.mem.l2_bytes >> 20,
        cfg.mem.l2_ways,
        cfg.mem.l2_min_latency,
        cfg.mem.l2_max_latency,
        cfg.mem.dram_latency,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tflex_matches_table_1() {
        let c = SimConfig::tflex();
        assert_eq!(c.core.issue_width, 2);
        assert_eq!(c.core.fp_issue, 1);
        assert_eq!(c.core.window_entries, 128);
        assert_eq!(c.chip_cores(), 32);
        assert_eq!(c.operand_net.link_bandwidth, 2);
        assert!(!c.centralized_control);
    }

    #[test]
    fn trips_differs_in_the_documented_ways() {
        let t = SimConfig::trips();
        assert_eq!(t.core.issue_width, 1);
        assert_eq!(t.operand_net.link_bandwidth, 1);
        assert!(t.centralized_control);
        assert_eq!(t.max_inflight, Some(8));
    }

    #[test]
    fn table1_text_mentions_key_values() {
        let s = table1_text(&SimConfig::tflex());
        assert!(s.contains("44-entry LSQ"));
        assert!(s.contains("4MB S-NUCA"));
        assert!(s.contains("128-entry"));
        assert!(s.contains("DRAM 150 cycles"));
    }
}
