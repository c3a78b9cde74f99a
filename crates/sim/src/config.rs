//! Simulator configuration (Table 1 of the paper).

use crate::fault::FaultPlan;
use clp_mem as mem;
use clp_noc::MeshConfig;
use clp_predictor::PredictorConfig;

/// How distributed-protocol handshakes are charged (§6.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolTiming {
    /// Full message-level timing over the control network.
    Modeled,
    /// All protocol handshakes (hand-off, fetch command, completion,
    /// commit, dealloc) are instantaneous — the idealized architecture of
    /// the §6.4 ablation. Operand traffic is still modeled.
    Instant,
}

/// Floating-point instructions a core issues per cycle (Table 1: one,
/// in both the TFlex and the TRIPS configuration).
pub const FP_ISSUE: usize = 1;

/// Per-core microarchitectural parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Maximum instructions issued per cycle, of which at most
    /// [`FP_ISSUE`] floating-point.
    pub issue_width: usize,
    /// Instructions dispatched into the window per cycle.
    pub dispatch_per_cycle: usize,
}

/// Full simulator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Next-block predictor parameters.
    pub predictor: PredictorConfig,
    /// Operand-network parameters (TFlex doubles link bandwidth).
    pub operand_net: MeshConfig,
    /// Handshake timing mode.
    pub protocol: ProtocolTiming,
    /// Maximum in-flight blocks per logical processor; `None` means one
    /// per participating core (the TFlex window rule).
    pub max_inflight: Option<usize>,
    /// TRIPS mode: every block is owned and sequenced by core 0
    /// (centralized control/prediction) and the predictor is a single
    /// shared bank.
    pub centralized_control: bool,
    /// The run's cycle budget, enforced by the run-loop watchdog:
    /// reaching it aborts the run with
    /// [`RunError::DeadlineExceeded`](crate::RunError). Both presets
    /// allow 200M cycles; clp-serve sets it per job, so a runaway
    /// simulation is killed and reported as a retryable deadline kill.
    pub deadline: u64,
    /// Deterministic fault-injection plan ([`FaultPlan::none`] disables
    /// injection entirely and is bit-identical to a fault-free build).
    pub faults: FaultPlan,
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
                dispatch_per_cycle: 4,
            },
            predictor: PredictorConfig::tflex(),
            operand_net: MeshConfig::tflex_operand(),
            protocol: ProtocolTiming::Modeled,
            max_inflight: None,
            centralized_control: false,
            deadline: 200_000_000,
            faults: FaultPlan::none(),
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
                dispatch_per_cycle: 1,
            },
            predictor: PredictorConfig::trips_centralized(),
            operand_net: MeshConfig::trips_operand(),
            protocol: ProtocolTiming::Modeled,
            max_inflight: Some(8),
            centralized_control: true,
            deadline: 200_000_000,
            faults: FaultPlan::none(),
        }
    }

    /// The number of cores on the chip.
    #[must_use]
    pub(crate) fn chip_cores(&self) -> usize {
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
        mem::L1I_BYTES / 1024,
        mem::L1I_HIT_LATENCY,
        cfg.predictor.state_bits(),
        clp_predictor::PREDICT_LATENCY,
        cfg.predictor.local_l1,
        cfg.predictor.local_l2,
        cfg.predictor.global,
        cfg.predictor.choice,
        cfg.predictor.ras_per_core,
        cfg.predictor.ctb,
        cfg.predictor.btb,
        cfg.predictor.btype,
        clp_isa::MAX_BLOCK_INSTRUCTIONS,
        cfg.core.issue_width,
        FP_ISSUE,
        mem::L1D_BYTES / 1024,
        mem::L1D_HIT_LATENCY,
        mem::L1D_WAYS,
        mem::LSQ_ENTRIES,
        mem::L2_BYTES >> 20,
        mem::L2_WAYS,
        mem::L2_MIN_LATENCY,
        mem::L2_MAX_LATENCY,
        mem::DRAM_LATENCY,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tflex_matches_table_1() {
        let c = SimConfig::tflex();
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
