//! Predictor sizing parameters.

/// Bits of local exit history kept per level-1 local entry (7).
pub(crate) const LOCAL_HISTORY_BITS: u32 = 7;
/// Bits of global exit history (12).
pub(crate) const GLOBAL_HISTORY_BITS: u32 = 12;
/// Prediction latency in cycles (Table 1: 3 cycles).
pub const PREDICT_LATENCY: u32 = 3;

/// Per-core predictor structure sizes (Table 1 of the paper).
///
/// The distributed predictor instantiates one bank of each structure per
/// core, so total capacity scales with composition size. All table sizes
/// must be powers of two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Entries in the level-1 local-history table.
    pub local_l1: usize,
    /// Entries in the level-2 local exit table.
    pub local_l2: usize,
    /// Entries in the global exit table.
    pub global: usize,
    /// Entries in the choice (tournament selector) table.
    pub choice: usize,
    /// Entries in the branch-type table.
    pub btype: usize,
    /// Entries in the branch target buffer.
    pub btb: usize,
    /// Entries in the call target buffer.
    pub ctb: usize,
    /// Return-address-stack entries per core.
    pub ras_per_core: usize,
}

impl PredictorConfig {
    /// The single-core TFlex bank sizes from Table 1: local 64 (L1) + 128
    /// (L2), global 512, choice 512, RAS 16, CTB 16, BTB 128, Btype 256.
    #[must_use]
    pub fn tflex() -> Self {
        PredictorConfig {
            local_l1: 64,
            local_l2: 128,
            global: 512,
            choice: 512,
            btype: 256,
            btb: 128,
            ctb: 16,
            ras_per_core: 16,
        }
    }

    /// The TRIPS prototype's centralized predictor: a single bank of the
    /// same aggregate capacity as ~2 TFlex banks, shared by all 16 tiles
    /// (its capacity does not scale with composition).
    #[must_use]
    pub fn trips_centralized() -> Self {
        PredictorConfig {
            local_l1: 128,
            local_l2: 256,
            global: 1024,
            choice: 1024,
            btype: 512,
            btb: 256,
            ctb: 32,
            ras_per_core: 32,
        }
    }

    /// Approximate predictor state per bank, in bits (the paper quotes
    /// "8K+256 bits" for the TFlex tournament predictor).
    #[must_use]
    pub fn state_bits(&self) -> usize {
        let exit_entry = 3 + 2; // exit id + hysteresis
        self.local_l1 * LOCAL_HISTORY_BITS as usize
            + self.local_l2 * exit_entry
            + self.global * exit_entry
            + self.choice * 2
            + self.btype * 3
            + self.btb * (16 + 32)
            + self.ctb * (16 + 32)
            + self.ras_per_core * 64
    }

    /// Validates that all table sizes are powers of two.
    #[must_use]
    pub(crate) fn is_valid(&self) -> bool {
        [
            self.local_l1,
            self.local_l2,
            self.global,
            self.choice,
            self.btype,
            self.btb,
            self.ctb,
            self.ras_per_core,
        ]
        .iter()
        .all(|n| n.is_power_of_two())
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self::tflex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `goldens/table1.txt` pins the TFlex sizes and the latency; what
    /// it does not print is that every size is a power of two.
    #[test]
    fn defaults_match_table_1() {
        assert!(PredictorConfig::tflex().is_valid());
    }

    #[test]
    fn state_bits_in_expected_ballpark() {
        // The paper quotes roughly 8K bits of tournament state; our
        // accounting (including target structures) lands within a small
        // factor of that.
        let bits = PredictorConfig::tflex().state_bits();
        assert!(bits > 4_000 && bits < 20_000, "got {bits}");
    }

    #[test]
    fn invalid_sizes_detected() {
        let mut c = PredictorConfig::tflex();
        c.global = 500;
        assert!(!c.is_valid());
    }
}
