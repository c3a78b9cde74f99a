//! Target prediction: branch-type table, BTB, CTB, sequential adder.

use crate::config::PredictorConfig;
use crate::tables::TaggedTable;
use clp_isa::{BlockAddr, BranchKind, BLOCK_FRAME_BYTES};

/// One bank of target-prediction state (each core owns one).
///
/// Given a predicted exit ID, the `Btype` table predicts the exit's
/// control-transfer kind, which selects among four target sources: the
/// BTB (branches), the CTB (calls), the RAS (returns; owned by
/// [`ComposedPredictor`](crate::ComposedPredictor)), and the
/// next-sequential-block adder.
#[derive(Clone, Debug)]
pub(crate) struct TargetPredictor {
    btype: Vec<u8>,
    btype_mask: usize,
    btb: TaggedTable,
    ctb: TaggedTable,
}

impl TargetPredictor {
    /// Creates an empty bank.
    #[must_use]
    pub fn new(cfg: &PredictorConfig) -> Self {
        TargetPredictor {
            btype: vec![BranchKind::Seq.encode(); cfg.btype],
            btype_mask: cfg.btype - 1,
            btb: TaggedTable::new(cfg.btb),
            ctb: TaggedTable::new(cfg.ctb),
        }
    }

    fn btype_index(&self, addr: BlockAddr, exit: u8) -> usize {
        ((((addr >> 9) << 3) as usize) | exit as usize) & self.btype_mask
    }

    fn btb_key(addr: BlockAddr, exit: u8) -> u64 {
        ((addr >> 9) << 3) | u64::from(exit)
    }

    /// Predicts the branch kind of `exit` out of the block at `addr`.
    /// Cold entries predict a sequential exit.
    #[must_use]
    pub(crate) fn predict_kind(&self, addr: BlockAddr, exit: u8) -> BranchKind {
        BranchKind::decode(self.btype[self.btype_index(addr, exit)]).unwrap_or(BranchKind::Seq)
    }

    /// Predicts the target of a regular branch (BTB); falls back to the
    /// sequential address on a miss.
    #[must_use]
    pub(crate) fn predict_branch_target(&self, addr: BlockAddr, exit: u8) -> BlockAddr {
        self.btb
            .lookup(Self::btb_key(addr, exit))
            .unwrap_or(addr + BLOCK_FRAME_BYTES)
    }

    /// Predicts the target of a call (CTB); falls back to the sequential
    /// address on a miss.
    #[must_use]
    pub(crate) fn predict_call_target(&self, addr: BlockAddr, exit: u8) -> BlockAddr {
        self.ctb
            .lookup(Self::btb_key(addr, exit))
            .unwrap_or(addr + BLOCK_FRAME_BYTES)
    }

    /// The sequential-exit target (`SEQ` adder).
    #[must_use]
    pub(crate) fn sequential_target(addr: BlockAddr) -> BlockAddr {
        addr + BLOCK_FRAME_BYTES
    }

    /// Trains the bank with a resolved exit.
    pub(crate) fn train(
        &mut self,
        addr: BlockAddr,
        exit: u8,
        kind: BranchKind,
        target: Option<BlockAddr>,
    ) {
        let idx = self.btype_index(addr, exit);
        self.btype[idx] = kind.encode();
        if let Some(t) = target {
            match kind {
                BranchKind::Branch => self.btb.insert(Self::btb_key(addr, exit), t),
                BranchKind::Call => self.ctb.insert(Self::btb_key(addr, exit), t),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> TargetPredictor {
        TargetPredictor::new(&PredictorConfig::tflex())
    }

    #[test]
    fn cold_prediction_is_sequential() {
        let t = bank();
        assert_eq!(t.predict_kind(0x1000, 0), BranchKind::Seq);
        assert_eq!(t.predict_branch_target(0x1000, 0), 0x1200);
        assert_eq!(TargetPredictor::sequential_target(0x1000), 0x1200);
    }

    #[test]
    fn learns_kind_and_branch_target() {
        let mut t = bank();
        t.train(0x1000, 2, BranchKind::Branch, Some(0x8000));
        assert_eq!(t.predict_kind(0x1000, 2), BranchKind::Branch);
        assert_eq!(t.predict_branch_target(0x1000, 2), 0x8000);
        // Different exit of the same block: untrained.
        assert_eq!(t.predict_kind(0x1000, 3), BranchKind::Seq);
    }

    #[test]
    fn learns_call_target_in_ctb() {
        let mut t = bank();
        t.train(0x2000, 1, BranchKind::Call, Some(0x4000));
        assert_eq!(t.predict_kind(0x2000, 1), BranchKind::Call);
        assert_eq!(t.predict_call_target(0x2000, 1), 0x4000);
        // The BTB is unaffected.
        assert_eq!(t.predict_branch_target(0x2000, 1), 0x2200);
    }

    #[test]
    fn return_kind_learned_without_target() {
        let mut t = bank();
        t.train(0x3000, 0, BranchKind::Return, None);
        assert_eq!(t.predict_kind(0x3000, 0), BranchKind::Return);
    }
}
