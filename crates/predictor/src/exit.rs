//! The tournament exit predictor (one bank; each core owns one).

use crate::config::{PredictorConfig, LOCAL_HISTORY_BITS};
use crate::tables::{ExitEntry, SatCounter};

/// Which component the tournament chose for a prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ExitChoice {
    /// The per-block local two-level component.
    Local,
    /// The global-history component.
    Global,
}

/// Rollback state for one speculative exit prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ExitCheckpoint {
    l1_index: usize,
    old_local_history: u32,
}

/// One bank of the tournament exit predictor: local (two-level), global,
/// and choice tables over three-bit exit IDs.
///
/// Local histories are updated speculatively at predict time and repaired
/// from the checkpoint on misprediction; the *global* history is owned by
/// [`ComposedPredictor`](crate::ComposedPredictor) because it is forwarded
/// from owner to owner with each prediction hand-off.
#[derive(Clone, Debug)]
pub(crate) struct ExitPredictor {
    cfg: PredictorConfig,
    local_l1: Vec<u32>,
    local_l2: Vec<ExitEntry>,
    global: Vec<ExitEntry>,
    choice: Vec<SatCounter>,
}

impl ExitPredictor {
    /// Creates an empty bank.
    #[must_use]
    pub fn new(cfg: PredictorConfig) -> Self {
        ExitPredictor {
            local_l1: vec![0; cfg.local_l1],
            local_l2: vec![ExitEntry::default(); cfg.local_l2],
            global: vec![ExitEntry::default(); cfg.global],
            choice: vec![SatCounter::weakly_high(); cfg.choice],
            cfg,
        }
    }

    fn l1_index(&self, block_addr: u64) -> usize {
        ((block_addr >> 9) as usize) & (self.cfg.local_l1 - 1)
    }

    fn l2_index(&self, local_history: u32) -> usize {
        (local_history as usize) & (self.cfg.local_l2 - 1)
    }

    fn global_index(&self, block_addr: u64, global_history: u32) -> usize {
        (((block_addr >> 9) as usize) ^ (global_history as usize)) & (self.cfg.global - 1)
    }

    fn choice_index(&self, block_addr: u64, global_history: u32) -> usize {
        (((block_addr >> 9) as usize) ^ (global_history as usize)) & (self.cfg.choice - 1)
    }

    /// Predicts the exit ID for the block at `block_addr`, speculatively
    /// updating the local history. Returns the prediction, the component
    /// that produced it, and a checkpoint for repair.
    pub fn predict(
        &mut self,
        block_addr: u64,
        global_history: u32,
    ) -> (u8, ExitChoice, ExitCheckpoint) {
        let l1 = self.l1_index(block_addr);
        let local_history = self.local_l1[l1];
        let local = self.local_l2[self.l2_index(local_history)].exit;
        let global = self.global[self.global_index(block_addr, global_history)].exit;
        let use_global = self.choice[self.choice_index(block_addr, global_history)].is_high();
        let (exit, choice) = if use_global {
            (global, ExitChoice::Global)
        } else {
            (local, ExitChoice::Local)
        };
        let ckpt = ExitCheckpoint {
            l1_index: l1,
            old_local_history: local_history,
        };
        // Speculative local-history update with the predicted exit.
        self.local_l1[l1] = Self::shift_history(local_history, exit, LOCAL_HISTORY_BITS);
        (exit, choice, ckpt)
    }

    /// Restores the speculative local history from a checkpoint and
    /// reapplies the actual exit (misprediction repair).
    pub fn repair(&mut self, ckpt: ExitCheckpoint, actual_exit: u8) {
        self.local_l1[ckpt.l1_index] =
            Self::shift_history(ckpt.old_local_history, actual_exit, LOCAL_HISTORY_BITS);
    }

    /// Restores the speculative local history exactly as it was before
    /// the checkpointed prediction (discarding it without a replacement —
    /// used when a squashed block will be re-predicted from scratch).
    pub fn rollback(&mut self, ckpt: ExitCheckpoint) {
        self.local_l1[ckpt.l1_index] = ckpt.old_local_history;
    }

    /// Trains all components with the resolved exit.
    ///
    /// `pre_prediction_history` values must be the histories *at predict
    /// time* (the checkpoint's local history and the forwarded global
    /// history), as in hardware where the update indexes are carried with
    /// the block.
    pub(crate) fn train(
        &mut self,
        block_addr: u64,
        ckpt: ExitCheckpoint,
        global_history: u32,
        actual_exit: u8,
    ) {
        let l2 = self.l2_index(ckpt.old_local_history);
        let g = self.global_index(block_addr, global_history);
        let local_correct = self.local_l2[l2].exit == actual_exit;
        let global_correct = self.global[g].exit == actual_exit;
        self.local_l2[l2].train(actual_exit);
        self.global[g].train(actual_exit);
        if local_correct != global_correct {
            let c = self.choice_index(block_addr, global_history);
            self.choice[c].train(global_correct);
        }
    }

    /// Shifts a 3-bit exit ID into an exit history register.
    #[must_use]
    pub(crate) fn shift_history(history: u32, exit: u8, bits: u32) -> u32 {
        ((history << 3) | u32::from(exit & 0x7)) & ((1 << bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> ExitPredictor {
        ExitPredictor::new(PredictorConfig::tflex())
    }

    #[test]
    fn learns_a_constant_exit() {
        let mut p = bank();
        let addr = 0x1000;
        let mut hist = 0u32;
        let mut correct = 0;
        for i in 0..50 {
            let (exit, _, ckpt) = p.predict(addr, hist);
            if exit == 3 {
                correct += 1;
            }
            p.train(addr, ckpt, hist, 3);
            if exit != 3 {
                p.repair(ckpt, 3);
            }
            hist = ExitPredictor::shift_history(hist, 3, 12);
            let _ = i;
        }
        assert!(correct >= 45, "only {correct}/50 correct");
    }

    #[test]
    fn learns_an_alternating_pattern_via_history() {
        // Exit alternates 1,2,1,2... The two-level components must learn it.
        let mut p = bank();
        let addr = 0x2000;
        let mut hist = 0u32;
        let mut correct_late = 0;
        for i in 0..200 {
            let actual = if i % 2 == 0 { 1 } else { 2 };
            let (exit, _, ckpt) = p.predict(addr, hist);
            if i >= 100 && exit == actual {
                correct_late += 1;
            }
            p.train(addr, ckpt, hist, actual);
            if exit != actual {
                p.repair(ckpt, actual);
            }
            hist = ExitPredictor::shift_history(hist, actual, 12);
        }
        assert!(correct_late >= 95, "late accuracy {correct_late}/100");
    }

    #[test]
    fn repair_restores_history_exactly() {
        let mut p = bank();
        let addr = 0x3000;
        // Train a stable state.
        let mut hist = 0;
        for _ in 0..20 {
            let (_, _, ckpt) = p.predict(addr, hist);
            p.train(addr, ckpt, hist, 4);
            p.repair(ckpt, 4);
            hist = ExitPredictor::shift_history(hist, 4, 12);
        }
        let snapshot = p.clone();
        // A wrong-path prediction followed by repair with the same actual
        // exit must restore identical state (tables untrained).
        let (_, _, ckpt) = p.predict(addr, hist);
        p.repair(ckpt, 4);
        assert_eq!(p.local_l1, snapshot.local_l1);
    }

    #[test]
    fn history_shift_masks_to_width() {
        let h = ExitPredictor::shift_history(0xffff_ffff, 7, 12);
        assert_eq!(h, 0xfff);
        assert_eq!(ExitPredictor::shift_history(0, 5, 12), 5);
        assert_eq!(ExitPredictor::shift_history(5, 1, 12), (5 << 3) | 1);
    }
}
