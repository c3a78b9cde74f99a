//! The composed (multi-bank) predictor and its speculation protocol.

use crate::config::{PredictorConfig, GLOBAL_HISTORY_BITS};
use crate::exit::{ExitCheckpoint, ExitPredictor};
use crate::ras::{RasCheckpoint, ReturnAddressStack};
use crate::target::TargetPredictor;
use clp_isa::{BlockAddr, BranchKind, BLOCK_FRAME_BYTES};

/// The core (participant-relative index) that owns the block at `addr` in
/// an `n_cores` composition.
///
/// Ownership hashes the *block starting address* (§4), folding in higher
/// address bits so that loops over few blocks still spread across cores.
///
/// The reduction is a true modulo (identical to the old power-of-two
/// mask when `n_cores` is a power of two), so ownership stays defined
/// over the non-power-of-two survivor sets produced by hard-fault
/// recomposition.
#[must_use]
pub fn block_owner(addr: BlockAddr, n_cores: usize) -> usize {
    debug_assert!(n_cores > 0);
    let frame = addr >> 9;
    ((frame ^ (frame >> 5)) as usize) % n_cores
}

/// The resolved outcome of a block's exit branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExitOutcome {
    /// The exit ID that actually fired.
    pub exit_id: u8,
    /// The actual branch kind.
    pub kind: BranchKind,
    /// The actual next-block address (for [`BranchKind::Halt`], the
    /// sequential address — fetch stops anyway).
    pub target: BlockAddr,
}

/// Rollback state for one block's prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    owner: usize,
    exit: ExitCheckpoint,
    ras: RasCheckpoint,
    global_history: u32,
}

/// A completed next-block prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted exit ID.
    pub exit_id: u8,
    /// Predicted branch kind.
    pub kind: BranchKind,
    /// Predicted next-block address.
    pub target: BlockAddr,
    /// The participating core that held the RAS top *before* this
    /// prediction's RAS operation (for charging message latency); `None`
    /// if the prediction involved no RAS traffic.
    pub ras_core: Option<usize>,
    /// Rollback state to pass to [`ComposedPredictor::resolve`].
    pub(crate) checkpoint: Checkpoint,
}

#[derive(Clone, Debug)]
struct Bank {
    exit: ExitPredictor,
    target: TargetPredictor,
}

/// Per-logical-processor statistics of the prediction machinery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Predictions made.
    pub predictions: u64,
    /// Resolutions where the predicted target was wrong.
    pub mispredictions: u64,
    /// Exit-ID mispredictions (subset of target mispredictions unless the
    /// target tables were wrong with the right exit).
    pub exit_mispredictions: u64,
}

impl PredictorStats {
    /// Renders these counters as a stats-registry node named `name`.
    #[must_use]
    pub fn to_node(&self, name: &str) -> clp_obs::StatsNode {
        let rate = if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        };
        clp_obs::StatsNode::new(name)
            .count("predictions", self.predictions)
            .count("mispredictions", self.mispredictions)
            .count("exit_mispredictions", self.exit_mispredictions)
            .gauge("misprediction_rate", rate)
    }
}

/// The fully composed next-block predictor for one logical processor.
///
/// Holds one identical `ExitPredictor`/`TargetPredictor` bank per
/// participating core plus the sequentially partitioned RAS and the
/// speculative global exit history that hardware forwards from owner to
/// owner.
///
/// # Examples
///
/// ```
/// use clp_predictor::{ComposedPredictor, ExitOutcome, PredictorConfig};
/// use clp_isa::BranchKind;
///
/// let mut p = ComposedPredictor::new(PredictorConfig::tflex(), 8);
/// let pred = p.predict(0x1000);
/// let actual = ExitOutcome { exit_id: 0, kind: BranchKind::Branch, target: 0x1000 };
/// let mispredicted = pred.target != actual.target;
/// p.resolve(0x1000, &pred, &actual, mispredicted);
/// assert_eq!(p.stats().predictions, 1);
/// ```
#[derive(Clone, Debug)]
pub struct ComposedPredictor {
    banks: Vec<Bank>,
    ras: ReturnAddressStack,
    global_history: u32,
    stats: PredictorStats,
}

impl ComposedPredictor {
    /// Creates a predictor for a composition of `n_cores` cores.
    ///
    /// Compositions start as powers of two (the mesh regions are
    /// rectangular), but hard-fault recovery rebuilds the predictor over
    /// the survivor set, so any nonzero bank count is accepted.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero or `cfg` is invalid.
    #[must_use]
    pub fn new(cfg: PredictorConfig, n_cores: usize) -> Self {
        assert!(n_cores > 0, "composition needs at least one core");
        assert!(
            cfg.is_valid(),
            "predictor table sizes must be powers of two"
        );
        ComposedPredictor {
            banks: (0..n_cores)
                .map(|_| Bank {
                    exit: ExitPredictor::new(cfg),
                    target: TargetPredictor::new(&cfg),
                })
                .collect(),
            ras: ReturnAddressStack::new(n_cores, cfg.ras_per_core),
            global_history: 0,
            stats: PredictorStats::default(),
        }
    }

    /// Number of participating cores.
    #[must_use]
    pub fn n_cores(&self) -> usize {
        self.banks.len()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    /// Predicts the block following the block at `addr`, speculatively
    /// updating histories and the RAS.
    pub fn predict(&mut self, addr: BlockAddr) -> Prediction {
        self.stats.predictions += 1;
        let owner = block_owner(addr, self.banks.len());
        let ghist = self.global_history;
        let (exit_id, _choice, exit_ckpt) = self.banks[owner].exit.predict(addr, ghist);
        let kind = self.banks[owner].target.predict_kind(addr, exit_id);
        let mut ras_core = None;
        let (target, ras_ckpt) = match kind {
            BranchKind::Branch => (
                self.banks[owner]
                    .target
                    .predict_branch_target(addr, exit_id),
                self.ras.checkpoint(),
            ),
            BranchKind::Call => {
                ras_core = Some(self.ras.top_core());
                let t = self.banks[owner].target.predict_call_target(addr, exit_id);
                let ckpt = self.ras.push(addr + BLOCK_FRAME_BYTES);
                (t, ckpt)
            }
            BranchKind::Return => {
                ras_core = Some(self.ras.top_core());
                let (popped, ckpt) = self.ras.pop();
                (popped.unwrap_or(addr + BLOCK_FRAME_BYTES), ckpt)
            }
            BranchKind::Seq | BranchKind::Halt => (
                TargetPredictor::sequential_target(addr),
                self.ras.checkpoint(),
            ),
        };
        self.global_history = ExitPredictor::shift_history(ghist, exit_id, GLOBAL_HISTORY_BITS);
        Prediction {
            exit_id,
            kind,
            target,
            ras_core,
            checkpoint: Checkpoint {
                owner,
                exit: exit_ckpt,
                ras: ras_ckpt,
                global_history: ghist,
            },
        }
    }

    /// Resolves a previously predicted block: trains the owner's tables
    /// and, when `mispredicted`, repairs the speculative histories and
    /// RAS from the checkpoint and reapplies the actual outcome.
    ///
    /// Mispredictions must be resolved in (block) age order, with younger
    /// speculative predictions discarded by the caller; this mirrors the
    /// owner-initiated rollback protocol of §4.3.
    pub fn resolve(
        &mut self,
        addr: BlockAddr,
        prediction: &Prediction,
        actual: &ExitOutcome,
        mispredicted: bool,
    ) {
        let ckpt = &prediction.checkpoint;
        let bank = &mut self.banks[ckpt.owner];
        bank.exit
            .train(addr, ckpt.exit, ckpt.global_history, actual.exit_id);
        let trained_target = match actual.kind {
            BranchKind::Branch | BranchKind::Call => Some(actual.target),
            _ => None,
        };
        bank.target
            .train(addr, actual.exit_id, actual.kind, trained_target);

        if actual.exit_id != prediction.exit_id {
            self.stats.exit_mispredictions += 1;
        }
        if mispredicted {
            self.stats.mispredictions += 1;
            // Roll back this block's speculative effects...
            bank.exit.repair(ckpt.exit, actual.exit_id);
            self.ras.repair(ckpt.ras);
            // ...and reapply the actual control transfer.
            match actual.kind {
                BranchKind::Call => {
                    self.ras.push(addr + BLOCK_FRAME_BYTES);
                }
                BranchKind::Return => {
                    self.ras.pop();
                }
                _ => {}
            }
            self.global_history = ExitPredictor::shift_history(
                ckpt.global_history,
                actual.exit_id,
                GLOBAL_HISTORY_BITS,
            );
        }
    }

    /// Discards a speculative prediction outright, restoring histories
    /// and the RAS to their pre-prediction state. Used for predictions
    /// that will never resolve because their block was squashed by an
    /// *older* event (ordering violation or an older misprediction);
    /// call youngest-first when unwinding several.
    pub fn rollback(&mut self, prediction: &Prediction) {
        let ckpt = &prediction.checkpoint;
        self.banks[ckpt.owner].exit.rollback(ckpt.exit);
        self.ras.repair(ckpt.ras);
        self.global_history = ckpt.global_history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ComposedPredictor {
        /// Misprediction rate over all resolved predictions.
        fn misprediction_rate(&self) -> f64 {
            if self.stats.predictions == 0 {
                0.0
            } else {
                self.stats.mispredictions as f64 / self.stats.predictions as f64
            }
        }
    }

    fn predictor(n: usize) -> ComposedPredictor {
        ComposedPredictor::new(PredictorConfig::tflex(), n)
    }

    #[test]
    fn owner_hash_distributes_sequential_blocks() {
        let owners: Vec<usize> = (0..32u64)
            .map(|i| block_owner(i * BLOCK_FRAME_BYTES, 8))
            .collect();
        let mut counts = [0usize; 8];
        for &o in &owners {
            counts[o] += 1;
        }
        // Sequential frames must not all land on one core.
        assert!(counts.iter().all(|&c| c > 0), "counts {counts:?}");
    }

    #[test]
    fn learns_a_simple_loop() {
        // Block A branches back to itself 9 times, then exits to B.
        let mut p = predictor(4);
        let a = 0x1000u64;
        let b = 0x4000u64;
        let mut correct = 0;
        let mut total = 0;
        for _trip in 0..30 {
            for i in 0..10 {
                let pred = p.predict(a);
                let actual = if i < 9 {
                    ExitOutcome {
                        exit_id: 0,
                        kind: BranchKind::Branch,
                        target: a,
                    }
                } else {
                    ExitOutcome {
                        exit_id: 1,
                        kind: BranchKind::Branch,
                        target: b,
                    }
                };
                let miss = pred.target != actual.target;
                total += 1;
                if !miss {
                    correct += 1;
                }
                p.resolve(a, &pred, &actual, miss);
            }
        }
        // Warm predictor should capture the loop pattern via histories.
        assert!(
            correct as f64 / total as f64 > 0.8,
            "accuracy {correct}/{total}"
        );
    }

    #[test]
    fn call_return_pair_uses_ras() {
        let mut p = predictor(2);
        let caller = 0x1000u64;
        let callee = 0x8000u64;
        // Train: caller calls callee; callee returns to caller+512.
        for _ in 0..4 {
            let pc = p.predict(caller);
            p.resolve(
                caller,
                &pc,
                &ExitOutcome {
                    exit_id: 0,
                    kind: BranchKind::Call,
                    target: callee,
                },
                pc.target != callee,
            );
            let pr = p.predict(callee);
            p.resolve(
                callee,
                &pr,
                &ExitOutcome {
                    exit_id: 0,
                    kind: BranchKind::Return,
                    target: caller + BLOCK_FRAME_BYTES,
                },
                pr.target != caller + BLOCK_FRAME_BYTES,
            );
        }
        // Now both should predict correctly, with the return served by RAS.
        let pc = p.predict(caller);
        assert_eq!(pc.kind, BranchKind::Call);
        assert_eq!(pc.target, callee);
        let pr = p.predict(callee);
        assert_eq!(pr.kind, BranchKind::Return);
        assert_eq!(pr.target, caller + BLOCK_FRAME_BYTES);
        assert!(pr.ras_core.is_some(), "return consults the RAS");
    }

    #[test]
    fn misprediction_repair_restores_ras_depth() {
        let mut p = predictor(1);
        let a = 0x1000u64;
        // Train block A as a call so the predictor speculatively pushes.
        for _ in 0..3 {
            let pred = p.predict(a);
            p.resolve(
                a,
                &pred,
                &ExitOutcome {
                    exit_id: 0,
                    kind: BranchKind::Call,
                    target: 0x8000,
                },
                pred.target != 0x8000,
            );
        }
        let depth_before = p.ras.depth();
        // Next prediction pushes again (predicted call), but the block
        // actually takes a plain branch: repair must pop the bogus entry.
        let pred = p.predict(a);
        assert_eq!(pred.kind, BranchKind::Call);
        p.resolve(
            a,
            &pred,
            &ExitOutcome {
                exit_id: 1,
                kind: BranchKind::Branch,
                target: 0x2000,
            },
            true,
        );
        assert_eq!(p.ras.depth(), depth_before, "speculative push undone");
    }

    #[test]
    fn stats_count_mispredictions() {
        let mut p = predictor(1);
        let a = 0u64;
        let pred = p.predict(a);
        p.resolve(
            a,
            &pred,
            &ExitOutcome {
                exit_id: 7,
                kind: BranchKind::Branch,
                target: 0x10_000,
            },
            true,
        );
        assert_eq!(p.stats().predictions, 1);
        assert_eq!(p.stats().mispredictions, 1);
        assert!(p.misprediction_rate() > 0.99);
    }

    #[test]
    fn non_power_of_two_survivor_sets_accepted() {
        // Hard-fault recovery rebuilds the predictor over the survivor
        // set, which is usually not a power of two (16 -> 15 cores).
        for n in [3usize, 5, 7, 15, 31] {
            let mut p = predictor(n);
            for addr in (0u64..64 * 512).step_by(512) {
                assert!(block_owner(addr, n) < n);
                let _ = p.predict(addr);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_composition_rejected() {
        let _ = predictor(0);
    }
}
