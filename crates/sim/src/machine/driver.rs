//! The run loop: the one driver of the cycle model.
//!
//! [`Machine::run`] calls [`Machine::step`] once per cycle until every
//! processor halts or a limit trips, and nothing else advances the
//! clock. Event-driven skip-ahead, which jumped stretches where every
//! `step` would have been a no-op, was deleted in PR 20 (it measured
//! 0.99–1.04× this loop; that CHANGES.md entry has the numbers
//! and what its horizon cost the hot path). Every cycle is stepped, and
//! `step` reaches every stage in the same order each cycle: skipping a
//! cycle here or in `step` is skip-ahead by another name. What `step`
//! may do is pay per event: a stage sits behind a no-work test at its
//! call site when the test reads only state that `check_invariants`
//! holds (an emptiness, or the mask that summarises a list), so a stage
//! with nothing to do costs one branch.
//!
//! `run` may be called again. Every limit is checked *before* the cycle
//! it would cut, so a run that returns [`RunError::DeadlineExceeded`]
//! has left the machine exactly as the last completed cycle left it:
//! move the deadline ([`Machine::set_deadline`]) and the next call
//! picks up at that cycle and ends — cycles, counters, registers,
//! memory, fault draws and pending kills — where one uninterrupted run
//! under the final deadline ends (`tests/machine_api.rs` runs both
//! ways). clp-serve continues its deadline kills this way instead of
//! re-simulating them from cycle 0.

use super::error::RunError;
use super::Machine;
use crate::stats::RunStats;

/// Cycles without progress after which a run is declared deadlocked.
const DEADLOCK_WINDOW: u64 = 500_000;

impl Machine {
    /// Runs until every composed processor halts, one
    /// [`Machine::step`] per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::DeadlineExceeded`] at the configured
    /// deadline, [`RunError::Deadlock`] if nothing progresses for a
    /// long time, or [`RunError::InvalidKill`] / [`RunError::NoSurvivors`]
    /// before the first cycle if the fault plan's kill schedule does
    /// not fit the composed machine. (A later call re-checks the kills
    /// still pending against the machine as it now stands; a schedule
    /// that passed at cycle 0 passes again, because each kill applied
    /// since took one core from the schedule and at most one from its
    /// processor.)
    pub fn run(&mut self) -> Result<RunStats, RunError> {
        if self.fab.has_kills {
            self.validate_kills()?;
        }
        let budget = self.fab.cfg.deadline;
        while self.procs.iter().any(|p| !p.halted) {
            // Both limits in one compare: the deadline, or the cycle the
            // deadlock window closes. The deadline wins a tie.
            let now = self.fab.now;
            let window_end = self.fab.last_progress.saturating_add(DEADLOCK_WINDOW + 1);
            if now >= budget.min(window_end) {
                return Err(if now >= budget {
                    RunError::DeadlineExceeded { budget }
                } else {
                    RunError::Deadlock { cycle: now }
                });
            }
            self.step();
        }
        Ok(self.collect_stats())
    }

    /// Moves the per-run deadline ([`SimConfig::deadline`](crate::SimConfig)).
    /// After [`RunError::DeadlineExceeded`], a later deadline lets the
    /// next [`Machine::run`] continue from the cycle the last one
    /// stopped at; one at or before the current cycle stops it again at
    /// once, naming the new budget.
    pub fn set_deadline(&mut self, deadline: u64) {
        self.fab.cfg.deadline = deadline;
    }
}
