//! The run loop: the one driver of the cycle model.
//!
//! [`Machine::run`] calls [`Machine::step`] once per cycle until every
//! processor halts or a limit trips, and nothing else advances the
//! clock. Event-driven skip-ahead, which jumped stretches where every
//! `step` would have been a no-op, was deleted in PR 20 (it measured
//! 0.99–1.04× this loop; DESIGN.md, "Execution engine", has the numbers
//! and what its horizon cost the hot path). Do not add a fast path for
//! idle cycles here or in `step`: that is skip-ahead by another name.
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
    /// Returns [`RunError::CycleLimit`] past the configured budget,
    /// [`RunError::DeadlineExceeded`] past a configured per-run
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
        let (max_cycles, deadline) = (self.fab.cfg.max_cycles, self.fab.cfg.deadline);
        while self.procs.iter().any(|p| !p.halted) {
            let now = self.fab.now;
            if now >= max_cycles {
                return Err(RunError::CycleLimit(max_cycles));
            }
            if let Some(budget) = deadline.filter(|&d| now >= d) {
                return Err(RunError::DeadlineExceeded { budget });
            }
            if now.saturating_sub(self.fab.last_progress) > DEADLOCK_WINDOW {
                return Err(RunError::Deadlock { cycle: now });
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
    pub fn set_deadline(&mut self, deadline: Option<u64>) {
        self.fab.cfg.deadline = deadline;
    }
}
