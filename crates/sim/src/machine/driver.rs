//! The run loop, and all of event-driven skip-ahead.
//!
//! [`Machine::run`] and [`Machine::run_stepped`] report bit-identical
//! cycles, stats, traces, profiles and trends; skipping only jumps
//! stretches in which every `step` would be a no-op. PR 13 measured it
//! at 0.999–1.024× the reference stepper, and ROADMAP item 1(b) deletes
//! it once `benchmark/` stops compiling against `ObsOptions::stepped`.
//! Inside this file that deletion is `next_event_cycle`, the `skip`
//! branch of `run_inner` and `run_stepped`. What skip-ahead costs
//! *outside* this file — the checklist for that PR:
//!
//! * `clp_noc::Mesh::skip_to` (and `is_idle` if nothing else asks);
//! * `EventWheel::next_due` and its occupancy bitmask (`events.rs`);
//! * `IntervalSampler::next_due_cycle` and
//!   `TrendRecorder::next_due_cycle` (`clp-obs`);
//! * the three horizon accessors of `sched.rs`: `ReadyLists::any_ready`,
//!   `ExecQueues::next_done`, `Armed::next_start`;
//! * `FaultPlan::has_per_cycle_draws` (`fault.rs`);
//! * `ObsOptions::stepped` in `clp-core`, the `engine_equiv` suites and
//!   their CI step.

use super::error::RunError;
use super::Machine;
use crate::stats::RunStats;

/// Cycles without progress after which a run is declared deadlocked.
const DEADLOCK_WINDOW: u64 = 500_000;

impl Machine {
    /// Runs until every composed processor halts, using event-driven
    /// skip-ahead: whole idle stretches (no tile has work, nothing in
    /// flight) are jumped over instead of stepped. Cycle counts, stats,
    /// traces, profiles, and trends are bit-identical to
    /// [`Machine::run_stepped`]; only wall-clock time differs. Plans
    /// with per-cycle PRNG draws (`noc_burst`) fall back to stepping so
    /// the draw schedule is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::CycleLimit`] past the configured budget,
    /// [`RunError::DeadlineExceeded`] past a configured per-run
    /// deadline, or [`RunError::Deadlock`] if nothing progresses for a
    /// long time.
    pub fn run(&mut self) -> Result<RunStats, RunError> {
        // Skipping cycles would skip per-cycle draws and change the
        // injected-fault schedule.
        let can_skip = !self.fab.cfg.faults.has_per_cycle_draws();
        self.run_inner(can_skip)
    }

    /// The reference single-step loop: semantically identical to
    /// [`Machine::run`] but advances one cycle at a time with no
    /// skip-ahead. Exists so equivalence tests (and benchmarks) can
    /// compare the optimized engine against the plainly-correct one.
    ///
    /// # Errors
    ///
    /// Same contract as [`Machine::run`].
    pub fn run_stepped(&mut self) -> Result<RunStats, RunError> {
        self.run_inner(false)
    }

    fn run_inner(&mut self, skip: bool) -> Result<RunStats, RunError> {
        if self.fab.has_kills {
            self.validate_kills()?;
        }
        // Horizon backoff: during work-dense phases the skip check
        // never fires, so its cost is pure overhead. After each failed
        // attempt the next one is deferred exponentially (up to 64
        // steps). This only changes *when* a skip is attempted — a
        // cycle the horizon could have jumped is instead stepped, and
        // stepping an idle cycle is exactly equivalent — so reported
        // cycles stay bit-identical while dense phases pay (almost)
        // nothing for the feature.
        let mut backoff_steps = 0u32;
        let mut fail_streak = 0u32;
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
            if skip && backoff_steps == 0 {
                // Jump to one cycle *before* the horizon so the next
                // step lands exactly on it. The clamp makes the checks
                // above trip at the same `now` a stepped run reports: a
                // stepped run's last executed step lands on
                // `max_cycles`, the deadline or one past the deadlock
                // window, then the loop top errors.
                let stop = (max_cycles.saturating_sub(1))
                    .min(self.fab.last_progress + DEADLOCK_WINDOW)
                    .min(deadline.map_or(u64::MAX, |d| d.saturating_sub(1)));
                let target = self.next_event_cycle().saturating_sub(1).min(stop);
                if target > now {
                    // The mesh keeps its own cycle counter (it stamps
                    // injections and ages throttles); an idle mesh step
                    // is a pure increment, so syncing the counter is
                    // exactly equivalent to stepping it.
                    self.fab.opnet.skip_to(target);
                    self.fab.now = target;
                    fail_streak = 0;
                } else {
                    fail_streak = (fail_streak + 1).min(6);
                    backoff_steps = 1 << fail_streak;
                }
            } else {
                backoff_steps = backoff_steps.saturating_sub(1);
            }
            self.step();
        }
        Ok(self.collect_stats())
    }

    /// The earliest future cycle at which any subsystem can do work —
    /// the event-driven skip-ahead horizon.
    ///
    /// Deliberately conservative: it may name a cycle *earlier* than
    /// the true next event (waking up to a quiet cycle is a provable
    /// no-op) but never later (sleeping past an event would change the
    /// run). Every state transition in the machine is driven by one of
    /// the sources below — scheduled local events, mesh traffic, exec
    /// completions, dispatch slices, the fetch engine, the watchdog and
    /// kill schedule, and the samplers — so between `now` and the
    /// returned cycle every [`Machine::step`] is an empty loop over
    /// empty queues. `u64::MAX` means nothing is scheduled at all.
    fn next_event_cycle(&self) -> u64 {
        let fab = &self.fab;
        // In-flight mesh traffic moves every cycle.
        if !fab.opnet.is_idle() {
            return fab.now + 1;
        }
        // Scheduled local/control events.
        let mut h = fab.local.next_due(fab.now);
        for p in self.procs.iter().filter(|p| !p.halted) {
            // A draining recovery re-evaluates every cycle, and
            // ready-to-issue instructions issue on the next step.
            if p.recovery_pending || p.ready.any_ready() {
                return fab.now + 1;
            }
            // Earliest in-flight execution completion.
            h = h.min(p.exec.next_done());
            // The fetch engine acts once its pending block is ready.
            // The dead-owner stall is deliberately ignored: waking to a
            // cycle where fetch still can't install is harmless.
            if p.halt_seq.is_none() && p.slots_free > 0 {
                let pending = p.pending.filter(|f| p.program.block(f.addr).is_some());
                h = h.min(pending.map_or(u64::MAX, |f| f.ready_at));
            }
            // Dispatch slices whose fetch command has arrived (until
            // then the FetchCmd event is on the local horizon).
            h = h.min(p.armed.next_start(|seq| &p.blocks[&seq].slices));
            if fab.has_kills && !p.cores.is_empty() {
                // An armed probe is judged at its deadline; otherwise
                // the watchdog fires one cycle past the current
                // (backed-off) silence threshold.
                let silent = p.last_beat + p.silence_limit(&fab.cfg) + 1;
                h = h.min(p.probe_deadline.unwrap_or(silent));
            }
        }
        if let Some(k) = fab.pending_kills.first() {
            h = h.min(k.cycle);
        }
        // Interval boundaries are events too: skipping past a due cycle
        // would shift every later window.
        if let Some(s) = &self.sampler {
            h = h.min(s.next_due_cycle());
        }
        if let Some(t) = &self.trend {
            h = h.min(t.next_due_cycle());
        }
        h
    }
}
