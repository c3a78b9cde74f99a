//! Hard faults: kill, detect, recompose.
//!
//! A scheduled kill permanently silences a core: deliveries to it are
//! dropped, its pipeline stages stop, and nothing it had queued ever
//! leaves. Survivors get NO side channel — they notice only that acks,
//! hand-offs, and operands stop arriving. The heartbeat watchdog turns
//! that silence into a declaration: after `watchdog_timeout` cycles
//! without protocol progress it probes the participants (a modeled
//! round trip on the control network); an unresponsive participant is
//! declared dead, an all-alive round doubles the threshold (bounded
//! exponential backoff, so long-but-healthy stalls like DRAM misses
//! don't thrash). Recovery then waits for any committing block to
//! drain (commit effects are past the point of no return), flushes
//! every in-flight block, migrates architectural state off the dead
//! cores (register banks by accounting — the register file is
//! logically unified — and dirty L1 lines physically through the
//! S-NUCA L2), recomputes every interleaving hash over the survivor
//! set (which may be non-power-of-two), and resumes fetch at the
//! architecturally correct next block. Modeled simplifications,
//! documented in DESIGN.md: a block whose commit handshake started
//! always completes it (its functional effects are already durable),
//! and mesh messages routed *through* a dead core's router are not
//! re-routed (only endpoints are silenced).

use super::error::RunError;
use super::fabric::Fabric;
use super::prof::FetchReason;
use super::state::{PendingFetch, Proc};
use super::Machine;
use crate::config::SimConfig;
use clp_isa::Reg;
use clp_obs::{FlushReason, TraceEvent};
use clp_predictor::ComposedPredictor;

impl Fabric {
    /// Marks any kill whose cycle has arrived. Called once per step,
    /// only when the plan schedules kills.
    pub(super) fn apply_due_kills(&mut self) {
        let due = self.pending_kills.partition_point(|k| k.cycle <= self.now);
        for k in self.pending_kills.drain(..due) {
            let core = usize::from(k.core);
            if !self.dead[core] {
                self.dead[core] = true;
                self.killed_at[core] = Some(self.now);
                self.recovery_stats.cores_killed += 1;
                self.tracer
                    .emit(self.now, || TraceEvent::CoreKilled { core });
            }
        }
    }

    /// Emits death declarations (and detection-latency accounting) for
    /// every dead-but-undeclared core of processor `proc`.
    fn declare_dead(&mut self, proc: usize, cores: &[usize]) {
        let now = self.now;
        for &core in cores {
            if self.dead[core] && !self.declared_dead[core] {
                self.declared_dead[core] = true;
                let det = now.saturating_sub(self.killed_at[core].unwrap_or(now));
                self.recovery_stats.detection_cycles += det;
                self.tracer.emit(now, || TraceEvent::CoreDeclaredDead {
                    proc,
                    core,
                    detection_cycles: det,
                });
            }
        }
    }
}

impl Proc {
    /// Silence (cycles since the last heartbeat) the watchdog tolerates
    /// before probing, at the current backoff round.
    fn silence_limit(&self, cfg: &SimConfig) -> u64 {
        cfg.watchdog_timeout << self.probe_round.min(cfg.watchdog_backoff_cap)
    }
}

impl Machine {
    /// Kill schedules are validated against the *composed* machine:
    /// every target must be a participating core, and every logical
    /// processor must keep at least one survivor.
    pub(super) fn validate_kills(&self) -> Result<(), RunError> {
        let mut kills_on_proc = vec![0usize; self.procs.len()];
        for k in &self.fab.pending_kills {
            let core = usize::from(k.core);
            match self.fab.core_map.get(core).copied().flatten() {
                Some((pi, _)) => kills_on_proc[pi] += 1,
                None => return Err(RunError::InvalidKill { core }),
            }
        }
        let mut procs = self.procs.iter().zip(&kills_on_proc);
        match procs.find(|(p, &kills)| kills >= p.n) {
            Some((p, _)) => Err(RunError::NoSurvivors { proc: p.id }),
            None => Ok(()),
        }
    }

    /// One watchdog evaluation for processor `pi` (kill plans only).
    /// Fully cycle-count driven — no PRNG draws — so detection timing is
    /// deterministic per plan.
    pub(super) fn watchdog(&mut self, pi: usize) {
        let (fab, p) = (&mut self.fab, &mut self.procs[pi]);
        let now = fab.now;
        if p.recovery_pending {
            return self.try_recover(pi);
        }
        if p.cores.is_empty() {
            return;
        }
        match p.probe_deadline {
            Some(d) if now < d => {}
            Some(_) if p.cores.iter().any(|&c| fab.dead[c]) => {
                fab.declare_dead(pi, &p.cores);
                p.recovery_pending = true;
                self.try_recover(pi);
            }
            Some(_) => {
                // Spurious: the stall was slow, not dead. Back off.
                p.probe_deadline = None;
                p.probe_round = (p.probe_round + 1).min(fab.cfg.watchdog_backoff_cap);
                p.last_beat = now;
            }
            None if now.saturating_sub(p.last_beat) > p.silence_limit(&fab.cfg) => {
                // Modeled round trip of a heartbeat probe across the
                // composition.
                let rtt = 2 * fab.max_ctrl_delay(p.cores[0], &p.cores) + 2;
                p.probe_deadline = Some(now + rtt);
                fab.recovery_stats.probes += 1;
            }
            None => {}
        }
    }

    /// Runs recovery once every point-of-no-return block has drained.
    fn try_recover(&mut self, pi: usize) {
        let p = &mut self.procs[pi];
        if p.halted {
            p.recovery_pending = false;
            return;
        }
        // A committing block's functional effects are already durable;
        // its handshake completes (CommitDone is pre-scheduled) and then
        // recovery flushes everything younger.
        if !p.blocks.values().any(|b| b.committing) {
            self.perform_recovery(pi);
        }
    }

    /// The degraded-mode recomposition: flush, migrate, re-interleave,
    /// resume.
    fn perform_recovery(&mut self, pi: usize) {
        let (fab, p) = (&mut self.fab, &mut self.procs[pi]);
        let now = fab.now;
        let (dead_cores, survivors): (Vec<usize>, Vec<usize>) =
            p.cores.iter().copied().partition(|&c| fab.dead[c]);
        if dead_cores.is_empty() {
            p.recovery_pending = false;
            return;
        }
        // Kills can land while a commit drains; declare any stragglers.
        fab.declare_dead(pi, &p.cores);
        assert!(
            !survivors.is_empty(),
            "no-survivor plans are rejected before running"
        );

        // Resume point, computed before the flush: the oldest in-flight
        // block is always on the architecturally correct path (its
        // predecessor resolved — and corrected any misprediction —
        // before committing).
        let oldest = p.blocks.first().map(|(seq, b)| (seq, b.addr));
        let resume = oldest
            .map(|(_, addr)| addr)
            .or(p.pending.map(|f| f.addr))
            .or(p.last_commit_target)
            .unwrap_or_else(|| p.program.entry());

        // Flush every in-flight block: any of them may hold operands,
        // LSQ entries, or dispatch slices on the dead cores.
        let flushed = p.blocks.len();
        if let Some((seq, addr)) = oldest {
            p.trace_flush(fab, addr, FlushReason::Recovery);
            p.flush_from(fab, seq);
        }

        // Migrate architectural state. Registers interleave by the OLD
        // hash; banks on dead cores stream to survivors (the register
        // file is logically unified, so this is accounting + latency).
        let migrated_regs = (0..clp_isa::NUM_ARCH_REGS)
            .filter(|&r| fab.dead[p.cores[Reg::new(r).bank_of(p.n)]])
            .count() as u64;
        let mut migrated_lines = 0u64;
        let mut migrated_bytes = migrated_regs * 8;
        let mut bank_latency = 0u64;
        for &core in &dead_cores {
            let rep = fab.mem.evacuate_core(core);
            migrated_lines += rep.dirty_lines;
            migrated_bytes += rep.bytes;
            // Dead banks drain in parallel; the slowest gates resume.
            bank_latency = bank_latency.max(rep.latency);
            fab.core_map[core] = None;
        }
        let migration_cycles = bank_latency + migrated_regs;

        // Recompose over the survivors: every interleaving hash
        // (register bank, D-bank/LSQ, instruction slot, block owner)
        // re-evaluates over their number, which need not be a power of
        // two.
        for (new_part, &c) in survivors.iter().enumerate() {
            fab.core_map[c] = Some((pi, new_part));
        }
        let new_n = survivors.len();
        p.cores = survivors;
        p.n = new_n;
        p.ctrl_banks = Proc::ctrl_banks_for(&fab.cfg, new_n);
        // Dispatch slices are hashed over `n`: stale templates
        // would dispatch dead-core slices.
        p.fetch_cache.clear();
        // The predictor restarts cold: its banked tables were hashed
        // over the old core set and the dead bank's history is gone.
        p.predictor = ComposedPredictor::new(fab.cfg.predictor, p.ctrl_banks);
        p.ready.reset(new_n);
        p.exec.reset(new_n);
        p.armed.reset();
        p.waiting_reads.clear();
        p.max_inflight = fab.cfg.max_inflight.unwrap_or(new_n).max(1);
        p.slots_free = p.max_inflight;
        p.chain_next = None;
        p.halt_seq = None;
        let resume_at = now + migration_cycles;
        p.pending = Some(PendingFetch::new(resume, resume_at, FetchReason::Resume));
        p.recovery_pending = false;
        p.probe_deadline = None;
        p.probe_round = 0;
        p.last_beat = resume_at;
        fab.last_progress = now;

        fab.recovery_stats.recoveries += 1;
        // A recovery is a forced recomposition: the survivor set is a new
        // (smaller) core allocation for the same logical processor.
        fab.compose_stats.recompositions += 1;
        fab.compose_stats.cores_released += 1;
        fab.compose_stats.last_change_cycle = now;
        fab.recovery_stats.flushed_blocks += flushed as u64;
        fab.recovery_stats.migrated_regs += migrated_regs;
        fab.recovery_stats.migrated_lines += migrated_lines;
        fab.recovery_stats.migrated_bytes += migrated_bytes;
        fab.recovery_stats.migration_cycles += migration_cycles;
        fab.tracer.emit(now, || TraceEvent::RecoveryCompleted {
            proc: pi,
            survivors: new_n,
            flushed_blocks: flushed,
            migrated_bytes,
        });
        if fab.recovery_mark.is_none() {
            let insts = self.procs.iter().map(|p| p.stats.insts_dispatched);
            fab.recovery_mark = Some((resume_at, insts.sum()));
        }
    }
}
