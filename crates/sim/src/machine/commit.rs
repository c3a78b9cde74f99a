//! The owner's side of a block's life: branch resolution and
//! misprediction rollback, the three flushes, completion detection, the
//! commit handshake and dealloc.

use super::fabric::Fabric;
use super::prof::{FetchReason, Prov};
use super::state::{Ev, PendingFetch, Proc};
use clp_isa::{BlockAddr, BranchKind};
use clp_obs::{FlushReason, TraceEvent};
use clp_predictor::ExitOutcome;

impl Proc {
    pub(super) fn on_branch(
        &mut self,
        fab: &mut Fabric,
        seq: u64,
        outcome: ExitOutcome,
        prov: Prov,
    ) {
        let now = fab.now;
        // The resolution protocol runs on the block's owner; a dead
        // owner never sees the branch arrive.
        let Some(b) = self.blocks.get_mut(&seq) else {
            return;
        };
        if b.outcome.is_some() || fab.is_dead(b.owner) {
            return;
        }
        b.outcome = Some(outcome);
        b.outputs_done += 1; // the branch is an output
        if let Some(pr) = &mut b.prof {
            pr.t_resolved = now;
            pr.bro_prov = prov;
        }
        let (proc, addr, owner) = (self.id, b.addr, b.owner);
        let is_halt = outcome.kind == BranchKind::Halt;
        match b.next_pred {
            Some(pred) => {
                let mispredicted = is_halt || pred.target != outcome.target;
                let correct = !mispredicted;
                fab.tracer.emit(now, || TraceEvent::BranchResolved {
                    proc,
                    addr,
                    correct,
                });
                if mispredicted {
                    self.stats.mispredicts += 1;
                    self.trace_flush(fab, addr, FlushReason::Mispredict);
                    // Roll back orphaned younger predictions, youngest
                    // first.
                    self.flush_from(fab, seq + 1);
                }
                self.predictor.resolve(addr, &pred, &outcome, mispredicted);
                if mispredicted {
                    self.redirect(fab, seq, owner, outcome);
                }
            }
            // Non-speculative sequencing (single-block windows or a
            // freshly redirected chain whose successor is not yet
            // pending).
            None if is_halt => {
                if self.blocks.has_from(seq + 1) {
                    self.trace_flush(fab, addr, FlushReason::Mispredict);
                }
                self.flush_from(fab, seq + 1);
                self.redirect(fab, seq, owner, outcome);
            }
            None if self.max_inflight == 1 && self.pending.is_none() => {
                let next = PendingFetch::new(outcome.target, now + 1, FetchReason::Sequential);
                self.pending = Some(next);
            }
            None => {}
        }
        self.check_commit(fab);
    }

    /// After a squash behind block `seq`: restarts fetch at the resolved
    /// target, or stops it at a halt.
    fn redirect(&mut self, fab: &Fabric, seq: u64, owner: usize, outcome: ExitOutcome) {
        self.chain_next = None;
        self.pending = None;
        if outcome.kind == BranchKind::Halt {
            self.halt_seq = Some(seq);
            return;
        }
        // The flush broadcast must reach every core before the
        // corrected chain restarts.
        let ready_at = fab.now + fab.max_ctrl_delay(owner, &self.cores);
        let next = PendingFetch::new(outcome.target, ready_at, FetchReason::Redirect);
        self.pending = Some(next);
    }

    pub(super) fn trace_flush(&self, fab: &Fabric, addr: BlockAddr, reason: FlushReason) {
        let proc = self.id;
        fab.tracer
            .emit(fab.now, || TraceEvent::BlockFlushed { proc, addr, reason });
    }

    /// Rolls back orphaned predictions and squashes blocks `>= from`.
    pub(super) fn flush_from(&mut self, fab: &mut Fabric, from: u64) {
        if self.halt_seq.is_some_and(|h| h >= from) {
            self.halt_seq = None;
        }
        // Squash youngest-first, rolling back each block's orphaned
        // speculation (its own next_pred, i.e. the prediction for the
        // block beyond it) on the way.
        let before = self.blocks.len();
        while let Some(b) = self.blocks.pop_back_from(from) {
            if let Some(pred) = b.next_pred {
                self.predictor.rollback(&pred);
            }
            self.slots_free += 1;
            self.stats.blocks_flushed += 1;
        }
        if self.blocks.len() == before {
            return;
        }
        // The block numbering restarts after the flushed range so stale
        // in-flight messages can never alias re-fetched blocks.
        self.regs.flush_from(from);
        self.armed.truncate_from(from);
        self.ready.truncate_from(from);
        self.exec.truncate_from(from);
        self.waiting_reads.retain(|w| w.seq < from);
        fab.mem.flush_from(&self.cores, from * 32);
        // Re-check surviving reads that may have been waiting on
        // flushed writers.
        let mut retry = std::mem::take(&mut fab.scratch_reads);
        retry.append(&mut self.waiting_reads);
        self.retry_reads(fab, retry);
    }

    /// Forward progress for the NACK overflow protocol: a request from
    /// the *oldest* in-flight block that keeps getting NACKed can only be
    /// satisfied by freeing LSQ entries. Age-based eviction: if the full
    /// bank holds entries from a block younger than the requester, that
    /// youngest block is squashed; its re-fetch re-executes long after
    /// the NACKed request retries, so older requests always make
    /// progress. Bank capacity (44) exceeds one block's LSID budget (32),
    /// so the oldest block alone always fits.
    pub(super) fn overflow_flush(&mut self, fab: &mut Fabric, bank_core: usize, nacked_seq: u64) {
        let Some(y_gseq) = fab.mem.lsq_youngest(bank_core) else {
            return;
        };
        let y_block = y_gseq / 32;
        if y_block > nacked_seq {
            self.violation_flush(fab, y_block, FlushReason::Overflow);
        }
    }

    /// Flush after a load/store ordering violation (or LSQ overflow
    /// eviction) at block `vblock`: squash it and everything younger,
    /// then refetch the same address.
    pub(super) fn violation_flush(&mut self, fab: &mut Fabric, vblock: u64, reason: FlushReason) {
        let Some(addr) = self.blocks.get(&vblock).map(|b| b.addr) else {
            return;
        };
        self.trace_flush(fab, addr, reason);
        // Train the dependence predictor: future fetches of this block
        // order their loads behind older stores.
        self.violated_addrs.insert(addr);
        self.flush_from(fab, vblock);
        self.chain_next = None;
        self.pending = Some(PendingFetch::new(addr, fab.now + 2, FetchReason::Refetch));
    }

    pub(super) fn on_output_done(
        &mut self,
        fab: &mut Fabric,
        seq: u64,
        lsid: Option<u8>,
        prov: Prov,
    ) {
        let Some(b) = self.blocks.get_mut(&seq) else {
            return self.check_commit(fab);
        };
        // Output acks collect at the block's owner; a dead owner never
        // tallies them.
        if fab.is_dead(b.owner) {
            return;
        }
        b.outputs_done += 1;
        if let Some(pr) = b.prof.as_mut().filter(|_| !b.committing) {
            pr.t_last_output = fab.now;
            pr.out_prov = prov;
        }
        if let Some(l) = lsid {
            b.stores_resolved |= 1 << l;
            // Release conservative loads whose older stores resolved,
            // in the order they were deferred. MemWait starts at a
            // load's original issue cycle, so the deferral charges to it.
            let base = self.addr_base;
            let mut deferred = std::mem::take(&mut b.deferred_loads);
            let lsid_of = |id: u8| b.tmpl.dec[usize::from(id)].lsid;
            let ready = deferred.extract_if(.., |&mut (_, id)| !b.load_must_wait(lsid_of(id)));
            let released: Vec<_> = ready
                .map(|(part, id)| (part, id, b.mem_req(id, base), b.issue_cycle(id)))
                .collect();
            b.deferred_loads = deferred;
            for (part, id, req, issued) in released {
                self.send_mem_req(fab, seq, part, id, req, issued);
            }
        }
        self.check_commit(fab);
    }

    pub(super) fn check_commit(&mut self, fab: &mut Fabric) {
        let now = fab.now;
        // No new block passes the commit point while a recovery is
        // draining — only already-committing blocks finish.
        if self.recovery_pending {
            return;
        }
        let Some((seq, b)) = self.blocks.first_mut() else {
            return;
        };
        // A dead owner cannot run the commit handshake.
        if fab.is_dead(b.owner)
            || b.committing
            || b.outcome.is_none()
            || b.outputs_done < b.tmpl.outputs_needed
            || b.slices.unfinished() > 0
        {
            return;
        }
        fab.last_progress = now;
        // Commit: functional effects now; timing modeled analytically.
        // Count register writes per bank before committing them (a
        // block writes at most 32 registers, to at most 32 banks).
        let mut reg_writes_per_bank = [0u32; 32];
        for &(_, reg) in b.tmpl.block.writes() {
            reg_writes_per_bank[reg.bank_of(self.n)] += 1;
        }
        self.regs.commit(seq);
        let (lo, hi) = (seq * 32, seq * 32 + 32);
        let mut last_ack = now + 1;
        let mut max_update = 0u64;
        for (&core, &bank_writes) in self.cores.iter().zip(&reg_writes_per_bank) {
            let cmd = fab.ctrl_delay(b.owner, core);
            let store_lat = u64::from(fab.mem.commit_stores_core(core, lo, hi));
            let update = store_lat.max(u64::from(bank_writes));
            max_update = max_update.max(update);
            last_ack = last_ack.max(now + cmd + update + cmd);
        }
        b.committing = true;
        if let Some(pr) = &mut b.prof {
            pr.t_commit_start = now;
        }
        // Record commit-latency components.
        self.stats.commit_lat_sum.arch_update += max_update as f64;
        self.stats.commit_lat_sum.handshake += (last_ack - now) as f64 - max_update as f64;
        self.stats.commit_samples += 1;
        let proc = self.ix();
        fab.push_local(last_ack, Ev::CommitDone { proc, seq });
    }

    pub(super) fn on_commit_done(&mut self, fab: &mut Fabric, seq: u64) {
        let now = fab.now;
        let Some(b) = self.blocks.remove(&seq) else {
            return;
        };
        // Commit completion is past the point of no return: the block's
        // functional effects applied when the handshake started, so it
        // finishes even if its owner died mid-handshake (modeling
        // simplification, see DESIGN.md).
        self.last_beat = fab.beat();
        let fired = b.ops.iter().filter(|o| o.fired()).count();
        fab.tracer.emit(now, || TraceEvent::BlockCommitted {
            proc: self.id,
            core: b.owner,
            addr: b.addr,
            insts: fired,
        });
        let stats = &mut self.stats;
        stats.blocks_committed += 1;
        stats.insts_dispatched += b.tmpl.block.len() as u64;
        stats.insts_committed += fired as u64;
        // Fig 9a components for this committed block.
        let fetch = &mut stats.fetch_lat_sum;
        fetch.prediction += b.predict_cycles;
        fetch.tag_access += 1.0;
        fetch.hand_off += b.hand_off_cycles;
        fetch.fetch_distribution += b.t_last_cmd.saturating_sub(b.t_init + 1) as f64;
        fetch.dispatch += b.slices.t_done().saturating_sub(b.t_last_cmd) as f64;
        stats.fetch_samples += 1;
        // Dealloc: the fetch engine learns about the free slot after the
        // dealloc broadcast reaches the prospective owner.
        let dealloc = now + fab.max_ctrl_delay(b.owner, &self.cores);
        fab.push_local(dealloc, Ev::SlotFree { proc: self.ix() });
        match b.outcome {
            Some(o) if o.kind == BranchKind::Halt => {
                self.halted = true;
                self.stats.cycles = now;
            }
            // Recovery resume point of last resort: the architecturally
            // committed successor of the last committed block.
            Some(o) => self.last_commit_target = Some(o.target),
            None => {}
        }
        if let Some(acc) = fab.prof.as_deref_mut() {
            acc.commit(self, &b, now, fab.cfg.operand_net, &fab.tracer);
        }
        self.check_commit(fab);
    }
}
