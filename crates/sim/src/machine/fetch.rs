//! Composable fetch: the block owner installs a block, broadcasts fetch
//! commands to every participant, predicts the successor and hands
//! control to the next owner.

use super::decode::FetchTemplate;
use super::fabric::Fabric;
use super::prof::FetchReason;
use super::state::{Blk, Ev, PendingFetch, Proc};
use crate::fault::FaultInjector;
use clp_isa::BlockAddr;
use clp_obs::TraceEvent;
use std::sync::Arc;

impl Proc {
    pub(super) fn fetch_stage(&mut self, fab: &mut Fabric) {
        if self.halted || self.halt_seq.is_some() || self.recovery_pending || self.slots_free == 0 {
            return;
        }
        let Some(f) = self.pending.filter(|f| f.ready_at <= fab.now) else {
            return;
        };
        // A dead owner cannot run the fetch protocol: the fetch stalls
        // (survivors see only silence) until the watchdog recomposes.
        let owner = self.owner_core(f.addr);
        if fab.is_dead(owner) {
            return;
        }
        // A pending fetch of a block that does not exist (wrong-path
        // beyond program bounds) waits until a redirect replaces it.
        let Some(tmpl) = self.template(f.addr) else {
            return;
        };
        self.pending = None;
        self.install_block(fab, f, owner, tmpl);
    }

    fn install_block(
        &mut self,
        fab: &mut Fabric,
        f: PendingFetch,
        owner: usize,
        tmpl: Arc<FetchTemplate>,
    ) {
        let (now, proc) = (fab.now, self.id);
        self.last_beat = fab.beat();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots_free -= 1;
        // A non-zero hand-off means this fetch continues a predicted
        // chain; entry and redirect fetches are non-speculative.
        fab.tracer.emit(now, || TraceEvent::BlockFetched {
            proc,
            core: owner,
            addr: f.addr,
            speculative: f.hand_off_cycles > 0.0,
        });
        // Declare register writes so younger readers wait (write mask is
        // part of the block header, known at fetch).
        for &(_, reg) in tmpl.block.writes() {
            self.regs.declare_write(reg, seq);
        }
        let conservative = self.violated_addrs.contains(&f.addr);
        let mut blk = Blk::new(&f, owner, tmpl, conservative, now, fab.prof.is_some());
        // Tag access (1 cycle), then broadcast fetch commands.
        for (part, &dst) in self.cores.iter().enumerate() {
            let at = now + 1 + fab.ctrl_delay(owner, dst);
            let ev = Ev::FetchCmd {
                proc: self.ix(),
                seq,
                part: part as u8,
            };
            fab.push_local(at, ev);
        }
        if self.max_inflight > 1 {
            self.predict_next(fab, &mut blk);
        }
        self.blocks.insert(seq, blk);
    }

    /// Predicts the successor of the block being installed and hands
    /// control to its owner.
    fn predict_next(&mut self, fab: &mut Fabric, blk: &mut Blk) {
        let (now, owner) = (fab.now, blk.owner);
        let mut pred = self.predictor.predict(blk.addr);
        // Forced mispredict: steer the prediction one block frame off
        // its target. The checkpoint inside `pred` is untouched, so
        // rollback and resolution-time training follow the normal
        // mispredict recovery path; the wrong-path fetch either finds
        // a real (wrong) block or stalls until the redirect.
        let flip = |f: &mut FaultInjector| f.flip_prediction().then_some(0);
        if fab.fault("mispredict", owner, flip).is_some() {
            pred.target = pred.target.wrapping_add(clp_isa::BLOCK_FRAME_BYTES);
        }
        fab.tracer.emit(now, || TraceEvent::BlockPredicted {
            core: owner,
            addr: blk.addr,
            target: pred.target,
        });
        let pred_lat = u64::from(self.predictor.latency());
        blk.predict_cycles = pred_lat as f64;
        // RAS traffic: a push/pop message to the stack-top core.
        let ras_extra = match pred.ras_core {
            Some(rc) if !fab.cfg.centralized_control => {
                fab.ctrl_delay(owner, self.cores[rc.min(self.n - 1)])
            }
            _ => 0,
        };
        let flight = fab.ctrl_delay(owner, self.owner_core(pred.target));
        self.chain_next = Some(pred.target);
        // Delayed hand-off: the control message to the next owner
        // simply takes longer, as if the control mesh were congested.
        let delay = fab.fault("handoff_delay", owner, FaultInjector::handoff_delay);
        let at = now + 1 + pred_lat + ras_extra + flight + delay.unwrap_or(0);
        let (proc, addr) = (self.ix(), pred.target);
        fab.push_local(at, Ev::HandOff { proc, addr });
        blk.next_pred = Some(pred);
    }

    pub(super) fn on_handoff(&mut self, fab: &mut Fabric, addr: BlockAddr) {
        // Wrong-path hand-offs are dropped when the proc already halted,
        // a redirect replaced the chain, or the speculation they continue
        // was squashed.
        if self.halted
            || self.halt_seq.is_some()
            || self.pending.is_some()
            || self.chain_next != Some(addr)
        {
            return;
        }
        let youngest = self.blocks.values().next_back();
        let from_core = youngest.map_or(self.cores[0], |b| b.owner);
        let to_core = self.owner_core(addr);
        // A hand-off from or to a dead core is lost in flight.
        if fab.is_dead(from_core) || fab.is_dead(to_core) {
            return;
        }
        fab.tracer.emit(fab.now, || TraceEvent::FetchHandoff {
            proc: self.id,
            from_core,
            to_core,
            addr,
        });
        self.chain_next = None;
        self.pending = Some(PendingFetch {
            addr,
            ready_at: fab.now,
            hand_off_cycles: fab.ctrl_delay(from_core, to_core) as f64,
            reason: FetchReason::HandOff,
        });
    }

    pub(super) fn on_fetch_cmd(&mut self, fab: &mut Fabric, seq: u64, part: usize) {
        let Some(b) = self.blocks.get_mut(&seq) else {
            return;
        };
        // A dead core never services its fetch command; the slice simply
        // never dispatches and the watchdog eventually flushes the block.
        let core = self.cores[part];
        if fab.is_dead(core) {
            return;
        }
        let now = fab.now;
        let addr = b.addr.wrapping_add(self.addr_base);
        let lat = fab.mem.fetch_block_slice(core, addr, part, self.n);
        b.t_last_cmd = b.t_last_cmd.max(now);
        self.armed
            .arm(seq, &mut b.slices, part, now, now + u64::from(lat));
    }
}
