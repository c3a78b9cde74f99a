//! Sliced dispatch and dataflow wakeup: each participant walks its
//! slice of every armed block into the window, and an instruction whose
//! last input arrived joins its core's ready list.

use super::decode::{Decoded, Kind};
use super::fabric::Fabric;
use super::prof::Prov;
use super::sched::ReadyLists;
use super::state::{Blk, OpBody, OpMsg, OpState, Proc, ProcIx};
use crate::stats::ProcStats;

/// What a wakeup writes besides its block: the chip and two fields of
/// the processor, lent beside the `&mut Blk` the caller looked up.
pub(super) struct Sink<'a> {
    pub(super) fab: &'a mut Fabric,
    pub(super) ready: &'a mut ReadyLists,
    pub(super) stats: &'a mut ProcStats,
}

impl Sink<'_> {
    /// `body` on its way from the core of instruction `d` to its
    /// register's bank.
    fn send_to_bank(&mut self, d: &Decoded, proc: ProcIx, seq: u64, prov: Prov, body: OpBody) {
        let msg = OpMsg {
            proc,
            seq,
            prov,
            body,
        };
        self.fab
            .deliver(usize::from(d.home), usize::from(d.bank), msg);
    }
}

impl Blk {
    /// Dispatches instruction `id` of this block (`seq`) into the
    /// window on `part`: a READ sends its request to the register's
    /// bank, anything else may already hold all its inputs.
    fn dispatch(&mut self, sink: &mut Sink, seq: u64, part: usize, id: u8) {
        let (i, now) = (usize::from(id), sink.fab.now);
        self.ops[i].flags |= OpState::DISPATCHED;
        let d = &self.tmpl.dec[i];
        if d.kind != Kind::Read {
            return self.wake(sink, seq, part, id, Prov::dispatch(now));
        }
        let body = OpBody::ReadReq {
            reg: d.reg,
            targets: d.targets,
        };
        let prov = Prov::reg_read(id, usize::from(d.home), now, now);
        sink.send_to_bank(d, self.tmpl.proc, seq, prov, body);
    }

    /// Marks instruction `id` of this block (`seq`), on `part`, ready if
    /// all its inputs are present. `trigger` is the provenance of the
    /// arrival that prompted the call (the instruction's own dispatch,
    /// or an operand delivery); when the call transitions the
    /// instruction to ready it is, by construction, the last-arrival
    /// edge the profiler records.
    pub(super) fn wake(&mut self, sink: &mut Sink, seq: u64, part: usize, id: u8, trigger: Prov) {
        let (i, now) = (usize::from(id), sink.fab.now);
        let d = &self.tmpl.dec[i];
        let st = &mut self.ops[i];
        if st.flags != OpState::DISPATCHED || st.got & d.need != d.need {
            return;
        }
        if let Some(pr) = &mut self.prof {
            let ip = &mut pr.insts[i];
            ip.ready = now;
            ip.edge = trigger;
        }
        if d.kind != Kind::Write {
            st.flags |= OpState::QUEUED;
            return sink.ready.push(part, (seq, id));
        }
        // Writes fire the moment their input lands.
        st.flags |= OpState::FIRED;
        self.fired += 1;
        if let Some(pr) = &mut self.prof {
            pr.insts[i].issue = now;
        }
        sink.stats.insts_fired += 1;
        sink.stats.reg_writes += 1;
        let body = OpBody::WriteFwd {
            reg: d.reg,
            value: st.arrived(0),
        };
        let prov = Prov::exec(id, usize::from(d.home), now, now);
        sink.send_to_bank(d, self.tmpl.proc, seq, prov, body);
    }
}

impl Proc {
    pub(super) fn dispatch_stage(&mut self, fab: &mut Fabric) {
        // Only armed blocks matter: every slice of any other block is
        // finished or still waiting for its fetch command. Parts run in
        // ascending order and, within a part, blocks oldest first; a
        // part none of the armed blocks has a runnable slice on would
        // find nothing to do. No bit is set during the stage (only a
        // fetch command sets one), so the union read here names every
        // part that can make progress; `step` calls the stage only when
        // it names one.
        let mut parts = self.armed.parts();
        let now = fab.now;
        while parts != 0 {
            let part = parts.trailing_zeros() as usize;
            parts &= parts - 1;
            if fab.is_dead(self.cores[part]) {
                continue;
            }
            let mut budget = fab.cfg.core.dispatch_per_cycle;
            let mut i = 0;
            while let Some(seq) = self.armed.get(i).filter(|_| budget > 0) {
                let b = self.blocks.get_mut(&seq);
                let b = b.expect("armed blocks are in flight (Armed::check)");
                let Some(claim) = self.armed.advance(i, &mut b.slices, part, now, budget) else {
                    i += 1;
                    continue;
                };
                // A disarmed block left the list; the next took its place.
                i += usize::from(!claim.disarmed);
                self.commit_due |= claim.dispatched;
                budget -= claim.ids.len();
                // Dispatch is protocol progress.
                self.last_beat = fab.beat();
                let mut sink = Sink {
                    fab,
                    ready: &mut self.ready,
                    stats: &mut self.stats,
                };
                for at in claim.ids {
                    b.dispatch(&mut sink, seq, part, b.tmpl.slices[part][at]);
                }
            }
        }
    }
}
