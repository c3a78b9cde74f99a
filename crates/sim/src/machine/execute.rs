//! Composable execution: dual issue from each core's ready list, the
//! execution latency of what fired, and where results go — consumers,
//! the block owner (branches, nullified stores) or a memory bank.

use super::decode::Kind;
use super::fabric::Fabric;
use super::prof::Prov;
use super::sched::Pick;
use super::state::{Ev, OpBody, OpMsg, OpState, Proc};
use crate::config::FP_ISSUE;
use clp_isa::BranchKind;
use clp_mem::dbank_for;
use clp_obs::TraceEvent;

impl Proc {
    /// The issue pass; `step` calls it only when a ready list is
    /// non-empty.
    pub(super) fn issue_stage(&mut self, fab: &mut Fabric) {
        // The lists step out of `self` for the stage, so that a pick
        // can issue on the spot, through `&mut self`, with the block
        // lookup it made. Nothing on the issue path wakes an
        // instruction: the stand-in left behind stays empty.
        let mut ready = std::mem::take(&mut self.ready);
        let width = fab.cfg.core.issue_width;
        // Parts with a non-empty ready list, ascending.
        let mut above = 0;
        while let Some(part) = ready.next_part(above) {
            above = part + 1;
            if fab.is_dead(self.cores[part]) {
                continue;
            }
            let mut fp = FP_ISSUE;
            ready.take_picks(part, width, |seq, id| {
                self.issue_inst(fab, &mut fp, seq, part, id)
            });
        }
        debug_assert!(!self.ready.any_ready(), "a wakeup on the issue path");
        self.ready = ready;
    }

    /// Issues instruction `id` of block `seq` on `part` unless it needs
    /// an FP slot and `fp`, the slots left this cycle, is zero.
    fn issue_inst(
        &mut self,
        fab: &mut Fabric,
        fp: &mut usize,
        seq: u64,
        part: usize,
        id: u8,
    ) -> Pick {
        let now = fab.now;
        let Some(b) = self.blocks.get_mut(&seq) else {
            return Pick::Drop;
        };
        let i = usize::from(id);
        let d = b.tmpl.dec[i];
        if d.fp {
            if *fp == 0 {
                return Pick::Keep;
            }
            *fp -= 1;
        }
        // Issue is protocol progress.
        self.last_beat = fab.beat();
        let st = &mut b.ops[i];
        st.flags |= OpState::FIRED;
        b.fired += 1;
        let [left, right, pred] = st.val;
        if let Some(pr) = &mut b.prof {
            pr.insts[i].issue = now;
        }
        self.stats.insts_fired += 1;
        if d.fp {
            self.stats.fp_ops += 1;
        } else {
            self.stats.int_ops += 1;
        }
        let from = usize::from(d.home);
        fab.tracer.emit(now, || TraceEvent::InstIssued {
            proc: self.id,
            core: from,
            block: b.addr,
            inst: i,
            opcode: d.opcode.mnemonic(),
        });
        // Predicated-off instructions consume the slot and vanish.
        if d.pred.is_some_and(|sense| !sense.matches(pred)) {
            return Pick::Take;
        }
        let done = now + u64::from(d.latency);
        let prov = Prov::exec(id, from, now, done);
        let proc = b.tmpl.proc;
        match d.kind {
            Kind::Bro => {
                let mut outcome = b.tmpl.exits[usize::from(d.exit)];
                if outcome.kind == BranchKind::Return {
                    outcome.target = left;
                }
                let ev = Ev::Branch {
                    proc,
                    seq,
                    outcome,
                    prov,
                };
                // The branch resolves at the block's owner.
                fab.push_local(done + fab.ctrl_delay(from, b.owner), ev);
            }
            Kind::Load | Kind::Store => {
                if d.kind == Kind::Load && b.load_must_wait(d.lsid) {
                    b.deferred_loads.push((part, id));
                } else {
                    let req = b.mem_req(id, self.addr_base);
                    self.send_mem_req(fab, seq, part, id, req, now);
                }
            }
            Kind::NullStore => {
                // Store-slot nullification: an output resolves.
                let lsid = Some(d.lsid);
                let ev = Ev::OutputDone {
                    proc,
                    seq,
                    lsid,
                    prov,
                };
                fab.push_local(done + fab.ctrl_delay(from, b.owner), ev);
            }
            Kind::NullToken => {
                // Null token to consumers (typically a WRITE).
                let ev = Ev::SendOperands {
                    from: d.home,
                    proc,
                    seq,
                    targets: d.targets,
                    value: None,
                    prov,
                };
                fab.push_local(done, ev);
            }
            Kind::Alu | Kind::Read | Kind::Write => {
                let result = clp_isa::value::eval(d.opcode, b.tmpl.imm[i], left, right);
                self.exec.push(part, done, seq, id, result);
            }
        }
        Pick::Take
    }

    /// Sends instruction `id`'s memory request `req` from its core to
    /// the bank its address interleaves to. `issued` is the cycle the
    /// instruction issued.
    pub(super) fn send_mem_req(
        &self,
        fab: &mut Fabric,
        seq: u64,
        part: usize,
        id: u8,
        req: OpBody,
        issued: u64,
    ) {
        let OpBody::MemReq { addr, .. } = req else {
            unreachable!("Blk::mem_req builds memory requests");
        };
        let from = self.cores[part];
        let msg = OpMsg {
            proc: self.ix(),
            seq,
            prov: Prov::load(id, from, issued, fab.now, 0),
            body: req,
        };
        fab.deliver(from, self.cores[dbank_for(addr, self.n)], msg);
    }

    /// Routes the results due this cycle; `step` calls it only when a
    /// completion is in flight.
    pub(super) fn completion_stage(&mut self, fab: &mut Fabric) {
        let now = fab.now;
        // Parts with in-flight completions, ascending.
        let mut above = 0;
        while let Some(part) = self.exec.next_part(above) {
            above = part + 1;
            let from = self.cores[part];
            if fab.is_dead(from) {
                continue;
            }
            // Due items complete exactly this cycle (every latency is
            // >= 1) and pop in issue order.
            while let Some(e) = self.exec.pop_due(part, now) {
                let Some(b) = self.blocks.get(&e.seq) else {
                    continue;
                };
                let d = &b.tmpl.dec[usize::from(e.inst)];
                // The issue cycle is the completion less the latency it
                // was scheduled with: what the profiler recorded, read
                // without it.
                let issued = e.done - u64::from(d.latency);
                debug_assert!(b
                    .prof
                    .as_ref()
                    .is_none_or(|pr| pr.insts[usize::from(e.inst)].issue == issued));
                let prov = Prov::exec(e.inst, from, issued, now);
                b.route_operands(fab, from, e.seq, &d.targets, Some(e.result), prov);
            }
        }
    }
}
