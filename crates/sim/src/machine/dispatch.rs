//! Sliced dispatch and dataflow wakeup: each participant walks its
//! slice of every armed block into the window, and an instruction whose
//! last input arrived joins its core's ready list.

use super::fabric::Fabric;
use super::prof::Prov;
use super::state::{OpBody, OpMsg, Proc};
use clp_isa::Opcode;

impl Proc {
    pub(super) fn dispatch_stage(&mut self, fab: &mut Fabric) {
        // Only armed blocks matter: every slice of any other block is
        // finished or still waiting for its fetch command. Parts run in
        // ascending order and, within a part, blocks oldest first; a
        // part none of the armed blocks has a runnable slice on would
        // find nothing to do. No bit is set during the stage (only a
        // fetch command sets one), so the union taken here names every
        // part that can make progress.
        let mut parts = self.armed.parts(|seq| &self.blocks[&seq].slices);
        if parts == 0 {
            return;
        }
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
                budget -= claim.ids.len();
                for at in claim.ids {
                    self.dispatch_inst(fab, seq, part, at);
                }
            }
        }
    }

    /// Dispatches the `at`-th instruction of `part`'s slice of block
    /// `seq` into the window.
    fn dispatch_inst(&mut self, fab: &mut Fabric, seq: u64, part: usize, at: usize) {
        self.beat(fab);
        let now = fab.now;
        let Some(b) = self.blocks.get_mut(&seq) else {
            return;
        };
        let id = b.tmpl.slices[part][at];
        b.ops[usize::from(id)].dispatched = true;
        if let Some(pr) = b.prof.as_deref_mut() {
            pr.disp[usize::from(id)] = now;
        }
        let inst = b.inst(id);
        let (Opcode::Read, Some(reg)) = (inst.opcode, inst.reg) else {
            return self.maybe_ready(fab, seq, part, id, Prov::dispatch(now));
        };
        let from = self.cores[part];
        let msg = OpMsg {
            proc: self.id,
            seq,
            prov: Prov::reg_read(id, from, now, now),
            body: OpBody::ReadReq {
                reg,
                targets: inst.targets,
            },
        };
        fab.deliver(from, self.cores[reg.bank_of(self.n)], msg);
    }

    /// Enqueues the instruction for issue if all its inputs are present.
    /// `trigger` is the provenance of the arrival that prompted this call
    /// (the instruction's own dispatch, or an operand delivery); when the
    /// call transitions the instruction to ready it is, by construction,
    /// the last-arrival edge the profiler records.
    pub(super) fn maybe_ready(
        &mut self,
        fab: &mut Fabric,
        seq: u64,
        part: usize,
        id: u8,
        trigger: Prov,
    ) {
        let Some(b) = self.blocks.get_mut(&seq) else {
            return;
        };
        let (now, i) = (fab.now, usize::from(id));
        let inst = &b.tmpl.block.instructions()[i];
        let st = &mut b.ops[i];
        let arity = inst.data_arity();
        if inst.opcode == Opcode::Read
            || !st.dispatched
            || st.queued
            || st.fired
            || (arity >= 1 && !st.got[0])
            || (arity >= 2 && !st.got[1])
            || (inst.is_predicated() && !st.got[2])
        {
            return;
        }
        if let Some(pr) = b.prof.as_deref_mut() {
            pr.ready[i] = now;
            pr.edge[i] = trigger;
        }
        let (Opcode::Write, Some(reg)) = (inst.opcode, inst.reg) else {
            st.queued = true;
            return self.ready.push(part, (seq, id));
        };
        // Writes fire the moment their input lands.
        st.fired = true;
        if let Some(pr) = b.prof.as_deref_mut() {
            pr.issue[i] = now;
        }
        self.stats.insts_fired += 1;
        self.stats.reg_writes += 1;
        let from = self.cores[part];
        let msg = OpMsg {
            proc: self.id,
            seq,
            prov: Prov::exec(id, from, now, now),
            body: OpBody::WriteFwd {
                reg,
                value: st.val[0],
            },
        };
        fab.deliver(from, self.cores[reg.bank_of(self.n)], msg);
    }
}
