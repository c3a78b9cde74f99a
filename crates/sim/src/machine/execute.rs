//! Composable execution: dual issue from each core's ready list, the
//! execution latency of what fired, and where results go — consumers,
//! the block owner (branches, nullified stores) or a memory bank.

use super::fabric::Fabric;
use super::prof::Prov;
use super::state::{lsid_of, Ev, MemReq, OpBody, OpMsg, Proc};
use clp_isa::{BranchKind, Opcode, OpcodeClass};
use clp_mem::dbank_for;
use clp_obs::TraceEvent;
use clp_predictor::ExitOutcome;

impl Proc {
    pub(super) fn issue_stage(&mut self, fab: &mut Fabric) {
        if !self.ready.any_ready() {
            return;
        }
        let mut picks = std::mem::take(&mut fab.scratch_picks);
        // Parts with a non-empty ready list, ascending.
        let mut above = 0;
        while let Some(part) = self.ready.next_part(above) {
            above = part + 1;
            if fab.is_dead(self.cores[part]) {
                continue;
            }
            let mut fp = fab.cfg.core.fp_issue;
            let blocks = &self.blocks;
            let width = fab.cfg.core.issue_width;
            self.ready.take_picks(part, width, &mut picks, |seq, id| {
                blocks.get(&seq).is_some_and(|b| {
                    if b.inst(id).opcode.class() != OpcodeClass::Float {
                        return true;
                    }
                    let slot = fp > 0;
                    fp -= usize::from(slot);
                    slot
                })
            });
            for &(seq, id) in &picks {
                self.execute_inst(fab, seq, part, id);
            }
        }
        picks.clear();
        fab.scratch_picks = picks;
    }

    fn execute_inst(&mut self, fab: &mut Fabric, seq: u64, part: usize, id: u8) {
        self.beat(fab);
        let now = fab.now;
        let Some(b) = self.blocks.get_mut(&seq) else {
            return;
        };
        let st = &mut b.ops[usize::from(id)];
        st.fired = true;
        let [left, right, pred] = st.val.map(|v| v.unwrap_or(0));
        if let Some(pr) = b.prof.as_deref_mut() {
            pr.issue[usize::from(id)] = now;
        }
        let inst = b.inst(id);
        let opcode = inst.opcode;
        self.stats.insts_fired += 1;
        if opcode.class() == OpcodeClass::Float {
            self.stats.fp_ops += 1;
        } else {
            self.stats.int_ops += 1;
        }
        let from = self.cores[part];
        fab.tracer.emit(now, || TraceEvent::InstIssued {
            proc: self.id,
            core: from,
            block: b.addr,
            inst: usize::from(id),
            opcode: opcode.mnemonic(),
        });
        // Predicated-off instructions consume the slot and vanish.
        if inst.pred.is_some_and(|sense| !sense.matches(pred)) {
            return;
        }
        let done = now + u64::from(opcode.latency());
        let prov = Prov::exec(id, from, now, done);
        let proc = self.id;
        match opcode {
            Opcode::Bro => {
                let info = inst.branch;
                let info = info.expect("Block::from_instructions checks branch info");
                let outcome = ExitOutcome {
                    exit_id: info.exit_id,
                    kind: info.kind,
                    target: match info.kind {
                        BranchKind::Return => left,
                        _ => info.target.unwrap_or(b.addr + clp_isa::BLOCK_FRAME_BYTES),
                    },
                };
                let ev = Ev::Branch {
                    proc,
                    seq,
                    outcome,
                    prov,
                };
                // The branch resolves at the block's owner.
                fab.push_local(done + fab.ctrl_delay(from, b.owner), ev);
            }
            op if op.is_load() || op.is_store() => {
                if op.is_load() && b.load_must_wait(lsid_of(inst)) {
                    return b.deferred_loads.push((part, id));
                }
                let req = b.mem_req(id, self.addr_base);
                self.send_mem_req(fab, seq, part, id, req, now);
            }
            Opcode::Null if inst.lsid.is_some() => {
                // Store-slot nullification: an output resolves.
                let lsid = Some(lsid_of(inst));
                let ev = Ev::OutputDone {
                    proc,
                    seq,
                    lsid,
                    prov,
                };
                fab.push_local(done + fab.ctrl_delay(from, b.owner), ev);
            }
            Opcode::Null => {
                // Null token to consumers (typically a WRITE).
                let ev = Ev::SendOperands {
                    from,
                    proc,
                    seq,
                    targets: inst.targets,
                    value: None,
                    prov,
                };
                fab.push_local(done, ev);
            }
            _ => {
                let result = clp_isa::value::eval(opcode, inst.imm, left, right);
                self.exec.push(part, done, seq, id, result);
            }
        }
    }

    /// Sends instruction `id`'s memory request from its core to the
    /// bank its address interleaves to. `issued` is the cycle the
    /// instruction issued.
    pub(super) fn send_mem_req(
        &self,
        fab: &mut Fabric,
        seq: u64,
        part: usize,
        id: u8,
        req: MemReq,
        issued: u64,
    ) {
        let from = self.cores[part];
        let msg = OpMsg {
            proc: self.id,
            seq,
            prov: Prov::load(id, from, issued, fab.now, 0),
            body: OpBody::MemReq(req),
        };
        fab.deliver(from, self.cores[dbank_for(req.addr, self.n)], msg);
    }

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
                let targets = b.inst(e.inst).targets;
                let prov = Prov::exec(e.inst, from, b.issue_cycle(e.inst), now);
                self.route_operands(fab, from, e.seq, &targets, Some(e.result), prov);
            }
        }
    }
}
