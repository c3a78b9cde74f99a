//! Operand delivery and composable memory: what a core does with an
//! operand-class message — wake a consumer, serve a register read or
//! forward at the bank, or run a load/store at its D-cache/LSQ bank,
//! NACKing on overflow.

use super::dispatch::Sink;
use super::fabric::Fabric;
use super::prof::Prov;
use super::state::{Blk, Ev, OpBody, OpMsg, Proc, WaitingRead};
use crate::fault::FaultInjector;
use crate::regfile::RegRead;
use clp_isa::{Reg, Target};
use clp_mem::{LoadResponse, LoadServe, StoreResponse};
use clp_obs::FlushReason;

impl Blk {
    /// Routes a value (or null token) an instruction of this block
    /// (`seq`) produced to its targets, from core `from`.
    pub(super) fn route_operands(
        &self,
        fab: &mut Fabric,
        from: usize,
        seq: u64,
        targets: &[Option<Target>; 2],
        value: Option<u64>,
        prov: Prov,
    ) {
        for &target in targets.iter().flatten() {
            let msg = OpMsg {
                proc: self.tmpl.proc,
                seq,
                prov,
                body: OpBody::Operand { target, value },
            };
            let to = self.tmpl.dec[target.inst.index()].home;
            fab.deliver(from, usize::from(to), msg);
        }
    }
}

impl Proc {
    /// A message for this processor arrived at `core`.
    pub(super) fn handle_op(&mut self, fab: &mut Fabric, core: usize, msg: &OpMsg) {
        // Messages delivered to a dead core vanish — its receive queues
        // are powered off along with everything else — and so do
        // messages for a block that was flushed or committed.
        let &OpMsg { seq, prov, .. } = msg;
        let Some(b) = self.blocks.get_mut(&seq).filter(|_| !fab.is_dead(core)) else {
            return;
        };
        match msg.body {
            OpBody::Operand { target, value } => {
                let part = match fab.core_map[core] {
                    Some((proc, part)) if proc == self.id => part,
                    _ => return,
                };
                let id = target.inst.index() as u8;
                b.ops[usize::from(id)].deliver(target.operand.encode() as usize, value);
                let mut sink = Sink {
                    fab,
                    ready: &mut self.ready,
                    stats: &mut self.stats,
                };
                b.wake(&mut sink, seq, part, id, prov);
            }
            OpBody::ReadReq { reg, targets } => self.try_read(
                fab,
                WaitingRead {
                    seq,
                    reg,
                    targets,
                    bank_core: core,
                    prov,
                },
            ),
            OpBody::WriteFwd { reg, value } => {
                // The output resolves at the owner.
                let at = fab.now + fab.ctrl_delay(core, b.owner);
                self.regs.forward_write(reg, seq, value);
                let (proc, lsid) = (self.ix(), None);
                let ev = Ev::OutputDone {
                    proc,
                    seq,
                    lsid,
                    prov,
                };
                fab.push_local(at, ev);
                self.retry_waiting_reads(fab, reg);
            }
            OpBody::MemReq { .. } => {
                let owner = b.owner;
                self.on_mem_req(fab, core, msg, owner);
            }
        }
    }

    /// Runs the load or store that `msg` carries at `core`'s bank, for
    /// a block owned by core `owner`.
    fn on_mem_req(&mut self, fab: &mut Fabric, core: usize, msg: &OpMsg, owner: usize) {
        let &OpMsg {
            seq, prov, body, ..
        } = msg;
        let OpBody::MemReq {
            lsid,
            store,
            size,
            targets,
            addr,
            value,
        } = body
        else {
            unreachable!("handle_op routes memory requests here");
        };
        let (proc, gseq) = (self.ix(), seq * 32 + u64::from(lsid));
        // Forced NACK: the bank refuses a request it could have
        // accepted. The request retries through the existing
        // NACK/replay path; no overflow eviction (the LSQ is not
        // actually full, so no forward-progress action is owed).
        let wait = u64::from(fab.cfg.nack_retry);
        let nack = |f: &mut FaultInjector| f.forced_nack().then_some(wait);
        if fab.fault("forced_nack", core, nack).is_some() {
            fab.mem.note_injected_nack(core, addr);
            return self.nack_retry(fab, core, msg);
        }
        if store {
            match fab.mem.execute_store(core, gseq, addr, size, value) {
                StoreResponse::Nack => {
                    self.overflow_flush(fab, core, seq);
                    self.nack_retry(fab, core, msg);
                }
                StoreResponse::Ok { violation } => {
                    self.stats.stores += 1;
                    let ev = Ev::OutputDone {
                        proc,
                        seq,
                        lsid: Some(lsid),
                        prov: Prov {
                            from: core as u8,
                            sent: fab.now,
                            ..prov
                        },
                    };
                    fab.push_local(fab.now + fab.ctrl_delay(core, owner), ev);
                    if let Some(vseq) = violation {
                        self.stats.violations += 1;
                        self.violation_flush(fab, vseq / 32, FlushReason::Violation);
                    }
                }
            }
            return;
        }
        match fab.mem.execute_load(core, gseq, addr, size) {
            LoadResponse::Nack => {
                self.overflow_flush(fab, core, seq);
                self.nack_retry(fab, core, msg);
            }
            LoadResponse::Ok {
                value,
                latency,
                served,
            } => {
                self.stats.loads += 1;
                // DRAM spike: the reply is charged extra cycles, as if
                // the line had missed all the way to a busy memory
                // controller. The value is unchanged — only its
                // arrival time moves.
                let mut at = fab.now + u64::from(latency);
                if let Some(extra) = fab.fault("dram_spike", core, FaultInjector::dram_spike) {
                    fab.mem.note_injected_dram_spike(core, extra);
                    at += extra;
                }
                let served = match served {
                    LoadServe::Forward => 0,
                    LoadServe::L1 => 1,
                    LoadServe::Miss => 2,
                };
                let ev = Ev::SendOperands {
                    from: core as u8,
                    proc,
                    seq,
                    targets,
                    value: Some(value),
                    prov: Prov::load(prov.inst, core, prov.origin, at, served),
                };
                fab.push_local(at, ev);
            }
        }
    }

    /// Re-queues the NACKed request `msg` at `core`'s bank after the
    /// retry interval.
    fn nack_retry(&mut self, fab: &mut Fabric, core: usize, msg: &OpMsg) {
        self.stats.nack_retries += 1;
        let at = fab.now + u64::from(fab.cfg.nack_retry);
        fab.push_local(at, Ev::Op(core as u8, *msg));
    }

    /// Serves a register read at its bank, or parks it until the older
    /// write it waits for is forwarded.
    pub(super) fn try_read(&mut self, fab: &mut Fabric, w: WaitingRead) {
        match self.regs.read(w.reg, w.seq) {
            RegRead::Ready(v) => {
                self.stats.reg_reads += 1;
                let at = fab.now + 1;
                let ev = Ev::SendOperands {
                    from: w.bank_core as u8,
                    proc: self.ix(),
                    seq: w.seq,
                    targets: w.targets,
                    value: Some(v),
                    prov: Prov::reg_read(w.prov.inst, w.bank_core, w.prov.origin, at),
                };
                fab.push_local(at, ev);
            }
            RegRead::Wait => self.waiting_reads.push(w),
        }
    }

    fn retry_waiting_reads(&mut self, fab: &mut Fabric, reg: Reg) {
        // Stable in-place partition: matching reads move (in order) to
        // the scratch buffer, the rest compact down without reordering.
        let mut hit = std::mem::take(&mut fab.scratch_reads);
        hit.extend(self.waiting_reads.extract_if(.., |w| w.reg == reg));
        self.retry_reads(fab, hit);
    }

    /// Re-checks parked reads of blocks still in flight, in order, and
    /// hands the (scratch) buffer back. Retries that miss again
    /// re-append behind the kept entries; order matters: each retry
    /// schedules a SendOperands whose within-cycle position feeds mesh
    /// arbitration.
    pub(super) fn retry_reads(&mut self, fab: &mut Fabric, mut reads: Vec<WaitingRead>) {
        for &w in &reads {
            if self.blocks.contains_key(&w.seq) {
                self.try_read(fab, w);
            }
        }
        reads.clear();
        fab.scratch_reads = reads;
    }
}
