//! The decoded-instruction buffer: everything about a block that is
//! identical across fetches of the same address, derived once per
//! address (and composition) so that the pipeline stages read a few
//! bytes per instruction instead of re-deriving them from the
//! [`Instruction`] at every dynamic instance.

use super::sched::Slices;
use super::state::ProcIx;
use clp_isa::{Block, BlockAddr, InstId, Instruction, Opcode, OpcodeClass, PredSense, Reg, Target};
use clp_predictor::ExitOutcome;

/// What an instruction is to the pipeline stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Kind {
    Read,
    Write,
    Bro,
    Load,
    Store,
    /// A `null` that resolves a store slot.
    NullStore,
    /// A `null` that sends a null token to its targets.
    NullToken,
    Alu,
}

/// What wakeup, dispatch, issue and routing read of one instruction.
#[derive(Clone, Copy, Debug)]
pub(super) struct Decoded {
    /// Operand slots that must arrive before the instruction is ready
    /// (bit 0 left, 1 right, 2 predicate); [`Decoded::NEVER`] for a
    /// READ, which only sends its request.
    pub(super) need: u8,
    pub(super) kind: Kind,
    /// Issues on the FP port.
    pub(super) fp: bool,
    pub(super) latency: u8,
    pub(super) opcode: Opcode,
    pub(super) pred: Option<PredSense>,
    /// Global core the instruction dispatches to and issues from.
    pub(super) home: u8,
    /// READ / WRITE: the register and the global core of its bank.
    pub(super) reg: Reg,
    pub(super) bank: u8,
    /// Load, store or store-slot null: the LSID.
    pub(super) lsid: u8,
    /// Load or store: the access size in bytes.
    pub(super) size: u8,
    /// BRO: index into [`FetchTemplate::exits`].
    pub(super) exit: u8,
    pub(super) targets: [Option<Target>; 2],
}

const _: () = assert!(size_of::<Decoded>() <= 16);

impl Decoded {
    /// A `need` bit no arrival sets.
    pub(super) const NEVER: u8 = 1 << 3;

    /// Decodes instruction `id` of the block at `addr` for a
    /// composition over `cores`; a BRO appends its outcome to `exits`.
    fn new(
        inst: &Instruction,
        id: usize,
        addr: BlockAddr,
        cores: &[usize],
        exits: &mut Vec<ExitOutcome>,
    ) -> Self {
        let n = cores.len();
        let kind = match inst.opcode {
            Opcode::Read => Kind::Read,
            Opcode::Write => Kind::Write,
            Opcode::Bro => Kind::Bro,
            op if op.is_load() => Kind::Load,
            op if op.is_store() => Kind::Store,
            Opcode::Null if inst.lsid.is_some() => Kind::NullStore,
            Opcode::Null => Kind::NullToken,
            _ => Kind::Alu,
        };
        let arity = inst.data_arity();
        let need =
            u8::from(arity >= 1) | u8::from(arity >= 2) << 1 | u8::from(inst.is_predicated()) << 2;
        let reg = matches!(kind, Kind::Read | Kind::Write)
            .then(|| inst.reg.expect("Block::from_instructions checks registers"));
        let lsid = matches!(kind, Kind::Load | Kind::Store | Kind::NullStore)
            .then(|| inst.lsid.expect("Block::from_instructions checks LSIDs"));
        let mut exit = 0;
        if kind == Kind::Bro {
            let info = inst.branch;
            let info = info.expect("Block::from_instructions checks branch info");
            exit = exits.len() as u8;
            // A return overwrites the target with its operand at issue.
            exits.push(ExitOutcome {
                exit_id: info.exit_id,
                kind: info.kind,
                target: info.target.unwrap_or(addr + clp_isa::BLOCK_FRAME_BYTES),
            });
        }
        Decoded {
            need: if kind == Kind::Read {
                Self::NEVER
            } else {
                need
            },
            kind,
            fp: inst.opcode.class() == OpcodeClass::Float,
            latency: inst.opcode.latency() as u8,
            opcode: inst.opcode,
            pred: inst.pred,
            home: cores[InstId::new(id).core_of(n)] as u8,
            reg: reg.unwrap_or(Reg::new(0)),
            bank: reg.map_or(0, |r| cores[r.bank_of(n)] as u8),
            lsid: lsid.map_or(0, |l| l.index() as u8),
            size: match inst.opcode {
                Opcode::Ldb | Opcode::Stb => 1,
                _ => 8,
            },
            exit,
            targets: inst.targets,
        }
    }
}

/// One block address as one composition of one processor runs it:
/// built on the address's first fetch and shared afterwards — a fetch
/// takes one handle to it, never a deep clone of the block or a walk of
/// its dispatch slices — and dropped on recomposition, because the
/// cores it names are that composition's.
#[derive(Debug)]
pub(super) struct FetchTemplate {
    /// The processor whose blocks these are, as their messages name it.
    pub(super) proc: ProcIx,
    /// The block as compiled: clp-prof, trace mnemonics and debug dumps
    /// read it; the stages read `dec`.
    pub(super) block: Block,
    /// Per instruction: its decoded form.
    pub(super) dec: Box<[Decoded]>,
    /// Per instruction: its immediate (read at issue only).
    pub(super) imm: Box<[i64]>,
    /// Per BRO, in instruction order: the exit it takes.
    pub(super) exits: Vec<ExitOutcome>,
    /// Per participant core: instruction ids of its dispatch slice.
    pub(super) slices: Vec<Box<[u8]>>,
    /// Untouched dispatch cursors over `slices`, copied by each fetch.
    pub(super) cursors: Slices,
    pub(super) outputs_needed: usize,
    /// Bitmask of store LSIDs the block declares.
    pub(super) store_mask: u32,
}

impl FetchTemplate {
    /// The template of `block`, fetched at `addr` by processor `proc`
    /// composed over `cores`.
    pub(super) fn new(block: &Block, addr: BlockAddr, proc: ProcIx, cores: &[usize]) -> Self {
        let n = cores.len();
        let slice = |part| block.slice_for_core(part, n).map(|(i, _)| i as u8);
        let slices: Vec<Box<[u8]>> = (0..n).map(|part| slice(part).collect()).collect();
        let mut exits = Vec::new();
        let insts = block.instructions().iter().enumerate();
        FetchTemplate {
            proc,
            dec: insts
                .map(|(id, inst)| Decoded::new(inst, id, addr, cores, &mut exits))
                .collect(),
            imm: block.instructions().iter().map(|inst| inst.imm).collect(),
            exits,
            cursors: Slices::new(slices.iter().map(|s| s.len())),
            slices,
            outputs_needed: block.output_count(),
            store_mask: block.store_lsids().iter().fold(0u32, |m, &l| m | (1 << l)),
            block: block.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_compiler::{compile, CompileOptions};
    use clp_isa::BranchKind;

    /// The decoded form against the `Instruction` accessors it
    /// replaces, over every block of the suite at every composition
    /// size — 3 is a degraded survivor set, whose cores are not a
    /// contiguous power-of-two region.
    #[test]
    fn decoded_form_matches_the_instruction_accessors() {
        let mut checked = 0;
        for w in clp_workloads::suite::all() {
            let program = compile(&w.program, &CompileOptions::default()).expect("suite compiles");
            for n in [1usize, 2, 3, 4, 8, 16, 32] {
                // Scattered, descending: no arithmetic on part indices
                // can stand in for the lookup.
                let cores: Vec<usize> = (0..n).map(|p| 31 - (p * 7) % 32).collect();
                for (&addr, block) in program.iter() {
                    let t = FetchTemplate::new(block, addr, 5, &cores);
                    assert_eq!(t.dec.len(), block.len());
                    let mut bros = 0;
                    for (id, inst) in block.instructions().iter().enumerate() {
                        let (d, at) = (&t.dec[id], format!("{} @{addr:#x} i{id} n={n}", w.name));
                        let arity = inst.data_arity();
                        let need = [arity >= 1, arity >= 2, inst.is_predicated()];
                        if inst.opcode == Opcode::Read {
                            assert_eq!(d.need & 0b111, 0, "{at}");
                            assert_ne!(d.need, 0, "{at}: a READ never becomes ready");
                        } else {
                            let bits = [d.need & 1 != 0, d.need & 2 != 0, d.need & 4 != 0];
                            assert_eq!((bits, d.need >> 3), (need, 0), "{at}");
                        }
                        assert_eq!(
                            usize::from(d.home),
                            cores[InstId::new(id).core_of(n)],
                            "{at}"
                        );
                        if let (Opcode::Read | Opcode::Write, Some(reg)) = (inst.opcode, inst.reg) {
                            assert_eq!(d.reg, reg, "{at}");
                            assert_eq!(usize::from(d.bank), cores[reg.bank_of(n)], "{at}");
                        }
                        assert_eq!(u32::from(d.latency), inst.opcode.latency(), "{at}");
                        assert_eq!(d.fp, inst.opcode.class() == OpcodeClass::Float, "{at}");
                        assert_eq!((d.opcode, d.pred), (inst.opcode, inst.pred), "{at}");
                        assert_eq!((d.targets, t.imm[id]), (inst.targets, inst.imm), "{at}");
                        let mem = inst.opcode.is_load() || inst.opcode.is_store();
                        if mem || d.kind == Kind::NullStore {
                            assert_eq!(Some(usize::from(d.lsid)), inst.lsid.map(|l| l.index()));
                        }
                        if mem {
                            let byte = matches!(inst.opcode, Opcode::Ldb | Opcode::Stb);
                            assert_eq!(d.size, if byte { 1 } else { 8 }, "{at}");
                        }
                        let kind = match inst.opcode {
                            Opcode::Read => Kind::Read,
                            Opcode::Write => Kind::Write,
                            Opcode::Bro => Kind::Bro,
                            Opcode::Ld | Opcode::Ldb => Kind::Load,
                            Opcode::St | Opcode::Stb => Kind::Store,
                            Opcode::Null if inst.lsid.is_some() => Kind::NullStore,
                            Opcode::Null => Kind::NullToken,
                            _ => Kind::Alu,
                        };
                        assert_eq!(d.kind, kind, "{at}");
                        if let Some(info) = inst.branch.filter(|_| kind == Kind::Bro) {
                            let exit = t.exits[usize::from(d.exit)];
                            assert_eq!((exit.exit_id, exit.kind), (info.exit_id, info.kind));
                            if info.kind != BranchKind::Return {
                                let next = addr + clp_isa::BLOCK_FRAME_BYTES;
                                assert_eq!(exit.target, info.target.unwrap_or(next), "{at}");
                            }
                            bros += 1;
                        }
                    }
                    assert_eq!(t.exits.len(), bros);
                    checked += block.len();
                }
            }
        }
        assert!(checked > 0, "the suite has blocks");
    }
}
