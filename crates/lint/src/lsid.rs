//! LSID-order analysis: load/store IDs must be consistent with dataflow
//! order, no two memory operations may race on one LSID, and store→load
//! forwarding must be acyclic.
//!
//! LSIDs encode *program order* within a block: the LSQ uses them to
//! disambiguate, forward, and detect violations. Three things can go
//! wrong statically:
//!
//! - two memory operations share an LSID and can fire on the same path
//!   ([`LintCode::DuplicateLsid`]) — the LSQ cannot tell them apart
//!   (same-LSID *store* races are already
//!   [`LintCode::DoubleStore`], so this rule fires only when a load is
//!   involved);
//! - a memory op feeds a memory op with a *lower* LSID
//!   ([`LintCode::LsidOrderInversion`]) — the value flows forward while
//!   memory order points backward, which at best costs a violation
//!   flush and at worst is a mis-numbered port;
//! - a store transitively depends on an overlapping later-LSID load
//!   ([`LintCode::ForwardingCycle`]) — the load must read the store's
//!   value (forwarding or violation replay), but the store cannot
//!   execute until the load completes: a deadlock under conservative
//!   ordering.

use crate::graph::BlockGraph;
use crate::predicate::PathFacts;
use crate::{Diagnostic, LintCode, Span};
use clp_isa::{Block, Instruction, Opcode, Operand};

/// A memory operation participating in LSID order.
pub(crate) struct MemOp {
    inst: usize,
    lsid: usize,
    is_load: bool,
    is_null: bool,
    /// Statically known byte range `[addr, addr+width)`, when the
    /// address operand is a known constant.
    range: Option<(u64, u64)>,
}

fn access_width(op: Opcode) -> u64 {
    match op {
        Opcode::Ldb | Opcode::Stb => 1,
        _ => 8,
    }
}

fn mem_ops(block: &Block, g: &BlockGraph, out: &mut Vec<MemOp>) {
    let insts = block.instructions();
    out.clear();
    out.reserve(crate::graph::ROOM);
    for (i, inst) in insts.iter().enumerate() {
        let is_mem = inst.opcode.is_load() || inst.opcode.is_store();
        let is_null = inst.opcode == Opcode::Null && inst.lsid.is_some();
        if !is_mem && !is_null {
            continue;
        }
        let Some(lsid) = inst.lsid else { continue };
        let range = if is_mem {
            g.op_cval(i, Operand::Left, insts).map(|base| {
                let addr = base.wrapping_add(inst.imm as u64);
                (addr, addr.wrapping_add(access_width(inst.opcode)))
            })
        } else {
            None
        };
        out.push(MemOp {
            inst: i,
            lsid: lsid.index(),
            is_load: inst.opcode.is_load(),
            is_null,
            range,
        });
    }
}

fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

fn mem_desc(inst: &Instruction) -> String {
    format!(
        "{} ls{}",
        inst.opcode,
        inst.lsid.map(|l| l.index()).unwrap_or_default()
    )
}

/// Runs the LSID analysis on one block, adding its findings to `diags`;
/// `ops` is working space.
pub(crate) fn analyze(
    block: &Block,
    g: &BlockGraph,
    facts: &PathFacts,
    ops: &mut Vec<MemOp>,
    diags: &mut Vec<Diagnostic>,
) {
    let insts = block.instructions();
    let addr = block.address();
    mem_ops(block, g, ops);

    let ops = &*ops;
    for (x, a) in ops.iter().enumerate() {
        for b in &ops[x + 1..] {
            // Duplicate LSID with a load involved, on a common path.
            if a.lsid == b.lsid && (a.is_load || b.is_load) && facts.cofire(a.inst, b.inst) {
                diags.push(
                    Diagnostic::new(
                        LintCode::DuplicateLsid,
                        Span::inst(addr, b.inst),
                        format!(
                            "{} and {} (i{}) share ls{} and can fire on the same path",
                            mem_desc(&insts[b.inst]),
                            mem_desc(&insts[a.inst]),
                            a.inst,
                            a.lsid
                        ),
                    )
                    .with_note("the LSQ disambiguates by LSID; sharing one is ambiguous"),
                );
            }
        }
    }

    for a in ops {
        if a.is_null {
            continue;
        }
        for b in ops {
            if b.is_null || a.inst == b.inst {
                continue;
            }
            // `a` transitively feeds `b` in dataflow...
            if g.desc[a.inst] & (1u128 << b.inst) == 0 {
                continue;
            }
            // ...but `b` is older in memory order.
            if a.lsid > b.lsid {
                diags.push(
                    Diagnostic::new(
                        LintCode::LsidOrderInversion,
                        Span::inst(addr, b.inst),
                        format!(
                            "{} (i{}) feeds {} but has the higher LSID: dataflow and \
                             memory order disagree",
                            mem_desc(&insts[a.inst]),
                            a.inst,
                            mem_desc(&insts[b.inst]),
                        ),
                    )
                    .with_note("LSIDs must be assigned in program order"),
                );
            }
            // Store→load forwarding cycle: a load `a` feeds a store `b`
            // with a lower LSID at an overlapping address, and both fire
            // on one path — the load must observe the store (forwarding)
            // but the store waits on the load (dataflow).
            if a.is_load && !b.is_load && b.lsid < a.lsid && facts.cofire(a.inst, b.inst) {
                if let (Some(ra), Some(rb)) = (a.range, b.range) {
                    if overlaps(ra, rb) {
                        diags.push(
                            Diagnostic::new(
                                LintCode::ForwardingCycle,
                                Span::inst(addr, b.inst),
                                format!(
                                    "{} (i{}) depends on {} (i{}) which must read its \
                                     value: store→load forwarding cycle",
                                    mem_desc(&insts[b.inst]),
                                    b.inst,
                                    mem_desc(&insts[a.inst]),
                                    a.inst,
                                ),
                            )
                            .with_note(format!(
                                "both access bytes [{:#x}, {:#x})",
                                ra.0.max(rb.0),
                                ra.1.min(rb.1)
                            )),
                        );
                    }
                }
            }
        }
    }
}
