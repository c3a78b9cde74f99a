//! Dead-dataflow detection: instructions whose results reach no
//! architectural sink.
//!
//! A hyperblock's only externally visible effects are its register
//! writes, its stores (and store-nullifications), and its exit branch.
//! Any instruction whose result cannot reach one of those sinks through
//! the dataflow target graph burns an issue-window slot, operand-network
//! bandwidth, and a scheduler wakeup for nothing
//! ([`LintCode::DeadDataflow`]). Feeding *any* operand of a live
//! instruction — including its predicate — counts as live.

use crate::graph::BlockGraph;
use crate::{Diagnostic, LintCode, Span};
use clp_isa::{Block, Opcode};

fn is_sink(block: &Block, i: usize) -> bool {
    let inst = &block.instructions()[i];
    match inst.opcode {
        Opcode::Write | Opcode::St | Opcode::Stb | Opcode::Bro => true,
        Opcode::Null => inst.lsid.is_some(),
        _ => false,
    }
}

/// Runs the dead-dataflow analysis on one block, adding its findings to
/// `diags`.
pub(crate) fn analyze(block: &Block, g: &BlockGraph, diags: &mut Vec<Diagnostic>) {
    let insts = block.instructions();
    let addr = block.address();
    let n = insts.len();
    // Bit `i`: instruction `i` is live (a block has at most 128).
    let is_live = |live: u128, i: usize| live >> i & 1 == 1;
    let mut live = (0..n)
        .filter(|&i| is_sink(block, i))
        .fold(0u128, |m, i| m | 1 << i);
    // Reverse-topological propagation: feeding a live instruction is
    // live. A store-nullifying null never delivers to targets, so its
    // targets do not keep it (or anything) alive — but it is a sink
    // itself, so only its *outgoing* edges are void; incoming predicate
    // edges keep their producers live because the null consumes them.
    for idx in (0..g.topo.len()).rev() {
        let i = g.topo[idx];
        if !is_live(live, i) && insts[i].targets().any(|t| is_live(live, t.inst.index())) {
            live |= 1 << i;
        }
    }
    for (i, inst) in insts.iter().enumerate() {
        if !is_live(live, i) {
            diags.push(
                Diagnostic::new(
                    LintCode::DeadDataflow,
                    Span::inst(addr, i),
                    format!(
                        "result of {} reaches no register write, store, or branch",
                        inst.opcode
                    ),
                )
                .with_note("the instruction occupies an issue-window slot for no effect"),
            );
        }
    }
}
