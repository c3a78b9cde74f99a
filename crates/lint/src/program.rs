//! Whole-program checks over an [`EdgeProgram`]: block reachability,
//! register def-before-use across the block graph, and termination.
//! (Every static branch target resolves: `ProgramBuilder::finish`
//! refuses one that does not.)
//!
//! The block graph's edges are the statically known exit targets
//! (branches, calls, and sequential fall-throughs). Return addresses
//! are materialized as immediates, so any block whose address appears
//! as an instruction immediate is *address-taken* and treated as a
//! reachability root — this is exactly how the compiler links a call's
//! continuation.
//!
//! Register def-before-use is a forward must-defined fixpoint over the
//! 128 architectural registers (one `u128` per block). The ABI defines
//! `r1..r8` (arguments), the stack pointer, and the link register at
//! entry; address-taken blocks start from all-defined (their callers'
//! state is unknown). Reads of maybe-undefined registers are warnings,
//! not errors: registers reset to zero, so the program still runs
//! deterministically.

use crate::{Diagnostic, LintCode, Span};
use clp_isa::{Block, BlockAddr, BranchKind, EdgeProgram, NUM_ARCH_REGS};
use std::collections::VecDeque;

/// Stack-pointer register of the compiler's ABI.
const SP: usize = 126;
/// Link register of the compiler's ABI.
const LINK: usize = 127;

fn abi_entry_defined() -> u128 {
    let mut d = 0u128;
    for r in 1..=8 {
        d |= 1 << r;
    }
    d | (1 << SP) | (1 << LINK)
}

fn writes_mask(block: &Block) -> u128 {
    let mut m = 0u128;
    for &(_, r) in block.writes() {
        m |= 1 << r.index();
    }
    m
}

/// Runs the whole-program analysis. Blocks are known by their position
/// in address order, so every per-block fact is a vector. The findings
/// are added to `diags`.
pub(crate) fn analyze(p: &EdgeProgram, diags: &mut Vec<Diagnostic>) {
    let blocks: Vec<(BlockAddr, &Block)> = p.iter().map(|(&a, b)| (a, b)).collect();
    let index_of = |a: BlockAddr| blocks.binary_search_by_key(&a, |&(x, _)| x).ok();
    let n = blocks.len();

    // The static block graph. Every static target is a block
    // (`ProgramBuilder::finish` refuses a dangling one). Block `b`'s
    // successors are `succ_list[succ_start[b]..succ_start[b + 1]]`.
    let (mut succ_list, mut succ_start) = (Vec::new(), Vec::with_capacity(n + 1));
    let mut taken = vec![false; n];
    for (_, block) in &blocks {
        succ_start.push(succ_list.len());
        let targets = block.exits().iter().filter_map(|e| e.target);
        succ_list.extend(targets.filter_map(index_of));
        for inst in block.instructions() {
            if inst.opcode.has_immediate() {
                if let Some(t) = index_of(inst.imm as u64) {
                    taken[t] = true;
                }
            }
        }
    }
    succ_start.push(succ_list.len());
    let succs = |b: usize| &succ_list[succ_start[b]..succ_start[b + 1]];

    // Reachability from the entry and every address-taken block.
    let mut reached = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let roots = index_of(p.entry())
        .into_iter()
        .chain((0..n).filter(|&b| taken[b]));
    for root in roots {
        if !std::mem::replace(&mut reached[root], true) {
            queue.push_back(root);
        }
    }
    while let Some(b) = queue.pop_front() {
        for &s in succs(b) {
            if !std::mem::replace(&mut reached[s], true) {
                queue.push_back(s);
            }
        }
    }
    for (b, &(a, _)) in blocks.iter().enumerate() {
        if !reached[b] {
            diags.push(Diagnostic::new(
                LintCode::UnreachableBlock,
                Span::block(a),
                "block is unreachable from the entry block and is never address-taken",
            ));
        }
    }

    // Termination: some reachable exit must halt.
    let halts = (0..n).any(|b| {
        reached[b]
            && blocks[b]
                .1
                .exits()
                .iter()
                .any(|e| e.kind == BranchKind::Halt)
    });
    if n > 0 && !halts {
        diags.push(Diagnostic::new(
            LintCode::NoHaltExit,
            Span::block(p.entry()),
            "no halt exit is reachable from the entry block; the program cannot terminate",
        ));
    }

    // Must-defined registers: forward fixpoint, meet = intersection.
    let top = if NUM_ARCH_REGS >= 128 {
        u128::MAX
    } else {
        (1u128 << NUM_ARCH_REGS) - 1
    };
    // Optimistic initialization: everything defined, then lower by
    // intersection. Address-taken blocks receive control with unknown
    // (assumed defined) caller state and stay pinned at top; the entry
    // starts from the ABI registers.
    let mut defined = vec![top; n];
    if let Some(e) = index_of(p.entry()).filter(|&e| reached[e] && !taken[e]) {
        defined[e] = abi_entry_defined();
    }
    let mut work: VecDeque<usize> = (0..n).filter(|&b| reached[b]).collect();
    while let Some(b) = work.pop_front() {
        let out = defined[b] | writes_mask(blocks[b].1);
        for &s in succs(b) {
            if taken[s] {
                continue;
            }
            let met = defined[s] & out;
            if met != defined[s] {
                defined[s] = met;
                work.push_back(s);
            }
        }
    }
    for (b, &(a, block)) in blocks.iter().enumerate() {
        if !reached[b] {
            continue;
        }
        for &(i, r) in block.reads() {
            if defined[b] & (1 << r.index()) == 0 {
                diags.push(
                    Diagnostic::new(
                        LintCode::MaybeUninitRead,
                        Span::inst(a, i),
                        format!("read of {r} is not preceded by a write on every path"),
                    )
                    .with_note("registers reset to zero, so the read observes 0 on those paths"),
                );
            }
        }
    }
}
