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
use clp_isa::{BlockAddr, BranchKind, EdgeProgram, NUM_ARCH_REGS};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

fn writes_mask(block: &clp_isa::Block) -> u128 {
    let mut m = 0u128;
    for &(_, r) in block.writes() {
        m |= 1 << r.index();
    }
    m
}

/// Runs the whole-program analysis.
pub fn analyze(p: &EdgeProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let addrs: BTreeSet<BlockAddr> = p.iter().map(|(&a, _)| a).collect();

    // The static block graph.
    let mut succs: BTreeMap<BlockAddr, Vec<BlockAddr>> = BTreeMap::new();
    let mut taken: BTreeSet<BlockAddr> = BTreeSet::new();
    for (&a, block) in p.iter() {
        succs.insert(a, block.exits().iter().filter_map(|e| e.target).collect());
        for inst in block.instructions() {
            if inst.opcode.has_immediate() && addrs.contains(&(inst.imm as u64)) {
                taken.insert(inst.imm as u64);
            }
        }
    }

    // Reachability from the entry and every address-taken block.
    let mut reached: BTreeSet<BlockAddr> = BTreeSet::new();
    let mut queue: VecDeque<BlockAddr> = VecDeque::new();
    for root in std::iter::once(p.entry()).chain(taken.iter().copied()) {
        if addrs.contains(&root) && reached.insert(root) {
            queue.push_back(root);
        }
    }
    while let Some(a) = queue.pop_front() {
        for &s in &succs[&a] {
            if reached.insert(s) {
                queue.push_back(s);
            }
        }
    }
    for &a in &addrs {
        if !reached.contains(&a) {
            diags.push(Diagnostic::new(
                LintCode::UnreachableBlock,
                Span::block(a),
                "block is unreachable from the entry block and is never address-taken",
            ));
        }
    }

    // Termination: some reachable exit must halt.
    let halts = reached.iter().any(|a| {
        p.block(*a)
            .is_some_and(|b| b.exits().iter().any(|e| e.kind == BranchKind::Halt))
    });
    if !addrs.is_empty() && !halts {
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
    let mut defined: BTreeMap<BlockAddr, u128> = reached.iter().map(|&a| (a, top)).collect();
    if reached.contains(&p.entry()) && !taken.contains(&p.entry()) {
        defined.insert(p.entry(), abi_entry_defined());
    }
    let mut work: VecDeque<BlockAddr> = reached.iter().copied().collect();
    while let Some(a) = work.pop_front() {
        let Some(block) = p.block(a) else { continue };
        let out = defined[&a] | writes_mask(block);
        for &s in &succs[&a] {
            if taken.contains(&s) {
                continue;
            }
            let cur = defined[&s];
            let met = cur & out;
            if met != cur {
                defined.insert(s, met);
                work.push_back(s);
            }
        }
    }
    for &a in &reached {
        let Some(block) = p.block(a) else { continue };
        let d = defined[&a];
        for &(i, r) in block.reads() {
            if d & (1 << r.index()) == 0 {
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

    diags
}
