//! Predicate-path analysis: enumerate assignments of a block's predicate
//! conditions and prove that on every path exactly one exit fires, every
//! register write resolves exactly once, and every store slot is stored
//! or nullified exactly once.
//!
//! ## Model
//!
//! The analysis discovers the block's *predicate conditions*: the
//! instructions whose results decide predicate operands, found by walking
//! backward from every `Pred` slot through value-transparent operations
//! (`mov` chains, `teq`/`tne` against a known zero, and logical
//! `and`/`or`/`xor` over boolean-valued operands — exactly the guard
//! shapes if-conversion emits). Each condition becomes a free boolean
//! variable; constants discovered by [`BlockGraph`] constant propagation
//! stay constant.
//!
//! For every variable assignment the block is abstractly executed in
//! dataflow order with three-valued firing (`No`/`Yes`/`Maybe`) and a
//! small value lattice (`Const`/`Truthy`/`NullTok`/`Unknown`). Null
//! tokens read as zero, predicated-off instructions consume their slot
//! and deliver nothing, and a store-nullifying `null` never delivers to
//! dataflow targets — all matching the simulator. Error diagnostics are
//! emitted only from *definite* bounds (an upper delivery bound of zero,
//! or a lower bound of two), so a `Maybe` introduced by imprecision can
//! never produce a false error; each one carries the witness assignment.
//!
//! Distinct conditions are treated as independent. If-converted code
//! partitions its exits over exactly these condition values, so the
//! analysis is exact for compiled blocks; hand-written blocks with
//! correlated tests (e.g. `tlt x,5` and `tge x,5` as separate
//! instructions) may see paths no concrete execution takes.

use crate::graph::{foldable, is_null_store, refill, BlockGraph, ROOM};
use crate::{Diagnostic, LintCode, Span};
use clp_isa::{value, Block, Instruction, Opcode, Operand, PredSense, MAX_BLOCK_LSIDS};
use std::collections::BTreeSet;

/// Maximum number of free predicate conditions enumerated exhaustively
/// (`2^n` paths); blocks with more are sampled.
const MAX_PRED_VARS: usize = 12;
/// Number of sampled predicate assignments when enumeration is
/// infeasible.
const PRED_SAMPLES: usize = 2048;

/// Facts the LSID analysis reuses: which memory operations were observed
/// to fire together on an enumerated path.
pub(crate) struct PathFacts<'a> {
    /// A symmetric bit matrix over instruction indices: bit `j` of row
    /// `i` is set when memory operations `i != j` (loads, stores,
    /// store-nullifying nulls) both definitely fire on at least one
    /// enumerated path.
    cofire: &'a [u128],
}

impl PathFacts<'_> {
    /// Whether memory operations `a` and `b` both fire on some path.
    pub(crate) fn cofire(&self, a: usize, b: usize) -> bool {
        self.cofire[a] >> b & 1 == 1
    }
}

/// The working state of the analysis, kept across the blocks of a
/// program so that analysing a block allocates nothing but diagnostics.
#[derive(Default)]
pub struct Scratch {
    /// The block's predicate conditions, ascending.
    vars: Vec<usize>,
    /// `discover_vars`' boolean-operand memo, visited marks and stack.
    bmemo: Vec<Option<bool>>,
    needed: Vec<bool>,
    stack: Vec<usize>,
    pe: PathEval,
    /// Row `i`: the memory operations that fire together with `i`.
    cofire: Vec<u128>,
}

impl Scratch {
    /// Finds the block's predicate conditions, at most 64 of them, and
    /// indexes them: the number beyond 64 (left `Unknown`, which only
    /// weakens the analysis, never falsifies it) is returned.
    fn index_vars(&mut self, block: &Block, g: &BlockGraph) -> usize {
        discover_vars(block, g, self);
        let spill = self.vars.len().saturating_sub(64);
        self.vars.truncate(64);
        self.pe.reset(block.len());
        spill
    }
}

/// Iterates the set bits of `m`, ascending.
fn bits(mut m: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            i
        })
    })
}

/// Marks `bit` of `seen`; true the first time.
fn first(seen: &mut u128, bit: usize) -> bool {
    let fresh = *seen >> bit & 1 == 0;
    *seen |= 1 << bit;
    fresh
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Fire {
    No,
    Yes,
    Maybe,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Val {
    Const(u64),
    Truthy(bool),
    NullTok,
    Unknown,
}

fn truth(v: Val) -> Option<bool> {
    match v {
        Val::Const(c) => Some(c != 0),
        Val::Truthy(b) => Some(b),
        Val::NullTok => Some(false),
        Val::Unknown => None,
    }
}

fn as_const(v: Val) -> Option<u64> {
    match v {
        Val::Const(c) => Some(c),
        Val::NullTok => Some(0),
        _ => None,
    }
}

fn is_test(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Teq | Opcode::Tne | Opcode::Tlt | Opcode::Tle | Opcode::Tgt | Opcode::Tge
    )
}

/// Delivery bounds and merged value of one operand slot under one
/// assignment.
#[derive(Clone, Copy, Debug)]
struct SlotState {
    lo: u32,
    hi: u32,
    val: Val,
}

impl Default for SlotState {
    fn default() -> Self {
        SlotState {
            lo: 0,
            hi: 0,
            val: Val::Unknown,
        }
    }
}

/// Whether every producer feeding slot `s` is boolean-valued (tests,
/// 0/1 constants, nulls, and mov/and/or/xor closures over those), so
/// logical folding of and/or/xor over the slot is exact.
fn slot_boolean(
    i: usize,
    s: usize,
    insts: &[Instruction],
    g: &BlockGraph,
    memo: &mut [Option<bool>],
) -> bool {
    let ps = g.producers(i, s);
    !ps.is_empty() && ps.iter().all(|&p| boolean_ish(p, insts, g, memo))
}

fn boolean_ish(i: usize, insts: &[Instruction], g: &BlockGraph, memo: &mut [Option<bool>]) -> bool {
    if let Some(v) = memo[i] {
        return v;
    }
    // Seed to break (impossible) cycles defensively.
    memo[i] = Some(false);
    let op = insts[i].opcode;
    let r = if let Some(c) = g.cval[i] {
        c <= 1
    } else if is_test(op) || op == Opcode::Null {
        true
    } else if op == Opcode::Mov {
        slot_boolean(i, 0, insts, g, memo)
    } else if matches!(op, Opcode::And | Opcode::Or | Opcode::Xor) {
        slot_boolean(i, 0, insts, g, memo) && slot_boolean(i, 1, insts, g, memo)
    } else {
        false
    };
    memo[i] = Some(r);
    r
}

/// Discovers the free predicate conditions of the block into `s.vars`:
/// instruction indices whose boolean outcome the path enumeration ranges
/// over.
fn discover_vars(block: &Block, g: &BlockGraph, s: &mut Scratch) {
    let insts = block.instructions();
    let n = insts.len();
    let Scratch {
        vars,
        bmemo,
        needed,
        stack,
        ..
    } = s;
    refill(bmemo, n, None, ROOM);
    refill(needed, n, false, ROOM);
    refill(vars, 0, 0, ROOM);
    refill(stack, 0, 0, ROOM);
    for (i, inst) in insts.iter().enumerate() {
        if inst.is_predicated() {
            stack.extend(
                g.producers(i, Operand::Pred.encode() as usize)
                    .iter()
                    .copied(),
            );
        }
    }
    while let Some(i) = stack.pop() {
        if needed[i] {
            continue;
        }
        needed[i] = true;
        if g.cval[i].is_some() || is_null_store(&insts[i]) {
            continue;
        }
        let op = insts[i].opcode;
        match op {
            Opcode::Null => {}
            Opcode::Mov => stack.extend(g.producers(i, 0).iter().copied()),
            Opcode::Teq | Opcode::Tne => {
                if g.op_cval(i, Operand::Right, insts) == Some(0) {
                    stack.extend(g.producers(i, 0).iter().copied());
                } else if g.op_cval(i, Operand::Left, insts) == Some(0) {
                    stack.extend(g.producers(i, 1).iter().copied());
                } else {
                    vars.push(i);
                }
            }
            Opcode::And | Opcode::Or | Opcode::Xor
                if slot_boolean(i, 0, insts, g, bmemo) && slot_boolean(i, 1, insts, g, bmemo) =>
            {
                stack.extend(g.producers(i, 0).iter().copied());
                stack.extend(g.producers(i, 1).iter().copied());
            }
            _ => vars.push(i),
        }
    }
    vars.sort_unstable();
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Default)]
struct PathEval {
    fire: Vec<Fire>,
    /// The lower delivery bound of each operand slot (0 for the slots an
    /// instruction does not have).
    lo: Vec<[u32; 3]>,
    vals: Vec<Val>,
    /// Bitsets over instruction indices: the instructions that
    /// definitely fire, those that may, and those with an operand slot
    /// delivered at least twice.
    yes: u128,
    may: u128,
    multi: u128,
}

/// The value of instruction `i` on the path of `mask` when nothing
/// folds it: its variable's, if it is one of `vars` (ascending).
fn var_val(i: usize, insts: &[Instruction], vars: &[usize], mask: u64) -> Val {
    match vars.binary_search(&i) {
        Ok(v) => {
            let bit = (mask >> v) & 1 == 1;
            if is_test(insts[i].opcode) {
                Val::Const(u64::from(bit))
            } else {
                Val::Truthy(bit)
            }
        }
        Err(_) => Val::Unknown,
    }
}

/// The state of slot `s` of instruction `i` on the path `pe` holds so
/// far: tokens merge into one value only when they all agree.
fn slot_state(i: usize, s: usize, g: &BlockGraph, pe: &PathEval) -> SlotState {
    let mut st = SlotState::default();
    let mut seen: Option<Val> = None;
    let mut mixed = false;
    for &p in g.delivering(i, s) {
        let f = pe.fire[p];
        if f == Fire::No {
            continue;
        }
        if f == Fire::Yes {
            st.lo += 1;
        }
        st.hi += 1;
        let v = pe.vals[p];
        match seen {
            None => seen = Some(v),
            Some(old) if old == v => {}
            Some(_) => mixed = true,
        }
    }
    st.val = if mixed {
        Val::Unknown
    } else {
        seen.unwrap_or(Val::Unknown)
    };
    st
}

impl PathEval {
    /// Resets every entry for a block of `n` instructions.
    fn reset(&mut self, n: usize) {
        refill(&mut self.fire, n, Fire::No, ROOM);
        refill(&mut self.lo, n, [0; 3], ROOM);
        refill(&mut self.vals, n, Val::Unknown, ROOM);
        (self.yes, self.may, self.multi) = (0, 0, 0);
    }
}

/// Evaluates the path of `mask` into `pe`, every instruction in
/// topological order. Each one's firing and value, and the delivery
/// bound of every slot it has, are rewritten; the slots it does not have
/// keep their zero.
fn eval_path(block: &Block, g: &BlockGraph, vars: &[usize], mask: u64, pe: &mut PathEval) {
    let insts = block.instructions();
    let (mut yes, mut may, mut multi) = (0, 0, 0);
    for &i in &g.topo {
        let inst = &insts[i];
        let mut no = false;
        let mut maybe = false;
        // The merged values of the slots, `Unknown` for those it lacks.
        let mut vals = [Val::Unknown; 3];
        for (s, val) in vals.iter_mut().enumerate().take(inst.data_arity()) {
            let st = slot_state(i, s, g, pe);
            (pe.lo[i][s], *val) = (st.lo, st.val);
            if st.lo >= 2 {
                multi |= 1 << i;
            }
            if st.hi == 0 {
                no = true;
            } else if st.lo == 0 {
                maybe = true;
            }
        }
        if let Some(sense) = inst.pred {
            let st = slot_state(i, 2, g, pe);
            pe.lo[i][2] = st.lo;
            if st.lo >= 2 {
                multi |= 1 << i;
            }
            if st.hi == 0 {
                no = true;
            } else {
                match truth(st.val) {
                    Some(t) => {
                        let matches = match sense {
                            PredSense::OnTrue => t,
                            PredSense::OnFalse => !t,
                        };
                        if !matches {
                            no = true;
                        } else if st.lo == 0 {
                            maybe = true;
                        }
                    }
                    None => maybe = true,
                }
            }
        }
        pe.fire[i] = if no {
            Fire::No
        } else if maybe {
            may |= 1 << i;
            Fire::Maybe
        } else {
            may |= 1 << i;
            yes |= 1 << i;
            Fire::Yes
        };
        pe.vals[i] = value_of(inst, i, g, &vals, vars, mask, insts);
    }
    (pe.yes, pe.may, pe.multi) = (yes, may, multi);
}

fn value_of(
    inst: &Instruction,
    i: usize,
    g: &BlockGraph,
    slots: &[Val; 3],
    vars: &[usize],
    mask: u64,
    insts: &[Instruction],
) -> Val {
    if let Some(c) = g.cval[i] {
        return Val::Const(c);
    }
    let op = inst.opcode;
    match op {
        Opcode::Movi => Val::Const(inst.imm as u64),
        Opcode::Null => Val::NullTok,
        Opcode::Mov => slots[0],
        Opcode::Teq | Opcode::Tne => {
            let (l, r) = (slots[0], slots[1]);
            if let (Some(a), Some(b)) = (as_const(l), as_const(r)) {
                return Val::Const(value::eval(op, inst.imm, a, b));
            }
            // `t?q x, zero` is if-conversion's truth normalization: fold
            // it logically even when x is only known truthy.
            let t = if as_const(r) == Some(0) {
                truth(l)
            } else if as_const(l) == Some(0) {
                truth(r)
            } else {
                None
            };
            match t {
                Some(t) => Val::Const(u64::from(if op == Opcode::Tne { t } else { !t })),
                None => var_val(i, insts, vars, mask),
            }
        }
        _ if foldable(op) => {
            let fold = match op.arity() {
                1 => as_const(slots[0]).map(|a| value::eval(op, inst.imm, a, 0)),
                2 => match (as_const(slots[0]), as_const(slots[1])) {
                    (Some(a), Some(b)) => Some(value::eval(op, inst.imm, a, b)),
                    _ => None,
                },
                _ => None,
            };
            match fold {
                Some(c) => Val::Const(c),
                None => var_val(i, insts, vars, mask),
            }
        }
        _ => var_val(i, insts, vars, mask),
    }
}

/// Per-path firing vectors for the clp-bound analyzer.
///
/// When the predicate space is exhaustively enumerable there is one
/// vector per assignment, and the real execution path always matches
/// one of them. Otherwise there is a single assignment-free vector
/// (every discovered condition left `Unknown`), whose `Fire::Yes`
/// entries fire under *every* assignment — an under-approximation of
/// each real path's firing set, which is the sound direction for a
/// lower bound.
pub(crate) struct FiringPaths {
    /// Whether `paths` covers every predicate assignment.
    pub(crate) exhaustive: bool,
    /// One `Fire` entry per instruction, per enumerated path.
    pub(crate) paths: Vec<Vec<Fire>>,
}

/// Enumerates firing vectors for `block` (see [`FiringPaths`]).
pub(crate) fn firing_paths(block: &Block, g: &BlockGraph) -> FiringPaths {
    let mut s = Scratch::default();
    let spill = s.index_vars(block, g);
    let pe = &mut s.pe;
    if spill > 0 || s.vars.len() > MAX_PRED_VARS {
        // Every condition left `Unknown`.
        eval_path(block, g, &[], 0, pe);
        return FiringPaths {
            exhaustive: false,
            paths: vec![std::mem::take(&mut pe.fire)],
        };
    }
    let paths = (0..(1u64 << s.vars.len()))
        .map(|mask| {
            eval_path(block, g, &s.vars, mask, pe);
            pe.fire.clone()
        })
        .collect();
    FiringPaths {
        exhaustive: true,
        paths,
    }
}

fn describe_mask(vars: &[usize], mask: u64, insts: &[Instruction]) -> String {
    if vars.is_empty() {
        return "the unconditional path".to_string();
    }
    let parts: Vec<String> = vars
        .iter()
        .enumerate()
        .map(|(v, &i)| format!("i{}({})={}", i, insts[i].opcode, (mask >> v) & 1))
        .collect();
    format!("predicate assignment {}", parts.join(", "))
}

/// Runs the predicate-path analysis on one block, adding its findings to
/// `diags`; the facts it returns borrow `s`.
pub(crate) fn analyze<'s>(
    block: &Block,
    g: &BlockGraph,
    s: &'s mut Scratch,
    diags: &mut Vec<Diagnostic>,
) -> PathFacts<'s> {
    let insts = block.instructions();
    let n = insts.len();
    let addr = block.address();

    let spill = s.index_vars(block, g);
    let Scratch {
        vars, pe, cofire, ..
    } = s;
    let vars = &*vars;

    let exhaustive = spill == 0 && vars.len() <= MAX_PRED_VARS;
    let sampled: Vec<u64> = if exhaustive {
        Vec::new()
    } else {
        let mask_bits = if vars.len() >= 64 {
            u64::MAX
        } else {
            (1u64 << vars.len()) - 1
        };
        let mut state = 0x9E37_79B9_7F4A_7C15 ^ addr;
        let mut set: BTreeSet<u64> = [0, mask_bits].into();
        while set.len() < PRED_SAMPLES {
            set.insert(splitmix64(&mut state) & mask_bits);
        }
        set.into_iter().collect()
    };
    if !exhaustive {
        diags.push(
            Diagnostic::new(
                LintCode::PredicateSpaceTruncated,
                Span::block(addr),
                format!(
                    "{} predicate conditions exceed the enumeration limit of {}; \
                     sampled {} of {} assignments",
                    vars.len() + spill,
                    MAX_PRED_VARS,
                    sampled.len(),
                    if vars.len() + spill >= 64 {
                        "2^64+".to_string()
                    } else {
                        format!("{}", 1u128 << (vars.len() + spill))
                    }
                ),
            )
            .with_note("exhaustive-only checks (dead-predicate-path) are skipped".to_string()),
        );
    }
    let paths = if exhaustive {
        1usize << vars.len()
    } else {
        sampled.len()
    };

    // As bitsets over instruction indices: store-slot resolvers per LSID
    // (stores and store-nullifying nulls), the exits and the memory
    // operations.
    let mut resolvers = [0u128; MAX_BLOCK_LSIDS];
    let (mut exits, mut mem_ops) = (0u128, 0u128);
    for (i, inst) in insts.iter().enumerate() {
        if inst.opcode.is_store() || is_null_store(inst) {
            if let Some(l) = inst.lsid {
                resolvers[l.index()] |= 1 << i;
            }
        }
        if inst.opcode == Opcode::Bro {
            exits |= 1 << i;
        }
        if inst.opcode.is_load() || inst.opcode.is_store() || is_null_store(inst) {
            mem_ops |= 1 << i;
        }
    }

    // What has been reported, so each defect is reported once: by
    // instruction (writes), by LSID (store slots), by instruction per
    // operand slot (races).
    let (mut no_exit, mut multi_exit) = (false, false);
    let (mut starved, mut double_write) = (0u128, 0u128);
    let (mut unresolved, mut double_store) = (0u128, 0u128);
    let mut races = [0u128; 3];
    let mut ever_fired = 0u128;
    refill(cofire, n, 0, ROOM);

    let masks = (0..paths).map(|path| {
        if exhaustive {
            path as u64
        } else {
            sampled[path]
        }
    });
    for mask in masks {
        eval_path(block, g, vars, mask, pe);
        let witness = || describe_mask(vars, mask, insts);
        let (yes, may) = (pe.yes, pe.may);

        // Exactly one exit must fire.
        let exit_lo = exits & yes;
        if exits & may == 0 && !std::mem::replace(&mut no_exit, true) {
            diags.push(
                Diagnostic::new(
                    LintCode::NoFiringExit,
                    Span::block(addr),
                    "no exit branch fires on this path; the block never commits",
                )
                .with_note(format!("on {}", witness())),
            );
        }
        if exit_lo.count_ones() >= 2 && !std::mem::replace(&mut multi_exit, true) {
            let list: Vec<String> = bits(exit_lo).map(|i| format!("i{i}")).collect();
            diags.push(
                Diagnostic::new(
                    LintCode::MultipleFiringExits,
                    Span::inst(addr, bits(exit_lo).nth(1).expect("two exits")),
                    format!("{} exit branches fire on the same path", list.len()),
                )
                .with_note(format!("firing exits: {}", list.join(", ")))
                .with_note(format!("on {}", witness())),
            );
        }

        // Every register write resolves exactly once.
        for &(wi, reg) in block.writes() {
            if pe.fire[wi] == Fire::No && first(&mut starved, wi) {
                diags.push(
                    Diagnostic::new(
                        LintCode::StarvedWrite,
                        Span::inst(addr, wi),
                        format!(
                            "write to {reg} receives no value or null on this path; \
                             the block's register outputs never resolve"
                        ),
                    )
                    .with_note(format!("on {}", witness())),
                );
            }
            if pe.lo[wi][0] >= 2 && first(&mut double_write, wi) {
                diags.push(
                    Diagnostic::new(
                        LintCode::DoubleWrite,
                        Span::inst(addr, wi),
                        format!(
                            "write to {reg} is delivered {} values on the same path",
                            pe.lo[wi][0]
                        ),
                    )
                    .with_note(format!("on {}", witness())),
                );
            }
        }

        // Every store slot resolves exactly once.
        for (lsid, &rs) in resolvers.iter().enumerate().filter(|(_, &rs)| rs != 0) {
            let lo = rs & yes;
            if rs & may == 0 && first(&mut unresolved, lsid) {
                diags.push(
                    Diagnostic::new(
                        LintCode::UnresolvedStore,
                        Span::inst(addr, rs.trailing_zeros() as usize),
                        format!(
                            "store slot ls{lsid} is neither stored nor nullified on this path; \
                             the block's store outputs never resolve"
                        ),
                    )
                    .with_note(format!("on {}", witness())),
                );
            }
            if lo.count_ones() >= 2 && first(&mut double_store, lsid) {
                let list: Vec<String> = bits(lo).map(|i| format!("i{i}")).collect();
                diags.push(
                    Diagnostic::new(
                        LintCode::DoubleStore,
                        Span::inst(addr, bits(lo).nth(1).expect("two resolvers")),
                        format!(
                            "store slot ls{lsid} resolves {} times on the same path",
                            list.len()
                        ),
                    )
                    .with_note(format!("resolved by {}", list.join(", ")))
                    .with_note(format!("on {}", witness())),
                );
            }
        }

        // Non-write operand slots delivered twice.
        for i in bits(pe.multi) {
            let is_write = insts[i].opcode == Opcode::Write;
            for s in 0..3 {
                if is_write && s == 0 {
                    continue;
                }
                if pe.lo[i][s] >= 2 && first(&mut races[s], i) {
                    let slot = ["left", "right", "predicate"][s];
                    diags.push(
                        Diagnostic::new(
                            LintCode::OperandRace,
                            Span::inst(addr, i),
                            format!(
                                "{slot} operand receives {} tokens on the same path",
                                pe.lo[i][s]
                            ),
                        )
                        .with_note(format!("on {}", witness())),
                    );
                }
            }
        }

        ever_fired |= may;
        let fired = mem_ops & yes;
        for i in bits(fired) {
            cofire[i] |= fired & !(1 << i);
        }
    }

    if exhaustive {
        for i in (0..n).filter(|&i| ever_fired >> i & 1 == 0) {
            diags.push(Diagnostic::new(
                LintCode::DeadPredicatePath,
                Span::inst(addr, i),
                "instruction fires on no predicate assignment (contradictory predicates \
                 or a dead producer)",
            ));
        }
    }

    for (i, inst) in insts.iter().enumerate() {
        if is_null_store(inst) && inst.target_count() > 0 {
            diags.push(Diagnostic::new(
                LintCode::NullStoreFanout,
                Span::inst(addr, i),
                format!(
                    "null resolves store slot ls{} and also names dataflow targets, \
                     which are never delivered",
                    inst.lsid.map(|l| l.index()).unwrap_or_default()
                ),
            ));
        }
    }

    PathFacts { cofire }
}
