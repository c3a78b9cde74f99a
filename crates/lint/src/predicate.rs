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

use crate::graph::{foldable, BlockGraph};
use crate::{Diagnostic, LintCode, Span};
use clp_isa::{value, Block, Instruction, Opcode, Operand, PredSense};
use std::collections::{BTreeMap, BTreeSet};

/// Maximum number of free predicate conditions enumerated exhaustively
/// (`2^n` paths); blocks with more are sampled.
const MAX_PRED_VARS: usize = 12;
/// Number of sampled predicate assignments when enumeration is
/// infeasible.
const PRED_SAMPLES: usize = 2048;

/// Facts the LSID analysis reuses: which memory operations were observed
/// to fire together on an enumerated path.
pub struct PathFacts {
    /// A symmetric bit matrix over instruction indices: bit `j` of row
    /// `i` is set when memory operations `i != j` (loads, stores,
    /// store-nullifying nulls) both definitely fire on at least one
    /// enumerated path.
    cofire: Vec<u128>,
}

impl PathFacts {
    /// Whether memory operations `a` and `b` both fire on some path.
    pub fn cofire(&self, a: usize, b: usize) -> bool {
        self.cofire[a] >> b & 1 == 1
    }
}

/// `var_of[i]`: the predicate variable instruction `i` is, if it is one.
fn var_index(vars: &[usize], n: usize) -> Vec<Option<usize>> {
    let mut var_of = vec![None; n];
    for (v, &i) in vars.iter().enumerate() {
        var_of[i] = Some(v);
    }
    var_of
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

/// A store-nullifying `null` resolves a store slot but never delivers to
/// its dataflow targets (the simulator drops them).
fn is_null_store(inst: &Instruction) -> bool {
    inst.opcode == Opcode::Null && inst.lsid.is_some()
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

/// Discovers the free predicate conditions of the block: instruction
/// indices whose boolean outcome the path enumeration ranges over.
fn discover_vars(block: &Block, g: &BlockGraph) -> Vec<usize> {
    let insts = block.instructions();
    let n = insts.len();
    let mut bmemo = vec![None; n];
    let mut needed = vec![false; n];
    let mut vars = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
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
                if slot_boolean(i, 0, insts, g, &mut bmemo)
                    && slot_boolean(i, 1, insts, g, &mut bmemo) =>
            {
                stack.extend(g.producers(i, 0).iter().copied());
                stack.extend(g.producers(i, 1).iter().copied());
            }
            _ => vars.push(i),
        }
    }
    vars.sort_unstable();
    vars
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct PathEval {
    fire: Vec<Fire>,
    slots: Vec<[SlotState; 3]>,
    vals: Vec<Val>,
}

fn var_val(i: usize, insts: &[Instruction], var_of: &[Option<usize>], mask: u64) -> Val {
    match var_of[i] {
        Some(v) => {
            let bit = (mask >> v) & 1 == 1;
            if is_test(insts[i].opcode) {
                Val::Const(u64::from(bit))
            } else {
                Val::Truthy(bit)
            }
        }
        None => Val::Unknown,
    }
}

fn slot_state(
    i: usize,
    s: usize,
    g: &BlockGraph,
    insts: &[Instruction],
    pe: &PathEval,
) -> SlotState {
    let mut st = SlotState::default();
    let mut seen: Option<Val> = None;
    let mut mixed = false;
    for &p in g.producers(i, s) {
        if is_null_store(&insts[p]) {
            continue;
        }
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
    fn new(n: usize) -> Self {
        PathEval {
            fire: vec![Fire::No; n],
            slots: vec![[SlotState::default(); 3]; n],
            vals: vec![Val::Unknown; n],
        }
    }
}

/// Evaluates the path of `mask` into `pe`. Every instruction's firing
/// and value, and every slot it has, are rewritten; the slots it does not
/// have keep their default.
fn eval_path(
    block: &Block,
    g: &BlockGraph,
    var_of: &[Option<usize>],
    mask: u64,
    pe: &mut PathEval,
) {
    let insts = block.instructions();
    for &i in &g.topo {
        let inst = &insts[i];
        let arity = inst.data_arity();
        for s in 0..arity {
            pe.slots[i][s] = slot_state(i, s, g, insts, pe);
        }
        if inst.is_predicated() {
            pe.slots[i][2] = slot_state(i, 2, g, insts, pe);
        }
        let mut no = false;
        let mut maybe = false;
        for s in 0..arity {
            let st = pe.slots[i][s];
            if st.hi == 0 {
                no = true;
            } else if st.lo == 0 {
                maybe = true;
            }
        }
        if let Some(sense) = inst.pred {
            let st = pe.slots[i][2];
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
            Fire::Maybe
        } else {
            Fire::Yes
        };
        pe.vals[i] = value_of(inst, i, g, pe, var_of, mask, insts);
    }
}

fn value_of(
    inst: &Instruction,
    i: usize,
    g: &BlockGraph,
    pe: &PathEval,
    var_of: &[Option<usize>],
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
        Opcode::Mov => pe.slots[i][0].val,
        Opcode::Teq | Opcode::Tne => {
            let l = pe.slots[i][0].val;
            let r = pe.slots[i][1].val;
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
                None => var_val(i, insts, var_of, mask),
            }
        }
        _ if foldable(op) => {
            let fold = match op.arity() {
                1 => as_const(pe.slots[i][0].val).map(|a| value::eval(op, inst.imm, a, 0)),
                2 => match (as_const(pe.slots[i][0].val), as_const(pe.slots[i][1].val)) {
                    (Some(a), Some(b)) => Some(value::eval(op, inst.imm, a, b)),
                    _ => None,
                },
                _ => None,
            };
            match fold {
                Some(c) => Val::Const(c),
                None => var_val(i, insts, var_of, mask),
            }
        }
        _ => var_val(i, insts, var_of, mask),
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
    let mut all_vars = discover_vars(block, g);
    let spill = all_vars.len().saturating_sub(64);
    all_vars.truncate(64);
    let vars = all_vars;
    let n = block.len();
    let mut pe = PathEval::new(n);
    if spill > 0 || vars.len() > MAX_PRED_VARS {
        eval_path(block, g, &vec![None; n], 0, &mut pe);
        return FiringPaths {
            exhaustive: false,
            paths: vec![pe.fire],
        };
    }
    let var_of = var_index(&vars, n);
    let paths = (0..(1u64 << vars.len()))
        .map(|mask| {
            eval_path(block, g, &var_of, mask, &mut pe);
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

/// Runs the predicate-path analysis on one block.
pub fn analyze(block: &Block, g: &BlockGraph) -> (Vec<Diagnostic>, PathFacts) {
    let insts = block.instructions();
    let n = insts.len();
    let addr = block.address();
    let mut diags = Vec::new();

    let mut all_vars = discover_vars(block, g);
    // Masks are 64-bit; conditions beyond 64 stay `Unknown`, which only
    // weakens the analysis, never falsifies it.
    let spill = all_vars.len().saturating_sub(64);
    all_vars.truncate(64);
    let vars = all_vars;
    let var_of = var_index(&vars, n);

    let exhaustive = spill == 0 && vars.len() <= MAX_PRED_VARS;
    let masks: Vec<u64> = if exhaustive {
        (0..(1u64 << vars.len())).collect()
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
                    masks.len(),
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

    // Store-slot resolvers per LSID (stores and store-nullifying nulls),
    // the exits and the memory operations.
    let mut resolvers: BTreeMap<u8, Vec<usize>> = BTreeMap::new();
    let (mut exits, mut mem_ops) = (Vec::new(), Vec::new());
    for (i, inst) in insts.iter().enumerate() {
        if inst.opcode.is_store() || is_null_store(inst) {
            if let Some(l) = inst.lsid {
                resolvers.entry(l.index() as u8).or_default().push(i);
            }
        }
        if inst.opcode == Opcode::Bro {
            exits.push(i);
        }
        if inst.opcode.is_load() || inst.opcode.is_store() || is_null_store(inst) {
            mem_ops.push(i);
        }
    }

    // What has been reported, so each defect is reported once: by
    // instruction (writes), by LSID (store slots), by instruction per
    // operand slot (races).
    let (mut no_exit, mut multi_exit) = (false, false);
    let (mut starved, mut double_write) = (0u128, 0u128);
    let (mut unresolved, mut double_store) = (0u128, 0u128);
    let mut races = [0u128; 3];
    let mut ever_fired = vec![false; n];
    let mut cofire = vec![0u128; n];
    let mut pe = PathEval::new(n);

    for &mask in &masks {
        eval_path(block, g, &var_of, mask, &mut pe);
        let witness = || describe_mask(&vars, mask, insts);

        // Exactly one exit must fire.
        let mut exit_lo: Vec<usize> = Vec::new();
        let mut exit_hi = 0u32;
        for &i in &exits {
            match pe.fire[i] {
                Fire::Yes => {
                    exit_lo.push(i);
                    exit_hi += 1;
                }
                Fire::Maybe => exit_hi += 1,
                Fire::No => {}
            }
        }
        if exit_hi == 0 && !std::mem::replace(&mut no_exit, true) {
            diags.push(
                Diagnostic::new(
                    LintCode::NoFiringExit,
                    Span::block(addr),
                    "no exit branch fires on this path; the block never commits",
                )
                .with_note(format!("on {}", witness())),
            );
        }
        if exit_lo.len() >= 2 && !std::mem::replace(&mut multi_exit, true) {
            let list: Vec<String> = exit_lo.iter().map(|i| format!("i{i}")).collect();
            diags.push(
                Diagnostic::new(
                    LintCode::MultipleFiringExits,
                    Span::inst(addr, exit_lo[1]),
                    format!("{} exit branches fire on the same path", exit_lo.len()),
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
            if pe.slots[wi][0].lo >= 2 && first(&mut double_write, wi) {
                diags.push(
                    Diagnostic::new(
                        LintCode::DoubleWrite,
                        Span::inst(addr, wi),
                        format!(
                            "write to {reg} is delivered {} values on the same path",
                            pe.slots[wi][0].lo
                        ),
                    )
                    .with_note(format!("on {}", witness())),
                );
            }
        }

        // Every store slot resolves exactly once.
        for (&lsid, rs) in &resolvers {
            let lo: Vec<usize> = rs
                .iter()
                .copied()
                .filter(|&i| pe.fire[i] == Fire::Yes)
                .collect();
            let hi = rs.iter().filter(|&&i| pe.fire[i] != Fire::No).count();
            if hi == 0 && first(&mut unresolved, lsid.into()) {
                diags.push(
                    Diagnostic::new(
                        LintCode::UnresolvedStore,
                        Span::inst(addr, rs[0]),
                        format!(
                            "store slot ls{lsid} is neither stored nor nullified on this path; \
                             the block's store outputs never resolve"
                        ),
                    )
                    .with_note(format!("on {}", witness())),
                );
            }
            if lo.len() >= 2 && first(&mut double_store, lsid.into()) {
                let list: Vec<String> = lo.iter().map(|i| format!("i{i}")).collect();
                diags.push(
                    Diagnostic::new(
                        LintCode::DoubleStore,
                        Span::inst(addr, lo[1]),
                        format!(
                            "store slot ls{lsid} resolves {} times on the same path",
                            lo.len()
                        ),
                    )
                    .with_note(format!("resolved by {}", list.join(", ")))
                    .with_note(format!("on {}", witness())),
                );
            }
        }

        // Non-write operand slots delivered twice.
        for (i, inst) in insts.iter().enumerate() {
            let is_write = inst.opcode == Opcode::Write;
            for s in 0..3 {
                if is_write && s == 0 {
                    continue;
                }
                if pe.slots[i][s].lo >= 2 && first(&mut races[s], i) {
                    let slot = ["left", "right", "predicate"][s];
                    diags.push(
                        Diagnostic::new(
                            LintCode::OperandRace,
                            Span::inst(addr, i),
                            format!(
                                "{slot} operand receives {} tokens on the same path",
                                pe.slots[i][s].lo
                            ),
                        )
                        .with_note(format!("on {}", witness())),
                    );
                }
            }
        }

        for (i, fired) in ever_fired.iter_mut().enumerate() {
            if pe.fire[i] != Fire::No {
                *fired = true;
            }
        }
        let fired = mem_ops
            .iter()
            .filter(|&&i| pe.fire[i] == Fire::Yes)
            .fold(0u128, |m, &i| m | 1 << i);
        for &i in &mem_ops {
            if fired >> i & 1 == 1 {
                cofire[i] |= fired & !(1 << i);
            }
        }
    }

    if exhaustive {
        for (i, &fired) in ever_fired.iter().enumerate() {
            if !fired {
                diags.push(Diagnostic::new(
                    LintCode::DeadPredicatePath,
                    Span::inst(addr, i),
                    "instruction fires on no predicate assignment (contradictory predicates \
                     or a dead producer)",
                ));
            }
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

    (diags, PathFacts { cofire })
}
