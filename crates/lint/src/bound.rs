//! clp-bound: static per-block cycle/resource lower bounds, sound
//! against the cycle-accurate simulator.
//!
//! For each hyperblock and composition size the analyzer computes a
//! *provable lower bound* on the block's fetch-to-commit span: the max
//! of
//!
//! - the **placement-aware dataflow height** — the longest path through
//!   the block's operand graph that ends at a *commit-gating output*
//!   (a register write, store, store-nullification, or branch),
//!   weighting each edge with the producer's execution latency plus the
//!   operand-network delivery delay (one cycle for the same-core
//!   bypass, [`clp_noc::rect_hops`]` + 1` cycles across the composed
//!   mesh), minimized over the enumerated predicate paths of
//!   `predicate.rs`'s three-valued firing analysis;
//! - classic **resource interval bounds**: per-core issue slots
//!   (with the FP sub-budget), per-core fetch/dispatch bandwidth, and
//!   per-link operand-network bandwidth under X-Y dimension-order
//!   routing, counted only over the instructions that *must* execute
//!   before the block can commit. LSQ-port pressure is deliberately
//!   folded into the issue bound: banks are address-interleaved, so a
//!   per-bank interval claim would need addresses the static analyzer
//!   cannot know, and the memory system imposes no per-bank issue port
//!   beyond the core's own issue width.
//!
//! The output-gating restriction is forced by the machine, not a
//! tightness choice: a TFlex block commits as soon as its branch has
//! resolved, every register write and store slot is satisfied, and
//! dispatch has drained — instructions still in flight that feed no
//! output are simply discarded at commit. A firing dataflow tail that
//! ends in a dead predicate-fanout mov therefore never delays the
//! block, and counting it would over-bound real spans (conv's
//! predicate ladder commits ~50 cycles before its deepest firing mov
//! chain would finish).
//!
//! Soundness is the load-bearing contract: `bound ≤ measured` for every
//! block span the profiler records and for every suite cell, checked by
//! tier-1. Everything here errs on the side of *under*-estimation:
//! predicate paths take the min over enumerated assignments (the real
//! path always matches one when enumeration is exhaustive, and the
//! sampled fallback keeps only instructions that fire under every
//! assignment), possibly-firing (`Maybe`) producers are allowed to
//! satisfy an operand early, only definitely-firing outputs anchor a
//! path, and memory/control traffic that cannot be attributed
//! statically is simply not counted.

use crate::graph::BlockGraph;
use crate::predicate::{firing_paths, Fire};
use crate::{Diagnostic, LintCode, LintConfig, Span};
use clp_isa::{Block, BlockAddr, BranchKind, EdgeProgram, Instruction, Opcode, OpcodeClass};
use clp_noc::{rect_hops, rect_links, region_rect, MeshConfig};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// The machine parameters the bound is computed against: the simulator's
// TFlex core (dual-issue, one FP pipe, four-wide dispatch,
// double-bandwidth operand links). The tier-1 soundness gate runs the
// analyzer against the real simulator, so any drift between the two is
// caught as a bound violation rather than silently mis-modeled.

/// Instructions each core may issue per cycle.
const ISSUE_WIDTH: u64 = 2;
/// Floating-point instructions each core may issue per cycle (a
/// sub-budget of [`ISSUE_WIDTH`]).
const FP_ISSUE: u64 = 1;
/// Instructions each core may dispatch into its window per cycle.
const DISPATCH_PER_CYCLE: u64 = 4;
/// Operand-network messages per link direction per cycle.
const LINK_BANDWIDTH: u64 = 2;

/// Percentage by which placement may inflate a block's static critical
/// path over its placement-free height before
/// [`LintCode::PlacementInflatedPath`] fires.
const BOUND_INFLATION_PCT: u64 = 50;

/// The component that sets a block's (or cell's) bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// Placement-aware dataflow critical path.
    Height,
    /// Per-core issue bandwidth.
    Issue,
    /// Per-link operand-network bandwidth.
    Noc,
    /// Per-core dispatch bandwidth.
    Dispatch,
}

impl Resource {
    /// Short human-readable name of the binding resource.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Resource::Height => "height",
            Resource::Issue => "issue",
            Resource::Noc => "noc",
            Resource::Dispatch => "dispatch",
        }
    }
}

/// A provable lower bound on one block's fetch-to-commit span at one
/// composition size, with its component breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockBound {
    /// Block address.
    pub addr: BlockAddr,
    /// Composition size the bound was computed for.
    pub cores: usize,
    /// The bound itself: max of every component, never zero.
    pub cycles: u64,
    /// Placement-aware dataflow height of the binding predicate path.
    pub height: u64,
    /// The same height with every route cost removed (pure latencies
    /// plus the single-cycle bypass) — the yardstick for
    /// [`LintCode::PlacementInflatedPath`].
    pub flat_height: u64,
    /// Per-core issue interval bound of the binding path.
    pub issue: u64,
    /// Per-link operand-network interval bound of the binding path.
    pub noc: u64,
    /// Per-core dispatch interval bound (predicate-independent).
    pub dispatch: u64,
    /// Which component sets `cycles`.
    pub binding: Resource,
    /// Whether the predicate paths were enumerated exhaustively (if
    /// not, the bound used only instructions that fire under every
    /// assignment).
    pub exhaustive: bool,
}

/// A provable lower bound on a whole program's cycle count at one
/// composition size.
///
/// Per-block bounds must **not** be summed along a control-flow path —
/// composed processors overlap speculative blocks, so spans overlap.
/// The sound program-level floors are:
///
/// - the best bound among blocks that *must* commit (the entry block
///   and every common dominator of the program's terminals),
/// - the weakest terminal bound (every run ends by committing some
///   halt- or return-exiting block),
/// - the dispatch-work floor: the cheapest control-flow path still
///   dispatches `W` instructions through `cores ×
///   dispatch_per_cycle` slots per cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramBound {
    /// Composition size the bound was computed for.
    pub cores: usize,
    /// The program-level lower bound (max of the floors below).
    pub cycles: u64,
    /// Best per-block bound among must-commit blocks.
    pub must_commit: u64,
    /// Weakest per-block bound among terminal blocks.
    pub terminal: u64,
    /// Dispatch-bandwidth work floor over the cheapest path.
    pub work_floor: u64,
    /// Per-block bounds for every block reachable from the entry.
    pub blocks: Vec<BlockBound>,
}

/// Per-opcode execution latency as the bound model sees it: `Read`
/// values are register-bank lookups that arrive with dispatch, so they
/// contribute no execution latency of their own.
fn lat(block: &Block, i: usize) -> u64 {
    let op = block.instructions()[i].opcode;
    if op == Opcode::Read {
        0
    } else {
        u64::from(op.latency())
    }
}

/// The cheapest cycle an instruction can leave dispatch, from its
/// position in its core's dispatch slice (slices stripe round-robin,
/// so slot `i` is position `i / cores` in core `i % cores`'s slice).
fn dispatch_floor(i: usize, cores: usize) -> u64 {
    (i / cores) as u64 / DISPATCH_PER_CYCLE
}

fn div_ceil_u64(a: u64, b: u64) -> u64 {
    a.div_ceil(b.max(1))
}

/// Whether an instruction's completion gates block commit: the commit
/// point waits for the branch to resolve, every register write and
/// store slot to be satisfied (a store either executes or is nullified
/// by a `null` carrying its LSID), and dispatch to drain — nothing
/// else. Everything still in flight at that point is discarded.
fn is_gating(inst: &Instruction) -> bool {
    match inst.opcode {
        Opcode::Write | Opcode::Bro => true,
        Opcode::Null => inst.lsid.is_some(),
        op => op.is_store(),
    }
}

/// The instructions that must have executed before the block can
/// commit, under one firing vector: the backward closure of the
/// definitely-firing gating outputs through operand slots with exactly
/// one possible (non-`No`) producer. A slot several producers could
/// feed pins none of them individually — some producer delivered, but
/// a sound per-instruction count cannot say which.
fn live_set(g: &BlockGraph, insts: &[Instruction], fire: &[Fire]) -> Vec<bool> {
    let n = insts.len();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = (0..n)
        .filter(|&i| fire[i] == Fire::Yes && is_gating(&insts[i]))
        .collect();
    for &i in &stack {
        live[i] = true;
    }
    while let Some(i) = stack.pop() {
        for slot in 0..3 {
            if let Some(p) = sole_producer(g, fire, i, slot) {
                if !live[p] {
                    live[p] = true;
                    stack.push(p);
                }
            }
        }
    }
    live
}

/// One predicate path's component bounds.
struct PathBounds {
    height: u64,
    flat_height: u64,
    issue: u64,
    noc: u64,
}

/// Computes the placement-aware and placement-free heights of one
/// firing vector: a longest-path pass over the operand graph, anchored
/// only at definitely-firing commit-gating outputs ([`is_gating`]) —
/// the block commits the moment those are satisfied, whatever else is
/// still in flight.
fn path_heights(
    block: &Block,
    g: &BlockGraph,
    fire: &[Fire],
    cores: usize,
    rect_w: usize,
) -> (u64, u64) {
    let insts = block.instructions();
    let n = insts.len();
    let mut lb = vec![0u64; n];
    let mut lb_flat = vec![0u64; n];
    let mut height = 0u64;
    let mut flat = 0u64;
    for &i in &g.topo {
        let mut t = dispatch_floor(i, cores);
        let mut tf = t;
        for slot in 0..3 {
            // The consumer cannot fire before *some* possibly-firing
            // producer of each fed slot delivers; min over producers is
            // the sound choice when several could feed it on different
            // paths, and a `Maybe` producer may satisfy the slot early.
            let mut best: Option<u64> = None;
            let mut best_flat: Option<u64> = None;
            for &p in g.producers(i, slot) {
                if fire[p] == Fire::No {
                    continue;
                }
                let hops = if insts[p].opcode == Opcode::Read {
                    // The value leaves the register bank, not the
                    // producer's slot core.
                    match insts[p].reg {
                        Some(r) => rect_hops(r.bank_of(cores), i % cores, rect_w) as u64,
                        None => 0,
                    }
                } else {
                    rect_hops(p % cores, i % cores, rect_w) as u64
                };
                let w = lb[p] + lat(block, p) + hops + 1;
                let wf = lb_flat[p] + lat(block, p) + 1;
                best = Some(best.map_or(w, |b: u64| b.min(w)));
                best_flat = Some(best_flat.map_or(wf, |b: u64| b.min(wf)));
            }
            if let Some(b) = best {
                t = t.max(b);
            }
            if let Some(b) = best_flat {
                tf = tf.max(b);
            }
        }
        lb[i] = t;
        lb_flat[i] = tf;
        // Only a definitely-firing gating output anchors a path, and
        // only through its operand-arrival time: the commit point needs
        // the output's inputs delivered, not a further execution
        // latency the commit protocol may overlap.
        if fire[i] == Fire::Yes && is_gating(&insts[i]) {
            height = height.max(t);
            flat = flat.max(tf);
        }
    }
    (height, flat)
}

/// The sole instruction that can deliver `(i, slot)` under this firing
/// vector, if there is exactly one possible (non-`No`) producer and it
/// definitely fires. A contested slot pins nobody.
fn sole_producer(g: &BlockGraph, fire: &[Fire], i: usize, slot: usize) -> Option<usize> {
    let mut candidate: Option<usize> = None;
    for &p in g.producers(i, slot) {
        if fire[p] == Fire::No {
            continue;
        }
        if candidate.is_some() {
            return None;
        }
        candidate = Some(p);
    }
    candidate.filter(|&p| fire[p] == Fire::Yes)
}

/// Computes the per-core issue and per-link NoC interval bounds of one
/// firing vector, counting only work the block cannot commit without:
/// issue slots of [`live_set`] instructions, and operand deliveries
/// into live consumer slots a single producer must feed. Register-read
/// requests, write-back forwarding, and address-interleaved memory
/// traffic are left uncounted — their routes are protocol- or
/// address-dependent.
fn path_intervals(
    block: &Block,
    g: &BlockGraph,
    fire: &[Fire],
    cores: usize,
    rect_w: usize,
) -> (u64, u64) {
    let insts = block.instructions();
    let live = live_set(g, insts, fire);
    let mut total = vec![0u64; cores];
    let mut fp = vec![0u64; cores];
    let mut traffic: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (i, inst) in insts.iter().enumerate() {
        if !live[i] {
            continue;
        }
        let core = i % cores;
        // Reads resolve at the register bank and writes absorb an
        // arriving operand; neither passes the issue stage.
        if inst.opcode != Opcode::Read && inst.opcode != Opcode::Write {
            total[core] += 1;
            if inst.opcode.class() == OpcodeClass::Float {
                fp[core] += 1;
            }
        }
        // Deliveries the commit point waits for: each live consumer
        // slot only one producer can feed.
        for slot in 0..3 {
            let Some(p) = sole_producer(g, fire, i, slot) else {
                continue;
            };
            let from = if insts[p].opcode == Opcode::Read {
                // The value leaves the register bank holding the
                // architectural register, not the read's own slot core.
                match insts[p].reg {
                    Some(r) => r.bank_of(cores),
                    None => continue,
                }
            } else {
                p % cores
            };
            if from == core {
                continue;
            }
            for link in rect_links(from, core, rect_w) {
                *traffic.entry(link).or_insert(0) += 1;
            }
        }
    }
    let mut issue = 0u64;
    for c in 0..cores {
        issue = issue.max(div_ceil_u64(total[c], ISSUE_WIDTH));
        issue = issue.max(div_ceil_u64(fp[c], FP_ISSUE));
    }
    let noc = traffic
        .values()
        .map(|&t| div_ceil_u64(t, LINK_BANDWIDTH))
        .max()
        .unwrap_or(0);
    (issue, noc)
}

/// Computes the static cycle bound of one block at one composition
/// size (the TFlex machine parameters).
///
/// # Panics
///
/// Panics if `cores` is not a legal composition size (a power of two
/// within the 4×8 chip).
#[must_use]
pub fn bound_block(block: &Block, cores: usize) -> BlockBound {
    let mesh = MeshConfig::tflex_operand();
    let (rect_w, _) = region_rect(&mesh, cores).expect("legal composition size");
    let g = BlockGraph::new(block);
    let paths = firing_paths(block, &g);

    // Dispatch is predicate-independent: every instruction of the block
    // is dispatched whether or not it ever fires.
    let mut slice = vec![0u64; cores];
    for i in 0..block.len() {
        slice[i % cores] += 1;
    }
    let dispatch = slice
        .iter()
        .map(|&c| div_ceil_u64(c, DISPATCH_PER_CYCLE))
        .max()
        .unwrap_or(0);

    // The real execution path matches one enumerated assignment, so the
    // min over paths of each path's combined bound is sound.
    let mut best: Option<(u64, PathBounds)> = None;
    for fire in &paths.paths {
        let (height, flat_height) = path_heights(block, &g, fire, cores, rect_w);
        let (issue, noc) = path_intervals(block, &g, fire, cores, rect_w);
        let combined = height.max(issue).max(noc);
        let pb = PathBounds {
            height,
            flat_height,
            issue,
            noc,
        };
        if best.as_ref().is_none_or(|(b, _)| combined < *b) {
            best = Some((combined, pb));
        }
    }
    let (combined, pb) = best.expect("at least one firing path");
    let cycles = combined.max(dispatch).max(1);
    let binding = if pb.height >= cycles {
        Resource::Height
    } else if pb.issue >= cycles {
        Resource::Issue
    } else if pb.noc >= cycles {
        Resource::Noc
    } else {
        Resource::Dispatch
    };
    BlockBound {
        addr: block.address(),
        cores,
        cycles,
        height: pb.height,
        flat_height: pb.flat_height,
        issue: pb.issue,
        noc: pb.noc,
        dispatch,
        binding,
        exhaustive: paths.exhaustive,
    }
}

/// The static control-flow graph the program-level floors are computed
/// over: successors are the statically known exit targets, and blocks
/// with `Return` exits additionally flow to every address-taken block
/// (an over-approximation of where a return can land, which keeps
/// shortest paths and dominators sound).
struct Cfg {
    /// Blocks reachable from the entry, in address order.
    reachable: Vec<BlockAddr>,
    succs: BTreeMap<BlockAddr, Vec<BlockAddr>>,
    /// Reachable blocks with a halt or return exit: every run ends by
    /// committing one of them.
    terminals: Vec<BlockAddr>,
}

fn build_cfg(p: &EdgeProgram) -> Cfg {
    let addrs: BTreeSet<BlockAddr> = p.iter().map(|(&a, _)| a).collect();
    let mut taken: BTreeSet<BlockAddr> = BTreeSet::new();
    for (_, block) in p.iter() {
        for inst in block.instructions() {
            if inst.opcode.has_immediate() && addrs.contains(&(inst.imm as u64)) {
                taken.insert(inst.imm as u64);
            }
        }
    }
    let mut succs: BTreeMap<BlockAddr, Vec<BlockAddr>> = BTreeMap::new();
    for (&a, block) in p.iter() {
        let mut out: Vec<BlockAddr> = Vec::new();
        let mut returns = false;
        for exit in block.exits() {
            match exit.kind {
                BranchKind::Return => returns = true,
                _ => {
                    if let Some(t) = exit.target {
                        if addrs.contains(&t) {
                            out.push(t);
                        }
                    }
                }
            }
        }
        if returns {
            out.extend(taken.iter().copied());
        }
        out.sort_unstable();
        out.dedup();
        succs.insert(a, out);
    }
    let mut reached: BTreeSet<BlockAddr> = BTreeSet::new();
    let mut queue: VecDeque<BlockAddr> = VecDeque::new();
    if addrs.contains(&p.entry()) {
        reached.insert(p.entry());
        queue.push_back(p.entry());
    }
    while let Some(a) = queue.pop_front() {
        for &s in &succs[&a] {
            if reached.insert(s) {
                queue.push_back(s);
            }
        }
    }
    let terminals: Vec<BlockAddr> = reached
        .iter()
        .copied()
        .filter(|&a| {
            p.block(a).is_some_and(|b| {
                b.exits()
                    .iter()
                    .any(|e| matches!(e.kind, BranchKind::Halt | BranchKind::Return))
            })
        })
        .collect();
    Cfg {
        reachable: reached.into_iter().collect(),
        succs,
        terminals,
    }
}

/// Blocks that appear on *every* entry→terminal path (the intersection
/// of the terminals' dominator sets). Whatever terminal a run actually
/// commits, these blocks committed before it.
fn must_commit_blocks(cfg: &Cfg, entry: BlockAddr) -> Vec<BlockAddr> {
    if cfg.terminals.is_empty() || !cfg.reachable.contains(&entry) {
        return vec![entry];
    }
    let all: BTreeSet<BlockAddr> = cfg.reachable.iter().copied().collect();
    let mut preds: BTreeMap<BlockAddr, Vec<BlockAddr>> = BTreeMap::new();
    for &a in &cfg.reachable {
        for &s in &cfg.succs[&a] {
            preds.entry(s).or_default().push(a);
        }
    }
    let mut dom: BTreeMap<BlockAddr, BTreeSet<BlockAddr>> = cfg
        .reachable
        .iter()
        .map(|&a| {
            if a == entry {
                (a, BTreeSet::from([a]))
            } else {
                (a, all.clone())
            }
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &a in &cfg.reachable {
            if a == entry {
                continue;
            }
            let mut new: Option<BTreeSet<BlockAddr>> = None;
            for p in preds.get(&a).into_iter().flatten() {
                new = Some(match new {
                    None => dom[p].clone(),
                    Some(acc) => acc.intersection(&dom[p]).copied().collect(),
                });
            }
            let mut new = new.unwrap_or_default();
            new.insert(a);
            if new != dom[&a] {
                dom.insert(a, new);
                changed = true;
            }
        }
    }
    let mut common: Option<BTreeSet<BlockAddr>> = None;
    for t in &cfg.terminals {
        common = Some(match common {
            None => dom[t].clone(),
            Some(acc) => acc.intersection(&dom[t]).copied().collect(),
        });
    }
    common.unwrap_or_default().into_iter().collect()
}

/// Minimum instructions dispatched on any entry→terminal path
/// (Dijkstra with block length as the node weight).
fn min_path_work(cfg: &Cfg, p: &EdgeProgram, entry: BlockAddr) -> u64 {
    let len = |a: BlockAddr| p.block(a).map_or(0, |b| b.len() as u64);
    let mut dist: BTreeMap<BlockAddr, u64> = BTreeMap::new();
    let mut heap = std::collections::BinaryHeap::new();
    dist.insert(entry, len(entry));
    heap.push(std::cmp::Reverse((len(entry), entry)));
    while let Some(std::cmp::Reverse((d, a))) = heap.pop() {
        if dist.get(&a).is_some_and(|&best| d > best) {
            continue;
        }
        if let Some(ss) = cfg.succs.get(&a) {
            for &s in ss {
                let nd = d + len(s);
                if dist.get(&s).is_none_or(|&best| nd < best) {
                    dist.insert(s, nd);
                    heap.push(std::cmp::Reverse((nd, s)));
                }
            }
        }
    }
    cfg.terminals
        .iter()
        .filter_map(|t| dist.get(t).copied())
        .min()
        .unwrap_or_else(|| len(entry))
}

/// Computes the program-level cycle bound at one composition size,
/// along with every reachable block's bound.
///
/// No [`LintConfig`] field changes the bound; `_cfg` is not read, and
/// stays in the signature because `benchmark/`'s harness calls it so.
///
/// # Panics
///
/// Panics if `cores` is not a legal composition size.
#[must_use]
pub fn bound_program(p: &EdgeProgram, _cfg: &LintConfig, cores: usize) -> ProgramBound {
    let cfg_graph = build_cfg(p);
    let blocks: Vec<BlockBound> = cfg_graph
        .reachable
        .iter()
        .filter_map(|&a| p.block(a).map(|b| bound_block(b, cores)))
        .collect();
    let bound_of = |a: BlockAddr| blocks.iter().find(|b| b.addr == a).map_or(0, |b| b.cycles);
    let must_commit = must_commit_blocks(&cfg_graph, p.entry())
        .iter()
        .map(|&a| bound_of(a))
        .max()
        .unwrap_or(0);
    let terminal = cfg_graph
        .terminals
        .iter()
        .map(|&a| bound_of(a))
        .min()
        .unwrap_or(0);
    let work = min_path_work(&cfg_graph, p, p.entry());
    let work_floor = div_ceil_u64(work, cores as u64 * DISPATCH_PER_CYCLE);
    let cycles = must_commit.max(terminal).max(work_floor).max(1);
    ProgramBound {
        cores,
        cycles,
        must_commit,
        terminal,
        work_floor,
        blocks,
    }
}

/// Runs the L5xx bound lints over a program at
/// [`LintConfig::placement_cores`]: which blocks are issue- or
/// NoC-bound rather than height-bound, and where placement inflates
/// the static critical path past the configured threshold.
#[must_use]
pub fn lint_bounds(p: &EdgeProgram, cfg: &LintConfig) -> Vec<Diagnostic> {
    let n = cfg.placement_cores;
    let pb = bound_program(p, cfg, n);
    let mut diags = Vec::new();
    for b in &pb.blocks {
        if b.binding == Resource::Issue && b.issue > b.height {
            diags.push(
                Diagnostic::new(
                    LintCode::IssueBoundBlock,
                    Span::block(b.addr),
                    format!(
                        "block is issue-bound on a {n}-core composition: \
                         {} cycles of issue pressure vs a {}-cycle dataflow height",
                        b.issue, b.height
                    ),
                )
                .with_note(
                    "the busiest core issues more instructions than its issue \
                     slots cover; a larger composition spreads them"
                        .to_string(),
                ),
            );
        }
        if b.binding == Resource::Noc && b.noc > b.height && b.noc > b.issue {
            diags.push(
                Diagnostic::new(
                    LintCode::NocBoundBlock,
                    Span::block(b.addr),
                    format!(
                        "block is operand-network-bound on a {n}-core composition: \
                         the hottest link carries {} cycles of traffic \
                         (height {}, issue {})",
                        b.noc, b.height, b.issue
                    ),
                )
                .with_note(
                    "operand edges funnel through one mesh link; re-placing \
                     producers or consumers would spread the traffic"
                        .to_string(),
                ),
            );
        }
        let threshold = b.flat_height + b.flat_height * BOUND_INFLATION_PCT / 100;
        if b.flat_height > 0 && b.height > threshold {
            diags.push(
                Diagnostic::new(
                    LintCode::PlacementInflatedPath,
                    Span::block(b.addr),
                    format!(
                        "placement inflates the static critical path from {} to {} \
                         cycles on a {n}-core composition (≥{}% over the \
                         placement-free height)",
                        b.flat_height, b.height, BOUND_INFLATION_PCT
                    ),
                )
                .with_note(
                    "every mesh hop on a critical operand edge adds a cycle per \
                     activation"
                        .to_string(),
                ),
            );
        }
    }
    crate::sorted(diags)
}
