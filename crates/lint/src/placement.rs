//! Placement-cost lints: operand routes and fanout trees that are
//! expensive on the composed mesh.
//!
//! In an `n`-core composition, instruction `i` lives on core
//! `i mod n` (the low bits of the instruction ID select the core), and
//! cores form a rectangle on the operand mesh
//! ([`clp_noc::region_rect`]). Every dataflow target is a hop-by-hop
//! operand-network message, so:
//!
//! - a producer→consumer pair whose cores are more than
//!   [`MAX_ROUTE_HOPS`] apart adds that many cycles to the
//!   critical path on *every* activation
//!   ([`LintCode::LongOperandRoute`]);
//! - a `mov` fanout tree deeper than
//!   [`MAX_FANOUT_DEPTH`] serializes its leaves behind a
//!   chain of single-cycle copies ([`LintCode::DeepFanoutTree`]).

use crate::graph::BlockGraph;
use crate::{Diagnostic, LintCode, LintConfig, Span};
use clp_isa::{Block, Opcode, MAX_BLOCK_INSTRUCTIONS};
use clp_noc::{rect_hops, region_rect, MeshConfig};

/// Mesh hop distance above which an operand route is flagged.
const MAX_ROUTE_HOPS: u32 = 6;
/// Mov-tree depth above which a fanout tree is flagged.
const MAX_FANOUT_DEPTH: u32 = 4;

/// Runs the placement-cost analysis on one block, adding its findings to
/// `diags`.
pub(crate) fn analyze(
    block: &Block,
    g: &BlockGraph,
    cfg: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    let insts = block.instructions();
    let addr = block.address();

    let mesh = MeshConfig::tflex_operand();
    if let Ok((rect_w, _)) = region_rect(&mesh, cfg.placement_cores) {
        let n = cfg.placement_cores;
        for (i, inst) in insts.iter().enumerate() {
            // `n` is a power of two (`region_rect` takes no other size),
            // so `& (n - 1)` is `% n`: a target on the producer's own
            // core is zero hops away.
            let core = |i: usize| i & (n - 1);
            let remote = inst.targets().filter(|t| core(i ^ t.inst.index()) != 0);
            for t in remote {
                let hops = rect_hops(core(i), core(t.inst.index()), rect_w) as u32;
                if hops > MAX_ROUTE_HOPS {
                    diags.push(
                        Diagnostic::new(
                            LintCode::LongOperandRoute,
                            Span::inst(addr, i),
                            format!(
                                "operand route i{i} -> i{} crosses {hops} mesh hops \
                                 on a {n}-core composition (limit {MAX_ROUTE_HOPS})",
                                t.inst.index(),
                            ),
                        )
                        .with_note("each hop adds an operand-network cycle on every activation"),
                    );
                }
            }
        }
    }

    // Depth of the mov chain ending at each mov: one more than the
    // deepest mov feeding its value operand. Producers precede
    // consumers in topological order, so one forward pass suffices.
    let mut depth = [0u32; MAX_BLOCK_INSTRUCTIONS];
    let mut deepest: Option<(usize, u32)> = None;
    for &i in &g.topo {
        if insts[i].opcode != Opcode::Mov {
            continue;
        }
        let feed = g
            .producers(i, 0)
            .iter()
            .map(|&p| depth[p])
            .max()
            .unwrap_or(0);
        depth[i] = feed + 1;
        if deepest.is_none_or(|(_, best)| depth[i] > best) {
            deepest = Some((i, depth[i]));
        }
    }
    if let Some((i, d)) = deepest {
        if d > MAX_FANOUT_DEPTH {
            diags.push(
                Diagnostic::new(
                    LintCode::DeepFanoutTree,
                    Span::inst(addr, i),
                    format!("mov fanout tree is {d} levels deep (limit {MAX_FANOUT_DEPTH})"),
                )
                .with_note("every level delays the leaf consumers by at least a cycle"),
            );
        }
    }
}
