//! clp-prof: top-down cycle accounting and critical-path extraction.
//!
//! The simulator (when profiling is enabled) records, for every committed
//! block, which input *last-arrived* at each firing instruction — the
//! dispatch hand-off, an operand hop chain over the mesh, a register-read
//! round trip, or a memory-system response. Walking those last-arrival
//! edges backward from the commit handshake yields the block's critical
//! path; clipping each walk at the previous block's commit ("commit-pull"
//! accounting) tiles the whole run, so the per-[`Bucket`] totals sum
//! *exactly* to the cycles between composition and halt.
//!
//! This module holds the passive data model — the bucket taxonomy and the
//! accumulated [`ProfileReport`] — plus its renderings (stats-registry
//! node, pinned JSON schema, human-readable tables). The edge recording
//! and the backward walk themselves live in `clp-sim`, which owns the
//! microarchitectural state the walk consumes.

use crate::snapshot::StatsNode;
use serde_json::{json, ToValue, Value};
use std::collections::BTreeMap;

/// Number of cycle-accounting buckets (the length of [`Bucket::ALL`]).
pub(crate) const NUM_BUCKETS: usize = 14;

/// Where a cycle went, per the last-arrival attribution rule.
///
/// Every cycle of a profiled run lands in exactly one bucket. The first
/// group covers getting a block's instructions into the window, the
/// second covers executing them, and the third covers retiring the block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    /// Block fetch machinery: next-block prediction, I-cache access,
    /// fetch-command distribution, and instruction dispatch up to the
    /// critical instruction entering the window.
    Fetch,
    /// Owner-to-owner fetch hand-off in flight on the control mesh.
    HandOff,
    /// Redirect gap after a next-block misprediction (wrong-path cycles
    /// plus the refetch of the correct target).
    Mispredict,
    /// Refetch gaps after a load/store ordering violation, speculative
    /// resource overflow, or hard-fault recovery flush.
    Squash,
    /// A ready instruction waiting for an issue slot (issue-width
    /// contention on its core).
    IssueWait,
    /// ALU/FPU occupancy of the critical producer.
    Execute,
    /// Same-core operand bypass latency.
    OperandLocal,
    /// Operand mesh transit of the critical operand: hop latency plus
    /// link contention.
    OperandNoc,
    /// Register-read round trip at the owning bank, including waiting
    /// for a cross-block writer to forward the value.
    RegWait,
    /// Memory-system service of the critical load: LSQ search, cache
    /// access, DRAM, NACK retries, and conservative-load deferral.
    MemWait,
    /// Exit-branch resolution traveling from the issuing core to the
    /// block owner.
    Resolve,
    /// Store and register-write acknowledgments draining after the last
    /// dataflow firing, gating block completion.
    OutputDrain,
    /// Completion gates met but the block could not start committing
    /// (not yet the oldest block, or event-queue slack).
    CommitWait,
    /// The distributed commit handshake and architectural update.
    Commit,
}

impl Bucket {
    /// Every bucket, in canonical (rendering) order.
    pub const ALL: [Bucket; NUM_BUCKETS] = [
        Bucket::Fetch,
        Bucket::HandOff,
        Bucket::Mispredict,
        Bucket::Squash,
        Bucket::IssueWait,
        Bucket::Execute,
        Bucket::OperandLocal,
        Bucket::OperandNoc,
        Bucket::RegWait,
        Bucket::MemWait,
        Bucket::Resolve,
        Bucket::OutputDrain,
        Bucket::CommitWait,
        Bucket::Commit,
    ];

    /// Stable snake_case label (JSON keys, stats-registry metric names).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Fetch => "fetch",
            Bucket::HandOff => "hand_off",
            Bucket::Mispredict => "mispredict",
            Bucket::Squash => "squash",
            Bucket::IssueWait => "issue_wait",
            Bucket::Execute => "execute",
            Bucket::OperandLocal => "operand_local",
            Bucket::OperandNoc => "operand_noc",
            Bucket::RegWait => "reg_wait",
            Bucket::MemWait => "mem_wait",
            Bucket::Resolve => "resolve",
            Bucket::OutputDrain => "output_drain",
            Bucket::CommitWait => "commit_wait",
            Bucket::Commit => "commit",
        }
    }

    /// The bucket's index into a [`BucketCycles`] array (canonical order).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Cycles accumulated per [`Bucket`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketCycles(pub [u64; NUM_BUCKETS]);

impl BucketCycles {
    /// Charges `cycles` to `bucket`.
    pub fn add(&mut self, bucket: Bucket, cycles: u64) {
        self.0[bucket.index()] += cycles;
    }

    /// Cycles charged to `bucket`.
    #[must_use]
    pub fn get(&self, bucket: Bucket) -> u64 {
        self.0[bucket.index()]
    }

    /// Sum over all buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Adds another accumulation into this one, bucket by bucket.
    pub fn merge(&mut self, other: &BucketCycles) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// `(bucket, cycles)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Bucket, u64)> + '_ {
        Bucket::ALL.iter().map(move |&b| (b, self.get(b)))
    }

    /// The book as a stats-registry node: one count per bucket.
    #[must_use]
    pub fn to_node(&self, name: &str) -> StatsNode {
        let node = StatsNode::new(name);
        self.iter().fold(node, |n, (b, c)| n.count(b.label(), c))
    }

    /// The bucket / cycles / share table: a header and one row per
    /// non-empty bucket, shares being of [`BucketCycles::total`].
    #[must_use]
    pub(crate) fn render_table(&self) -> String {
        let total = self.total().max(1);
        let mut out = format!("{:<14} {:>12} {:>7}\n", "bucket", "cycles", "share");
        for (b, c) in self.iter().filter(|&(_, c)| c > 0) {
            let share = 100.0 * c as f64 / total as f64;
            out.push_str(&format!("{:<14} {c:>12} {share:>6.1}%\n", b.label()));
        }
        out
    }

    /// The three largest buckets as `label pct%, ..` (whole percents of
    /// the total; canonical order breaks ties).
    #[must_use]
    pub(crate) fn render_top3(&self) -> String {
        let mut ranked: Vec<(Bucket, u64)> = self.iter().filter(|&(_, c)| c > 0).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        let total = self.total().max(1);
        let top = ranked.iter().take(3);
        let top: Vec<String> = top
            .map(|(b, c)| format!("{} {}%", b.label(), c * 100 / total))
            .collect();
        top.join(", ")
    }
}

/// A JSON object with one entry per bucket label, in canonical order.
pub(crate) fn by_bucket<T: ToValue>(value: impl Fn(Bucket) -> T) -> Value {
    let entry = |&b: &Bucket| (b.label().to_string(), value(b).to_value());
    Value::Object(Bucket::ALL.iter().map(entry).collect())
}

/// The one JSON spelling of a bucket book: `{"fetch": n, ..}`.
impl ToValue for BucketCycles {
    fn to_value(&self) -> Value {
        by_bucket(|b| self.get(b))
    }
}

/// Span observations for one block address: how often it committed and
/// the shortest fetch-to-commit span any commit achieved.
///
/// The *minimum* is the figure of merit: clp-bound's static per-block
/// lower bound must hold for every execution, so the soundness gate
/// compares it against the best span the simulator ever measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockSpanStat {
    /// Block address.
    pub addr: u64,
    /// Commits observed for this block.
    pub commits: u64,
    /// Minimum fetch-to-commit span over those commits, in cycles.
    pub min_cycles: u64,
}

/// One logical processor's profile: per-block tilings summed over every
/// committed block, plus the whole-run critical path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcProfile {
    /// Committed blocks profiled.
    pub blocks: u64,
    /// Sum of every block's fetch-to-commit span in cycles.
    pub block_cycles: u64,
    /// Per-block top-down buckets summed over blocks. Invariant:
    /// `block_buckets.total() == block_cycles` (each block tiles its own
    /// span exactly).
    pub block_buckets: BucketCycles,
    /// Whole-run commit-pull accounting. Invariant:
    /// `run_buckets.total() == crit_path_cycles`.
    pub run_buckets: BucketCycles,
    /// Length of the whole-run critical path in cycles (composition to
    /// final commit); never exceeds the machine's elapsed cycles.
    pub crit_path_cycles: u64,
    /// Last-arrival dependence edges walked on the run-level path.
    pub crit_path_edges: u64,
    /// Longest single-block backward chain, in edges.
    pub longest_chain: u64,
    /// Critical loads served by a store forward out of the LSQ.
    pub crit_loads_forwarded: u64,
    /// Critical loads served by an L1 D-cache hit.
    pub crit_loads_l1: u64,
    /// Critical loads that missed L1 (served by L2 or DRAM).
    pub crit_loads_missed: u64,
    /// Per-block span observations, sorted by block address.
    pub block_spans: Vec<BlockSpanStat>,
}

impl ProcProfile {
    /// Folds one committed block's fetch-to-commit span into the
    /// per-address span table.
    pub fn record_span(&mut self, addr: u64, span: u64) {
        match self.block_spans.binary_search_by_key(&addr, |s| s.addr) {
            Ok(i) => {
                let s = &mut self.block_spans[i];
                s.commits += 1;
                s.min_cycles = s.min_cycles.min(span);
            }
            Err(i) => self.block_spans.insert(
                i,
                BlockSpanStat {
                    addr,
                    commits: 1,
                    min_cycles: span,
                },
            ),
        }
    }

    /// Renders this processor's profile as a stats-registry node.
    #[must_use]
    pub fn to_node(&self, name: &str) -> StatsNode {
        StatsNode::new(name)
            .count("blocks", self.blocks)
            .count("block_cycles", self.block_cycles)
            .count("crit_path_cycles", self.crit_path_cycles)
            .count("crit_path_edges", self.crit_path_edges)
            .count("longest_chain", self.longest_chain)
            .count("crit_loads_forwarded", self.crit_loads_forwarded)
            .count("crit_loads_l1", self.crit_loads_l1)
            .count("crit_loads_missed", self.crit_loads_missed)
            .child(self.run_buckets.to_node("buckets"))
            .child(self.block_buckets.to_node("block_buckets"))
    }

    fn to_json(&self) -> Value {
        let spans = self.block_spans.iter();
        let spans: Vec<Value> = spans
            .map(
                |s| json!({"addr": (s.addr), "commits": (s.commits), "min_cycles": (s.min_cycles)}),
            )
            .collect();
        json!({
            "blocks": (self.blocks),
            "block_cycles": (self.block_cycles),
            "crit_path_cycles": (self.crit_path_cycles),
            "crit_path_edges": (self.crit_path_edges),
            "longest_chain": (self.longest_chain),
            "crit_loads": {
                "forwarded": (self.crit_loads_forwarded),
                "l1_hit": (self.crit_loads_l1),
                "missed": (self.crit_loads_missed)
            },
            "run_buckets": (self.run_buckets),
            "block_buckets": (self.block_buckets),
            "block_spans": spans
        })
    }
}

/// The complete profile of one run: per-processor accounting plus the
/// per-core and per-mesh-link contribution maps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// One profile per logical processor, in processor-id order.
    pub procs: Vec<ProcProfile>,
    /// Critical-path cycles attributed to each global core (consumer
    /// core for operand/issue segments, bank core for register/memory
    /// segments, owner core for fetch/commit segments).
    pub core_cycles: Vec<u64>,
    /// Critical-path cycles attributed to each directed operand-mesh
    /// link `(from_node, to_node)`, sorted by link.
    pub link_cycles: Vec<((usize, usize), u64)>,
    /// Operand-mesh width (for heatmap rendering).
    pub mesh_width: usize,
    /// Operand-mesh height (for heatmap rendering).
    pub mesh_height: usize,
    /// Total machine cycles the run took.
    pub elapsed: u64,
}

impl ProfileReport {
    /// The run-level buckets summed over every logical processor.
    #[must_use]
    pub fn run_buckets(&self) -> BucketCycles {
        let mut total = BucketCycles::default();
        for p in &self.procs {
            total.merge(&p.run_buckets);
        }
        total
    }

    /// Per-address span observations merged across processors: commit
    /// counts sum, minimum spans take the min. This is the measured side
    /// of the clp-bound soundness check.
    #[must_use]
    pub fn block_spans(&self) -> BTreeMap<u64, BlockSpanStat> {
        let mut merged: BTreeMap<u64, BlockSpanStat> = BTreeMap::new();
        for p in &self.procs {
            for s in &p.block_spans {
                merged
                    .entry(s.addr)
                    .and_modify(|m| {
                        m.commits += s.commits;
                        m.min_cycles = m.min_cycles.min(s.min_cycles);
                    })
                    .or_insert(*s);
            }
        }
        merged
    }

    /// Whole-run critical-path length (max over processors — independent
    /// logical processors run concurrently).
    #[must_use]
    pub fn crit_path_cycles(&self) -> u64 {
        self.procs
            .iter()
            .map(|p| p.crit_path_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Renders the report as a stats-registry node named `"profile"`.
    #[must_use]
    pub fn to_node(&self) -> StatsNode {
        let mut node = StatsNode::new("profile")
            .count("elapsed", self.elapsed)
            .count("crit_path_cycles", self.crit_path_cycles())
            .child(self.run_buckets().to_node("buckets"));
        for (i, p) in self.procs.iter().enumerate() {
            node = node.child(p.to_node(&format!("proc{i}")));
        }
        node
    }

    /// The report under the pinned `clp-prof-v1` JSON schema.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let procs: Vec<Value> = self.procs.iter().map(ProcProfile::to_json).collect();
        let links = self.link_cycles.iter();
        let links: Vec<Value> = links
            .map(|&((from, to), cycles)| json!({"from": from, "to": to, "cycles": cycles}))
            .collect();
        json!({
            "schema": "clp-prof-v1",
            "elapsed": (self.elapsed),
            "mesh": {"width": (self.mesh_width), "height": (self.mesh_height)},
            "procs": procs,
            "cores": (self.core_cycles),
            "links": links
        })
    }

    /// A per-bucket breakdown table: one row per bucket with cycles and
    /// the share of the run-level critical path.
    #[must_use]
    pub fn render_breakdown(&self) -> String {
        let buckets = self.run_buckets();
        let mut out = buckets.render_table();
        out.push_str(&format!(
            "{:<14} {:>12} {:>6.1}%\n",
            "total",
            buckets.total(),
            100.0
        ));
        out
    }

    /// A mesh-shaped heatmap of per-core critical-cycle contributions
    /// (one row per mesh row; `.` marks cores that never appeared on the
    /// critical path).
    #[must_use]
    pub fn render_core_heatmap(&self) -> String {
        let mut out = String::new();
        for y in 0..self.mesh_height {
            for x in 0..self.mesh_width {
                let core = y * self.mesh_width + x;
                let c = self.core_cycles.get(core).copied().unwrap_or(0);
                if c == 0 {
                    out.push_str(&format!("{:>9}", "."));
                } else {
                    out.push_str(&format!("{c:>9}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// The `top_n` hottest directed mesh links, one per line.
    #[must_use]
    pub fn render_links(&self, top_n: usize) -> String {
        let mut links = self.link_cycles.clone();
        links.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = String::new();
        for &((from, to), cycles) in links.iter().take(top_n) {
            out.push_str(&format!("  link {from:>2} -> {to:>2}: {cycles} cycles\n"));
        }
        if links.is_empty() {
            out.push_str("  (no operand-mesh segments on the critical path)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_match_canonical_order() {
        for (i, b) in Bucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        // Labels are unique.
        let mut labels: Vec<_> = Bucket::ALL.iter().map(|b| b.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NUM_BUCKETS);
    }

    #[test]
    fn bucket_cycles_accumulate_and_merge() {
        let mut a = BucketCycles::default();
        a.add(Bucket::Fetch, 5);
        a.add(Bucket::Execute, 7);
        assert_eq!(a.get(Bucket::Fetch), 5);
        assert_eq!(a.total(), 12);
        let mut b = BucketCycles::default();
        b.add(Bucket::Fetch, 1);
        b.merge(&a);
        assert_eq!(b.get(Bucket::Fetch), 6);
        assert_eq!(b.total(), 13);
    }

    #[test]
    fn report_renders_and_serializes() {
        let mut p = ProcProfile {
            blocks: 2,
            block_cycles: 100,
            crit_path_cycles: 90,
            crit_path_edges: 12,
            longest_chain: 5,
            ..ProcProfile::default()
        };
        p.block_buckets.add(Bucket::Fetch, 40);
        p.block_buckets.add(Bucket::Execute, 60);
        p.run_buckets.add(Bucket::Fetch, 30);
        p.run_buckets.add(Bucket::Execute, 60);
        let report = ProfileReport {
            procs: vec![p],
            core_cycles: vec![50, 0, 40],
            link_cycles: vec![((0, 1), 9), ((1, 2), 3)],
            mesh_width: 2,
            mesh_height: 2,
            elapsed: 120,
        };
        assert_eq!(report.run_buckets().total(), 90);
        assert_eq!(report.crit_path_cycles(), 90);
        let node = report.to_node();
        assert_eq!(node.name, "profile");
        let table = report.render_breakdown();
        assert!(table.contains("fetch"));
        assert!(table.contains("execute"));
        let heat = report.render_core_heatmap();
        assert_eq!(heat.lines().count(), 2);
        let links = report.render_links(1);
        assert!(links.contains("0 ->  1"));
        let json = report.to_json_value();
        let text = serde_json::to_string(&json).unwrap();
        assert!(text.contains("clp-prof-v1"));
    }
}
