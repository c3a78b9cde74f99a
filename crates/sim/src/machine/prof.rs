//! clp-prof and clp-trend glue: last-arrival provenance, the backward
//! critical-path walk at commit, and the trend recorder's inputs. A
//! trend sample hands the recorder values: the instruction count, the
//! profiler's books (a trend turns clp-prof on), and a value per
//! `TrendOptions::paths` entry — the stats tree those are looked up in
//! is built only when there are any.
//!
//! Provenance ([`Prov`], [`FetchReason`]) is written on every path — a
//! cheap `Copy` riding existing messages — but never read by any
//! scheduling decision; everything else here runs only with an observer
//! enabled, so unobserved runs stay bit-identical.
//!
//! Recording costs what it observes. A profiled block carries one
//! [`BlkProf`] inline, whose only allocation is its per-instruction
//! [`InstProf`] records: one per fetched block. A commit's walk charges
//! the block-level book as it cuts and keeps only what the run-level
//! book takes in [`ProfAcc`]'s one segment buffer; operand-network
//! stalls are spread along clp-noc's route without building it, into a
//! dense `nodes × nodes` link table. Nothing on the commit path
//! allocates once the buffer has grown.

use super::state::{Blk, Proc};
use super::Machine;
use clp_noc::{MeshConfig, NodeId};
use clp_obs::{
    Bucket, BucketCycles, MetricValue, ProcProfile, ProfileReport, TraceEvent, Tracer,
    TrendOptions, TrendRecorder, TrendReport,
};

/// A trend sample's inputs: one value per path, the dispatched
/// instruction count, and the profiler's run-level buckets and per-core
/// cycles.
type TrendInputs<'a> = (
    Vec<Option<MetricValue>>,
    u64,
    Option<(BucketCycles, &'a [u64])>,
);

/// Why a pending fetch exists. Recorded unconditionally (one byte per
/// fetch) and read only by the profiler, which maps the idle gap before
/// the block's fetch to a top-down bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) enum FetchReason {
    /// Program entry (first fetch after compose).
    #[default]
    Entry,
    /// Speculative owner-to-owner hand-off on the predicted chain.
    HandOff,
    /// Redirect after a next-block misprediction.
    Redirect,
    /// Refetch after a violation or overflow squash.
    Refetch,
    /// Non-speculative sequencing (single-block windows).
    Sequential,
    /// Resume after hard-fault recovery.
    Resume,
}

/// What kind of producer a last-arrival provenance edge points at.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) enum ProvKind {
    /// The instruction's own dispatch was the last arrival (all operands
    /// beat it into the window, or it has none).
    #[default]
    Dispatch,
    /// A dataflow producer (ALU/FPU result or null token).
    Exec,
    /// A register-read round trip at the owning bank.
    RegRead,
    /// A memory-system load reply.
    Load,
}

/// Last-arrival provenance carried alongside operand-class messages:
/// which instruction produced the value, where it departed from, when
/// the producer started (`origin`) and when the value left (`sent`).
///
/// Packed to 4-byte alignment: 20 bytes of content would otherwise
/// round up to 24, the four that put `OpMsg` and `Ev` over their size
/// bounds. Fields are only ever read and written by value.
#[derive(Clone, Copy, Debug, Default)]
#[repr(Rust, packed(4))]
pub(super) struct Prov {
    pub(super) kind: ProvKind,
    /// Producer instruction id within the block.
    pub(super) inst: u8,
    /// Global core the value departed from (bank core for reads/loads).
    pub(super) from: u8,
    /// Cycle the producer started (issue / read dispatch / load issue).
    pub(super) origin: u64,
    /// Cycle the value left the producer and routing began.
    pub(super) sent: u64,
    /// Load service class (0 = store forward, 1 = L1 hit, 2 = miss).
    pub(super) aux: u8,
}

impl Prov {
    fn new(kind: ProvKind, inst: u8, from: usize, origin: u64, sent: u64) -> Prov {
        Prov {
            kind,
            inst,
            from: from as u8,
            origin,
            sent,
            aux: 0,
        }
    }

    /// The instruction's own dispatch at `now`.
    pub(super) fn dispatch(now: u64) -> Prov {
        Prov::new(ProvKind::Dispatch, 0, 0, now, now)
    }

    /// A value `inst` produced on core `from`.
    pub(super) fn exec(inst: u8, from: usize, origin: u64, sent: u64) -> Prov {
        Prov::new(ProvKind::Exec, inst, from, origin, sent)
    }

    /// A register read for `inst`, at or from bank core `from`.
    pub(super) fn reg_read(inst: u8, from: usize, origin: u64, sent: u64) -> Prov {
        Prov::new(ProvKind::RegRead, inst, from, origin, sent)
    }

    /// A memory request or reply for `inst`, at or from core `from`;
    /// `served` is the load service class.
    pub(super) fn load(inst: u8, from: usize, origin: u64, sent: u64, served: u8) -> Prov {
        Prov {
            aux: served,
            ..Prov::new(ProvKind::Load, inst, from, origin, sent)
        }
    }
}

/// What the profiler keeps of one instruction.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct InstProf {
    /// Cycle the last input arrived (became ready).
    pub(super) ready: u64,
    /// Issue (fire) cycle.
    pub(super) issue: u64,
    /// The last-arrival edge that made it ready.
    pub(super) edge: Prov,
}

/// Per-block profiling state, held inline in the block; only its
/// per-instruction records are allocated, once per fetched block, and
/// only when profiling is enabled.
#[derive(Debug)]
pub(super) struct BlkProf {
    reason: FetchReason,
    /// Per instruction, by id.
    pub(super) insts: Vec<InstProf>,
    /// Cycle the exit branch resolved at the owner.
    pub(super) t_resolved: u64,
    /// Provenance of the exit branch message.
    pub(super) bro_prov: Prov,
    /// Cycle the last output acknowledgment reached the owner.
    pub(super) t_last_output: u64,
    /// Provenance of that last output.
    pub(super) out_prov: Prov,
    /// Cycle the commit handshake started.
    pub(super) t_commit_start: u64,
}

impl BlkProf {
    pub(super) fn new(nops: usize, reason: FetchReason) -> Self {
        BlkProf {
            reason,
            insts: vec![InstProf::default(); nops],
            t_resolved: 0,
            bro_prov: Prov::default(),
            t_last_output: 0,
            out_prov: Prov::default(),
            t_commit_start: 0,
        }
    }
}

/// `[start, end)` charged to a bucket on a core, and for operand-network
/// transport the `(from, to)` cores of the trip.
type Seg = (u64, u64, Bucket, usize, Option<(usize, usize)>);

/// Cuts a span backward: each cut takes `[max(t0, min(start, cursor)),
/// cursor)` and lowers the cursor, so the segments tile `[t0, t_end)`
/// exactly regardless of timestamp noise. Every segment is charged to
/// the block-level book at once; the part of it after `clip` is kept in
/// `segs` for the run-level book.
struct Cutter<'a> {
    t0: u64,
    cursor: u64,
    clip: u64,
    block: &'a mut BucketCycles,
    segs: &'a mut Vec<Seg>,
}

impl Cutter<'_> {
    fn cut(&mut self, start: u64, bucket: Bucket, core: usize, link: Option<(usize, usize)>) {
        let s = start.clamp(self.t0, self.cursor);
        self.block.add(bucket, self.cursor - s);
        if s < self.cursor && self.clip < self.cursor {
            self.segs
                .push((s.max(self.clip), self.cursor, bucket, core, link));
        }
        self.cursor = s;
    }

    /// The trip of edge `e`'s value to the consumer's core `here`.
    fn operand_leg(&mut self, e: &Prov, here: usize) {
        let from = usize::from(e.from);
        if from == here {
            self.cut(e.sent, Bucket::OperandLocal, here, None);
        } else {
            self.cut(e.sent, Bucket::OperandNoc, here, Some((from, here)));
        }
    }
}

/// Tiles a committed block's `[t_init, t_end)` span with bucketed
/// segments by walking last-arrival edges backward from the commit
/// handshake: `block` is charged the whole tiling, and `segs` (cleared
/// first) receives its part after `clip`, latest first. Returns the
/// number of edges walked and the critical loads by service class.
fn critical_path(
    b: &Blk,
    pr: &BlkProf,
    t_end: u64,
    clip: u64,
    block: &mut BucketCycles,
    segs: &mut Vec<Seg>,
) -> (u64, [u64; 3]) {
    let owner = b.owner;
    let t0 = b.t_init.min(t_end);
    segs.clear();
    let mut cutter = Cutter {
        t0,
        cursor: t_end,
        clip,
        block,
        segs,
    };
    cutter.cut(pr.t_commit_start, Bucket::Commit, owner, None);

    // Which event gated commit? Ties break toward the later stage
    // (output drain >= branch resolution >= dispatch).
    let (g_out, g_res, g_disp) = (pr.t_last_output, pr.t_resolved, b.slices.t_done());
    let chain_from = if g_out >= g_res && g_out >= g_disp {
        cutter.cut(g_out, Bucket::CommitWait, owner, None);
        cutter.cut(pr.out_prov.origin, Bucket::OutputDrain, owner, None);
        Some(pr.out_prov)
    } else if g_res >= g_disp {
        cutter.cut(g_res, Bucket::CommitWait, owner, None);
        cutter.cut(pr.bro_prov.origin, Bucket::Resolve, owner, None);
        Some(pr.bro_prov)
    } else {
        cutter.cut(g_disp, Bucket::CommitWait, owner, None);
        None
    };

    // Walk the last-arrival chain backward through the dataflow graph.
    let mut edges = 0u64;
    let mut load_class = [0u64; 3];
    if let Some(head) = chain_from {
        let mut i = usize::from(head.inst);
        for _ in 0..(4 * pr.insts.len().max(1)) {
            let Some(ip) = pr.insts.get(i) else {
                break;
            };
            if cutter.cursor <= t0 {
                break;
            }
            edges += 1;
            // Where dispatch placed the consumer.
            let here = usize::from(b.tmpl.dec[i].home);
            cutter.cut(ip.ready, Bucket::IssueWait, here, None);
            let e = ip.edge;
            let producer = match e.kind {
                ProvKind::Dispatch => break,
                ProvKind::Exec => Bucket::Execute,
                ProvKind::Load => {
                    load_class[usize::from(e.aux).min(2)] += 1;
                    Bucket::MemWait
                }
                ProvKind::RegRead => Bucket::RegWait,
            };
            cutter.operand_leg(&e, here);
            cutter.cut(e.origin, producer, usize::from(e.from), None);
            if e.kind == ProvKind::RegRead {
                break;
            }
            // Continue through the producer's own (a load's address)
            // operands.
            i = usize::from(e.inst);
        }
    }
    // Whatever remains below the walk is block fetch/dispatch work.
    cutter.cut(t0, Bucket::Fetch, owner, None);
    (edges, load_class)
}

/// Machine-level profile accumulator (behind `Machine::enable_profiling`).
pub(super) struct ProfAcc {
    per_proc: Vec<ProcProfile>,
    core_cycles: Vec<u64>,
    /// Critical operand-network cycles per directed link, dense: entry
    /// `from * nodes + to` of the chip's `nodes × nodes` table.
    link_cycles: Vec<u64>,
    /// Per proc: end cycle of the previously committed block — the clip
    /// point of the commit-pull accounting.
    last_commit_end: Vec<u64>,
    /// The committing block's segments after `last_commit_end`: one
    /// buffer, cut into again at every commit.
    segs: Vec<Seg>,
}

impl ProfAcc {
    /// Attributes every cycle of a committed block's fetch-to-commit
    /// span to a top-down bucket. Two books are kept:
    /// * **block-level** — the full `[t_init, t_end)` span, tiled exactly
    ///   by the segments the backward walk cuts (buckets sum to the span);
    /// * **run-level** — the same segments clipped at the previous commit
    ///   end, so overlapped blocks are not double-counted and per-proc run
    ///   totals sum to the final commit cycle.
    pub(super) fn commit(
        &mut self,
        p: &Proc,
        b: &Blk,
        t_end: u64,
        mesh: MeshConfig,
        tracer: &Tracer,
    ) {
        let Some(pr) = &b.prof else {
            return;
        };
        let (pi, t0) = (p.id, b.t_init.min(t_end));
        if self.per_proc.len() <= pi {
            self.per_proc.resize_with(pi + 1, ProcProfile::default);
            self.last_commit_end.resize(pi + 1, 0);
        }
        let lc = self.last_commit_end[pi];
        let pp = &mut self.per_proc[pi];

        // Block-level book: the unclipped span, its buckets charged by
        // the walk.
        let walk = critical_path(b, pr, t_end, lc, &mut pp.block_buckets, &mut self.segs);
        let (edges, load_class) = walk;
        pp.blocks += 1;
        pp.block_cycles += t_end - t0;
        pp.record_span(b.addr, t_end - t0);
        pp.crit_path_edges += edges;
        pp.longest_chain = pp.longest_chain.max(edges);
        pp.crit_loads_forwarded += load_class[0];
        pp.crit_loads_l1 += load_class[1];
        pp.crit_loads_missed += load_class[2];

        // Run-level book: commit-pull accounting. The gap between the
        // previous commit end and this block's init is charged to the
        // reason this block was fetched; the walk kept its segments
        // clipped at `lc`.
        if t0 > lc {
            let gap_bucket = match pr.reason {
                FetchReason::Entry | FetchReason::Sequential => Bucket::Fetch,
                FetchReason::HandOff => Bucket::HandOff,
                FetchReason::Redirect => Bucket::Mispredict,
                FetchReason::Refetch | FetchReason::Resume => Bucket::Squash,
            };
            pp.run_buckets.add(gap_bucket, t0 - lc);
            self.core_cycles[b.owner] += t0 - lc;
        }
        for &(s, e, bucket, core, link) in &self.segs {
            let d = e - s;
            pp.run_buckets.add(bucket, d);
            self.core_cycles[core] += d;
            let Some((from, to)) = link else {
                continue;
            };
            // Spread the stall across the dimension-order route, the
            // first `d % hops` links taking one cycle more.
            let (from, to) = (NodeId(from), NodeId(to));
            let hops = mesh.hops(from, to) as u64;
            if let Some(share) = d.checked_div(hops) {
                let extra = d % hops;
                for (k, (x, y)) in (0..).zip(mesh.route_links(from, to)) {
                    self.link_cycles[x.0 * mesh.nodes() + y.0] += share + u64::from(k < extra);
                }
            }
        }
        pp.crit_path_cycles += t_end.saturating_sub(lc);
        self.last_commit_end[pi] = t_end;
        let buckets = pp.run_buckets.0;
        tracer.emit(t_end, || TraceEvent::ProfileBuckets { proc: pi, buckets });
    }
}

impl Machine {
    /// Enables clp-prof cycle accounting: every committed block records
    /// last-arrival provenance, is walked backward from its commit
    /// handshake, and charges its cycles to the top-down buckets exposed
    /// by [`Machine::profile_report`]. Call before [`Machine::run`].
    ///
    /// Profiling is observational: it never changes scheduling, so cycle
    /// counts match unprofiled runs exactly.
    pub fn enable_profiling(&mut self) {
        let nodes = self.fab.cfg.chip_cores();
        self.fab.prof = Some(Box::new(ProfAcc {
            per_proc: Vec::new(),
            core_cycles: vec![0; nodes],
            link_cycles: vec![0; nodes * nodes],
            last_commit_end: Vec::new(),
            segs: Vec::new(),
        }));
    }

    /// The accumulated cycle-accounting report, or `None` when profiling
    /// is disabled. Meaningful once the run has committed blocks; the
    /// `elapsed` field reflects the current cycle.
    #[must_use]
    pub fn profile_report(&self) -> Option<ProfileReport> {
        let acc = self.fab.prof.as_deref()?;
        let nodes = self.fab.cfg.chip_cores();
        let links = (0..nodes).flat_map(|from| (0..nodes).map(move |to| (from, to)));
        Some(ProfileReport {
            procs: acc.per_proc.clone(),
            core_cycles: acc.core_cycles.clone(),
            // Row-major is ascending `(from, to)` order.
            link_cycles: links
                .zip(acc.link_cycles.iter().copied())
                .filter(|&(_, c)| c > 0)
                .collect(),
            mesh_width: self.fab.cfg.operand_net.width,
            mesh_height: self.fab.cfg.operand_net.height,
            elapsed: self.fab.now,
        })
    }

    /// Enables clp-trend columnar time-series recording: one sample per
    /// `opts.period` cycles over the selected stats paths plus the
    /// cycle-accounting buckets and the per-core heat rows, for which it
    /// turns clp-prof on (if [`Machine::enable_profiling`] has not).
    /// Call before [`Machine::run`]; collect with
    /// [`Machine::take_trend_report`].
    ///
    /// Recording is observational — samples are written on due cycles
    /// but never read back for timing, so cycle counts stay bit-identical
    /// to unrecorded runs.
    pub fn enable_trend(&mut self, opts: TrendOptions) {
        if self.fab.prof.is_none() {
            self.enable_profiling();
        }
        self.trend = Some(Box::new(TrendRecorder::new(opts)));
    }

    /// What a trend sample reads: the value at each of `rec`'s paths
    /// (the stats tree is built only when there are paths to resolve),
    /// the dispatched instruction count and, with profiling on, the
    /// run-level buckets over all processors plus the per-core cycles.
    fn trend_inputs(&self, rec: &TrendRecorder) -> TrendInputs<'_> {
        let paths = rec.paths();
        let values = if paths.is_empty() {
            Vec::new()
        } else {
            let root = self.collect_stats().to_snapshot().root;
            paths.iter().map(|p| root.lookup(p)).collect()
        };
        let insts = self.procs.iter().map(|p| p.stats.insts_dispatched).sum();
        let prof = self.fab.prof.as_deref().map(|acc| {
            let mut total = BucketCycles::default();
            for p in &acc.per_proc {
                total.merge(&p.run_buckets);
            }
            (total, acc.core_cycles.as_slice())
        });
        (values, insts, prof)
    }

    /// Finalizes and returns the trend report (closing the last partial
    /// interval), or `None` when trend recording was never enabled.
    /// Recording stops; a second call returns `None`.
    #[must_use]
    pub fn take_trend_report(&mut self) -> Option<TrendReport> {
        let rec = self.trend.take()?;
        let (values, insts, prof) = self.trend_inputs(&rec);
        Some(rec.finish(self.fab.now, &values, insts, prof))
    }

    /// Closes the trend interval ending now. Only called on due cycles.
    pub(super) fn trend_sample(&mut self) {
        let Some(mut rec) = self.trend.take() else {
            return;
        };
        let (values, insts, prof) = self.trend_inputs(&rec);
        rec.record(self.fab.now, &values, insts, prof);
        self.trend = Some(rec);
    }
}
