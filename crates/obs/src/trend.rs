//! clp-trend: deterministic columnar time-series telemetry and phase
//! detection.
//!
//! [`TrendRecorder`] is the one thing that samples a run. It is a
//! column store, and the caller hands it the values: per interval, one
//! value for each of its named paths (the machine resolves stats-registry
//! paths — `mem/*`, `operand_net/*`, `faults/*`, … — against its stats
//! tree, and only when there are any; clp-scope hands in its nine service
//! numbers), a cumulative instruction count, and the profiler's books
//! when there are any to hand: the 14 clp-prof cycle-accounting buckets
//! and the per-core heat-map rows get columns exactly when they are
//! handed in. Recording follows the zero-perturbation discipline — values
//! are *written* on due cycles but never *read back* for timing, so cycle
//! counts with trend recording on are bit-identical to uninstrumented
//! runs (asserted by `obs_guard`).
//!
//! On top of the columns, a deterministic phase detector runs windowed
//! change-point scoring over the per-interval bucket/IPC feature vectors.
//! The decision path is integer-only (per-mille shares, milli-IPC,
//! integer window means, L1 distances) with fixed tie-breaks — earliest
//! boundary wins — so phase tables are pinnable in goldens. The result is
//! a [`TrendReport`]: the pinned `clp-trend-v1` JSON schema, an ASCII
//! timeline renderer, a phase table with per-phase bucket breakdowns, and
//! a Perfetto counter-track export.

use crate::profile::{by_bucket, Bucket, BucketCycles, NUM_BUCKETS};
use crate::sink::{chrome_trace, ChromeEvent};
use crate::skip_nulls;
use crate::snapshot::MetricValue;
use serde_json::{json, Value};

/// Half-window width (in intervals) of the phase detector's change-point
/// scoring.
const PHASE_WINDOW: usize = 4;
/// Minimum L1 feature distance (per-mille units) for a phase boundary.
const PHASE_THRESHOLD: u64 = 150;

/// What the trend recorder samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrendOptions {
    /// Interval width in cycles.
    pub period: u64,
    /// Paths to record as columns (e.g. `mem/l1d_misses`, `proc0/ipc`,
    /// `operand_net/link_traversals`), one value each per sample. Count
    /// values are stored as per-interval deltas, gauges as milli-unit
    /// levels.
    pub paths: Vec<String>,
}

impl Default for TrendOptions {
    fn default() -> Self {
        TrendOptions {
            period: 1000,
            paths: Vec::new(),
        }
    }
}

/// How a recorded column's integer values are to be read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnKind {
    /// Per-interval delta of a monotonically accumulated count.
    Count,
    /// Level of a gauge at the interval end, in milli-units
    /// (`round(value * 1000)`).
    GaugeMilli,
    /// No value was ever handed in for the path; values are all zero.
    Missing,
}

impl ColumnKind {
    /// Stable label used in the JSON schema.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ColumnKind::Count => "count",
            ColumnKind::GaugeMilli => "gauge_milli",
            ColumnKind::Missing => "missing",
        }
    }
}

/// One recorded stats-registry column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrendColumn {
    /// The stats-registry path this column tracks.
    pub path: String,
    /// How the values are encoded.
    pub kind: ColumnKind,
    /// One integer per interval.
    pub values: Vec<u64>,
}

/// One detected phase: a maximal run of intervals with a stable
/// bucket/IPC profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phase {
    /// First interval of the phase (inclusive).
    pub start_interval: usize,
    /// Last interval of the phase (inclusive).
    pub end_interval: usize,
    /// First cycle of the phase.
    pub start_cycle: u64,
    /// Last cycle of the phase (exclusive).
    pub end_cycle: u64,
    /// Instructions dispatched during the phase.
    pub insts: u64,
    /// Dispatched instructions per cycle over the phase, in milli-units.
    pub ipc_milli: u64,
    /// Bucket cycles summed over the phase's intervals.
    pub buckets: BucketCycles,
    /// The bucket with the most cycles (canonical order breaks ties).
    pub dominant: Bucket,
    /// Change-point score at the boundary that opened this phase (0 for
    /// the first phase).
    pub score: u64,
}

/// The complete time-series record of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendReport {
    /// Interval width in cycles (the last interval may be shorter).
    pub period: u64,
    /// Total cycles the run took.
    pub cycles: u64,
    /// End cycle of each interval (exclusive); starts are the previous
    /// entry (0 for the first).
    pub ends: Vec<u64>,
    /// Instructions dispatched per interval.
    pub insts: Vec<u64>,
    /// Requested stats-registry columns.
    pub columns: Vec<TrendColumn>,
    /// Per-bucket delta columns, indexed per [`Bucket::ALL`]; empty when
    /// the recorder was never handed the profiler's books.
    pub buckets: Vec<Vec<u64>>,
    /// Per-core critical-cycle delta rows; empty likewise.
    pub heat: Vec<Vec<u64>>,
    /// Detected phases, covering every interval exactly once.
    pub phases: Vec<Phase>,
}

/// Per-column delta state while recording.
#[derive(Clone, Debug)]
struct ColState {
    kind: ColumnKind,
    last: u64,
}

/// Records columnar interval samples during a run and detects phases at
/// [`TrendRecorder::finish`] time.
#[derive(Clone, Debug)]
pub struct TrendRecorder {
    opts: TrendOptions,
    next_due: u64,
    window_start: u64,
    ends: Vec<u64>,
    insts: Vec<u64>,
    last_insts: u64,
    col_state: Vec<ColState>,
    col_values: Vec<Vec<u64>>,
    last_buckets: [u64; NUM_BUCKETS],
    bucket_values: Vec<Vec<u64>>,
    last_heat: Vec<u64>,
    heat_values: Vec<Vec<u64>>,
}

impl TrendRecorder {
    /// A recorder sampling every `opts.period` cycles.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    #[must_use]
    pub fn new(opts: TrendOptions) -> Self {
        assert!(opts.period > 0, "trend period must be positive");
        let n_paths = opts.paths.len();
        TrendRecorder {
            next_due: opts.period,
            window_start: 0,
            ends: Vec::new(),
            insts: Vec::new(),
            last_insts: 0,
            col_state: vec![
                ColState {
                    kind: ColumnKind::Missing,
                    last: 0,
                };
                n_paths
            ],
            col_values: vec![Vec::new(); n_paths],
            last_buckets: [0; NUM_BUCKETS],
            bucket_values: Vec::new(),
            last_heat: Vec::new(),
            heat_values: Vec::new(),
            opts,
        }
    }

    /// The paths whose values [`TrendRecorder::record`] takes, in order.
    #[must_use]
    pub fn paths(&self) -> &[String] {
        &self.opts.paths
    }

    /// Whether the current cycle closes an interval. One integer compare
    /// — the only trend cost on non-due cycles.
    #[inline]
    #[must_use]
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_due
    }

    /// Closes the interval ending at `cycle`. `values` holds the current
    /// value at each of [`TrendRecorder::paths`] (`None`: the path does
    /// not resolve); `insts` is the cumulative instruction count; `prof`
    /// the profiler's cumulative run-level buckets and per-core cycles,
    /// handed on every sample or on none.
    pub fn record(
        &mut self,
        cycle: u64,
        values: &[Option<MetricValue>],
        insts: u64,
        prof: Option<(BucketCycles, &[u64])>,
    ) {
        debug_assert_eq!(values.len(), self.col_state.len(), "one value per path");
        self.ends.push(cycle);
        self.insts.push(insts - self.last_insts);
        self.last_insts = insts;
        let columns = self.col_state.iter_mut().zip(&mut self.col_values);
        for ((st, col), value) in columns.zip(values) {
            let v = match *value {
                Some(MetricValue::Count(c)) => {
                    if st.kind == ColumnKind::Missing {
                        st.kind = ColumnKind::Count;
                    }
                    let d = c.saturating_sub(st.last);
                    st.last = c;
                    d
                }
                Some(MetricValue::Gauge(g)) => {
                    if st.kind == ColumnKind::Missing {
                        st.kind = ColumnKind::GaugeMilli;
                    }
                    (g.max(0.0) * 1000.0).round() as u64
                }
                None => 0,
            };
            col.push(v);
        }
        if let Some((buckets, heat)) = prof {
            if self.bucket_values.is_empty() {
                // The first books handed in: a column per bucket and a
                // row per core from here on.
                self.bucket_values = vec![Vec::new(); NUM_BUCKETS];
                self.last_heat = vec![0; heat.len()];
                self.heat_values = vec![Vec::new(); heat.len()];
            }
            let columns = self.bucket_values.iter_mut().zip(&mut self.last_buckets);
            for ((col, last), &cur) in columns.zip(&buckets.0) {
                col.push(cur.saturating_sub(*last));
                *last = cur;
            }
            let rows = self.heat_values.iter_mut().zip(&mut self.last_heat);
            for ((row, last), &cur) in rows.zip(heat) {
                row.push(cur.saturating_sub(*last));
                *last = cur;
            }
        }
        self.window_start = cycle;
        self.next_due = cycle + self.opts.period;
    }

    /// Closes the final partial interval (if non-empty), runs phase
    /// detection, and returns the finished report.
    #[must_use]
    pub fn finish(
        mut self,
        cycle: u64,
        values: &[Option<MetricValue>],
        insts: u64,
        prof: Option<(BucketCycles, &[u64])>,
    ) -> TrendReport {
        if cycle > self.window_start {
            self.record(cycle, values, insts, prof);
        }
        let columns = self
            .opts
            .paths
            .iter()
            .zip(self.col_state.iter())
            .zip(self.col_values.iter())
            .map(|((path, st), values)| TrendColumn {
                path: path.clone(),
                kind: st.kind,
                values: values.clone(),
            })
            .collect();
        let mut report = TrendReport {
            period: self.opts.period,
            cycles: cycle,
            ends: self.ends,
            insts: self.insts,
            columns,
            buckets: self.bucket_values,
            heat: self.heat_values,
            phases: Vec::new(),
        };
        report.phases = detect_phases(&report, PHASE_WINDOW, PHASE_THRESHOLD);
        report
    }
}

// -- phase detection --------------------------------------------------------

/// One interval's feature vector: the 14 bucket shares in per-mille of
/// the interval's bucket total, plus milli-IPC. All integers.
fn features(report: &TrendReport, i: usize) -> [u64; NUM_BUCKETS + 1] {
    let mut f = [0u64; NUM_BUCKETS + 1];
    if !report.buckets.is_empty() {
        let total: u64 = report.buckets.iter().map(|col| col[i]).sum();
        for (k, col) in report.buckets.iter().enumerate() {
            f[k] = (col[i] * 1000).checked_div(total).unwrap_or(0);
        }
    }
    f[NUM_BUCKETS] = report.insts[i] * 1000 / span_of(report, i).max(1);
    f
}

fn span_of(report: &TrendReport, i: usize) -> u64 {
    let start = if i == 0 { 0 } else { report.ends[i - 1] };
    report.ends[i] - start
}

/// Windowed L1 change-point score at boundary `b` (between intervals
/// `b-1` and `b`): the distance between the integer mean feature vectors
/// of the `w` intervals before and after the boundary.
fn boundary_score(feats: &[[u64; NUM_BUCKETS + 1]], b: usize, window: usize) -> u64 {
    let n = feats.len();
    let w = window.min(b).min(n - b);
    if w == 0 {
        return 0;
    }
    let mut score = 0u64;
    for k in 0..NUM_BUCKETS + 1 {
        let before: u64 = feats[b - w..b].iter().map(|f| f[k]).sum::<u64>() / w as u64;
        let after: u64 = feats[b..b + w].iter().map(|f| f[k]).sum::<u64>() / w as u64;
        score += before.abs_diff(after);
    }
    score
}

/// Deterministic change-point detection: a boundary is accepted when its
/// score reaches the threshold, is a maximum over its `±window`
/// neighborhood (earliest boundary wins ties), and lies at least
/// `window` intervals past the previously accepted boundary.
fn detect_phases(report: &TrendReport, window: usize, threshold: u64) -> Vec<Phase> {
    let n = report.ends.len();
    if n == 0 {
        return Vec::new();
    }
    let window = window.max(1);
    let feats: Vec<[u64; NUM_BUCKETS + 1]> = (0..n).map(|i| features(report, i)).collect();
    let scores: Vec<u64> = (0..=n)
        .map(|b| {
            if b == 0 || b == n {
                0
            } else {
                boundary_score(&feats, b, window)
            }
        })
        .collect();
    let mut boundaries: Vec<usize> = vec![0];
    for b in 1..n {
        if scores[b] < threshold {
            continue;
        }
        let lo = b.saturating_sub(window);
        let hi = (b + window).min(n);
        // Earliest-wins maximum: strictly greater than every earlier
        // neighbor in the window, at least as great as every later one.
        let is_max =
            (lo..b).all(|j| scores[j] < scores[b]) && (b..hi).all(|j| scores[j] <= scores[b]);
        if is_max && b - boundaries.last().expect("nonempty") >= window {
            boundaries.push(b);
        }
    }
    boundaries.push(n);
    let mut phases = Vec::new();
    for pair in boundaries.windows(2) {
        let (s, e) = (pair[0], pair[1]);
        let start_cycle = if s == 0 { 0 } else { report.ends[s - 1] };
        let end_cycle = report.ends[e - 1];
        let insts: u64 = report.insts[s..e].iter().sum();
        let mut buckets = BucketCycles::default();
        for (k, col) in report.buckets.iter().enumerate() {
            buckets.0[k] = col[s..e].iter().sum();
        }
        let dominant = Bucket::ALL
            .iter()
            .copied()
            .max_by_key(|b| buckets.get(*b))
            .expect("buckets nonempty");
        // max_by_key returns the last maximum; canonical order should
        // break ties toward the earlier bucket instead.
        let dominant = Bucket::ALL
            .iter()
            .copied()
            .find(|b| buckets.get(*b) == buckets.get(dominant))
            .expect("found");
        phases.push(Phase {
            start_interval: s,
            end_interval: e - 1,
            start_cycle,
            end_cycle,
            insts,
            ipc_milli: insts * 1000 / (end_cycle - start_cycle).max(1),
            buckets,
            dominant,
            score: scores[s],
        });
    }
    phases
}

// -- report rendering -------------------------------------------------------

impl TrendReport {
    /// The report under the pinned `clp-trend-v1` JSON schema. Every
    /// value is an integer, so equal runs serialize byte-identically.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let columns = self.columns.iter();
        let columns: Vec<Value> = columns
            .map(|c| json!({"path": (c.path), "kind": (c.kind.label()), "values": (c.values)}))
            .collect();
        let phases = self.phases.iter().map(|p| {
            json!({
                "start_interval": (p.start_interval),
                "end_interval": (p.end_interval),
                "start_cycle": (p.start_cycle),
                "end_cycle": (p.end_cycle),
                "insts": (p.insts),
                "ipc_milli": (p.ipc_milli),
                "dominant": (p.dominant.label()),
                "score": (p.score),
                "buckets": (p.buckets)
            })
        });
        let phases: Vec<Value> = phases.collect();
        // `buckets` and `heat` are present only when they were recorded.
        let buckets = (!self.buckets.is_empty()).then(|| by_bucket(|b| &self.buckets[b.index()]));
        let heat = (!self.heat.is_empty()).then_some(&self.heat);
        skip_nulls(json!({
            "schema": "clp-trend-v1",
            "period": (self.period),
            "cycles": (self.cycles),
            "intervals": (self.ends.len()),
            "ends": (self.ends),
            "insts": (self.insts),
            "columns": columns,
            "buckets": buckets,
            "heat": heat,
            "phases": phases
        }))
    }

    /// The report serialized as pretty `clp-trend-v1` JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!("{:#}", self.to_json_value())
    }

    /// An ASCII timeline: one sparkline row of per-interval IPC with `|`
    /// marks at phase boundaries, plus a cycle ruler.
    #[must_use]
    pub fn render_timeline(&self) -> String {
        const GLYPHS: &[u8] = b" .:-=+*#%@";
        let n = self.ends.len();
        if n == 0 {
            return "(no intervals recorded)\n".to_string();
        }
        let ipc: Vec<u64> = (0..n)
            .map(|i| self.insts[i] * 1000 / span_of(self, i).max(1))
            .collect();
        let max = ipc.iter().copied().max().unwrap_or(0).max(1);
        let mut boundaries = vec![false; n];
        for p in self.phases.iter().skip(1) {
            boundaries[p.start_interval] = true;
        }
        let mut line = String::from("ipc |");
        for i in 0..n {
            if boundaries[i] {
                line.push('|');
            }
            let g = (ipc[i] * (GLYPHS.len() as u64 - 1) / max) as usize;
            line.push(GLYPHS[g] as char);
        }
        line.push('|');
        let mut out = format!(
            "{} intervals x {} cycles, {} phases (max ipc {}.{:03})\n",
            n,
            self.period,
            self.phases.len(),
            max / 1000,
            max % 1000
        );
        out.push_str(&line);
        out.push('\n');
        out
    }

    /// The phase table: one row per phase with its interval range, cycle
    /// range, IPC, and dominant buckets.
    #[must_use]
    pub fn render_phase_table(&self) -> String {
        let mut out = format!(
            "{:<6} {:>10} {:>16} {:>8} {:>8} {:<13} top buckets\n",
            "phase", "intervals", "cycles", "ipc", "score", "dominant"
        );
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "{:<6} {:>4}..{:<5} {:>7}..{:<8} {:>4}.{:03} {:>8} {:<13} {}\n",
                i,
                p.start_interval,
                p.end_interval,
                p.start_cycle,
                p.end_cycle,
                p.ipc_milli / 1000,
                p.ipc_milli % 1000,
                p.score,
                p.dominant.label(),
                p.buckets.render_top3()
            ));
        }
        out
    }

    /// The series as Chrome trace-event JSON counter tracks (`ph: "C"`),
    /// loadable at <https://ui.perfetto.dev> alongside an event trace:
    /// one `ipc_milli` counter and one multi-series `cycle_buckets`
    /// counter per interval.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for (i, &ts) in self.ends.iter().enumerate() {
            let ipc = self.insts[i] * 1000 / span_of(self, i).max(1);
            events.push(ChromeEvent::counter(
                "ipc_milli",
                ts,
                7,
                json!({"value": ipc}),
            ));
            if !self.buckets.is_empty() {
                let args = by_bucket(|b| self.buckets[b.index()][i]);
                events.push(ChromeEvent::counter("cycle_buckets", ts, 7, args));
            }
        }
        chrome_trace(events, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample's values for the paths `mem/l1d_misses`, `proc0/ipc`
    /// and a path that never resolves.
    fn values(l1d: u64, ipc: f64) -> [Option<MetricValue>; 3] {
        [
            Some(MetricValue::Count(l1d)),
            Some(MetricValue::Gauge(ipc)),
            None,
        ]
    }

    #[test]
    fn columns_delta_counts_and_level_gauges() {
        let opts = TrendOptions {
            period: 100,
            paths: vec![
                "mem/l1d_misses".to_string(),
                "proc0/ipc".to_string(),
                "no/such/path".to_string(),
            ],
        };
        let mut rec = TrendRecorder::new(opts);
        assert!(!rec.due(99));
        assert!(rec.due(100));
        rec.record(100, &values(10, 1.5), 50, None);
        rec.record(200, &values(25, 2.0), 150, None);
        let report = rec.finish(230, &values(31, 2.25), 190, None);
        assert_eq!(report.ends, vec![100, 200, 230]);
        assert_eq!(report.insts, vec![50, 100, 40]);
        assert_eq!(report.columns[0].kind, ColumnKind::Count);
        assert_eq!(report.columns[0].values, vec![10, 15, 6]);
        assert_eq!(report.columns[1].kind, ColumnKind::GaugeMilli);
        assert_eq!(report.columns[1].values, vec![1500, 2000, 2250]);
        assert_eq!(report.columns[2].kind, ColumnKind::Missing);
        assert_eq!(report.columns[2].values, vec![0, 0, 0]);
        // Never handed the profiler's books: no bucket or heat columns,
        // and still one covering phase.
        assert!(report.buckets.is_empty() && report.heat.is_empty());
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].end_cycle, 230);
    }

    #[test]
    fn bucket_deltas_tile_the_cumulative_totals() {
        let opts = TrendOptions {
            period: 100,
            ..TrendOptions::default()
        };
        let mut rec = TrendRecorder::new(opts);
        let mut cum = BucketCycles::default();
        cum.add(Bucket::Execute, 40);
        cum.add(Bucket::MemWait, 10);
        let heat = [30u64, 20];
        rec.record(100, &[], 10, Some((cum, &heat)));
        cum.add(Bucket::Execute, 5);
        cum.add(Bucket::MemWait, 60);
        let heat2 = [40u64, 75];
        let report = rec.finish(200, &[], 20, Some((cum, &heat2)));
        let exec = Bucket::Execute.index();
        let memw = Bucket::MemWait.index();
        assert_eq!(report.buckets[exec], vec![40, 5]);
        assert_eq!(report.buckets[memw], vec![10, 60]);
        assert_eq!(
            report.buckets[exec].iter().sum::<u64>(),
            cum.get(Bucket::Execute)
        );
        assert_eq!(report.heat[0], vec![30, 10]);
        assert_eq!(report.heat[1], vec![20, 55]);
    }

    /// A synthetic two-regime series: execute-dominant then
    /// mem_wait-dominant. The detector must find exactly one boundary at
    /// the regime switch.
    #[test]
    fn phase_detector_finds_the_regime_switch() {
        let opts = TrendOptions {
            period: 100,
            ..TrendOptions::default()
        };
        let mut rec = TrendRecorder::new(opts);
        let mut cum = BucketCycles::default();
        for i in 1..=12u64 {
            if i <= 6 {
                cum.add(Bucket::Execute, 90);
                cum.add(Bucket::MemWait, 10);
            } else {
                cum.add(Bucket::Execute, 10);
                cum.add(Bucket::MemWait, 90);
            }
            let insts = i * 100;
            if i < 12 {
                rec.record(i * 100, &[], insts, Some((cum, &[0])));
            } else {
                let mut report = rec.finish(i * 100, &[], insts, Some((cum, &[0])));
                report.phases = detect_phases(&report, 2, 300);
                assert_eq!(report.phases.len(), 2, "{:#?}", report.phases);
                assert_eq!(report.phases[0].dominant, Bucket::Execute);
                assert_eq!(report.phases[1].dominant, Bucket::MemWait);
                assert_eq!(report.phases[1].start_interval, 6);
                assert_eq!(report.phases[0].end_cycle, report.phases[1].start_cycle);
                // Renderers cover every phase.
                let table = report.render_phase_table();
                assert!(table.contains("execute"));
                assert!(table.contains("mem_wait"));
                let timeline = report.render_timeline();
                assert!(timeline.contains('|'));
                let json = report.to_json();
                assert!(json.contains("clp-trend-v1"));
                let trace = report.to_chrome_trace();
                assert!(trace.contains("cycle_buckets"));
                return;
            }
        }
    }

    /// Identical inputs serialize byte-identically (the JSON path is
    /// integer-only).
    #[test]
    fn report_json_is_deterministic() {
        let build = || {
            let mut rec = TrendRecorder::new(TrendOptions {
                period: 50,
                paths: vec!["mem/l1d_misses".to_string()],
            });
            let mut cum = BucketCycles::default();
            cum.add(Bucket::Fetch, 30);
            let l1d = |n| [Some(MetricValue::Count(n))];
            rec.record(50, &l1d(5), 10, Some((cum, &[30, 0])));
            rec.finish(90, &l1d(9), 25, Some((cum, &[30, 0])))
        };
        assert_eq!(build().to_json(), build().to_json());
    }
}
