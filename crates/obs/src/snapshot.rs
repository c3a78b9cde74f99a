//! The unified stats registry: a hierarchical, serializable snapshot of
//! every subsystem's counters, plus per-interval time-series sampling.

use serde::{Deserialize, Serialize};

/// A single named measurement.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// A monotonically accumulated count.
    Count(u64),
    /// A derived or averaged quantity.
    Gauge(f64),
}

impl MetricValue {
    /// The value as an `f64` regardless of kind.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            MetricValue::Count(c) => c as f64,
            MetricValue::Gauge(g) => g,
        }
    }
}

/// A named metric within a [`StatsNode`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, unique within its node.
    pub name: String,
    /// The measured value.
    pub value: MetricValue,
}

/// One node of the hierarchical stats tree.
///
/// Subsystem stats structs (`ProcStats`, `MemStats`, `MeshStats`,
/// `PredictorStats`) each render themselves into a node; the simulator
/// assembles them under one root so consumers address any counter by a
/// stable `"mem/l1d_hits"`-style path instead of plucking struct fields.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsNode {
    /// Node name (path segment).
    pub name: String,
    /// Metrics directly on this node.
    pub metrics: Vec<Metric>,
    /// Child nodes.
    pub children: Vec<StatsNode>,
}

impl StatsNode {
    /// An empty node named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        StatsNode {
            name: name.into(),
            metrics: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds a count metric (builder style).
    #[must_use]
    pub fn count(mut self, name: impl Into<String>, value: u64) -> Self {
        self.metrics.push(Metric {
            name: name.into(),
            value: MetricValue::Count(value),
        });
        self
    }

    /// Adds a gauge metric (builder style).
    #[must_use]
    pub fn gauge(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push(Metric {
            name: name.into(),
            value: MetricValue::Gauge(value),
        });
        self
    }

    /// Adds a child node (builder style).
    #[must_use]
    pub fn child(mut self, child: StatsNode) -> Self {
        self.children.push(child);
        self
    }

    /// Looks up a direct child by name.
    #[must_use]
    pub fn get_child(&self, name: &str) -> Option<&StatsNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Looks up a metric on this node by name.
    #[must_use]
    pub fn get_metric(&self, name: &str) -> Option<MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Resolves a `"child/.../metric"` path from this node.
    #[must_use]
    pub fn lookup(&self, path: &str) -> Option<MetricValue> {
        match path.split_once('/') {
            None => self.get_metric(path),
            Some((child, rest)) => self.get_child(child)?.lookup(rest),
        }
    }
}

/// One sampling window of the time series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IntervalSample {
    /// First cycle of the window (inclusive).
    pub start_cycle: u64,
    /// Last cycle of the window (exclusive).
    pub end_cycle: u64,
    /// Instructions committed during the window.
    pub insts_committed: u64,
    /// Blocks committed during the window.
    pub blocks_committed: u64,
    /// Blocks flushed during the window.
    pub blocks_flushed: u64,
    /// Operand-network messages delivered during the window.
    pub operand_msgs: u64,
    /// Committed instructions per cycle over the window.
    pub ipc: f64,
    /// Operand messages delivered per cycle over the window.
    pub operand_occupancy: f64,
}

/// Cumulative counters the sampler differentiates into window deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleCounters {
    /// Total instructions committed so far.
    pub insts_committed: u64,
    /// Total blocks committed so far.
    pub blocks_committed: u64,
    /// Total blocks flushed so far.
    pub blocks_flushed: u64,
    /// Total operand-network messages delivered so far.
    pub operand_msgs: u64,
}

/// Turns cumulative counters into fixed-width [`IntervalSample`]s.
///
/// The hot loop pays one integer compare per cycle ([`IntervalSampler::due`]);
/// the owner gathers [`SampleCounters`] only on due cycles.
#[derive(Clone, Debug)]
pub struct IntervalSampler {
    period: u64,
    next_due: u64,
    window_start: u64,
    last: SampleCounters,
    samples: Vec<IntervalSample>,
}

impl IntervalSampler {
    /// A sampler emitting one sample every `period` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "sampling period must be positive");
        IntervalSampler {
            period,
            next_due: period,
            window_start: 0,
            last: SampleCounters::default(),
            samples: Vec::new(),
        }
    }

    /// Whether the current cycle closes a window.
    #[inline]
    #[must_use]
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_due
    }

    /// Closes the current window at `cycle` given the cumulative
    /// `counters`, recording one sample.
    pub fn sample(&mut self, cycle: u64, counters: SampleCounters) {
        let span = cycle.saturating_sub(self.window_start).max(1);
        let insts = counters.insts_committed - self.last.insts_committed;
        let msgs = counters.operand_msgs - self.last.operand_msgs;
        self.samples.push(IntervalSample {
            start_cycle: self.window_start,
            end_cycle: cycle,
            insts_committed: insts,
            blocks_committed: counters.blocks_committed - self.last.blocks_committed,
            blocks_flushed: counters.blocks_flushed - self.last.blocks_flushed,
            operand_msgs: msgs,
            ipc: insts as f64 / span as f64,
            operand_occupancy: msgs as f64 / span as f64,
        });
        self.last = counters;
        self.window_start = cycle;
        self.next_due = cycle + self.period;
    }

    /// Closes the final partial window (if non-empty) and returns all
    /// samples.
    #[must_use]
    pub fn finish(mut self, cycle: u64, counters: SampleCounters) -> Vec<IntervalSample> {
        if cycle > self.window_start {
            self.sample(cycle, counters);
        }
        self.samples
    }

    /// Samples collected so far.
    #[must_use]
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }
}

/// The full, self-describing result of a run: end-of-run totals as a
/// navigable tree plus the sampled time series.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Total machine cycles simulated.
    pub cycles: u64,
    /// Root of the hierarchical stats tree.
    pub root: StatsNode,
    /// Per-interval time series (empty unless sampling was enabled).
    pub intervals: Vec<IntervalSample>,
}

impl StatsSnapshot {
    /// Resolves a `"node/.../metric"` path from the root.
    ///
    /// The root node's own name is *not* part of the path:
    /// `snapshot.get("mem/l1d_hits")`.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<f64> {
        self.root.lookup(path).map(MetricValue::as_f64)
    }

    /// Like [`StatsSnapshot::get`] but panics with the path in the
    /// message — for figure binaries where a missing counter is a bug.
    ///
    /// # Panics
    ///
    /// Panics if the path does not resolve.
    #[must_use]
    pub fn expect(&self, path: &str) -> f64 {
        self.get(path)
            .unwrap_or_else(|| panic!("stats snapshot has no metric at `{path}`"))
    }

    /// Serializes the snapshot as pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses a snapshot from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse/shape error.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}
