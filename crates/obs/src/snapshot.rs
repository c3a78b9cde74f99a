//! The unified stats registry: a hierarchical, serializable snapshot of
//! every subsystem's counters at one instant. A series over any path in
//! it is clp-trend's ([`crate::TrendOptions::paths`]).

use serde_json::{json, ToValue, Value};

/// A single named measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonically accumulated count.
    Count(u64),
    /// A derived or averaged quantity.
    Gauge(f64),
}

/// `{"Count": n}` or `{"Gauge": x}`.
impl ToValue for MetricValue {
    fn to_value(&self) -> Value {
        match self {
            MetricValue::Count(c) => json!({"Count": (c)}),
            MetricValue::Gauge(g) => json!({"Gauge": (g)}),
        }
    }
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
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, unique within its node.
    pub name: String,
    /// The measured value.
    pub value: MetricValue,
}

impl ToValue for Metric {
    fn to_value(&self) -> Value {
        json!({"name": (self.name), "value": (self.value)})
    }
}

/// One node of the hierarchical stats tree.
///
/// Subsystem stats structs (`ProcStats`, `MemStats`, `MeshStats`,
/// `PredictorStats`) each render themselves into a node; the simulator
/// assembles them under one root so consumers address any counter by a
/// stable `"mem/l1d_hits"`-style path instead of plucking struct fields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsNode {
    /// Node name (path segment).
    pub name: String,
    /// Metrics directly on this node.
    pub metrics: Vec<Metric>,
    /// Child nodes.
    pub children: Vec<StatsNode>,
}

impl ToValue for StatsNode {
    fn to_value(&self) -> Value {
        json!({"name": (self.name), "metrics": (self.metrics), "children": (self.children)})
    }
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
    fn get_child(&self, name: &str) -> Option<&StatsNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Looks up a metric on this node by name.
    #[must_use]
    fn get_metric(&self, name: &str) -> Option<MetricValue> {
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

/// The full, self-describing result of a run: end-of-run totals as a
/// navigable tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Total machine cycles simulated.
    pub cycles: u64,
    /// Root of the hierarchical stats tree.
    pub root: StatsNode,
}

impl ToValue for StatsSnapshot {
    fn to_value(&self) -> Value {
        json!({"cycles": (self.cycles), "root": (self.root)})
    }
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
}
