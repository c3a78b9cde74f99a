//! Traffic statistics for a mesh network.

/// Counters accumulated by a [`Mesh`](crate::Mesh) over its lifetime.
///
/// `link_traversals` is the quantity the power model charges router/wire
/// energy for; `stalled_cycles` measures contention.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Messages injected.
    pub injected: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Total hop traversals across all messages.
    pub link_traversals: u64,
    /// Message-cycles spent waiting for link bandwidth.
    pub stalled_cycles: u64,
    /// Sum of per-message delivery latencies (cycles).
    pub total_latency: u64,
}

impl MeshStats {
    /// Mean delivery latency in cycles (0 if nothing was delivered).
    #[must_use]
    pub(crate) fn avg_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Renders these counters as a stats-registry node named `name`.
    #[must_use]
    pub fn to_node(&self, name: &str) -> clp_obs::StatsNode {
        clp_obs::StatsNode::new(name)
            .count("injected", self.injected)
            .count("delivered", self.delivered)
            .count("link_traversals", self.link_traversals)
            .count("stalled_cycles", self.stalled_cycles)
            .count("total_latency", self.total_latency)
            .gauge("avg_latency", self.avg_latency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_latency_handles_empty() {
        assert_eq!(MeshStats::default().avg_latency(), 0.0);
    }
}
