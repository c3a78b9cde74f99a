//! Property tests for the mesh: exactly-once delivery, latency bounds,
//! and per-pair FIFO ordering under arbitrary traffic.

use clp_noc::{Mesh, MeshConfig, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// Every injected message is delivered exactly once, to the right
    /// node, no earlier than `hops + 1` cycles after injection.
    #[test]
    fn exactly_once_delivery_with_latency_bound(
        msgs in prop::collection::vec((0usize..32, 0usize..32), 1..120),
        bw in 1usize..3,
    ) {
        let cfg = MeshConfig { width: 4, height: 8, link_bandwidth: bw };
        let mut mesh: Mesh<usize> = Mesh::new(cfg);
        for (tag, &(src, dst)) in msgs.iter().enumerate() {
            mesh.inject(NodeId(src), NodeId(dst), tag);
        }
        let mut delivered: BTreeMap<usize, (usize, u64)> = BTreeMap::new();
        let mut cycle = 0u64;
        while !mesh.is_idle() {
            mesh.step();
            cycle += 1;
            prop_assert!(cycle < 100_000, "mesh must drain");
            for (node, tag) in mesh.drain_delivered() {
                prop_assert!(
                    delivered.insert(tag, (node.0, cycle)).is_none(),
                    "message {} delivered twice", tag
                );
            }
        }
        prop_assert_eq!(delivered.len(), msgs.len(), "all messages delivered");
        for (tag, &(src, dst)) in msgs.iter().enumerate() {
            let (node, when) = delivered[&tag];
            prop_assert_eq!(node, dst, "message {} misrouted", tag);
            let min = cfg.hops(NodeId(src), NodeId(dst)) as u64 + 1;
            prop_assert!(when >= min, "message {} arrived before light could", tag);
        }
    }

    /// Messages between the same (src, dst) pair arrive in injection
    /// order (dimension-order routing is a single path).
    #[test]
    fn per_pair_fifo(src in 0usize..32, dst in 0usize..32, n in 1usize..30) {
        let mut mesh: Mesh<usize> = Mesh::new(MeshConfig::tflex_operand());
        for tag in 0..n {
            mesh.inject(NodeId(src), NodeId(dst), tag);
        }
        let mut seen = Vec::new();
        while !mesh.is_idle() {
            mesh.step();
            seen.extend(mesh.drain_delivered().into_iter().map(|(_, t)| t));
        }
        let sorted: Vec<usize> = (0..n).collect();
        prop_assert_eq!(seen, sorted);
    }

    /// Statistics are conserved: injected == delivered once drained, and
    /// link traversals equal the sum of hop distances.
    #[test]
    fn stats_conservation(
        msgs in prop::collection::vec((0usize..32, 0usize..32), 1..60),
    ) {
        let cfg = MeshConfig::trips_operand();
        let mut mesh: Mesh<()> = Mesh::new(cfg);
        let mut expected_hops = 0u64;
        for &(src, dst) in &msgs {
            mesh.inject(NodeId(src), NodeId(dst), ());
            expected_hops += cfg.hops(NodeId(src), NodeId(dst)) as u64;
        }
        while !mesh.is_idle() {
            mesh.step();
            let _ = mesh.drain_delivered();
        }
        let s = mesh.stats();
        prop_assert_eq!(s.injected, msgs.len() as u64);
        prop_assert_eq!(s.delivered, msgs.len() as u64);
        prop_assert_eq!(s.link_traversals, expected_hops);
    }
}
