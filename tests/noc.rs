//! The operand mesh against a reference router, and its delivery
//! properties under arbitrary traffic: exactly-once delivery, latency
//! bounds, per-pair FIFO order and conserved statistics.

use clp::noc::{Coord, Mesh, MeshConfig, MeshStats, NodeId};
use clp::obs::{RingRecorder, TraceEvent, Tracer};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// A message of the reference router, whole.
struct RefMsg {
    src: usize,
    dst: usize,
    payload: u32,
    injected_at: u64,
    seq: u64,
}

/// The router written the obvious way: whole messages in per-node FIFO
/// queues, routers visited in ascending node order, the route re-derived
/// on every hop from [`MeshConfig::route_nodes`], and the cycle's
/// arrivals merged into their queues by `seq`. The differential test
/// below holds [`Mesh`] to this, cycle for cycle and event for event.
struct RefMesh {
    cfg: MeshConfig,
    plane: &'static str,
    queues: Vec<VecDeque<RefMsg>>,
    cycle: u64,
    next_seq: u64,
    throttled_until: u64,
    stats: MeshStats,
    /// What the router would trace, in emission order.
    events: Vec<(u64, TraceEvent)>,
}

impl RefMesh {
    fn new(cfg: MeshConfig, plane: &'static str) -> Self {
        RefMesh {
            cfg,
            plane,
            queues: (0..cfg.nodes()).map(|_| VecDeque::new()).collect(),
            cycle: 0,
            next_seq: 0,
            throttled_until: 0,
            stats: MeshStats::default(),
            events: Vec::new(),
        }
    }

    fn inject(&mut self, src: usize, dst: usize, payload: u32) {
        self.stats.injected += 1;
        self.queues[src].push_back(RefMsg {
            src,
            dst,
            payload,
            injected_at: self.cycle,
            seq: self.next_seq,
        });
        self.next_seq += 1;
    }

    fn throttle(&mut self, cycles: u64) {
        self.throttled_until = self.throttled_until.max(self.cycle + cycles);
    }

    /// One cycle; returns the deliveries as `(node, payload)`.
    fn step(&mut self) -> Vec<(usize, u32)> {
        self.cycle += 1;
        let (cycle, plane) = (self.cycle, self.plane);
        let throttled = self.throttled_until != 0 && cycle <= self.throttled_until;
        let bw = self
            .cfg
            .link_bandwidth
            .min(if throttled { 1 } else { usize::MAX });
        let (mut delivered, mut arriving) = (Vec::new(), Vec::new());
        for node in 0..self.queues.len() {
            // Budget per output link, named by the node it leads to (the
            // router itself for local delivery).
            let mut sent: BTreeMap<usize, usize> = BTreeMap::new();
            let mut stalled = VecDeque::new();
            for msg in std::mem::take(&mut self.queues[node]) {
                let route = self.cfg.route_nodes(NodeId(node), NodeId(msg.dst));
                let next = route.get(1).map_or(node, |n| n.0);
                let used = sent.entry(next).or_default();
                if *used == bw {
                    self.stats.stalled_cycles += 1;
                    self.events
                        .push((cycle, TraceEvent::LinkContention { plane, node }));
                    stalled.push_back(msg);
                    continue;
                }
                *used += 1;
                if next == node {
                    let latency = cycle - msg.injected_at;
                    self.stats.delivered += 1;
                    self.stats.total_latency += latency;
                    let routed = TraceEvent::OperandRouted {
                        plane,
                        src: msg.src,
                        dst: node,
                        latency,
                    };
                    self.events.push((cycle, routed));
                    delivered.push((node, msg.payload));
                } else {
                    self.stats.link_traversals += 1;
                    arriving.push((next, msg));
                }
            }
            self.queues[node] = stalled;
        }
        arriving.sort_by_key(|(_, m)| m.seq);
        for (node, msg) in arriving {
            self.queues[node].push_back(msg);
        }
        delivered
    }
}

proptest! {
    /// Random injection schedules with throttle bursts on the 4x8 mesh
    /// at bandwidth 1 and 2, traced: the same `(cycle, node, payload)`
    /// deliveries, the same `MeshStats` and the same `(cycle, event)`
    /// trace as the reference router. (`Mesh::step` checks its own
    /// invariants, slab empty once idle among them, in debug builds.)
    ///
    /// Every case opens with the neighbours of `hub` (three or four:
    /// the hub is off the top and bottom rows) each sending it one
    /// message, the highest node first, so that the hub's arrivals are
    /// met in descending node order but must be served in injection
    /// order: the hub's local-delivery budget spreads them over cycles
    /// in that order.
    #[test]
    fn matches_reference_router(
        hub in (0usize..4, 1usize..7),
        schedule in prop::collection::vec(
            (prop::collection::vec((0usize..32, 0usize..32), 0..6), 0u64..40),
            1..80,
        ),
        bw in 1usize..3,
    ) {
        let cfg = MeshConfig { width: 4, height: 8, link_bandwidth: bw };
        let hub = cfg.node_at(Coord { x: hub.0, y: hub.1 }).0;
        let mut converging: Vec<(usize, usize)> = (0..cfg.nodes())
            .rev()
            .filter(|&n| cfg.hops(NodeId(n), NodeId(hub)) == 1)
            .map(|n| (n, hub))
            .collect();
        let senders = converging.len() as u32;
        prop_assert!(senders >= 3);
        let mut schedule = schedule;
        converging.append(&mut schedule[0].0);
        schedule[0].0 = converging;
        let recorder = Arc::new(Mutex::new(RingRecorder::new(1 << 16)));
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        mesh.set_tracer(Tracer::shared(recorder.clone()), "control");
        let mut reference = RefMesh::new(cfg, "control");
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut payload = 0;
        let mut schedule = schedule.into_iter();
        for cycle in 1u64.. {
            match schedule.next() {
                Some((burst, throttle)) => {
                    // One schedule entry in eight starts a burst.
                    if throttle % 8 == 7 {
                        mesh.throttle(throttle);
                        reference.throttle(throttle);
                    }
                    for (src, dst) in burst {
                        mesh.inject(NodeId(src), NodeId(dst), payload);
                        reference.inject(src, dst, payload);
                        payload += 1;
                    }
                }
                None if mesh.is_idle() => break,
                None => {}
            }
            mesh.step();
            got.extend(mesh.drain_delivered().into_iter().map(|(n, p)| (cycle, n.0, p)));
            want.extend(reference.step().into_iter().map(|(n, p)| (cycle, n, p)));
            prop_assert!(cycle < 10_000, "mesh must drain");
        }
        let opening: Vec<u32> = got
            .iter()
            .filter(|&&(_, node, p)| node == hub && p < senders)
            .map(|&(_, _, p)| p)
            .collect();
        prop_assert_eq!(opening, (0..senders).collect::<Vec<u32>>(), "hub serves by seq");
        prop_assert_eq!(got, want);
        prop_assert_eq!(*mesh.stats(), reference.stats);
        prop_assert!(reference.queues.iter().all(VecDeque::is_empty));
        let recorder = recorder.lock().expect("trace sink poisoned");
        prop_assert_eq!(recorder.dropped(), 0);
        let traced: Vec<(u64, TraceEvent)> = recorder.events().copied().collect();
        prop_assert_eq!(traced, reference.events);
    }

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

/// `route_links`, the walk clp-prof spreads an operand stall over, names
/// exactly the links of `route_nodes`' path, in order, for every
/// `(from, to)` pair on the 4x8 mesh: one hop per link, none for a
/// local trip.
#[test]
fn route_links_walk_route_nodes_path() {
    let cfg = MeshConfig::trips_operand();
    for a in (0..cfg.nodes()).map(NodeId) {
        for b in (0..cfg.nodes()).map(NodeId) {
            let path = cfg.route_nodes(a, b);
            let want: Vec<(NodeId, NodeId)> = path.windows(2).map(|w| (w[0], w[1])).collect();
            let links: Vec<(NodeId, NodeId)> = cfg.route_links(a, b).collect();
            assert_eq!(links, want, "route {a} -> {b}");
            assert_eq!(links.len(), cfg.hops(a, b), "route {a} -> {b}");
        }
    }
}
