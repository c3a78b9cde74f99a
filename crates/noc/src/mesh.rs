//! The cycle-stepped mesh network model.

use crate::region::Coord;
use crate::stats::MeshStats;
use clp_obs::{TraceEvent, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Identifies a mesh node (a TFlex core).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Output directions of a mesh router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Dir {
    East,
    West,
    North,
    South,
    Local,
}

const DIRS: [Dir; 5] = [Dir::East, Dir::West, Dir::North, Dir::South, Dir::Local];

/// Mesh geometry and link parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Number of columns.
    pub width: usize,
    /// Number of rows.
    pub height: usize,
    /// Messages a router may forward per output direction per cycle.
    ///
    /// The TRIPS operand network has bandwidth 1; TFlex doubles it (§5).
    pub link_bandwidth: usize,
}

impl MeshConfig {
    /// The 4x8 core-array mesh with TFlex's doubled operand bandwidth.
    #[must_use]
    pub fn tflex_operand() -> Self {
        MeshConfig {
            width: 4,
            height: 8,
            link_bandwidth: 2,
        }
    }

    /// The 4x8 core-array mesh with single-issue (TRIPS-like) operand
    /// bandwidth.
    #[must_use]
    pub fn trips_operand() -> Self {
        MeshConfig {
            width: 4,
            height: 8,
            link_bandwidth: 1,
        }
    }

    /// The control-message network (one message per link per cycle).
    #[must_use]
    pub fn control() -> Self {
        MeshConfig {
            width: 4,
            height: 8,
            link_bandwidth: 1,
        }
    }

    /// Number of nodes in the mesh.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// The coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!(node.0 < self.nodes(), "node {node} outside mesh");
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }

    /// The node at coordinates `c`.
    #[must_use]
    pub fn node_at(&self, c: Coord) -> NodeId {
        debug_assert!(c.x < self.width && c.y < self.height);
        NodeId(c.y * self.width + c.x)
    }

    /// Manhattan hop distance between two nodes (the shared
    /// [`crate::rect_hops`] definition, so lint and bound route lengths
    /// can never drift from the router's).
    #[must_use]
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        assert!(a.0 < self.nodes(), "node {a} outside mesh");
        assert!(b.0 < self.nodes(), "node {b} outside mesh");
        crate::region::rect_hops(a.0, b.0, self.width)
    }

    /// The inclusive node path a message takes from `a` to `b` under
    /// X-then-Y dimension-order routing — the same route [`Mesh::step`]
    /// walks hop by hop, so per-link attribution built on this path
    /// names exactly the links the message crossed. `a == b` yields the
    /// single-node path.
    #[must_use]
    pub fn route_nodes(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        assert!(a.0 < self.nodes(), "node {a} outside mesh");
        assert!(b.0 < self.nodes(), "node {b} outside mesh");
        crate::region::rect_route(a.0, b.0, self.width)
            .into_iter()
            .map(NodeId)
            .collect()
    }

    /// Next hop direction under X-then-Y dimension-order routing.
    pub(crate) fn route_dir(&self, at: NodeId, dst: NodeId) -> Dir {
        let a = self.coord(at);
        let d = self.coord(dst);
        if a.x < d.x {
            Dir::East
        } else if a.x > d.x {
            Dir::West
        } else if a.y < d.y {
            Dir::South
        } else if a.y > d.y {
            Dir::North
        } else {
            Dir::Local
        }
    }

    pub(crate) fn neighbor_of(&self, at: NodeId, dir: Dir) -> NodeId {
        let c = self.coord(at);
        let n = match dir {
            Dir::East => Coord { x: c.x + 1, y: c.y },
            Dir::West => Coord { x: c.x - 1, y: c.y },
            Dir::South => Coord { x: c.x, y: c.y + 1 },
            Dir::North => Coord { x: c.x, y: c.y - 1 },
            Dir::Local => c,
        };
        self.node_at(n)
    }
}

#[derive(Debug)]
struct InFlight<M> {
    at: NodeId,
    src: NodeId,
    dst: NodeId,
    payload: M,
    injected_at: u64,
    seq: u64,
}

/// One router's work for one cycle: drains `queue` in FIFO order under
/// a per-direction budget of `bw`, appending local deliveries to
/// `delivered` and forwarded messages to `arriving`, accumulating
/// counter deltas into `stats`. `scratch` must be empty on entry; on
/// exit `queue` holds the messages that stalled this cycle (in order)
/// and `scratch` is empty again.
#[allow(clippy::too_many_arguments)]
fn route_node_cycle<M>(
    cfg: &MeshConfig,
    cycle: u64,
    node: usize,
    bw: usize,
    queue: &mut VecDeque<InFlight<M>>,
    scratch: &mut VecDeque<InFlight<M>>,
    delivered: &mut Vec<(NodeId, M)>,
    arriving: &mut Vec<(NodeId, InFlight<M>)>,
    stats: &mut MeshStats,
    tracer: &Tracer,
    plane: &'static str,
) {
    debug_assert!(scratch.is_empty());
    let mut budget = [bw; 5];
    while let Some(msg) = queue.pop_front() {
        let dir = cfg.route_dir(msg.at, msg.dst);
        let di = DIRS.iter().position(|&d| d == dir).expect("dir indexed");
        if budget[di] == 0 {
            stats.stalled_cycles += 1;
            tracer.emit(cycle, || TraceEvent::LinkContention { plane, node });
            scratch.push_back(msg);
            continue;
        }
        budget[di] -= 1;
        match dir {
            Dir::Local => {
                stats.delivered += 1;
                let latency = cycle - msg.injected_at;
                stats.total_latency += latency;
                tracer.emit(cycle, || TraceEvent::OperandRouted {
                    plane,
                    src: msg.src.0,
                    dst: msg.dst.0,
                    latency,
                });
                delivered.push((msg.dst, msg.payload));
            }
            _ => {
                stats.link_traversals += 1;
                let next = cfg.neighbor_of(msg.at, dir);
                arriving.push((next, InFlight { at: next, ..msg }));
            }
        }
    }
    std::mem::swap(queue, scratch);
}

/// A deterministic, dimension-order-routed 2-D mesh.
///
/// Each [`Mesh::step`] advances one cycle: every queued message moves at
/// most one hop, subject to per-direction link bandwidth. Messages whose
/// destination equals their source are delivered on the next step without
/// consuming link bandwidth (callers usually bypass the mesh entirely for
/// the local case).
#[derive(Debug)]
pub struct Mesh<M> {
    cfg: MeshConfig,
    /// Per-node queue of messages waiting to be routed.
    queues: Vec<VecDeque<InFlight<M>>>,
    /// Messages that arrive at the *next* step (one-cycle hop latency).
    arriving: Vec<(NodeId, InFlight<M>)>,
    delivered: Vec<(NodeId, M)>,
    cycle: u64,
    next_seq: u64,
    stats: MeshStats,
    tracer: Tracer,
    /// Plane label used in trace events (`"operand"` / `"control"`).
    plane: &'static str,
    /// While `cycle < throttled_until`, every link forwards at most one
    /// message per cycle regardless of configured bandwidth (used by the
    /// fault-injection layer to model contention bursts).
    throttled_until: u64,
    /// Reusable holding deque for messages that stall during a router
    /// cycle, so the hot loop never allocates.
    scratch: VecDeque<InFlight<M>>,
    /// Occupancy bitmask over `queues` (one bit per node, 64 nodes per
    /// word): the router visits only set bits instead of scanning every
    /// queue each cycle. Invariant: bit `n` is set iff `queues[n]` is
    /// non-empty.
    busy: Vec<u64>,
}

impl<M> Mesh<M> {
    /// Creates an idle mesh.
    #[must_use]
    pub fn new(cfg: MeshConfig) -> Self {
        Mesh {
            queues: (0..cfg.nodes()).map(|_| VecDeque::new()).collect(),
            arriving: Vec::new(),
            delivered: Vec::new(),
            cycle: 0,
            next_seq: 0,
            stats: MeshStats::default(),
            tracer: Tracer::off(),
            plane: "operand",
            throttled_until: 0,
            scratch: VecDeque::new(),
            busy: vec![0; cfg.nodes().div_ceil(64)],
            cfg,
        }
    }

    /// Clamps every link to bandwidth 1 for the next `cycles` steps.
    ///
    /// Overlapping throttles extend rather than stack: the mesh stays
    /// throttled until the furthest end point seen. A no-op on meshes
    /// already configured with bandwidth 1.
    pub fn throttle(&mut self, cycles: u64) {
        self.throttled_until = self.throttled_until.max(self.cycle + cycles);
    }

    /// True while a [`Mesh::throttle`] burst is in effect.
    #[must_use]
    pub fn is_throttled(&self) -> bool {
        self.cycle < self.throttled_until
    }

    /// Attaches a tracer; `plane` labels this mesh's events
    /// (`"operand"` or `"control"`).
    pub fn set_tracer(&mut self, tracer: Tracer, plane: &'static str) {
        self.tracer = tracer;
        self.plane = plane;
    }

    /// The mesh configuration.
    #[must_use]
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Accumulated traffic statistics.
    #[must_use]
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }

    /// Injects a message at `src` destined for `dst`; it becomes routable
    /// on the next [`Mesh::step`].
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` lies outside the mesh.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, payload: M) {
        assert!(src.0 < self.cfg.nodes(), "src {src} outside mesh");
        assert!(dst.0 < self.cfg.nodes(), "dst {dst} outside mesh");
        self.stats.injected += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queues[src.0].push_back(InFlight {
            at: src,
            src,
            dst,
            payload,
            injected_at: self.cycle,
            seq,
        });
        self.busy[src.0 / 64] |= 1 << (src.0 % 64);
    }

    /// True if no messages are queued, flying, or awaiting pickup.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.delivered.is_empty() && self.arriving.is_empty() && self.busy.iter().all(|&w| w == 0)
    }

    /// Advances the cycle counter directly to `cycle` without stepping.
    ///
    /// Only legal while the mesh is idle: stepping an idle mesh is a
    /// pure cycle-counter increment (no routing, no stats, no traffic),
    /// so an event-driven owner may jump the counter over any number of
    /// idle cycles and remain bit-identical to a stepped run.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the mesh has in-flight traffic or `cycle`
    /// moves backwards.
    pub fn skip_to(&mut self, cycle: u64) {
        debug_assert!(self.is_idle(), "cannot skip over in-flight messages");
        debug_assert!(cycle >= self.cycle, "mesh cycle cannot move backwards");
        self.cycle = cycle;
    }

    /// Next hop direction under X-then-Y dimension-order routing.
    #[cfg(test)]
    fn route(&self, at: NodeId, dst: NodeId) -> Dir {
        self.cfg.route_dir(at, dst)
    }

    /// Advances the mesh by one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;

        // Fast path: nothing queued anywhere means routing is a no-op
        // (`arriving` is always drained at the end of the previous
        // step). The cycle counter still advances.
        if self.busy.iter().all(|&w| w == 0) {
            debug_assert!(self.arriving.is_empty());
            debug_assert!(self.queues.iter().all(VecDeque::is_empty));
            return;
        }

        // Each router forwards up to `link_bandwidth` messages per output
        // direction, in FIFO order (stable by sequence number).
        let bw = if self.cycle <= self.throttled_until && self.throttled_until != 0 {
            self.cfg.link_bandwidth.min(1)
        } else {
            self.cfg.link_bandwidth
        };
        // Visit only occupied queues, in ascending node order (word
        // order, then bit order — identical to the full scan).
        for i in 0..self.busy.len() {
            let mut word = self.busy[i];
            while word != 0 {
                let node = i * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                route_node_cycle(
                    &self.cfg,
                    self.cycle,
                    node,
                    bw,
                    &mut self.queues[node],
                    &mut self.scratch,
                    &mut self.delivered,
                    &mut self.arriving,
                    &mut self.stats,
                    &self.tracer,
                    self.plane,
                );
                if self.queues[node].is_empty() {
                    self.busy[i] &= !(1 << (node % 64));
                }
            }
        }

        // Hop latency: forwarded messages are routable next cycle. The
        // buffer is drained rather than consumed so its capacity is
        // reused across cycles.
        let mut arriving = std::mem::take(&mut self.arriving);
        arriving.sort_by_key(|(_, m)| m.seq);
        for (node, msg) in arriving.drain(..) {
            self.queues[node.0].push_back(msg);
            self.busy[node.0 / 64] |= 1 << (node.0 % 64);
        }
        self.arriving = arriving;
    }

    /// Removes and returns all messages delivered by previous steps.
    pub fn drain_delivered(&mut self) -> Vec<(NodeId, M)> {
        std::mem::take(&mut self.delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MeshConfig {
        MeshConfig {
            width: 4,
            height: 4,
            link_bandwidth: 1,
        }
    }

    fn run_until_delivered(mesh: &mut Mesh<u32>, max: usize) -> Vec<(NodeId, u32, u64)> {
        let mut out = Vec::new();
        for cycle in 1..=max as u64 {
            mesh.step();
            for (n, p) in mesh.drain_delivered() {
                out.push((n, p, cycle));
            }
        }
        out
    }

    #[test]
    fn hop_count_matches_manhattan_distance() {
        let cfg = small();
        // node 0 = (0,0), node 15 = (3,3): 6 hops + 1 delivery cycle.
        let mut mesh = Mesh::new(cfg);
        mesh.inject(NodeId(0), NodeId(15), 7);
        let out = run_until_delivered(&mut mesh, 20);
        assert_eq!(out, vec![(NodeId(15), 7, 7)]);
        assert_eq!(cfg.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(mesh.stats().link_traversals, 6);
    }

    #[test]
    fn local_message_delivered_next_cycle() {
        let mut mesh = Mesh::new(small());
        mesh.inject(NodeId(5), NodeId(5), 1);
        let out = run_until_delivered(&mut mesh, 3);
        assert_eq!(out, vec![(NodeId(5), 1, 1)]);
        assert_eq!(mesh.stats().link_traversals, 0);
    }

    #[test]
    fn route_nodes_matches_dimension_order_walk() {
        let cfg = small();
        // (0,0) -> (2,1): X first (E, E), then Y (S).
        assert_eq!(
            cfg.route_nodes(NodeId(0), NodeId(6)),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(6)]
        );
        // Westward + northward.
        assert_eq!(
            cfg.route_nodes(NodeId(6), NodeId(1)),
            vec![NodeId(6), NodeId(5), NodeId(1)]
        );
        // Self route is the single node.
        assert_eq!(cfg.route_nodes(NodeId(9), NodeId(9)), vec![NodeId(9)]);
        // Path length always hops + 1.
        for a in 0..cfg.nodes() {
            for b in 0..cfg.nodes() {
                let path = cfg.route_nodes(NodeId(a), NodeId(b));
                assert_eq!(path.len(), cfg.hops(NodeId(a), NodeId(b)) + 1);
            }
        }
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let cfg = small();
        let mut mesh: Mesh<()> = Mesh::new(cfg);
        // (0,0) -> (2,1): route should be E, E, S.
        assert_eq!(mesh.route(NodeId(0), NodeId(6)), Dir::East);
        assert_eq!(mesh.route(NodeId(2), NodeId(6)), Dir::South);
        assert_eq!(mesh.route(NodeId(6), NodeId(6)), Dir::Local);
        mesh.inject(NodeId(0), NodeId(6), ());
        for _ in 0..10 {
            mesh.step();
        }
        assert_eq!(mesh.drain_delivered().len(), 1);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Two messages from node 0 heading east must share the E link:
        // second is delayed by one cycle.
        let mut mesh = Mesh::new(small());
        mesh.inject(NodeId(0), NodeId(3), 1);
        mesh.inject(NodeId(0), NodeId(3), 2);
        let out = run_until_delivered(&mut mesh, 20);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].2 + 1, out[1].2, "second message one cycle later");
        assert!(mesh.stats().stalled_cycles > 0);
    }

    #[test]
    fn double_bandwidth_removes_pairwise_contention() {
        let mut cfg = small();
        cfg.link_bandwidth = 2;
        let mut mesh = Mesh::new(cfg);
        mesh.inject(NodeId(0), NodeId(3), 1);
        mesh.inject(NodeId(0), NodeId(3), 2);
        let out = run_until_delivered(&mut mesh, 20);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].2, out[1].2, "both arrive together at bw=2");
    }

    #[test]
    fn fifo_order_preserved_between_same_pair() {
        let mut mesh = Mesh::new(small());
        for i in 0..5 {
            mesh.inject(NodeId(1), NodeId(14), i);
        }
        let out = run_until_delivered(&mut mesh, 40);
        let payloads: Vec<u32> = out.iter().map(|&(_, p, _)| p).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn idle_detection() {
        let mut mesh = Mesh::new(small());
        assert!(mesh.is_idle());
        mesh.inject(NodeId(0), NodeId(1), 9);
        assert!(!mesh.is_idle());
        let _ = run_until_delivered(&mut mesh, 10);
        assert!(mesh.is_idle());
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn inject_out_of_range_panics() {
        let mut mesh: Mesh<()> = Mesh::new(small());
        mesh.inject(NodeId(99), NodeId(0), ());
    }

    #[test]
    fn throttle_degrades_double_bandwidth_to_single() {
        let mut cfg = small();
        cfg.link_bandwidth = 2;
        let mut mesh = Mesh::new(cfg);
        mesh.throttle(20);
        assert!(mesh.is_throttled());
        mesh.inject(NodeId(0), NodeId(3), 1);
        mesh.inject(NodeId(0), NodeId(3), 2);
        let out = run_until_delivered(&mut mesh, 20);
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0].2 + 1,
            out[1].2,
            "throttled bw=2 behaves like bw=1: second message one cycle later"
        );
    }

    #[test]
    fn throttle_expires() {
        let mut cfg = small();
        cfg.link_bandwidth = 2;
        let mut mesh = Mesh::new(cfg);
        mesh.throttle(2);
        for _ in 0..3 {
            mesh.step();
        }
        assert!(!mesh.is_throttled());
        mesh.inject(NodeId(0), NodeId(3), 1);
        mesh.inject(NodeId(0), NodeId(3), 2);
        let out = run_until_delivered(&mut mesh, 20);
        assert_eq!(out[0].2, out[1].2, "full bandwidth restored after burst");
    }

    #[test]
    fn stats_track_latency() {
        let mut mesh = Mesh::new(small());
        mesh.inject(NodeId(0), NodeId(1), 0);
        let _ = run_until_delivered(&mut mesh, 10);
        let s = mesh.stats();
        assert_eq!(s.injected, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.total_latency, 2); // 1 hop + 1 delivery cycle
        assert!((s.avg_latency() - 2.0).abs() < 1e-9);
    }
}
