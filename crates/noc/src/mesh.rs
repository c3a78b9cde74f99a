//! The cycle-stepped mesh network model.

use crate::region::Coord;
use crate::stats::MeshStats;
use clp_obs::{TraceEvent, Tracer};
use std::fmt;

/// Identifies a mesh node (a TFlex core).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// Mesh geometry and link parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

    /// Number of nodes in the mesh.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.width * self.height
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
    #[inline]
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
        crate::region::rect_walk(a.0, b.0, self.width)
            .map(NodeId)
            .collect()
    }

    /// The links of [`Self::route_nodes`]' path from `a` to `b`, as
    /// `(from, to)` hops in order, walked without building the path.
    /// `a == b` yields none.
    pub fn route_links(&self, a: NodeId, b: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> {
        assert!(a.0 < self.nodes(), "node {a} outside mesh");
        assert!(b.0 < self.nodes(), "node {b} outside mesh");
        crate::region::rect_links(a.0, b.0, self.width).map(|(x, y)| (NodeId(x), NodeId(y)))
    }

    /// Next hop direction under X-then-Y dimension-order routing: the
    /// per-pair statement of the rule that [`hop_table`] tabulates, and
    /// that its test holds it to.
    #[cfg(test)]
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

    /// The router one hop from `at` in direction `dir`.
    #[cfg(test)]
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

/// What stays put while a message is in flight: parked once in the
/// slab at injection and taken out at delivery.
#[derive(Debug)]
struct Parked<M> {
    payload: M,
    src: u16,
    injected_at: u64,
}

/// What moves: a 16-byte entry of the flight list, naming the router
/// `at` that holds the message and the slab slot that parks it.
#[derive(Clone, Copy, Debug)]
struct Flight {
    seq: u64,
    slot: u32,
    at: u16,
    dst: u16,
}

/// One `(at, dst)` entry of the routing table: the output direction
/// and the router that direction leads to.
#[derive(Clone, Copy, Debug)]
struct Hop {
    dir: Dir,
    next: u16,
}

/// The `nodes x nodes` next-hop table of X-then-Y routing, indexed
/// `at * nodes + dst`, by coordinates: the entry
/// [`MeshConfig::route_dir`] and [`MeshConfig::neighbor_of`] give for
/// each pair (`hop_table_is_the_routing_definition`), without their
/// per-call range checks and divisions.
fn hop_table(cfg: &MeshConfig) -> Vec<Hop> {
    let (w, h) = (cfg.width, cfg.height);
    let mut hops = Vec::with_capacity(cfg.nodes() * cfg.nodes());
    for at in 0..w * h {
        let (ax, ay) = (at % w, at / w);
        for dy in 0..h {
            for dx in 0..w {
                let (dir, next) = if ax < dx {
                    (Dir::East, at + 1)
                } else if ax > dx {
                    (Dir::West, at - 1)
                } else if ay < dy {
                    (Dir::South, at + w)
                } else if ay > dy {
                    (Dir::North, at - w)
                } else {
                    (Dir::Local, at)
                };
                hops.push(Hop {
                    dir,
                    next: next as u16,
                });
            }
        }
    }
    hops
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
    /// `nodes x nodes` next-hop table indexed `at * nodes + dst`: X-then-Y
    /// routing as [`MeshConfig::route_dir`] / [`MeshConfig::neighbor_of`]
    /// define it, filled once by [`hop_table`].
    hops: Vec<Hop>,
    /// In-flight payloads; `None` slots are on `free`.
    slab: Vec<Option<Parked<M>>>,
    free: Vec<u32>,
    /// Every message in flight, in the order its router serves it: by
    /// the cycle it became routable at the router it is at, then by
    /// `seq`. Read in list order, one router's flights are its queue.
    /// Nothing sorts the list: [`Mesh::step`] leaves stalled flights in
    /// place and puts the forwarded ones, routable a cycle after any
    /// flight left behind, after them in `seq` order; [`Mesh::inject`]
    /// appends a `seq` higher than every other.
    flights: Vec<Flight>,
    /// The flights [`Mesh::step`] forwards, until it appends them to
    /// `flights`; empty between steps.
    moved: Vec<Flight>,
    /// Messages each router has sent per output direction in the
    /// current step.
    sent: Vec<[u32; 5]>,
    /// The current step's trace events, buffered only while a tracer is
    /// attached, and kept at 32 bytes until emitted (a [`TraceEvent`] is
    /// 128): the router, then `None` for a `LinkContention` there or the
    /// `(src, latency)` of an `OperandRouted`. Empty between steps.
    events: Vec<(u16, Option<(u16, u64)>)>,
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
}

impl<M> Mesh<M> {
    /// Creates an idle mesh.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has more than `u16::MAX` nodes.
    #[must_use]
    pub fn new(cfg: MeshConfig) -> Self {
        let nodes = cfg.nodes();
        assert!(nodes <= usize::from(u16::MAX), "mesh too large");
        Mesh {
            hops: hop_table(&cfg),
            slab: Vec::new(),
            free: Vec::new(),
            flights: Vec::new(),
            moved: Vec::new(),
            sent: vec![[0; 5]; nodes],
            events: Vec::new(),
            delivered: Vec::new(),
            cycle: 0,
            next_seq: 0,
            stats: MeshStats::default(),
            tracer: Tracer::off(),
            plane: "operand",
            throttled_until: 0,
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
        let parked = Some(Parked {
            payload,
            src: src.0 as u16,
            injected_at: self.cycle,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = parked;
                slot
            }
            None => {
                self.slab.push(parked);
                (self.slab.len() - 1) as u32
            }
        };
        self.flights.push(Flight {
            seq,
            slot,
            at: src.0 as u16,
            dst: dst.0 as u16,
        });
    }

    /// True if no messages are queued, flying, or awaiting pickup.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.delivered.is_empty() && self.flights.is_empty()
    }

    /// Advances the mesh by one cycle.
    ///
    /// One pass over the flight list, which is every router's queue at
    /// once: each router forwards up to `link_bandwidth` messages per
    /// output direction, oldest-routable first and then in injection
    /// order, and the rest stall where they are.
    pub fn step(&mut self) {
        self.cycle += 1;
        if self.flights.is_empty() {
            return;
        }

        let bw = if self.cycle <= self.throttled_until && self.throttled_until != 0 {
            self.cfg.link_bandwidth.min(1)
        } else {
            self.cfg.link_bandwidth
        };
        let (cycle, plane, nodes) = (self.cycle, self.plane, self.cfg.nodes());
        let tracing = self.tracer.enabled();
        let first_delivery = self.delivered.len();
        self.sent.fill([0; 5]);
        let mut stalled = 0;
        for i in 0..self.flights.len() {
            let mut f = self.flights[i];
            let at = usize::from(f.at);
            let hop = self.hops[at * nodes + usize::from(f.dst)];
            let sent = &mut self.sent[at][hop.dir as usize];
            if *sent as usize >= bw {
                self.stats.stalled_cycles += 1;
                if tracing {
                    self.events.push((f.at, None));
                }
                self.flights[stalled] = f;
                stalled += 1;
                continue;
            }
            *sent += 1;
            if hop.dir == Dir::Local {
                let msg = self.slab[f.slot as usize].take().expect("live slot");
                self.free.push(f.slot);
                self.stats.delivered += 1;
                let latency = cycle - msg.injected_at;
                self.stats.total_latency += latency;
                if tracing {
                    self.events.push((f.at, Some((msg.src, latency))));
                }
                self.delivered.push((NodeId(at), msg.payload));
            } else {
                self.stats.link_traversals += 1;
                f.at = hop.next;
                self.moved.push(f);
            }
        }

        // Hop latency: forwarded flights are routable next cycle, so they
        // join behind every stalled one, in `seq` order (unique, so the
        // unstable sort is deterministic). Most cycles they already are.
        self.flights.truncate(stalled);
        if !self.moved.is_sorted_by_key(|f| f.seq) {
            self.moved.sort_unstable_by_key(|f| f.seq);
        }
        self.flights.append(&mut self.moved);

        // Deliveries and events come out router by router in ascending
        // node order, each router's in its queue order: a stable sort by
        // node of what the pass met in list order.
        let delivered = &mut self.delivered[first_delivery..];
        if !delivered.is_sorted_by_key(|d| d.0) {
            delivered.sort_by_key(|d| d.0);
        }
        if tracing {
            if !self.events.is_sorted_by_key(|e| e.0) {
                self.events.sort_by_key(|e| e.0);
            }
            for (node, routed) in self.events.drain(..) {
                let node = usize::from(node);
                self.tracer.emit(cycle, || match routed {
                    None => TraceEvent::LinkContention { plane, node },
                    Some((src, latency)) => TraceEvent::OperandRouted {
                        plane,
                        src: usize::from(src),
                        dst: node,
                        latency,
                    },
                });
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Whether messages await pickup: exactly when
    /// [`Mesh::drain_delivered`] would return some. The caller's
    /// no-work test.
    #[must_use]
    #[inline]
    pub fn has_delivered(&self) -> bool {
        !self.delivered.is_empty()
    }

    /// Removes and returns all messages delivered by previous steps.
    pub fn drain_delivered(&mut self) -> Vec<(NodeId, M)> {
        std::mem::take(&mut self.delivered)
    }

    /// Like [`Mesh::drain_delivered`], but exchanges buffers instead of
    /// giving one away: the delivered messages land in `buf` and the mesh
    /// keeps `buf`'s allocation, so a per-cycle caller never allocates.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `buf` is not empty.
    pub fn swap_delivered(&mut self, buf: &mut Vec<(NodeId, M)>) {
        debug_assert!(buf.is_empty(), "swap_delivered needs an empty buffer");
        std::mem::swap(&mut self.delivered, buf);
    }

    /// Panics unless the slab matches the flight list: every flight
    /// names a distinct live slot, live slots equal flights (so the slab
    /// is empty when the list is), and live and free slots make up the
    /// slab.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        let mut seen = vec![false; self.slab.len()];
        for f in &self.flights {
            let slot = f.slot as usize;
            assert!(self.slab[slot].is_some(), "flight names a free slot");
            assert!(
                !std::mem::replace(&mut seen[slot], true),
                "slot {slot} in two flights"
            );
        }
        let live = self.slab.iter().filter(|s| s.is_some()).count();
        assert_eq!(live, self.flights.len(), "live slots vs flights");
        assert_eq!(live + self.free.len(), self.slab.len(), "free list");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MeshConfig {
        /// The coordinates of `node`: what the test-only routing rule
        /// ([`MeshConfig::route_dir`]) and the region tests reason in.
        ///
        /// # Panics
        ///
        /// Panics if `node` is out of range.
        pub(crate) fn coord(&self, node: NodeId) -> Coord {
            assert!(node.0 < self.nodes(), "node {node} outside mesh");
            Coord {
                x: node.0 % self.width,
                y: node.0 / self.width,
            }
        }
    }

    impl<M> Mesh<M> {
        /// True while a [`Mesh::throttle`] burst is in effect.
        fn is_throttled(&self) -> bool {
            self.cycle < self.throttled_until
        }
    }

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
    fn hop_table_is_the_routing_definition() {
        for cfg in [
            MeshConfig::tflex_operand(),
            MeshConfig::trips_operand(),
            small(),
        ] {
            let mesh: Mesh<()> = Mesh::new(cfg);
            let nodes = cfg.nodes();
            assert_eq!(mesh.hops.len(), nodes * nodes);
            for (i, hop) in mesh.hops.iter().enumerate() {
                let (at, dst) = (NodeId(i / nodes), NodeId(i % nodes));
                let dir = cfg.route_dir(at, dst);
                assert_eq!(hop.dir, dir, "{at} -> {dst}");
                assert_eq!(
                    usize::from(hop.next),
                    cfg.neighbor_of(at, dir).0,
                    "{at} -> {dst}"
                );
            }
        }
    }

    #[test]
    fn delivered_check_agrees_with_drain() {
        // Local, one-hop and contended messages, injected on a few
        // cycles: after every step the check names exactly the steps
        // whose drain hands something over.
        let mut mesh = Mesh::new(small());
        let mut seen = 0;
        for cycle in 0..32u32 {
            if cycle % 5 == 0 && cycle < 20 {
                mesh.inject(NodeId(0), NodeId(15), cycle);
                mesh.inject(NodeId(0), NodeId(3), cycle);
                mesh.inject(NodeId(6), NodeId(6), cycle);
            }
            mesh.step();
            let pending = mesh.has_delivered();
            let got = mesh.drain_delivered();
            assert_eq!(pending, !got.is_empty(), "step {cycle}");
            assert!(!mesh.has_delivered());
            seen += got.len();
        }
        assert_eq!(seen, 12);
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
        assert_eq!(cfg.route_dir(NodeId(0), NodeId(6)), Dir::East);
        assert_eq!(cfg.route_dir(NodeId(2), NodeId(6)), Dir::South);
        assert_eq!(cfg.route_dir(NodeId(6), NodeId(6)), Dir::Local);
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

    #[test]
    fn earlier_routable_beats_older_seq_at_a_shared_router() {
        // Row 0 at bandwidth 1. A (seq 0) starts three hops from node 3;
        // a cycle later X and B (seq 1, 2) start one hop away at node 2,
        // where X takes the east link and B stalls. When A reaches node
        // 2, B has been routable there a cycle longer and goes first:
        // priority is oldest-routable, not lowest `seq`.
        let mut mesh = Mesh::new(small());
        mesh.inject(NodeId(0), NodeId(3), 0);
        mesh.step();
        mesh.inject(NodeId(2), NodeId(3), 1);
        mesh.inject(NodeId(2), NodeId(3), 2);
        // Cycles counted from the second step: X at 3, B at 4, A at 5.
        let out: Vec<(u32, u64)> = run_until_delivered(&mut mesh, 10)
            .into_iter()
            .map(|(_, p, c)| (p, c))
            .collect();
        assert_eq!(out, vec![(1, 2), (2, 3), (0, 4)]);
        assert_eq!(mesh.stats().stalled_cycles, 2, "B once at node 2, then A");
    }

    #[test]
    fn one_cycles_deliveries_come_out_in_node_order() {
        // All three are routable at their own node on step 1, and the
        // list meets them as node 9, 2, 9; node 9 delivers both at
        // bandwidth 2, in list order.
        let mut cfg = small();
        cfg.link_bandwidth = 2;
        let mut mesh = Mesh::new(cfg);
        mesh.inject(NodeId(9), NodeId(9), 0);
        mesh.inject(NodeId(2), NodeId(2), 1);
        mesh.inject(NodeId(9), NodeId(9), 2);
        mesh.step();
        let out = mesh.drain_delivered();
        assert_eq!(out, vec![(NodeId(2), 1), (NodeId(9), 0), (NodeId(9), 2)]);
    }
}
