//! The cycle-stepped mesh network model.

use crate::region::Coord;
use crate::stats::MeshStats;
use clp_obs::{TraceEvent, Tracer};
use serde::{Deserialize, Serialize};
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

/// What stays put while a message is in flight: parked once in the
/// slab at injection and taken out at delivery.
#[derive(Debug)]
struct Parked<M> {
    payload: M,
    src: u16,
    injected_at: u64,
}

/// What moves: a 16-byte handle through router queues and the staging
/// lists between them. The router holding it is the one whose queue or
/// list it is in.
#[derive(Clone, Copy, Debug)]
struct Handle {
    seq: u64,
    slot: u32,
    dst: u16,
}

/// One `(at, dst)` entry of the routing table: the output direction
/// and the router that direction leads to.
#[derive(Clone, Copy, Debug)]
struct Hop {
    dir: Dir,
    next: u16,
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
    /// `nodes x nodes` next-hop table indexed `at * nodes + dst`, filled
    /// once from [`MeshConfig::route_dir`] / [`MeshConfig::neighbor_of`]
    /// (the single definition of X-then-Y routing).
    hops: Vec<Hop>,
    /// In-flight payloads; `None` slots are on `free`.
    slab: Vec<Option<Parked<M>>>,
    free: Vec<u32>,
    /// Per-node queue of messages waiting to be routed, oldest first.
    queues: Vec<Vec<Handle>>,
    /// Per-node handles forwarded to that router during the current
    /// step, routable from the next one (one-cycle hop latency). Filled
    /// in router-visit order; the end of [`Mesh::step`] puts each list
    /// in `seq` order, appends it to the node's queue and leaves it
    /// empty, so between steps every list is empty.
    staging: Vec<Vec<Handle>>,
    /// Bitmask over `staging`, laid out like `busy`. Invariant: bit `n`
    /// is set iff `staging[n]` is non-empty.
    staged: Vec<u64>,
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
    /// Occupancy bitmask over `queues` (one bit per node, 64 nodes per
    /// word): the router visits only set bits instead of scanning every
    /// queue each cycle. Invariant: bit `n` is set iff `queues[n]` is
    /// non-empty.
    busy: Vec<u64>,
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
        let hops = (0..nodes * nodes)
            .map(|i| {
                let (at, dst) = (NodeId(i / nodes), NodeId(i % nodes));
                let dir = cfg.route_dir(at, dst);
                Hop {
                    dir,
                    next: cfg.neighbor_of(at, dir).0 as u16,
                }
            })
            .collect();
        Mesh {
            hops,
            slab: Vec::new(),
            free: Vec::new(),
            queues: vec![Vec::new(); nodes],
            staging: vec![Vec::new(); nodes],
            staged: vec![0; nodes.div_ceil(64)],
            delivered: Vec::new(),
            cycle: 0,
            next_seq: 0,
            stats: MeshStats::default(),
            tracer: Tracer::off(),
            plane: "operand",
            throttled_until: 0,
            busy: vec![0; nodes.div_ceil(64)],
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
        self.queues[src.0].push(Handle {
            seq,
            slot,
            dst: dst.0 as u16,
        });
        self.busy[src.0 / 64] |= 1 << (src.0 % 64);
    }

    /// True if no messages are queued, flying, or awaiting pickup.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.delivered.is_empty() && self.busy.iter().all(|&w| w == 0)
    }

    /// One router's work for one cycle: walks `queues[node]` in FIFO
    /// order under a per-direction budget of `bw`, delivering local
    /// messages and moving each forwarded handle to the staging list of
    /// its next router. Messages that stall compact down to the front
    /// of the queue, in order.
    fn route_node_cycle(&mut self, node: usize, bw: usize) {
        let nodes = self.cfg.nodes();
        let (cycle, plane) = (self.cycle, self.plane);
        let hops = &self.hops[node * nodes..][..nodes];
        let queue = &mut self.queues[node];
        let mut budget = [bw; 5];
        let mut stalled = 0;
        for i in 0..queue.len() {
            let h = queue[i];
            let hop = hops[usize::from(h.dst)];
            let di = hop.dir as usize;
            if budget[di] == 0 {
                self.stats.stalled_cycles += 1;
                self.tracer
                    .emit(cycle, || TraceEvent::LinkContention { plane, node });
                queue[stalled] = h;
                stalled += 1;
                continue;
            }
            budget[di] -= 1;
            if hop.dir == Dir::Local {
                let msg = self.slab[h.slot as usize].take().expect("live slot");
                self.free.push(h.slot);
                self.stats.delivered += 1;
                let latency = cycle - msg.injected_at;
                self.stats.total_latency += latency;
                self.tracer.emit(cycle, || TraceEvent::OperandRouted {
                    plane,
                    src: usize::from(msg.src),
                    dst: node,
                    latency,
                });
                self.delivered.push((NodeId(node), msg.payload));
            } else {
                self.stats.link_traversals += 1;
                let next = usize::from(hop.next);
                self.staging[next].push(h);
                self.staged[next / 64] |= 1 << (next % 64);
            }
        }
        queue.truncate(stalled);
    }

    /// Advances the mesh by one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;

        // Fast path: nothing queued anywhere means routing is a no-op
        // (the staging lists are always drained at the end of the
        // previous step). The cycle counter still advances.
        if self.busy.iter().all(|&w| w == 0) {
            debug_assert!(self.staged.iter().all(|&w| w == 0));
            debug_assert!(self.queues.iter().all(Vec::is_empty));
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
                self.route_node_cycle(node, bw);
                if self.queues[node].is_empty() {
                    self.busy[i] &= !(1 << (node % 64));
                }
            }
        }

        // Hop latency: forwarded messages are routable next cycle. Each
        // router's arrivals (at most `4 * bw`, one list per router) join
        // its queue in injection order — the order a `seq` sort of the
        // whole cycle's traffic would give that queue. `seq` is unique,
        // so the unstable sort is deterministic; a lone arrival needs
        // none.
        for i in 0..self.staged.len() {
            let mut word = std::mem::take(&mut self.staged[i]);
            self.busy[i] |= word;
            while word != 0 {
                let node = i * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let arrivals = &mut self.staging[node];
                if arrivals.len() > 1 {
                    arrivals.sort_unstable_by_key(|h| h.seq);
                }
                self.queues[node].extend_from_slice(arrivals);
                arrivals.clear();
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
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

    /// Panics unless the derived state matches what it summarises: busy
    /// bit set iff the queue is non-empty, staged bit set iff the staging
    /// list is non-empty — and, between steps, no list is — every handle
    /// names its own live slab slot, and live slots equal queued handles.
    #[cfg(any(test, debug_assertions))]
    fn check_invariants(&self) {
        let mut seen = vec![false; self.slab.len()];
        let mut handles = 0;
        for (node, q) in self.queues.iter().enumerate() {
            let bit = self.busy[node / 64] >> (node % 64) & 1 == 1;
            assert_eq!(bit, !q.is_empty(), "busy bit of node {node}");
        }
        for (node, list) in self.staging.iter().enumerate() {
            let bit = self.staged[node / 64] >> (node % 64) & 1 == 1;
            assert_eq!(bit, !list.is_empty(), "staged bit of node {node}");
            assert!(list.is_empty(), "staging list of node {node} not merged");
        }
        for h in self.queues.iter().flatten() {
            assert!(self.slab[h.slot as usize].is_some(), "handle to free slot");
            assert!(!std::mem::replace(&mut seen[h.slot as usize], true));
            handles += 1;
        }
        let live = self.slab.iter().filter(|s| s.is_some()).count();
        assert_eq!(live, handles, "live slots vs handles in flight");
        assert_eq!(live + self.free.len(), self.slab.len(), "free list");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The router written the obvious way: whole messages in per-node
    /// queues, `route_dir` / `neighbor_of` re-derived on every hop. The
    /// differential test below holds [`Mesh`] to this, cycle for cycle.
    struct RefMsg {
        dst: usize,
        payload: u32,
        injected_at: u64,
        seq: u64,
    }

    struct RefMesh {
        cfg: MeshConfig,
        queues: Vec<VecDeque<RefMsg>>,
        cycle: u64,
        next_seq: u64,
        throttled_until: u64,
        stats: MeshStats,
    }

    impl RefMesh {
        fn inject(&mut self, src: usize, dst: usize, payload: u32) {
            self.stats.injected += 1;
            self.queues[src].push_back(RefMsg {
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
            let throttled = self.throttled_until != 0 && self.cycle <= self.throttled_until;
            let bw = self
                .cfg
                .link_bandwidth
                .min(if throttled { 1 } else { usize::MAX });
            let (mut delivered, mut arriving) = (Vec::new(), Vec::new());
            for node in 0..self.queues.len() {
                let mut budget = [bw; 5];
                let mut stalled = VecDeque::new();
                for msg in std::mem::take(&mut self.queues[node]) {
                    let dir = self.cfg.route_dir(NodeId(node), NodeId(msg.dst));
                    if budget[dir as usize] == 0 {
                        self.stats.stalled_cycles += 1;
                        stalled.push_back(msg);
                    } else if dir == Dir::Local {
                        budget[dir as usize] -= 1;
                        self.stats.delivered += 1;
                        self.stats.total_latency += self.cycle - msg.injected_at;
                        delivered.push((node, msg.payload));
                    } else {
                        budget[dir as usize] -= 1;
                        self.stats.link_traversals += 1;
                        arriving.push((self.cfg.neighbor_of(NodeId(node), dir).0, msg));
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
        /// Random injection schedules with throttle bursts on the 4x8
        /// mesh at bandwidth 1 and 2: the same `(cycle, node, payload)`
        /// delivery sequence and the same `MeshStats` as the reference
        /// router, invariants intact every cycle, slab empty once idle.
        ///
        /// Every case opens with the neighbours of `hub` (three or four:
        /// the hub is off the top and bottom rows) each sending it one
        /// message, the highest node first. Routers run in ascending
        /// node order, so the hub's arrivals are staged in descending
        /// `seq` and only the per-destination sort restores injection
        /// order; the hub's local-delivery budget then spreads them over
        /// cycles in that order, where the comparison sees it.
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
            let senders = converging.len();
            prop_assert!(senders >= 3);
            let mut schedule = schedule;
            converging.append(&mut schedule[0].0);
            schedule[0].0 = converging;
            let mut mesh: Mesh<u32> = Mesh::new(cfg);
            let mut reference = RefMesh {
                cfg,
                queues: (0..cfg.nodes()).map(|_| VecDeque::new()).collect(),
                cycle: 0,
                next_seq: 0,
                throttled_until: 0,
                stats: MeshStats::default(),
            };
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
                mesh.check_invariants();
                if cycle == 1 {
                    let opening = mesh.queues[hub].iter().map(|h| h.seq);
                    let opening: Vec<u64> = opening.filter(|&s| s < senders as u64).collect();
                    let injected: Vec<u64> = (0..senders as u64).collect();
                    prop_assert_eq!(opening, injected, "all arrived, merged by seq");
                }
                got.extend(mesh.drain_delivered().into_iter().map(|(n, p)| (cycle, n.0, p)));
                want.extend(reference.step().into_iter().map(|(n, p)| (cycle, n, p)));
                prop_assert!(cycle < 10_000, "mesh must drain");
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(*mesh.stats(), reference.stats);
            prop_assert!(reference.queues.iter().all(VecDeque::is_empty));
            prop_assert!(mesh.slab.iter().all(Option::is_none), "slab drained");
            prop_assert_eq!(mesh.free.len(), mesh.slab.len());
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
}
