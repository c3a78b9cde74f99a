//! # clp-noc — two-dimensional mesh on-chip networks
//!
//! TFlex cores are connected by point-to-point 2-D mesh networks: an
//! *operand network* carrying dataflow operands between composed cores
//! (one cycle per hop, with the paper's doubled bandwidth as a config
//! option) and a *control network* carrying the distributed protocol
//! messages (fetch commands, commit handshakes, flushes, predictor
//! hand-offs).
//!
//! [`Mesh`] is a deterministic, cycle-stepped, dimension-order-routed
//! (X then Y) mesh, generic over the message payload. Contention is
//! modelled at link granularity: each router may forward at most
//! [`MeshConfig::link_bandwidth`] messages per output direction per cycle.
//! Priority is per router output: the message that has been routable at
//! that router longest goes first, ties going to the one injected first;
//! the rest wait where they are.
//!
//! ```
//! use clp_noc::{Mesh, MeshConfig, NodeId};
//!
//! let mut mesh: Mesh<&'static str> = Mesh::new(MeshConfig::tflex_operand());
//! mesh.inject(NodeId(0), NodeId(5), "hello");
//! let mut delivered = Vec::new();
//! for _ in 0..10 {
//!     mesh.step();
//!     delivered.extend(mesh.drain_delivered());
//! }
//! assert_eq!(delivered, vec![(NodeId(5), "hello")]);
//! ```

#![warn(missing_docs)]

mod mesh;
mod region;
mod stats;

pub use mesh::{Mesh, MeshConfig, NodeId};
pub use region::{rect_hops, rect_links, region_for, region_rect, Coord, RegionError};
pub use stats::MeshStats;
