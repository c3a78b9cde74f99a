//! Rectangular composition regions on the core-array mesh.
//!
//! A logical processor composed of N cores occupies a contiguous
//! rectangle of the core array, which keeps worst-case operand-routing
//! distances minimal. These helpers compute the standard tiling used by
//! the TFlex experiments: the 4-column x 8-row array is divided into
//! equal power-of-two rectangles.

use crate::mesh::{MeshConfig, NodeId};
use std::fmt;

/// A position on the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column.
    pub x: usize,
    /// Row.
    pub y: usize,
}

/// Failure to carve a composition region out of the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionError {
    /// The requested core count is not a power of two between 1 and the
    /// mesh size.
    BadCoreCount(usize),
    /// The requested region index does not fit on the mesh.
    OutOfRange {
        /// Requested region index.
        index: usize,
        /// Number of regions of this size that fit.
        available: usize,
    },
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::BadCoreCount(n) => {
                write!(f, "{n} is not a valid composition size")
            }
            RegionError::OutOfRange { index, available } => {
                write!(f, "region {index} requested but only {available} fit")
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// Manhattan hop distance between two slots of a row-major rectangle
/// of width `rect_w`.
///
/// This is *the* route-length definition for every layer that reasons
/// about operand traffic: the X-Y mesh router ([`MeshConfig::hops`]),
/// the placement lints, and the clp-bound static analyzer all call this
/// one helper, so they can never disagree on how far a message travels.
/// Slot indices are row-major (`x = slot % rect_w`, `y = slot / rect_w`),
/// which matches both whole-mesh node IDs and the instruction-slot
/// layout inside a composition rectangle.
///
/// # Panics
///
/// Panics if `rect_w` is zero.
#[must_use]
pub fn rect_hops(a: usize, b: usize, rect_w: usize) -> usize {
    assert!(rect_w > 0, "zero-width rectangle");
    let (ax, ay) = (a % rect_w, a / rect_w);
    let (bx, by) = (b % rect_w, b / rect_w);
    ax.abs_diff(bx) + ay.abs_diff(by)
}

/// The inclusive slot path a message takes from `a` to `b` under
/// X-then-Y dimension-order routing in a row-major rectangle of width
/// `rect_w` — the same walk [`crate::Mesh::step`] performs hop by hop,
/// expressed over slot indices so per-link attribution can be computed
/// without materializing a mesh. `a == b` yields the single-slot path;
/// otherwise the path has [`rect_hops`]` + 1` entries.
///
/// This is the one definition of the route: [`MeshConfig::route_nodes`]
/// collects it, and [`rect_links`] pairs it up.
///
/// # Panics
///
/// Panics if `rect_w` is zero.
pub(crate) fn rect_walk(a: usize, b: usize, rect_w: usize) -> impl Iterator<Item = usize> {
    assert!(rect_w > 0, "zero-width rectangle");
    let (dx, dy) = (b % rect_w, b / rect_w);
    let toward = |v: usize, to: usize| if v < to { v + 1 } else { v - 1 };
    std::iter::successors(Some((a % rect_w, a / rect_w)), move |&(x, y)| {
        if x != dx {
            Some((toward(x, dx), y))
        } else if y != dy {
            Some((x, toward(y, dy)))
        } else {
            None
        }
    })
    .map(move |(x, y)| y * rect_w + x)
}

/// The links of `rect_walk`'s path from `a` to `b`, as `(from, to)`
/// slot pairs in order, without building the path: [`rect_hops`] of
/// them, none for `a == b`.
///
/// # Panics
///
/// Panics if `rect_w` is zero.
pub fn rect_links(a: usize, b: usize, rect_w: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut at = a;
    rect_walk(a, b, rect_w)
        .skip(1)
        .map(move |next| (std::mem::replace(&mut at, next), next))
}

/// The width and height of the rectangle used for an `n_cores`
/// composition on a mesh of the given width.
///
/// Rectangles grow alternately in x and y, starting from 1x1, capped at
/// the mesh width: 1→1x1, 2→2x1, 4→2x2, 8→4x2, 16→4x4, 32→4x8.
///
/// # Errors
///
/// Returns [`RegionError::BadCoreCount`] if `n_cores` is not a power of
/// two or exceeds the mesh.
pub fn region_rect(cfg: &MeshConfig, n_cores: usize) -> Result<(usize, usize), RegionError> {
    if !n_cores.is_power_of_two() || n_cores > cfg.nodes() {
        return Err(RegionError::BadCoreCount(n_cores));
    }
    let mut w = 1;
    let mut h = 1;
    while w * h < n_cores {
        if w <= h && w < cfg.width {
            w *= 2;
        } else {
            h *= 2;
        }
    }
    if w > cfg.width || h > cfg.height {
        return Err(RegionError::BadCoreCount(n_cores));
    }
    Ok((w, h))
}

/// The node IDs of the `index`-th region of `n_cores` cores, tiling the
/// mesh left-to-right, top-to-bottom.
///
/// Regions of equal size never overlap, so disjoint logical processors
/// can be composed by picking distinct indices.
///
/// # Errors
///
/// Returns a [`RegionError`] for invalid sizes or an index beyond the
/// number of regions that fit.
pub fn region_for(
    cfg: &MeshConfig,
    n_cores: usize,
    index: usize,
) -> Result<Vec<NodeId>, RegionError> {
    let (w, h) = region_rect(cfg, n_cores)?;
    let per_row = cfg.width / w;
    let rows = cfg.height / h;
    let available = per_row * rows;
    if index >= available {
        return Err(RegionError::OutOfRange { index, available });
    }
    let ox = (index % per_row) * w;
    let oy = (index / per_row) * h;
    let mut nodes = Vec::with_capacity(n_cores);
    for dy in 0..h {
        for dx in 0..w {
            nodes.push(cfg.node_at(Coord {
                x: ox + dx,
                y: oy + dy,
            }));
        }
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> MeshConfig {
        MeshConfig {
            width: 4,
            height: 8,
            link_bandwidth: 2,
        }
    }

    #[test]
    fn rect_hops_is_manhattan_distance() {
        // 2x2 rectangle: diagonal is two hops, neighbors one.
        assert_eq!(rect_hops(0, 3, 2), 2);
        assert_eq!(rect_hops(0, 1, 2), 1);
        assert_eq!(rect_hops(2, 2, 2), 0);
        // 4-wide chip layout: node 0 (0,0) to node 31 (3,7).
        assert_eq!(rect_hops(0, 31, 4), 10);
    }

    #[test]
    fn rect_walk_matches_mesh_route_nodes() {
        let cfg = chip();
        for a in 0..cfg.nodes() {
            for b in 0..cfg.nodes() {
                let by_slot: Vec<usize> = rect_walk(a, b, cfg.width).collect();
                let by_mesh: Vec<usize> = cfg
                    .route_nodes(NodeId(a), NodeId(b))
                    .into_iter()
                    .map(|n| n.0)
                    .collect();
                assert_eq!(by_slot, by_mesh, "route {a} -> {b}");
                assert_eq!(by_slot.len(), rect_hops(a, b, cfg.width) + 1);
                assert_eq!(rect_hops(a, b, cfg.width), cfg.hops(NodeId(a), NodeId(b)));
            }
        }
    }

    #[test]
    fn rect_shapes_follow_doubling_pattern() {
        let cfg = chip();
        assert_eq!(region_rect(&cfg, 1).unwrap(), (1, 1));
        assert_eq!(region_rect(&cfg, 2).unwrap(), (2, 1));
        assert_eq!(region_rect(&cfg, 4).unwrap(), (2, 2));
        assert_eq!(region_rect(&cfg, 8).unwrap(), (4, 2));
        assert_eq!(region_rect(&cfg, 16).unwrap(), (4, 4));
        assert_eq!(region_rect(&cfg, 32).unwrap(), (4, 8));
    }

    #[test]
    fn non_power_of_two_rejected() {
        assert_eq!(region_rect(&chip(), 3), Err(RegionError::BadCoreCount(3)));
        assert_eq!(region_rect(&chip(), 0), Err(RegionError::BadCoreCount(0)));
        assert_eq!(region_rect(&chip(), 64), Err(RegionError::BadCoreCount(64)));
    }

    #[test]
    fn regions_tile_disjointly() {
        let cfg = chip();
        for &n in &[1usize, 2, 4, 8, 16, 32] {
            let count = cfg.nodes() / n;
            let mut seen = vec![false; cfg.nodes()];
            for i in 0..count {
                let r = region_for(&cfg, n, i).unwrap();
                assert_eq!(r.len(), n);
                for node in r {
                    assert!(!seen[node.0], "core {node} in two regions (size {n})");
                    seen[node.0] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "size {n} regions must cover chip");
        }
    }

    #[test]
    fn region_index_bounds_checked() {
        let err = region_for(&chip(), 8, 4).unwrap_err();
        assert_eq!(
            err,
            RegionError::OutOfRange {
                index: 4,
                available: 4
            }
        );
    }

    #[test]
    fn region_is_contiguous_rectangle() {
        let cfg = chip();
        let r = region_for(&cfg, 4, 1).unwrap();
        // Second 2x2 region: columns 2-3, rows 0-1.
        let coords: Vec<Coord> = r.iter().map(|&n| cfg.coord(n)).collect();
        assert!(coords.iter().all(|c| c.x >= 2 && c.y <= 1));
        // Worst-case internal distance is (w-1)+(h-1).
        let max_hops = r
            .iter()
            .flat_map(|&a| r.iter().map(move |&b| cfg.hops(a, b)))
            .max()
            .unwrap();
        assert_eq!(max_hops, 2);
    }
}
