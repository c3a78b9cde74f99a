//! The shared S-NUCA L2 cache with directory coherence, plus DRAM.

use crate::cache::{AccessResult, CacheBank, CacheGeometry};
use crate::config::{
    COHERENCE_PENALTY, DRAM_LATENCY, L2_BANKS, L2_BYTES, L2_MAX_LATENCY, L2_MIN_LATENCY, L2_WAYS,
    LINE_BYTES, LINE_SHIFT,
};

/// Sharing state per line address. Only ever looked up, inserted and
/// removed by key, never iterated: hash order cannot reach a result.
#[allow(clippy::disallowed_types)]
type Directory = std::collections::HashMap<u64, DirEntry>;

/// Coherence work the requester's miss triggered at the directory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct CoherenceActions {
    /// Cores whose L1 copy must be invalidated.
    pub invalidate: Vec<usize>,
    /// A core holding the line dirty that must forward it (read miss) —
    /// charged [`COHERENCE_PENALTY`] extra cycles.
    pub forward_from: Option<usize>,
}

/// Result of one L2 transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct L2Response {
    /// Total latency in cycles (NUCA distance + DRAM if missed + any
    /// coherence penalty).
    pub latency: u32,
    /// Whether the L2 hit.
    pub hit: bool,
    /// Directory actions for the caller to apply to L1 banks.
    pub actions: CoherenceActions,
}

/// A line's L1 sharers, one bit per core.
type Sharers = u32;

/// The most cores a chip can have: the directory holds a line's sharers
/// as one bit per core, and the simulator's per-core scheduler masks are
/// the same width.
pub const MAX_CHIP_CORES: usize = Sharers::BITS as usize;

#[derive(Clone, Copy, Debug, Default)]
struct DirEntry {
    sharers: Sharers,
    dirty_owner: Option<u8>,
}

/// The 4 MB, 32-bank, statically address-mapped NUCA L2 (§4.7).
///
/// Banks occupy the right half of the chip floorplan; access latency
/// scales with Manhattan distance from the requesting core to the bank,
/// spanning [`L2_MIN_LATENCY`]..=[`L2_MAX_LATENCY`].
/// The directory lives in the L2 tags: each line tracks an L1 sharing
/// vector, treating every L1 bank as an independent coherence unit, which
/// is what lets compositions change without flushing L1s.
#[derive(Clone, Debug)]
pub(crate) struct NucaL2 {
    banks: Vec<CacheBank>,
    directory: Directory,
    /// DRAM accesses performed (reads + write-backs).
    pub dram_accesses: u64,
    /// L2 hits.
    pub hits: u64,
    /// L2 misses.
    pub misses: u64,
}

impl NucaL2 {
    /// Creates an empty L2.
    #[must_use]
    pub fn new() -> Self {
        let per_bank = CacheGeometry {
            bytes: L2_BYTES / L2_BANKS,
            line_bytes: LINE_BYTES,
            ways: L2_WAYS,
        };
        NucaL2 {
            banks: (0..L2_BANKS).map(|_| CacheBank::new(per_bank)).collect(),
            directory: Directory::new(),
            dram_accesses: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The bank holding `line_addr`.
    #[must_use]
    fn bank_for(&self, line_addr: u64) -> usize {
        let l = line_addr >> LINE_SHIFT;
        ((l ^ (l >> 7)) as usize) % L2_BANKS
    }

    /// NUCA latency from a core (in the 4x8 core array, node id `core`)
    /// to `bank` (in the adjacent 4x8 bank array).
    #[must_use]
    fn nuca_latency(&self, core: usize, bank: usize) -> u32 {
        let (cx, cy) = ((core % 4) as i32, (core / 4) as i32);
        let (bx, by) = ((4 + bank % 4) as i32, (bank / 4) as i32);
        let hops = (cx - bx).unsigned_abs() + (cy - by).unsigned_abs();
        let min_hops = 1;
        let max_hops = 14; // (0,7) core to (7,0) bank
        let span = L2_MAX_LATENCY - L2_MIN_LATENCY;
        L2_MIN_LATENCY + (hops.saturating_sub(min_hops)) * span / (max_hops - min_hops)
    }

    /// Performs an L2 transaction on behalf of `core`'s L1 miss.
    ///
    /// Updates the directory: on a write the requester becomes the
    /// exclusive dirty owner and all other sharers are invalidated; on a
    /// read a dirty remote copy is forwarded (penalized) and downgraded.
    pub fn access(&mut self, core: usize, line_addr: u64, write: bool) -> L2Response {
        let bank = self.bank_for(line_addr);
        let mut latency = self.nuca_latency(core, bank);
        let mut actions = CoherenceActions::default();

        let entry = self.directory.entry(line_addr).or_default();
        let others = entry.sharers & !(1u32 << core);
        if write {
            if others != 0 {
                actions.invalidate = (0..MAX_CHIP_CORES)
                    .filter(|&c| others >> c & 1 == 1)
                    .collect();
                latency += COHERENCE_PENALTY;
            }
            entry.sharers = 1 << core;
            entry.dirty_owner = Some(core as u8);
        } else {
            if let Some(owner) = entry.dirty_owner {
                if usize::from(owner) != core {
                    actions.forward_from = Some(usize::from(owner));
                    latency += COHERENCE_PENALTY;
                    entry.dirty_owner = None;
                }
            }
            entry.sharers |= 1 << core;
        }

        let result = self.banks[bank].access(line_addr, write);
        let hit = result.is_hit();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.dram_accesses += 1;
            latency += DRAM_LATENCY;
            if let AccessResult::Miss {
                writeback: Some(victim),
            } = result
            {
                self.dram_accesses += 1;
                // Inclusive L2: L1 copies of the evicted victim must go.
                if let Some(v) = self.directory.remove(&victim) {
                    for c in 0..MAX_CHIP_CORES {
                        if v.sharers >> c & 1 == 1 {
                            actions.invalidate.push(c);
                        }
                    }
                    // Victim invalidations reuse the same message budget;
                    // the line addresses differ, so the caller gets the
                    // victim too.
                    actions.invalidate.dedup();
                }
            }
        }

        L2Response {
            latency,
            hit,
            actions,
        }
    }

    /// Records an L1 write-back of a dirty line into the L2 (updates
    /// recency/dirtiness; background traffic, no latency charged to the
    /// critical path).
    pub fn writeback(&mut self, line_addr: u64) {
        let bank = self.bank_for(line_addr);
        let _ = self.banks[bank].access(line_addr, true);
        if let Some(e) = self.directory.get_mut(&line_addr) {
            e.dirty_owner = None;
        }
    }

    /// Drops `core` from the sharing vector of `line_addr` (L1 eviction).
    pub(crate) fn evict_notify(&mut self, core: usize, line_addr: u64) {
        if let Some(e) = self.directory.get_mut(&line_addr) {
            e.sharers &= !(1u32 << core);
            if e.dirty_owner == Some(core as u8) {
                e.dirty_owner = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> NucaL2 {
        NucaL2::new()
    }

    #[test]
    fn latency_scales_with_distance() {
        let l2 = l2();
        let near = l2.nuca_latency(3, 0); // core (3,0) next to bank (4,0)
        let far = l2.nuca_latency(28, 3); // core (0,7) to bank (7,0)
        assert_eq!(near, 5);
        assert_eq!(far, 27);
        assert!(l2.nuca_latency(17, 9) > near);
        assert!(l2.nuca_latency(17, 9) < far);
    }

    #[test]
    fn first_access_misses_to_dram_then_hits() {
        let mut l2 = l2();
        let r1 = l2.access(0, 0x1000, false);
        assert!(!r1.hit);
        assert!(r1.latency >= 150);
        let r2 = l2.access(0, 0x1000, false);
        assert!(r2.hit);
        assert!(r2.latency < 30);
        assert_eq!(l2.dram_accesses, 1);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut l2 = l2();
        l2.access(1, 0x40, false);
        l2.access(2, 0x40, false);
        let r = l2.access(3, 0x40, true);
        assert_eq!(r.actions.invalidate, vec![1, 2]);
        // After the write, core 3 is exclusive: a read by 1 forwards.
        let r2 = l2.access(1, 0x40, false);
        assert_eq!(r2.actions.forward_from, Some(3));
    }

    #[test]
    fn read_after_read_needs_no_coherence_work() {
        let mut l2 = l2();
        l2.access(0, 0x80, false);
        let r = l2.access(5, 0x80, false);
        assert!(r.actions.invalidate.is_empty());
        assert_eq!(r.actions.forward_from, None);
    }

    #[test]
    fn recomposition_scenario_forwards_dirty_line() {
        // Core 0 wrote a line while running solo; after recomposition the
        // same data is requested through core 1's bank: the directory
        // forwards instead of requiring a flush (§4.7).
        let mut l2 = l2();
        l2.access(0, 0x2000, true);
        let r = l2.access(1, 0x2000, false);
        assert!(r.hit);
        assert_eq!(r.actions.forward_from, Some(0));
        assert!(r.latency >= COHERENCE_PENALTY);
    }

    #[test]
    fn evict_notify_clears_sharer() {
        let mut l2 = l2();
        l2.access(4, 0x100, true);
        l2.evict_notify(4, 0x100);
        let r = l2.access(5, 0x100, true);
        assert!(r.actions.invalidate.is_empty(), "core 4 no longer shares");
    }

    #[test]
    fn bank_hash_spreads_lines() {
        let l2 = l2();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..256u64 {
            seen.insert(l2.bank_for(i * 64));
        }
        assert!(seen.len() > 16, "lines spread over banks: {}", seen.len());
    }
}
