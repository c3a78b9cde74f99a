//! The chip-level memory system facade driven by the simulator.

use crate::cache::{AccessResult, CacheBank, CacheGeometry};
use crate::config::{
    L1D_BYTES, L1D_HIT_LATENCY, L1D_WAYS, L1I_BYTES, L1I_HIT_LATENCY, LINE_BYTES, LINE_SHIFT,
    LSQ_ENTRIES,
};
use crate::image::MemoryImage;
use crate::l2::NucaL2;
use crate::lsq::{LsqBank, LsqInsert};
use crate::stats::MemStats;
use clp_isa::BLOCK_FRAME_BYTES;
use clp_obs::{CacheLevel, TraceEvent, Tracer};

/// The participating-core index whose L1 D-cache/LSQ bank serves `addr`
/// in an `n_cores` composition.
///
/// Per §4.5, the bank is selected by XORing high and low portions of the
/// address (at line granularity) modulo the number of participating
/// cores, so all bytes of one line always map to one bank.
///
/// The reduction is a true modulo (identical to the old power-of-two
/// mask when `n_cores` is a power of two), so the hash stays defined for
/// the non-power-of-two survivor sets left behind by hard-fault
/// recomposition (a 16-core processor degrading to 15, etc.).
#[must_use]
pub fn dbank_for(addr: u64, n_cores: usize) -> usize {
    debug_assert!(n_cores > 0);
    let line = addr >> LINE_SHIFT;
    ((line ^ (line >> 9)) as usize) % n_cores
}

/// How an accepted load was served, reported alongside its latency so
/// the profiler can classify critical-path loads without re-deriving the
/// cache outcome from timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoadServe {
    /// Value forwarded from an older buffered store in the LSQ bank and
    /// different from the image's (the loads [`MemStats::forwards`]
    /// counts); an overlapping store that leaves the value unchanged
    /// reads as [`LoadServe::L1`] or [`LoadServe::Miss`].
    Forward,
    /// Served by the L1 D-cache.
    #[default]
    L1,
    /// Missed the L1 (served by the L2 or DRAM).
    Miss,
}

/// Result of issuing a load to the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadResponse {
    /// The load was accepted: its value and total access latency.
    Ok {
        /// The loaded value (store-forwarded where applicable).
        value: u64,
        /// Cycles until the value is available at the bank.
        latency: u32,
        /// Where the value came from.
        served: LoadServe,
    },
    /// The LSQ bank was full; retry after a back-off.
    Nack,
}

/// Result of issuing a store to the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreResponse {
    /// The store was buffered. A detected ordering violation reports the
    /// global sequence number of the youngest-offending load.
    Ok {
        /// Memory-order sequence of a violating younger load, if any.
        violation: Option<u64>,
    },
    /// The LSQ bank was full; retry after a back-off.
    Nack,
}

/// What [`MemorySystem::evacuate_core`] moved off a dead core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvacuationReport {
    /// Dirty L1D lines written back through the L2.
    pub dirty_lines: u64,
    /// Bytes those dirty lines represent.
    pub bytes: u64,
    /// Modeled cycles to drain the state (fixed overhead + per-line
    /// victim-path cost).
    pub latency: u64,
}

/// The full chip memory system: per-core L1 D/I banks and LSQ banks, the
/// shared S-NUCA L2 with its directory, DRAM, and the architectural
/// [`MemoryImage`].
///
/// Banks are indexed by *global* core ID (0..32); composed processors map
/// their participant-relative bank hashes onto their member cores.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    /// The architectural memory contents.
    pub image: MemoryImage,
    l1d: Vec<CacheBank>,
    l1i: Vec<CacheBank>,
    lsq: Vec<LsqBank>,
    l2: NucaL2,
    stats: MemStats,
    tracer: Tracer,
    /// Current machine cycle, advanced by the simulator for event stamps.
    cycle: u64,
}

impl MemorySystem {
    /// Creates a memory system for a chip with `n_cores` cores.
    #[must_use]
    pub fn new(n_cores: usize) -> Self {
        let dgeom = CacheGeometry {
            bytes: L1D_BYTES,
            line_bytes: LINE_BYTES,
            ways: L1D_WAYS,
        };
        let igeom = CacheGeometry {
            bytes: L1I_BYTES,
            line_bytes: LINE_BYTES,
            ways: 1,
        };
        MemorySystem {
            image: MemoryImage::new(),
            l1d: (0..n_cores).map(|_| CacheBank::new(dgeom)).collect(),
            l1i: (0..n_cores).map(|_| CacheBank::new(igeom)).collect(),
            lsq: (0..n_cores).map(|_| LsqBank::new(LSQ_ENTRIES)).collect(),
            l2: NucaL2::new(),
            stats: MemStats::default(),
            tracer: Tracer::off(),
            cycle: 0,
        }
    }

    /// Attaches a tracer for memory-system events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Advances the cycle stamp used on emitted trace events (called by
    /// the simulator once per machine cycle).
    #[inline]
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Accumulated statistics (including L2/DRAM counters).
    #[must_use]
    pub fn stats(&self) -> MemStats {
        let mut s = self.stats;
        s.l2_hits = self.l2.hits;
        s.l2_misses = self.l2.misses;
        s.dram_accesses = self.l2.dram_accesses;
        s
    }

    /// The memory-order sequence of every entry in `core`'s LSQ bank.
    pub fn lsq_seqs(&self, core: usize) -> impl Iterator<Item = u64> + '_ {
        self.lsq[core].seqs()
    }

    /// The youngest memory-order sequence in `core`'s LSQ bank (used by
    /// the NACK protocol's age-based eviction).
    #[must_use]
    pub fn lsq_youngest(&self, core: usize) -> Option<u64> {
        self.lsq[core].youngest_seq()
    }

    fn l1d_access(&mut self, core: usize, addr: u64, write: bool) -> u32 {
        let line = self.l1d[core].line_addr(addr);
        match self.l1d[core].access(addr, write) {
            AccessResult::Hit => {
                self.stats.l1d_hits += 1;
                L1D_HIT_LATENCY
            }
            AccessResult::Miss { writeback } => {
                self.stats.l1d_misses += 1;
                self.tracer.emit(self.cycle, || TraceEvent::CacheMiss {
                    level: CacheLevel::L1D,
                    bank: core,
                    addr: line,
                    writeback: writeback.is_some(),
                });
                if let Some(victim) = writeback {
                    self.stats.l1_writebacks += 1;
                    self.l2.writeback(victim);
                    self.l2.evict_notify(core, victim);
                }
                let resp = self.l2.access(core, line, write);
                for other in resp.actions.invalidate {
                    if other < self.l1d.len() && other != core {
                        self.stats.invalidations += 1;
                        if self.l1d[other].invalidate(line) {
                            self.stats.l1_writebacks += 1;
                        }
                    }
                }
                if resp.actions.forward_from.is_some() {
                    self.stats.dirty_forwards += 1;
                }
                L1D_HIT_LATENCY + resp.latency
            }
        }
    }

    /// Records a NACK forced by the fault-injection layer: the request
    /// never reached the LSQ, but the refusal should still show up in
    /// traces and stats next to organic NACKs.
    pub fn note_injected_nack(&mut self, core: usize, addr: u64) {
        self.stats.injected_nacks += 1;
        self.tracer
            .emit(self.cycle, || TraceEvent::LsqNack { bank: core, addr });
    }

    /// Records a DRAM latency spike (`extra` cycles added to a load's
    /// reply) injected by the fault layer.
    pub fn note_injected_dram_spike(&mut self, _core: usize, extra: u64) {
        self.stats.injected_dram_spikes += 1;
        self.stats.injected_dram_extra_cycles += extra;
    }

    /// Issues a load at `core`'s bank with global memory order `seq`.
    pub fn execute_load(&mut self, core: usize, seq: u64, addr: u64, size: u8) -> LoadResponse {
        self.stats.lsq_searches += 1;
        let before = self.image.read(addr, size);
        match self.lsq[core].execute_load(seq, addr, size, &self.image) {
            LsqInsert::Nack => {
                self.stats.lsq_nacks += 1;
                self.tracer
                    .emit(self.cycle, || TraceEvent::LsqNack { bank: core, addr });
                LoadResponse::Nack
            }
            LsqInsert::Ok(value) => {
                self.stats.lsq_inserts += 1;
                let forwarded = value != before;
                if forwarded {
                    self.stats.forwards += 1;
                }
                let latency = self.l1d_access(core, addr, false);
                let served = if forwarded {
                    LoadServe::Forward
                } else if latency > L1D_HIT_LATENCY {
                    LoadServe::Miss
                } else {
                    LoadServe::L1
                };
                LoadResponse::Ok {
                    value,
                    latency,
                    served,
                }
            }
        }
    }

    /// Buffers a store at `core`'s bank with global memory order `seq`.
    pub fn execute_store(
        &mut self,
        core: usize,
        seq: u64,
        addr: u64,
        size: u8,
        value: u64,
    ) -> StoreResponse {
        self.stats.lsq_searches += 1;
        match self.lsq[core].execute_store(seq, addr, size, value) {
            LsqInsert::Nack => {
                self.stats.lsq_nacks += 1;
                self.tracer
                    .emit(self.cycle, || TraceEvent::LsqNack { bank: core, addr });
                StoreResponse::Nack
            }
            LsqInsert::Ok(violation) => {
                self.stats.lsq_inserts += 1;
                if violation.is_some() {
                    self.stats.violations += 1;
                    self.tracer
                        .emit(self.cycle, || TraceEvent::MemViolation { bank: core, addr });
                }
                StoreResponse::Ok { violation }
            }
        }
    }

    /// Commits all buffered stores with `lo_seq <= seq < hi_seq` on the
    /// given cores: values reach the architectural image and the D-cache
    /// banks are updated (write-allocate). Returns the worst per-bank
    /// commit latency, modelling banks draining their stores in parallel
    /// at one store per cycle plus miss penalties.
    pub fn commit_stores(&mut self, cores: &[usize], lo_seq: u64, hi_seq: u64) -> u32 {
        cores
            .iter()
            .map(|&c| self.commit_stores_core(c, lo_seq, hi_seq))
            .max()
            .unwrap_or(0)
    }

    /// Commits one core's buffered stores in `lo_seq..hi_seq`, returning
    /// that bank's drain latency (one store per cycle plus miss
    /// penalties).
    pub fn commit_stores_core(&mut self, core: usize, lo_seq: u64, hi_seq: u64) -> u32 {
        let mut image = std::mem::take(&mut self.image);
        let committed = self.lsq[core].commit_range(lo_seq, hi_seq, &mut image);
        self.image = image;
        let mut bank_latency = 0;
        for (addr, _size) in committed {
            self.stats.stores_committed += 1;
            bank_latency += 1 + self
                .l1d_access(core, addr, true)
                .saturating_sub(L1D_HIT_LATENCY);
        }
        bank_latency
    }

    /// Squashes all LSQ entries with `seq >= from_seq` on the given cores
    /// (pipeline flush).
    pub fn flush_from(&mut self, cores: &[usize], from_seq: u64) {
        for &core in cores {
            self.lsq[core].flush_from(from_seq);
        }
    }

    /// Evacuates all cache and LSQ state from `core` after a hard fault:
    /// dirty L1D lines are written back through the S-NUCA L2 (the
    /// directory is notified so the dead core no longer appears as a
    /// sharer), clean lines and the L1I bank are dropped, and every
    /// speculative LSQ entry is squashed (committed stores are already
    /// architectural — only unreached speculation is lost).
    ///
    /// Returns what moved and the modeled migration latency: a fixed
    /// recomposition overhead plus two cycles per dirty line drained
    /// through the victim path.
    pub fn evacuate_core(&mut self, core: usize) -> EvacuationReport {
        let mut dirty_lines = 0u64;
        for (line, dirty) in self.l1d[core].evacuate() {
            if dirty {
                dirty_lines += 1;
                self.stats.l1_writebacks += 1;
                self.l2.writeback(line);
            }
            self.l2.evict_notify(core, line);
        }
        self.l1i[core].evacuate();
        self.lsq[core].flush_from(0);
        EvacuationReport {
            dirty_lines,
            bytes: dirty_lines * LINE_BYTES as u64,
            latency: 8 + 2 * dirty_lines,
        }
    }

    /// Fetches `core`'s slice of the block at `block_addr` from its
    /// I-cache (participant index `part` of `n_cores`), returning the
    /// fetch latency.
    pub fn fetch_block_slice(
        &mut self,
        core: usize,
        block_addr: u64,
        part: usize,
        n_cores: usize,
    ) -> u32 {
        let slice_bytes = (BLOCK_FRAME_BYTES as usize / n_cores).max(1);
        let start = block_addr + (part * slice_bytes) as u64;
        let lines = slice_bytes.div_ceil(LINE_BYTES).max(1);
        let mut worst_miss = 0u32;
        for l in 0..lines {
            let addr = start + (l * LINE_BYTES) as u64;
            match self.l1i[core].access(addr, false) {
                AccessResult::Hit => {
                    self.stats.l1i_hits += 1;
                }
                AccessResult::Miss { .. } => {
                    self.stats.l1i_misses += 1;
                    let line = self.l1i[core].line_addr(addr);
                    self.tracer.emit(self.cycle, || TraceEvent::CacheMiss {
                        level: CacheLevel::L1I,
                        bank: core,
                        addr: line,
                        writeback: false,
                    });
                    let resp = self.l2.access(core, line, false);
                    worst_miss = worst_miss.max(resp.latency);
                }
            }
        }
        L1I_HIT_LATENCY + worst_miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemorySystem {
        /// Occupancy of `core`'s LSQ bank.
        fn lsq_occupancy(&self, core: usize) -> usize {
            self.lsq[core].len()
        }
    }

    fn system() -> MemorySystem {
        MemorySystem::new(32)
    }

    #[test]
    fn dbank_keeps_lines_together() {
        for addr in (0..4096u64).step_by(8) {
            let line_base = addr & !(LINE_BYTES as u64 - 1);
            assert_eq!(dbank_for(addr, 8), dbank_for(line_base, 8));
        }
    }

    #[test]
    fn dbank_spreads_lines() {
        let mut counts = [0usize; 4];
        for line in 0..64u64 {
            counts[dbank_for(line * 64, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn load_miss_then_hit_latency() {
        let mut m = system();
        m.image.write_u64(0x1000, 5);
        let r1 = m.execute_load(0, 0, 0x1000, 8);
        let LoadResponse::Ok {
            value,
            latency,
            served,
        } = r1
        else {
            panic!("nack");
        };
        assert_eq!(value, 5);
        assert!(latency > 150, "cold miss goes to DRAM: {latency}");
        assert_eq!(served, LoadServe::Miss);
        let r2 = m.execute_load(0, 1, 0x1008, 8);
        let LoadResponse::Ok {
            latency, served, ..
        } = r2
        else {
            panic!("nack");
        };
        assert_eq!(latency, 2, "same line now hits");
        assert_eq!(served, LoadServe::L1);
    }

    #[test]
    fn speculative_store_invisible_until_commit() {
        let mut m = system();
        let r = m.execute_store(0, 32, 0x40, 8, 99);
        assert!(matches!(r, StoreResponse::Ok { violation: None }));
        assert_eq!(m.image.read_u64(0x40), 0, "not yet architectural");
        // A younger load through the same bank sees the forwarded value.
        let LoadResponse::Ok { value, served, .. } = m.execute_load(0, 40, 0x40, 8) else {
            panic!("nack");
        };
        assert_eq!(value, 99);
        assert_eq!(served, LoadServe::Forward);
        m.commit_stores(&[0], 32, 64);
        assert_eq!(m.image.read_u64(0x40), 99);
        assert_eq!(m.stats().stores_committed, 1);
    }

    #[test]
    fn flush_discards_speculative_store() {
        let mut m = system();
        m.execute_store(0, 64, 0x40, 8, 7);
        m.flush_from(&[0], 64);
        m.commit_stores(&[0], 0, 1000);
        assert_eq!(m.image.read_u64(0x40), 0);
    }

    #[test]
    fn violation_reported_through_system() {
        let mut m = system();
        m.execute_load(0, 100, 0x80, 8);
        let r = m.execute_store(0, 50, 0x80, 8, 1);
        assert_eq!(
            r,
            StoreResponse::Ok {
                violation: Some(100)
            }
        );
        assert_eq!(m.stats().violations, 1);
    }

    #[test]
    fn nacks_counted() {
        let mut m = MemorySystem::new(2);
        let full = LSQ_ENTRIES as u64;
        for seq in 0..full {
            let r = m.execute_load(0, seq, seq * 64, 8);
            assert!(matches!(r, LoadResponse::Ok { .. }), "entry {seq}: {r:?}");
        }
        assert_eq!(m.lsq_occupancy(0), LSQ_ENTRIES);
        let r = m.execute_load(0, full, full * 64, 8);
        assert_eq!(r, LoadResponse::Nack);
        assert_eq!(m.stats().lsq_nacks, 1);
        assert!(matches!(
            m.execute_load(1, full, full * 64, 8),
            LoadResponse::Ok { .. }
        ));
    }

    #[test]
    fn icache_fetch_hits_after_first() {
        let mut m = system();
        let cold = m.fetch_block_slice(3, 0x4000, 3, 8);
        assert!(cold > 5);
        let warm = m.fetch_block_slice(3, 0x4000, 3, 8);
        assert_eq!(warm, 1, "I-cache hit is 1 cycle");
        let s = m.stats();
        assert_eq!(s.l1i_misses, 1);
        assert_eq!(s.l1i_hits, 1);
    }

    #[test]
    fn commit_latency_reflects_store_count() {
        let mut m = system();
        // Warm the lines so commit is hit-only.
        for i in 0..4 {
            m.execute_load(0, i, 0x200 + i * 64, 8);
        }
        m.commit_stores(&[0], 0, 1000);
        for i in 0..4u64 {
            m.execute_store(0, 320 + i, 0x200 + i * 64, 8, i);
        }
        let lat = m.commit_stores(&[0], 320, 352);
        assert_eq!(lat, 4, "four stores drain at one per cycle");
    }

    #[test]
    fn evacuate_core_writes_back_dirty_state() {
        let mut m = system();
        // A committed store leaves a dirty L1D line on core 0.
        m.execute_store(0, 0, 0x40, 8, 123);
        m.commit_stores(&[0], 0, 32);
        assert_eq!(m.image.read_u64(0x40), 123);
        // A speculative (uncommitted) store must die with the core.
        m.execute_store(0, 64, 0x80, 8, 77);
        let wb_before = m.stats().l1_writebacks;
        let report = m.evacuate_core(0);
        assert!(report.dirty_lines >= 1, "{report:?}");
        assert_eq!(report.bytes, report.dirty_lines * 64);
        assert!(report.latency >= 8 + 2 * report.dirty_lines);
        assert_eq!(
            m.stats().l1_writebacks,
            wb_before + report.dirty_lines,
            "each dirty line drains through the victim path"
        );
        assert_eq!(m.lsq_occupancy(0), 0, "speculative entries squashed");
        // Architectural state survives the evacuation; the dead value
        // never became visible.
        m.commit_stores(&[0], 0, 1000);
        assert_eq!(m.image.read_u64(0x40), 123);
        assert_eq!(m.image.read_u64(0x80), 0);
        // A second evacuation finds nothing left to move.
        let again = m.evacuate_core(0);
        assert_eq!(again.dirty_lines, 0);
    }

    #[test]
    fn cross_bank_isolation() {
        // Stores in one core's bank do not forward to another bank;
        // the hash guarantees same-line ops share a bank, so use two
        // different lines mapping to different banks.
        let mut m = system();
        let a = 0x40u64;
        let mut b = 0x80u64;
        while dbank_for(b, 4) == dbank_for(a, 4) {
            b += 64;
        }
        m.execute_store(dbank_for(a, 4), 0, a, 8, 11);
        let LoadResponse::Ok { value, .. } = m.execute_load(dbank_for(b, 4), 1, b, 8) else {
            panic!("nack")
        };
        assert_eq!(value, 0);
    }
}
