//! Memory-hierarchy event counters (consumed by the power model).

/// Counters accumulated by a [`MemorySystem`](crate::MemorySystem).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 D-cache hits.
    pub l1d_hits: u64,
    /// L1 D-cache misses.
    pub l1d_misses: u64,
    /// L1 I-cache hits.
    pub l1i_hits: u64,
    /// L1 I-cache misses.
    pub l1i_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM accesses (fills + write-backs).
    pub dram_accesses: u64,
    /// LSQ insertions (loads + stores accepted).
    pub lsq_inserts: u64,
    /// LSQ associative searches (every load and store performs one).
    pub lsq_searches: u64,
    /// Requests NACKed because an LSQ bank was full.
    pub lsq_nacks: u64,
    /// Load/store ordering violations detected.
    pub violations: u64,
    /// Loads whose value differs from the architectural image's: at
    /// least one byte came from an older in-flight store and changed the
    /// word. A store that overlaps but writes the bytes the image already
    /// holds is not counted.
    pub forwards: u64,
    /// Dirty L1 lines written back to L2.
    pub l1_writebacks: u64,
    /// Directory-initiated L1 invalidations.
    pub invalidations: u64,
    /// Directory-initiated dirty forwards.
    pub dirty_forwards: u64,
    /// Stores committed to the architectural image.
    pub stores_committed: u64,
    /// NACKs forced by the fault-injection layer (not counted in
    /// `lsq_nacks`, which tracks organic flow-control refusals).
    pub injected_nacks: u64,
    /// DRAM latency spikes injected by the fault layer.
    pub injected_dram_spikes: u64,
    /// Total extra load latency (cycles) added by injected DRAM spikes.
    pub injected_dram_extra_cycles: u64,
}

impl MemStats {
    /// L1 D-cache hit rate.
    #[must_use]
    pub fn l1d_hit_rate(&self) -> f64 {
        let total = self.l1d_hits + self.l1d_misses;
        if total == 0 {
            0.0
        } else {
            self.l1d_hits as f64 / total as f64
        }
    }

    /// Renders these counters as a stats-registry node named `"mem"`.
    #[must_use]
    pub fn to_node(&self) -> clp_obs::StatsNode {
        clp_obs::StatsNode::new("mem")
            .count("l1d_hits", self.l1d_hits)
            .count("l1d_misses", self.l1d_misses)
            .count("l1i_hits", self.l1i_hits)
            .count("l1i_misses", self.l1i_misses)
            .count("l2_hits", self.l2_hits)
            .count("l2_misses", self.l2_misses)
            .count("dram_accesses", self.dram_accesses)
            .count("lsq_inserts", self.lsq_inserts)
            .count("lsq_searches", self.lsq_searches)
            .count("lsq_nacks", self.lsq_nacks)
            .count("violations", self.violations)
            .count("forwards", self.forwards)
            .count("l1_writebacks", self.l1_writebacks)
            .count("invalidations", self.invalidations)
            .count("dirty_forwards", self.dirty_forwards)
            .count("stores_committed", self.stores_committed)
            .count("injected_nacks", self.injected_nacks)
            .count("injected_dram_spikes", self.injected_dram_spikes)
            .count(
                "injected_dram_extra_cycles",
                self.injected_dram_extra_cycles,
            )
            .gauge("l1d_hit_rate", self.l1d_hit_rate())
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, o: &MemStats) {
        self.l1d_hits += o.l1d_hits;
        self.l1d_misses += o.l1d_misses;
        self.l1i_hits += o.l1i_hits;
        self.l1i_misses += o.l1i_misses;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.dram_accesses += o.dram_accesses;
        self.lsq_inserts += o.lsq_inserts;
        self.lsq_searches += o.lsq_searches;
        self.lsq_nacks += o.lsq_nacks;
        self.violations += o.violations;
        self.forwards += o.forwards;
        self.l1_writebacks += o.l1_writebacks;
        self.invalidations += o.invalidations;
        self.dirty_forwards += o.dirty_forwards;
        self.stores_committed += o.stores_committed;
        self.injected_nacks += o.injected_nacks;
        self.injected_dram_spikes += o.injected_dram_spikes;
        self.injected_dram_extra_cycles += o.injected_dram_extra_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_empty_is_zero() {
        assert_eq!(MemStats::default().l1d_hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_computes() {
        let s = MemStats {
            l1d_hits: 3,
            l1d_misses: 1,
            ..Default::default()
        };
        assert!((s.l1d_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MemStats {
            l1d_hits: 1,
            dram_accesses: 2,
            ..Default::default()
        };
        a.merge(&a.clone());
        assert_eq!(a.l1d_hits, 2);
        assert_eq!(a.dram_accesses, 4);
    }
}
