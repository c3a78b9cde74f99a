//! The memory hierarchy of Table 1. Every composition and both machine
//! presets (TFlex and the TRIPS baseline) share it, so its sizes and
//! latencies are constants, not configuration.

/// Per-core L1 D-cache capacity in bytes (8 KB).
pub const L1D_BYTES: usize = 8 * 1024;
/// L1 D-cache associativity (2-way).
pub const L1D_WAYS: usize = 2;
/// L1 D-cache hit latency in cycles (2).
pub const L1D_HIT_LATENCY: u32 = 2;
/// Cache line size in bytes (64), at every level.
pub(crate) const LINE_BYTES: usize = 64;
/// `addr >> LINE_SHIFT` is the line number of `addr`.
pub(crate) const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();
/// Per-core L1 I-cache capacity in bytes (8 KB), direct-mapped.
pub const L1I_BYTES: usize = 8 * 1024;
/// L1 I-cache hit latency in cycles (1).
pub const L1I_HIT_LATENCY: u32 = 1;
/// LSQ entries per bank (44).
pub const LSQ_ENTRIES: usize = 44;
/// Total shared L2 capacity in bytes (4 MB).
pub const L2_BYTES: usize = 4 * 1024 * 1024;
/// Number of S-NUCA L2 banks (32, a 4x8 array beside the cores).
pub(crate) const L2_BANKS: usize = 32;
/// L2 associativity (8-way).
pub const L2_WAYS: usize = 8;
/// Closest-bank L2 hit latency in cycles (5).
pub const L2_MIN_LATENCY: u32 = 5;
/// Farthest-bank L2 hit latency in cycles (27).
pub const L2_MAX_LATENCY: u32 = 27;
/// Unloaded main-memory latency in cycles (150).
pub const DRAM_LATENCY: u32 = 150;
/// Extra latency for a directory-initiated forward/invalidate of a
/// line held by a remote L1 (not in Table 1; see DESIGN.md, "Invented
/// constants").
pub(crate) const COHERENCE_PENALTY: u32 = 12;

const _: () = assert!(LINE_BYTES == 1 << LINE_SHIFT);

#[cfg(test)]
mod tests {
    use super::*;

    /// What `goldens/table1.txt` does not print: the L2 bank count the
    /// NUCA floorplan is laid out for.
    #[test]
    fn table_1_values() {
        assert_eq!(L2_BANKS, 32);
    }
}
