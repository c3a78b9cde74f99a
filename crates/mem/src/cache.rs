//! A generic set-associative cache bank (state + replacement only; data
//! lives in the [`MemoryImage`](crate::MemoryImage)).

/// Geometry of one cache bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a power-of-two number
    /// of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        let sets = self.bytes / self.line_bytes / self.ways;
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        sets
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present.
    Hit,
    /// The line was absent; it has been installed. If a dirty line was
    /// evicted, its line address is reported for write-back.
    Miss {
        /// Dirty victim line address, if any.
        writeback: Option<u64>,
    },
}

impl AccessResult {
    /// True for [`AccessResult::Hit`].
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Lines per page of a bank's line store (fewer when one set is wider).
const PAGE_LINES: usize = 32;

/// One set-associative, LRU, write-back cache bank.
///
/// Lines live in fixed-size pages of whole sets, and a page is
/// allocated the first time a line is installed in it: an empty page
/// reads as all-invalid. The page table itself reaches only as far as
/// the highest page installed so far. A run touches a few hundred of
/// the 4 MB L2's 65 536 lines, so building a bank allocates nothing.
#[derive(Clone, Debug)]
pub struct CacheBank {
    geom: CacheGeometry,
    /// `pages[set >> page_shift]` holds sets in ascending order, each
    /// `ways` lines wide; empty, or past the table's end, until first
    /// install.
    pages: Vec<Vec<Line>>,
    /// log2 of the sets per page.
    page_shift: u32,
    tick: u64,
    set_mask: u64,
    line_shift: u32,
}

impl CacheBank {
    /// Creates an empty bank.
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        // Largest power of two of whole sets that fits a page.
        let page_shift = (PAGE_LINES / geom.ways).clamp(1, sets).ilog2();
        CacheBank {
            pages: Vec::new(),
            page_shift,
            tick: 0,
            set_mask: (sets - 1) as u64,
            line_shift: geom.line_bytes.trailing_zeros(),
            geom,
        }
    }

    /// Page index and in-page line offset of the set holding `addr`.
    fn set_of(&self, addr: u64) -> (usize, usize) {
        let set = ((addr >> self.line_shift) & self.set_mask) as usize;
        let in_page = set & ((1 << self.page_shift) - 1);
        (set >> self.page_shift, in_page * self.geom.ways)
    }

    /// The set holding `addr`; empty if its page was never installed.
    fn set(&self, addr: u64) -> &[Line] {
        let (page, base) = self.set_of(addr);
        let page = self.pages.get(page).map_or(&[][..], Vec::as_slice);
        page.get(base..base + self.geom.ways).unwrap_or(&[])
    }

    fn set_mut(&mut self, addr: u64) -> &mut [Line] {
        let (page, base) = self.set_of(addr);
        let page = self
            .pages
            .get_mut(page)
            .map_or(&mut [][..], Vec::as_mut_slice);
        page.get_mut(base..base + self.geom.ways).unwrap_or(&mut [])
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The line-aligned address containing `addr`.
    #[must_use]
    pub(crate) fn line_addr(&self, addr: u64) -> u64 {
        addr & !((self.geom.line_bytes as u64) - 1)
    }

    /// Accesses `addr`, installing the line on a miss. `write` marks the
    /// line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        self.tick += 1;
        let (page, base) = self.set_of(addr);
        let tag = self.tag_of(addr);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, Vec::new);
        }
        let page = &mut self.pages[page];
        if page.is_empty() {
            page.resize(self.geom.ways << self.page_shift, Line::default());
        }
        let set = &mut page[base..base + self.geom.ways];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            line.dirty |= write;
            return AccessResult::Hit;
        }
        // Miss: choose the LRU way (preferring invalid lines).
        let victim = (0..set.len())
            .min_by_key(|&i| (set[i].valid, set[i].lru))
            .expect("nonzero associativity");
        let v = &mut set[victim];
        let writeback = (v.valid && v.dirty).then(|| v.tag << self.line_shift);
        *v = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.tick,
        };
        AccessResult::Miss { writeback }
    }

    /// True if the line containing `addr` is present.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        self.set(addr).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates the line containing `addr` (directory-initiated).
    /// Returns `true` if a dirty copy was dropped (write-back needed).
    pub(crate) fn invalidate(&mut self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        for l in self.set_mut(addr) {
            if l.valid && l.tag == tag {
                let was_dirty = l.dirty;
                l.valid = false;
                l.dirty = false;
                return was_dirty;
            }
        }
        false
    }

    /// Invalidates every line (used only by tests and resets; composition
    /// changes deliberately do *not* flush, per §4.7).
    pub fn clear(&mut self) {
        for page in &mut self.pages {
            page.clear();
        }
    }

    /// Drains the whole bank for hard-fault state evacuation: every valid
    /// line is invalidated and reported as `(line_addr, was_dirty)` so
    /// the caller can write dirty lines back and notify the directory.
    /// The order is deterministic (set-major, way-minor).
    pub(crate) fn evacuate(&mut self) -> Vec<(u64, bool)> {
        let mut drained = Vec::new();
        for l in self.pages.iter_mut().flatten() {
            if l.valid {
                drained.push((l.tag << self.line_shift, l.dirty));
                *l = Line::default();
            }
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bank written the obvious way: every line of every set in one
    /// dense vector, built up front. The differential test below holds
    /// the paged [`CacheBank`] to this, operation for operation.
    struct DenseBank {
        ways: usize,
        lines: Vec<Line>,
        tick: u64,
        set_mask: u64,
        line_shift: u32,
    }

    impl DenseBank {
        fn new(geom: CacheGeometry) -> Self {
            DenseBank {
                ways: geom.ways,
                lines: vec![Line::default(); geom.sets() * geom.ways],
                tick: 0,
                set_mask: (geom.sets() - 1) as u64,
                line_shift: geom.line_bytes.trailing_zeros(),
            }
        }

        fn set(&mut self, addr: u64) -> &mut [Line] {
            let base = ((addr >> self.line_shift) & self.set_mask) as usize * self.ways;
            &mut self.lines[base..base + self.ways]
        }

        fn access(&mut self, addr: u64, write: bool) -> AccessResult {
            self.tick += 1;
            let (tick, tag, shift) = (self.tick, addr >> self.line_shift, self.line_shift);
            let set = self.set(addr);
            if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.lru = tick;
                line.dirty |= write;
                return AccessResult::Hit;
            }
            let victim = (0..set.len())
                .min_by_key(|&i| (set[i].valid, set[i].lru))
                .expect("nonzero associativity");
            let v = &mut set[victim];
            let writeback = (v.valid && v.dirty).then(|| v.tag << shift);
            *v = Line {
                tag,
                valid: true,
                dirty: write,
                lru: tick,
            };
            AccessResult::Miss { writeback }
        }

        fn probe(&mut self, addr: u64) -> bool {
            let tag = addr >> self.line_shift;
            self.set(addr).iter().any(|l| l.valid && l.tag == tag)
        }

        fn invalidate(&mut self, addr: u64) -> bool {
            let tag = addr >> self.line_shift;
            match self.set(addr).iter_mut().find(|l| l.valid && l.tag == tag) {
                Some(l) => {
                    l.valid = false;
                    std::mem::take(&mut l.dirty)
                }
                None => false,
            }
        }

        fn clear(&mut self) {
            self.lines.fill(Line::default());
        }

        fn evacuate(&mut self) -> Vec<(u64, bool)> {
            let mut drained = Vec::new();
            for l in self.lines.iter_mut().filter(|l| l.valid) {
                drained.push((l.tag << self.line_shift, l.dirty));
                *l = Line::default();
            }
            drained
        }
    }

    proptest! {
        /// Random operation sequences over geometries whose sets are
        /// narrower than, as wide as and wider than a page (and a bank
        /// smaller than one page): every result, write-back and drain
        /// order equals the dense model's. Addresses fall in a window
        /// of 4x the bank, so sets conflict and evict.
        #[test]
        fn paged_store_matches_dense_model(
            ways in prop::sample::select(vec![1usize, 2, 3, 8, 64]),
            sets in prop::sample::select(vec![1usize, 4, 64]),
            ops in prop::collection::vec((0u8..16, 0u64..1 << 16, any::<bool>()), 1..300),
        ) {
            let geom = CacheGeometry { bytes: sets * ways * 64, line_bytes: 64, ways };
            let window = (geom.bytes * 4) as u64;
            let mut paged = CacheBank::new(geom);
            let mut dense = DenseBank::new(geom);
            for (op, addr, write) in ops {
                let addr = addr * 8 % window;
                match op {
                    0..=9 => prop_assert_eq!(paged.access(addr, write), dense.access(addr, write)),
                    10..=11 => prop_assert_eq!(paged.probe(addr), dense.probe(addr)),
                    12..=13 => prop_assert_eq!(paged.invalidate(addr), dense.invalidate(addr)),
                    14 => prop_assert_eq!(paged.evacuate(), dense.evacuate()),
                    _ => {
                        paged.clear();
                        dense.clear();
                    }
                }
            }
            // Whatever is left drains identically, and every line the
            // dense model holds is visible through the pages.
            for l in dense.lines.iter().filter(|l| l.valid) {
                prop_assert!(paged.probe(l.tag << dense.line_shift));
            }
            prop_assert_eq!(paged.evacuate(), dense.evacuate());
        }
    }

    fn small() -> CacheBank {
        CacheBank::new(CacheGeometry {
            bytes: 1024,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn geometry_sets() {
        let g = CacheGeometry {
            bytes: 8192,
            line_bytes: 64,
            ways: 2,
        };
        assert_eq!(g.sets(), 64);
    }

    #[test]
    fn hit_after_miss() {
        let mut c = small();
        assert!(matches!(c.access(0x40, false), AccessResult::Miss { .. }));
        assert!(c.access(0x40, false).is_hit());
        assert!(c.access(0x7f, false).is_hit(), "same line");
        assert!(matches!(c.access(0x80, false), AccessResult::Miss { .. }));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small(); // 8 sets, 2 ways
        let set_stride = 64 * 8;
        let a = 0u64;
        let b = a + set_stride as u64;
        let d = b + set_stride as u64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is MRU
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        let set_stride = 64 * 8u64;
        c.access(0, true); // dirty
        c.access(set_stride, false);
        let r = c.access(2 * set_stride, false); // evicts line 0
        assert_eq!(r, AccessResult::Miss { writeback: Some(0) });
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.access(0x100, true);
        assert!(c.invalidate(0x100));
        assert!(!c.probe(0x100));
        assert!(!c.invalidate(0x100), "already gone");
        c.access(0x100, false);
        assert!(!c.invalidate(0x100), "clean drop");
    }

    #[test]
    fn evacuate_drains_and_reports_dirtiness() {
        let mut c = small();
        c.access(0x000, true);
        c.access(0x040, false);
        c.access(0x200, true);
        let mut drained = c.evacuate();
        drained.sort_unstable();
        assert_eq!(drained, vec![(0x000, true), (0x040, false), (0x200, true)]);
        assert!(!c.probe(0x000) && !c.probe(0x040) && !c.probe(0x200));
        assert!(c.evacuate().is_empty(), "second drain finds nothing");
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = small();
        assert_eq!(c.line_addr(0x7f), 0x40);
        assert_eq!(c.line_addr(0x40), 0x40);
    }
}
