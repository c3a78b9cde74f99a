//! The functional memory image: a sparse, paged, byte-addressable space.

use std::collections::BTreeMap;
use std::fmt;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A sparse 64-bit byte-addressable memory holding the *architectural*
/// contents of memory. Little-endian, zero-initialized.
///
/// The caches and LSQs in this crate model timing and coherence state
/// only; every committed value lives here, which keeps functional
/// correctness independent of the timing model.
///
/// The resident 4 KB pages lie end to end in one buffer, in the order
/// they were first written, and an open-addressed table finds a page
/// number's place in it: an access hashes once and usually probes once.
#[derive(Clone, Default)]
pub struct MemoryImage {
    /// The resident pages' bytes, page after page.
    bytes: Vec<u8>,
    /// The page number of each resident page, in buffer order.
    numbers: Vec<u64>,
    /// Linear-probing index, a power of two long and at most half full:
    /// `(page number, k + 1)` names resident page `k`, and `(_, 0)` is
    /// an empty slot.
    table: Vec<(u64, u32)>,
    /// `64 - log2(table.len())`: the shift that maps a page number's
    /// hash onto the table.
    shift: u32,
}

impl MemoryImage {
    /// Creates an empty (all-zero) image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The table slot page number `page` hashes to (Fibonacci hashing)
    /// in a non-empty table.
    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The buffer offset of page `page`, if it is resident.
    #[inline]
    fn find(&self, page: u64) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut at = self.home(page);
        loop {
            match self.table[at & mask] {
                (_, 0) => return None,
                (number, k) if number == page => return Some((k as usize - 1) * PAGE_SIZE),
                _ => at += 1,
            }
        }
    }

    /// The buffer offset of page `page`, made resident (zeroed) first if
    /// it is not.
    fn find_or_insert(&mut self, page: u64) -> usize {
        if let Some(at) = self.find(page) {
            return at;
        }
        if 2 * (self.numbers.len() + 1) > self.table.len() {
            self.grow_table();
        }
        self.numbers.push(page);
        let k = self.numbers.len();
        self.place(page, k as u32);
        self.bytes.resize(k * PAGE_SIZE, 0);
        (k - 1) * PAGE_SIZE
    }

    /// Puts `k` in the first empty slot from `page`'s home on.
    fn place(&mut self, page: u64, k: u32) {
        let mask = self.table.len() - 1;
        let mut at = self.home(page) & mask;
        while self.table[at].1 != 0 {
            at = (at + 1) & mask;
        }
        self.table[at] = (page, k);
    }

    /// Doubles the table (16 slots at first) and re-places every page.
    fn grow_table(&mut self) {
        let len = (2 * self.table.len()).max(16);
        self.table.clear();
        self.table.resize(len, (0, 0));
        self.shift = 64 - len.trailing_zeros();
        for k in 0..self.numbers.len() {
            self.place(self.numbers[k], k as u32 + 1);
        }
    }

    /// Reads one byte.
    #[must_use]
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.find(addr >> PAGE_SHIFT) {
            Some(at) => self.bytes[at + ((addr as usize) & (PAGE_SIZE - 1))],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let at = self.find_or_insert(addr >> PAGE_SHIFT);
        self.bytes[at + ((addr as usize) & (PAGE_SIZE - 1))] = value;
    }

    /// Reads a little-endian 64-bit word (no alignment requirement).
    #[must_use]
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            // The word sits inside one page: one lookup.
            return match self.find(addr >> PAGE_SHIFT) {
                Some(at) => u64::from_le_bytes(
                    self.bytes[at + off..at + off + 8]
                        .try_into()
                        .expect("8 bytes"),
                ),
                None => 0,
            };
        }
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            // The word sits inside one page: one lookup.
            let at = self.find_or_insert(addr >> PAGE_SHIFT) + off;
            self.bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Reads `size` bytes (1 or 8) as a zero-extended word.
    #[must_use]
    #[inline]
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        match size {
            1 => u64::from(self.read_u8(addr)),
            8 => self.read_u64(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes (1 or 8) of `value`.
    #[inline]
    pub fn write(&mut self, addr: u64, size: u8, value: u64) {
        match size {
            1 => self.write_u8(addr, value as u8),
            8 => self.write_u64(addr, value),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Copies a slice of words into memory starting at `addr`, finding
    /// each page once.
    pub fn load_words(&mut self, addr: u64, words: &[u64]) {
        let mut rest = words;
        let mut at = addr;
        while let Some(&first) = rest.first() {
            let off = (at as usize) & (PAGE_SIZE - 1);
            // The words that fit whole in this page, or the one that
            // straddles it into the next.
            let fit = ((PAGE_SIZE - off) / 8).min(rest.len());
            if fit == 0 {
                self.write_u64(at, first);
                rest = &rest[1..];
                at = at.wrapping_add(8);
                continue;
            }
            let page = self.find_or_insert(at >> PAGE_SHIFT) + off;
            let bytes = &mut self.bytes[page..page + 8 * fit];
            for (b, w) in bytes.chunks_exact_mut(8).zip(&rest[..fit]) {
                b.copy_from_slice(&w.to_le_bytes());
            }
            rest = &rest[fit..];
            at = at.wrapping_add(8 * fit as u64);
        }
    }

    /// Reads `n` consecutive words starting at `addr`.
    #[must_use]
    pub fn read_words(&self, addr: u64, n: usize) -> Vec<u64> {
        (0..n).map(|i| self.read_u64(addr + 8 * i as u64)).collect()
    }

    /// The resident pages by page number.
    fn pages(&self) -> BTreeMap<u64, &[u8]> {
        let pages = self.bytes.chunks_exact(PAGE_SIZE);
        self.numbers.iter().copied().zip(pages).collect()
    }
}

/// The pages as a map from page number to bytes, in page order.
impl fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryImage")
            .field("pages", &self.pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl MemoryImage {
        /// Number of populated 4 KB pages (for footprint assertions in tests).
        fn resident_pages(&self) -> usize {
            self.numbers.len()
        }
    }

    /// The image as an ordered map of pages: the reference
    /// [`MemoryImage`] is held to.
    #[derive(Default)]
    struct TreeImage {
        pages: BTreeMap<u64, Vec<u8>>,
    }

    impl TreeImage {
        fn read_u8(&self, addr: u64) -> u8 {
            self.pages
                .get(&(addr >> PAGE_SHIFT))
                .map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
        }

        fn write_u8(&mut self, addr: u64, value: u8) {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| vec![0; PAGE_SIZE]);
            page[(addr as usize) & (PAGE_SIZE - 1)] = value;
        }

        fn read_u64(&self, addr: u64) -> u64 {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
            u64::from_le_bytes(bytes)
        }

        fn write_u64(&mut self, addr: u64, value: u64) {
            for (i, b) in value.to_le_bytes().into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), b);
            }
        }
    }

    /// The resident pages by page number.
    fn pages(m: &MemoryImage) -> BTreeMap<u64, Vec<u8>> {
        m.pages()
            .into_iter()
            .map(|(n, b)| (n, b.to_vec()))
            .collect()
    }

    /// An address in one of 40 pages spread over the address space (more
    /// than the first table holds, so it grows), near a page edge half
    /// the time so that some words straddle two pages.
    fn arb_addr() -> impl Strategy<Value = u64> {
        (
            0u64..40,
            prop_oneof![0usize..PAGE_SIZE, PAGE_SIZE - 12..PAGE_SIZE],
        )
            .prop_map(|(page, off)| ((page * 0x1_0101) << PAGE_SHIFT) + off as u64)
    }

    proptest! {
        /// A run of word writes, near page edges half the time (so
        /// some straddle two pages), leaves the image the same pages
        /// holding the same bytes as writing each word byte by byte,
        /// and every word reads back as the later writes left it.
        #[test]
        fn word_writes_equal_byte_writes(
            writes in prop::collection::vec(
                (0u64..4, prop_oneof![0usize..PAGE_SIZE, PAGE_SIZE - 12..PAGE_SIZE], any::<u64>()),
                1..64,
            ),
        ) {
            let (mut words, mut bytes) = (MemoryImage::new(), MemoryImage::new());
            for &(page, off, value) in &writes {
                let addr = (page << PAGE_SHIFT) + off as u64;
                words.write_u64(addr, value);
                for (i, b) in value.to_le_bytes().into_iter().enumerate() {
                    bytes.write_u8(addr + i as u64, b);
                }
                prop_assert_eq!(words.read_u64(addr), value);
            }
            prop_assert_eq!(pages(&words), pages(&bytes));
        }

        /// Any run of byte and word reads and writes, of word-run loads
        /// (some spanning three pages) and of clones, many straddling two
        /// pages and each followed by reads of its own address and of the
        /// one before it, so lookups alternate between pages, reads what
        /// the ordered map of pages reads and leaves the same pages
        /// resident with the same bytes.
        #[test]
        fn hashed_pages_equal_the_ordered_map(
            ops in prop::collection::vec((0u8..6, arb_addr(), any::<u64>()), 1..200),
        ) {
            let (mut image, mut tree) = (MemoryImage::new(), TreeImage::default());
            let mut before = 0;
            for &(kind, addr, value) in &ops {
                // 1 to 1 100 words: past two page boundaries at most.
                let run: Vec<u64> = (0..1 + value % 1100).map(|i| value.rotate_left(i as u32)).collect();
                match kind {
                    0 => image.write(addr, 1, value),
                    1 => image.write(addr, 8, value),
                    2 => image.load_words(addr, &run),
                    3 => image = image.clone(),
                    _ => {}
                }
                match kind {
                    0 => tree.write_u8(addr, value as u8),
                    1 => tree.write_u64(addr, value),
                    2 => {
                        for (i, &w) in run.iter().enumerate() {
                            tree.write_u64(addr + 8 * i as u64, w);
                        }
                    }
                    _ => {}
                }
                for at in [addr, before, addr] {
                    prop_assert_eq!(image.read(at, 1), u64::from(tree.read_u8(at)));
                    prop_assert_eq!(image.read(at, 8), tree.read_u64(at));
                }
                prop_assert_eq!(image.resident_pages(), tree.pages.len());
                before = addr;
            }
            prop_assert_eq!(pages(&image), tree.pages);
        }
    }

    #[test]
    fn the_image_is_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<MemoryImage>();
    }

    #[test]
    fn zero_initialized() {
        let m = MemoryImage::new();
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn word_roundtrip_and_endianness() {
        let mut m = MemoryImage::new();
        m.write_u64(0x100, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(0x100), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(0x100), 0x08, "little-endian low byte first");
        assert_eq!(m.read_u8(0x107), 0x01);
    }

    #[test]
    fn cross_page_word() {
        let mut m = MemoryImage::new();
        let addr = (1 << 12) - 4; // straddles the first page boundary
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn sized_access() {
        let mut m = MemoryImage::new();
        m.write(0x40, 8, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read(0x40, 1), 0x11);
        m.write(0x40, 1, 0x99);
        assert_eq!(m.read(0x40, 8), 0xAABB_CCDD_EEFF_0099);
    }

    #[test]
    fn bulk_words() {
        let mut m = MemoryImage::new();
        m.load_words(0x1000, &[1, 2, 3]);
        assert_eq!(m.read_words(0x1000, 3), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn bad_size_panics() {
        let m = MemoryImage::new();
        let _ = m.read(0, 4);
    }
}
