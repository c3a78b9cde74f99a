//! The functional memory image: a sparse, paged, byte-addressable space.

use std::collections::BTreeMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A sparse 64-bit byte-addressable memory holding the *architectural*
/// contents of memory. Little-endian, zero-initialized.
///
/// The caches and LSQs in this crate model timing and coherence state
/// only; every committed value lives here, which keeps functional
/// correctness independent of the timing model.
#[derive(Clone, Debug, Default)]
pub struct MemoryImage {
    pages: BTreeMap<u64, Vec<u8>>,
}

impl MemoryImage {
    /// Creates an empty (all-zero) image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| vec![0; PAGE_SIZE]);
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian 64-bit word (no alignment requirement).
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            // The word sits inside one page: one lookup.
            return match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes")),
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
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off <= PAGE_SIZE - 8 {
            // The word sits inside one page: one lookup.
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| vec![0; PAGE_SIZE]);
            page[off..off + 8].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Reads `size` bytes (1 or 8) as a zero-extended word.
    #[must_use]
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        match size {
            1 => u64::from(self.read_u8(addr)),
            8 => self.read_u64(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes (1 or 8) of `value`.
    pub fn write(&mut self, addr: u64, size: u8, value: u64) {
        match size {
            1 => self.write_u8(addr, value as u8),
            8 => self.write_u64(addr, value),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Copies a slice of words into memory starting at `addr`.
    pub fn load_words(&mut self, addr: u64, words: &[u64]) {
        for (i, &w) in words.iter().enumerate() {
            self.write_u64(addr + 8 * i as u64, w);
        }
    }

    /// Reads `n` consecutive words starting at `addr`.
    #[must_use]
    pub fn read_words(&self, addr: u64, n: usize) -> Vec<u64> {
        (0..n).map(|i| self.read_u64(addr + 8 * i as u64)).collect()
    }

    /// Number of populated 4 KB pages (for footprint assertions in tests).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            prop_assert_eq!(&words.pages, &bytes.pages);
        }
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
