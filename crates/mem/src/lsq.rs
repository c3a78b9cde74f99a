//! Load/store queue banks: disambiguation, forwarding, NACK overflow.

use crate::image::MemoryImage;

/// Outcome of trying to slot a memory operation into an LSQ bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsqInsert<T> {
    /// The operation was accepted.
    Ok(T),
    /// The bank is full; the requester must retry later (§4.5's NACK
    /// overflow mechanism).
    Nack,
}

impl<T> LsqInsert<T> {
    /// True for [`LsqInsert::Nack`].
    #[must_use]
    pub fn is_nack(&self) -> bool {
        matches!(self, LsqInsert::Nack)
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Global memory order: `block_seq * 32 + LSID`.
    seq: u64,
    addr: u64,
    size: u8,
    is_store: bool,
    value: u64,
}

/// One address-interleaved LSQ bank (44 entries in TFlex).
///
/// All operations to a given address hash to the same bank, so each bank
/// disambiguates independently. Loads forward from older in-flight stores
/// at byte granularity; stores detect younger already-performed loads to
/// overlapping bytes as ordering violations.
///
/// # Examples
///
/// ```
/// use clp_mem::{LsqBank, LsqInsert, MemoryImage};
///
/// let mut image = MemoryImage::new();
/// let mut lsq = LsqBank::new(44);
/// // An in-flight store forwards to a younger load before commit.
/// lsq.execute_store(0, 0x40, 8, 99);
/// assert_eq!(lsq.execute_load(1, 0x40, 8, &image), LsqInsert::Ok(99));
/// assert_eq!(image.read_u64(0x40), 0, "speculative until committed");
/// lsq.commit_range(0, 32, &mut image);
/// assert_eq!(image.read_u64(0x40), 99);
/// ```
#[derive(Clone, Debug)]
pub struct LsqBank {
    capacity: usize,
    entries: Vec<Entry>,
}

fn overlap(a_addr: u64, a_size: u8, b_addr: u64, b_size: u8) -> bool {
    a_addr < b_addr + u64::from(b_size) && b_addr < a_addr + u64::from(a_size)
}

impl LsqBank {
    /// Creates an empty bank with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LsqBank {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bank capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Executes a load: slots it and returns its value, assembled byte by
    /// byte from the youngest older in-flight store covering each byte,
    /// falling back to the architectural image. `size` is 1 or 8.
    pub fn execute_load(
        &mut self,
        seq: u64,
        addr: u64,
        size: u8,
        image: &MemoryImage,
    ) -> LsqInsert<u64> {
        if self.entries.len() >= self.capacity {
            return LsqInsert::Nack;
        }
        let overlapped = self
            .entries
            .iter()
            .any(|e| e.is_store && e.seq < seq && overlap(e.addr, e.size, addr, size));
        let value = if overlapped {
            self.assemble(seq, addr, size, image)
        } else {
            image.read(addr, size)
        };
        self.entries.push(Entry {
            seq,
            addr,
            size,
            is_store: false,
            value: 0,
        });
        LsqInsert::Ok(value)
    }

    /// A load's value when some older store overlaps it: each byte from
    /// the youngest older store covering it, else from the image.
    fn assemble(&self, seq: u64, addr: u64, size: u8, image: &MemoryImage) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, byte) in bytes.iter_mut().enumerate().take(size as usize) {
            let baddr = addr + i as u64;
            let src = self
                .entries
                .iter()
                .filter(|e| e.is_store && e.seq < seq && overlap(e.addr, e.size, baddr, 1))
                .max_by_key(|e| e.seq);
            *byte = match src {
                Some(st) => st.value.to_le_bytes()[(baddr - st.addr) as usize],
                None => image.read_u8(baddr),
            };
        }
        u64::from_le_bytes(bytes)
    }

    /// Executes a store: slots it (value buffered until commit) and
    /// reports the sequence number of the oldest *younger* load that
    /// already read overlapping bytes, if any — an ordering violation the
    /// pipeline must squash from.
    pub fn execute_store(
        &mut self,
        seq: u64,
        addr: u64,
        size: u8,
        value: u64,
    ) -> LsqInsert<Option<u64>> {
        if self.entries.len() >= self.capacity {
            return LsqInsert::Nack;
        }
        let violation = self
            .entries
            .iter()
            .filter(|e| !e.is_store && e.seq > seq && overlap(e.addr, e.size, addr, size))
            .map(|e| e.seq)
            .min();
        self.entries.push(Entry {
            seq,
            addr,
            size,
            is_store: true,
            value,
        });
        LsqInsert::Ok(violation)
    }

    /// Commits all entries with `lo_seq <= seq < hi_seq`: stores are
    /// applied to the image in sequence order, and every entry in the
    /// range (loads included) is deallocated. Returns the `(address,
    /// size)` of each committed store so the caller can update cache
    /// state.
    pub fn commit_range(
        &mut self,
        lo_seq: u64,
        hi_seq: u64,
        image: &mut MemoryImage,
    ) -> Vec<(u64, u8)> {
        let mut stores: Vec<Entry> = self
            .entries
            .iter()
            .filter(|e| e.is_store && e.seq >= lo_seq && e.seq < hi_seq)
            .copied()
            .collect();
        stores.sort_by_key(|e| e.seq);
        let mut committed = Vec::with_capacity(stores.len());
        for st in stores {
            image.write(st.addr, st.size, st.value);
            committed.push((st.addr, st.size));
        }
        self.entries.retain(|e| e.seq < lo_seq || e.seq >= hi_seq);
        committed
    }

    /// The sequence number of every entry present, in insertion order.
    pub fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|e| e.seq)
    }

    /// The youngest (largest) sequence number present in the bank.
    #[must_use]
    pub fn youngest_seq(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.seq).max()
    }

    /// Squashes all entries with `seq >= from_seq` (pipeline flush).
    pub fn flush_from(&mut self, from_seq: u64) {
        self.entries.retain(|e| e.seq < from_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(block: u64, lsid: u64) -> u64 {
        block * 32 + lsid
    }

    #[test]
    fn load_reads_image_when_no_stores() {
        let mut image = MemoryImage::new();
        image.write_u64(0x100, 77);
        let mut lsq = LsqBank::new(44);
        let v = lsq.execute_load(seq(0, 0), 0x100, 8, &image);
        assert_eq!(v, LsqInsert::Ok(77));
    }

    #[test]
    fn store_to_load_forwarding_exact() {
        let image = MemoryImage::new();
        let mut lsq = LsqBank::new(44);
        assert_eq!(
            lsq.execute_store(seq(0, 0), 0x40, 8, 123),
            LsqInsert::Ok(None)
        );
        let v = lsq.execute_load(seq(0, 1), 0x40, 8, &image);
        assert_eq!(v, LsqInsert::Ok(123), "forwarded from in-flight store");
    }

    #[test]
    fn forwarding_is_byte_granular() {
        let mut image = MemoryImage::new();
        image.write_u64(0x40, 0xFFFF_FFFF_FFFF_FFFF);
        let mut lsq = LsqBank::new(44);
        // Older byte store overwrites one byte of the word.
        lsq.execute_store(seq(0, 0), 0x42, 1, 0xAB);
        let v = lsq.execute_load(seq(0, 1), 0x40, 8, &image);
        assert_eq!(v, LsqInsert::Ok(0xFFFF_FFFF_FFAB_FFFF));
    }

    #[test]
    fn youngest_older_store_wins() {
        let image = MemoryImage::new();
        let mut lsq = LsqBank::new(44);
        lsq.execute_store(seq(0, 0), 0x40, 8, 1);
        lsq.execute_store(seq(0, 2), 0x40, 8, 2);
        let v = lsq.execute_load(seq(1, 0), 0x40, 8, &image);
        assert_eq!(v, LsqInsert::Ok(2));
        // A load *between* the stores sees only the first.
        let v2 = lsq.execute_load(seq(0, 1), 0x40, 8, &image);
        assert_eq!(v2, LsqInsert::Ok(1));
    }

    #[test]
    fn violation_detected_on_late_store() {
        let image = MemoryImage::new();
        let mut lsq = LsqBank::new(44);
        // Load from block 1 performs before an older store from block 0.
        lsq.execute_load(seq(1, 3), 0x80, 8, &image);
        let v = lsq.execute_store(seq(0, 5), 0x80, 8, 9);
        assert_eq!(v, LsqInsert::Ok(Some(seq(1, 3))));
    }

    #[test]
    fn no_violation_for_disjoint_addresses() {
        let image = MemoryImage::new();
        let mut lsq = LsqBank::new(44);
        lsq.execute_load(seq(1, 0), 0x80, 8, &image);
        let v = lsq.execute_store(seq(0, 0), 0x88, 8, 9);
        assert_eq!(v, LsqInsert::Ok(None));
    }

    #[test]
    fn nack_when_full() {
        let image = MemoryImage::new();
        let mut lsq = LsqBank::new(2);
        assert!(!lsq.execute_load(0, 0, 8, &image).is_nack());
        assert!(!lsq.execute_store(1, 8, 8, 0).is_nack());
        assert!(lsq.execute_load(2, 16, 8, &image).is_nack());
        assert_eq!(lsq.len(), 2);
    }

    #[test]
    fn commit_applies_stores_in_order_and_frees() {
        let mut image = MemoryImage::new();
        let mut lsq = LsqBank::new(44);
        lsq.execute_store(seq(0, 1), 0x40, 8, 1);
        lsq.execute_store(seq(0, 0), 0x40, 8, 2); // older, same addr
        lsq.execute_load(seq(0, 2), 0x40, 8, &image);
        let n = lsq.commit_range(seq(0, 0), seq(1, 0), &mut image);
        assert_eq!(n.len(), 2);
        assert!(n.iter().all(|&(a, s)| a == 0x40 && s == 8));
        assert_eq!(image.read_u64(0x40), 1, "younger store wins");
        assert!(lsq.is_empty());
    }

    #[test]
    fn flush_drops_younger_only() {
        let image = MemoryImage::new();
        let mut lsq = LsqBank::new(44);
        lsq.execute_store(seq(0, 0), 0, 8, 1);
        lsq.execute_store(seq(2, 0), 8, 8, 2);
        lsq.flush_from(seq(1, 0));
        assert_eq!(lsq.len(), 1);
        let mut image2 = MemoryImage::new();
        lsq.commit_range(0, seq(1, 0), &mut image2);
        assert_eq!(image2.read_u64(0), 1);
        assert_eq!(image2.read_u64(8), 0, "flushed store never committed");
        let _ = image;
    }
}
