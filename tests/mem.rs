//! Property tests for the memory system: the LSQ against a reference
//! memory model and against the byte-at-a-time bank it replaced, cache
//! state-machine invariants, and bank-hash stability.

use clp::mem::{dbank_for, CacheBank, CacheGeometry, LsqBank, LsqInsert, MemoryImage};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A memory operation in program order.
#[derive(Clone, Debug)]
enum MemOp {
    Load { addr: u64 },
    Store { addr: u64, value: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<MemOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..16).prop_map(|a| MemOp::Load {
                addr: 0x100 + a * 8
            }),
            (0u64..16, any::<u64>()).prop_map(|(a, v)| MemOp::Store {
                addr: 0x100 + a * 8,
                value: v
            }),
        ],
        1..40,
    )
}

proptest! {
    /// Loads executed in program order against the LSQ return exactly
    /// what a flat reference memory would, and committing produces the
    /// same final memory.
    #[test]
    fn lsq_in_order_matches_flat_memory(ops in arb_ops()) {
        let mut image = MemoryImage::new();
        let mut lsq = LsqBank::new(64);
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            let seq = i as u64;
            match *op {
                MemOp::Load { addr } => {
                    let LsqInsert::Ok(v) = lsq.execute_load(seq, addr, 8, &image) else {
                        panic!("bank sized to never NACK");
                    };
                    let want = reference.get(&addr).copied().unwrap_or(0);
                    prop_assert_eq!(v, want, "load at {:#x}", addr);
                }
                MemOp::Store { addr, value } => {
                    let LsqInsert::Ok(violation) =
                        lsq.execute_store(seq, addr, 8, value) else {
                        panic!("bank sized to never NACK");
                    };
                    // Program order: a store never sees younger performed
                    // loads, so no violation in in-order execution.
                    prop_assert_eq!(violation, None);
                    reference.insert(addr, value);
                }
            }
        }
        lsq.commit_range(0, ops.len() as u64, &mut image);
        for (addr, want) in reference {
            prop_assert_eq!(image.read_u64(addr), want);
        }
    }

    /// Out-of-order execution with a flush-on-violation policy converges
    /// to the same final memory as in-order execution.
    #[test]
    fn lsq_violations_are_exactly_the_reordered_conflicts(
        ops in arb_ops(),
        swap_at in any::<prop::sample::Index>(),
    ) {
        if ops.len() < 2 {
            return Ok(());
        }
        // Execute with two adjacent operations swapped in time (but
        // keeping their program-order sequence numbers).
        let k = swap_at.index(ops.len() - 1);
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.swap(k, k + 1);

        let image = MemoryImage::new();
        let mut lsq = LsqBank::new(64);
        let mut violated = false;
        for &i in &order {
            match ops[i] {
                MemOp::Load { addr } => {
                    let _ = lsq.execute_load(i as u64, addr, 8, &image);
                }
                MemOp::Store { addr, value } => {
                    if let LsqInsert::Ok(Some(_)) =
                        lsq.execute_store(i as u64, addr, 8, value)
                    {
                        violated = true;
                    }
                }
            }
        }
        // A violation is possible only if the swapped pair was an
        // (older store, younger load) to overlapping addresses.
        let conflict = matches!(
            (&ops[k], &ops[k + 1]),
            (MemOp::Store { addr: a, .. }, MemOp::Load { addr: b }) if a == b
        );
        if violated {
            prop_assert!(conflict, "violation without a real conflict");
        }
    }

    /// The cache never reports a hit for a line it has not been asked
    /// about, and probing after access always hits.
    #[test]
    fn cache_probe_after_access_hits(addrs in prop::collection::vec(0u64..0x10000, 1..64)) {
        let mut c = CacheBank::new(CacheGeometry {
            bytes: 2048,
            line_bytes: 64,
            ways: 2,
        });
        for &a in &addrs {
            let _ = c.access(a, false);
            prop_assert!(c.probe(a), "just-accessed line must be present");
        }
    }

    /// Bank hashing is line-stable and in range for every composition.
    #[test]
    fn dbank_line_stable(addr in any::<u64>(), log_cores in 0u32..6) {
        let n = 1usize << log_cores;
        let b = dbank_for(addr, n);
        prop_assert!(b < n);
        prop_assert_eq!(b, dbank_for(addr & !63, n));
        prop_assert_eq!(b, dbank_for(addr | 63, n));
    }
}

/// The page size of [`MemoryImage`]: the streams below straddle the
/// boundary at `PAGE` so that words cross it.
const PAGE: u64 = 1 << 12;

/// One step of an LSQ stream. Accesses carry their own memory order and
/// arrive in any order; a flush or a commit trims the bank between them.
#[derive(Clone, Debug)]
enum LsqStep {
    Load {
        seq: u64,
        addr: u64,
        size: u8,
    },
    Store {
        seq: u64,
        addr: u64,
        size: u8,
        value: u64,
    },
    Flush {
        from: u64,
    },
    Commit {
        below: u64,
    },
}

fn arb_access() -> impl Strategy<Value = (u64, u64, u8)> {
    // 48 bytes around a page boundary, any alignment, sizes 1 and 8.
    (
        0u64..48,
        PAGE - 24..PAGE + 24,
        prop::sample::select(vec![1u8, 8]),
    )
}

fn arb_stream() -> impl Strategy<Value = Vec<LsqStep>> {
    let load = arb_access()
        .prop_map(|(seq, addr, size)| LsqStep::Load { seq, addr, size })
        .boxed();
    let store = (arb_access(), any::<u64>())
        .prop_map(|((seq, addr, size), value)| LsqStep::Store {
            seq,
            addr,
            size,
            value,
        })
        .boxed();
    prop::collection::vec(
        prop_oneof![
            load.clone(),
            load,
            store.clone(),
            store,
            (0u64..48).prop_map(|from| LsqStep::Flush { from }),
            (0u64..48).prop_map(|below| LsqStep::Commit { below }),
        ],
        1..80,
    )
}

/// An LSQ entry of [`RefBank`].
#[derive(Clone, Copy, Debug)]
struct RefEntry {
    seq: u64,
    addr: u64,
    size: u8,
    is_store: bool,
    value: u64,
}

impl RefEntry {
    fn overlaps(&self, addr: u64, size: u8) -> bool {
        self.addr < addr + u64::from(size) && addr < self.addr + u64::from(self.size)
    }
}

/// The LSQ bank as first written: a load finds each of its bytes by a
/// scan of its own for the youngest older store covering it, and reads
/// the image a byte at a time. [`LsqBank`] is held to it.
struct RefBank {
    capacity: usize,
    entries: Vec<RefEntry>,
}

impl RefBank {
    fn load(&mut self, seq: u64, addr: u64, size: u8, image: &MemoryImage) -> LsqInsert<u64> {
        if self.entries.len() >= self.capacity {
            return LsqInsert::Nack;
        }
        let mut bytes = [0u8; 8];
        for (i, byte) in bytes.iter_mut().enumerate().take(usize::from(size)) {
            let baddr = addr + i as u64;
            let src = self
                .entries
                .iter()
                .filter(|e| e.is_store && e.seq < seq && e.overlaps(baddr, 1))
                .max_by_key(|e| e.seq);
            *byte = match src {
                Some(st) => st.value.to_le_bytes()[(baddr - st.addr) as usize],
                None => image.read_u8(baddr),
            };
        }
        self.entries.push(RefEntry {
            seq,
            addr,
            size,
            is_store: false,
            value: 0,
        });
        LsqInsert::Ok(u64::from_le_bytes(bytes))
    }

    fn store(&mut self, seq: u64, addr: u64, size: u8, value: u64) -> LsqInsert<Option<u64>> {
        if self.entries.len() >= self.capacity {
            return LsqInsert::Nack;
        }
        let violation = self
            .entries
            .iter()
            .filter(|e| !e.is_store && e.seq > seq && e.overlaps(addr, size))
            .map(|e| e.seq)
            .min();
        self.entries.push(RefEntry {
            seq,
            addr,
            size,
            is_store: true,
            value,
        });
        LsqInsert::Ok(violation)
    }

    fn commit_below(&mut self, below: u64, image: &mut MemoryImage) -> Vec<(u64, u8)> {
        let mut stores: Vec<RefEntry> = self
            .entries
            .iter()
            .filter(|e| e.is_store && e.seq < below)
            .copied()
            .collect();
        stores.sort_by_key(|e| e.seq);
        for st in &stores {
            for (i, b) in st
                .value
                .to_le_bytes()
                .iter()
                .take(usize::from(st.size))
                .enumerate()
            {
                image.write_u8(st.addr + i as u64, *b);
            }
        }
        self.entries.retain(|e| e.seq >= below);
        stores.iter().map(|e| (e.addr, e.size)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The bank's load — one scan for an overlapping older store, then
    /// one image read or the byte loop — answers exactly what the
    /// byte-at-a-time bank answers, on random store/load streams with
    /// misaligned and page-crossing addresses, NACKs, flushes and
    /// commits; and the two banks hold the same entries throughout
    /// (same length and youngest entry after every step, the same stores
    /// committed in the same order, the same memory at the end).
    #[test]
    fn lsq_load_matches_the_byte_at_a_time_bank(
        init in prop::collection::vec(any::<u64>(), 8),
        steps in arb_stream(),
        capacity in 4usize..24,
    ) {
        let mut image = MemoryImage::new();
        for (i, &w) in init.iter().enumerate() {
            image.write_u64(PAGE - 32 + 8 * i as u64, w);
        }
        let mut ref_image = image.clone();
        let mut bank = LsqBank::new(capacity);
        let mut reference = RefBank { capacity, entries: Vec::new() };
        for (i, step) in steps.iter().enumerate() {
            match *step {
                LsqStep::Load { seq, addr, size } => prop_assert_eq!(
                    bank.execute_load(seq, addr, size, &image),
                    reference.load(seq, addr, size, &ref_image),
                    "step {}: {:?}", i, step
                ),
                LsqStep::Store { seq, addr, size, value } => prop_assert_eq!(
                    bank.execute_store(seq, addr, size, value),
                    reference.store(seq, addr, size, value),
                    "step {}: {:?}", i, step
                ),
                LsqStep::Flush { from } => {
                    bank.flush_from(from);
                    reference.entries.retain(|e| e.seq < from);
                }
                LsqStep::Commit { below } => prop_assert_eq!(
                    bank.commit_range(0, below, &mut image),
                    reference.commit_below(below, &mut ref_image),
                    "step {}", i
                ),
            }
            prop_assert_eq!(bank.len(), reference.entries.len(), "step {}", i);
            prop_assert_eq!(
                bank.youngest_seq(),
                reference.entries.iter().map(|e| e.seq).max(),
                "step {}", i
            );
        }
        prop_assert_eq!(
            bank.commit_range(0, u64::MAX, &mut image),
            reference.commit_below(u64::MAX, &mut ref_image)
        );
        for addr in PAGE - 40..PAGE + 40 {
            prop_assert_eq!(image.read_u8(addr), ref_image.read_u8(addr), "byte {:#x}", addr);
        }
    }
}
