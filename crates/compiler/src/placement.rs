//! Placement-aware instruction-ID assignment.
//!
//! In an N-core composition, instruction `i` lives on core `i mod N`
//! (Figure 4a). This pass renumbers a block's instructions so that
//! consumers land on the same core as their producers where possible,
//! scheduling for the largest (32-core) composition; the paper notes that
//! scheduling for 32 cores and running on fewer degrades little, which
//! also holds for this scheduler because `i ≡ p (mod 32)` implies
//! `i ≡ p (mod N)` for every smaller power-of-two N.

use clp_isa::{InstId, Instruction, Target};

/// Renumbers `insts` (a block's instructions in builder order) to place
/// dependent instructions on the same core of an `n_cores` target,
/// rewriting all dataflow targets. Blocks too large to be valid, and
/// targets that are not a power of two of at most `MAX_CORES` cores,
/// are returned unchanged (validation rejects such a block with a better
/// error).
#[must_use]
pub fn schedule(insts: Vec<Instruction>, n_cores: usize) -> Vec<Instruction> {
    scheduled(&insts, n_cores).unwrap_or(insts)
}

/// The largest composition [`schedule`] places for: twice TFlex's 32
/// cores, so that a residue class is a bit of a `u64`.
const MAX_CORES: usize = 64;

/// [`schedule`] into a new vector of exactly `insts.len()`, or `None`
/// for a block it leaves unchanged. Its working state is a few arrays of
/// `MAX_BLOCK_INSTRUCTIONS` bytes on the stack: every instruction index
/// fits a byte.
#[must_use]
pub(crate) fn scheduled(insts: &[Instruction], n_cores: usize) -> Option<Vec<Instruction>> {
    const MAX: usize = clp_isa::MAX_BLOCK_INSTRUCTIONS;
    const NONE: u8 = u8::MAX;
    let n = insts.len();
    if n == 0 || n > MAX || !n_cores.is_power_of_two() || n_cores > MAX_CORES {
        return None;
    }

    // One walk over the targets: each instruction's consumers, and each
    // one's in-degree (at most two targets per instruction, so 16 bits)
    // and first producer. Kahn's algorithm then reads the consumers.
    let mut consumers = [[0u8; 2]; MAX];
    let mut fanout = [0u8; MAX];
    let mut indeg = [0u16; MAX];
    let mut first_producer = [NONE; MAX];
    for (i, inst) in insts.iter().enumerate() {
        for t in inst.targets.iter().flatten() {
            let c = t.inst.index();
            consumers[i][usize::from(fanout[i])] = c as u8;
            fanout[i] += 1;
            indeg[c] += 1;
            if first_producer[c] == NONE {
                first_producer[c] = i as u8;
            }
        }
    }
    // `topo[..len]` is the order so far; `topo[head..len]` the queue.
    let mut topo = [0u8; MAX];
    let mut len = 0;
    for i in (0..n).filter(|&i| indeg[i] == 0) {
        topo[len] = i as u8;
        len += 1;
    }
    let mut head = 0;
    while head < len {
        let i = usize::from(topo[head]);
        head += 1;
        for &c in &consumers[i][..usize::from(fanout[i])] {
            let c = usize::from(c);
            indeg[c] -= 1;
            if indeg[c] == 0 {
                topo[len] = c as u8;
                len += 1;
            }
        }
    }
    if len != n {
        // Cyclic (invalid) block: leave untouched for validation to report.
        return None;
    }

    // The free IDs of residue class `r` are `next[r]`, `next[r] +
    // n_cores`, ... below `n`: each class hands out its smallest first,
    // and bit `r` of `free` says it has one left. A class at or past `n`
    // never has one, so only the first `n` are kept.
    let mut next = [0u8; MAX];
    for (r, slot) in next[..n].iter_mut().enumerate() {
        *slot = r as u8;
    }
    let mut free = u64::MAX >> (64 - n.min(n_cores));

    let mut new_id = [NONE; MAX];
    let mut rr = 0usize; // round-robin for source instructions
    for &i in &topo[..n] {
        let i = usize::from(i);
        // `n_cores` is a power of two: `& (n_cores - 1)` is `% n_cores`.
        let preferred = match first_producer[i] {
            p if p != NONE && new_id[usize::from(p)] != NONE => {
                usize::from(new_id[usize::from(p)]) & (n_cores - 1)
            }
            _ => {
                rr = (rr + 1) & (n_cores - 1);
                rr
            }
        };
        let residue = if free >> preferred & 1 == 1 {
            preferred
        } else {
            pick(free, preferred, n_cores)
        };
        new_id[i] = next[residue];
        let after = usize::from(next[residue]) + n_cores;
        if after >= n {
            free &= !(1 << residue);
        } else {
            next[residue] = after as u8;
        }
    }

    // Apply the permutation.
    let mut old_id = [0u8; MAX];
    for (i, &id) in new_id[..n].iter().enumerate() {
        old_id[usize::from(id)] = i as u8;
    }
    Some(
        old_id[..n]
            .iter()
            .map(|&i| {
                let mut inst = insts[usize::from(i)].clone();
                for t in inst.targets.iter_mut().flatten() {
                    let id = usize::from(new_id[t.inst.index()]);
                    *t = Target::new(InstId::new(id), t.operand);
                }
                inst
            })
            .collect(),
    )
}

/// `EVERY[k]`: bits `0`, `2 << k`, `2 * (2 << k)`, ... of a `u64`.
const EVERY: [u64; 6] = {
    let mut every = [0; 6];
    let mut k = 0;
    while k < 6 {
        let mut bit = 0;
        while bit < 64 {
            every[k] |= 1 << bit;
            bit += 2 << k;
        }
        k += 1;
    }
    every
};

/// The free residue class (bit `r` of `free`) sharing the most low-order bits
/// with `preferred`, which is not free itself: instruction IDs select the
/// core by their low bits, so maximal low-bit agreement preserves
/// producer/consumer co-location for every smaller composition even when
/// the exact class is full.
/// Among equally agreeing classes the nearest wins, and of two equally
/// near the higher. `n_cores` is a power of two of at most [`MAX_CORES`]
/// and `preferred` is below it.
///
/// The classes agreeing with `preferred` in exactly `k` low bits are
/// those congruent to `preferred ^ (1 << k)` modulo `2 << k`, so the
/// pick walks `k` down from the exact class and stops at the first
/// level holding a free one. Of a level's free classes, the nearest is
/// the highest below `preferred` or the lowest above it.
fn pick(free: u64, preferred: usize, n_cores: usize) -> usize {
    for k in (0..n_cores.trailing_zeros()).rev() {
        // Bits `first`, `first + (2 << k)`, ...: the level's classes.
        let first = (preferred ^ (1 << k)) & ((2 << k) - 1);
        let free = free & EVERY[k as usize] << first;
        if free == 0 {
            continue;
        }
        let below = free & ((1 << preferred) - 1);
        let above = free & !below;
        let lo = (below != 0).then(|| 63 - below.leading_zeros() as usize);
        if above == 0 {
            return lo.expect("the level holds a free class");
        }
        let hi = above.trailing_zeros() as usize;
        return match lo {
            Some(l) if hi - preferred > preferred - l => l,
            _ => hi,
        };
    }
    unreachable!("a slot is free by counting")
}

/// Fraction of dataflow edges whose producer and consumer share a core in
/// an `n_cores` composition (a locality metric used by tests and the
/// ablation benches).
#[must_use]
pub fn locality(insts: &[Instruction], n_cores: usize) -> f64 {
    let mut edges = 0usize;
    let mut local = 0usize;
    for (i, inst) in insts.iter().enumerate() {
        for t in inst.targets() {
            edges += 1;
            if i % n_cores == t.inst.index() % n_cores {
                local += 1;
            }
        }
    }
    if edges == 0 {
        1.0
    } else {
        local as f64 / edges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_isa::{Block, BlockBuilder, BranchKind, Opcode, Reg};

    fn chain_block_insts() -> Vec<Instruction> {
        // A long dependence chain: ideal placement keeps it on one core.
        let mut b = BlockBuilder::new(0);
        let mut v = b.movi(1);
        for _ in 0..20 {
            v = b.op1i(Opcode::Addi, v, 1);
        }
        b.write(Reg::new(1), v);
        b.branch(BranchKind::Halt, None, 0);
        b.into_instructions()
    }

    #[test]
    fn scheduling_preserves_validity_and_semantics_shape() {
        let insts = chain_block_insts();
        let n = insts.len();
        let placed = schedule(insts, 32);
        assert_eq!(placed.len(), n);
        let block = Block::from_instructions(0, placed).expect("still valid");
        assert_eq!(block.len(), n);
    }

    #[test]
    fn scheduling_improves_chain_locality() {
        // A 23-instruction block cannot co-locate anything at 32 cores
        // (dense IDs give every instruction a distinct residue), but the
        // low-bit-agreement fallback must deliver locality at 4 cores.
        let insts = chain_block_insts();
        let before = locality(&insts, 4);
        let placed = schedule(insts, 32);
        let after = locality(&placed, 4);
        assert!(
            after >= before,
            "locality must not regress: {before} -> {after}"
        );
        assert!(after > 0.5, "chain should be mostly local, got {after}");
    }

    #[test]
    fn locality_transfers_to_smaller_compositions() {
        let placed = schedule(chain_block_insts(), 32);
        let l32 = locality(&placed, 32);
        let l4 = locality(&placed, 4);
        assert!(l4 >= l32, "mod-32 locality implies mod-4 locality");
        // A long chain on a big block does achieve mod-32 locality.
        let mut b = clp_isa::BlockBuilder::new(0);
        let mut v = b.movi(1);
        for _ in 0..100 {
            v = b.op1i(Opcode::Addi, v, 1);
        }
        b.write(Reg::new(1), v);
        b.branch(BranchKind::Halt, None, 0);
        let placed = schedule(b.into_instructions(), 32);
        assert!(locality(&placed, 32) > 0.5);
    }

    #[test]
    fn oversized_blocks_pass_through() {
        let insts: Vec<Instruction> = (0..200).map(|_| Instruction::new(Opcode::Movi)).collect();
        let out = schedule(insts.clone(), 32);
        assert_eq!(out.len(), insts.len());
    }

    /// The pick's definition, as a scan: of every free class, the one
    /// with the greatest (agreement, nearness), the last maximum winning.
    fn pick_by_scan(is_free: impl Fn(usize) -> bool, preferred: usize, n_cores: usize) -> usize {
        let log = n_cores.trailing_zeros();
        (0..n_cores)
            .filter(|&r| is_free(r))
            .max_by_key(|&r| {
                let agree = ((r ^ preferred) as u32).trailing_zeros().min(log);
                (agree, std::cmp::Reverse(r.abs_diff(preferred)))
            })
            .expect("some class is free")
    }

    #[test]
    fn direct_pick_equals_the_scan() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for log in 0..=MAX_CORES.trailing_zeros() {
            let n_cores = 1usize << log;
            for _ in 0..2000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let free = state.rotate_right(16) & (u64::MAX >> (64 - n_cores));
                let free = if free == 0 {
                    1 << (state % n_cores as u64)
                } else {
                    free
                };
                let is_free = |r: usize| free >> r & 1 == 1;
                for preferred in (0..n_cores).filter(|&p| !is_free(p)) {
                    assert_eq!(
                        pick(free, preferred, n_cores),
                        pick_by_scan(is_free, preferred, n_cores),
                        "n_cores {n_cores}, free {free:#b}, preferred {preferred}"
                    );
                }
            }
        }
    }

    #[test]
    fn compositions_past_max_cores_pass_through() {
        let insts = chain_block_insts();
        assert_eq!(schedule(insts.clone(), 2 * MAX_CORES), insts);
        assert_ne!(schedule(insts.clone(), MAX_CORES), insts);
    }

    #[test]
    fn empty_block_ok() {
        assert!(schedule(vec![], 32).is_empty());
        assert_eq!(locality(&[], 8), 1.0);
    }
}
