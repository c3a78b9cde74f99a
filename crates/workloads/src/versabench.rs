//! Versabench-like kernels: `802.11b` and `8b10b`.

use crate::util::{for_loop, idx8, Lcg};
use crate::{CheckSpec, IlpClass, Workload, WorkloadClass};
use clp_compiler::{FunctionBuilder, ProgramBuilder};
use clp_isa::Opcode;

const IN: u64 = 0x3_0000_0000;
const OUT: u64 = 0x3_0001_0000;

/// `802.11b`: the scrambler stage of the 802.11b PHY — a 7-bit LFSR
/// (x^7 + x^4 + 1) XORed over the payload, processed one 64-bit word at a
/// time with the 8 bit-steps per byte unrolled (high integer ILP from the
/// independent per-word bit manipulation).
#[must_use]
pub(crate) fn dot11b() -> Workload {
    let n = 112usize;
    let mut f = FunctionBuilder::new("dot11b", 3);
    let input = f.param(0);
    let out = f.param(1);
    let nv = f.param(2);
    let state = f.c(0x5b);
    for_loop(&mut f, nv, |f, i| {
        let a = idx8(f, input, i);
        let w = f.load(a, 0);
        // Generate 8 scrambler bits (one per byte lane), unrolled four
        // per block (a full 8x unroll exceeds one 128-instruction
        // hyperblock once fan-out movs are counted).
        let mut key = f.c(0);
        for lane in 0..8i64 {
            if lane == 4 {
                let half = f.new_block();
                f.jump(half);
                f.switch_to(half);
            }
            // bit = s[6] ^ s[3]
            let s6 = f.c(6);
            let t6 = f.bin(Opcode::Shr, state, s6);
            let s3 = f.c(3);
            let t3 = f.bin(Opcode::Shr, state, s3);
            let x = f.bin(Opcode::Xor, t6, t3);
            let one = f.c(1);
            let bit = f.bin(Opcode::And, x, one);
            // state = ((state << 1) | bit) & 0x7f
            let sh = f.bin(Opcode::Shl, state, one);
            let ns = f.bin(Opcode::Or, sh, bit);
            let mask = f.c(0x7f);
            f.bin_into(state, Opcode::And, ns, mask);
            // key |= (0xff * bit) << (8*lane)
            let ff = f.c(0xff);
            let by = f.bin(Opcode::Mul, bit, ff);
            let lsh = f.c(8 * lane);
            let placed = f.bin(Opcode::Shl, by, lsh);
            key = f.bin(Opcode::Or, key, placed);
        }
        let scrambled = f.bin(Opcode::Xor, w, key);
        let dst = idx8(f, out, i);
        f.store(dst, 0, scrambled);
    });
    f.ret(Some(state));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x80211);
    Workload {
        name: "802.11b",
        class: WorkloadClass::Versabench,
        ilp: IlpClass::High,
        program: pb.finish(id),
        args: vec![IN, OUT, n as u64],
        init_mem: vec![(IN, rng.words(n, u64::MAX / 2))],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, n)],
        },
    }
}

/// `8b10b`: 8b/10b line-code encoder — per input byte, a 5b/6b + 3b/4b
/// table encode with running-disparity selection (table lookups plus a
/// disparity-dependent branch per symbol).
#[must_use]
pub(crate) fn b8b10() -> Workload {
    let n = 144usize;
    const TAB5: u64 = 0x3_0002_0000;
    const TAB3: u64 = 0x3_0003_0000;
    let mut f = FunctionBuilder::new("b8b10", 5);
    let input = f.param(0);
    let out = f.param(1);
    let t5 = f.param(2);
    let t3 = f.param(3);
    let nv = f.param(4);
    let disparity = f.c(0);
    for_loop(&mut f, nv, |f, i| {
        let a = idx8(f, input, i);
        let byte = f.load(a, 0);
        let m5 = f.c(0x1f);
        let low5 = f.bin(Opcode::And, byte, m5);
        let s5 = f.c(5);
        let high3 = f.bin(Opcode::Shr, byte, s5);
        let a5 = idx8(f, t5, low5);
        let c6 = f.load(a5, 0);
        let a3 = idx8(f, t3, high3);
        let c4 = f.load(a3, 0);
        // Disparity: popcount surrogate = sum of nibble keys.
        let zd = f.c(0);
        let neg = f.bin(Opcode::Tlt, disparity, zd);
        let (flip, keep, join) = (f.new_block(), f.new_block(), f.new_block());
        let code = f.c(0);
        f.branch(neg, flip, keep);
        f.switch_to(flip);
        // Negative running disparity: complement the 6-bit group.
        let m6 = f.c(0x3f);
        let c6f = f.bin(Opcode::Xor, c6, m6);
        let s4 = f.c(4);
        let hi = f.bin(Opcode::Shl, c6f, s4);
        f.bin_into(code, Opcode::Or, hi, c4);
        f.jump(join);
        f.switch_to(keep);
        let s4b = f.c(4);
        let hi2 = f.bin(Opcode::Shl, c6, s4b);
        f.bin_into(code, Opcode::Or, hi2, c4);
        f.jump(join);
        f.switch_to(join);
        // Update disparity with a +/-1 per symbol based on bit 0.
        let one = f.c(1);
        let b0 = f.bin(Opcode::And, code, one);
        let two = f.c(2);
        let delta = f.bin(Opcode::Mul, b0, two);
        let dm1 = f.bin(Opcode::Sub, delta, one);
        f.bin_into(disparity, Opcode::Add, disparity, dm1);
        let dst = idx8(f, out, i);
        f.store(dst, 0, code);
    });
    f.ret(Some(disparity));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x8b10b);
    Workload {
        name: "8b10b",
        class: WorkloadClass::Versabench,
        ilp: IlpClass::High,
        program: pb.finish(id),
        args: vec![IN, OUT, TAB5, TAB3, n as u64],
        init_mem: vec![
            (IN, rng.words(n, 256)),
            (TAB5, rng.words(32, 64)),
            (TAB3, rng.words(8, 16)),
        ],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, n)],
        },
    }
}
