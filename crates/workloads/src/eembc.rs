//! EEMBC-like embedded kernels: `a2time`, `autocor`, `basefp`, `bezier`,
//! `dither`, `rspeed`, `tblook`.

use crate::util::{for_loop, idx8, Lcg};
use crate::{CheckSpec, IlpClass, Workload, WorkloadClass};
use clp_compiler::{FunctionBuilder, ProgramBuilder};
use clp_isa::Opcode;

const IN: u64 = 0x2_0000_0000;
const OUT: u64 = 0x2_0001_0000;
const TAB: u64 = 0x2_0002_0000;

/// `a2time`: angle-to-time conversion — integer divide/modulo per sample
/// with range-check branches (low ILP: serial divides).
#[must_use]
pub fn a2time() -> Workload {
    let n = 96usize;
    let mut f = FunctionBuilder::new("a2time", 3);
    let input = f.param(0);
    let out = f.param(1);
    let nv = f.param(2);
    for_loop(&mut f, nv, |f, i| {
        let a = idx8(f, input, i);
        let angle = f.load(a, 0);
        let deg360 = f.c(360);
        let wrapped = f.bin(Opcode::Rem, angle, deg360);
        // Quadrant adjustment: if wrapped >= 180, time = (360-wrapped)*50
        // else time = wrapped*50.
        let d180 = f.c(180);
        let hi = f.bin(Opcode::Tge, wrapped, d180);
        let (q_hi, q_lo, join) = (f.new_block(), f.new_block(), f.new_block());
        let time = f.c(0);
        f.branch(hi, q_hi, q_lo);
        f.switch_to(q_hi);
        let inv = f.bin(Opcode::Sub, deg360, wrapped);
        let fifty = f.c(50);
        f.bin_into(time, Opcode::Mul, inv, fifty);
        f.jump(join);
        f.switch_to(q_lo);
        let fifty2 = f.c(50);
        f.bin_into(time, Opcode::Mul, wrapped, fifty2);
        f.jump(join);
        f.switch_to(join);
        let per_tooth = f.c(7);
        let tooth = f.bin(Opcode::Div, time, per_tooth);
        let dst = idx8(f, out, i);
        f.store(dst, 0, tooth);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0xA2);
    Workload {
        name: "a2time",
        class: WorkloadClass::Eembc,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, OUT, n as u64],
        init_mem: vec![(IN, rng.words(n, 100_000))],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, n)],
        },
    }
}

/// `autocor`: autocorrelation over 8 lags with a 4x-unrolled inner
/// product (high ILP).
#[must_use]
pub fn autocor() -> Workload {
    let n = 128usize;
    let lags = 8usize;
    let mut f = FunctionBuilder::new("autocor", 3);
    let x = f.param(0);
    let out = f.param(1);
    let _nv = f.param(2);
    let nlags = f.c(lags as i64);
    for_loop(&mut f, nlags, |f, lag| {
        let acc = f.c(0);
        let three = f.c(3);
        let lag_off = f.bin(Opcode::Shl, lag, three);
        let limit = { f.c((n - lags) as i64) };
        crate::util::for_loop_step(f, limit, 4, &mut |f, i| {
            let base = idx8(f, x, i);
            let shifted = f.bin(Opcode::Add, base, lag_off);
            for k in 0..4i64 {
                let a = f.load(base, 8 * k);
                let b = f.load(shifted, 8 * k);
                let p = f.bin(Opcode::Mul, a, b);
                f.bin_into(acc, Opcode::Add, acc, p);
            }
        });
        let dst = idx8(f, out, lag);
        f.store(dst, 0, acc);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0xAC);
    Workload {
        name: "autocor",
        class: WorkloadClass::Eembc,
        ilp: IlpClass::High,
        program: pb.finish(id),
        args: vec![IN, OUT, n as u64],
        init_mem: vec![(IN, rng.words(n, 256))],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, lags)],
        },
    }
}

/// `basefp`: basic floating-point chain — per element
/// `y = (x*a + b) / (x + c)` (medium ILP, FP-latency bound).
#[must_use]
pub(crate) fn basefp() -> Workload {
    let n = 96usize;
    let mut f = FunctionBuilder::new("basefp", 3);
    let x = f.param(0);
    let out = f.param(1);
    let nv = f.param(2);
    let a = f.cf(1.5);
    let b = f.cf(2.25);
    let c = f.cf(4.0);
    for_loop(&mut f, nv, |f, i| {
        let addr = idx8(f, x, i);
        let xv = f.load(addr, 0);
        let xa = f.bin(Opcode::Fmul, xv, a);
        let num = f.bin(Opcode::Fadd, xa, b);
        let den = f.bin(Opcode::Fadd, xv, c);
        let y = f.bin(Opcode::Fdiv, num, den);
        let dst = idx8(f, out, i);
        f.store(dst, 0, y);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0xBF);
    Workload {
        name: "basefp",
        class: WorkloadClass::Eembc,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, OUT, n as u64],
        init_mem: vec![(IN, rng.f64_words(n))],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, n)],
        },
    }
}

/// `bezier`: cubic Bézier curve evaluation at 32 parameter values, with
/// the Bernstein basis expanded (high FP ILP).
#[must_use]
pub fn bezier() -> Workload {
    let steps = 96usize;
    let mut f = FunctionBuilder::new("bezier", 2);
    let out = f.param(0);
    let nv = f.param(1);
    let p0 = f.cf(0.0);
    let p1 = f.cf(1.8);
    let p2 = f.cf(2.4);
    let p3 = f.cf(0.9);
    let one = f.cf(1.0);
    let step = f.cf(1.0 / steps as f64);
    for_loop(&mut f, nv, |f, i| {
        let if64 = f.un(Opcode::Itof, i);
        let t = f.bin(Opcode::Fmul, if64, step);
        let mt = f.bin(Opcode::Fsub, one, t);
        let t2 = f.bin(Opcode::Fmul, t, t);
        let t3 = f.bin(Opcode::Fmul, t2, t);
        let mt2 = f.bin(Opcode::Fmul, mt, mt);
        let mt3 = f.bin(Opcode::Fmul, mt2, mt);
        let three_t = f.cf(3.0);
        let b1c = f.bin(Opcode::Fmul, three_t, t);
        let b1 = f.bin(Opcode::Fmul, b1c, mt2);
        let b2c = f.bin(Opcode::Fmul, three_t, t2);
        let b2 = f.bin(Opcode::Fmul, b2c, mt);
        let term0 = f.bin(Opcode::Fmul, mt3, p0);
        let term1 = f.bin(Opcode::Fmul, b1, p1);
        let term2 = f.bin(Opcode::Fmul, b2, p2);
        let term3 = f.bin(Opcode::Fmul, t3, p3);
        let s01 = f.bin(Opcode::Fadd, term0, term1);
        let s23 = f.bin(Opcode::Fadd, term2, term3);
        let y = f.bin(Opcode::Fadd, s01, s23);
        let dst = idx8(f, out, i);
        f.store(dst, 0, y);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    Workload {
        name: "bezier",
        class: WorkloadClass::Eembc,
        ilp: IlpClass::High,
        program: pb.finish(id),
        args: vec![OUT, steps as u64],
        init_mem: vec![],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, steps)],
        },
    }
}

/// `dither`: threshold dithering of a 16x16 8-bit image with error
/// diffusion to the right neighbor (byte loads/stores, serial carry).
#[must_use]
pub fn dither() -> Workload {
    let w = 16usize;
    let h = 16usize;
    let mut f = FunctionBuilder::new("dither", 3);
    let img = f.param(0);
    let wv = f.param(1);
    let hv = f.param(2);
    for_loop(&mut f, hv, |f, y| {
        let row_off = f.bin(Opcode::Mul, y, wv);
        let row = f.bin(Opcode::Add, img, row_off);
        let err = f.c(0);
        let wm = wv;
        for_loop(f, wm, |f, xx| {
            let a = f.bin(Opcode::Add, row, xx);
            let pix = f.loadb(a, 0);
            let v = f.bin(Opcode::Add, pix, err);
            let thresh = f.c(128);
            let on = f.bin(Opcode::Tge, v, thresh);
            let (white, black, join) = (f.new_block(), f.new_block(), f.new_block());
            f.branch(on, white, black);
            f.switch_to(white);
            let w255 = f.c(255);
            f.storeb(a, 0, w255);
            let e1 = f.bin(Opcode::Sub, v, w255);
            f.assign(err, e1);
            f.jump(join);
            f.switch_to(black);
            let zero = f.c(0);
            f.storeb(a, 0, zero);
            f.assign(err, v);
            f.jump(join);
            f.switch_to(join);
            // halve the carried error
            let one = f.c(1);
            f.bin_into(err, Opcode::Sar, err, one);
        });
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0xD1);
    let bytes: Vec<u64> = (0..(w * h / 8))
        .map(|_| {
            let mut word = 0u64;
            for b in 0..8 {
                word |= rng.below(256) << (8 * b);
            }
            word
        })
        .collect();
    Workload {
        name: "dither",
        class: WorkloadClass::Eembc,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, w as u64, h as u64],
        init_mem: vec![(IN, bytes)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(IN, w * h / 8)],
        },
    }
}

/// `rspeed`: road-speed calculation — pulse-interval classification with
/// nested branches (low ILP, branchy).
#[must_use]
pub fn rspeed() -> Workload {
    let n = 112usize;
    let mut f = FunctionBuilder::new("rspeed", 3);
    let pulses = f.param(0);
    let out = f.param(1);
    let nv = f.param(2);
    let fast_count = f.c(0);
    for_loop(&mut f, nv, |f, i| {
        let a = idx8(f, pulses, i);
        let interval = f.load(a, 0);
        let k = f.c(100_000);
        let speed = f.bin(Opcode::Div, k, interval);
        let lim_hi = f.c(120);
        let lim_lo = f.c(30);
        let too_fast = f.bin(Opcode::Tgt, speed, lim_hi);
        let (fast, rest, join) = (f.new_block(), f.new_block(), f.new_block());
        let clamped = f.c(0);
        f.branch(too_fast, fast, rest);
        f.switch_to(fast);
        f.assign(clamped, lim_hi);
        let one = f.c(1);
        f.bin_into(fast_count, Opcode::Add, fast_count, one);
        f.jump(join);
        f.switch_to(rest);
        let too_slow = f.bin(Opcode::Tlt, speed, lim_lo);
        let (slow, normal, j2) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(too_slow, slow, normal);
        f.switch_to(slow);
        f.assign(clamped, lim_lo);
        f.jump(j2);
        f.switch_to(normal);
        f.assign(clamped, speed);
        f.jump(j2);
        f.switch_to(j2);
        f.jump(join);
        f.switch_to(join);
        let dst = idx8(f, out, i);
        f.store(dst, 0, clamped);
    });
    f.ret(Some(fast_count));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x55);
    let data: Vec<u64> = (0..n).map(|_| rng.below(5000) + 500).collect();
    Workload {
        name: "rspeed",
        class: WorkloadClass::Eembc,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, OUT, n as u64],
        init_mem: vec![(IN, data)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, n)],
        },
    }
}

/// `tblook`: table lookup with interpolation — binary search over a
/// 64-entry sorted table per query (low ILP, dependent branches).
#[must_use]
pub fn tblook() -> Workload {
    let table_len = 64usize;
    let queries = 80usize;
    let mut f = FunctionBuilder::new("tblook", 4);
    let table = f.param(0);
    let q = f.param(1);
    let out = f.param(2);
    let nq = f.param(3);
    for_loop(&mut f, nq, |f, i| {
        let qa = idx8(f, q, i);
        let key = f.load(qa, 0);
        let lo = f.c(0);
        let hi = f.c(table_len as i64);
        // Fixed-depth binary search (6 levels for 64 entries).
        for _ in 0..6 {
            let sum = f.bin(Opcode::Add, lo, hi);
            let one = f.c(1);
            let mid = f.bin(Opcode::Shr, sum, one);
            let ma = idx8(f, table, mid);
            let mv = f.load(ma, 0);
            let le = f.bin(Opcode::Tle, mv, key);
            let (go_hi, go_lo, join) = (f.new_block(), f.new_block(), f.new_block());
            f.branch(le, go_hi, go_lo);
            f.switch_to(go_hi);
            f.assign(lo, mid);
            f.jump(join);
            f.switch_to(go_lo);
            f.assign(hi, mid);
            f.jump(join);
            f.switch_to(join);
        }
        let dst = idx8(f, out, i);
        f.store(dst, 0, lo);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x7B);
    // Sorted table: cumulative sums.
    let mut acc = 0u64;
    let table: Vec<u64> = (0..table_len)
        .map(|_| {
            acc += rng.below(50) + 1;
            acc
        })
        .collect();
    let max = acc;
    Workload {
        name: "tblook",
        class: WorkloadClass::Eembc,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![TAB, IN, OUT, queries as u64],
        init_mem: vec![(TAB, table), (IN, rng.words(queries, max))],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, queries)],
        },
    }
}
