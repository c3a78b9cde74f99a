//! SPEC CPU2000 floating-point-like programs: `swim`, `mgrid`, `applu`,
//! `art`, `equake`, `ammp`.

use crate::util::{for_loop, idx8, Lcg};
use crate::{CheckSpec, IlpClass, Workload, WorkloadClass};
use clp_compiler::{FunctionBuilder, ProgramBuilder};
use clp_isa::Opcode;

const A: u64 = 0x5_0000_0000;
const B: u64 = 0x5_0001_0000;
const OUT: u64 = 0x5_0003_0000;

/// `swim`: shallow-water-style 5-point stencil over a 24x24 grid
/// (independent FP work per point: high ILP).
#[must_use]
pub fn swim() -> Workload {
    let dim = 24usize;
    let mut f = FunctionBuilder::new("swim", 3);
    let grid = f.param(0);
    let out = f.param(1);
    let d = f.param(2);
    let quarter = f.cf(0.25);
    let one = f.c(1);
    let inner = f.bin(Opcode::Sub, d, one);
    let row_start = f.c(1);
    let _ = row_start;
    for_loop(&mut f, inner, |f, y| {
        let one_i = f.c(1);
        let yy = f.bin(Opcode::Add, y, one_i);
        let skip = f.bin(Opcode::Teq, yy, d);
        let (work, done, join) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(skip, done, work);
        f.switch_to(work);
        let inner_x = f.bin(Opcode::Sub, d, one_i);
        for_loop(f, inner_x, |f, x| {
            let one2 = f.c(1);
            let xx = f.bin(Opcode::Add, x, one2);
            let at_edge = f.bin(Opcode::Teq, xx, d);
            let (wx, dx, jx) = (f.new_block(), f.new_block(), f.new_block());
            f.branch(at_edge, dx, wx);
            f.switch_to(wx);
            let row = f.bin(Opcode::Mul, yy, d);
            let cell = f.bin(Opcode::Add, row, xx);
            let ca = idx8(f, grid, cell);
            let north = f.load(ca, -(8 * dim as i64));
            let south = f.load(ca, 8 * dim as i64);
            let west = f.load(ca, -8);
            let east = f.load(ca, 8);
            let ns = f.bin(Opcode::Fadd, north, south);
            let we = f.bin(Opcode::Fadd, west, east);
            let sum = f.bin(Opcode::Fadd, ns, we);
            let avg = f.bin(Opcode::Fmul, sum, quarter);
            let oa = idx8(f, out, cell);
            f.store(oa, 0, avg);
            f.jump(jx);
            f.switch_to(dx);
            f.jump(jx);
            f.switch_to(jx);
        });
        f.jump(join);
        f.switch_to(done);
        f.jump(join);
        f.switch_to(join);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x5317);
    Workload {
        name: "swim",
        class: WorkloadClass::SpecFp,
        ilp: IlpClass::High,
        program: pb.finish(id),
        args: vec![A, OUT, dim as u64],
        init_mem: vec![(A, rng.f64_words(dim * dim))],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, dim * dim)],
        },
    }
}

/// `mgrid`: two smoothing passes of a 1-D multigrid relaxation
/// (three-point stencil, pass-to-pass serialization).
#[must_use]
pub(crate) fn mgrid() -> Workload {
    let n = 224usize;
    let mut f = FunctionBuilder::new("mgrid", 3);
    let v = f.param(0);
    let tmp = f.param(1);
    let nv = f.param(2);
    let half = f.cf(0.5);
    let quarter = f.cf(0.25);
    let two = f.c(2);
    let inner = f.bin(Opcode::Sub, nv, two);
    // Pass 1: tmp = smooth(v); Pass 2: v = smooth(tmp).
    for (src, dst) in [(v, tmp), (tmp, v)] {
        for_loop(&mut f, inner, |f, i| {
            let one = f.c(1);
            let c = f.bin(Opcode::Add, i, one);
            let ca = idx8(f, src, c);
            let left = f.load(ca, -8);
            let mid = f.load(ca, 0);
            let right = f.load(ca, 8);
            let lr = f.bin(Opcode::Fadd, left, right);
            let lr4 = f.bin(Opcode::Fmul, lr, quarter);
            let m2 = f.bin(Opcode::Fmul, mid, half);
            let s = f.bin(Opcode::Fadd, lr4, m2);
            let da = idx8(f, dst, c);
            f.store(da, 0, s);
        });
    }
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x361D);
    Workload {
        name: "mgrid",
        class: WorkloadClass::SpecFp,
        ilp: IlpClass::High,
        program: pb.finish(id),
        args: vec![A, B, n as u64],
        init_mem: vec![(A, rng.f64_words(n)), (B, vec![0; n])],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(A, n), (B, n)],
        },
    }
}

/// `applu`: a lower-triangular solve sweep — each element depends on the
/// previous (serial FP recurrence: latency-bound, low ILP).
#[must_use]
pub(crate) fn applu() -> Workload {
    let n = 160usize;
    let mut f = FunctionBuilder::new("applu", 4);
    let diag = f.param(0);
    let rhs = f.param(1);
    let x = f.param(2);
    let nv = f.param(3);
    let carry = f.cf(0.0);
    for_loop(&mut f, nv, |f, i| {
        let ra = idx8(f, rhs, i);
        let r = f.load(ra, 0);
        let da = idx8(f, diag, i);
        let dv = f.load(da, 0);
        let num = f.bin(Opcode::Fsub, r, carry);
        let xi = f.bin(Opcode::Fdiv, num, dv);
        let xa = idx8(f, x, i);
        f.store(xa, 0, xi);
        let coupling = f.cf(0.3);
        f.bin_into(carry, Opcode::Fmul, xi, coupling);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0xA91);
    // Diagonal entries bounded away from zero.
    let diag: Vec<u64> = (0..n)
        .map(|_| (1.0 + f64::from_bits(rng.f64_bits())).to_bits())
        .collect();
    Workload {
        name: "applu",
        class: WorkloadClass::SpecFp,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![A, B, OUT, n as u64],
        init_mem: vec![(A, diag), (B, rng.f64_words(n))],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, n)],
        },
    }
}

/// `art`: neural-network pattern matching — dot products of an input
/// vector against 12 weight rows, inner loop unrolled 4x (high FP ILP).
#[must_use]
pub fn art() -> Workload {
    let dimension = 48usize;
    let rows = 16usize;
    let mut f = FunctionBuilder::new("art", 4);
    let weights = f.param(0);
    let input = f.param(1);
    let out = f.param(2);
    let nrows = f.param(3);
    let dim = f.c(dimension as i64);
    for_loop(&mut f, nrows, |f, r| {
        let row_off = f.bin(Opcode::Mul, r, dim);
        let three = f.c(3);
        let row_bytes = f.bin(Opcode::Shl, row_off, three);
        let row = f.bin(Opcode::Add, weights, row_bytes);
        let acc = f.cf(0.0);
        crate::util::for_loop_step(f, dim, 4, &mut |f, j| {
            let ja = idx8(f, row, j);
            let ia = idx8(f, input, j);
            for k in 0..4i64 {
                let w = f.load(ja, 8 * k);
                let x = f.load(ia, 8 * k);
                let p = f.bin(Opcode::Fmul, w, x);
                f.bin_into(acc, Opcode::Fadd, acc, p);
            }
        });
        let oa = idx8(f, out, r);
        f.store(oa, 0, acc);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0xA27);
    Workload {
        name: "art",
        class: WorkloadClass::SpecFp,
        ilp: IlpClass::High,
        program: pb.finish(id),
        args: vec![A, B, OUT, rows as u64],
        init_mem: vec![
            (A, rng.f64_words(dimension * rows)),
            (B, rng.f64_words(dimension)),
        ],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, rows)],
        },
    }
}

/// `equake`: sparse matrix-vector product in CSR form (indirect loads
/// feeding FP multiplies; memory-level parallelism with irregular
/// access).
#[must_use]
pub fn equake() -> Workload {
    let dim = 72usize;
    let nnz_per_row = 5usize;
    const COLS: u64 = 0x5_0004_0000;
    let mut f = FunctionBuilder::new("equake", 5);
    let vals = f.param(0);
    let cols = f.param(1);
    let x = f.param(2);
    let y = f.param(3);
    let nrows = f.param(4);
    let nnz = f.c(nnz_per_row as i64);
    for_loop(&mut f, nrows, |f, r| {
        let start = f.bin(Opcode::Mul, r, nnz);
        let acc = f.cf(0.0);
        for_loop(f, nnz, |f, k| {
            let idx = f.bin(Opcode::Add, start, k);
            let va = idx8(f, vals, idx);
            let v = f.load(va, 0);
            let ca = idx8(f, cols, idx);
            let col = f.load(ca, 0);
            let xa = idx8(f, x, col);
            let xv = f.load(xa, 0);
            let p = f.bin(Opcode::Fmul, v, xv);
            f.bin_into(acc, Opcode::Fadd, acc, p);
        });
        let ya = idx8(f, y, r);
        f.store(ya, 0, acc);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0xE0);
    let nnz_total = dim * nnz_per_row;
    Workload {
        name: "equake",
        class: WorkloadClass::SpecFp,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![A, COLS, B, OUT, dim as u64],
        init_mem: vec![
            (A, rng.f64_words(nnz_total)),
            (COLS, rng.words(nnz_total, dim as u64)),
            (B, rng.f64_words(dim)),
        ],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, dim)],
        },
    }
}

/// `ammp`: molecular-mechanics pairwise potential over 14 particles —
/// O(n²) independent distance computations (high FP ILP).
#[must_use]
pub(crate) fn ammp() -> Workload {
    let particles = 20usize;
    let mut f = FunctionBuilder::new("ammp", 4);
    let px = f.param(0);
    let py = f.param(1);
    let forces = f.param(2);
    let np = f.param(3);
    for_loop(&mut f, np, |f, i| {
        let acc = f.cf(0.0);
        let xa = idx8(f, px, i);
        let xi = f.load(xa, 0);
        let ya = idx8(f, py, i);
        let yi = f.load(ya, 0);
        for_loop(f, np, |f, j| {
            let same = f.bin(Opcode::Teq, i, j);
            let (skip, work, join) = (f.new_block(), f.new_block(), f.new_block());
            f.branch(same, skip, work);
            f.switch_to(work);
            let xb = idx8(f, px, j);
            let xj = f.load(xb, 0);
            let yb = idx8(f, py, j);
            let yj = f.load(yb, 0);
            let dx = f.bin(Opcode::Fsub, xi, xj);
            let dy = f.bin(Opcode::Fsub, yi, yj);
            let dx2 = f.bin(Opcode::Fmul, dx, dx);
            let dy2 = f.bin(Opcode::Fmul, dy, dy);
            let r2 = f.bin(Opcode::Fadd, dx2, dy2);
            let softening = f.cf(0.01);
            let r2s = f.bin(Opcode::Fadd, r2, softening);
            let one = f.cf(1.0);
            let inv = f.bin(Opcode::Fdiv, one, r2s);
            f.bin_into(acc, Opcode::Fadd, acc, inv);
            f.jump(join);
            f.switch_to(skip);
            f.jump(join);
            f.switch_to(join);
        });
        let fa = idx8(f, forces, i);
        f.store(fa, 0, acc);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0xA3B);
    Workload {
        name: "ammp",
        class: WorkloadClass::SpecFp,
        ilp: IlpClass::High,
        program: pb.finish(id),
        args: vec![A, B, OUT, particles as u64],
        init_mem: vec![(A, rng.f64_words(particles)), (B, rng.f64_words(particles))],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, particles)],
        },
    }
}
