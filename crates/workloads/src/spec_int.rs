//! SPEC CPU2000 integer-like programs: `gzip`, `bzip2`, `mcf`, `parser`,
//! `twolf`, `vpr`, `gcc`, `perlbmk`.

use crate::util::{for_loop, idx1, idx8, Lcg};
use crate::{CheckSpec, IlpClass, Workload, WorkloadClass};
use clp_compiler::{FunctionBuilder, ProgramBuilder};
use clp_isa::Opcode;

const IN: u64 = 0x4_0000_0000;
const IN2: u64 = 0x4_0004_0000;
const OUT: u64 = 0x4_0001_0000;
const BIG: u64 = 0x4_0010_0000;

/// `gzip`: LZ77-style longest-match search — for each position, compare
/// against 8 window candidates and record the best length (nested
/// data-dependent loops, medium-low ILP).
#[must_use]
pub fn gzip() -> Workload {
    let n = 192usize;
    let mut f = FunctionBuilder::new("gzip", 3);
    let text = f.param(0);
    let out = f.param(1);
    let nv = f.param(2);
    let start = f.c(16);
    let span = f.bin(Opcode::Sub, nv, start);
    for_loop(&mut f, span, |f, k| {
        let pos = f.bin(Opcode::Add, k, start);
        let best = f.c(0);
        let cand_count = f.c(8);
        for_loop(f, cand_count, |f, c| {
            // candidate offset = c + 1 positions back
            let one = f.c(1);
            let back = f.bin(Opcode::Add, c, one);
            let cand = f.bin(Opcode::Sub, pos, back);
            // match length up to 4, fixed-depth with early predicate
            let len = f.c(0);
            let run = f.c(1);
            for d in 0..4i64 {
                let pa = idx1(f, text, pos);
                let ca = idx1(f, text, cand);
                let pc = f.loadb(pa, d);
                let cc = f.loadb(ca, d);
                let eq = f.bin(Opcode::Teq, pc, cc);
                f.bin_into(run, Opcode::And, run, eq);
                f.bin_into(len, Opcode::Add, len, run);
            }
            let better = f.bin(Opcode::Tgt, len, best);
            let (upd, skip, join) = (f.new_block(), f.new_block(), f.new_block());
            f.branch(better, upd, skip);
            f.switch_to(upd);
            f.assign(best, len);
            f.jump(join);
            f.switch_to(skip);
            f.jump(join);
            f.switch_to(join);
        });
        let dst = idx8(f, out, k);
        f.store(dst, 0, best);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x6219);
    // Byte text with enough repetition for matches.
    let bytes: Vec<u64> = (0..n / 8)
        .map(|_| {
            let mut w = 0u64;
            for b in 0..8 {
                w |= (rng.below(4) + 97) << (8 * b);
            }
            w
        })
        .collect();
    Workload {
        name: "gzip",
        class: WorkloadClass::SpecInt,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, OUT, n as u64],
        init_mem: vec![(IN, bytes)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, n - 16)],
        },
    }
}

/// `bzip2`: run-length encoding of a byte stream (serial dependence on
/// the output cursor; low ILP).
#[must_use]
pub fn bzip2() -> Workload {
    let n = 256usize;
    let mut f = FunctionBuilder::new("bzip2", 3);
    let text = f.param(0);
    let out = f.param(1);
    let nv = f.param(2);
    let wcursor = f.c(0);
    let prev = f.c(-1);
    let run = f.c(0);
    for_loop(&mut f, nv, |f, i| {
        let a = idx1(f, text, i);
        let ch = f.loadb(a, 0);
        let same = f.bin(Opcode::Teq, ch, prev);
        let (cont, emit, join) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(same, cont, emit);
        f.switch_to(cont);
        let one = f.c(1);
        f.bin_into(run, Opcode::Add, run, one);
        f.jump(join);
        f.switch_to(emit);
        // emit (prev, run) pair
        let pair_addr = idx8(f, out, wcursor);
        let eight = f.c(8);
        let packed = f.bin(Opcode::Shl, prev, eight);
        let rec = f.bin(Opcode::Or, packed, run);
        f.store(pair_addr, 0, rec);
        let one2 = f.c(1);
        f.bin_into(wcursor, Opcode::Add, wcursor, one2);
        f.assign(prev, ch);
        f.c_into(run, 1);
        f.jump(join);
        f.switch_to(join);
    });
    f.ret(Some(wcursor));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0xB217);
    let bytes: Vec<u64> = (0..n / 8)
        .map(|_| {
            let mut w = 0u64;
            let c = rng.below(3) + 65;
            for b in 0..8 {
                let ch = if rng.below(4) == 0 {
                    rng.below(3) + 65
                } else {
                    c
                };
                w |= ch << (8 * b);
            }
            w
        })
        .collect();
    Workload {
        name: "bzip2",
        class: WorkloadClass::SpecInt,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, OUT, n as u64],
        init_mem: vec![(IN, bytes)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, 64)],
        },
    }
}

/// `mcf`: pointer chasing through a linked list scattered over a region
/// much larger than the L1 (serial loads, cache-miss bound — the classic
/// low-IPC SPEC profile).
#[must_use]
pub fn mcf() -> Workload {
    let nodes = 2048usize; // 2048 * 16B = 32 KB >> 8 KB L1
    let hops = 1200usize;
    let mut f = FunctionBuilder::new("mcf", 2);
    let head = f.param(0);
    let nhops = f.param(1);
    let cur = f.vreg();
    f.assign(cur, head);
    let total = f.c(0);
    for_loop(&mut f, nhops, |f, _i| {
        let val = f.load(cur, 8);
        f.bin_into(total, Opcode::Add, total, val);
        let next = f.load(cur, 0);
        f.assign(cur, next);
    });
    f.ret(Some(total));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    // Scattered permutation cycle: node k at BIG + 16*perm[k].
    let mut rng = Lcg::new(0x3CF);
    let mut perm: Vec<usize> = (0..nodes).collect();
    for k in (1..nodes).rev() {
        let j = rng.below(k as u64 + 1) as usize;
        perm.swap(k, j);
    }
    let mut words = vec![0u64; nodes * 2];
    for k in 0..nodes {
        let slot = perm[k];
        let next_slot = perm[(k + 1) % nodes];
        words[slot * 2] = BIG + 16 * next_slot as u64;
        words[slot * 2 + 1] = (k as u64 * 37) % 1009;
    }
    let head = BIG + 16 * perm[0] as u64;
    Workload {
        name: "mcf",
        class: WorkloadClass::SpecInt,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![head, hops as u64],
        init_mem: vec![(BIG, words)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![],
        },
    }
}

/// `parser`: byte-stream tokenizer counting words, numbers, and
/// punctuation (character-class branches per byte).
#[must_use]
pub fn parser() -> Workload {
    let n = 320usize;
    let mut f = FunctionBuilder::new("parser", 2);
    let text = f.param(0);
    let nv = f.param(1);
    let words = f.c(0);
    let digits = f.c(0);
    let in_word = f.c(0);
    for_loop(&mut f, nv, |f, i| {
        let a = idx1(f, text, i);
        let ch = f.loadb(a, 0);
        let ca = f.c(97);
        let cz = f.c(122);
        let ge_a = f.bin(Opcode::Tge, ch, ca);
        let le_z = f.bin(Opcode::Tle, ch, cz);
        let alpha = f.bin(Opcode::And, ge_a, le_z);
        let c0 = f.c(48);
        let c9 = f.c(57);
        let ge_0 = f.bin(Opcode::Tge, ch, c0);
        let le_9 = f.bin(Opcode::Tle, ch, c9);
        let digit = f.bin(Opcode::And, ge_0, le_9);
        f.bin_into(digits, Opcode::Add, digits, digit);
        // Word-start detection: alpha && !in_word.
        let z = f.c(0);
        let not_in = f.bin(Opcode::Teq, in_word, z);
        let startw = f.bin(Opcode::And, alpha, not_in);
        f.bin_into(words, Opcode::Add, words, startw);
        f.assign(in_word, alpha);
    });
    let sh = f.c(16);
    let packed = f.bin(Opcode::Shl, words, sh);
    let res = f.bin(Opcode::Or, packed, digits);
    f.ret(Some(res));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x9A);
    let bytes: Vec<u64> = (0..n / 8)
        .map(|_| {
            let mut w = 0u64;
            for b in 0..8 {
                let cls = rng.below(10);
                let ch = match cls {
                    0..=5 => rng.below(26) + 97,
                    6..=7 => rng.below(10) + 48,
                    _ => 32,
                };
                w |= ch << (8 * b);
            }
            w
        })
        .collect();
    Workload {
        name: "parser",
        class: WorkloadClass::SpecInt,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, n as u64],
        init_mem: vec![(IN, bytes)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![],
        },
    }
}

/// `twolf`: standard-cell placement cost sweep — wire-length deltas with
/// conditional accept (table-driven integer math with branches).
#[must_use]
pub fn twolf() -> Workload {
    let cells = 128usize;
    let mut f = FunctionBuilder::new("twolf", 3);
    let xs = f.param(0);
    let ys = f.param(1);
    let ncells = f.param(2);
    let cost = f.c(0);
    let one_const = f.c(1);
    let limit = f.bin(Opcode::Sub, ncells, one_const);
    for_loop(&mut f, limit, |f, i| {
        let xa = idx8(f, xs, i);
        let x0 = f.load(xa, 0);
        let x1 = f.load(xa, 8);
        let ya = idx8(f, ys, i);
        let y0 = f.load(ya, 0);
        let y1 = f.load(ya, 8);
        let dx = f.bin(Opcode::Sub, x1, x0);
        let dy = f.bin(Opcode::Sub, y1, y0);
        // |dx| + |dy| via branches
        let adx = f.vreg();
        f.assign(adx, dx);
        let zx = f.c(0);
        let negx = f.bin(Opcode::Tlt, dx, zx);
        let (nx, px, jx) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(negx, nx, px);
        f.switch_to(nx);
        let ndx = f.un(Opcode::Neg, dx);
        f.assign(adx, ndx);
        f.jump(jx);
        f.switch_to(px);
        f.jump(jx);
        f.switch_to(jx);
        let ady = f.vreg();
        f.assign(ady, dy);
        let zy = f.c(0);
        let negy = f.bin(Opcode::Tlt, dy, zy);
        let (ny, py, jy) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(negy, ny, py);
        f.switch_to(ny);
        let ndy = f.un(Opcode::Neg, dy);
        f.assign(ady, ndy);
        f.jump(jy);
        f.switch_to(py);
        f.jump(jy);
        f.switch_to(jy);
        let wl = f.bin(Opcode::Add, adx, ady);
        // Congestion penalty if both deltas exceed 8.
        let eight = f.c(8);
        let bx = f.bin(Opcode::Tgt, adx, eight);
        let by = f.bin(Opcode::Tgt, ady, eight);
        let both = f.bin(Opcode::And, bx, by);
        let pen = f.c(16);
        let extra = f.bin(Opcode::Mul, both, pen);
        let c1 = f.bin(Opcode::Add, wl, extra);
        f.bin_into(cost, Opcode::Add, cost, c1);
    });
    f.ret(Some(cost));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x2017);
    Workload {
        name: "twolf",
        class: WorkloadClass::SpecInt,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, IN2, cells as u64],
        init_mem: vec![(IN, rng.words(cells, 64)), (IN2, rng.words(cells, 64))],
        check: CheckSpec {
            check_ret: true,
            regions: vec![],
        },
    }
}

/// `vpr`: FPGA routing cost — per net, walk a bounding box over a cost
/// grid accumulating table-driven costs (regular loads, medium ILP).
#[must_use]
pub(crate) fn vpr() -> Workload {
    let grid = 16usize;
    let nets = 48usize;
    const GRID: u64 = 0x4_0002_0000;
    let mut f = FunctionBuilder::new("vpr", 4);
    let gridp = f.param(0);
    let netp = f.param(1);
    let out = f.param(2);
    let nnets = f.param(3);
    let gdim = f.c(grid as i64);
    for_loop(&mut f, nnets, |f, ni| {
        let na = idx8(f, netp, ni);
        let packed = f.load(na, 0);
        let m = f.c(0xf);
        let x0 = f.bin(Opcode::And, packed, m);
        let four = f.c(4);
        let t1 = f.bin(Opcode::Shr, packed, four);
        let y0 = f.bin(Opcode::And, t1, m);
        let eightc = f.c(8);
        let t2 = f.bin(Opcode::Shr, packed, eightc);
        let w = f.bin(Opcode::And, t2, m);
        let total = f.c(0);
        for_loop(f, w, |f, dx| {
            let x = f.bin(Opcode::Add, x0, dx);
            let row = f.bin(Opcode::Mul, y0, gdim);
            let cell = f.bin(Opcode::Add, row, x);
            let ca = idx8(f, gridp, cell);
            let cost = f.load(ca, 0);
            f.bin_into(total, Opcode::Add, total, cost);
        });
        let dst = idx8(f, out, ni);
        f.store(dst, 0, total);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x0FB);
    let netdata: Vec<u64> = (0..nets)
        .map(|_| {
            let x0 = rng.below(8);
            let y0 = rng.below(16);
            let w = rng.below(8) + 1;
            x0 | (y0 << 4) | (w << 8)
        })
        .collect();
    Workload {
        name: "vpr",
        class: WorkloadClass::SpecInt,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![GRID, IN, OUT, nets as u64],
        init_mem: vec![(GRID, rng.words(grid * grid, 20)), (IN, netdata)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(OUT, nets)],
        },
    }
}

/// `gcc`: a tiny stack-machine expression evaluator over a bytecode
/// stream (indirect, very branchy dispatch — the classic compiler
/// profile).
#[must_use]
pub fn gcc() -> Workload {
    let prog_len = 192usize;
    const STACK: u64 = 0x4_0003_0000;
    let mut f = FunctionBuilder::new("gcc", 3);
    let code = f.param(0);
    let stackp = f.param(1);
    let nv = f.param(2);
    let sp = f.c(0);
    for_loop(&mut f, nv, |f, i| {
        let ca = idx8(f, code, i);
        let insn = f.load(ca, 0);
        let m = f.c(3);
        let op = f.bin(Opcode::And, insn, m);
        let two = f.c(2);
        let imm = f.bin(Opcode::Shr, insn, two);
        let zero = f.c(0);
        let is_push = f.bin(Opcode::Teq, op, zero);
        let (push_bb, not_push, join) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(is_push, push_bb, not_push);
        // PUSH imm
        f.switch_to(push_bb);
        let sa = idx8(f, stackp, sp);
        f.store(sa, 0, imm);
        let one = f.c(1);
        f.bin_into(sp, Opcode::Add, sp, one);
        f.jump(join);
        // Binary ops need two operands; guard against underflow.
        f.switch_to(not_push);
        let two2 = f.c(2);
        let deep = f.bin(Opcode::Tge, sp, two2);
        let (do_op, skip, j2) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(deep, do_op, skip);
        f.switch_to(do_op);
        let one2 = f.c(1);
        f.bin_into(sp, Opcode::Sub, sp, one2);
        let ta = idx8(f, stackp, sp);
        let b = f.load(ta, 0);
        let spm1 = f.bin(Opcode::Sub, sp, one2);
        let ba = idx8(f, stackp, spm1);
        let a = f.load(ba, 0);
        let onec = f.c(1);
        let is_add = f.bin(Opcode::Teq, op, onec);
        let (addb, mulb, j3) = (f.new_block(), f.new_block(), f.new_block());
        let r = f.c(0);
        f.branch(is_add, addb, mulb);
        f.switch_to(addb);
        f.bin_into(r, Opcode::Add, a, b);
        f.jump(j3);
        f.switch_to(mulb);
        let prod = f.bin(Opcode::Mul, a, b);
        let mask = f.c(0xffff);
        f.bin_into(r, Opcode::And, prod, mask);
        f.jump(j3);
        f.switch_to(j3);
        f.store(ba, 0, r);
        f.jump(j2);
        f.switch_to(skip);
        f.jump(j2);
        f.switch_to(j2);
        f.jump(join);
        f.switch_to(join);
    });
    // Result: top of stack (or sp if empty).
    f.ret(Some(sp));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x6CC);
    let codev: Vec<u64> = (0..prog_len)
        .map(|_| {
            let op = if rng.below(2) == 0 {
                0
            } else {
                rng.below(2) + 1
            };
            let imm = rng.below(100);
            op | (imm << 2)
        })
        .collect();
    Workload {
        name: "gcc",
        class: WorkloadClass::SpecInt,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, STACK, prog_len as u64],
        init_mem: vec![(IN, codev)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(STACK, 8)],
        },
    }
}

/// `perlbmk`: string hashing (djb2) over fixed-length records plus a
/// hash-table bucket histogram (byte loads, serial hash chain).
#[must_use]
pub fn perlbmk() -> Workload {
    let nstrings = 48usize;
    let strlen = 12usize;
    const HIST: u64 = 0x4_0005_0000;
    let mut f = FunctionBuilder::new("perlbmk", 4);
    let text = f.param(0);
    let hist = f.param(1);
    let ns = f.param(2);
    let sl = f.param(3);
    for_loop(&mut f, ns, |f, si| {
        let off = f.bin(Opcode::Mul, si, sl);
        let base = f.bin(Opcode::Add, text, off);
        let h = f.c(5381);
        for_loop(f, sl, |f, ci| {
            let a = f.bin(Opcode::Add, base, ci);
            let ch = f.loadb(a, 0);
            let five = f.c(5);
            let h32 = f.bin(Opcode::Shl, h, five);
            let sum = f.bin(Opcode::Add, h32, h);
            f.bin_into(h, Opcode::Add, sum, ch);
        });
        let m = f.c(31);
        let bucket = f.bin(Opcode::And, h, m);
        let ba = idx8(f, hist, bucket);
        let cnt = f.load(ba, 0);
        let one = f.c(1);
        let c1 = f.bin(Opcode::Add, cnt, one);
        f.store(ba, 0, c1);
    });
    let z = f.c(0);
    f.ret(Some(z));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let mut rng = Lcg::new(0x9E51);
    let total_bytes = nstrings * strlen;
    let bytes: Vec<u64> = (0..total_bytes.div_ceil(8))
        .map(|_| {
            let mut w = 0u64;
            for b in 0..8 {
                w |= (rng.below(26) + 97) << (8 * b);
            }
            w
        })
        .collect();
    Workload {
        name: "perlbmk",
        class: WorkloadClass::SpecInt,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![IN, HIST, nstrings as u64, strlen as u64],
        init_mem: vec![(IN, bytes)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(HIST, 32)],
        },
    }
}
