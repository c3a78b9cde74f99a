//! The random-program generator itself: statement ASTs, their proptest
//! strategy, and how they lower to one IR function. It names only the
//! compiler's builder API, which the including module brings into scope
//! (`FunctionBuilder`, `VReg`, `Opcode`), so that `tests/common/mod.rs`
//! and the compiler crate's own unit tests (its differential tests of
//! liveness and interference) include the same file by path.

use super::{FunctionBuilder, Opcode, VReg};
use proptest::prelude::*;

/// Scratch-array length in 64-bit words (a power of two: indices are
/// masked, so every access is in bounds). The array's base address is
/// the generated function's one parameter.
pub const ARRAY_WORDS: usize = 32;

#[derive(Clone, Debug)]
pub enum Stmt {
    Const(i64),
    Bin(Opcode, u8, u8),
    Load(u8),
    Store(u8, u8),
    If {
        cond: u8,
        then_s: Vec<Stmt>,
        else_s: Vec<Stmt>,
    },
    /// Conditional early return. The return block is never inlined under
    /// a predicate (returns must stay sole unpredicated exits), so this
    /// reliably produces *multi-exit* hyperblocks: the guarding block
    /// keeps both the branch to the return and the fall-through exit.
    IfRet {
        cond: u8,
        val: u8,
    },
    Loop {
        trips: u8,
        body: Vec<Stmt>,
    },
}

fn arb_bin_op() -> impl Strategy<Value = Opcode> {
    prop_oneof![
        Just(Opcode::Add),
        Just(Opcode::Sub),
        Just(Opcode::Mul),
        Just(Opcode::And),
        Just(Opcode::Or),
        Just(Opcode::Xor),
        Just(Opcode::Tlt),
        Just(Opcode::Teq),
        Just(Opcode::Shl),
    ]
}

/// Strategy for one statement, recursing to the given depth.
pub fn arb_stmt(depth: u32) -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        (-100i64..100).prop_map(Stmt::Const),
        (arb_bin_op(), any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| Stmt::Bin(o, a, b)),
        any::<u8>().prop_map(Stmt::Load),
        (any::<u8>(), any::<u8>()).prop_map(|(i, v)| Stmt::Store(i, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(cond, val)| Stmt::IfRet { cond, val }),
    ];
    leaf.prop_recursive(depth, 24, 6, |inner| {
        prop_oneof![
            (
                any::<u8>(),
                prop::collection::vec(inner.clone(), 1..4),
                prop::collection::vec(inner.clone(), 0..4)
            )
                .prop_map(|(cond, then_s, else_s)| Stmt::If {
                    cond,
                    then_s,
                    else_s
                }),
            (1u8..6, prop::collection::vec(inner, 1..4))
                .prop_map(|(trips, body)| Stmt::Loop { trips, body }),
        ]
    })
}

/// Emits statements into the builder; `vals` is the pool of defined
/// values random operand indices select from.
fn emit(f: &mut FunctionBuilder, stmts: &[Stmt], vals: &mut Vec<VReg>, base: VReg) {
    for s in stmts {
        match s {
            Stmt::Const(c) => {
                let v = f.c(*c);
                vals.push(v);
            }
            Stmt::Bin(op, a, b) => {
                let x = vals[*a as usize % vals.len()];
                let y = vals[*b as usize % vals.len()];
                let v = f.bin(*op, x, y);
                vals.push(v);
            }
            Stmt::Load(i) => {
                let idx = vals[*i as usize % vals.len()];
                let mask = f.c(ARRAY_WORDS as i64 - 1);
                let m = f.bin(Opcode::And, idx, mask);
                let three = f.c(3);
                let off = f.bin(Opcode::Shl, m, three);
                let addr = f.bin(Opcode::Add, base, off);
                let v = f.load(addr, 0);
                vals.push(v);
            }
            Stmt::Store(i, vv) => {
                let idx = vals[*i as usize % vals.len()];
                let val = vals[*vv as usize % vals.len()];
                let mask = f.c(ARRAY_WORDS as i64 - 1);
                let m = f.bin(Opcode::And, idx, mask);
                let three = f.c(3);
                let off = f.bin(Opcode::Shl, m, three);
                let addr = f.bin(Opcode::Add, base, off);
                f.store(addr, 0, val);
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
            } => {
                let c = vals[*cond as usize % vals.len()];
                let (tb, eb, join) = (f.new_block(), f.new_block(), f.new_block());
                f.branch(c, tb, eb);
                // Branch arms may only *mutate existing* state (stores and
                // assignments), not grow the value pool, so the pool stays
                // path-independent.
                let n = vals.len();
                f.switch_to(tb);
                emit(f, then_s, vals, base);
                vals.truncate(n);
                f.jump(join);
                f.switch_to(eb);
                emit(f, else_s, vals, base);
                vals.truncate(n);
                f.jump(join);
                f.switch_to(join);
            }
            Stmt::IfRet { cond, val } => {
                let c = vals[*cond as usize % vals.len()];
                let v = vals[*val as usize % vals.len()];
                let (rb, cont) = (f.new_block(), f.new_block());
                f.branch(c, rb, cont);
                f.switch_to(rb);
                // Mix in a marker so early returns are distinguishable
                // from the final checksum.
                let marker = f.c(0x5eed);
                let out = f.bin(Opcode::Xor, v, marker);
                f.ret(Some(out));
                f.switch_to(cont);
            }
            Stmt::Loop { trips, body } => {
                let i = f.c(0);
                let n = f.c(i64::from(*trips));
                let (h, b, exit) = (f.new_block(), f.new_block(), f.new_block());
                f.jump(h);
                f.switch_to(h);
                let c = f.bin(Opcode::Tlt, i, n);
                f.branch(c, b, exit);
                f.switch_to(b);
                let len = vals.len();
                vals.push(i);
                emit(f, body, vals, base);
                vals.truncate(len);
                let one = f.c(1);
                f.bin_into(i, Opcode::Add, i, one);
                f.jump(h);
                f.switch_to(exit);
            }
        }
    }
}

/// The generated function, ready to `finish`: the statements over a
/// pool seeded with `seed_vals`, then a return of one checksum that
/// folds every pool value in. Its one parameter is the scratch array's
/// base address.
pub fn fuzz_function(stmts: &[Stmt], seed_vals: &[i64]) -> FunctionBuilder {
    let mut f = FunctionBuilder::new("fuzz", 1);
    let base = f.param(0);
    let mut vals: Vec<VReg> = seed_vals.iter().map(|&c| f.c(c)).collect();
    if vals.is_empty() {
        vals.push(f.c(1));
    }
    emit(&mut f, stmts, &mut vals, base);
    // Fold the pool into a single checksum so the return value observes
    // everything.
    let mut acc = vals[0];
    for &v in &vals[1..] {
        let m = f.c(3);
        let t = f.bin(Opcode::Mul, acc, m);
        acc = f.bin(Opcode::Add, t, v);
    }
    f.ret(Some(acc));
    f
}
