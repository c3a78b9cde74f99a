//! Value semantics shared by every executor (IR interpreter, TFlex
//! simulator, and the conventional baseline simulator).
//!
//! All values are 64-bit words. Integer operations use two's-complement
//! wrapping arithmetic; floating-point operations interpret the word as an
//! IEEE-754 `f64` bit pattern. Division or remainder by zero yields zero
//! (a deliberate, documented deviation from trapping semantics so that
//! block-atomic execution never faults mid-block).

use crate::Opcode;

/// Evaluates a non-memory, value-producing operation.
///
/// `a` and `b` are the left and right operands (ignored for zero-arity
/// opcodes); `imm` is the instruction's immediate field.
///
/// # Panics
///
/// Panics if called with a memory, branch, or register-interface opcode —
/// those have side effects that the caller must model itself.
#[must_use]
#[inline]
pub fn eval(op: Opcode, imm: i64, a: u64, b: u64) -> u64 {
    let sa = a as i64;
    let sb = b as i64;
    let fa = f64::from_bits(a);
    let fb = f64::from_bits(b);
    match op {
        Opcode::Add => sa.wrapping_add(sb) as u64,
        Opcode::Sub => sa.wrapping_sub(sb) as u64,
        Opcode::Mul => sa.wrapping_mul(sb) as u64,
        Opcode::Div => {
            if sb == 0 {
                0
            } else {
                sa.wrapping_div(sb) as u64
            }
        }
        Opcode::Rem => {
            if sb == 0 {
                0
            } else {
                sa.wrapping_rem(sb) as u64
            }
        }
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => a.wrapping_shl(b as u32),
        Opcode::Shr => a.wrapping_shr(b as u32),
        Opcode::Sar => (sa.wrapping_shr(b as u32)) as u64,
        Opcode::Neg => (sa.wrapping_neg()) as u64,
        Opcode::Teq => u64::from(a == b),
        Opcode::Tne => u64::from(a != b),
        Opcode::Tlt => u64::from(sa < sb),
        Opcode::Tle => u64::from(sa <= sb),
        Opcode::Tgt => u64::from(sa > sb),
        Opcode::Tge => u64::from(sa >= sb),
        Opcode::Mov => a,
        Opcode::Movi => imm as u64,
        Opcode::Addi => sa.wrapping_add(imm) as u64,
        Opcode::Null => 0,
        Opcode::Fadd => (fa + fb).to_bits(),
        Opcode::Fsub => (fa - fb).to_bits(),
        Opcode::Fmul => (fa * fb).to_bits(),
        Opcode::Fdiv => {
            if fb == 0.0 {
                0
            } else {
                (fa / fb).to_bits()
            }
        }
        Opcode::Itof => (sa as f64).to_bits(),
        Opcode::Ld
        | Opcode::Ldb
        | Opcode::St
        | Opcode::Stb
        | Opcode::Bro
        | Opcode::Read
        | Opcode::Write => {
            panic!("eval called with side-effecting opcode {op}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Converts an `f64` into its 64-bit word representation.
    fn from_f64(x: f64) -> u64 {
        x.to_bits()
    }

    /// Interprets a 64-bit word as an `f64`.
    fn to_f64(x: u64) -> f64 {
        f64::from_bits(x)
    }

    #[test]
    fn integer_ops_wrap() {
        assert_eq!(eval(Opcode::Add, 0, u64::MAX, 1), 0);
        assert_eq!(eval(Opcode::Sub, 0, 0, 1), u64::MAX);
        assert_eq!(eval(Opcode::Mul, 0, 3, 7), 21);
        assert_eq!(eval(Opcode::Neg, 0, 5, 0), (-5i64) as u64);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(eval(Opcode::Div, 0, 42, 0), 0);
        assert_eq!(eval(Opcode::Rem, 0, 42, 0), 0);
        assert_eq!(eval(Opcode::Fdiv, 0, from_f64(1.0), from_f64(0.0)), 0);
    }

    #[test]
    fn signed_vs_unsigned_compares() {
        // The word -1 compares as a signed -1, never as `u64::MAX`.
        let minus_one = (-1i64) as u64;
        assert_eq!(eval(Opcode::Tlt, 0, minus_one, 1), 1);
        assert_eq!(eval(Opcode::Tgt, 0, minus_one, 1), 0);
        assert_eq!(eval(Opcode::Tge, 0, 1, minus_one), 1);
        assert_eq!(eval(Opcode::Tle, 0, 1, minus_one), 0);
    }

    #[test]
    fn shifts() {
        assert_eq!(eval(Opcode::Shl, 0, 1, 8), 256);
        assert_eq!(eval(Opcode::Shr, 0, (-8i64) as u64, 1), (u64::MAX >> 1) - 3);
        assert_eq!(eval(Opcode::Sar, 0, (-8i64) as u64, 1), (-4i64) as u64);
    }

    #[test]
    fn float_roundtrip_and_ops() {
        let x = from_f64(1.5);
        let y = from_f64(2.5);
        assert_eq!(to_f64(eval(Opcode::Fadd, 0, x, y)), 4.0);
        assert_eq!(to_f64(eval(Opcode::Fmul, 0, x, y)), 3.75);
        assert_eq!(to_f64(eval(Opcode::Fsub, 0, x, y)), -1.0);
        assert_eq!(to_f64(eval(Opcode::Fdiv, 0, y, x)), 2.5 / 1.5);
        assert_eq!(to_f64(eval(Opcode::Itof, 0, (-3i64) as u64, 0)), -3.0);
    }

    #[test]
    fn immediates() {
        assert_eq!(eval(Opcode::Movi, -7, 0, 0), (-7i64) as u64);
        assert_eq!(eval(Opcode::Addi, 10, 5, 0), 15);
    }

    #[test]
    #[should_panic(expected = "side-effecting")]
    fn memory_ops_rejected() {
        let _ = eval(Opcode::Ld, 0, 0, 0);
    }
}
