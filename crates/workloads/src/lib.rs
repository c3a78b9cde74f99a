//! # clp-workloads — the 26-kernel benchmark suite
//!
//! Stand-ins for the paper's benchmarks (Table 1): the EEMBC, SPEC
//! CPU2000, Versabench, and hand-optimized programs are unavailable or
//! unportable to a reconstructed EDGE toolchain, so this crate provides
//! 26 kernels written in the mini-IR, named after and shaped like the
//! originals, spanning the same spectrum from high-ILP dense loops to
//! low-ILP pointer chasing (see DESIGN.md, "Substitutions").
//!
//! Every workload carries its inputs and a *verification specification*;
//! [`Workload::golden`] runs the reference interpreter and
//! [`Workload::verify`] checks a simulator's outputs against it, so all
//! three execution engines in this repository are continuously
//! cross-checked.
//!
//! ```
//! use clp_workloads::suite;
//!
//! let all = suite::all();
//! assert_eq!(all.len(), 26);
//! let conv = suite::by_name("conv").expect("exists");
//! let golden = conv.golden();
//! assert!(golden.ret.is_some());
//! ```

#![warn(missing_docs)]

mod eembc;
mod hand;
mod spec_fp;
mod spec_int;
pub mod suite;
mod util;
mod versabench;

use clp_compiler::{interpret, Program};
use clp_mem::MemoryImage;
use std::fmt;

/// Which suite a workload stands in for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Hand-optimized kernels (conv, ct, genalg).
    HandOptimized,
    /// EEMBC-like embedded benchmarks.
    Eembc,
    /// Versabench-like kernels.
    Versabench,
    /// SPEC CPU2000 integer-like programs.
    SpecInt,
    /// SPEC CPU2000 floating-point-like programs.
    SpecFp,
}

impl WorkloadClass {
    /// Every class, in canonical (rendering) order.
    pub const ALL: [WorkloadClass; 5] = [
        WorkloadClass::HandOptimized,
        WorkloadClass::Eembc,
        WorkloadClass::Versabench,
        WorkloadClass::SpecInt,
        WorkloadClass::SpecFp,
    ];

    /// Stable snake_case label (JSON keys, stats-registry metric names,
    /// clp-scope fleet-book rollup keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkloadClass::HandOptimized => "hand_optimized",
            WorkloadClass::Eembc => "eembc",
            WorkloadClass::Versabench => "versabench",
            WorkloadClass::SpecInt => "spec_int",
            WorkloadClass::SpecFp => "spec_fp",
        }
    }
}

/// Coarse ILP classification used to arrange Figure 6's x-axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IlpClass {
    /// Plenty of independent work per block (dense, unrolled loops).
    High,
    /// Serial dependences, branchy control, or pointer chasing.
    Low,
}

/// What to check after a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckSpec {
    /// Compare the entry function's return value (`r1`).
    pub check_ret: bool,
    /// Word regions `(address, length-in-words)` to compare against the
    /// interpreter's final memory.
    pub regions: Vec<(u64, usize)>,
}

/// Golden reference produced by the IR interpreter.
#[derive(Clone, Debug)]
pub struct Golden {
    /// Return value of the entry function.
    pub ret: Option<u64>,
    /// Final memory image.
    pub image: MemoryImage,
    /// Dynamic IR statistics (op counts).
    pub stats: clp_compiler::InterpStats,
}

/// A verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The return value differs.
    Ret {
        /// Expected value.
        expected: Option<u64>,
        /// Observed value.
        got: u64,
    },
    /// A word in a checked region differs.
    Memory {
        /// Address of the mismatching word.
        addr: u64,
        /// Expected word.
        expected: u64,
        /// Observed word.
        got: u64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Ret { expected, got } => {
                write!(f, "return value {got:#x}, expected {expected:?}")
            }
            VerifyError::Memory {
                addr,
                expected,
                got,
            } => write!(f, "mem[{addr:#x}] = {got:#x}, expected {expected:#x}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// One benchmark: an IR program, its inputs, and how to verify a run.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (matches the paper's suite where applicable).
    pub name: &'static str,
    /// Suite the workload stands in for.
    pub class: WorkloadClass,
    /// ILP classification.
    pub ilp: IlpClass,
    /// The IR program.
    pub program: Program,
    /// Entry-function arguments.
    pub args: Vec<u64>,
    /// Initial memory contents `(address, words)`.
    pub init_mem: Vec<(u64, Vec<u64>)>,
    /// Verification specification.
    pub check: CheckSpec,
}

impl Workload {
    /// Builds the initial memory image.
    #[must_use]
    pub fn initial_image(&self) -> MemoryImage {
        let mut image = MemoryImage::new();
        for (addr, words) in &self.init_mem {
            image.load_words(*addr, words);
        }
        image
    }

    /// Runs the reference interpreter to produce the golden result.
    ///
    /// # Examples
    ///
    /// ```
    /// let w = clp_workloads::suite::by_name("conv").expect("exists");
    /// let golden = w.golden();
    /// assert_eq!(golden.ret, Some(0));
    /// assert!(golden.stats.loads > 0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the program fails to terminate within a generous budget
    /// (a workload-definition bug). Job-facing callers that accept
    /// arbitrary workloads should use [`Workload::try_golden`], which
    /// reports the same condition as a typed error instead.
    #[must_use]
    pub fn golden(&self) -> Golden {
        self.try_golden()
            .unwrap_or_else(|e| panic!("workload '{}' golden run failed: {e}", self.name))
    }

    /// Like [`Workload::golden`], but a non-terminating or stack-blowing
    /// program is reported as a typed [`InterpError`](clp_compiler::InterpError) rather than a
    /// panic — the form the clp-serve admission path uses so a malformed
    /// job is rejected instead of taking a worker down.
    ///
    /// # Errors
    ///
    /// Returns the interpreter error if the program exceeds the dynamic
    /// operation budget or the call-depth limit.
    pub fn try_golden(&self) -> Result<Golden, clp_compiler::InterpError> {
        let mut image = self.initial_image();
        let r = interpret(&self.program, &self.args, &mut image, 200_000_000)?;
        Ok(Golden {
            ret: r.ret,
            image,
            stats: r.stats,
        })
    }

    /// Verifies a run's outputs against the golden reference.
    ///
    /// # Errors
    ///
    /// Returns the first mismatch found.
    pub fn verify(&self, ret: u64, image: &MemoryImage) -> Result<(), VerifyError> {
        let golden = self.golden();
        self.verify_against(&golden, ret, image)
    }

    /// Verifies against an already-computed golden result (avoids
    /// re-interpreting in sweeps).
    ///
    /// # Errors
    ///
    /// Returns the first mismatch found.
    pub fn verify_against(
        &self,
        golden: &Golden,
        ret: u64,
        image: &MemoryImage,
    ) -> Result<(), VerifyError> {
        self.verify_at(golden, ret, image, 0)
    }

    /// [`Workload::verify_against`] for a program whose address space
    /// starts at `base` in `image` (one of several on a shared chip);
    /// a mismatch is reported at the program's own address.
    ///
    /// # Errors
    ///
    /// Returns the first mismatch found.
    pub fn verify_at(
        &self,
        golden: &Golden,
        ret: u64,
        image: &MemoryImage,
        base: u64,
    ) -> Result<(), VerifyError> {
        if self.check.check_ret && golden.ret != Some(ret) {
            return Err(VerifyError::Ret {
                expected: golden.ret,
                got: ret,
            });
        }
        for &(region, len) in &self.check.regions {
            for k in 0..len {
                let addr = region + 8 * k as u64;
                let expected = golden.image.read_u64(addr);
                let got = image.read_u64(base + addr);
                if expected != got {
                    return Err(VerifyError::Memory {
                        addr,
                        expected,
                        got,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_26_unique_workloads() {
        let all = suite::all();
        assert_eq!(all.len(), 26);
        let mut names: Vec<&str> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26, "duplicate names");
    }

    #[test]
    fn classes_match_the_paper_counts() {
        let all = suite::all();
        let count = |c: WorkloadClass| all.iter().filter(|w| w.class == c).count();
        assert_eq!(count(WorkloadClass::HandOptimized), 3);
        assert_eq!(count(WorkloadClass::Eembc), 7);
        assert_eq!(count(WorkloadClass::Versabench), 2);
        assert_eq!(count(WorkloadClass::SpecInt), 8);
        assert_eq!(count(WorkloadClass::SpecFp), 6);
    }

    #[test]
    fn every_workload_interprets_and_checks_something() {
        for w in suite::all() {
            let g = w.golden();
            assert!(
                w.check.check_ret || !w.check.regions.is_empty(),
                "'{}' checks nothing",
                w.name
            );
            assert!(
                g.stats.fired_ops > 100,
                "'{}' does almost no work ({} ops)",
                w.name,
                g.stats.fired_ops
            );
            // Self-verification must pass trivially.
            let ret = g.ret.unwrap_or(0);
            w.verify_against(&g, ret, &g.image).expect(w.name);
        }
    }

    #[test]
    fn verify_detects_corruption() {
        let w = suite::by_name("conv").unwrap();
        let g = w.golden();
        let mut bad = g.image.clone();
        let (base, _) = w.check.regions[0];
        bad.write_u64(base, bad.read_u64(base) ^ 0xdead);
        assert!(w.verify_against(&g, g.ret.unwrap_or(0), &bad).is_err());
    }

    #[test]
    fn hand_optimized_set_for_figure_10() {
        // Figure 10 uses the 12 hand-optimized benchmarks.
        assert_eq!(suite::hand_optimized().len(), 12);
    }
}
