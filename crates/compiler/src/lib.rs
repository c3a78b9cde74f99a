//! # clp-compiler — from a CFG mini-IR to EDGE hyperblocks
//!
//! The TRIPS toolchain is not publicly available, so this crate rebuilds
//! the pipeline a TFlex system needs:
//!
//! 1. a small CFG [IR](crate::ir) over mutable virtual registers, with an
//!    ergonomic [`FunctionBuilder`] used by the workload suite;
//! 2. a reference [interpreter](crate::interp) that produces the golden
//!    outputs every simulator is checked against;
//! 3. [hyperblock formation](crate::hyperblock) — predicated inlining of
//!    single-predecessor successors (chains, triangles, diamonds, loop
//!    rotation) under the EDGE resource limits;
//! 4. [`liveness`] + register allocation for block-crossing values only
//!    (intra-block values travel on dataflow targets);
//! 5. [`codegen`] with a caller-save calling convention
//!    (args in `r1..r8`, return in `r1`, link in `r127`, stack pointer in
//!    `r126`), `READ`/`WRITE` insertion, predicate materialization, and
//!    store-null coverage so blocks always complete;
//! 6. placement-aware [instruction-ID assignment](crate::placement) that
//!    schedules for the 32-core composition.
//!
//! ```
//! use clp_compiler::{compile, interpret, CompileOptions, FunctionBuilder, ProgramBuilder};
//! use clp_isa::Opcode;
//! use clp_mem::MemoryImage;
//!
//! # fn main() -> Result<(), clp_compiler::CompileError> {
//! let mut f = FunctionBuilder::new("triple", 1);
//! let x = f.param(0);
//! let three = f.c(3);
//! let y = f.bin(Opcode::Mul, x, three);
//! f.ret(Some(y));
//! let mut pb = ProgramBuilder::new();
//! let id = pb.add_function(f.finish());
//! let program = pb.finish(id);
//!
//! let edge = compile(&program, &CompileOptions::default())?;
//! assert!(edge.len() >= 1);
//!
//! let mut image = MemoryImage::new();
//! let golden = interpret(&program, &[14], &mut image, 10_000).expect("interprets");
//! assert_eq!(golden.ret, Some(42));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builder;
pub mod codegen;
pub mod hyperblock;
pub mod interp;
pub mod ir;
pub mod liveness;
pub mod placement;
mod regalloc;

/// The root tests' random-program generator, included by path; it names
/// `FunctionBuilder`, `VReg` and `Opcode` from here. The input of the
/// differential tests of [`liveness`] and [`regalloc::interference`].
#[cfg(test)]
#[path = "../../../tests/common/stmts.rs"]
mod fuzz;
#[cfg(test)]
use clp_isa::Opcode;

pub use builder::{FunctionBuilder, ProgramBuilder};
pub use codegen::compile;
pub use hyperblock::FormerOptions;
pub use interp::{interpret, interpret_with, InterpError, InterpResult, InterpStats, Step};
pub use ir::{BbId, FuncId, MemSize, Program, Terminator, VReg};
pub use regalloc::RegPressureError;

use clp_isa::{BlockError, ProgramError};
use std::fmt;

/// Compiler configuration. The first block's address is the constant
/// `codegen::BASE_ADDR`.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Hyperblock-formation knobs.
    pub former: FormerOptions,
    /// Run placement-aware ID assignment.
    pub placement: bool,
    /// Composition size placement schedules for (32 in the paper).
    pub placement_cores: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            former: FormerOptions::default(),
            placement: true,
            placement_cores: 32,
        }
    }
}

/// Compilation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// Register allocation ran out of architectural registers.
    RegPressure(RegPressureError),
    /// A hyperblock lowered to more EDGE instructions than fit.
    BlockTooLarge {
        /// Function name.
        function: String,
        /// Original basic-block index.
        bb: usize,
    },
    /// A hyperblock needed more than 32 load/store IDs.
    LsidOverflow {
        /// Function name.
        function: String,
        /// Original basic-block index.
        bb: usize,
    },
    /// A call continuation is also a jump target, which breaks the
    /// caller-save reload convention.
    ContIsJumpTarget {
        /// Function name.
        function: String,
        /// Offending block index.
        bb: usize,
    },
    /// Internal invariant: calls and returns are sole, unpredicated exits.
    PredicatedCallOrRet {
        /// Function name.
        function: String,
        /// Offending block index.
        bb: usize,
    },
    /// Block validation failed after lowering.
    Block {
        /// Function name.
        function: String,
        /// Original basic-block index.
        bb: usize,
        /// Underlying ISA error.
        source: BlockError,
    },
    /// Program assembly failed (duplicate addresses, dangling targets).
    Program(ProgramError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::RegPressure(e) => write!(f, "{e}"),
            CompileError::BlockTooLarge { function, bb } => {
                write!(f, "'{function}' bb{bb} exceeds the 128-instruction block")
            }
            CompileError::LsidOverflow { function, bb } => {
                write!(f, "'{function}' bb{bb} exceeds 32 load/store IDs")
            }
            CompileError::ContIsJumpTarget { function, bb } => {
                write!(
                    f,
                    "'{function}' bb{bb} is a call continuation reached by a jump"
                )
            }
            CompileError::PredicatedCallOrRet { function, bb } => {
                write!(
                    f,
                    "'{function}' bb{bb} has a predicated call or return exit"
                )
            }
            CompileError::Block {
                function,
                bb,
                source,
            } => write!(f, "'{function}' bb{bb}: {source}"),
            CompileError::Program(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}
