//! # clp-isa — an Explicit Data Graph Execution (EDGE) instruction set
//!
//! This crate defines the block-atomic EDGE ISA used by the TFlex
//! Composable Lightweight Processor reproduction (Kim et al., MICRO 2007).
//!
//! Programs are sequences of *hyperblocks*: predicated, single-entry,
//! multiple-exit regions of up to [`MAX_BLOCK_INSTRUCTIONS`] instructions
//! with atomic execution semantics. Instructions do not name source
//! registers; instead each instruction names up to two [`Target`]s (a
//! seven-bit instruction index plus an operand slot) that say *which
//! other instruction in the block* consumes its result and into which
//! operand slot. The microarchitecture
//! interprets those targets as placement coordinates, which is exactly what
//! makes processors composable: an N-core processor uses the low bits of
//! the target index to pick the core and the high bits to pick the slot.
//!
//! Architectural state crossing block boundaries is explicit:
//! [`Opcode::Read`] instructions inject register values into the dataflow
//! graph and [`Opcode::Write`] instructions collect block outputs that are
//! committed en masse. Memory ordering within a block is expressed by
//! load/store identifiers ([`Lsid`]). Blocks exist as [`Block`] values
//! and as the textual form [`asm`] prints and parses. The opcode table
//! holds only what the compiled suite executes.
//!
//! ```
//! use clp_isa::{BlockBuilder, Operand, Opcode, BranchKind, Reg};
//!
//! # fn main() -> Result<(), clp_isa::BlockError> {
//! // r2 = r0 + r1, then halt.
//! let mut b = BlockBuilder::new(0x1000);
//! let a = b.read(Reg::new(0));
//! let c = b.read(Reg::new(1));
//! let add = b.op2(Opcode::Add, a, c);
//! b.write(Reg::new(2), add);
//! b.branch(BranchKind::Halt, None, 0);
//! let block = b.finish()?;
//! assert_eq!(block.len(), 5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod asm;
mod block;
mod builder;
mod inst;
mod opcode;
mod program;
mod target;
pub mod value;

pub use block::{Block, BlockError, ExitSummary};
pub use builder::BlockBuilder;
pub use inst::{BranchInfo, Instruction, PredSense};
pub use opcode::{BranchKind, Opcode, OpcodeClass};
pub use program::{EdgeProgram, ProgramBuilder, ProgramError};
pub use target::{InstId, Lsid, Operand, Reg, Target};

/// Maximum number of instructions in a hyperblock (TRIPS ISA limit).
pub const MAX_BLOCK_INSTRUCTIONS: usize = 128;
/// Maximum number of architectural register reads per block.
pub const MAX_BLOCK_READS: usize = 32;
/// Maximum number of architectural register writes per block.
pub const MAX_BLOCK_WRITES: usize = 32;
/// Maximum number of load/store IDs per block.
pub const MAX_BLOCK_LSIDS: usize = 32;
/// Maximum number of distinct exits (3 exit bits) per block.
pub const MAX_BLOCK_EXITS: usize = 8;
/// Number of architectural registers.
pub const NUM_ARCH_REGS: usize = 128;
/// Size of one block in the instruction address space, in bytes.
///
/// Blocks occupy fixed 512-byte frames (128 x 32-bit instruction slots),
/// so successive block addresses differ by this amount.
pub const BLOCK_FRAME_BYTES: u64 = 512;

/// A virtual address identifying the start of a hyperblock.
///
/// Block addresses play the role of the program counter: the next-block
/// predictor predicts them and the block-owner hash consumes them.
pub type BlockAddr = u64;
