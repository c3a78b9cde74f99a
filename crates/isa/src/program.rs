//! Whole-program container: a set of hyperblocks plus an entry point.

use crate::{Block, BlockAddr, BranchKind, BLOCK_FRAME_BYTES};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Validation failure for an [`EdgeProgram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// Two blocks share a starting address.
    DuplicateBlock(BlockAddr),
    /// The entry address names no block.
    MissingEntry(BlockAddr),
    /// A static branch target names no block.
    UnresolvedTarget {
        /// Block containing the branch.
        from: BlockAddr,
        /// The dangling target address.
        to: BlockAddr,
    },
    /// A `seq` exit does not target the next sequential block frame.
    BadSeqTarget {
        /// Block containing the branch.
        from: BlockAddr,
        /// The (non-sequential) target address.
        to: BlockAddr,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DuplicateBlock(a) => write!(f, "duplicate block at {a:#x}"),
            ProgramError::MissingEntry(a) => write!(f, "entry block {a:#x} does not exist"),
            ProgramError::UnresolvedTarget { from, to } => {
                write!(f, "block {from:#x} branches to nonexistent {to:#x}")
            }
            ProgramError::BadSeqTarget { from, to } => {
                write!(f, "block {from:#x} seq-exit targets non-sequential {to:#x}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated EDGE program: hyperblocks indexed by starting address.
///
/// Static branch targets are guaranteed to resolve, and `seq` exits are
/// guaranteed to target `address + BLOCK_FRAME_BYTES`, which is what the
/// next-block predictor's sequential-address adder assumes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EdgeProgram {
    blocks: BTreeMap<BlockAddr, Block>,
    entry: BlockAddr,
}

impl EdgeProgram {
    /// The entry block's address.
    #[must_use]
    pub fn entry(&self) -> BlockAddr {
        self.entry
    }

    /// Looks up the block starting at `addr`.
    #[must_use]
    #[inline]
    pub fn block(&self, addr: BlockAddr) -> Option<&Block> {
        self.blocks.get(&addr)
    }

    /// Number of blocks in the program.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the program contains no blocks (never true once built).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates over blocks in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockAddr, &Block)> {
        self.blocks.iter()
    }

    /// Total static instruction count across all blocks.
    #[must_use]
    pub fn instruction_count(&self) -> usize {
        self.blocks.values().map(Block::len).sum()
    }
}

/// Accumulates blocks and validates cross-block references.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    blocks: BTreeMap<BlockAddr, Block>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a block.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::DuplicateBlock`] if a block already exists
    /// at the same address.
    pub fn add_block(&mut self, block: Block) -> Result<(), ProgramError> {
        let addr = block.address();
        if self.blocks.insert(addr, block).is_some() {
            return Err(ProgramError::DuplicateBlock(addr));
        }
        Ok(())
    }

    /// Validates cross-block references and produces the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] for a missing entry block, a dangling
    /// static branch target, or a `seq` exit that is not sequential.
    pub fn finish(self, entry: BlockAddr) -> Result<EdgeProgram, ProgramError> {
        if !self.blocks.contains_key(&entry) {
            return Err(ProgramError::MissingEntry(entry));
        }
        for (&from, block) in &self.blocks {
            for exit in block.exits() {
                if let Some(to) = exit.target {
                    if !self.blocks.contains_key(&to) {
                        return Err(ProgramError::UnresolvedTarget { from, to });
                    }
                    if exit.kind == BranchKind::Seq && to != from + BLOCK_FRAME_BYTES {
                        return Err(ProgramError::BadSeqTarget { from, to });
                    }
                }
            }
        }
        Ok(EdgeProgram {
            blocks: self.blocks,
            entry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockBuilder, BranchKind};

    fn block_branching_to(addr: BlockAddr, kind: BranchKind, target: Option<BlockAddr>) -> Block {
        let mut b = BlockBuilder::new(addr);
        b.branch(kind, target, 0);
        b.finish().unwrap()
    }

    #[test]
    fn simple_program_builds() {
        let mut pb = ProgramBuilder::new();
        pb.add_block(block_branching_to(0x0, BranchKind::Seq, Some(0x200)))
            .unwrap();
        pb.add_block(block_branching_to(0x200, BranchKind::Halt, None))
            .unwrap();
        let p = pb.finish(0x0).unwrap();
        assert_eq!(p.entry(), 0x0);
        assert_eq!(p.len(), 2);
        assert!(p.block(0x200).is_some());
        assert_eq!(p.instruction_count(), 2);
    }

    #[test]
    fn duplicate_block_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.add_block(block_branching_to(0x0, BranchKind::Halt, None))
            .unwrap();
        let err = pb
            .add_block(block_branching_to(0x0, BranchKind::Halt, None))
            .unwrap_err();
        assert_eq!(err, ProgramError::DuplicateBlock(0x0));
    }

    #[test]
    fn missing_entry_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.add_block(block_branching_to(0x0, BranchKind::Halt, None))
            .unwrap();
        assert_eq!(pb.finish(0x400), Err(ProgramError::MissingEntry(0x400)));
    }

    #[test]
    fn dangling_target_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.add_block(block_branching_to(0x0, BranchKind::Branch, Some(0x999)))
            .unwrap();
        assert_eq!(
            pb.finish(0x0),
            Err(ProgramError::UnresolvedTarget { from: 0, to: 0x999 })
        );
    }

    #[test]
    fn non_sequential_seq_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.add_block(block_branching_to(0x0, BranchKind::Seq, Some(0x400)))
            .unwrap();
        pb.add_block(block_branching_to(0x400, BranchKind::Halt, None))
            .unwrap();
        assert_eq!(
            pb.finish(0x0),
            Err(ProgramError::BadSeqTarget { from: 0, to: 0x400 })
        );
    }
}
