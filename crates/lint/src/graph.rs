//! Shared per-block dataflow facts: producer lists per operand slot,
//! topological order, constant propagation, and descendant bitsets.
//!
//! Blocks are validated ([`Block::from_instructions`] rejects cycles and
//! dangling targets), so the topological sort always covers every
//! instruction and target indices are always in range.

use clp_isa::{value, Block, Instruction, Opcode, Operand};

/// Dataflow facts about one block, computed once and shared by the
/// analyses.
pub struct BlockGraph {
    /// Every operand slot's producers, slot after slot (instruction `i`'s
    /// slot `s` is slot `3 * i + s`), each slot's in ascending order.
    producer_list: Vec<usize>,
    /// Where slot `k`'s producers start in `producer_list`; one entry per
    /// slot plus the end.
    producer_start: Vec<usize>,
    /// Instruction indices in topological (producer-before-consumer)
    /// order.
    pub topo: Vec<usize>,
    /// Assignment-independent constant value of each instruction's
    /// result, where a single-producer chain of foldable operations
    /// makes it knowable.
    pub cval: Vec<Option<u64>>,
    /// `desc[i]`: bitset of instructions transitively reachable from `i`
    /// along dataflow targets (not including `i` itself).
    pub desc: Vec<u128>,
}

/// Whether `value::eval` models this opcode exactly (pure value
/// computation, no memory or side effects).
pub fn foldable(op: Opcode) -> bool {
    op.produces_value() && !op.is_load() && !matches!(op, Opcode::Read | Opcode::Null | Opcode::Bro)
}

impl BlockGraph {
    /// Computes the graph facts for a validated block.
    pub fn new(block: &Block) -> Self {
        let insts = block.instructions();
        let n = insts.len();
        let slot_of = |t: &clp_isa::Target| 3 * t.inst.index() + t.operand.encode() as usize;
        // Count each slot's producers, place the slots end to end, then
        // fill them in producer order.
        let mut producer_start = vec![0usize; 3 * n + 1];
        let mut indegree = vec![0usize; n];
        for inst in insts {
            for t in inst.targets() {
                producer_start[slot_of(&t) + 1] += 1;
                indegree[t.inst.index()] += 1;
            }
        }
        for k in 0..3 * n {
            producer_start[k + 1] += producer_start[k];
        }
        let mut fill = producer_start.clone();
        let mut producer_list = vec![0usize; producer_start[3 * n]];
        for (i, inst) in insts.iter().enumerate() {
            for t in inst.targets() {
                producer_list[fill[slot_of(&t)]] = i;
                fill[slot_of(&t)] += 1;
            }
        }
        // Kahn's algorithm; the block is acyclic by construction so every
        // instruction is emitted.
        let mut topo = Vec::with_capacity(n);
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        while let Some(i) = ready.pop() {
            topo.push(i);
            for t in insts[i].targets() {
                let j = t.inst.index();
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
        debug_assert_eq!(topo.len(), n);

        let mut g = BlockGraph {
            producer_list,
            producer_start,
            topo,
            cval: vec![None; n],
            desc: vec![0u128; n],
        };
        for idx in 0..g.topo.len() {
            let i = g.topo[idx];
            g.cval[i] = g.fold(&insts[i], i);
        }
        for idx in (0..g.topo.len()).rev() {
            let i = g.topo[idx];
            let mut d = 0u128;
            for t in insts[i].targets() {
                let j = t.inst.index();
                d |= (1u128 << j) | g.desc[j];
            }
            g.desc[i] = d;
        }
        g
    }

    /// The instructions targeting operand `slot` (0 = left, 1 = right,
    /// 2 = pred) of instruction `i`, in ascending order.
    pub fn producers(&self, i: usize, slot: usize) -> &[usize] {
        let k = 3 * i + slot;
        &self.producer_list[self.producer_start[k]..self.producer_start[k + 1]]
    }

    /// The constant delivered to operand `slot` of instruction `i`, if
    /// it has exactly one producer with a known constant result (or a
    /// `null` producer, which reads as zero).
    pub fn op_cval(&self, i: usize, slot: Operand, insts: &[Instruction]) -> Option<u64> {
        match *self.producers(i, slot.encode() as usize) {
            [p] if insts[p].opcode == Opcode::Null => Some(0),
            [p] => self.cval[p],
            _ => None,
        }
    }

    fn fold(&self, inst: &Instruction, i: usize) -> Option<u64> {
        let op = inst.opcode;
        if op == Opcode::Movi {
            return Some(inst.imm as u64);
        }
        if !foldable(op) {
            return None;
        }
        // The producer table is fully built before `fold` runs, and `cval`
        // of every producer is already computed (topological order).
        let a;
        let b;
        match op.arity() {
            0 => return None,
            1 => {
                a = self.op_cval_raw(i, 0)?;
                b = 0;
            }
            _ => {
                a = self.op_cval_raw(i, 0)?;
                b = self.op_cval_raw(i, 1)?;
            }
        }
        Some(value::eval(op, inst.imm, a, b))
    }

    fn op_cval_raw(&self, i: usize, slot: usize) -> Option<u64> {
        match *self.producers(i, slot) {
            [p] => self.cval[p],
            _ => None,
        }
    }
}
