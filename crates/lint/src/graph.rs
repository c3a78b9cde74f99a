//! Shared per-block dataflow facts: producer lists per operand slot,
//! topological order, constant propagation, and descendant bitsets.
//!
//! Blocks are validated ([`Block::from_instructions`] rejects cycles and
//! dangling targets), so the topological sort always covers every
//! instruction and target indices are always in range.

use clp_isa::{value, Block, Instruction, Opcode, Operand, MAX_BLOCK_INSTRUCTIONS};

/// Room for one entry per instruction of the largest block.
pub(crate) const ROOM: usize = MAX_BLOCK_INSTRUCTIONS;

/// Empties `v` and refills it with `len` copies of `x`, reserving `room`
/// entries first: sized for the largest block, a buffer kept across the
/// blocks of a lint run grows once.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, len: usize, x: T, room: usize) {
    v.clear();
    v.reserve(room.max(len));
    v.resize(len, x);
}

/// Dataflow facts about one block, computed once and shared by the
/// analyses. A lint run rebuilds one graph in place for every block of a
/// program ([`BlockGraph::rebuild`]), so its buffers are allocated once.
#[derive(Default)]
pub(crate) struct BlockGraph {
    /// Every operand slot's producers, slot after slot (instruction `i`'s
    /// slot `s` is slot `3 * i + s`), each slot's in ascending order.
    producer_list: Vec<usize>,
    /// Where slot `k`'s producers start in `producer_list`; one entry per
    /// slot plus the end.
    producer_start: Vec<usize>,
    /// Whether some store-nullifying null names targets: those resolve a
    /// store slot but never deliver, so only then do the delivering
    /// lists differ from the producer lists.
    null_fanout: bool,
    /// The producer lists without the store-nullifying nulls, when
    /// `null_fanout`.
    delivering_list: Vec<usize>,
    /// Where slot `k`'s delivering producers start in `delivering_list`.
    delivering_start: Vec<usize>,
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
    /// Kahn's algorithm's in-degrees and ready stack.
    indegree: Vec<usize>,
    ready: Vec<usize>,
}

/// Whether `value::eval` models this opcode exactly (pure value
/// computation, no memory or side effects).
pub(crate) fn foldable(op: Opcode) -> bool {
    op.produces_value() && !op.is_load() && !matches!(op, Opcode::Read | Opcode::Null | Opcode::Bro)
}

/// A store-nullifying `null` resolves a store slot but never delivers to
/// its dataflow targets (the simulator drops them).
pub(crate) fn is_null_store(inst: &Instruction) -> bool {
    inst.opcode == Opcode::Null && inst.lsid.is_some()
}

/// The operand slot a target feeds: instruction `i`'s slot `s` is slot
/// `3 * i + s`.
fn slot_of(t: &clp_isa::Target) -> usize {
    3 * t.inst.index() + t.operand.encode() as usize
}

/// Lays the targets of `insts` (those of producers `keep` accepts) out
/// slot by slot: `start[k]..start[k + 1]` of `list` are slot `k`'s
/// producers, ascending. One walk counts each slot's producers and sums
/// them into where each slot ends; a second places the producers from
/// the last down, each slot's end moving back to its start as it fills.
fn slot_lists(
    insts: &[Instruction],
    keep: impl Fn(&Instruction) -> bool,
    start: &mut Vec<usize>,
    list: &mut Vec<usize>,
) {
    let slots = 3 * insts.len();
    refill(start, slots + 1, 0, 3 * ROOM + 1);
    for inst in insts.iter().filter(|i| keep(i)) {
        for t in inst.targets() {
            start[slot_of(&t)] += 1;
        }
    }
    let mut total = 0;
    for end in &mut start[..=slots] {
        total += *end;
        *end = total;
    }
    // At most two targets per instruction.
    refill(list, total, 0, 2 * ROOM);
    for (i, inst) in insts.iter().enumerate().rev().filter(|(_, i)| keep(i)) {
        for t in inst.targets() {
            let k = slot_of(&t);
            start[k] -= 1;
            list[start[k]] = i;
        }
    }
}

impl BlockGraph {
    /// Computes the graph facts for a validated block.
    pub fn new(block: &Block) -> Self {
        let mut g = BlockGraph::default();
        g.rebuild(block);
        g
    }

    /// Recomputes the graph facts for a validated block in place: two
    /// walks over the targets lay out the producer lists (which give
    /// every in-degree), Kahn's algorithm folds each constant as it
    /// orders the instructions, and a walk back down the order gathers
    /// the descendants.
    pub(crate) fn rebuild(&mut self, block: &Block) {
        let insts = block.instructions();
        let n = insts.len();
        slot_lists(
            insts,
            |_| true,
            &mut self.producer_start,
            &mut self.producer_list,
        );
        self.null_fanout = insts
            .iter()
            .any(|i| is_null_store(i) && i.target_count() > 0);
        if self.null_fanout {
            slot_lists(
                insts,
                |i| !is_null_store(i),
                &mut self.delivering_start,
                &mut self.delivering_list,
            );
        }
        // An instruction's in-degree is the size of its three slots.
        let start = &self.producer_start;
        refill(&mut self.indegree, 0, 0, ROOM);
        self.indegree
            .extend((0..n).map(|i| start[3 * i + 3] - start[3 * i]));

        // Kahn's algorithm; the block is acyclic by construction so every
        // instruction is emitted. An instruction is popped after all its
        // producers, so its constant folds then.
        refill(&mut self.topo, 0, 0, ROOM);
        refill(&mut self.ready, 0, 0, ROOM);
        refill(&mut self.cval, n, None, ROOM);
        self.ready.extend((0..n).filter(|&i| self.indegree[i] == 0));
        while let Some(i) = self.ready.pop() {
            self.topo.push(i);
            self.cval[i] = self.fold(&insts[i], i);
            for t in insts[i].targets() {
                let j = t.inst.index();
                self.indegree[j] -= 1;
                if self.indegree[j] == 0 {
                    self.ready.push(j);
                }
            }
        }
        debug_assert_eq!(self.topo.len(), n);

        refill(&mut self.desc, n, 0, ROOM);
        for &i in self.topo.iter().rev() {
            let mut d = 0u128;
            for t in insts[i].targets() {
                let j = t.inst.index();
                d |= (1u128 << j) | self.desc[j];
            }
            self.desc[i] = d;
        }
    }

    /// The instructions targeting operand `slot` (0 = left, 1 = right,
    /// 2 = pred) of instruction `i`, in ascending order.
    pub fn producers(&self, i: usize, slot: usize) -> &[usize] {
        let k = 3 * i + slot;
        &self.producer_list[self.producer_start[k]..self.producer_start[k + 1]]
    }

    /// The instructions that can deliver a token to operand `slot` of
    /// instruction `i`: [`BlockGraph::producers`] without the
    /// store-nullifying nulls, in ascending order.
    pub(crate) fn delivering(&self, i: usize, slot: usize) -> &[usize] {
        if !self.null_fanout {
            return self.producers(i, slot);
        }
        let k = 3 * i + slot;
        &self.delivering_list[self.delivering_start[k]..self.delivering_start[k + 1]]
    }

    /// The constant delivered to operand `slot` of instruction `i`, if
    /// it has exactly one producer with a known constant result (or a
    /// `null` producer, which reads as zero).
    pub(crate) fn op_cval(&self, i: usize, slot: Operand, insts: &[Instruction]) -> Option<u64> {
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
