//! The out-of-order timing model.

use clp_compiler::ir::{BbId, FuncId, OpKind, Terminator};
use clp_compiler::Program;
use clp_isa::{value, OpcodeClass};
use clp_mem::{CacheBank, CacheGeometry, MemoryImage};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Conventional-core parameters (a Core2-class machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Instructions fetched/renamed per cycle.
    pub fetch_width: usize,
    /// Instruction-window (ROB) entries.
    pub window: usize,
    /// Integer ALUs.
    pub int_units: usize,
    /// Floating-point units.
    pub fp_units: usize,
    /// Cache ports (loads/stores issued per cycle).
    pub mem_ports: usize,
    /// L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// L1 hit latency.
    pub l1_latency: u32,
    /// Unified L2 hit latency.
    pub l2_latency: u32,
    /// L2 size in bytes.
    pub l2_bytes: usize,
    /// Main-memory latency.
    pub dram_latency: u32,
    /// log2 of gshare table entries.
    pub gshare_bits: u32,
    /// Cycles from mispredicted-branch resolution to useful fetch.
    pub mispredict_penalty: u64,
    /// Fetch-group break on a correctly predicted taken branch (the
    /// front-end redirect bubble of conventional pipelines).
    pub taken_branch_bubble: u64,
    /// Dynamic-operation budget.
    pub max_ops: u64,
}

impl BaselineConfig {
    /// A Core2-Duo-class configuration.
    #[must_use]
    pub fn core2() -> Self {
        BaselineConfig {
            fetch_width: 4,
            window: 96,
            int_units: 3,
            fp_units: 1,
            mem_ports: 2,
            l1_bytes: 32 * 1024,
            l1_latency: 3,
            l2_latency: 14,
            l2_bytes: 2 * 1024 * 1024,
            dram_latency: 150,
            gshare_bits: 12,
            mispredict_penalty: 12,
            taken_branch_bubble: 1,
            max_ops: 200_000_000,
        }
    }
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self::core2()
    }
}

/// Counters from a baseline run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineStats {
    /// Dynamic operations retired.
    pub ops: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional-branch mispredictions.
    pub mispredicts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
}

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Entry function's return value.
    pub ret: Option<u64>,
    /// Total cycles.
    pub cycles: u64,
    /// Final memory image.
    pub image: MemoryImage,
    /// Counters.
    pub stats: BaselineStats,
}

struct Gshare {
    table: Vec<u8>,
    history: u64,
    mask: u64,
}

impl Gshare {
    fn new(bits: u32) -> Self {
        Gshare {
            table: vec![1; 1 << bits],
            history: 0,
            mask: (1 << bits) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc ^ self.history) & self.mask) as usize
    }

    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let i = self.index(pc);
        let predicted = self.table[i] >= 2;
        if taken {
            self.table[i] = (self.table[i] + 1).min(3);
        } else {
            self.table[i] = self.table[i].saturating_sub(1);
        }
        self.history = (self.history << 1) | u64::from(taken);
        predicted == taken
    }
}

struct Frame {
    func: FuncId,
    bb: BbId,
    regs: Vec<u64>,
    ready: Vec<u64>,
    ret_dst: Option<u32>,
    ret_bb: BbId,
}

/// Runs `program` on the conventional out-of-order model.
///
/// # Panics
///
/// Panics if the program exceeds the dynamic-operation budget or the
/// call-depth bound (a workload bug — the same programs terminate under
/// the reference interpreter).
#[must_use]
pub fn run_baseline(
    program: &Program,
    args: &[u64],
    init_mem: &[(u64, Vec<u64>)],
    cfg: &BaselineConfig,
) -> BaselineResult {
    let mut image = MemoryImage::new();
    for (addr, words) in init_mem {
        image.load_words(*addr, words);
    }
    let mut stats = BaselineStats::default();
    let mut l1 = CacheBank::new(CacheGeometry {
        bytes: cfg.l1_bytes,
        line_bytes: 64,
        ways: 4,
    });
    let mut l2 = CacheBank::new(CacheGeometry {
        bytes: cfg.l2_bytes,
        line_bytes: 64,
        ways: 8,
    });
    let mut bp = Gshare::new(cfg.gshare_bits);

    // Timing state.
    let mut fetch_cycle: u64 = 1;
    let mut fetched_this_cycle = 0usize;
    let mut rob: VecDeque<u64> = VecDeque::new(); // completion times, window-bounded
    let mut int_free = vec![0u64; cfg.int_units];
    let mut fp_free = vec![0u64; cfg.fp_units];
    let mut mem_free = vec![0u64; cfg.mem_ports];
    // Conservative memory ordering: last store completion per line.
    // Read and written by key only, so hash order cannot reach a cycle.
    #[allow(clippy::disallowed_types)]
    let mut last_store_done: std::collections::HashMap<u64, u64> = Default::default();
    let mut last_cycle: u64 = 1;

    let new_frame = |func: FuncId, argv: &[u64], ready_at: u64| -> Frame {
        let f = program.function(func);
        let mut regs = vec![0u64; f.n_vregs as usize];
        let mut ready = vec![0u64; f.n_vregs as usize];
        for (i, &a) in argv.iter().enumerate().take(f.n_params) {
            regs[f.params[i].0 as usize] = a;
            ready[f.params[i].0 as usize] = ready_at;
        }
        Frame {
            func,
            bb: f.entry,
            regs,
            ready,
            ret_dst: None,
            ret_bb: f.entry,
        }
    };

    let mut stack: Vec<Frame> = Vec::new();
    let mut frame = new_frame(program.entry, args, 0);
    let ret_value: Option<u64>;

    macro_rules! fetch_op {
        () => {{
            if fetched_this_cycle >= cfg.fetch_width {
                fetch_cycle += 1;
                fetched_this_cycle = 0;
            }
            fetched_this_cycle += 1;
            fetch_cycle
        }};
    }

    fn unit_issue(free: &mut [u64], earliest: u64) -> u64 {
        let (idx, &t) = free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("units exist");
        let issue = earliest.max(t);
        free[idx] = issue + 1;
        issue
    }

    'outer: loop {
        let func = program.function(frame.func);
        let block = func.block(frame.bb);

        for op in &block.ops {
            stats.ops += 1;
            assert!(stats.ops < cfg.max_ops, "baseline exceeded op budget");
            let f = fetch_op!();
            // Window constraint: the oldest must have completed.
            if rob.len() >= cfg.window {
                let oldest = rob.pop_front().expect("nonempty");
                if oldest > fetch_cycle {
                    fetch_cycle = oldest;
                    fetched_this_cycle = 0;
                }
            }
            let fires = op
                .pred
                .iter()
                .all(|&(v, s)| (frame.regs[v.0 as usize] != 0) == s);
            let mut ready_at = f;
            for u in op.uses() {
                ready_at = ready_at.max(frame.ready[u.0 as usize]);
            }
            let done = if !fires {
                ready_at + 1
            } else {
                match &op.kind {
                    OpKind::Const { dst, value } => {
                        frame.regs[dst.0 as usize] = *value as u64;
                        frame.ready[dst.0 as usize] = f + 1;
                        f + 1
                    }
                    OpKind::ConstF { dst, value } => {
                        frame.regs[dst.0 as usize] = value.to_bits();
                        frame.ready[dst.0 as usize] = f + 1;
                        f + 1
                    }
                    OpKind::Un { dst, op: o, a } => {
                        let issue = unit_issue(
                            if o.class() == OpcodeClass::Float {
                                &mut fp_free
                            } else {
                                &mut int_free
                            },
                            ready_at,
                        );
                        let done = issue + u64::from(o.latency());
                        frame.regs[dst.0 as usize] =
                            value::eval(*o, 0, frame.regs[a.0 as usize], 0);
                        frame.ready[dst.0 as usize] = done;
                        done
                    }
                    OpKind::Bin { dst, op: o, a, b } => {
                        let issue = unit_issue(
                            if o.class() == OpcodeClass::Float {
                                &mut fp_free
                            } else {
                                &mut int_free
                            },
                            ready_at,
                        );
                        let done = issue + u64::from(o.latency());
                        frame.regs[dst.0 as usize] =
                            value::eval(*o, 0, frame.regs[a.0 as usize], frame.regs[b.0 as usize]);
                        frame.ready[dst.0 as usize] = done;
                        done
                    }
                    OpKind::Load {
                        dst,
                        addr,
                        offset,
                        size,
                    } => {
                        stats.loads += 1;
                        let ea = frame.regs[addr.0 as usize].wrapping_add(*offset as u64);
                        let line = ea & !63;
                        let dep = last_store_done.get(&line).copied().unwrap_or(0);
                        let issue = unit_issue(&mut mem_free, ready_at.max(dep));
                        let lat = cache_latency(&mut l1, &mut l2, &mut stats, cfg, ea, false);
                        let done = issue + u64::from(lat);
                        frame.regs[dst.0 as usize] = image.read(ea, size.bytes());
                        frame.ready[dst.0 as usize] = done;
                        done
                    }
                    OpKind::Store {
                        addr,
                        offset,
                        value: v,
                        size,
                    } => {
                        stats.stores += 1;
                        let ea = frame.regs[addr.0 as usize].wrapping_add(*offset as u64);
                        let issue = unit_issue(&mut mem_free, ready_at);
                        let lat = cache_latency(&mut l1, &mut l2, &mut stats, cfg, ea, true);
                        let done = issue + u64::from(lat);
                        image.write(ea, size.bytes(), frame.regs[v.0 as usize]);
                        last_store_done.insert(ea & !63, done);
                        done
                    }
                }
            };
            rob.push_back(done);
            last_cycle = last_cycle.max(done);
        }

        // Terminator.
        let f = fetch_op!();
        match &block.term {
            Terminator::Jump(b) => frame.bb = *b,
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                stats.branches += 1;
                let taken = frame.regs[cond.0 as usize] != 0;
                let resolve = frame.ready[cond.0 as usize].max(f) + 1;
                last_cycle = last_cycle.max(resolve);
                let pc = (frame.func.0 as u64) << 16 | frame.bb.0 as u64;
                if !bp.predict_and_update(pc, taken) {
                    stats.mispredicts += 1;
                    fetch_cycle = resolve + cfg.mispredict_penalty;
                    fetched_this_cycle = 0;
                } else if taken {
                    fetch_cycle += cfg.taken_branch_bubble;
                    fetched_this_cycle = 0;
                }
                frame.bb = if taken { *then_bb } else { *else_bb };
            }
            Terminator::Call {
                func: callee,
                args: call_args,
                dst,
                cont,
            } => {
                assert!(stack.len() < 4096, "call depth exceeded");
                let mut ready_at = f;
                let argv: Vec<u64> = call_args
                    .iter()
                    .map(|v| {
                        ready_at = ready_at.max(frame.ready[v.0 as usize]);
                        frame.regs[v.0 as usize]
                    })
                    .collect();
                fetch_cycle += cfg.taken_branch_bubble;
                fetched_this_cycle = 0;
                let mut callee_frame = new_frame(*callee, &argv, ready_at);
                callee_frame.ret_dst = dst.map(|d| d.0);
                callee_frame.ret_bb = *cont;
                stack.push(std::mem::replace(&mut frame, callee_frame));
            }
            Terminator::Ret(v) => {
                let rv = v.map(|v| frame.regs[v.0 as usize]);
                let rt = v.map_or(f, |v| frame.ready[v.0 as usize]);
                match stack.pop() {
                    Some(mut caller) => {
                        if let (Some(d), Some(val)) = (frame.ret_dst, rv) {
                            caller.regs[d as usize] = val;
                            caller.ready[d as usize] = rt.max(f);
                        }
                        caller.bb = frame.ret_bb;
                        frame = caller;
                    }
                    None => {
                        ret_value = rv;
                        last_cycle = last_cycle.max(rt);
                        break 'outer;
                    }
                }
            }
            Terminator::Halt => {
                ret_value = None;
                break 'outer;
            }
        }
    }

    BaselineResult {
        ret: ret_value,
        cycles: last_cycle.max(fetch_cycle),
        image,
        stats,
    }
}

fn cache_latency(
    l1: &mut CacheBank,
    l2: &mut CacheBank,
    stats: &mut BaselineStats,
    cfg: &BaselineConfig,
    addr: u64,
    write: bool,
) -> u32 {
    if l1.access(addr, write).is_hit() {
        cfg.l1_latency
    } else {
        stats.l1_misses += 1;
        if l2.access(addr, write).is_hit() {
            cfg.l1_latency + cfg.l2_latency
        } else {
            stats.l2_misses += 1;
            cfg.l1_latency + cfg.l2_latency + cfg.dram_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clp_compiler::{interpret, FunctionBuilder, ProgramBuilder};
    use clp_isa::Opcode;

    fn sum_program() -> Program {
        let mut f = FunctionBuilder::new("sum", 2);
        let base = f.param(0);
        let n = f.param(1);
        let i = f.c(0);
        let acc = f.c(0);
        let (h, b, x) = (f.new_block(), f.new_block(), f.new_block());
        f.jump(h);
        f.switch_to(h);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, b, x);
        f.switch_to(b);
        let three = f.c(3);
        let off = f.bin(Opcode::Shl, i, three);
        let a = f.bin(Opcode::Add, base, off);
        let v = f.load(a, 0);
        f.bin_into(acc, Opcode::Add, acc, v);
        let one = f.c(1);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(h);
        f.switch_to(x);
        f.ret(Some(acc));
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        pb.finish(id)
    }

    #[test]
    fn matches_interpreter_functionally() {
        let p = sum_program();
        let data: Vec<u64> = (1..=30).collect();
        let init = vec![(0x1000u64, data)];
        let mut gimage = MemoryImage::new();
        gimage.load_words(0x1000, &(1..=30).collect::<Vec<u64>>());
        let g = interpret(&p, &[0x1000, 30], &mut gimage, 1_000_000).unwrap();
        let r = run_baseline(&p, &[0x1000, 30], &init, &BaselineConfig::core2());
        assert_eq!(r.ret, g.ret);
        assert!(r.cycles > 30, "cycles {}", r.cycles);
        assert_eq!(r.stats.loads, 30);
        assert!(r.stats.branches >= 31);
    }

    #[test]
    fn wider_machine_is_faster() {
        let p = sum_program();
        let data: Vec<u64> = (1..=200).collect();
        let init = vec![(0x1000u64, data)];
        let narrow = BaselineConfig {
            fetch_width: 1,
            int_units: 1,
            mem_ports: 1,
            ..BaselineConfig::core2()
        };
        let r1 = run_baseline(&p, &[0x1000, 200], &init, &narrow);
        let r4 = run_baseline(&p, &[0x1000, 200], &init, &BaselineConfig::core2());
        assert!(
            r4.cycles < r1.cycles,
            "4-wide {} vs 1-wide {}",
            r4.cycles,
            r1.cycles
        );
    }

    #[test]
    fn branch_predictor_learns_loop() {
        let p = sum_program();
        let data: Vec<u64> = (1..=100).collect();
        let init = vec![(0x1000u64, data)];
        let r = run_baseline(&p, &[0x1000, 100], &init, &BaselineConfig::core2());
        // The back edge is near-perfectly predicted after warmup.
        assert!(
            r.stats.mispredicts < r.stats.branches / 5,
            "{} mispredicts / {} branches",
            r.stats.mispredicts,
            r.stats.branches
        );
    }

    #[test]
    fn recursion_works() {
        let mut pb = ProgramBuilder::new();
        let fact = pb.declare();
        let mut f = FunctionBuilder::new("fact", 1);
        let n = f.param(0);
        let one = f.c(1);
        let base = f.bin(Opcode::Tle, n, one);
        let (b, r, cont) = (f.new_block(), f.new_block(), f.new_block());
        f.branch(base, b, r);
        f.switch_to(b);
        f.ret(Some(one));
        f.switch_to(r);
        let nm1 = f.bin(Opcode::Sub, n, one);
        let sub = f.vreg();
        f.call(fact, &[nm1], Some(sub), cont);
        f.switch_to(cont);
        let out = f.bin(Opcode::Mul, n, sub);
        f.ret(Some(out));
        pb.set_function(fact, f.finish());
        let p = pb.finish(fact);
        let r = run_baseline(&p, &[7], &[], &BaselineConfig::core2());
        assert_eq!(r.ret, Some(5040));
    }

    #[test]
    fn caches_affect_timing() {
        // A pointer chase over a large region should be much slower than
        // a small one per access.
        let mut f = FunctionBuilder::new("chase", 2);
        let head = f.param(0);
        let n = f.param(1);
        let cur = f.vreg();
        f.assign(cur, head);
        let i = f.c(0);
        let (h, b, x) = (f.new_block(), f.new_block(), f.new_block());
        f.jump(h);
        f.switch_to(h);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, b, x);
        f.switch_to(b);
        let nx = f.load(cur, 0);
        f.assign(cur, nx);
        let one = f.c(1);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(h);
        f.switch_to(x);
        f.ret(Some(cur));
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        let p = pb.finish(id);

        // Small ring (fits L1) vs large stride ring (misses).
        let small: Vec<u64> = (0..8).map(|k| 0x1000 + ((k + 1) % 8) * 8).collect();
        let rs = run_baseline(
            &p,
            &[0x1000, 400],
            &[(0x1000, small)],
            &BaselineConfig::core2(),
        );
        let big_n = 4096u64;
        let big: Vec<u64> = (0..big_n)
            .map(|k| 0x1000 + (((k + 1) % big_n) * 1024) % (big_n * 8))
            .collect();
        // Build stride-1024 ring properly: node at k*128 words.
        let mut big2 = vec![0u64; (big_n as usize) * 128];
        for k in 0..big_n {
            let next = (k + 1) % big_n;
            big2[(k as usize) * 128] = 0x1000 + next * 1024;
        }
        let rb = run_baseline(
            &p,
            &[0x1000, 400],
            &[(0x1000, big2)],
            &BaselineConfig::core2(),
        );
        let _ = big;
        assert!(
            rb.cycles > rs.cycles * 3,
            "missy chase {} vs hitty {}",
            rb.cycles,
            rs.cycles
        );
        assert!(rb.stats.l1_misses > 300);
    }
}
