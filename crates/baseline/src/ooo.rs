//! The out-of-order timing model.

use clp_compiler::interp::{interpret_with, Step};
use clp_compiler::ir::{OpKind, Terminator, VReg};
use clp_compiler::Program;
use clp_isa::OpcodeClass;
use clp_mem::{CacheBank, CacheGeometry, MemoryImage};
use std::collections::VecDeque;

// Conventional-core parameters (a Core2-Duo-class machine).

/// Instructions fetched/renamed per cycle.
const FETCH_WIDTH: usize = 4;
/// Instruction-window (ROB) entries.
const WINDOW: usize = 96;
/// Integer ALUs.
const INT_UNITS: usize = 3;
/// Floating-point units.
const FP_UNITS: usize = 1;
/// Cache ports (loads/stores issued per cycle).
const MEM_PORTS: usize = 2;
/// L1 data cache size in bytes.
const L1_BYTES: usize = 32 * 1024;
/// L1 hit latency.
const L1_LATENCY: u32 = 3;
/// Unified L2 hit latency.
const L2_LATENCY: u32 = 14;
/// L2 size in bytes.
const L2_BYTES: usize = 2 * 1024 * 1024;
/// Main-memory latency.
const DRAM_LATENCY: u32 = 150;
/// log2 of gshare table entries.
const GSHARE_BITS: u32 = 12;
/// Cycles from mispredicted-branch resolution to useful fetch.
const MISPREDICT_PENALTY: u64 = 12;
/// Fetch-group break on a correctly predicted taken branch (the
/// front-end redirect bubble of conventional pipelines).
const TAKEN_BRANCH_BUBBLE: u64 = 1;
/// Dynamic-operation budget: a run panics on its `MAX_OPS`-th op.
const MAX_OPS: u64 = 200_000_000;

/// The conventional core: the Core2-class constants above.
///
/// Fig. 5 compares against one machine, so the type has no fields. It
/// only keeps `benchmark/` compiling (`BaselineConfig::core2()` passed
/// to [`run_baseline`]) and is removed by the benchmark PR of ROADMAP
/// 1(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineConfig;

impl BaselineConfig {
    /// A Core2-Duo-class configuration.
    #[must_use]
    pub fn core2() -> Self {
        BaselineConfig
    }
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

/// A call's operand-ready times: when each of its vregs' value is ready.
struct Frame {
    ready: Vec<u64>,
    /// The caller's vreg the return value lands in.
    ret_dst: Option<VReg>,
}

/// Runs `program` on the conventional out-of-order model.
///
/// The reference interpreter executes the program; this model times
/// each step it reports, so values, addresses, branch outcomes, the
/// return value and the final image are the interpreter's.
///
/// # Panics
///
/// Panics if the interpreter stops the program at the dynamic-operation
/// budget or its call-depth bound (a workload bug).
#[must_use]
pub fn run_baseline(
    program: &Program,
    args: &[u64],
    init_mem: &[(u64, Vec<u64>)],
    _: &BaselineConfig,
) -> BaselineResult {
    let mut image = MemoryImage::new();
    for (addr, words) in init_mem {
        image.load_words(*addr, words);
    }
    let mut l1 = CacheBank::new(CacheGeometry {
        bytes: L1_BYTES,
        line_bytes: 64,
        ways: 4,
    });
    let mut l2 = CacheBank::new(CacheGeometry {
        bytes: L2_BYTES,
        line_bytes: 64,
        ways: 8,
    });
    let mut bp = Gshare::new(GSHARE_BITS);

    // Timing state.
    let mut fetch_cycle: u64 = 1;
    let mut fetched_this_cycle = 0usize;
    let mut rob: VecDeque<u64> = VecDeque::new(); // completion times, window-bounded
    let mut int_free = vec![0u64; INT_UNITS];
    let mut fp_free = vec![0u64; FP_UNITS];
    let mut mem_free = vec![0u64; MEM_PORTS];
    // Conservative memory ordering: last store completion per line.
    // Read and written by key only, so hash order cannot reach a cycle.
    #[allow(clippy::disallowed_types)]
    let mut last_store_done: std::collections::HashMap<u64, u64> = Default::default();
    let mut last_cycle: u64 = 1;

    let mut stack: Vec<Frame> = Vec::new();
    let mut frame = Frame {
        ready: vec![0; program.function(program.entry).n_vregs as usize],
        ret_dst: None,
    };

    macro_rules! fetch_op {
        () => {{
            if fetched_this_cycle >= FETCH_WIDTH {
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

    let time = |step: Step<'_>| match step {
        Step::Op { op, fired, addr } => {
            let f = fetch_op!();
            // Window constraint: the oldest must have completed.
            if rob.len() >= WINDOW {
                let oldest = rob.pop_front().expect("nonempty");
                if oldest > fetch_cycle {
                    fetch_cycle = oldest;
                    fetched_this_cycle = 0;
                }
            }
            let mut ready_at = f;
            for u in op.uses() {
                ready_at = ready_at.max(frame.ready[u.0 as usize]);
            }
            let done = if !fired {
                ready_at + 1
            } else {
                match op.kind {
                    OpKind::Const { dst, .. } | OpKind::ConstF { dst, .. } => {
                        frame.ready[dst.0 as usize] = f + 1;
                        f + 1
                    }
                    OpKind::Un { dst, op: o, .. } | OpKind::Bin { dst, op: o, .. } => {
                        let units = if o.class() == OpcodeClass::Float {
                            &mut fp_free
                        } else {
                            &mut int_free
                        };
                        let done = unit_issue(units, ready_at) + u64::from(o.latency());
                        frame.ready[dst.0 as usize] = done;
                        done
                    }
                    OpKind::Load { dst, .. } => {
                        let ea = addr.expect("a fired load has an address");
                        let dep = last_store_done.get(&(ea & !63)).copied().unwrap_or(0);
                        let issue = unit_issue(&mut mem_free, ready_at.max(dep));
                        let lat = cache_latency(&mut l1, &mut l2, ea, false);
                        let done = issue + u64::from(lat);
                        frame.ready[dst.0 as usize] = done;
                        done
                    }
                    OpKind::Store { .. } => {
                        let ea = addr.expect("a fired store has an address");
                        let issue = unit_issue(&mut mem_free, ready_at);
                        let lat = cache_latency(&mut l1, &mut l2, ea, true);
                        let done = issue + u64::from(lat);
                        last_store_done.insert(ea & !63, done);
                        done
                    }
                }
            };
            rob.push_back(done);
            last_cycle = last_cycle.max(done);
        }
        Step::Term {
            func,
            bb,
            term,
            taken,
        } => {
            let f = fetch_op!();
            match term {
                Terminator::Jump(_) | Terminator::Halt => {}
                Terminator::Branch { cond, .. } => {
                    let resolve = frame.ready[cond.0 as usize].max(f) + 1;
                    last_cycle = last_cycle.max(resolve);
                    let pc = (func.0 as u64) << 16 | bb.0 as u64;
                    if !bp.predict_and_update(pc, taken) {
                        fetch_cycle = resolve + MISPREDICT_PENALTY;
                        fetched_this_cycle = 0;
                    } else if taken {
                        fetch_cycle += TAKEN_BRANCH_BUBBLE;
                        fetched_this_cycle = 0;
                    }
                }
                Terminator::Call {
                    func: callee,
                    args,
                    dst,
                    ..
                } => {
                    let ready_at = args.iter().fold(f, |r, v| r.max(frame.ready[v.0 as usize]));
                    fetch_cycle += TAKEN_BRANCH_BUBBLE;
                    fetched_this_cycle = 0;
                    let callee = program.function(*callee);
                    let mut ready = vec![0; callee.n_vregs as usize];
                    for p in callee.params.iter().take(callee.n_params.min(args.len())) {
                        ready[p.0 as usize] = ready_at;
                    }
                    let callee_frame = Frame {
                        ready,
                        ret_dst: *dst,
                    };
                    stack.push(std::mem::replace(&mut frame, callee_frame));
                }
                Terminator::Ret(v) => {
                    let rt = v.map_or(f, |v| frame.ready[v.0 as usize]);
                    match stack.pop() {
                        Some(mut caller) => {
                            if let (Some(d), Some(_)) = (frame.ret_dst, v) {
                                caller.ready[d.0 as usize] = rt.max(f);
                            }
                            frame = caller;
                        }
                        None => last_cycle = last_cycle.max(rt),
                    }
                }
            }
        }
    };
    let run = interpret_with(program, args, &mut image, MAX_OPS - 1, time)
        .unwrap_or_else(|e| panic!("baseline run: {e}"));
    BaselineResult {
        ret: run.ret,
        cycles: last_cycle.max(fetch_cycle),
        image,
    }
}

fn cache_latency(l1: &mut CacheBank, l2: &mut CacheBank, addr: u64, write: bool) -> u32 {
    if l1.access(addr, write).is_hit() {
        L1_LATENCY
    } else if l2.access(addr, write).is_hit() {
        L1_LATENCY + L2_LATENCY
    } else {
        L1_LATENCY + L2_LATENCY + DRAM_LATENCY
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
    }

    #[test]
    fn branch_predictor_learns_loop() {
        // One loop branch, taken eight times and then not, fifty times
        // over: after warm-up the history predicts the exit as well as
        // the back edge.
        let mut bp = Gshare::new(GSHARE_BITS);
        let trip = [true, true, true, true, true, true, true, true, false];
        let missed: Vec<usize> = (0..50)
            .map(|_| {
                let hits = trip.iter().filter(|&&t| bp.predict_and_update(1, t));
                trip.len() - hits.count()
            })
            .collect();
        assert!(missed[0] > 0, "a cold table mispredicts");
        assert!(
            missed[10..].iter().all(|&m| m == 0),
            "misses per trip {missed:?}"
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
        // Stride-1024 ring: node at k*128 words.
        let big_n = 4096u64;
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
        assert!(
            rb.cycles > rs.cycles * 3,
            "missy chase {} vs hitty {}",
            rb.cycles,
            rs.cycles
        );
    }
}
