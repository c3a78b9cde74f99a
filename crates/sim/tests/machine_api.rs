//! API-level tests of the [`Machine`]: composition validation, register
//! initialization, address-space bases, and error reporting.

use clp_compiler::{compile, CompileOptions, FunctionBuilder, ProgramBuilder};
use clp_isa::{Opcode, Reg};
use clp_sim::{ComposeError, FaultPlan, Machine, ProcId, RunError, RunStats, SimConfig};
use clp_workloads::Workload;
use serde_json::{json, Value};

#[path = "../../../tests/common/golden.rs"]
mod golden;

fn tiny_program() -> clp_isa::EdgeProgram {
    let mut f = FunctionBuilder::new("t", 2);
    let a = f.param(0);
    let b = f.param(1);
    let s = f.bin(Opcode::Add, a, b);
    f.ret(Some(s));
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    compile(&pb.finish(id), &CompileOptions::default()).expect("compiles")
}

#[test]
fn compose_rejects_overlap_and_bad_sizes() {
    let mut m = Machine::new(SimConfig::tflex());
    let p = tiny_program();
    assert!(m.compose(3, 0, p.clone(), &[]).is_err(), "non power of two");
    assert!(m.compose(64, 0, p.clone(), &[]).is_err(), "too big");
    m.compose(16, 0, p.clone(), &[]).expect("first half");
    let err = m.compose(32, 0, p.clone(), &[]).unwrap_err();
    assert!(matches!(err, ComposeError::CoreBusy(_)), "{err}");
    // The second 16-core region is still free.
    m.compose(16, 1, p, &[]).expect("second half");
}

#[test]
#[should_panic(expected = "512-core chip is too big")]
fn a_chip_of_more_than_256_cores_is_refused_not_misrouted() {
    // Messages name a core in 8 bits: core 256 must not alias core 0.
    let mut cfg = SimConfig::tflex();
    cfg.operand_net.width = 32;
    cfg.operand_net.height = 16;
    let _ = Machine::new(cfg);
}

#[test]
fn arguments_arrive_in_r1_and_up() {
    let mut m = Machine::new(SimConfig::tflex());
    let pid = m.compose(2, 0, tiny_program(), &[40, 2]).unwrap();
    m.run().expect("runs");
    assert_eq!(m.register(pid, Reg::new(1)), 42);
    assert!(m.is_halted(pid));
}

#[test]
fn address_spaces_are_disjoint_per_processor() {
    let mut m = Machine::new(SimConfig::tflex());
    let a = m.compose(4, 0, tiny_program(), &[1, 1]).unwrap();
    let b = m.compose(4, 1, tiny_program(), &[2, 2]).unwrap();
    assert_ne!(m.addr_base(a), m.addr_base(b));
    m.run().expect("both run");
    assert_eq!(m.register(a, Reg::new(1)), 2);
    assert_eq!(m.register(b, Reg::new(1)), 4);
}

/// The cycle at which the lint suite's no-firing-exit block deadlocks on
/// `cores` cores. Its only exit is predicated on r1, so with r1 = 0 the
/// block never completes and nothing else is in flight. The cycle is the
/// last progress (the block's fetch and dispatch, which depend on the
/// composition) plus the deadlock window plus one; each run steps half a
/// million idle cycles.
fn deadlock_cycle(cores: usize) -> u64 {
    let text = "entry @0x1000
                block @0x1000 {
                  i0: read r1 -> i1.P
                  i1: p_t bro halt e0
                }";
    let edge = clp_isa::asm::parse_program(text).expect("parses");
    let mut m = Machine::new(SimConfig::tflex());
    m.compose(cores, 0, edge, &[0]).unwrap();
    match m.run() {
        Err(RunError::Deadlock { cycle }) => cycle,
        other => panic!("{cores} cores: expected a deadlock, got {other:?}"),
    }
}

/// The compositions [`deadlock_cycle`] is pinned at.
const DEADLOCK_SIZES: [usize; 3] = [1, 4, 32];

/// The `deadlock` section of `goldens/cells.json`: per composition, the
/// cycle [`deadlock_cycle`] reports.
fn deadlock_cells(sizes: &[usize]) -> Value {
    let cells = sizes
        .iter()
        .map(|&n| (format!("tflex-{n}"), json!((deadlock_cycle(n)))));
    Value::Object(cells.collect())
}

#[test]
fn a_block_whose_exit_never_fires_is_reported_as_a_deadlock() {
    // A debug build runs the 1-core composition only, `--release` runs
    // all three; each twice, to the same cycle.
    let sizes = if cfg!(debug_assertions) {
        &DEADLOCK_SIZES[..1]
    } else {
        &DEADLOCK_SIZES[..]
    };
    let committed = golden::cells("deadlock");
    for &cores in sizes {
        let want = committed[format!("tflex-{cores}").as_str()].as_u64();
        for run in 0..2 {
            let cycle = deadlock_cycle(cores);
            assert_eq!(
                Some(cycle),
                want,
                "{cores} cores, run {run}: the deadlock cycle moved; re-baseline with `{}` \
                 if intentional",
                golden::REGENERATE
            );
        }
    }
}

/// Not a check: rewrites this file's section of `goldens/cells.json`.
#[test]
#[ignore = "rewrites goldens/; run `cargo test -q --release -- --ignored regenerate`"]
fn regenerate_deadlock_cells() {
    golden::write_cells(vec![("deadlock", deadlock_cells(&DEADLOCK_SIZES))]);
}

#[test]
fn deadline_kill_is_typed() {
    // An infinite loop must hit its deadline, not hang.
    let mut f = FunctionBuilder::new("spin", 0);
    let h = f.new_block();
    f.jump(h);
    f.switch_to(h);
    let x = f.c(1);
    let y = f.c(0);
    let c = f.bin(Opcode::Tgt, x, y);
    let exit = f.new_block();
    f.branch(c, h, exit);
    f.switch_to(exit);
    f.ret(None);
    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let edge = compile(&pb.finish(id), &CompileOptions::default()).unwrap();

    let mut cfg = SimConfig::tflex();
    cfg.deadline = 700;
    let mut m = Machine::new(cfg);
    m.compose(2, 0, edge, &[]).unwrap();
    assert_eq!(m.run(), Err(RunError::DeadlineExceeded { budget: 700 }));
}

#[test]
fn generous_deadline_does_not_perturb_the_run() {
    // A deadline the job never reaches must be invisible: identical
    // result and identical cycle count.
    let run = |deadline: u64| {
        let mut cfg = SimConfig::tflex();
        cfg.deadline = deadline;
        let mut m = Machine::new(cfg);
        let pid = m.compose(2, 0, tiny_program(), &[40, 2]).unwrap();
        let stats = m.run().expect("runs");
        (m.register(pid, Reg::new(1)), stats.procs[0].cycles)
    };
    let (ret_a, cyc_a) = run(SimConfig::tflex().deadline);
    let (ret_b, cyc_b) = run(1_000_000);
    assert_eq!(ret_a, 42);
    assert_eq!((ret_a, cyc_a), (ret_b, cyc_b));
}

#[test]
fn a_deadline_that_is_not_raised_stops_the_run_again_where_it_stood() {
    let w = clp_workloads::suite::by_name("conv").expect("suite kernel");
    let (mut m, _) = composed(&w, 4, SimConfig::tflex(), false);
    m.set_deadline(700);
    assert_eq!(m.run(), Err(RunError::DeadlineExceeded { budget: 700 }));
    // Again, unmoved: the same kill, and not one more cycle.
    assert_eq!(m.run(), Err(RunError::DeadlineExceeded { budget: 700 }));
    assert_eq!(m.cycle(), 700);
    // Moved, but not past the cycle reached: killed at once, and the
    // error names the budget now in force.
    m.set_deadline(500);
    assert_eq!(m.run(), Err(RunError::DeadlineExceeded { budget: 500 }));
    assert_eq!(m.cycle(), 700);
}

/// Suite kernel `w` composed on `cores` cores of a machine at cycle 0.
fn composed(w: &Workload, cores: usize, cfg: SimConfig, profile: bool) -> (Machine, ProcId) {
    let edge = compile(&w.program, &CompileOptions::default()).expect("compiles");
    let mut m = Machine::new(cfg);
    if profile {
        m.enable_profiling();
    }
    for (addr, words) in &w.init_mem {
        m.memory_mut().image.load_words(*addr, words);
    }
    let pid = m.compose(cores, 0, edge, &w.args).expect("composes");
    (m, pid)
}

/// Everything two finished runs of `w` are compared on: the stats, the
/// whole stats registry, the return register, the words the golden
/// check reads (verified against the interpreter here) and, with
/// clp-prof on, its report.
fn finished(
    w: &Workload,
    m: &mut Machine,
    pid: ProcId,
    stats: RunStats,
) -> (RunStats, String, u64, Vec<u64>, Option<String>) {
    let ret = m.register(pid, Reg::new(1));
    let image = &m.memory().image;
    w.verify(ret, image).expect("outputs match the interpreter");
    let regions = w.check.regions.iter();
    let words = regions.flat_map(|&(base, len)| (0..len).map(move |k| base + 8 * k as u64));
    let words = words.map(|addr| image.read_u64(addr)).collect();
    let profile = m.profile_report().map(|p| p.to_json_value().to_string());
    (stats, m.snapshot().to_json(), ret, words, profile)
}

/// Runs `w` twice — killed at each deadline of `ladder` in turn and
/// continued under the next, and from cycle 0 under the deadline the
/// first run finished under — and requires the two to end identically.
/// Returns how many deadline kills the first run took.
fn continued_equals_from_zero(
    w: &Workload,
    cores: usize,
    faults: FaultPlan,
    profile: bool,
    ladder: impl IntoIterator<Item = u64>,
) -> usize {
    let cfg = SimConfig {
        faults,
        ..SimConfig::tflex()
    };
    let (mut m, pid) = composed(w, cores, cfg, profile);
    let mut kills = 0;
    let mut ladder = ladder.into_iter();
    let (stats, last) = loop {
        let deadline = ladder.next().expect("the ladder ends past the halt");
        m.set_deadline(deadline);
        match m.run() {
            Ok(stats) => break (stats, deadline),
            Err(RunError::DeadlineExceeded { budget }) => {
                assert_eq!((budget, m.cycle()), (deadline, budget));
                kills += 1;
            }
            Err(e) => panic!("{} on {cores}: {e}", w.name),
        }
    };
    let continued = finished(w, &mut m, pid, stats);

    let cfg = SimConfig {
        deadline: last,
        ..cfg
    };
    let (mut m, pid) = composed(w, cores, cfg, profile);
    let stats = m.run().expect("finishes under the last deadline");
    let from_zero = finished(w, &mut m, pid, stats);
    assert!(
        continued == from_zero,
        "{} on {cores} cores, {kills} kills: continued run differs from the from-zero run\n\
         continued {:?}\nfrom zero {:?}",
        w.name,
        continued.0,
        from_zero.0
    );
    kills
}

fn doubling(first: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(first), |b| Some(b * 2))
}

#[test]
fn a_run_continued_past_its_deadline_ends_like_the_from_zero_run() {
    // A debug build runs two of the kernels; `--release` runs all seven.
    let kernels: &[&str] = if cfg!(debug_assertions) {
        &["conv", "bezier"]
    } else {
        &["conv", "bezier", "autocor", "tblook", "gzip", "swim", "mcf"]
    };
    for &name in kernels {
        let w = clp_workloads::suite::by_name(name).expect("suite kernel");
        for cores in [1, 4, 16] {
            // clp-serve's ladder, plain; an odd one with clp-prof on.
            let kills =
                continued_equals_from_zero(&w, cores, FaultPlan::none(), false, doubling(2_500));
            assert!(kills >= 1, "{name} on {cores} never met a deadline");
            let odd = [777, 4_001, u64::MAX];
            let kills = continued_equals_from_zero(&w, cores, FaultPlan::none(), true, odd);
            assert!(kills >= 1, "{name} on {cores} never met a deadline");
        }
    }
}

#[test]
fn a_run_continued_under_the_same_fault_plan_ends_like_the_from_zero_run() {
    // The fault PRNG and the kill schedule live in the machine, so they
    // continue too. Deadlines every 500 cycles cut before the kill,
    // between kill and detection, inside the recovery and after it;
    // `run` re-validates the kills still pending on every call, here
    // with one core already gone and its processor recomposed.
    let mut chaos = FaultPlan::chaos(7, 50);
    chaos.add_kill(3, 2_000).expect("valid kill");
    let mut two_kills = FaultPlan::none();
    two_kills.add_kill(3, 4_000).expect("valid kill");
    two_kills.add_kill(5, 6_000).expect("valid kill");
    for (name, faults) in [("conv", chaos), ("tblook", two_kills)] {
        let w = clp_workloads::suite::by_name(name).expect("suite kernel");
        let every_500 = (1..).map(|k| 500 * k);
        let kills = continued_equals_from_zero(&w, 8, faults, true, every_500);
        assert!(kills > 12, "{name}: the ladder reaches past the last kill");
        continued_equals_from_zero(&w, 8, faults, false, doubling(2_500));
    }
}

#[test]
fn snapshot_is_informative() {
    let mut m = Machine::new(SimConfig::tflex());
    let _ = m.compose(2, 0, tiny_program(), &[1, 2]).unwrap();
    for _ in 0..3 {
        m.step();
    }
    let snap = m.debug_snapshot();
    assert!(snap.contains("proc0"), "{snap}");
    assert!(snap.contains("cycle"), "{snap}");
}

#[test]
fn error_types_render() {
    assert_eq!(
        RunError::DeadlineExceeded { budget: 7 }.to_string(),
        "deadline kill: exceeded cycle deadline of 7"
    );
    assert!(RunError::Deadlock { cycle: 3 }.to_string().contains("3"));
    assert!(ComposeError::CoreBusy(5).to_string().contains("5"));
    assert!(ComposeError::NotHalted(2).to_string().contains("2"));
}

#[test]
fn decomposing_a_running_processor_errs_and_changes_nothing() {
    let w = clp_workloads::suite::by_name("conv").expect("in the suite");
    let (mut whole, pid) = composed(&w, 4, SimConfig::tflex(), false);
    let want = whole.run().expect("runs");
    let (mut m, pid2) = composed(&w, 4, SimConfig::tflex(), false);
    assert_eq!(pid, pid2);
    for _ in 0..500 {
        m.step();
    }
    assert!(!m.is_halted(pid));
    assert_eq!(m.decompose(pid), Err(ComposeError::NotHalted(pid.0)));
    // The refused processor still owns its cores and runs on to the
    // cycle the undisturbed run halted at.
    assert!(
        m.compose(1, 0, tiny_program(), &[]).is_err(),
        "cores still busy"
    );
    let got = m.run().expect("runs on");
    assert_eq!(got.cycles, want.cycles);
    assert_eq!(
        finished(&w, &mut m, pid, got),
        finished(&w, &mut whole, pid, want)
    );
}

#[test]
fn stats_collected_even_for_multi_proc_runs() {
    let mut m = Machine::new(SimConfig::tflex());
    let _ = m.compose(8, 0, tiny_program(), &[3, 4]).unwrap();
    let _ = m.compose(8, 1, tiny_program(), &[5, 6]).unwrap();
    let stats = m.run().expect("runs");
    assert_eq!(stats.procs.len(), 2);
    for p in &stats.procs {
        assert!(p.blocks_committed >= 2, "start + body blocks commit");
        assert!(p.cycles > 0);
    }
}

#[test]
fn decompose_and_recompose_hand_data_over_coherently() {
    // Phase 1: one core computes and commits results.
    let producer = {
        let mut f = FunctionBuilder::new("produce", 1);
        let base = f.param(0);
        let n = f.c(16);
        let i = f.c(0);
        let (h, b, x) = (f.new_block(), f.new_block(), f.new_block());
        f.jump(h);
        f.switch_to(h);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, b, x);
        f.switch_to(b);
        let three = f.c(3);
        let off = f.bin(Opcode::Shl, i, three);
        let addr = f.bin(Opcode::Add, base, off);
        let sq = f.bin(Opcode::Mul, i, i);
        f.store(addr, 0, sq);
        let one = f.c(1);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(h);
        f.switch_to(x);
        f.ret(Some(i));
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        compile(&pb.finish(id), &CompileOptions::default()).unwrap()
    };
    // Phase 2: an 8-core composition over the SAME cores sums the data.
    let consumer = {
        let mut f = FunctionBuilder::new("consume", 1);
        let base = f.param(0);
        let n = f.c(16);
        let acc = f.c(0);
        let i = f.c(0);
        let (h, b, x) = (f.new_block(), f.new_block(), f.new_block());
        f.jump(h);
        f.switch_to(h);
        let c = f.bin(Opcode::Tlt, i, n);
        f.branch(c, b, x);
        f.switch_to(b);
        let three = f.c(3);
        let off = f.bin(Opcode::Shl, i, three);
        let addr = f.bin(Opcode::Add, base, off);
        let v = f.load(addr, 0);
        f.bin_into(acc, Opcode::Add, acc, v);
        let one = f.c(1);
        f.bin_into(i, Opcode::Add, i, one);
        f.jump(h);
        f.switch_to(x);
        f.ret(Some(acc));
        let mut pb = ProgramBuilder::new();
        let id = pb.add_function(f.finish());
        compile(&pb.finish(id), &CompileOptions::default()).unwrap()
    };

    let mut m = Machine::new(SimConfig::tflex());
    let p1 = m.compose(1, 0, producer, &[0x7000]).unwrap();
    m.run().expect("producer runs");
    let base = m.addr_base(p1);
    m.decompose(p1).expect("the producer halted");

    // Recompose the (overlapping) region at 8 cores in the same address
    // space; the new interleaving reads the old core's committed data
    // through the directory.
    let p2 = m
        .compose_at(8, 0, consumer, &[0x7000], base)
        .expect("recomposes over freed cores");
    m.run().expect("consumer runs");
    let want: u64 = (0..16u64).map(|i| i * i).sum();
    assert_eq!(m.register(p2, Reg::new(1)), want);
    let stats = m.memory().stats();
    assert!(
        stats.dirty_forwards + stats.invalidations > 0,
        "recomposition must exercise the coherence protocol"
    );
}
