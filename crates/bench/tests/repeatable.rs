//! The repeatability matrix: every run here goes **twice** through the
//! one driver (`Machine::run`) with clp-prof and clp-trend on, and the
//! two runs must agree on cycles, return value, the snapshot / clp-prof
//! / clp-trend strings — or on the typed failure. Two runs in one
//! process do see `HashMap`-order and address-dependent nondeterminism,
//! which a pinned value taken from a single run cannot tell from a
//! legitimate move.
//!
//! What runs:
//!
//! * the perturbed matrix — 7 kernels × {1, 4, 16} cores under each
//!   fault kind alone, all of them together, a mid-run core kill and a
//!   half-run deadline (a debug build runs two of the kernels at 4
//!   cores, which still meet every one of them; `--release` runs the
//!   whole matrix);
//! * a proptest-style loop over seeded generated programs — random op
//!   mixes, loop trip counts, data-dependent branches, and store
//!   patterns from a hand-rolled LCG — at five sizes, so the claim does
//!   not rest on the curated suite alone. Failures print the seed,
//!   which reproduces the program deterministically.
//!
//! The clean suite is not repeated here: `tests/goldens.rs` pins it
//! cell by cell in `BENCH_baseline.json`, `BOUND_baseline.json` and
//! `goldens/suite_wide.json`, beside `tests/{trend,wide_goldens}.rs`.

use clp_compiler::{FunctionBuilder, ProgramBuilder, VReg};
use clp_core::{
    compile_workload, run_compiled, run_compiled_observed, CompiledWorkload, FaultPlan, ObsOptions,
    ProcessorConfig, RunFailure, RunOutcome, ALL_FAULT_KINDS,
};
use clp_isa::Opcode;
use clp_obs::TrendOptions;
use clp_sim::RunError;
use clp_workloads::{CheckSpec, IlpClass, Workload, WorkloadClass};

const SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// Renders every report of a run as comparable strings (`serde_json`
/// output is field-ordered, so equal strings mean equal reports).
fn reports(r: &RunOutcome) -> [(&'static str, String); 3] {
    let profile = r
        .profile
        .as_ref()
        .map(|p| serde_json::to_string(&p.to_json_value()).expect("serializes"))
        .unwrap_or_default();
    let trend = r.trend.as_ref().map(|t| t.to_json()).unwrap_or_default();
    [
        (
            "snapshot",
            serde_json::to_string(&r.snapshot).expect("serializes"),
        ),
        ("clp-prof", profile),
        ("clp-trend", trend),
    ]
}

/// Runs `cw` under `cfg` twice with full observability and asserts the
/// runs agree — the same verified cycles, return value and reports, or
/// the same typed failure — then returns that shared result.
fn assert_repeatable(
    cw: &CompiledWorkload,
    cfg: &ProcessorConfig,
    label: &str,
) -> Result<RunOutcome, RunFailure> {
    let obs = ObsOptions {
        profile: true,
        trend: Some(TrendOptions::default()),
        ..ObsOptions::default()
    };
    let [first, second] = [(); 2].map(|()| run_compiled_observed(cw, cfg, &obs));
    match (first, second) {
        (Ok(first), Ok(second)) => {
            assert_eq!(
                first.stats.cycles, second.stats.cycles,
                "{label}: cycle count diverged"
            );
            assert_eq!(first.ret, second.ret, "{label}: return value diverged");
            for ((what, want), (_, got)) in reports(&first).iter().zip(&reports(&second)) {
                assert_eq!(want, got, "{label}: {what} diverged");
            }
            Ok(first)
        }
        (Err(first), Err(second)) => {
            assert_eq!(
                first.to_string(),
                second.to_string(),
                "{label}: failure diverged"
            );
            Err(first)
        }
        (first, second) => panic!(
            "{label}: one run failed: first {:?}, second {:?}",
            first.map(|r| r.stats.cycles),
            second.map(|r| r.stats.cycles)
        ),
    }
}

/// Each fault kind alone (`noc_burst` draws every cycle; `dram_spike`
/// and `handoff_delay` are the only producers of far-future wheel
/// events), all kinds together, a mid-run core kill, and a deadline
/// both runs must report as the same `DeadlineExceeded`.
#[test]
fn perturbed_runs_repeat() {
    let (kernels, sizes): (&[&str], &[usize]) = if cfg!(debug_assertions) {
        (&["conv", "bezier"], &[4])
    } else {
        (
            &[
                "conv", "mcf", "equake", "a2time", "802.11b", "tblook", "bezier",
            ],
            &[1, 4, 16],
        )
    };
    let mut fired = [0u64; ALL_FAULT_KINDS.len()];
    for &name in kernels {
        let w = clp_workloads::suite::by_name(name).expect("exists");
        let cw = compile_workload(&w).expect("compiles");
        for &cores in sizes {
            let base = ProcessorConfig::tflex(cores);
            let half = run_compiled(&cw, &base).expect("clean run").stats.cycles / 2;
            for (k, kind) in ALL_FAULT_KINDS.into_iter().enumerate() {
                let plan = FaultPlan::only(kind, 0xE0, 150);
                let label = format!("{name} x{cores} under {kind}");
                let r = assert_repeatable(&cw, &base.clone().with_faults(plan), &label);
                fired[k] += r.expect("runs").stats.faults.count(kind);
            }
            let label = format!("{name} x{cores} under chaos");
            let chaos = base.clone().with_faults(FaultPlan::chaos(97, 100));
            assert_repeatable(&cw, &chaos, &label).expect("runs");
            if cores >= 4 {
                let mut plan = FaultPlan::none();
                plan.add_kill(1, half).expect("valid kill");
                let label = format!("{name} x{cores} killed");
                let r = assert_repeatable(&cw, &base.clone().with_faults(plan), &label);
                assert_eq!(r.expect("recovers").stats.recovery.cores_killed, 1);
            }
            let label = format!("{name} x{cores} deadline");
            match assert_repeatable(&cw, &base.with_deadline(half), &label) {
                Err(RunFailure::Run(RunError::DeadlineExceeded { budget })) => {
                    assert_eq!(budget, half);
                }
                other => panic!("{label}: expected a deadline kill, got {other:?}"),
            }
        }
    }
    for (kind, n) in ALL_FAULT_KINDS.iter().zip(fired) {
        assert!(n > 0, "{kind} never fired across the sweep");
    }
}

// ---- generated programs ----------------------------------------------

/// Deterministic split-free LCG; same constants as the workload suite's
/// data generator.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

const GEN_IN: u64 = 0x1_0000_0000;
const GEN_OUT: u64 = 0x1_0001_0000;

/// Builds a random-but-deterministic workload from `seed`: a loop over
/// an input array whose body chains 2–7 random ALU ops, optionally
/// forks on a data-dependent test (exercising predication and the
/// flush path when the predictor guesses wrong), and stores an
/// accumulator per element.
fn generated_workload(seed: u64) -> Workload {
    let mut rng = Lcg::new(seed);
    let n = 24 + rng.below(40) as usize;
    let ops = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Xor,
        Opcode::And,
        Opcode::Or,
    ];
    let chain = 2 + rng.below(6) as usize;
    let with_branch = rng.below(2) == 1;
    let op_picks: Vec<Opcode> = (0..chain)
        .map(|_| ops[rng.below(ops.len() as u64) as usize])
        .collect();

    let mut f = FunctionBuilder::new("gen", 2);
    let input = f.param(0);
    let out = f.param(1);
    let total = f.vreg();
    f.c_into(total, 0);
    let n_reg = f.c(n as i64);
    let i = f.c(0);
    let (head, body, exit) = (f.new_block(), f.new_block(), f.new_block());
    f.jump(head);
    f.switch_to(head);
    let done = f.bin(Opcode::Tge, i, n_reg);
    f.branch(done, exit, body);
    f.switch_to(body);
    let eight = f.c(8);
    let off = f.bin(Opcode::Mul, i, eight);
    let addr = f.bin(Opcode::Add, input, off);
    let x = f.load(addr, 0);
    let mut acc: VReg = x;
    for &op in &op_picks {
        let k = f.c((1 + rng.below(97)) as i64);
        acc = f.bin(op, acc, k);
    }
    if with_branch {
        // Data-dependent fork: odd elements take a different op chain,
        // so the next-block predictor is wrong on a pseudo-random
        // subset of iterations and both runs must agree on every
        // resulting flush.
        let one = f.c(1);
        let odd = f.bin(Opcode::And, x, one);
        let (odd_bb, even_bb, join) = (f.new_block(), f.new_block(), f.new_block());
        let merged = f.vreg();
        f.branch(odd, odd_bb, even_bb);
        f.switch_to(odd_bb);
        let t = f.bin(Opcode::Xor, acc, x);
        f.assign(merged, t);
        f.jump(join);
        f.switch_to(even_bb);
        let t = f.bin(Opcode::Add, acc, i);
        f.assign(merged, t);
        f.jump(join);
        f.switch_to(join);
        acc = merged;
    }
    let dst = f.bin(Opcode::Add, out, off);
    f.store(dst, 0, acc);
    let new_total = f.bin(Opcode::Add, total, acc);
    f.assign(total, new_total);
    let one = f.c(1);
    let next = f.bin(Opcode::Add, i, one);
    f.assign(i, next);
    f.jump(head);
    f.switch_to(exit);
    f.ret(Some(total));

    let mut pb = ProgramBuilder::new();
    let id = pb.add_function(f.finish());
    let words: Vec<u64> = (0..n + 1).map(|_| rng.below(1 << 20)).collect();
    Workload {
        name: Box::leak(format!("gen{seed}").into_boxed_str()),
        class: WorkloadClass::HandOptimized,
        ilp: IlpClass::Low,
        program: pb.finish(id),
        args: vec![GEN_IN, GEN_OUT],
        init_mem: vec![(GEN_IN, words)],
        check: CheckSpec {
            check_ret: true,
            regions: vec![(GEN_OUT, n)],
        },
    }
}

/// Generated programs, every size, both runs' reports equal. Ten seeds
/// keep the runtime modest; any seed reproduces its program exactly.
#[test]
fn generated_programs_repeat() {
    for seed in 0..10u64 {
        let w = generated_workload(seed);
        let cw =
            compile_workload(&w).unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}"));
        for &n in &SIZES {
            let label = format!("{} x{n}", w.name);
            assert_repeatable(&cw, &ProcessorConfig::tflex(n), &label).expect("runs");
        }
    }
}
