//! abtest — in-process A/B timing of `clp-sim`.
//!
//! `abtest SIZES REPS` holds two builds of the simulator: `clp_sim_base`
//! (crates/sim at a git revision, written out by `run.sh`) and `clp_sim`
//! (the working tree). It runs every kernel of `suite::all()` at each
//! composition size on both, REPS times. Within a rep the two sides
//! alternate which goes first from cell to cell, and each rep flips the
//! order, so drift in host speed lands on both sides alike. Every run
//! is verified against the interpreter's golden, and a cell's cycles
//! must be equal on both sides, or the tool exits 1.
//!
//! It prints two ratios of base time to working-tree time (above 1 is
//! a speedup): the sum of per-cell minima over the reps, and the median
//! of the per-rep totals' ratios. Timing two processes one after the
//! other reads host noise as a difference; one process alternating
//! cells resolves a few percent.

use clp_core::cli::{die, Spec};
use clp_core::{compile_workload, CompiledWorkload};
use clp_isa::Reg;
use std::time::{Duration, Instant};

const SPEC: Spec = Spec {
    prog: "abtest",
    about: "time crates/sim at a revision against the working tree's, in one process",
    positionals: &["SIZES", "REPS"],
    flags: &[],
    epilog: "SIZES is a comma list of composition sizes (1,2 is the narrow sweep, 16,32 the\n\
             wide one); REPS is how many times each kernel runs at each size on each side.\n\
             Run through tools/abtest/run.sh REV SIZES REPS, which writes the base side.",
};

/// Runs `cw` on `n` cores with the simulator crate `$sim`: the cycles
/// it took and the host time from machine construction to halt.
macro_rules! run_cell {
    ($sim:ident, $cw:expr, $n:expr) => {{
        let (cw, n): (&CompiledWorkload, usize) = ($cw, $n);
        let name = &cw.workload.name;
        let t = Instant::now();
        let mut m = $sim::Machine::new($sim::SimConfig::tflex());
        for (addr, words) in &cw.workload.init_mem {
            m.memory_mut().image.load_words(*addr, words);
        }
        let pid = m.compose(n, 0, cw.edge.clone(), &cw.workload.args);
        let pid = pid.unwrap_or_else(|e| die(format!("{name}@{n}: {e}")));
        let stats = m.run().unwrap_or_else(|e| die(format!("{name}@{n}: {e}")));
        let took = t.elapsed();
        let ret = m.register(pid, Reg::new(1));
        let verified = cw
            .workload
            .verify_against(&cw.golden, ret, &m.memory().image);
        if let Err(e) = verified {
            eprintln!(
                "abtest: {name}@{n} ({}): wrong outputs: {e:?}",
                stringify!($sim)
            );
            std::process::exit(1);
        }
        (stats.cycles, took)
    }};
}

/// Base time over working-tree time, and the same as a signed percent.
fn ratio(base: Duration, new: Duration) -> String {
    let r = base.as_secs_f64() / new.as_secs_f64();
    format!("{r:.3}x ({:+.1} %)", 100.0 * (r - 1.0))
}

fn main() {
    let args = SPEC.parse_env();
    let sizes: Vec<usize> = args
        .positional(0)
        .into_iter()
        .flat_map(|s| s.split(','))
        .map(|s| s.parse().unwrap_or_else(|_| die(format!("bad size `{s}`"))))
        .collect();
    let reps: usize = args
        .positional(1)
        .and_then(|r| r.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or_else(|| die("REPS wants a positive number"));

    let compiled: Vec<CompiledWorkload> = clp_workloads::suite::all()
        .iter()
        .map(|w| compile_workload(w).unwrap_or_else(|e| die(format!("{}: {e:?}", w.name))))
        .collect();
    let cells: Vec<(&CompiledWorkload, usize)> = compiled
        .iter()
        .flat_map(|cw| sizes.iter().map(move |&n| (cw, n)))
        .collect();

    // Per cell, each side's fastest run; per rep, each side's total.
    let mut best = vec![[Duration::MAX; 2]; cells.len()];
    let mut rep_ratios = Vec::with_capacity(reps);
    let mut cycles = 0;
    for rep in 0..reps {
        let mut total = [Duration::ZERO; 2];
        for (i, &(cw, n)) in cells.iter().enumerate() {
            let base_first = (i + rep) % 2 == 0;
            let mut took = [(0, Duration::ZERO); 2];
            for side in [!base_first, base_first].map(usize::from) {
                took[side] = if side == 0 {
                    run_cell!(clp_sim_base, cw, n)
                } else {
                    run_cell!(clp_sim, cw, n)
                };
            }
            if took[0].0 != took[1].0 {
                let name = &cw.workload.name;
                eprintln!(
                    "abtest: {name}@{n}: base ran {} cycles, the working tree {}",
                    took[0].0, took[1].0
                );
                std::process::exit(1);
            }
            if rep == 0 {
                cycles += took[0].0;
            }
            for side in 0..2 {
                total[side] += took[side].1;
                best[i][side] = best[i][side].min(took[side].1);
            }
        }
        rep_ratios.push(total[0].as_secs_f64() / total[1].as_secs_f64());
        println!(
            "rep {}: base {:.3} s, working tree {:.3} s: {}",
            rep + 1,
            total[0].as_secs_f64(),
            total[1].as_secs_f64(),
            ratio(total[0], total[1])
        );
    }
    let sum_min = |side: usize| best.iter().map(|b| b[side]).sum::<Duration>();
    let (base, new) = (sum_min(0), sum_min(1));
    rep_ratios.sort_by(f64::total_cmp);
    let mid = rep_ratios.len() / 2;
    let median = if rep_ratios.len() % 2 == 1 {
        rep_ratios[mid]
    } else {
        (rep_ratios[mid - 1] + rep_ratios[mid]) / 2.0
    };
    println!(
        "abtest: sizes {sizes:?} x {reps} reps, {} cells, {cycles} cycles per pass, equal on both sides",
        cells.len()
    );
    println!(
        "sum of per-cell minima: base {:.3} s, working tree {:.3} s: {}",
        base.as_secs_f64(),
        new.as_secs_f64(),
        ratio(base, new)
    );
    println!(
        "median per-rep ratio: {median:.3}x ({:+.1} %)",
        100.0 * (median - 1.0)
    );
}
