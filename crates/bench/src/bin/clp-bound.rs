//! clp-bound: static per-block cycle/resource lower bounds, checked
//! against the simulator.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-bound -- conv 16
//! cargo run --release -p clp-bench --bin clp-bound -- --suite --json
//! cargo run --release -p clp-bench --bin clp-bound -- --suite --check BOUND_baseline.json
//! ```
//!
//! For each workload and composition size, computes the clp-lint static
//! cycle bound ([`clp_lint::bound_program`]), runs the simulator with
//! profiling, and reports the bound beside the measured cycles with the
//! tightness ratio `measured / bound`. Every invocation *enforces
//! soundness*: the program bound must not exceed the measured cycles,
//! and no per-block bound may exceed the shortest fetch-to-commit span
//! the profiler observed for that block — any violation is printed and
//! the process exits 1.
//!
//! `--json` emits the pinned `clp-bound-v1` schema; `--check FILE`
//! holds that document to a committed golden with the one equality gate
//! (`clp_obs::check_golden`; on a miss the moved leaves are printed and
//! the tool exits 1); `--cores A,B,..` overrides the default 1,2,4,8,16
//! sweep. The `curves` section is the analytic speedup sketch
//! `bound(1)/bound(n)` exported through
//! [`clp_alloc::SpeedupCurve::analytic`].

use clp_bench::matrix::{Cell, SuiteMatrix, BENCH_SIZES};
use clp_core::cli::{check_golden, or_die, Flag, Spec, SUITE};

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "clp-bound",
    about: "Static per-block cycle/resource lower bounds, checked against the simulator.",
    positionals: &["[WORKLOAD]", "[CORES]"],
    flags: &[
        SUITE,
        Flag::switch("--json", "emit the clp-bound-v1 document instead of tables"),
        Flag::value("--check", "GOLDEN", "exit 1 unless the clp-bound-v1 document equals GOLDEN"),
        Flag::value("--cores", "A,B,..", "composition sizes to sweep (default 1,2,4,8,16)"),
    ],
    epilog: "",
};

/// Which program-level floor set the cell's bound.
fn floor(cell: &Cell) -> &'static str {
    let b = &cell.bound;
    if b.must_commit >= b.terminal && b.must_commit >= b.work_floor {
        "must-commit"
    } else if b.terminal >= b.work_floor {
        "terminal"
    } else {
        "work"
    }
}

fn main() {
    let args = SPEC.parse_env();
    let workloads = or_die(args.workloads());
    let mut sizes: Vec<usize> = match args.positional(1) {
        Some(_) => or_die(args.cores()).into_iter().collect(),
        None => or_die(args.nums("--cores", 1..)),
    };
    if sizes.is_empty() {
        sizes = BENCH_SIZES.to_vec();
    }
    let matrix = SuiteMatrix::measure(&workloads, &sizes);
    let text = serde_json::to_string_pretty(&matrix.bound_document()).expect("serializes");

    if args.switch("--json") {
        println!("{text}");
    } else {
        let mut last = "";
        for cell in &matrix.cells {
            if cell.workload != last {
                println!("== {} ==", cell.workload);
                println!(
                    "{:>6} {:>10} {:>10} {:>10}  floor",
                    "cores", "bound", "measured", "tightness"
                );
                last = cell.workload;
            }
            println!(
                "{:>6} {:>10} {:>10} {:>9.2}x  {}",
                cell.cores,
                cell.bound.cycles,
                cell.measured,
                cell.tightness(),
                floor(cell)
            );
        }
        for (name, curve) in &matrix.curves {
            let samples: Vec<String> = curve
                .speedup
                .iter()
                .map(|(c, s)| format!("{c}:{s:.2}"))
                .collect();
            println!("analytic speedup sketch {name}: {}", samples.join(" "));
        }
    }

    for v in &matrix.violations {
        eprintln!("clp-bound: SOUNDNESS VIOLATION: {v}");
    }
    // An unsound bound exits 1 on its own; the golden gate does too.
    if let Some(path) = &args.text("--check") {
        check_golden(path, &text);
    }
    if !matrix.violations.is_empty() {
        std::process::exit(1);
    }
}
