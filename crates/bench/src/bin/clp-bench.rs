//! clp-bench: the suite's cycle matrix, and its golden gate.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-bench            # write BENCH_suite.json
//! cargo run --release -p clp-bench --bin clp-bench -- \
//!     --check BENCH_baseline.json                             # golden gate
//! ```
//!
//! Runs the built-in suite at 1/2/4/8/16 cores with the clp-prof layer
//! enabled (one `SuiteMatrix`, TRIPS and OoO cells included; a failed
//! cell exits 2) and emits `BENCH_suite.json` (pinned `clp-bench-v1`
//! schema: cycles, IPC, and the top-down cycle-accounting buckets per
//! cell) in the current directory. With `--check <golden>` the emitted document
//! must also equal the committed one — the simulator is deterministic,
//! so any difference in either direction, in any field, is a modeling
//! change and must re-baseline deliberately. The comparison is
//! `clp_obs::check_golden`, the one gate every golden goes through: on
//! a miss it prints the leaves that moved, cells and cycle-accounting
//! buckets ranked by |delta|, and the tool exits 1. (How far a cell
//! sits above its static floor is `clp-bound`'s report.) Re-baselining
//! is `cargo test -q --release -- --ignored regenerate`, which rewrites
//! `BENCH_baseline.json` with every other golden.
//!
//! Host wall-clock throughput is not measured here: that is
//! `clp-hostbench` under `benchmark/` (see its README for the noise
//! protocol).

use clp_bench::matrix::{SuiteMatrix, BENCH_SIZES};
use clp_core::cli::{check_golden, write_or_die, Flag, Spec};
use clp_workloads::suite;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "clp-bench",
    about: "Measures the suite at 1/2/4/8/16 cores (clp-bench-v1) and holds it to a golden.",
    positionals: &[],
    flags: &[
        Flag::value("--out", "PATH", "write the measured suite here (default BENCH_suite.json)"),
        Flag::value("--check", "GOLDEN", "exit 1 unless the measured suite equals GOLDEN"),
    ],
    epilog: "",
};

fn main() {
    let args = SPEC.parse_env();
    let out = args
        .text("--out")
        .unwrap_or_else(|| "BENCH_suite.json".into());
    let matrix = SuiteMatrix::measure(&suite::all(), &BENCH_SIZES).complete_or_die();
    let doc = matrix.bench_document(&BENCH_SIZES);
    let text = serde_json::to_string_pretty(&doc).expect("serializes");
    // Always emit the measured suite, also under --check, so a miss can
    // be taken apart with `clp-diff GOLDEN OUT`.
    write_or_die(&out, &text);
    println!(
        "clp-bench: wrote {} workloads x {:?} cores to {}",
        doc["workloads"].as_array().map_or(0, Vec::len),
        BENCH_SIZES,
        out
    );
    if let Some(golden) = &args.text("--check") {
        check_golden(golden, &text);
    }
}
