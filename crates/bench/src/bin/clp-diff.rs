//! clp-diff: structural comparison of two measurement documents.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-diff -- before.json after.json
//! cargo run --release -p clp-bench --bin clp-diff -- BENCH_baseline.json BENCH_suite.json --top 5
//! ```
//!
//! Both files must carry the same pinned schema — a stats-registry
//! snapshot (`run_one --stats-json`), a `clp-prof-v1` profile
//! (`clp-prof --json`), a `clp-bench-v1` matrix (`clp-bench`), or a
//! `clp-trend-v1` time series (`clp-trend --json`, single run). The
//! first file is the baseline; the report attributes the delta to the
//! cycle-accounting buckets, cores, NoC links, and counters that moved,
//! largest movers first.
//!
//! `--top N` bounds each section (default 10; 0 means unbounded).
//! Exit codes: 0 = compared (even if everything moved), 2 = usage or
//! parse error.

use clp_core::cli::{die, or_die, read_json, Flag, Spec};
use clp_obs::diff_documents;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "clp-diff",
    about: "Attributes the delta between two measurement documents of the same schema.",
    positionals: &["BEFORE.json", "AFTER.json"],
    flags: &[Flag::value("--top", "N", "rows per section (default 10; 0 means unbounded)")],
    epilog: "",
};

fn main() {
    let args = SPEC.parse_env();
    let top: usize = or_die(args.num("--top", ..)).unwrap_or(10);
    let [before_path, after_path] = args.positionals() else {
        unreachable!("the table requires two files");
    };
    let (before, after) = (read_json(before_path), read_json(after_path));
    let report = diff_documents(&before, &after).unwrap_or_else(|e| die(e));
    println!("{} vs {} ({})", before_path, after_path, report.kind);
    print!("{}", report.render(top));
}
