//! clp-diff: what moved between two JSON documents.
//!
//! ```sh
//! cargo run --release -p clp-bench --bin clp-diff -- before.json after.json
//! cargo run --release -p clp-bench --bin clp-diff -- BENCH_baseline.json BENCH_suite.json --top 5
//! ```
//!
//! Takes any two JSON files — a stats-registry snapshot (`run_one
//! --stats-json`), `clp-prof-v1` (`clp-prof --json`), `clp-bench-v1`
//! (`clp-bench`), `clp-trend-v1` (`clp-trend --json`), `clp-scope-v1`
//! and `clp-serve-v1` (`clp-serve --scope-json` / `--json`),
//! `clp-bound-v1` (`clp-bound --json`), a lint report (`clp-lint
//! --json`) — and walks both trees with one schema-blind walker
//! (`clp_obs::diff`): every leaf gets a path (`workloads[name=conv]/
//! runs[cores=4]/cycles`), the integer leaves that moved are ranked by
//! |delta| under `buckets`, `cores`, `links` and `metrics` headings,
//! and leaves that differ otherwise (floats, strings, a changed type)
//! are listed after them. The first file is the baseline. This is the
//! same report a failed `--check` of `clp-bench`, `clp-bound` or
//! `clp-serve` prints.
//!
//! `--top N` bounds each section (default 10; 0 means unbounded).
//! Exit codes: 0 = compared (even if everything moved), 2 = usage or
//! parse error.

use clp_core::cli::{or_die, read_json, Flag, Spec};
use clp_obs::diff_documents;

#[rustfmt::skip]
const SPEC: Spec = Spec {
    prog: "clp-diff",
    about: "Ranks the leaves that moved between two JSON documents, by path.",
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
    let report = diff_documents(&read_json(before_path), &read_json(after_path));
    println!("{before_path} vs {after_path}");
    print!("{}", report.render(top));
}
