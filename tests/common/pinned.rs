//! The committed value of a fault-free suite cell, for the tests that
//! hold a run to it or derive a scenario's threshold from it (a deadline
//! at half a cell's cycles, say). `BENCH_baseline.json` holds the TFlex
//! cells at 1–16 cores and `goldens/suite_wide.json` the 32-core, TRIPS
//! and OoO cells; `tests/goldens.rs`'s `regenerate_suite_goldens` writes
//! both from its one suite measurement, so a re-baseline edits those
//! files and no test constant.
//!
//! The files are compiled in, so a value read here must stay out of
//! what a `regenerate_*` test writes: that run may rewrite the file
//! after this copy of it was compiled. Exact values a test asserts of
//! a run are `tests/common/golden.rs`'s, read when the check runs.
//!
//! Included by path (`#[path = ".../tests/common/pinned.rs"] mod
//! pinned;`) from each test crate that reads it.

#![allow(dead_code)] // each test binary uses a different subset of it

use serde_json::Value;

/// The committed cycles of `workload`'s `config` cell: `tflex-N`,
/// `trips` or `ooo`.
pub fn cycles(workload: &str, config: &str) -> u64 {
    let cell = cell(workload, config);
    cell["cycles"].as_u64().expect("a cycle count")
}

/// The committed return value of `workload`'s `tflex-32`, `trips` or
/// `ooo` cell.
pub fn ret(workload: &str, config: &str) -> u64 {
    let cell = cell(workload, config);
    cell["ret"].as_u64().expect("a return value")
}

fn cell(workload: &str, config: &str) -> Value {
    let parse = |n: &str| n.parse::<u64>().expect("tflex-N");
    let cores = config.strip_prefix("tflex-").map(parse);
    let cores = cores.filter(|&n| n <= 16);
    let text = match cores {
        Some(_) => include_str!("../../BENCH_baseline.json"),
        None => include_str!("../../goldens/suite_wide.json"),
    };
    let doc = serde_json::from_str(text).expect("a committed golden parses");
    let rows = doc["workloads"].as_array().expect("a workloads array");
    let row = rows.iter().find(|r| r["name"].as_str() == Some(workload));
    let row = row.unwrap_or_else(|| panic!("no committed row for {workload}"));
    let cell = match cores {
        Some(n) => {
            let mut runs = row["runs"].as_array().expect("a runs array").iter();
            runs.find(|r| r["cores"].as_u64() == Some(n))
        }
        None => Some(&row[config]),
    };
    cell.cloned()
        .unwrap_or_else(|| panic!("no committed {config} cell for {workload}"))
}
