//! The text parsers that take outside input never panic: whatever the
//! assembler (`asm::parse_program`, `asm::parse_block`), the fault-spec
//! parsers (`FaultPlan::parse`, `CoreKill::parse`) or the flag parser
//! (`cli::Spec::parse` and its lookups, clp-serve's job flags among them)
//! are handed, the result is `Ok` or a typed `Err` whose message renders.
//!
//! Inputs are token soup drawn from a fixed list, as `clp_core::cli`'s
//! `no_argv_panics_against_any_table` draws argv, and one-token mutations
//! of what `format_block` / `format_program` print for suite kernels.

use clp::compiler::{compile, CompileOptions};
use clp::core::cli::{CliError, Flag, Spec, SUITE};
use clp::isa::asm::{format_program, parse_block, parse_program};
use clp::sim::{CoreKill, FaultPlan};
use clp::workloads::suite;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Assembly tokens: every keyword and operand form of the format, at and
/// past each range's edges, plus the separators the parser splits on.
/// [`tokens`] adds the empty token and a line break.
const ASM_TOKENS: &str = "block @0x1000 @0x @zz @18446744073709551615 @0x10000000000000000 \
    { } entry i0: i1: i2: i127: i128: : i: read write add tlt ld st mov movi addi null bro br \
    call ret seq halt p_t p_f r0 r127 r128 r-1 r #0 #-1 #99999999999999999999 # ls0 ls31 ls32 \
    ls e0 e7 e8 e255 e256 e -> i0.L i1.R i2.P i127.L i128.L i0.X i0 .L ;";

/// Fault-spec tokens: every kind label, `all`/`none`, rates at and past
/// `0..=1000`, core ids and cycles at and past their types' edges.
/// [`tokens`] adds the empty token and a space.
const FAULT_TOKENS: &str = "all none noc_delay noc_burst forced_nack mispredict dram_spike \
    handoff_delay bogus = , @ 0 25 1000 1001 65535 65536 -1 18446744073709551615 \
    18446744073709551616 0x10";

/// Argv tokens: every flag of [`JOB_FLAGS`] and an unknown one, `--` and
/// a lone `-`, a workload name, and values clp-serve's job flags must
/// refuse or take: zero, negative, 2^64, comma lists, and `A@B` pairs
/// with a side missing or not a number. [`tokens`] adds the empty token
/// and a blank one.
const ARGV_TOKENS: &str = "--jobs --workers --plant-panic --kill-core --names --bench --suite \
    --cores --help --zzz -- - conv nope 0 1 7 -1 18446744073709551616 1,2,,3 3@ @4 a@b 3@4 \
    2@18446744073709551616";

/// A job-flag table with every flag kind, shaped like clp-serve's: plain
/// values, repeated values (`JOB`, `JOB@CYCLE`, a name list), switches
/// and the `WORKLOAD [CORES] | --suite` selector.
const JOB_FLAGS: [Flag; 8] = [
    Flag::value("--jobs", "N", "jobs to generate"),
    Flag::value("--workers", "N", "worker slots"),
    Flag::repeated("--plant-panic", "JOB", "job whose first attempt panics"),
    Flag::repeated(
        "--kill-core",
        "JOB@CYCLE",
        "job whose first attempt kills its core",
    ),
    Flag::repeated("--names", "A,B", "a list"),
    Flag::switch("--bench", "pin the schedule"),
    SUITE,
    Flag::value("--cores", "N", "composition size"),
];

/// `list`'s tokens, then the empty token and `blank`.
fn tokens(list: &'static str, blank: &'static str) -> Vec<&'static str> {
    let mut out: Vec<&str> = list.split_whitespace().collect();
    out.extend(["", blank]);
    out
}

/// `format_program` text of a few suite kernels, one string each.
fn formatted() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        ["conv", "gzip", "mcf"]
            .iter()
            .map(|name| {
                let w = suite::by_name(name).expect("workload exists");
                let edge = compile(&w.program, &CompileOptions::default()).expect("compiles");
                format_program(&edge)
            })
            .collect()
    })
}

/// `picks` as a string of `tokens` joined by `sep`; a pick whose
/// `breaks` entry is set starts a new line instead.
fn soup(tokens: &[&str], picks: &[usize], breaks: &[bool], sep: &str) -> String {
    let mut out = String::new();
    for (k, &i) in picks.iter().enumerate() {
        if k > 0 {
            out.push_str(if breaks.get(k).copied().unwrap_or(false) {
                "\n"
            } else {
                sep
            });
        }
        out.push_str(tokens[i % tokens.len()]);
    }
    out
}

/// `text` with its `at`-th whitespace token (counted modulo the number
/// of tokens) replaced by `with`, or dropped when `with` is empty. Line
/// structure is kept.
fn mutate(text: &str, at: usize, with: &str) -> String {
    let total: usize = text.lines().map(|l| l.split_whitespace().count()).sum();
    let target = at % total.max(1);
    let mut seen = 0;
    let mut out = String::with_capacity(text.len() + with.len());
    for line in text.lines() {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let mut kept: Vec<&str> = Vec::with_capacity(toks.len());
        for t in toks {
            kept.push(if seen == target { with } else { t });
            seen += 1;
        }
        kept.retain(|t| !t.is_empty());
        out.push_str(&kept.join(" "));
        out.push('\n');
    }
    out
}

/// The block of `text` (a `format_program` string) that holds the
/// `at`-th line, header to closing brace.
fn block_around(text: &str, at: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let at = at % lines.len();
    let start = (0..=at).rev().find(|&i| lines[i].starts_with("block"));
    let Some(start) = start else {
        return lines[at].to_string();
    };
    let end = (start..lines.len())
        .find(|&i| lines[i].trim() == "}")
        .unwrap_or(lines.len() - 1);
    lines[start..=end].join("\n")
}

/// Parses `text` with both assemblers; each result renders.
fn assemble(text: &str) {
    if let Err(e) = parse_block(text) {
        let _ = e.to_string();
    }
    if let Err(e) = parse_program(text) {
        let _ = e.to_string();
    }
}

#[test]
fn the_formatted_kernels_parse_back() {
    for text in formatted() {
        let p = parse_program(text).expect("format_program output parses");
        assert_eq!(&format_program(&p), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn no_token_soup_panics_the_assembler(
        picks in proptest::collection::vec(0usize..100, 0..40),
        breaks in proptest::collection::vec(0u8..4, 40),
    ) {
        let breaks: Vec<bool> = breaks.iter().map(|&b| b == 0).collect();
        let body = soup(&tokens(ASM_TOKENS, "\n"), &picks, &breaks, " ");
        assemble(&body);
        // The same soup inside a well-formed frame reaches the
        // instruction parser and the block checks.
        assemble(&format!("block @0x1000 {{\n{body}\n}}\n"));
        assemble(&format!("entry @0x1000\n\nblock @0x1000 {{\n{body}\n}}\n"));
    }

    #[test]
    fn no_one_token_mutation_of_formatted_code_panics_the_assembler(
        kernel in 0usize..3,
        at in 0usize..1_000_000,
        with in 0usize..100,
    ) {
        let toks = tokens(ASM_TOKENS, "\n");
        let with = toks[with % toks.len()];
        let text = &formatted()[kernel];
        let program = mutate(text, at, with);
        assemble(&program);
        // One block of the same kernel, mutated at the same spot.
        let line = at % text.lines().count();
        let block = block_around(text, line);
        assemble(&mutate(&block, at, with));
    }

    #[test]
    fn no_token_soup_panics_fault_specs(
        picks in proptest::collection::vec(0usize..40, 0..12),
        seed in 0u64..u64::MAX,
    ) {
        let spec = soup(&tokens(FAULT_TOKENS, " "), &picks, &[], "");
        match FaultPlan::parse(&spec, seed) {
            Ok(plan) => prop_assert_eq!(plan.seed, seed),
            Err(msg) => prop_assert!(!msg.is_empty()),
        }
        match CoreKill::parse(&spec) {
            Ok(kill) => prop_assert_eq!(CoreKill::parse(&kill.to_string()), Ok(kill)),
            Err(msg) => prop_assert!(!msg.is_empty()),
        }
    }

    #[test]
    fn no_argv_soup_panics_the_flag_parser(
        picks in proptest::collection::vec(0usize..40, 0..10),
    ) {
        let tokens = tokens(ARGV_TOKENS, " ");
        let argv: Vec<String> = picks.iter().map(|&i| tokens[i % tokens.len()].into()).collect();
        let spec = Spec {
            prog: "clp-serve",
            about: "job flags",
            positionals: &["[WORKLOAD]", "[CORES]"],
            flags: &JOB_FLAGS,
            epilog: "",
        };
        let refused = |err: CliError| match err {
            CliError::Help(text) | CliError::Usage(text) => !text.is_empty(),
        };
        let args = match spec.parse(argv) {
            Ok(args) => args,
            Err(err) => {
                prop_assert!(refused(err));
                return Ok(());
            }
        };
        for flag in &JOB_FLAGS {
            let name = flag.name;
            prop_assert!(args.num::<u64>(name, 1..).map_or_else(refused, |_| true));
            prop_assert!(args.num::<i64>(name, ..).map_or_else(refused, |_| true));
            prop_assert!(args.nums::<usize>(name, ..).map_or_else(refused, |_| true));
            prop_assert!(args.pairs(name).map_or_else(refused, |_| true));
            prop_assert!(args.list(name).iter().all(|item| !item.is_empty()));
        }
        prop_assert!(args.cores().map_or_else(refused, |_| true));
        prop_assert!(args.workloads().map_or_else(refused, |w| !w.is_empty()));
    }
}
