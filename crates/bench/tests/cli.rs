//! Pins, on the built binaries, the exit codes wrappers rely on: 0 =
//! ran and verified, 1 = wrong output or an error lint, 2 = usage
//! error, 3 = the run itself failed, 4 = killed by the `--max-cycles`
//! deadline.
//!
//! It also holds what the binaries print to goldens under `goldens/`:
//! `run_one`'s summary, `[faults: …]` and `[recovery: …]` lines and a
//! trend run's stats snapshot, `clp-fig table1`, and (under `--release`)
//! the stdout of `clp-fig all` and `clp-fig fig_degraded` with a digest
//! of every JSON file they write.

use clp_obs::fnv1a64;
use serde_json::{json, Value};
use std::process::{Command, Output};

#[path = "../../../tests/common/golden.rs"]
mod golden;
#[path = "../../../tests/common/pinned.rs"]
mod pinned;

/// Where every binary runs: relative output paths land here, and clp-fig
/// writes under `target/clp-results/` here, which is also what its
/// stdout names.
const TMP: &str = env!("CARGO_TARGET_TMPDIR");

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(TMP)
        .env_remove("CARGO_TARGET_DIR")
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
    // before the static bound (which panics on it); the tool names the cell.
    let out = run(env!("CARGO_BIN_EXE_clp-bound"), &["conv", "--cores", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("clp-bound: conv [tflex-3]: compose"));

    // An unwritable --stats-json fails before the sweep, not after it.
    let out = run(
        env!("CARGO_BIN_EXE_clp-fig"),
        &["fig6", "--stats-json", "/nonexistent-dir/stats.json"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("clp-fig: cannot write `/nonexistent-dir/stats.json`"));
    assert!(out.stdout.is_empty(), "nothing ran");
}

/// A document nested 200 000 deep is a usage error naming the file, not
/// a stack overflow: the reader caps nesting at 128 levels.
#[test]
fn clp_diff_refuses_a_too_deep_document_with_exit_2() {
    std::fs::write(
        std::path::Path::new(TMP).join("deep.json"),
        "[".repeat(200_000),
    )
    .expect("writes");
    let out = run(env!("CARGO_BIN_EXE_clp-diff"), &["deep.json", "deep.json"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.starts_with("clp-diff: cannot parse `deep.json`") && err.contains("deeper than 128"),
        "{err}"
    );
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

/// `run_one` piped into a reader that closes after one line exits 0
/// without a panic.
#[test]
fn run_one_exits_quietly_when_its_reader_stops_early() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    // ~250 KB of phase table: far past what a pipe buffers, so run_one is
    // still writing when the reader goes (as with `| head -1`).
    let mut child = Command::new(env!("CARGO_BIN_EXE_run_one"))
        .args(["mcf", "1", "--phase-table", "--sample-every", "1"])
        .current_dir(TMP)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run_one starts");
    let mut first = String::new();
    let mut reader = BufReader::new(child.stdout.take().expect("piped"));
    reader.read_line(&mut first).expect("one line");
    assert!(first.starts_with("mcf on 1 cores: "), "{first}");
    drop(reader);
    let mut err = String::new();
    let mut stderr = child.stderr.take().expect("piped");
    stderr.read_to_string(&mut err).expect("stderr");
    let status = child.wait().expect("run_one ends");
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(status.code(), Some(0), "{err}");
}

/// `clp-lint --asm FILE` lints a program from outside the suite: a clean
/// one exits 0, an error lint exits 1 and names its code, and a branch to
/// a missing block is refused by the assembler (exit 2) before any lint
/// runs.
#[test]
fn clp_lint_lints_an_assembled_program_from_disk() {
    let exe = env!("CARGO_BIN_EXE_clp-lint");
    let lint = |name: &str, text: &str| {
        std::fs::write(std::path::Path::new(TMP).join(name), text).expect("writes");
        run(exe, &["--asm", name])
    };

    let out = lint(
        "clean.edge",
        "entry @0x1000\nblock @0x1000 {\n  i0: read r1 -> i1.L\n  i1: addi #1 -> i2.L\n  \
         i2: write r1\n  i3: bro halt e0\n}\n",
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "clean.edge: clean\n");

    // The store's predicate can be false, and then nothing resolves ls0.
    let out = lint(
        "unresolved.edge",
        "entry @0x1000\nblock @0x1000 {\n  i0: read r1 -> i2.P\n  i1: movi #256 -> i2.L -> i2.R\n  \
         i2: p_t st #0 ls0\n  i3: bro halt e0\n}\n",
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[L005]"));

    let out = lint(
        "dangling.edge",
        "entry @0x1000\nblock @0x1000 {\n  i0: bro br e0 @0x2000\n}\n",
    );
    assert_eq!(out.status.code(), Some(2));
    // A whole-program error names no source line.
    assert_eq!(
        stderr(&out),
        "clp-lint: dangling.edge: block 0x1000 branches to nonexistent 0x2000\n"
    );
    assert!(out.stdout.is_empty(), "nothing was linted");
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
    let intervals = pinned::cycles("conv", "tflex-4").div_ceil(500);
    let want = format!("{intervals} intervals x 500 cycles");
    assert!(stdout.contains(&want), "{stdout}");
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

fn table1_golden() -> (&'static str, String) {
    let out = run(env!("CARGO_BIN_EXE_clp-fig"), &["table1"]);
    assert_eq!(out.status.code(), Some(0));
    (
        "goldens/table1.txt",
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn clp_fig_table1_prints_the_configured_core() {
    let (file, fresh) = table1_golden();
    let want = clp_sim::table1_text(&clp_sim::SimConfig::tflex());
    assert!(fresh.starts_with(&want));
    golden::assert_golden(file, &fresh);
}

/// What `goldens/run_one.txt` holds, each followed there by its stdout:
/// every fault kind at three seeds and three sizes, two kinds at a high
/// rate, five hard-kill schedules, and a trend run whose stats snapshot
/// is `goldens/run_one_conv4.stats.json`.
const RUN_ONE: [&str; 17] = [
    "conv 4 --faults all=100 --fault-seed 1",
    "tblook 32 --faults all=100 --fault-seed 1",
    "bezier 1 --faults all=100 --fault-seed 1",
    "conv 4 --faults all=100 --fault-seed 7",
    "tblook 32 --faults all=100 --fault-seed 7",
    "bezier 1 --faults all=100 --fault-seed 7",
    "conv 4 --faults all=100 --fault-seed 1234",
    "tblook 32 --faults all=100 --fault-seed 1234",
    "bezier 1 --faults all=100 --fault-seed 1234",
    "conv 8 --faults all=100 --fault-seed 7",
    "gzip 16 --faults forced_nack=200,dram_spike=200 --fault-seed 99",
    "conv 2 --kill-core 1@3000",
    "conv 4 --kill-core 4@2000",
    "conv 8 --kill-core 3@2000",
    "conv 16 --kill-core 9@2000",
    "tblook 8 --kill-core 3@4000 --kill-core 5@6000",
    "conv 4 --trend --phase-table --stats-json run_one_conv4.stats.json",
];

/// Runs every [`RUN_ONE`] row; each must exit 0, i.e. verify.
fn run_one_goldens() -> [(&'static str, String); 2] {
    let mut text = String::new();
    for row in RUN_ONE {
        let out = run(
            env!("CARGO_BIN_EXE_run_one"),
            &row.split(' ').collect::<Vec<_>>(),
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "run_one {row}: {}",
            stderr(&out)
        );
        text += &format!("$ run_one {row}\n{}", String::from_utf8_lossy(&out.stdout));
    }
    let stats = std::fs::read_to_string(format!("{TMP}/run_one_conv4.stats.json"))
        .expect("run_one wrote its stats snapshot");
    [
        ("goldens/run_one.txt", text),
        ("goldens/run_one_conv4.stats.json", stats),
    ]
}

#[test]
fn run_one_reproduces_its_goldens() {
    for (file, fresh) in run_one_goldens() {
        golden::assert_golden(file, &fresh);
    }
}

/// Every JSON file `clp-fig all` and `clp-fig fig_degraded` write.
const FIG_FILES: [&str; 14] = [
    "fig5.json",
    "fig6.json",
    "table2.json",
    "fig7.json",
    "fig8.json",
    "fig9.json",
    "fig10.json",
    "ablation_handshake.json",
    "ablation_bandwidth.json",
    "ablation_issue.json",
    "ablation_predictor.json",
    "ablation_placement.json",
    "ablation_schedule_target.json",
    "fig_degraded.json",
];

/// Runs `clp-fig all`, then `clp-fig fig_degraded`: their stdout, and a
/// digest of each file of [`FIG_FILES`] they wrote.
fn figure_goldens() -> [(&'static str, String); 2] {
    let mut stdout = String::new();
    for name in ["all", "fig_degraded"] {
        let out = run(env!("CARGO_BIN_EXE_clp-fig"), &[name]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "clp-fig {name}: {}",
            stderr(&out)
        );
        stdout += &String::from_utf8_lossy(&out.stdout);
    }
    let digests = FIG_FILES.map(|file| {
        let path = format!("{TMP}/target/clp-results/{file}");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let digest = format!("{:016x}", fnv1a64(text.as_bytes()));
        (
            file.to_string(),
            json!({"fnv1a64": digest, "bytes": (text.len())}),
        )
    });
    let digests = serde_json::to_string_pretty(&Value::Object(digests.into())).expect("serializes");
    [
        ("goldens/figs.txt", stdout),
        ("goldens/figs.digest.json", digests),
    ]
}

/// A full `clp-fig all` is too slow for a debug build, so it runs under
/// `--release` only.
#[test]
#[cfg_attr(debug_assertions, ignore = "run under --release")]
fn the_figures_reproduce_their_goldens() {
    for (file, fresh) in figure_goldens() {
        golden::assert_golden(file, &fresh);
    }
}

/// Not a check: rewrites every golden this file holds.
#[test]
#[ignore = "rewrites goldens/; run `cargo test -q --release -- --ignored regenerate`"]
fn regenerate_tool_goldens() {
    let goldens = run_one_goldens()
        .into_iter()
        .chain([table1_golden()])
        .chain(figure_goldens());
    for (file, fresh) in goldens {
        golden::write(file, &fresh);
    }
}
