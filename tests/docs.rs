//! The documents describe the tree that exists. Every backticked
//! `crates/…`, `tests/…` or `goldens/…` path in DESIGN.md, README.md and
//! EXPERIMENTS.md, with `{a,b}` braces expanded, is checked against the
//! tree; every `A::b` name and every long snake_case name DESIGN.md and
//! README.md cite is found in the Rust sources; every DESIGN.md section
//! a file cites by name is a heading; and README prints a tool's output
//! only where a golden holds the same lines. So a file, function or test
//! that is moved, renamed or deleted cannot leave the prose pointing at
//! nothing. Beside that sit the settings and gates nothing else would
//! miss: the documents' lengths, the release profile, the tier-1
//! members, CI's two test commands, a reader for every golden, and one
//! command that rewrites them all.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

#[path = "common/golden.rs"]
mod golden;

/// Each document the path check reads, with the fewest paths it must
/// name (so a parser that matches nothing cannot pass).
const DOCS: [(&str, usize); 3] = [("DESIGN.md", 10), ("README.md", 10), ("EXPERIMENTS.md", 3)];
const ROOTS: [&str; 3] = ["crates/", "tests/", "goldens/"];

/// The text of `path` under the repository root.
fn read(path: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every path a brace pattern names: `a{b,c}d{e,f}` gives `abde`,
/// `abdf`, `acde` and `acdf`.
fn expand(path: &str) -> Vec<String> {
    let Some(open) = path.find('{') else {
        return vec![path.to_string()];
    };
    let close = open + path[open..].find('}').expect("braces close");
    let (head, tail) = (&path[..open], &path[close + 1..]);
    path[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

/// The inline code spans of `doc`, each with its 1-based line number.
/// Fenced code blocks are left out.
fn inline_spans(doc: &str) -> Vec<(usize, &str)> {
    let mut fenced = false;
    let mut spans = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2).map(|s| (i + 1, s)));
        }
    }
    spans
}

/// The inline code spans of `doc` that are a path under one of
/// [`ROOTS`].
fn named_paths(doc: &str) -> Vec<&str> {
    inline_spans(doc)
        .into_iter()
        .map(|(_, span)| span)
        .filter(|span| {
            ROOTS.iter().any(|r| span.starts_with(r)) && !span.contains(char::is_whitespace)
        })
        .collect()
}

#[test]
fn every_path_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (doc, fewest) in DOCS {
        let text = read(doc);
        let named = named_paths(&text);
        assert!(
            named.len() >= fewest,
            "{doc} names only {} paths",
            named.len()
        );
        let missing: Vec<String> = named
            .iter()
            .flat_map(|p| expand(p))
            .filter(|p| !root.join(p).exists())
            .collect();
        assert!(missing.is_empty(), "{doc} names missing files: {missing:?}");
    }
}

/// DESIGN.md describes the system as it is and README is a quick start;
/// history and measurements go to CHANGES.md. A change fixes the prose
/// in place, so neither document grows. A change that adds a subsystem
/// raises DESIGN.md's bound, and one that shrinks a document lowers its
/// bound. A `PR <n>` or `ISSUE <n>` appears only as a pointer, on a line
/// that also names CHANGES.md.
#[test]
fn design_md_does_not_grow() {
    for (doc, max_lines) in [("DESIGN.md", 791), ("README.md", 250)] {
        let text = read(doc);
        let lines = text.lines().count();
        assert!(
            lines <= max_lines,
            "{doc} has {lines} lines, more than {max_lines}: fix prose in place, \
             and put numbers and history in CHANGES.md"
        );
        let history: Vec<String> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| cites_a_change(line) && !line.contains("CHANGES.md"))
            .map(|(i, line)| format!("{doc}:{}: {line}", i + 1))
            .collect();
        assert!(
            history.is_empty(),
            "history belongs in CHANGES.md; these lines cite a change without pointing there: \
             {history:#?}"
        );
    }
}

/// Whether `line` holds `PR <n>`, `PRs <n>` or `ISSUE <n>`.
fn cites_a_change(line: &str) -> bool {
    ["PR ", "PRs ", "ISSUE "].iter().any(|word| {
        line.match_indices(word)
            .any(|(at, _)| line[at + word.len()..].starts_with(|c: char| c.is_ascii_digit()))
    })
}

#[test]
fn a_change_is_cited_by_number() {
    let cite = |word: &str, rest: &str| cites_a_change(&format!("see {word}{rest}"));
    assert!(cite("PR", " 7, the first"));
    assert!(cite("PRs", " 7 and 9"));
    assert!(cite("ISSUE", " 7 for why"));
    assert!(!cite("PR", "s that add a subsystem"));
    assert!(!cite("PR", "-less prose"));
}

#[test]
fn braces_expand_left_to_right() {
    assert_eq!(expand("a/b.rs"), ["a/b.rs"]);
    assert_eq!(
        expand("goldens/{serve,scope}_w{1,8}.json"),
        [
            "goldens/serve_w1.json",
            "goldens/serve_w8.json",
            "goldens/scope_w1.json",
            "goldens/scope_w8.json"
        ]
    );
}

/// Every release build in the repository — the root workspace,
/// `benchmark/` and `tools/hostprof` — is one codegen unit per crate,
/// which is what lets `Machine::step` inline the operand path. Nothing
/// else would notice the setting go: no gate is on time.
#[test]
fn release_builds_are_one_codegen_unit_per_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let config =
        std::fs::read_to_string(root.join(".cargo/config.toml")).expect("the config is committed");
    let mut table = "";
    let mut settings = Vec::new();
    for line in config.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
        } else if !line.is_empty() && !line.starts_with('#') {
            settings.push((table, line.replace(' ', "")));
        }
    }
    assert!(
        settings.contains(&("[profile.release]", "codegen-units=1".to_string())),
        ".cargo/config.toml must set codegen-units = 1 under [profile.release]: {settings:?}"
    );
}

/// `cargo test -q` at the root is the tier-1 gate, and it reaches every
/// crate's unit, integration and doc tests only because the root
/// manifest's `default-members` names them. Nothing else would notice
/// the line go: the root package's own tests would still pass.
#[test]
fn tier1_tests_every_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest =
        std::fs::read_to_string(root.join("Cargo.toml")).expect("the manifest is committed");
    let line = manifest
        .lines()
        .map(|l| l.replace(' ', ""))
        .find(|l| l.starts_with("default-members="))
        .expect("the root manifest sets default-members");
    for member in ["\".\"", "\"crates/*\""] {
        assert!(
            line.contains(member),
            "default-members must hold {member}: {line}"
        );
    }
}

/// Tier-1 is the only gate: CI's test commands are `cargo test -q` and
/// `cargo test -q --release`, and it names no test target, golden check
/// or byte comparison of its own that a `cargo test` run would not make.
/// (`cargo fmt --check` is a format check, not a golden.)
#[test]
fn ci_runs_only_the_tier1_commands() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml"))
        .expect("the workflow is committed");
    let stray: Vec<&str> = ci
        .lines()
        .filter(|l| !l.contains("cargo fmt"))
        .flat_map(str::split_whitespace)
        .filter(|w| *w == "--test" || w.starts_with("--check") || *w == "cmp")
        .collect();
    assert!(stray.is_empty(), "ci.yml checks outside tier-1: {stray:?}");
    let tests: Vec<&str> = ci
        .lines()
        .map(str::trim)
        .filter(|l| l.contains("cargo test"))
        .collect();
    assert_eq!(
        tests,
        ["run: cargo test -q", "run: cargo test -q --release"]
    );
}

/// JSON is written one way: every report spells its shape in a
/// hand-written `ToValue` of the std-only vendored `serde_json`, so the
/// build compiles no proc macro. Nothing else would notice a derive come
/// back: every golden would still match.
#[test]
fn the_build_graph_has_no_proc_macro() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path);
        text.unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let settings = |path: &Path| -> Vec<String> {
        let text = read(path);
        text.lines().map(|l| l.replace(' ', "")).collect()
    };
    let lock = read(&root.join("Cargo.lock"));
    assert!(
        !lock.contains("name = \"serde_derive\""),
        "Cargo.lock lists serde_derive"
    );
    for vendored in std::fs::read_dir(root.join("vendor")).expect("vendor/ is committed") {
        let manifest = vendored.expect("lists vendor/").path().join("Cargo.toml");
        assert!(
            !settings(&manifest).contains(&"proc-macro=true".to_string()),
            "{} builds a proc macro",
            manifest.display()
        );
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is committed") {
        manifests.push(krate.expect("lists crates/").path().join("Cargo.toml"));
    }
    for manifest in manifests {
        let serde = settings(&manifest);
        let serde: Vec<&String> = serde
            .iter()
            .filter(|l| l.starts_with("serde=") || l.starts_with("serde."))
            .collect();
        assert!(
            serde.is_empty(),
            "{} depends on serde, not serde_json: {serde:?}",
            manifest.display()
        );
    }
}

/// Every file under `dir`, recursively, build output (`target/`) aside.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files = Vec::new();
    for entry in entries {
        let path = entry.expect("lists the directory").path();
        if !path.is_dir() {
            files.push(path);
        } else if !path.ends_with("target") {
            files.extend(files_under(&path));
        }
    }
    files
}

/// File names in `dir`.
fn file_names(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    entries
        .map(|e| e.expect("lists the directory"))
        .filter(|e| e.path().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

/// README runs every example and runs nothing else, and DESIGN.md's
/// workspace map lists the same set: an example deleted, renamed or
/// added without its documents fails here.
#[test]
fn the_documents_list_exactly_the_examples_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let examples: BTreeSet<String> = file_names(&root.join("examples"))
        .iter()
        .filter_map(|name| name.strip_suffix(".rs").map(str::to_string))
        .collect();
    assert!(
        examples.len() >= 3,
        "only {} examples found",
        examples.len()
    );
    let readme: BTreeSet<String> = read("README.md")
        .split("--example ")
        .skip(1)
        .filter_map(|rest| rest.split_whitespace().next().map(str::to_string))
        .collect();
    assert_eq!(readme, examples, "README's `--example NAME` commands");
    let design = read("DESIGN.md");
    let line = design
        .lines()
        .find_map(|line| line.strip_prefix("examples/"))
        .expect("DESIGN.md's workspace map has an `examples/` line");
    let design: BTreeSet<String> = line.split(',').map(|n| n.trim().to_string()).collect();
    assert_eq!(design, examples, "DESIGN.md's `examples/` line");
}

/// README's Tools table and the tool list in clp-bench's crate doc name
/// exactly the binaries under `crates/*/src/bin/`: a binary deleted,
/// renamed or added without its documents fails here.
#[test]
fn the_documents_list_exactly_the_binaries_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut binaries = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is committed") {
        let bin = krate.expect("lists crates/").path().join("src/bin");
        if bin.is_dir() {
            let names = file_names(&bin).into_iter();
            binaries.extend(names.filter_map(|n| n.strip_suffix(".rs").map(str::to_string)));
        }
    }
    assert!(binaries.len() >= 5, "only {binaries:?} found");
    let readme = read("README.md");
    let table: BTreeSet<String> = readme
        .lines()
        .skip_while(|l| *l != "## Tools")
        .take_while(|l| !l.starts_with("## Goldens"))
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|cell| cell.split('`').next().map(str::to_string))
        .collect();
    assert_eq!(table, binaries, "README's Tools table");
    // A tool is a backticked span whose first word is `run_one` or a
    // `clp-` name.
    let is_tool = |w: &str| {
        w == "run_one"
            || w.strip_prefix("clp-")
                .is_some_and(|t| !t.is_empty() && t.chars().all(|c| c.is_ascii_lowercase()))
    };
    let doc: String = read("crates/bench/src/lib.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("//!"))
        .collect::<Vec<_>>()
        .join("\n");
    let listed: BTreeSet<String> = inline_spans(&doc)
        .into_iter()
        .filter_map(|(_, span)| span.split_whitespace().next())
        .filter(|w| is_tool(w))
        .map(str::to_string)
        .collect();
    assert_eq!(listed, binaries, "crates/bench/src/lib.rs's tool list");
}

/// Every committed golden: each file under `goldens/` and each root
/// `*_baseline.json`, `BENCH_serve.json` and `SCOPE_serve.json`.
fn goldens() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut goldens = file_names(&root.join("goldens"));
    goldens.extend(file_names(root).into_iter().filter(|name| {
        name.ends_with("_baseline.json") || name == "BENCH_serve.json" || name == "SCOPE_serve.json"
    }));
    assert!(goldens.len() >= 20, "only {} goldens found", goldens.len());
    goldens
}

/// Every file under `tests/` and `crates/*/tests/`.
fn test_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("tests")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is committed") {
        dirs.push(krate.expect("lists crates/").path().join("tests"));
    }
    dirs.iter().flat_map(|dir| files_under(dir)).collect()
}

/// A committed golden that no test names is a file nothing checks: every
/// golden must be named in some file under `tests/` or `crates/*/tests/`.
#[test]
fn every_golden_is_read_by_a_test() {
    let goldens = goldens();
    let tests: String = test_files()
        .into_iter()
        .filter_map(|file| std::fs::read_to_string(file).ok())
        .collect();
    let unread: Vec<&String> = goldens
        .iter()
        .filter(|g| !tests.contains(g.as_str()))
        .collect();
    assert!(unread.is_empty(), "goldens no test names: {unread:?}");
}

/// Each `#[ignore]`d test under `tests/` or `crates/*/tests/` (an
/// `ignore` attribute, maybe inside a `cfg_attr`), as `(file, name,
/// attribute)`.
fn ignored_tests() -> Vec<(String, String, String)> {
    let mut ignored = Vec::new();
    for file in test_files() {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let mut attribute = None;
        for line in text.lines().map(str::trim) {
            let is_ignore = line.starts_with("#[ignore") || line.starts_with("#[cfg_attr(");
            if is_ignore && line.contains("ignore") {
                attribute = Some(line.to_string());
            } else if let Some(rest) = line.strip_prefix("fn ") {
                if let Some(attribute) = attribute.take() {
                    let name = rest.split('(').next().unwrap_or(rest).to_string();
                    ignored.push((file.display().to_string(), name, attribute));
                }
            } else if !line.starts_with("#[") && !line.starts_with("//") {
                attribute = None;
            }
        }
    }
    ignored
}

/// Re-baselining is one command: every `#[ignore]`d test is a
/// `regenerate_*` golden writer whose reason names
/// [`golden::REGENERATE`] (whose name filter reaches it), but for the
/// figure test a debug build skips; and README's Goldens section names
/// the command. A golden writer outside the filter fails here.
#[test]
fn every_ignored_test_is_reached_by_the_one_regenerate_command() {
    let ignored = ignored_tests();
    let writers = ignored
        .iter()
        .filter(|(_, name, _)| name.starts_with("regenerate_"));
    assert!(writers.count() >= 7, "only {ignored:?} are ignored");
    for (file, name, attribute) in &ignored {
        if name == "the_figures_reproduce_their_goldens" {
            continue;
        }
        assert!(
            name.starts_with("regenerate_") && attribute.contains(golden::REGENERATE),
            "{file}: `{name}` is ignored ({attribute}) but is not a `regenerate_*` test \
             naming `{}`",
            golden::REGENERATE
        );
    }
    let readme = read("README.md");
    let goldens = readme.lines().skip_while(|l| *l != "## Goldens").skip(1);
    let mut section = goldens.take_while(|l| !l.starts_with("## "));
    assert!(
        section.any(|l| l.contains(golden::REGENERATE)),
        "README's Goldens section does not name `{}`",
        golden::REGENERATE
    );
}

/// The goldens table lives in one place: README's "Goldens" section
/// names every golden (braces expanded), and no table in DESIGN.md
/// names one.
#[test]
fn readme_holds_the_one_goldens_table() {
    let goldens = goldens();
    let file_name = |path: &str| path.rsplit('/').next().unwrap_or(path).to_string();
    let table_names = |rows: &[&str]| -> BTreeSet<String> {
        rows.iter()
            .flat_map(|row| row.split('`').skip(1).step_by(2))
            .flat_map(expand)
            .map(|path| file_name(&path))
            .collect()
    };
    let readme = read("README.md");
    let rows: Vec<&str> = readme
        .lines()
        .skip_while(|l| *l != "## Goldens")
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with('|'))
        .collect();
    let named = table_names(&rows);
    let missing: Vec<&String> = goldens.iter().filter(|g| !named.contains(*g)).collect();
    assert!(
        missing.is_empty(),
        "README's goldens table leaves out {missing:?}"
    );
    let design = read("DESIGN.md");
    let rows: Vec<&str> = design.lines().filter(|l| l.starts_with('|')).collect();
    let named = table_names(&rows);
    let copied: Vec<&String> = goldens.iter().filter(|g| named.contains(*g)).collect();
    assert!(
        copied.is_empty(),
        "DESIGN.md tabulates goldens README's table holds: {copied:?}"
    );
}

/// README prints a tool's output (the `# …` lines right under a command
/// in an `sh` block) only where a golden holds the same lines, so a
/// sample cannot drift from what the tool prints: under `run_one ARGS`
/// each line must appear in `goldens/run_one.txt`'s `$ run_one ARGS`
/// section, and under `clp-serve --bench --scope` in
/// `goldens/scope_bench.txt`. A line holding `...` is elided and
/// skipped; output under any other command has no golden and fails.
#[test]
fn readme_prints_only_output_a_golden_holds() {
    let stray = unpinned_output(
        &read("README.md"),
        &read("goldens/run_one.txt"),
        &read("goldens/scope_bench.txt"),
    );
    assert!(
        stray.is_empty(),
        "README.md prints output no golden holds: {stray:#?}"
    );
}

/// The sample output lines of `readme` that the goldens do not hold,
/// each as `README.md:<line>: …`.
fn unpinned_output(readme: &str, run_one: &str, scope: &str) -> Vec<String> {
    let mut stray = Vec::new();
    let (mut fence, mut command, mut continued) = (None::<&str>, None::<String>, false);
    for (i, line) in readme.lines().enumerate() {
        let trimmed = line.trim();
        if let Some(lang) = trimmed.strip_prefix("```") {
            fence = if fence.is_some() { None } else { Some(lang) };
            command = None;
            continue;
        }
        if fence != Some("sh") {
            continue;
        }
        if trimmed.is_empty() {
            command = None;
        } else if let Some(out) = trimmed.strip_prefix('#') {
            let Some(cmd) = &command else {
                continue; // a comment that introduces the next command
            };
            let out = line.trim_start().strip_prefix("# ").unwrap_or(out);
            if out.contains("...") || held(cmd, out, run_one, scope) {
                continue;
            }
            stray.push(format!("README.md:{}: `{out}` under `{cmd}`", i + 1));
        } else {
            let words = trimmed.split(" # ").next().unwrap_or(trimmed);
            let words = words.trim_end_matches('\\').trim();
            command = Some(match (continued, command.take()) {
                (true, Some(cmd)) => format!("{cmd} {words}"),
                _ => words.to_string(),
            });
            continued = trimmed.ends_with('\\');
            continue;
        }
        continued = false;
    }
    stray
}

/// Whether the golden of `command` holds the output line `out`.
fn held(command: &str, out: &str, run_one: &str, scope: &str) -> bool {
    let words: Vec<&str> = command.split_whitespace().collect();
    if let Some(at) = words.iter().position(|w| *w == "run_one") {
        let args = words[at + 1..].iter().skip_while(|w| **w == "--");
        let header = format!("$ run_one {}", args.copied().collect::<Vec<_>>().join(" "));
        return run_one
            .lines()
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with("$ "))
            .any(|l| l == out);
    }
    let scoped = ["clp-serve", "--bench", "--scope"];
    scoped.iter().all(|w| words.contains(w)) && scope.lines().any(|l| l == out)
}

#[test]
fn sample_output_is_matched_to_its_command() {
    let run_one = "$ run_one conv 4\nconv: 7 cycles\n$ run_one conv 8\nconv: 5 cycles\n";
    let readme =
        "```sh\n# a description\nrun_one -- conv \\\n  4\n# conv: 7 cycles\n# conv: 5 cycles\n\n\
                  clp-prof conv\n# == conv ==\n# elided ...\n```\n";
    assert_eq!(
        unpinned_output(readme, run_one, ""),
        [
            "README.md:6: `conv: 5 cycles` under `run_one -- conv 4`",
            "README.md:9: `== conv ==` under `clp-prof conv`"
        ]
    );
}

/// Every identifier in the code of the Rust sources under `crates/`,
/// `tests/`, `src/` and `examples/`: a word that only a `//` comment
/// holds, doc comments included, does not count.
fn rust_identifiers() -> BTreeSet<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    ["crates", "tests", "src", "examples"]
        .iter()
        .flat_map(|dir| files_under(&root.join(dir)))
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .flat_map(|path| {
            let text = std::fs::read_to_string(&path).expect("a source file reads");
            let code = text.lines().map(|l| l.find("//").map_or(l, |at| &l[..at]));
            code.flat_map(|l| l.split(|c: char| !(c.is_alphanumeric() || c == '_')))
                .filter(|w| !w.is_empty())
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The names an inline span cites: the last segment of each `A::b`
/// path (paths into `std` aside), and the span itself when it is one
/// snake_case word with at least two underscores, such as a test name,
/// or one UpperCamelCase word, such as a type name.
fn cited_names(span: &str) -> Vec<&str> {
    const STD: [&str; 3] = ["std", "mpsc", "thread"];
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut names = Vec::new();
    let mut rest = span;
    while let Some(start) = rest.find(ident) {
        rest = &rest[start..];
        let mut segments = Vec::new();
        loop {
            let end = rest.find(|c: char| !ident(c)).unwrap_or(rest.len());
            segments.push(&rest[..end]);
            rest = &rest[end..];
            match rest.strip_prefix("::") {
                Some(next) if next.starts_with(ident) => rest = next,
                _ => break,
            }
        }
        if segments.len() > 1 && !STD.contains(&segments[0]) {
            names.push(segments[segments.len() - 1]);
        }
    }
    let snake = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let camel = span.starts_with(|c: char| c.is_ascii_uppercase())
        && span.contains(|c: char| c.is_ascii_lowercase())
        && span.chars().all(|c| c.is_ascii_alphanumeric());
    if camel || span.chars().all(snake) && span.matches('_').count() >= 2 {
        names.push(span);
    }
    names
}

#[test]
fn cited_names_are_path_tails_and_long_snake_case_words() {
    assert_eq!(cited_names("Machine::step"), ["step"]);
    assert_eq!(
        cited_names("clp_obs::check_golden(a, b) and Ev::Op"),
        ["check_golden", "Op"]
    );
    assert_eq!(
        cited_names("tests/docs.rs::design_md_does_not_grow"),
        ["design_md_does_not_grow"]
    );
    assert_eq!(cited_names("a_test_name"), ["a_test_name"]);
    assert_eq!(cited_names("RingRecorder"), ["RingRecorder"]);
    assert!(cited_names("SCREAMING").is_empty());
    assert!(cited_names("Ring recorder").is_empty());
    assert!(cited_names("std::thread::scope").is_empty());
    assert!(cited_names("mpsc::channel").is_empty());
    assert!(cited_names("noc_delay").is_empty());
    assert!(cited_names("OpState::{got, null}").is_empty());
}

/// A function, type or test that is renamed or deleted cannot stay in
/// the documents: every name [`cited_names`] finds in DESIGN.md's and
/// README's inline spans occurs as an identifier in the Rust sources.
#[test]
fn every_name_the_docs_cite_exists() {
    let idents = rust_identifiers();
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in ["DESIGN.md", "README.md"] {
        let text = read(doc);
        for (line, span) in inline_spans(&text) {
            for name in cited_names(span) {
                checked += 1;
                if !idents.contains(name) {
                    missing.push(format!("{doc}:{line}: `{name}` in `{span}`"));
                }
            }
        }
    }
    assert!(checked >= 100, "the documents cite only {checked} names");
    assert!(
        missing.is_empty(),
        "the documents cite names no source holds: {missing:#?}"
    );
}

/// The DESIGN.md section names a line cites: a quoted name right after
/// `DESIGN.md`, `DESIGN.md's`, `DESIGN.md,`, `DESIGN.md (` or
/// `DESIGN.md §`. A name that wraps onto the next lines is joined across
/// them, comment markers stripped.
fn cited_sections(text: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut cited = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for (at, _) in line.match_indices("DESIGN.md") {
            let rest = &line[at + "DESIGN.md".len()..];
            let rest = rest.strip_prefix("'s").unwrap_or(rest);
            let Some(quoted) = rest
                .trim_start_matches([',', ' ', '(', '§'])
                .strip_prefix('"')
            else {
                continue;
            };
            let mut name = quoted.to_string();
            for next in &lines[i + 1..] {
                if name.contains('"') {
                    break;
                }
                let next = next.trim_start();
                let next = ["//!", "///", "//", "#"]
                    .iter()
                    .find_map(|m| next.strip_prefix(m))
                    .unwrap_or(next);
                name = format!("{name} {}", next.trim());
            }
            let name = name.split('"').next().unwrap_or_default().to_string();
            cited.push((i + 1, name));
        }
    }
    cited
}

#[test]
fn section_citations_take_every_form_in_use() {
    let text =
        "see DESIGN.md, \"A\"\nDESIGN.md (\"B (`b`)\")\nDESIGN.md \"C\"; DESIGN.md § \"D\"\n\
                DESIGN.md's \"Wrapped\n//! name\" and DESIGN.md's index";
    let names: Vec<String> = cited_sections(text).into_iter().map(|(_, n)| n).collect();
    assert_eq!(names, ["A", "B (`b`)", "C", "D", "Wrapped name"]);
}

/// A file that cites a DESIGN.md section by name cites a heading that
/// exists: the whole of a `##` / `###` heading, or the part of one
/// before ` (`. The files are the root documents that describe the
/// current tree, every Rust source, CI's workflows and the verify
/// skill.
#[test]
fn every_design_section_cited_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = read("DESIGN.md");
    let headings: Vec<&str> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## ").or_else(|| l.strip_prefix("### ")))
        .collect();
    let exists = |name: &str| {
        headings
            .iter()
            .any(|h| *h == name || h.split(" (").next() == Some(name))
    };
    let documents = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ];
    let mut files: Vec<PathBuf> = documents
        .iter()
        .map(|f| root.join(f))
        .filter(|p| p.exists())
        .collect();
    for dir in ["crates", "src", "tests", "examples", "tools", ".github"] {
        let sources = files_under(&root.join(dir)).into_iter();
        files.extend(sources.filter(|p| p.extension().is_some_and(|e| e == "rs" || e == "yml")));
    }
    let mut cited = 0;
    let mut missing = Vec::new();
    for file in files.iter().filter(|f| !f.ends_with("tests/docs.rs")) {
        let text = std::fs::read_to_string(file).expect("the file reads");
        for (line, name) in cited_sections(&text) {
            cited += 1;
            if !exists(&name) {
                let file = file.strip_prefix(root).unwrap_or(file).display();
                missing.push(format!("{file}:{line}: \"{name}\""));
            }
        }
    }
    assert!(cited >= 5, "only {cited} section citations found");
    assert!(
        missing.is_empty(),
        "DESIGN.md has no section by these names: {missing:#?}"
    );
}
