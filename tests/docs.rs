//! The documents name only files that exist: every backticked
//! `crates/…`, `tests/…` or `goldens/…` path in DESIGN.md and README.md,
//! with `{a,b}` braces expanded, is checked against the tree, so a file
//! that is moved or deleted cannot leave the prose pointing at nothing.
//! Beside that sit the settings and gates nothing else would miss:
//! DESIGN.md's length, the release profile, the tier-1 members, CI's two
//! test commands, and a reader for every golden.

use std::path::Path;

const DOCS: [&str; 2] = ["DESIGN.md", "README.md"];
const ROOTS: [&str; 3] = ["crates/", "tests/", "goldens/"];

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

/// The inline code spans of `doc` that are a path under one of
/// [`ROOTS`]. Fenced code blocks are left out.
fn named_paths(doc: &str) -> Vec<&str> {
    let mut fenced = false;
    let mut paths = Vec::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        paths.extend(line.split('`').skip(1).step_by(2).filter(|span| {
            ROOTS.iter().any(|r| span.starts_with(r)) && !span.contains(char::is_whitespace)
        }));
    }
    paths
}

#[test]
fn every_path_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("the document is committed");
        let named = named_paths(&text);
        assert!(named.len() >= 10, "{doc} names only {} paths", named.len());
        let missing: Vec<String> = named
            .iter()
            .flat_map(|p| expand(p))
            .filter(|p| !root.join(p).exists())
            .collect();
        assert!(missing.is_empty(), "{doc} names missing files: {missing:?}");
    }
}

/// DESIGN.md describes the system as it is; history and measurements go
/// to CHANGES.md. A change fixes the prose in place, so the document
/// does not grow. A change that adds a subsystem raises the bound, and
/// one that shrinks the document lowers it.
#[test]
fn design_md_does_not_grow() {
    const MAX_LINES: usize = 1345;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is committed");
    let lines = design.lines().count();
    assert!(
        lines <= MAX_LINES,
        "DESIGN.md has {lines} lines, more than {MAX_LINES}: fix prose in place, \
         and put numbers and history in CHANGES.md"
    );
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

/// Appends the text of every file under `dir`, recursively.
fn read_tree(dir: &Path, out: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("lists the directory").path();
        if path.is_dir() {
            read_tree(&path, out);
        } else if let Ok(text) = std::fs::read_to_string(&path) {
            out.push_str(&text);
        }
    }
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

/// A committed golden that no test names is a file nothing checks: every
/// file under `goldens/` and every root `*_baseline.json`,
/// `BENCH_serve.json` and `SCOPE_serve.json` must be named in some file
/// under `tests/` or `crates/*/tests/`.
#[test]
fn every_golden_is_read_by_a_test() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut goldens = file_names(&root.join("goldens"));
    goldens.extend(file_names(root).into_iter().filter(|name| {
        name.ends_with("_baseline.json") || name == "BENCH_serve.json" || name == "SCOPE_serve.json"
    }));
    let mut tests = String::new();
    read_tree(&root.join("tests"), &mut tests);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is committed") {
        read_tree(
            &krate.expect("lists crates/").path().join("tests"),
            &mut tests,
        );
    }
    assert!(goldens.len() >= 20, "only {} goldens found", goldens.len());
    let unread: Vec<&String> = goldens
        .iter()
        .filter(|g| !tests.contains(g.as_str()))
        .collect();
    assert!(unread.is_empty(), "goldens no test names: {unread:?}");
}
