//! How a test holds fresh output to a committed golden, and how a golden
//! is rewritten. Every golden has one writer, a `#[ignore]`d
//! `regenerate_*` test that calls the builder its check calls, so one
//! command, [`REGENERATE`], re-baselines them all.
//!
//! `goldens/cells.json` holds the exact values single tests assert of a
//! suite or scenario run (a phase table, a detection latency, a host
//! ledger, ...), one section per test file, so no test source quotes a
//! cycle count. Each test binary's one `regenerate_*` test rewrites its
//! own sections; cargo runs the binaries one after another, so those
//! writes never race. A section is read when the check runs, not when
//! it is compiled.
//!
//! Included by path (`#[path = ".../tests/common/golden.rs"] mod
//! golden;`) from each test crate that uses it.

#![allow(dead_code)] // each test binary uses a different subset of it

use serde_json::Value;
use std::path::PathBuf;

/// The one command that rewrites every committed golden: it runs every
/// `regenerate_*` test, and a second run changes nothing.
pub const REGENERATE: &str = "cargo test -q --release -- --ignored regenerate";

/// The golden of exact values that tests assert; see the module comment.
pub const CELLS: &str = "goldens/cells.json";

/// `file` (say `goldens/run_one.txt`) under the repository root: the
/// nearest ancestor of the test's crate that holds `goldens/`.
pub fn path(file: &str) -> PathBuf {
    let crate_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = crate_dir.ancestors();
    let root = roots.find(|dir| dir.join("goldens").is_dir());
    root.expect("the repository holds goldens/").join(file)
}

/// The committed text of `file`.
pub fn read(file: &str) -> String {
    let path = path(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Holds `fresh` to the committed `file` with `clp_obs::check_golden`;
/// a miss names what moved (a text golden's first line that differs)
/// and [`REGENERATE`].
pub fn assert_golden(file: &str, fresh: &str) {
    let committed = read(file);
    clp_obs::check_golden(&committed, fresh).unwrap_or_else(|moved| {
        let why = match committed.lines().zip(fresh.lines()).find(|(a, b)| a != b) {
            Some((was, now)) if file.ends_with(".txt") => {
                format!("first line that differs:\n  committed: {was}\n  fresh:     {now}\n")
            }
            _ => moved,
        };
        panic!(
            "{file} is no longer reproduced; re-baseline with `{REGENERATE}` if intentional\n{why}"
        )
    });
}

/// Rewrites `file` with `fresh`, byte for byte.
pub fn write(file: &str, fresh: &str) {
    let path = path(file);
    std::fs::write(&path, fresh).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}

/// The committed `section` of [`CELLS`].
pub fn cells(section: &str) -> Value {
    let doc = serde_json::from_str(&read(CELLS)).expect("goldens/cells.json parses");
    let found = doc
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == section));
    let (_, cells) = found.unwrap_or_else(|| panic!("{CELLS} has no `{section}` section"));
    cells.clone()
}

/// Holds `fresh` to the committed `section` of [`CELLS`], as
/// [`assert_golden`] does a whole file.
pub fn assert_cells(section: &str, fresh: &Value) {
    let pretty = |v: &Value| serde_json::to_string_pretty(v).expect("serializes");
    clp_obs::check_golden(&pretty(&cells(section)), &pretty(fresh)).unwrap_or_else(|moved| {
        panic!(
            "{CELLS} `{section}` is no longer reproduced; re-baseline with `{REGENERATE}` \
             if intentional\n{moved}"
        )
    });
}

/// Rewrites each `(section, cells)` of `fresh` in [`CELLS`], keeping the
/// other sections and the order of all of them.
pub fn write_cells(fresh: Vec<(&str, Value)>) {
    let doc = serde_json::from_str(&read(CELLS)).expect("goldens/cells.json parses");
    let mut sections = doc.as_object().cloned().unwrap_or_default();
    for (section, cells) in fresh {
        match sections.iter_mut().find(|(k, _)| k == section) {
            Some((_, old)) => *old = cells,
            None => sections.push((section.to_string(), cells)),
        }
    }
    let text = serde_json::to_string_pretty(&Value::Object(sections)).expect("serializes");
    write(CELLS, &(text + "\n"));
}
