//! The public surface is what another crate uses. Every `pub` item of a
//! library under `crates/*/src` is named in the code of some file
//! outside that library — another crate, a binary under `src/bin/`, the
//! facade's `src/`, a `tests/` or `examples/` target, `benchmark/` or
//! `tools/` — or is a type that such an item exposes (the error a named
//! function returns, the type of a `pub` field), or sits on [`ALLOWED`]
//! with the reason it stays public. Beside it, a manifest names only the
//! crates its source uses. Both are line scans in the style of
//! `tests/docs.rs`: a name counts where it is a word of code, so a
//! mention in a `//` comment does not.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The `pub` items nothing outside their library names, each with why it
/// stays public, keyed by file and name. What an entry's declaration
/// exposes is reached through it, as through any reached item.
const ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/sim/src/regfile.rs",
        "RegFile",
        "its doc example, compiled as a crate of its own, shows block-ordered forwarding",
    ),
    (
        "crates/sim/src/regfile.rs",
        "declare_write",
        "called by `RegFile`'s doc example",
    ),
    (
        "crates/sim/src/regfile.rs",
        "forward_write",
        "called by `RegFile`'s doc example",
    ),
];

/// Every `.rs` file under `dir`, recursively, build output (`target/`)
/// aside.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files = Vec::new();
    for entry in entries {
        let path = entry.expect("lists the directory").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                files.extend(rust_files(&path));
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// `path` relative to the repository root, with `/` separators.
fn relative(path: &Path) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let rel = path.strip_prefix(root).expect("a path under the root");
    rel.to_string_lossy().replace('\\', "/")
}

/// The text of `path`.
fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The identifiers in the code of `text`, `//` comments left out.
fn words(text: &str) -> BTreeSet<&str> {
    text.lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .flat_map(|code| code.split(|c: char| !(c.is_alphanumeric() || c == '_')))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The library crate under `crates/` that `rel` belongs to, if it is one
/// of its `src/` files and not a binary.
fn library_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (krate, rest) = rest.split_once('/')?;
    (rest.starts_with("src/") && !rest.starts_with("src/bin/")).then_some(krate)
}

/// A `pub` declaration of a library file.
struct Item<'a> {
    /// Its 1-based line.
    line: usize,
    /// Its name.
    name: &'a str,
    /// Whether it is a type (a struct, enum, union, trait or alias),
    /// which another crate can use without naming it.
    is_type: bool,
    /// What another crate sees of it (see [`public_text`]).
    public: String,
}

/// The `pub` items `text` declares outside `#[cfg(test)]` code. A
/// `pub(crate)` or `pub use` line is no item of the surface; a `pub`
/// field is part of its struct's [`public_text`].
fn pub_items(text: &str) -> Vec<Item<'_>> {
    const KINDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    let lines: Vec<&str> = text.lines().collect();
    let mut items = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        i += 1;
        if line.trim() == "#[cfg(test)]" {
            // A test module runs to its closing brace at column 0; a
            // test-only item is the next declaration.
            if lines
                .get(i)
                .is_some_and(|l| l.starts_with("mod ") && l.ends_with('{'))
            {
                i += lines[i..]
                    .iter()
                    .position(|l| *l == "}")
                    .unwrap_or(lines.len());
            }
            i += 1;
            continue;
        }
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let mut rest = rest.split_whitespace();
        let mut kind = rest.next();
        while matches!(kind, Some("const" | "unsafe" | "async" | "extern")) {
            let next = rest.next();
            if kind == Some("const") && !matches!(next, Some("fn" | "unsafe")) {
                // A constant: its name is the word after `const`.
                let name = name_of(next);
                items.extend(name.map(|name| item(&lines, i - 1, name, false)));
                kind = None;
            } else {
                kind = next;
            }
        }
        let Some(kind) = kind.filter(|k| KINDS.contains(k)) else {
            continue;
        };
        let is_type = matches!(kind, "struct" | "enum" | "union" | "trait" | "type");
        items.extend(name_of(rest.next()).map(|name| item(&lines, i - 1, name, is_type)));
    }
    items
}

/// The [`Item`] declared at `lines[at]`.
fn item<'a>(lines: &[&str], at: usize, name: &'a str, is_type: bool) -> Item<'a> {
    let public = public_text(lines, at);
    Item {
        line: at + 1,
        name,
        is_type,
        public,
    }
}

/// What another crate sees of the declaration at `lines[at]`: a
/// function's signature, a struct's or union's `pub` fields, an enum's
/// variants or a trait's items, and the one line of anything else.
fn public_text(lines: &[&str], at: usize) -> String {
    let decl = lines[at];
    let mut text = String::new();
    if decl.contains(" fn ") {
        for line in &lines[at..] {
            text.push_str(line.split('{').next().unwrap_or_default());
            text.push('\n');
            if line.contains('{') || line.trim_end().ends_with(';') {
                break;
            }
        }
        return text;
    }
    text.push_str(decl);
    if decl.contains(" mod ") || !decl.trim_end().ends_with('{') {
        return text;
    }
    let indent = decl.len() - decl.trim_start().len();
    let fields_only = decl.contains(" struct ") || decl.contains(" union ");
    for line in &lines[at + 1..] {
        let body = line.trim_start();
        if body.starts_with('}') && line.len() - body.len() == indent {
            break;
        }
        if !fields_only || body.starts_with("pub ") {
            text.push('\n');
            text.push_str(line);
        }
    }
    text
}

/// The identifier that `word` starts with, if any (a macro's `$name`
/// has none).
fn name_of(word: Option<&str>) -> Option<&str> {
    let word = word?;
    let end = word
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(word.len());
    (end > 0).then(|| &word[..end])
}

#[test]
fn pub_items_are_read_from_declarations_only() {
    let text = "pub fn a(x: X) -> Y {}\n\
                pub(crate) fn b() {}\n\
                pub const fn c() {}\n\
                pub const D: u8 = 0;\n\
                pub struct E {\n\
                \x20   pub f: F,\n\
                \x20   g: G,\n\
                }\n\
                pub use g::H;\n\
                \x20   pub unsafe fn i(\n\
                \x20       x: I,\n\
                \x20   ) {}\n\
                pub mod j;\n\
                #[cfg(test)]\n\
                pub fn k() {}\n\
                #[cfg(test)]\n\
                mod tests {\n\
                \x20   pub fn l() {}\n\
                }\n\
                pub enum M {\n\
                \x20   N(O),\n\
                }\n\
                macro_rules! n { () => { pub fn $o() {} } }\n";
    let items = pub_items(text);
    let names: Vec<&str> = items.iter().map(|item| item.name).collect();
    assert_eq!(names, ["a", "c", "D", "E", "i", "j", "M"]);
    let types: Vec<&str> = items.iter().filter(|i| i.is_type).map(|i| i.name).collect();
    assert_eq!(types, ["E", "M"]);
    let seen = |name: &str| -> Vec<&str> {
        let item = items
            .iter()
            .find(|item| item.name == name)
            .expect("scanned");
        words(&item.public).into_iter().collect()
    };
    assert_eq!(seen("a"), ["X", "Y", "a", "fn", "pub", "x"]);
    assert_eq!(seen("E"), ["E", "F", "f", "pub", "struct"]);
    assert_eq!(seen("i"), ["I", "fn", "i", "pub", "unsafe", "x"]);
    assert_eq!(seen("M"), ["M", "N", "O", "enum", "pub"]);
    assert_eq!(words("a::b(c) // d e"), BTreeSet::from(["a", "b", "c"]));
    assert_eq!(library_of("crates/sim/src/machine/mod.rs"), Some("sim"));
    assert_eq!(library_of("crates/bench/src/bin/run_one.rs"), None);
    assert_eq!(library_of("crates/sim/tests/machine_api.rs"), None);
}

/// Every `pub` item of `crates/*/src` that another crate neither names
/// nor reaches, as `file:line: name`, the allowlisted ones left out; and
/// every allowlist entry that is not such an item. An item is reached
/// when it is named in a file outside its library, or when it is a type
/// named in what another crate sees of a reached item of its library
/// (the error a public function returns, the type of a `pub` field).
fn unreached_pub_items() -> (Vec<String>, Vec<String>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark", "tools"] {
        files.extend(rust_files(&root.join(dir)));
    }
    // This file names what it allows, which is no use of it.
    files.retain(|file| !file.ends_with(file!()));
    assert!(files.len() > 100, "only {} Rust files found", files.len());
    let texts: Vec<(String, String)> = files.iter().map(|f| (relative(f), read(f))).collect();
    // For each word, the libraries whose own files name it; `None` stands
    // for every file outside a library.
    let mut owners: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for (rel, text) in &texts {
        for word in words(text) {
            owners.entry(word).or_default().insert(library_of(rel));
        }
    }
    let mut items: Vec<(&str, &str, Item)> = Vec::new();
    for (rel, text) in &texts {
        if let Some(krate) = library_of(rel) {
            items.extend(
                pub_items(text)
                    .into_iter()
                    .map(|item| (krate, rel.as_str(), item)),
            );
        }
    }
    let allowed: BTreeSet<(&str, &str)> = ALLOWED.iter().map(|&(f, n, _)| (f, n)).collect();
    let named_outside = |krate: &str, name: &str| owners[name].iter().any(|o| *o != Some(krate));
    let mut reached: Vec<bool> = items
        .iter()
        .map(|(krate, rel, item)| {
            named_outside(krate, item.name) || allowed.contains(&(*rel, item.name))
        })
        .collect();
    let mut grew = true;
    while grew {
        let seen: BTreeSet<(&str, &str)> = items
            .iter()
            .zip(&reached)
            .filter(|(_, reached)| **reached)
            .flat_map(|((krate, _, item), _)| words(&item.public).into_iter().map(|w| (*krate, w)))
            .collect();
        grew = false;
        for ((krate, _, item), reached) in items.iter().zip(reached.iter_mut()) {
            if !*reached && item.is_type && seen.contains(&(*krate, item.name)) {
                (*reached, grew) = (true, true);
            }
        }
    }
    let mut unreached = Vec::new();
    let mut listed = BTreeSet::new();
    for ((krate, rel, item), reached) in items.iter().zip(&reached) {
        if allowed.contains(&(*rel, item.name)) && !named_outside(krate, item.name) {
            listed.insert((*rel, item.name));
        } else if !reached {
            unreached.push(format!("{rel}:{}: {}", item.line, item.name));
        }
    }
    let stale = allowed
        .difference(&listed)
        .map(|(file, name)| format!("{file}: {name}"))
        .collect();
    (unreached, stale)
}

/// A `pub` item is a promise to another crate; one that no crate, binary,
/// test, example, `benchmark/` or `tools/` file names or reaches is a
/// promise to no one, so it is `pub(crate)` or private, or it is deleted.
#[test]
fn every_pub_item_is_named_outside_its_crate() {
    for (file, name, why) in ALLOWED {
        assert!(
            !why.trim().is_empty(),
            "{file}: {name} is allowed with no reason"
        );
    }
    let (unreached, stale) = unreached_pub_items();
    assert!(
        unreached.is_empty(),
        "{} pub items are named or reached by nothing outside their crate; make them \
         pub(crate) or private, or allow one in tests/surface.rs with its reason:\n{}",
        unreached.len(),
        unreached.join("\n")
    );
    assert!(
        stale.is_empty(),
        "allowed in tests/surface.rs but named outside its crate, or gone: {stale:?}"
    );
}

/// The manifest path, the package directory and the `[dependencies]` and
/// `[dev-dependencies]` names of the root package and every `crates/*`
/// package.
fn packages() -> Vec<(PathBuf, PathBuf, Vec<String>, Vec<String>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.to_path_buf()];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is committed") {
        dirs.push(krate.expect("lists crates/").path());
    }
    dirs.into_iter()
        .map(|dir| {
            let manifest = dir.join("Cargo.toml");
            let (mut deps, mut dev) = (Vec::new(), Vec::new());
            let mut table = String::new();
            for line in read(&manifest).lines().map(str::trim) {
                if line.starts_with('[') {
                    table = line.to_string();
                    continue;
                }
                let name = line.split(['.', '=', ' ']).next().unwrap_or_default();
                if name.is_empty() || name.starts_with('#') {
                    continue;
                }
                match table.as_str() {
                    "[dependencies]" => deps.push(name.to_string()),
                    "[dev-dependencies]" => dev.push(name.to_string()),
                    _ => {}
                }
            }
            (manifest, dir, deps, dev)
        })
        .collect()
}

/// A dependency no source names is build time and a lock entry for
/// nothing: each `[dependencies]` entry is named in its package's `src/`,
/// and each `[dev-dependencies]` entry in its `src/`, `tests/`,
/// `examples/` or `benches/`.
#[test]
fn a_manifest_names_only_the_crates_its_source_uses() {
    let named_in = |dir: &Path, subdirs: &[&str]| -> BTreeSet<String> {
        let mut named = BTreeSet::new();
        for sub in subdirs {
            for file in rust_files(&dir.join(sub)) {
                named.extend(words(&read(&file)).into_iter().map(str::to_string));
            }
        }
        named
    };
    let mut unused = Vec::new();
    let mut checked = 0;
    for (manifest, dir, deps, dev) in packages() {
        let code = named_in(&dir, &["src"]);
        let all = named_in(&dir, &["src", "tests", "examples", "benches"]);
        for (names, used) in [(deps, &code), (dev, &all)] {
            for name in names {
                checked += 1;
                if !used.contains(&name.replace('-', "_")) {
                    unused.push(format!("{}: {name}", relative(&manifest)));
                }
            }
        }
    }
    assert!(checked > 40, "only {checked} dependencies found");
    assert!(
        unused.is_empty(),
        "dependencies their package's source never names: {unused:?}"
    );
}
