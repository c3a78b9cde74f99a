//! clp-diff: one path-keyed walker over any two JSON documents, and the
//! one golden gate built on it.
//!
//! Two cycle counts that differ tell you *that* something moved;
//! attribution tells you *what*. [`diff_documents`] flattens both trees
//! into `(path, leaf)` pairs — object keys and array elements become
//! path segments, an array of objects being keyed by its identifying
//! fields ([`ARRAY_KEYS`]) so a cell keeps its path when a neighbour
//! appears or vanishes — merges the two sorted lists, and ranks the
//! integer leaves that moved by |delta|. Nothing in here knows a
//! schema: the stats snapshot, `clp-prof-v1`, `clp-bench-v1`,
//! `clp-trend-v1`, `clp-scope-v1`, `clp-bound-v1`, `clp-serve-v1` and
//! the lint report all go through the same code, and the only
//! vocabulary is the two tables below.
//!
//! [`check_golden`] is the repo's one definition of "matches the
//! committed golden": byte equality, and on a miss the walker's ranked
//! list. `clp-bench --check`, `clp-bound --check`, `clp-serve --check`
//! and the tier-1 golden tests all call it; a document too large to
//! commit goes through it as its [`digest_golden`].

use serde::Value;

/// Fields that identify an element of an array of objects. The first
/// row whose fields are scalars in every element, no two elements
/// agreeing on all of them, keys the array (`cells[workload=conv,cores=4]`);
/// an array no row fits goes by index (`phases[2]`).
const ARRAY_KEYS: &[&[&str]] = &[
    &["workload", "cores"],
    &["from", "to"],
    &["job", "attempt"],
    &["id"],
    &["name"],
    &["label"],
    &["path"],
    &["workload"],
    &["cores"],
    &["attempt"],
    &["worker"],
    &["addr"],
];

/// The report's sections, and the path segments (an object key or an
/// array-key value) below which a leaf belongs to each. The innermost
/// such segment wins; a leaf under none of them is a metric.
const SECTIONS: &[(&str, &[&str])] = &[
    (
        "buckets",
        &["buckets", "run_buckets", "block_buckets", "book"],
    ),
    ("cores", &["cores", "heat"]),
    ("links", &["links"]),
    ("metrics", &[]),
];

/// Rows per section in a [`check_golden`] failure.
const GATE_ROWS: usize = 12;

/// One integer leaf that moved; `None` is a leaf the document lacks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEntry {
    /// The leaf's path, e.g. `workloads[name=conv]/runs[cores=4]/cycles`.
    pub label: String,
    /// Value in the first (baseline) document.
    pub before: Option<i128>,
    /// Value in the second document.
    pub after: Option<i128>,
}

impl DiffEntry {
    /// Signed movement `after - before`, an absent side counting as 0.
    #[must_use]
    pub fn delta(&self) -> i128 {
        self.after.unwrap_or(0) - self.before.unwrap_or(0)
    }
}

/// One leaf that differs without both sides being integers (a string,
/// a float, a changed type); absent sides render as `-`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextEntry {
    /// The leaf's path.
    pub label: String,
    /// Compact JSON of the first document's leaf.
    pub before: String,
    /// Compact JSON of the second document's leaf.
    pub after: String,
}

/// What moved between two documents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttributionReport {
    /// One `(title, rows)` per [`SECTIONS`] entry, in table order; rows
    /// by |delta| descending, then path ascending.
    pub sections: Vec<(&'static str, Vec<DiffEntry>)>,
    /// Non-integer leaves that differ, by path.
    pub other: Vec<TextEntry>,
}

impl AttributionReport {
    /// The ranked rows of the section titled `title` (`buckets`,
    /// `cores`, `links` or `metrics`).
    #[must_use]
    pub fn section(&self, title: &str) -> &[DiffEntry] {
        let found = self.sections.iter().find(|(t, _)| *t == title);
        found.map_or(&[], |(_, rows)| rows)
    }

    /// Every ranked row, section by section.
    pub fn entries(&self) -> impl Iterator<Item = &DiffEntry> {
        self.sections.iter().flat_map(|(_, rows)| rows)
    }

    /// Whether no leaf differs at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries().next().is_none() && self.other.is_empty()
    }

    /// Human-readable attribution, largest movers first. `top` bounds
    /// each section (0 means unbounded).
    #[must_use]
    pub fn render(&self, top: usize) -> String {
        let side = |v: Option<i128>| v.map_or("-".to_string(), |v| v.to_string());
        let mut out = String::new();
        let mut section = |title: &str, rows: Vec<(&str, String, String)>| {
            if rows.is_empty() {
                return;
            }
            let shown = if top == 0 {
                rows.len()
            } else {
                top.min(rows.len())
            };
            let width = rows[..shown].iter().map(|r| r.0.len()).max().unwrap_or(0);
            out.push_str(&format!("{title}:\n"));
            for (label, before, after) in &rows[..shown] {
                out.push_str(&format!("  {label:<width$}  {before} -> {after}\n"));
            }
            if shown < rows.len() {
                out.push_str(&format!("  ... and {} more\n", rows.len() - shown));
            }
        };
        for (title, rows) in &self.sections {
            let rows = rows.iter().map(|e| {
                let after = format!("{} ({:+})", side(e.after), e.delta());
                (e.label.as_str(), side(e.before), after)
            });
            section(title, rows.collect());
        }
        let texts = self.other.iter();
        section(
            "other",
            texts
                .map(|e| (e.label.as_str(), e.before.clone(), e.after.clone()))
                .collect(),
        );
        if self.is_empty() {
            out.push_str("(no movement attributed)\n");
        }
        out
    }
}

/// A flattened leaf: an integer, or any other scalar (and the empty
/// array / object) as compact JSON.
enum Leaf {
    Int(i128),
    Text(String),
}

struct Flat {
    path: String,
    section: usize,
    leaf: Leaf,
}

fn section_of(segment: &str, inherited: usize) -> usize {
    let found = SECTIONS.iter().position(|(_, s)| s.contains(&segment));
    found.unwrap_or(inherited)
}

/// The key text of one array element under one [`ARRAY_KEYS`] row.
fn element_key(elem: &Value, fields: &[&str]) -> Option<Vec<String>> {
    let scalar = |f: &&str| match elem.get(f) {
        Value::String(s) => Some(s.clone()),
        v @ (Value::Int(_) | Value::UInt(_) | Value::Bool(_)) => {
            Some(serde::json::to_string_value(v, false))
        }
        _ => None,
    };
    fields.iter().map(scalar).collect()
}

/// The first [`ARRAY_KEYS`] row that identifies every element of
/// `items` uniquely, with each element's key values.
fn array_keys(items: &[Value]) -> Option<(&'static [&'static str], Vec<Vec<String>>)> {
    ARRAY_KEYS.iter().find_map(|&fields| {
        let keys: Option<Vec<_>> = items.iter().map(|e| element_key(e, fields)).collect();
        let keys = keys?;
        let mut sorted: Vec<_> = keys.iter().collect();
        sorted.sort_unstable();
        sorted
            .windows(2)
            .all(|w| w[0] != w[1])
            .then_some((fields, keys))
    })
}

fn flatten(v: &Value, path: &mut String, section: usize, out: &mut Vec<Flat>) {
    let at = path.len();
    match v {
        Value::Object(fields) if !fields.is_empty() => {
            for (key, child) in fields {
                if at > 0 {
                    path.push('/');
                }
                path.push_str(key);
                flatten(child, path, section_of(key, section), out);
                path.truncate(at);
            }
        }
        Value::Array(items) if !items.is_empty() => {
            let keyed = array_keys(items);
            for (i, child) in items.iter().enumerate() {
                let mut below = section;
                match &keyed {
                    Some((fields, keys)) => {
                        let pairs = fields.iter().zip(&keys[i]);
                        let pairs: Vec<String> = pairs.map(|(f, k)| format!("{f}={k}")).collect();
                        path.push_str(&format!("[{}]", pairs.join(",")));
                        for k in &keys[i] {
                            below = section_of(k, below);
                        }
                    }
                    None => path.push_str(&format!("[{i}]")),
                }
                flatten(child, path, below, out);
                path.truncate(at);
            }
        }
        scalar => out.push(Flat {
            path: path.clone(),
            section,
            leaf: match scalar {
                Value::Int(i) => Leaf::Int(i128::from(*i)),
                Value::UInt(u) => Leaf::Int(i128::from(*u)),
                other => Leaf::Text(serde::json::to_string_value(other, false)),
            },
        }),
    }
}

fn flattened(doc: &Value) -> Vec<Flat> {
    let mut out = Vec::new();
    flatten(doc, &mut String::new(), SECTIONS.len() - 1, &mut out);
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// Diffs any two JSON documents leaf by leaf. The first is the
/// baseline.
#[must_use]
pub fn diff_documents(a: &Value, b: &Value) -> AttributionReport {
    let (fa, fb) = (flattened(a), flattened(b));
    let mut report = AttributionReport {
        sections: SECTIONS.iter().map(|(t, _)| (*t, Vec::new())).collect(),
        other: Vec::new(),
    };
    // An integer side: `Some(None)` is an absent leaf, `None` a leaf
    // that is not an integer.
    let int = |f: Option<&Flat>| match f.map(|f| &f.leaf) {
        None => Some(None),
        Some(Leaf::Int(i)) => Some(Some(*i)),
        Some(Leaf::Text(_)) => None,
    };
    let text = |l: Option<&Leaf>| match l {
        None => "-".to_string(),
        Some(Leaf::Int(i)) => i.to_string(),
        Some(Leaf::Text(t)) => t.clone(),
    };
    // A merge of the two path-sorted lists: equal paths pair up, a path
    // on one side only is a leaf the other document lacks.
    let (mut ia, mut ib) = (fa.iter().peekable(), fb.iter().peekable());
    loop {
        let (x, y) = match (ia.peek(), ib.peek()) {
            (None, None) => break,
            (Some(x), Some(y)) if x.path == y.path => (ia.next(), ib.next()),
            (Some(x), Some(y)) if x.path < y.path => (ia.next(), None),
            (Some(_), None) => (ia.next(), None),
            _ => (None, ib.next()),
        };
        let here = x.or(y).expect("one side advanced");
        match (int(x), int(y)) {
            (Some(before), Some(after)) if before != after => {
                report.sections[here.section].1.push(DiffEntry {
                    label: here.path.clone(),
                    before,
                    after,
                });
            }
            (Some(_), Some(_)) => {}
            _ => {
                let (before, after) = (text(x.map(|f| &f.leaf)), text(y.map(|f| &f.leaf)));
                if before != after {
                    report.other.push(TextEntry {
                        label: here.path.clone(),
                        before,
                        after,
                    });
                }
            }
        }
    }
    for (_, rows) in &mut report.sections {
        rows.sort_by(|x, y| {
            let by_size = y.delta().unsigned_abs().cmp(&x.delta().unsigned_abs());
            by_size.then_with(|| x.label.cmp(&y.label))
        });
    }
    report
}

/// FNV-1a, 64-bit.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What is committed of a document too large to commit whole: its
/// FNV-1a-64 digest and byte length, as a small JSON document that
/// [`check_golden`] holds to the fresh document's like any other golden.
#[must_use]
pub fn digest_golden(text: &str) -> String {
    let digest = fnv1a64(text.as_bytes());
    let bytes = text.len();
    format!("{{\n  \"fnv1a64\": \"{digest:016x}\",\n  \"bytes\": {bytes}\n}}\n")
}

/// The golden gate: `Ok` when the freshly emitted text equals the
/// committed text byte for byte (a final newline, which shell
/// redirection adds, aside); otherwise the ranked leaves that moved,
/// rendered for printing.
///
/// # Errors
///
/// The attribution of every difference, or why a side does not parse.
pub fn check_golden(committed: &str, fresh: &str) -> Result<(), String> {
    if committed.trim_end() == fresh.trim_end() {
        return Ok(());
    }
    let parse = |side: &str, text: &str| {
        serde::json::parse(text).map_err(|e| format!("the {side} document does not parse: {e}\n"))
    };
    let report = diff_documents(&parse("committed", committed)?, &parse("fresh", fresh)?);
    Err(if report.is_empty() {
        "same leaves, different bytes: key order, number spelling or whitespace\n".to_string()
    } else {
        report.render(GATE_ROWS)
    })
}
