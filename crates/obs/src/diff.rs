//! clp-diff: structural comparison of two runs' measurement documents.
//!
//! Two cycle counts that differ tell you *that* something moved;
//! attribution tells you *what*. This module diffs any pair of the
//! pinned JSON documents the stack emits — a stats-registry snapshot, a
//! `clp-prof-v1` profile, a `clp-bench-v1` suite matrix, a
//! `clp-trend-v1` time series, or a `clp-scope-v1` service report — and
//! attributes the cycle delta to the cycle-accounting buckets, the
//! cores, and the NoC links that moved, sorted by magnitude with fixed
//! tie-breaks.
//!
//! `clp-bench --check --explain` uses [`attribute_buckets`] to turn a
//! bare threshold miss into an explanation; the `clp-diff` binary wraps
//! [`diff_documents`] for any two files.

use crate::profile::Bucket;
use serde::Value;

/// Which pinned document schema a JSON value carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DocKind {
    /// A serialized `StatsSnapshot` (stats-registry tree).
    Snapshot,
    /// A `clp-prof-v1` profile (bare report or the CLI's `runs` wrapper).
    Prof,
    /// A `clp-bench-v1` suite matrix (`BENCH_baseline.json`).
    Bench,
    /// A `clp-trend-v1` time series.
    Trend,
    /// A `clp-scope-v1` service observability report.
    Scope,
}

impl DocKind {
    /// Stable label for rendering.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DocKind::Snapshot => "stats-snapshot",
            DocKind::Prof => "clp-prof-v1",
            DocKind::Bench => "clp-bench-v1",
            DocKind::Trend => "clp-trend-v1",
            DocKind::Scope => "clp-scope-v1",
        }
    }
}

/// Identifies which pinned schema `doc` carries.
#[must_use]
pub fn detect_kind(doc: &Value) -> Option<DocKind> {
    match doc.get("schema").as_str() {
        Some("clp-prof-v1") => return Some(DocKind::Prof),
        Some("clp-bench-v1") => return Some(DocKind::Bench),
        Some("clp-trend-v1") => return Some(DocKind::Trend),
        Some("clp-scope-v1") => return Some(DocKind::Scope),
        _ => {}
    }
    // A snapshot has no schema tag; recognize its fixed shape.
    if doc.get("root").get("name").as_str().is_some() && doc.get("cycles").as_u64().is_some() {
        return Some(DocKind::Snapshot);
    }
    None
}

/// One attributed difference: a labeled quantity that moved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEntry {
    /// What moved (bucket label, `core 7`, `link 3 -> 7`, or a
    /// stats-registry path).
    pub label: String,
    /// Value in the first (baseline) document.
    pub before: u64,
    /// Value in the second document.
    pub after: u64,
}

impl DiffEntry {
    /// Signed movement `after - before`.
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.after as i64 - self.before as i64
    }
}

/// Where a cycle delta went: the buckets, cores, links, and counters
/// that moved between two documents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttributionReport {
    /// The schemas compared (label of [`DocKind`]).
    pub kind: String,
    /// Total cycles `(before, after)` when both documents carry one.
    pub cycles: Option<(u64, u64)>,
    /// Cycle-accounting buckets that moved, by |delta| descending.
    pub buckets: Vec<DiffEntry>,
    /// Per-core critical-cycle attribution that moved.
    pub cores: Vec<DiffEntry>,
    /// Directed NoC links whose critical cycles moved.
    pub links: Vec<DiffEntry>,
    /// Other counters that moved (stats paths, bench cells).
    pub metrics: Vec<DiffEntry>,
}

/// Sorts entries by |delta| descending, then label ascending (fixed
/// tie-break), and drops entries that did not move.
fn rank(mut entries: Vec<DiffEntry>) -> Vec<DiffEntry> {
    entries.retain(|e| e.before != e.after);
    entries.sort_by(|a, b| {
        b.delta()
            .unsigned_abs()
            .cmp(&a.delta().unsigned_abs())
            .then(a.label.cmp(&b.label))
    });
    entries
}

impl AttributionReport {
    /// Whether nothing moved at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
            && self.cores.is_empty()
            && self.links.is_empty()
            && self.metrics.is_empty()
    }

    /// Human-readable attribution, largest movers first. `top` bounds
    /// each section (0 means unbounded).
    #[must_use]
    pub fn render(&self, top: usize) -> String {
        let take = |v: &[DiffEntry]| -> Vec<DiffEntry> {
            let n = if top == 0 { v.len() } else { top.min(v.len()) };
            v[..n].to_vec()
        };
        let mut out = String::new();
        if let Some((b, a)) = self.cycles {
            let d = a as i64 - b as i64;
            out.push_str(&format!("cycles: {b} -> {a} ({d:+})\n"));
        }
        let mut section = |title: &str, entries: &[DiffEntry]| {
            if entries.is_empty() {
                return;
            }
            out.push_str(&format!("{title}:\n"));
            for e in take(entries) {
                out.push_str(&format!(
                    "  {:<24} {:>10} -> {:<10} ({:+})\n",
                    e.label,
                    e.before,
                    e.after,
                    e.delta()
                ));
            }
        };
        section("buckets", &self.buckets);
        section("cores", &self.cores);
        section("links", &self.links);
        section("metrics", &self.metrics);
        if self.is_empty() {
            out.push_str("(no movement attributed)\n");
        }
        out
    }
}

/// Diffs two bucket objects (`{"fetch": 1, ...}`), returning the moved
/// buckets ranked by |delta|. Used directly by `clp-bench --explain`.
#[must_use]
pub fn attribute_buckets(before: &Value, after: &Value) -> Vec<DiffEntry> {
    let get = |v: &Value, label: &str| v.get(label).as_u64().unwrap_or(0);
    rank(
        Bucket::ALL
            .iter()
            .map(|b| DiffEntry {
                label: b.label().to_string(),
                before: get(before, b.label()),
                after: get(after, b.label()),
            })
            .collect(),
    )
}

/// Diffs two documents of the same pinned schema.
///
/// # Errors
///
/// Returns a message if either document's schema is unrecognized or the
/// two schemas differ.
pub fn diff_documents(a: &Value, b: &Value) -> Result<AttributionReport, String> {
    let ka = detect_kind(a).ok_or_else(|| "first document has no recognized schema".to_string())?;
    let kb =
        detect_kind(b).ok_or_else(|| "second document has no recognized schema".to_string())?;
    if ka != kb {
        return Err(format!("cannot diff {} against {}", ka.label(), kb.label()));
    }
    let mut report = match ka {
        DocKind::Snapshot => diff_snapshots(a, b),
        DocKind::Prof => diff_profiles(a, b),
        DocKind::Bench => diff_bench(a, b),
        DocKind::Trend => diff_trend(a, b),
        DocKind::Scope => diff_scope(a, b),
    };
    report.kind = ka.label().to_string();
    Ok(report)
}

// -- snapshot trees ---------------------------------------------------------

/// Collects every `Count` metric of a serialized `StatsNode` into
/// `(path, value)` pairs.
fn flatten_counts(node: &Value, prefix: &str, out: &mut Vec<(String, u64)>) {
    if let Some(metrics) = node.get("metrics").as_array() {
        for m in metrics {
            let Some(name) = m.get("name").as_str() else {
                continue;
            };
            // MetricValue serializes as {"Count": n} or {"Gauge": x}.
            if let Some(c) = m.get("value").get("Count").as_u64() {
                let path = if prefix.is_empty() {
                    name.to_string()
                } else {
                    format!("{prefix}/{name}")
                };
                out.push((path, c));
            }
        }
    }
    if let Some(children) = node.get("children").as_array() {
        for c in children {
            let Some(name) = c.get("name").as_str() else {
                continue;
            };
            let path = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}/{name}")
            };
            flatten_counts(c, &path, out);
        }
    }
}

fn paired(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    for (path, b) in before {
        let a = after
            .iter()
            .find(|(p, _)| p == path)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        out.push(DiffEntry {
            label: path.clone(),
            before: *b,
            after: a,
        });
    }
    for (path, a) in after {
        if !before.iter().any(|(p, _)| p == path) {
            out.push(DiffEntry {
                label: path.clone(),
                before: 0,
                after: *a,
            });
        }
    }
    out
}

fn diff_snapshots(a: &Value, b: &Value) -> AttributionReport {
    let mut fa = Vec::new();
    let mut fb = Vec::new();
    flatten_counts(a.get("root"), "", &mut fa);
    flatten_counts(b.get("root"), "", &mut fb);
    let all = paired(&fa, &fb);
    // Profile buckets (present when the run was profiled) get their own
    // section; everything else lands in metrics.
    let is_bucket = |label: &str| {
        label
            .strip_prefix("profile/buckets/")
            .is_some_and(|l| Bucket::ALL.iter().any(|b| b.label() == l))
    };
    let (bucket_entries, metrics): (Vec<_>, Vec<_>) =
        all.into_iter().partition(|e| is_bucket(&e.label));
    let buckets = bucket_entries
        .into_iter()
        .map(|e| DiffEntry {
            label: e.label.trim_start_matches("profile/buckets/").to_string(),
            ..e
        })
        .collect();
    AttributionReport {
        cycles: match (a.get("cycles").as_u64(), b.get("cycles").as_u64()) {
            (Some(x), Some(y)) => Some((x, y)),
            _ => None,
        },
        buckets: rank(buckets),
        metrics: rank(metrics),
        ..AttributionReport::default()
    }
}

// -- clp-prof reports -------------------------------------------------------

/// Extracts the bare report object, unwrapping the CLI's
/// `{"runs": [{"profile": ...}]}` shape down to its first run.
fn prof_report(doc: &Value) -> Value {
    if let Some(runs) = doc.get("runs").as_array() {
        if let Some(first) = runs.first() {
            return first.get("profile").clone();
        }
    }
    doc.clone()
}

fn summed_run_buckets(report: &Value) -> Value {
    let mut sums = vec![0u64; Bucket::ALL.len()];
    if let Some(procs) = report.get("procs").as_array() {
        for p in procs {
            for (i, b) in Bucket::ALL.iter().enumerate() {
                sums[i] += p.get("run_buckets").get(b.label()).as_u64().unwrap_or(0);
            }
        }
    }
    Value::Object(
        Bucket::ALL
            .iter()
            .zip(sums)
            .map(|(b, s)| (b.label().to_string(), Value::UInt(s)))
            .collect(),
    )
}

fn diff_profiles(a: &Value, b: &Value) -> AttributionReport {
    let (ra, rb) = (prof_report(a), prof_report(b));
    let buckets = attribute_buckets(&summed_run_buckets(&ra), &summed_run_buckets(&rb));
    let core_list = |r: &Value| -> Vec<u64> {
        r.get("cores")
            .as_array()
            .map(|v| v.iter().map(|c| c.as_u64().unwrap_or(0)).collect())
            .unwrap_or_default()
    };
    let (ca, cb) = (core_list(&ra), core_list(&rb));
    let cores = rank(
        (0..ca.len().max(cb.len()))
            .map(|i| DiffEntry {
                label: format!("core {i}"),
                before: ca.get(i).copied().unwrap_or(0),
                after: cb.get(i).copied().unwrap_or(0),
            })
            .collect(),
    );
    let link_list = |r: &Value| -> Vec<(String, u64)> {
        r.get("links")
            .as_array()
            .map(|v| {
                v.iter()
                    .filter_map(|l| {
                        let from = l.get("from").as_u64()?;
                        let to = l.get("to").as_u64()?;
                        let cycles = l.get("cycles").as_u64()?;
                        Some((format!("link {from} -> {to}"), cycles))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let links = rank(paired(&link_list(&ra), &link_list(&rb)));
    AttributionReport {
        cycles: match (ra.get("elapsed").as_u64(), rb.get("elapsed").as_u64()) {
            (Some(x), Some(y)) => Some((x, y)),
            _ => None,
        },
        buckets,
        cores,
        links,
        ..AttributionReport::default()
    }
}

// -- clp-bench matrices -----------------------------------------------------

/// Cells of a `clp-bench-v1` document as
/// `(workload x cores, cycles, buckets)`.
fn bench_cells(doc: &Value) -> Vec<(String, u64, Value)> {
    let mut out = Vec::new();
    if let Some(workloads) = doc.get("workloads").as_array() {
        for w in workloads {
            let Some(name) = w.get("name").as_str() else {
                continue;
            };
            if let Some(runs) = w.get("runs").as_array() {
                for r in runs {
                    if let (Some(cores), Some(cycles)) =
                        (r.get("cores").as_u64(), r.get("cycles").as_u64())
                    {
                        out.push((format!("{name} x{cores}"), cycles, r.get("buckets").clone()));
                    }
                }
            }
        }
    }
    out
}

fn diff_bench(a: &Value, b: &Value) -> AttributionReport {
    let (ca, cb) = (bench_cells(a), bench_cells(b));
    let mut metrics = Vec::new();
    let mut bucket_sums: Vec<DiffEntry> = Bucket::ALL
        .iter()
        .map(|b| DiffEntry {
            label: b.label().to_string(),
            before: 0,
            after: 0,
        })
        .collect();
    for (label, before, before_buckets) in &ca {
        let Some((_, after, after_buckets)) = cb.iter().find(|(l, ..)| l == label) else {
            continue;
        };
        metrics.push(DiffEntry {
            label: label.clone(),
            before: *before,
            after: *after,
        });
        if before == after {
            continue;
        }
        // Aggregate bucket movement over the cells that moved.
        for (i, b) in Bucket::ALL.iter().enumerate() {
            bucket_sums[i].before += before_buckets.get(b.label()).as_u64().unwrap_or(0);
            bucket_sums[i].after += after_buckets.get(b.label()).as_u64().unwrap_or(0);
        }
    }
    AttributionReport {
        buckets: rank(bucket_sums),
        metrics: rank(metrics),
        ..AttributionReport::default()
    }
}

// -- clp-trend series -------------------------------------------------------

fn diff_trend(a: &Value, b: &Value) -> AttributionReport {
    let bucket_totals = |doc: &Value| -> Value {
        Value::Object(
            Bucket::ALL
                .iter()
                .map(|bk| {
                    let total = doc
                        .get("buckets")
                        .get(bk.label())
                        .as_array()
                        .map(|v| v.iter().map(|x| x.as_u64().unwrap_or(0)).sum())
                        .unwrap_or(0u64);
                    (bk.label().to_string(), Value::UInt(total))
                })
                .collect(),
        )
    };
    let scalar = |doc: &Value, key: &str| doc.get(key).as_u64().unwrap_or(0);
    let metrics = rank(
        ["intervals", "period"]
            .iter()
            .map(|k| DiffEntry {
                label: k.to_string(),
                before: scalar(a, k),
                after: scalar(b, k),
            })
            .chain(std::iter::once(DiffEntry {
                label: "phases".to_string(),
                before: a.get("phases").as_array().map_or(0, |p| p.len() as u64),
                after: b.get("phases").as_array().map_or(0, |p| p.len() as u64),
            }))
            .collect(),
    );
    AttributionReport {
        cycles: Some((scalar(a, "cycles"), scalar(b, "cycles"))),
        buckets: attribute_buckets(&bucket_totals(a), &bucket_totals(b)),
        metrics,
        ..AttributionReport::default()
    }
}

// -- clp-scope service reports ----------------------------------------------

fn diff_scope(a: &Value, b: &Value) -> AttributionReport {
    // Fleet attribution: total simulated cycles, the fleet bucket book,
    // and the per-class / per-composition-size rollups as metrics.
    let rollups = |doc: &Value| -> Vec<(String, u64)> {
        let mut out = Vec::new();
        if let Some(classes) = doc.get("fleet").get("by_class").as_array() {
            for c in classes {
                if let (Some(l), Some(cyc)) =
                    (c.get("label").as_str(), c.get("sim_cycles").as_u64())
                {
                    out.push((format!("class {l}"), cyc));
                }
            }
        }
        if let Some(sizes) = doc.get("fleet").get("by_cores").as_array() {
            for c in sizes {
                if let (Some(n), Some(cyc)) =
                    (c.get("cores").as_u64(), c.get("sim_cycles").as_u64())
                {
                    out.push((format!("composition x{n}"), cyc));
                }
            }
        }
        for (label, key) in [("workers", "workers"), ("drained_at", "drained_at")] {
            out.push((label.to_string(), doc.get(key).as_u64().unwrap_or(0)));
        }
        out.push((
            "jobs".to_string(),
            doc.get("jobs").as_array().map_or(0, |j| j.len() as u64),
        ));
        out.push((
            "completed".to_string(),
            doc.get("fleet").get("jobs").as_u64().unwrap_or(0),
        ));
        out
    };
    AttributionReport {
        cycles: match (
            a.get("fleet").get("sim_cycles").as_u64(),
            b.get("fleet").get("sim_cycles").as_u64(),
        ) {
            (Some(x), Some(y)) => Some((x, y)),
            _ => None,
        },
        buckets: attribute_buckets(a.get("fleet").get("buckets"), b.get("fleet").get("buckets")),
        metrics: rank(paired(&rollups(a), &rollups(b))),
        ..AttributionReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket_obj(pairs: &[(&str, u64)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), Value::UInt(v)))
                .collect(),
        )
    }

    #[test]
    fn bucket_attribution_ranks_by_magnitude() {
        let before = bucket_obj(&[("fetch", 100), ("mem_wait", 50), ("execute", 10)]);
        let after = bucket_obj(&[("fetch", 110), ("mem_wait", 500), ("execute", 10)]);
        let moved = attribute_buckets(&before, &after);
        assert_eq!(moved.len(), 2);
        assert_eq!(moved[0].label, "mem_wait");
        assert_eq!(moved[0].delta(), 450);
        assert_eq!(moved[1].label, "fetch");
    }

    #[test]
    fn detect_kind_recognizes_the_pinned_schemas() {
        let prof = Value::Object(vec![(
            "schema".to_string(),
            Value::String("clp-prof-v1".to_string()),
        )]);
        assert_eq!(detect_kind(&prof), Some(DocKind::Prof));
        let snap = Value::Object(vec![
            ("cycles".to_string(), Value::UInt(7)),
            (
                "root".to_string(),
                Value::Object(vec![("name".to_string(), Value::String("run".to_string()))]),
            ),
        ]);
        assert_eq!(detect_kind(&snap), Some(DocKind::Snapshot));
        assert_eq!(detect_kind(&Value::Null), None);
        assert!(diff_documents(&prof, &snap).is_err());
    }

    #[test]
    fn scope_diff_attributes_the_fleet_movement() {
        let doc = |sim: u64, spec_int: u64, memw: u64| {
            Value::Object(vec![
                (
                    "schema".to_string(),
                    Value::String("clp-scope-v1".to_string()),
                ),
                ("workers".to_string(), Value::UInt(4)),
                ("drained_at".to_string(), Value::UInt(9000)),
                ("jobs".to_string(), Value::Array(vec![Value::Null; 3])),
                (
                    "fleet".to_string(),
                    Value::Object(vec![
                        ("jobs".to_string(), Value::UInt(3)),
                        ("sim_cycles".to_string(), Value::UInt(sim)),
                        (
                            "buckets".to_string(),
                            bucket_obj(&[("mem_wait", memw), ("fetch", 10)]),
                        ),
                        (
                            "by_class".to_string(),
                            Value::Array(vec![Value::Object(vec![
                                ("label".to_string(), Value::String("spec_int".to_string())),
                                ("sim_cycles".to_string(), Value::UInt(spec_int)),
                            ])]),
                        ),
                        (
                            "by_cores".to_string(),
                            Value::Array(vec![Value::Object(vec![
                                ("cores".to_string(), Value::UInt(4)),
                                ("sim_cycles".to_string(), Value::UInt(spec_int)),
                            ])]),
                        ),
                    ]),
                ),
            ])
        };
        let report = diff_documents(&doc(1000, 600, 100), &doc(1500, 1100, 400)).expect("diffs");
        assert_eq!(report.kind, "clp-scope-v1");
        assert_eq!(report.cycles, Some((1000, 1500)));
        assert_eq!(report.buckets[0].label, "mem_wait");
        assert_eq!(report.buckets[0].delta(), 300);
        assert!(report
            .metrics
            .iter()
            .any(|e| e.label == "class spec_int" && e.delta() == 500));
        assert!(report.metrics.iter().any(|e| e.label == "composition x4"));
    }

    #[test]
    fn bench_diff_names_the_moved_cell_and_buckets() {
        let doc = |cycles: u64, memw: u64| {
            Value::Object(vec![
                (
                    "schema".to_string(),
                    Value::String("clp-bench-v1".to_string()),
                ),
                (
                    "workloads".to_string(),
                    Value::Array(vec![Value::Object(vec![
                        ("name".to_string(), Value::String("conv".to_string())),
                        (
                            "runs".to_string(),
                            Value::Array(vec![Value::Object(vec![
                                ("cores".to_string(), Value::UInt(4)),
                                ("cycles".to_string(), Value::UInt(cycles)),
                                (
                                    "buckets".to_string(),
                                    bucket_obj(&[("mem_wait", memw), ("fetch", 10)]),
                                ),
                            ])]),
                        ),
                    ])]),
                ),
            ])
        };
        let report = diff_documents(&doc(1000, 100), &doc(1400, 480)).expect("diffs");
        assert_eq!(report.kind, "clp-bench-v1");
        assert_eq!(report.metrics[0].label, "conv x4");
        assert_eq!(report.metrics[0].delta(), 400);
        assert_eq!(report.buckets[0].label, "mem_wait");
        let text = report.render(3);
        assert!(text.contains("conv x4"));
        assert!(text.contains("mem_wait"));
    }
}
