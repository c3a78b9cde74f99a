//! The clp-diff walker and the golden gate, from outside the crate.
//!
//! Worked examples first: the gate on small `clp-bench-v1` documents
//! (equal, a leaf raised, lowered, a bucket moved at equal cycles, a
//! cell added, a cell removed), and the walker on a lint report, a
//! `clp-bound-v1`, a `clp-serve-v1` and a `clp-trend-v1`-shaped
//! document. Then the properties: the walker reads files from outside
//! the program, so over arbitrary pairs of JSON trees — schema-shaped or
//! not — it must never panic, must find nothing between a document and
//! itself, must list every integer leaf that moved exactly once with
//! both values, and must rank by |delta| descending, then path
//! ascending.

use clp_obs::{check_golden, diff_documents};
use proptest::prelude::*;
use serde_json::{json, Value};

fn bench(cells: &[(u64, u64, u64, u64)]) -> String {
    let runs: Vec<Value> = cells
        .iter()
        .map(|&(cores, cycles, fetch, mem_wait)| {
            json!({"cores": cores, "cycles": cycles, "ipc": 0.5,
                   "buckets": {"fetch": fetch, "mem_wait": mem_wait}})
        })
        .collect();
    let doc = json!({"schema": "clp-bench-v1", "workloads": [{"name": "conv", "runs": runs}]});
    serde_json::to_string_pretty(&doc).expect("serializes")
}

#[test]
fn the_gate_is_equality_and_names_what_moved_either_way() {
    let golden = bench(&[(1, 1000, 600, 400), (4, 500, 300, 200)]);
    assert_eq!(check_golden(&golden, &golden), Ok(()));
    assert_eq!(check_golden(&format!("{golden}\n"), &golden), Ok(()));
    let cell = "workloads[name=conv]/runs[cores=4]";
    let miss =
        |fresh: &[(u64, u64, u64, u64)]| check_golden(&golden, &bench(fresh)).expect_err("differs");
    // One integer leaf raised, then lowered.
    let raised = miss(&[(1, 1000, 600, 400), (4, 900, 300, 200)]);
    assert!(raised.contains(&format!("{cell}/cycles  500 -> 900 (+400)")));
    let lowered = miss(&[(1, 1000, 600, 400), (4, 100, 300, 200)]);
    assert!(lowered.contains(&format!("{cell}/cycles  500 -> 100 (-400)")));
    // A bucket moved at equal cycles.
    let moved = miss(&[(1, 1000, 600, 400), (4, 500, 250, 250)]);
    assert!(moved.starts_with("buckets:\n"), "{moved}");
    assert!(moved.contains(&format!("{cell}/buckets/fetch     300 -> 250 (-50)")));
    assert!(!moved.contains("/cycles"));
    // A cell added, a cell removed.
    let added = miss(&[(1, 1000, 600, 400), (4, 500, 300, 200), (8, 70, 40, 30)]);
    assert!(added.contains("workloads[name=conv]/runs[cores=8]/cycles  - -> 70 (+70)"));
    let removed = miss(&[(1, 1000, 600, 400)]);
    assert!(removed.contains(&format!("{cell}/cycles  500 -> - (-500)")));
    // Not JSON, and JSON that differs only in layout.
    assert!(check_golden("{", &golden)
        .expect_err("malformed")
        .contains("committed"));
    assert!(check_golden("{\"a\": 1, \"b\": 2}", "{\"b\": 2, \"a\": 1}")
        .expect_err("reordered")
        .contains("same leaves"));
}

#[test]
fn rows_rank_by_magnitude_then_path_and_text_leaves_come_last() {
    let a = json!({"x": 10, "y": 10, "z": 10, "f": 0.5, "s": "old", "gone": 0});
    let b = json!({"x": 15, "y": 5, "z": 110, "f": 0.25, "s": 7});
    let report = diff_documents(&a, &b);
    let order: Vec<_> = report.entries().map(|e| e.label.as_str()).collect();
    assert_eq!(order, ["z", "x", "y", "gone"]);
    assert_eq!(report.section("metrics")[3].after, None);
    let text = report.render(0);
    assert!(text.ends_with("other:\n  f  0.5 -> 0.25\n  s  \"old\" -> 7\n"));
    assert!(report.render(1).contains("... and 3 more"));
    assert!(diff_documents(&a, &a).is_empty());
    assert_eq!(
        diff_documents(&a, &a).render(5),
        "(no movement attributed)\n"
    );
}

#[test]
fn arrays_key_by_identifying_fields_else_by_index() {
    // Non-unique `name`s (a lint report's diagnostics) go by index.
    let lint = |infos: u64, inst: u64| {
        json!({"errors": 0, "infos": infos, "diagnostics": [
            {"code": "L302", "name": "long-operand-route", "block": 66560, "inst": inst,
             "message": "crosses 7 hops", "notes": ["each hop adds a cycle"]},
            {"code": "L302", "name": "long-operand-route", "block": 66560, "inst": 20}]})
    };
    let report = diff_documents(&lint(2, 19), &lint(3, 21));
    let moved: Vec<_> = report.entries().map(|e| e.label.as_str()).collect();
    assert_eq!(moved, ["diagnostics[0]/inst", "infos"]);

    // clp-bound-v1: cells by (workload, cores), curves by workload;
    // a float leaf that differs is an `other` row.
    let bound = |measured: u64, speedup: f64| {
        json!({"schema": "clp-bound-v1", "cores": [1, 2], "cells": [
            {"workload": "conv", "cores": 1, "bound": 40, "measured": 90, "tightness": 2.25},
            {"workload": "conv", "cores": 2, "bound": 30, "measured": measured}],
            "curves": [{"workload": "conv", "speedup": {"1": 1.0, "2": speedup}}]})
    };
    let report = diff_documents(&bound(60, 1.5), &bound(64, 1.25));
    assert_eq!(
        report.section("metrics")[0].label,
        "cells[workload=conv,cores=2]/measured"
    );
    assert_eq!(report.other[0].label, "curves[workload=conv]/speedup/2");

    // clp-serve-v1: jobs by id; an enum-shaped outcome is a path.
    let serve = |completed: u64, cycles: u64| {
        json!({"schema": "clp-serve-v1", "totals": {"completed": completed},
            "latency_ticks": {"p99": null}, "jobs": [
            {"id": 0, "workload": "twolf", "outcome": {"Completed": {"cycles": cycles}}},
            {"id": 1, "workload": "conv", "outcome": {"Rejected": "ZeroBudget"}}]})
    };
    let report = diff_documents(&serve(1, 21713), &serve(2, 21700));
    let moved: Vec<_> = report.entries().map(|e| e.label.as_str()).collect();
    assert_eq!(
        moved,
        ["jobs[id=0]/outcome/Completed/cycles", "totals/completed"]
    );
}

#[test]
fn sections_follow_the_path_not_the_schema() {
    // clp-trend-v1 columns, a clp-prof-v1 core row and link, and a
    // stats-snapshot bucket metric, all in one made-up document.
    let doc = |n: u64| {
        json!({"schema": "clp-trend-v1", "cycles": (100 + n), "ends": [50, (100 + n)],
            "columns": [{"path": "mem/l1d_misses", "kind": "count", "values": [3, n]}],
            "buckets": {"fetch": [10, 20], "mem_wait": [5, (5 + n)]},
            "heat": [[1, 2], [3, (4 + n)]],
            "phases": [{"start_interval": 0, "dominant": "fetch", "buckets": {"fetch": (30 + n)}}],
            "cores": [7, n],
            "links": [{"from": 3, "to": 7, "cycles": n}],
            "root": {"name": "run", "children": [{"name": "profile", "children": [
                {"name": "buckets", "metrics": [{"name": "mem_wait", "value": {"Count": n}}]}]}]}})
    };
    let report = diff_documents(&doc(1), &doc(9));
    let labels = |title| -> Vec<_> {
        let rows = report.section(title).iter();
        rows.map(|e| e.label.as_str()).collect()
    };
    assert_eq!(
        labels("buckets"),
        [
            "buckets/mem_wait[1]",
            "phases[0]/buckets/fetch",
            "root/children[name=profile]/children[name=buckets]/metrics[name=mem_wait]/value/Count"
        ]
    );
    assert_eq!(labels("cores"), ["cores[1]", "heat[1][1]"]);
    assert_eq!(labels("links"), ["links[from=3,to=7]/cycles"]);
    assert_eq!(
        labels("metrics"),
        [
            "columns[path=mem/l1d_misses]/values[1]",
            "cycles",
            "ends[1]"
        ]
    );
    assert!(report.entries().all(|e| e.delta() == 8));
}

/// The walker's array-key and section vocabulary plus two plain keys:
/// keyed arrays, duplicate keys, the index fallback and section routing
/// all occur.
const ANY_KEYS: &[&str] = &[
    "name", "id", "cores", "workload", "from", "to", "buckets", "links", "cycles", "a", "b",
];
/// No array-key field: every array goes by index, so moving a leaf
/// never moves a path.
const PLAIN_KEYS: &[&str] = &["buckets", "links", "heat", "cycles", "a", "b"];

/// JSON trees over `keys`; `unique` drops an object's repeated keys
/// (which a well-formed document never has).
fn arb_value(keys: &'static [&'static str], unique: bool) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (0u64..6).prop_map(Value::UInt),
        any::<u64>().prop_map(Value::UInt),
        any::<i64>().prop_map(Value::Int),
        (0u32..8).prop_map(|n| Value::Float(f64::from(n) / 4.0)),
        prop::sample::select(vec!["conv", "ct", "x/y", "[0]", ""])
            .prop_map(|s| Value::String(s.to_string())),
    ];
    leaf.prop_recursive(4, 64, 6, move |inner| {
        let key = prop::sample::select(keys.to_vec()).prop_map(str::to_string);
        let object =
            prop::collection::vec((key, inner.clone()), 0..7).prop_map(move |mut fields| {
                if unique {
                    fields.sort_by(|a, b| a.0.cmp(&b.0));
                    fields.dedup_by(|a, b| a.0 == b.0);
                }
                Value::Object(fields)
            });
        prop_oneof![
            prop::collection::vec(inner, 0..6).prop_map(Value::Array),
            object,
        ]
    })
}

/// `v`'s integer leaves in walk order.
fn int_leaves(v: &Value, out: &mut Vec<i128>) {
    match v {
        Value::Int(i) => out.push(i128::from(*i)),
        Value::UInt(u) => out.push(i128::from(*u)),
        Value::Array(items) => items.iter().for_each(|c| int_leaves(c, out)),
        Value::Object(fields) => fields.iter().for_each(|(_, c)| int_leaves(c, out)),
        _ => {}
    }
}

/// `v` with its integer leaves replaced, in walk order, by `with`.
fn replace_ints(v: &Value, with: &mut impl Iterator<Item = i128>) -> Value {
    match v {
        Value::Int(_) | Value::UInt(_) => {
            let n = with.next().expect("one per leaf");
            u64::try_from(n).map_or_else(|_| Value::Int(n as i64), Value::UInt)
        }
        Value::Array(items) => Value::Array(items.iter().map(|c| replace_ints(c, with)).collect()),
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .map(|(k, c)| (k.clone(), replace_ints(c, with)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn any_pair_diffs_without_panicking_and_in_rank_order(
        a in arb_value(ANY_KEYS, false),
        b in arb_value(ANY_KEYS, false),
    ) {
        let report = diff_documents(&a, &b);
        for (_, rows) in &report.sections {
            for pair in rows.windows(2) {
                let (x, y) = (&pair[0], &pair[1]);
                let (dx, dy) = (x.delta().unsigned_abs(), y.delta().unsigned_abs());
                prop_assert!(dx > dy || (dx == dy && x.label <= y.label), "{x:?} before {y:?}");
            }
            for e in rows {
                prop_assert_ne!(e.before, e.after);
            }
        }
        let _ = report.render(3);
        prop_assert!(diff_documents(&a, &a).is_empty());
        let text = |v: &Value| format!("{v:#}");
        prop_assert_eq!(check_golden(&text(&a), &text(&a)), Ok(()));
        prop_assert_eq!(check_golden(&text(&a), &text(&b)).is_ok(), text(&a) == text(&b));
    }

    #[test]
    fn every_moved_integer_leaf_is_listed_exactly_once(
        a in arb_value(PLAIN_KEYS, true),
        bumps in prop::collection::vec(-3i64..4, 64),
    ) {
        // `b` is `a` with some of its integer leaves moved.
        let mut before = Vec::new();
        int_leaves(&a, &mut before);
        let bump = bumps.iter().cycle().map(|&b| i128::from(b));
        let after: Vec<i128> = before
            .iter()
            .zip(bump)
            .map(|(v, bump)| (v + bump).clamp(i128::from(i64::MIN), i128::from(u64::MAX)))
            .collect();
        let b = replace_ints(&a, &mut after.iter().copied());
        let report = diff_documents(&a, &b);
        prop_assert!(report.other.is_empty(), "only integers moved: {:?}", report.other);

        // The rows are the moved leaves, each once, with both values.
        let moved = before.iter().zip(&after).filter(|(old, new)| old != new);
        let mut want: Vec<(i128, i128)> = moved.map(|(old, new)| (*old, *new)).collect();
        let rows = report.entries().map(|e| Some((e.before?, e.after?)));
        let mut got = rows.collect::<Option<Vec<_>>>().expect("no leaf appeared or vanished");
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, want);
        let mut labels: Vec<&str> = report.entries().map(|e| e.label.as_str()).collect();
        labels.sort_unstable();
        let rows = labels.len();
        labels.dedup();
        prop_assert_eq!(labels.len(), rows, "a path is listed twice");
    }
}
