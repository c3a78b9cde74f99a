//! The stats registry's JSON text and path lookups.

use clp_obs::{StatsNode, StatsSnapshot};
use serde_json::{ToValue, Value};

fn sample_snapshot() -> StatsSnapshot {
    let root = StatsNode::new("run")
        .count("cycles", 12345)
        .child(
            StatsNode::new("proc0")
                .count("blocks_committed", 42)
                .gauge("ipc", 1.75)
                .child(StatsNode::new("predictor").count("predictions", 99)),
        )
        .child(
            StatsNode::new("mem")
                .count("l1d_hits", 7)
                .gauge("l1d_hit_rate", 0.875),
        );
    StatsSnapshot {
        cycles: 12345,
        root,
    }
}

/// The snapshot's JSON text, parsed back as an untyped value.
fn parsed(snap: &StatsSnapshot) -> Value {
    serde_json::from_str(&snap.to_json()).expect("parses")
}

#[test]
fn json_text_parses_back_to_the_same_value() {
    let snap = sample_snapshot();
    assert_eq!(parsed(&snap), snap.to_value());
}

#[test]
fn empty_snapshot_parses_back_to_the_same_value() {
    let snap = StatsSnapshot::default();
    assert_eq!(parsed(&snap), snap.to_value());
}

#[test]
fn path_lookup_resolves_nested_metrics() {
    let snap = sample_snapshot();
    assert_eq!(snap.get("cycles"), Some(12345.0));
    assert_eq!(snap.get("proc0/blocks_committed"), Some(42.0));
    assert_eq!(snap.get("proc0/predictor/predictions"), Some(99.0));
    assert_eq!(snap.get("mem/l1d_hit_rate"), Some(0.875));
    assert_eq!(snap.get("mem/missing"), None);
    assert_eq!(snap.get("nope/l1d_hits"), None);
}

#[test]
fn metric_kinds_are_tagged_in_the_json() {
    let v = parsed(&sample_snapshot());
    let proc0 = &v["root"]["children"][0];
    assert_eq!(proc0["name"].as_str(), Some("proc0"));
    assert_eq!(proc0["metrics"][0]["value"]["Count"].as_u64(), Some(42));
    assert_eq!(proc0["metrics"][1]["value"]["Gauge"].as_f64(), Some(1.75));
}

#[test]
#[should_panic(expected = "proc9/ipc")]
fn expect_names_the_missing_path() {
    let _ = sample_snapshot().expect("proc9/ipc");
}
