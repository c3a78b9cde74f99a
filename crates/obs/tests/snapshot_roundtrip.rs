//! Serde round-trips and path lookups for the stats registry.

use clp_obs::{MetricValue, StatsNode, StatsSnapshot};

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

#[test]
fn json_round_trip_preserves_everything() {
    let snap = sample_snapshot();
    let text = snap.to_json();
    let back = StatsSnapshot::from_json(&text).expect("parses");
    assert_eq!(snap, back);
}

#[test]
fn empty_snapshot_round_trips() {
    let snap = StatsSnapshot::default();
    let back = StatsSnapshot::from_json(&snap.to_json()).expect("parses");
    assert_eq!(snap, back);
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
fn metric_kinds_survive_the_trip() {
    let snap = sample_snapshot();
    let back = StatsSnapshot::from_json(&snap.to_json()).expect("parses");
    let proc0 = back.root.get_child("proc0").expect("child");
    assert_eq!(
        proc0.get_metric("blocks_committed"),
        Some(MetricValue::Count(42))
    );
    assert_eq!(proc0.get_metric("ipc"), Some(MetricValue::Gauge(1.75)));
}

#[test]
#[should_panic(expected = "proc9/ipc")]
fn expect_names_the_missing_path() {
    let _ = sample_snapshot().expect("proc9/ipc");
}
