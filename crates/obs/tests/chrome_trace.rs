//! The recorder's Chrome trace view: the output must be valid JSON in
//! the trace-event format, with non-decreasing timestamps and paired
//! async begin/end records for block lifecycles.

use clp_obs::{CacheLevel, FlushReason, RingRecorder, TraceEvent};
use serde_json::Value;

fn record_golden_run(w: &mut RingRecorder) {
    let events: [(u64, TraceEvent); 10] = [
        (
            1,
            TraceEvent::BlockFetched {
                proc: 0,
                core: 2,
                addr: 0x1000,
                speculative: false,
            },
        ),
        (
            3,
            TraceEvent::BlockPredicted {
                core: 2,
                addr: 0x1000,
                target: 0x1200,
            },
        ),
        (
            5,
            TraceEvent::InstIssued {
                proc: 0,
                core: 2,
                block: 0x1000,
                inst: 0,
                opcode: "add",
            },
        ),
        (
            6,
            TraceEvent::OperandRouted {
                plane: "operand",
                src: 2,
                dst: 5,
                latency: 3,
            },
        ),
        (
            7,
            TraceEvent::CacheMiss {
                level: CacheLevel::L1D,
                bank: 5,
                addr: 0x8000,
                writeback: false,
            },
        ),
        (
            8,
            TraceEvent::LsqNack {
                bank: 5,
                addr: 0x8008,
            },
        ),
        (
            9,
            TraceEvent::FetchHandoff {
                proc: 0,
                from_core: 2,
                to_core: 4,
                addr: 0x1200,
            },
        ),
        (
            11,
            TraceEvent::BlockFetched {
                proc: 0,
                core: 4,
                addr: 0x1200,
                speculative: true,
            },
        ),
        (
            14,
            TraceEvent::BlockCommitted {
                proc: 0,
                core: 2,
                addr: 0x1000,
                insts: 12,
            },
        ),
        (
            17,
            TraceEvent::BlockFlushed {
                proc: 0,
                addr: 0x1200,
                reason: FlushReason::Mispredict,
            },
        ),
    ];
    for (cycle, ev) in events {
        w.record(cycle, ev);
    }
}

#[test]
fn chrome_trace_is_valid_and_ordered() {
    let mut w = RingRecorder::new(64);
    record_golden_run(&mut w);
    let text = w.to_chrome_trace();

    // Valid JSON with the trace-event envelope.
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    // Timestamps non-decreasing; every record carries the envelope fields.
    let mut prev = 0u64;
    for e in events {
        let ts = e["ts"].as_u64().expect("ts");
        assert!(ts >= prev, "timestamps regressed: {ts} < {prev}");
        prev = ts;
        assert!(e["name"].as_str().is_some());
        assert!(e["ph"].as_str().is_some());
        assert!(e["pid"].as_u64().is_some());
        assert!(e["tid"].as_u64().is_some());
        assert!(!e["args"].is_null());
    }

    // At least 5 distinct event kinds (Perfetto acceptance bar).
    let mut kinds: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("i"))
        .filter_map(|e| e["name"].as_str())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert!(
        kinds.len() >= 5,
        "only {} distinct kinds: {kinds:?}",
        kinds.len()
    );

    // Block lifecycles pair up: every async begin has a matching end id.
    let ids = |ph: &str| -> Vec<String> {
        events
            .iter()
            .filter(|e| e["ph"].as_str() == Some(ph))
            .map(|e| e["id"].as_str().expect("async id").to_string())
            .collect()
    };
    let begins = ids("b");
    let ends = ids("e");
    assert_eq!(begins.len(), 2, "two blocks fetched");
    assert_eq!(ends.len(), 2, "both blocks closed (commit + flush)");
    for b in &begins {
        assert!(ends.contains(b), "unclosed block span {b}");
    }
}

/// `usize::MAX` is the unbounded recorder: it reserves nothing up front,
/// keeps every event and renders them all.
#[test]
fn an_unbounded_recorder_keeps_and_renders_every_event() {
    let mut w = RingRecorder::new(usize::MAX);
    record_golden_run(&mut w);
    assert_eq!((w.len(), w.dropped()), (10, 0));
    let doc: Value = serde_json::from_str(&w.to_chrome_trace()).expect("valid JSON");
    // Ten events, plus the instant each commit and flush also drops.
    assert_eq!(doc["traceEvents"].as_array().map(Vec::len), Some(12));
}
