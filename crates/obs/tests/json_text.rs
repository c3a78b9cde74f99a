//! The JSON reader every tool goes through (`clp-diff`, a golden's
//! mismatch report, `clp_core::cli::read_json`): it takes time linear in
//! its input, and hostile input is a parse error, never an abort.

use serde_json::{from_str, json, Value};
use std::time::{Duration, Instant};

const MIB: usize = 1 << 20;

/// Parses `text`, requiring it to take under a second.
fn parse_within_a_second(text: &str) -> Value {
    let start = Instant::now();
    let value = from_str(text).expect("parses");
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "{} bytes took {took:?}",
        text.len()
    );
    value
}

#[test]
fn a_mebibyte_of_short_strings_parses_in_linear_time() {
    let mut text = String::from("[");
    let mut records = 0;
    while text.len() < MIB {
        if records > 0 {
            text.push(',');
        }
        text.push_str(&format!(
            r#"{{"name":"proc{records}/mem/l1d_hits","value":{{"Count":{records}}}}}"#
        ));
        records += 1;
    }
    text.push(']');
    let doc = parse_within_a_second(&text);
    let doc = doc.as_array().expect("an array");
    assert_eq!(doc.len(), records);
    let last = &doc[records - 1];
    assert_eq!(
        last["name"].as_str(),
        Some(format!("proc{}/mem/l1d_hits", records - 1).as_str())
    );
    assert_eq!(last["value"]["Count"].as_u64(), Some(records as u64 - 1));
}

#[test]
fn a_mebibyte_string_parses_in_linear_time() {
    let body = "ab\u{e9}\u{1f600}".repeat(MIB / 8);
    let text = format!("\"{body}\\n\"");
    assert!(text.len() >= MIB);
    let doc = parse_within_a_second(&text);
    assert_eq!(doc.as_str(), Some(format!("{body}\n").as_str()));
}

/// Array, object, and mixed nesting at `depth` levels.
fn nested(depth: usize) -> [String; 3] {
    let arrays = "[".repeat(depth) + &"]".repeat(depth);
    let objects = r#"{"a":"#.repeat(depth) + "1" + &"}".repeat(depth);
    let mixed = r#"[{"a":"#.repeat(depth / 2) + "1" + &"}]".repeat(depth / 2);
    [arrays, objects, mixed]
}

#[test]
fn nesting_deeper_than_128_is_an_error_not_a_stack_overflow() {
    for text in nested(128) {
        assert!(from_str(&text).is_ok(), "128 levels parse");
    }
    for depth in [130, 50_000, 100_000] {
        for text in nested(depth) {
            let err = from_str(&text).expect_err("too deep");
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
    }
    let unbalanced = "[".repeat(200_000);
    assert!(from_str(&unbalanced).is_err());
}

#[test]
fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
    let doc = from_str(r#""\ud83d\ude00 \u00e9\u0041""#).expect("a pair parses");
    assert_eq!(doc.as_str(), Some("\u{1f600} \u{e9}A"));
    for lone in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83dA""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
    ] {
        let err = from_str(lone).expect_err(lone);
        assert!(err.to_string().contains("lone surrogate"), "{lone}: {err}");
    }
    for bad in [r#""\u12""#, r#""\u+123""#, r#""\uzzzz""#, r#""\q""#] {
        assert!(from_str(bad).is_err(), "{bad}");
    }
}

#[test]
fn written_text_parses_back_to_the_same_value() {
    let doc = json!({
        "text": "quote \" backslash \\ tab \t nl \n bell \u{7} \u{1f600}",
        "numbers": [(0u64), (7u64), (-3), (u64::MAX), 0.5, 2.0, (1e300)],
        "empty": {"list": [], "object": {}},
        "flags": [(Value::Bool(true)), (Value::Bool(false)), null]
    });
    for text in [doc.to_string(), format!("{doc:#}")] {
        assert_eq!(from_str(&text), Ok(doc.clone()), "{text}");
    }
}
