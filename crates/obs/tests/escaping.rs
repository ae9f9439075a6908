//! String escaping through the vendored `serde_json` shim.
//!
//! Interned class names and metric names flow unmodified into
//! `spans_jsonl` and `chrome_trace` output. Nothing in the platform
//! restricts them to "nice" identifiers, so the exporters must survive
//! names containing quotes, backslashes, control characters, and
//! non-ASCII text: the output must still be parseable JSON that
//! round-trips to the same document, with the original strings intact.

use vdap_obs::{
    chrome_trace, intern_name, spans_jsonl, MetricsRegistry, RequestSpan, SpanLog, SpanOutcome,
};
use vdap_sim::SimTime;

/// Names that exercise every escape class the shim handles: double
/// quotes, backslashes (incl. Windows-style paths), the short escapes
/// `\n` `\r` `\t`, other C0 control characters (`\u` form), and raw
/// multi-byte UTF-8 (accented Latin, CJK, and an astral-plane emoji).
fn hostile_names() -> Vec<&'static str> {
    vec![
        intern_name(r#"class "quoted" name"#),
        intern_name(r"back\slash and C:\traces\out"),
        intern_name("line\nbreak and\ttab and\rreturn"),
        intern_name("bell\u{0007} escape\u{001b} null-adjacent\u{0001}"),
        intern_name("détection-véhicule"),
        intern_name("车载检测"),
        intern_name("emoji 🚗 class"),
    ]
}

fn span_with_class(i: u32, class: &'static str) -> RequestSpan {
    RequestSpan {
        vehicle: i,
        seq: 0,
        tenant: i % 3,
        region: 0,
        class,
        generated: SimTime::from_nanos(u64::from(i) * 1_000),
        admitted: Some(SimTime::from_nanos(u64::from(i) * 1_000 + 250)),
        serve_start: None,
        completed: SimTime::from_nanos(u64::from(i) * 1_000 + 900),
        outcome: SpanOutcome::EdgeServed,
        retries: 0,
        requeues: 0,
        handoff: false,
    }
}

fn hostile_log() -> SpanLog {
    let mut log = SpanLog::new();
    for (i, class) in hostile_names().into_iter().enumerate() {
        log.push(span_with_class(i as u32, class));
    }
    log
}

#[test]
fn jsonl_escapes_hostile_class_names_and_round_trips() {
    let log = hostile_log();
    let dump = spans_jsonl(&log);
    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(lines.len(), hostile_names().len(), "one line per span");
    for (line, expected) in lines.iter().zip(hostile_names()) {
        let value = serde_json::from_str(line).expect("hostile line parses");
        let class = value
            .get("class")
            .and_then(serde_json::Value::as_str)
            .expect("class field is a string");
        assert_eq!(class, expected, "escaping must be lossless");
        // A full serialize → parse → serialize cycle is byte-stable.
        let re = serde_json::to_string(&value).expect("serialize");
        let back = serde_json::from_str(&re).expect("reparse");
        assert_eq!(back, value);
        assert_eq!(serde_json::to_string(&back).expect("serialize"), re);
    }
}

#[test]
fn jsonl_lines_stay_one_per_span_despite_embedded_newlines() {
    // The newline inside "line\nbreak..." must be escaped, not emitted
    // raw — otherwise the JSONL framing breaks.
    let mut log = SpanLog::new();
    log.push(span_with_class(
        0,
        intern_name("line\nbreak and\ttab and\rreturn"),
    ));
    let dump = spans_jsonl(&log);
    assert_eq!(dump.lines().count(), 1, "embedded newline must be escaped");
    assert!(dump.contains("\\n"), "newline appears in escaped form");
    assert!(!dump.trim_end_matches('\n').contains('\n'));
}

#[test]
fn chrome_trace_with_hostile_names_round_trips() {
    let log = hostile_log();
    let mut registry = MetricsRegistry::new();
    // Metric names take the same path through the exporter.
    registry.sample(
        intern_name(r#"series "with quotes" and \slashes"#),
        0,
        SimTime::from_secs(1),
        4.0,
    );
    registry.sample(intern_name("серия-метрик"), 0, SimTime::from_secs(1), 2.0);
    let doc = chrome_trace(&log, &registry);
    let text = serde_json::to_string(&doc).expect("serialize");
    let back = serde_json::from_str(&text).expect("parse");
    assert_eq!(back, doc, "trace must survive a serialize/parse cycle");
    assert_eq!(serde_json::to_string(&back).expect("serialize"), text);
    // Every hostile class name comes back intact as an event name.
    let events = back
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents");
    for expected in hostile_names() {
        assert!(
            events
                .iter()
                .any(|e| { e.get("name").and_then(serde_json::Value::as_str) == Some(expected) }),
            "event name {expected:?} must survive the round trip"
        );
    }
}

#[test]
fn control_characters_are_emitted_as_escapes_not_raw_bytes() {
    let mut log = SpanLog::new();
    log.push(span_with_class(
        0,
        intern_name("bell\u{0007} escape\u{001b} null-adjacent\u{0001}"),
    ));
    let dump = spans_jsonl(&log);
    for raw in ['\u{0007}', '\u{001b}', '\u{0001}'] {
        assert!(
            !dump.contains(raw),
            "C0 control {raw:?} must not appear raw in JSON output"
        );
    }
    assert!(dump.to_lowercase().contains("\\u0007"));
    assert!(dump.to_lowercase().contains("\\u001b"));
}
