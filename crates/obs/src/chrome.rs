//! Chrome trace-event JSON export.
//!
//! Builds the [trace-event format] consumed by `about://tracing` and
//! Perfetto: each request span becomes a `ph: "X"` complete event
//! (timestamps in microseconds of sim time), each registry time series
//! becomes a stream of `ph: "C"` counter events, and `ph: "M"` metadata
//! events name the processes. Spans live under one `fleet-requests`
//! process (`pid = 1`) with `tid = tenant`; counters live under
//! `pid = 0`.
//!
//! Everything is built on the vendored `serde_json` shim, whose
//! `BTreeMap`-backed objects serialize key-sorted — so the exported
//! bytes are a deterministic function of the (already deterministic)
//! span log and registry.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;

use serde_json::Value;

use crate::registry::MetricsRegistry;
use crate::span::{RequestSpan, SpanLog};

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<String, Value>>(),
    )
}

/// The trace process every request span is grouped under.
const SPANS_PID: u32 = 1;

fn micros(nanos: u64) -> Value {
    Value::from(nanos / 1_000)
}

/// One span as a Chrome `ph: "X"` complete event.
#[must_use]
pub fn span_event(span: &RequestSpan) -> Value {
    let mut args = vec![
        ("vehicle", Value::from(span.vehicle)),
        ("seq", Value::from(span.seq)),
        ("region", Value::from(span.region)),
        ("outcome", Value::from(span.outcome.label())),
        ("retries", Value::from(span.retries)),
        ("requeues", Value::from(span.requeues)),
        ("handoff", Value::from(span.handoff)),
    ];
    if let Some(at) = span.admitted {
        args.push(("admitted_us", micros(at.as_nanos())));
    }
    if let Some(at) = span.serve_start {
        args.push(("serve_start_us", micros(at.as_nanos())));
    }
    object(vec![
        ("name", Value::from(span.class)),
        ("cat", Value::from(span.outcome.label())),
        ("ph", Value::from("X")),
        ("ts", micros(span.generated.as_nanos())),
        ("dur", micros(span.e2e().as_nanos())),
        ("pid", Value::from(SPANS_PID)),
        ("tid", Value::from(span.tenant)),
        ("args", object(args)),
    ])
}

/// The full trace document: span events, counter events from every
/// registry time series, and process-name metadata. Loadable in
/// `about://tracing` and Perfetto.
#[must_use]
pub fn chrome_trace(spans: &SpanLog, registry: &MetricsRegistry) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(spans.len() + 16);

    for (pid, name) in [(0u32, "fleet-metrics"), (SPANS_PID, "fleet-requests")] {
        events.push(object(vec![
            ("name", Value::from("process_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(pid)),
            ("args", object(vec![("name", Value::from(name))])),
        ]));
    }

    for span in spans.iter() {
        events.push(span_event(span));
    }
    for (name, points) in registry.all_series() {
        for p in points {
            events.push(object(vec![
                ("name", Value::from(name)),
                ("ph", Value::from("C")),
                ("ts", micros(p.at.as_nanos())),
                ("pid", Value::from(0u32)),
                ("tid", Value::from(0u32)),
                ("args", object(vec![("value", Value::from(p.value))])),
            ]));
        }
    }

    object(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::from("ms")),
    ])
}

/// One span as a flat JSON object (nanosecond-precision timestamps) —
/// the JSONL dump's line format.
#[must_use]
pub fn span_json(span: &RequestSpan) -> Value {
    object(vec![
        ("vehicle", Value::from(span.vehicle)),
        ("seq", Value::from(span.seq)),
        ("tenant", Value::from(span.tenant)),
        ("region", Value::from(span.region)),
        ("class", Value::from(span.class)),
        ("outcome", Value::from(span.outcome.label())),
        ("generated_ns", Value::from(span.generated.as_nanos())),
        (
            "admitted_ns",
            span.admitted
                .map_or(Value::Null, |t| Value::from(t.as_nanos())),
        ),
        (
            "serve_start_ns",
            span.serve_start
                .map_or(Value::Null, |t| Value::from(t.as_nanos())),
        ),
        ("completed_ns", Value::from(span.completed.as_nanos())),
        ("retries", Value::from(span.retries)),
        ("requeues", Value::from(span.requeues)),
        ("handoff", Value::from(span.handoff)),
    ])
}

/// The whole log as JSON Lines: one span object per line, canonical
/// span order, trailing newline.
#[must_use]
pub fn spans_jsonl(spans: &SpanLog) -> String {
    let mut out = String::new();
    for span in spans.iter() {
        out.push_str(&span_json(span).to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanOutcome;
    use vdap_sim::SimTime;

    fn sample_log() -> (SpanLog, MetricsRegistry) {
        let mut log = SpanLog::new();
        log.push(RequestSpan {
            vehicle: 7,
            seq: 2,
            tenant: 3,
            region: 1,
            class: "detection",
            generated: SimTime::from_nanos(1_500_000),
            admitted: Some(SimTime::from_nanos(2_000_000)),
            serve_start: Some(SimTime::from_nanos(2_250_000)),
            completed: SimTime::from_nanos(9_500_000),
            outcome: SpanOutcome::EdgeServed,
            retries: 1,
            requeues: 0,
            handoff: true,
        });
        log.push(RequestSpan {
            vehicle: 9,
            seq: 0,
            tenant: 1,
            region: 4,
            class: "pbeam-training",
            generated: SimTime::from_nanos(3_000_000),
            admitted: None,
            serve_start: None,
            completed: SimTime::from_nanos(13_000_000),
            outcome: SpanOutcome::Skipped,
            retries: 0,
            requeues: 2,
            handoff: false,
        });
        let mut registry = MetricsRegistry::new();
        registry.sample(
            "xedge.queue_depth",
            0,
            SimTime::from_nanos(500_000_000),
            4.0,
        );
        registry.sample("xedge.queue_depth", 1, SimTime::from_secs(1), 9.0);
        (log, registry)
    }

    #[test]
    fn trace_round_trips_through_the_serde_shim() {
        let (log, registry) = sample_log();
        let doc = chrome_trace(&log, &registry);
        let text = serde_json::to_string(&doc).expect("serialize");
        let back = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, doc, "export must survive a serialize/parse cycle");
        // And the re-serialized bytes are stable (deterministic export).
        assert_eq!(serde_json::to_string(&back).expect("serialize"), text);
    }

    #[test]
    fn trace_has_span_counter_and_metadata_events() {
        let (log, registry) = sample_log();
        let doc = chrome_trace(&log, &registry);
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 2 spans + 2 counter points + 2 process_name records
        // (the metrics and the request processes).
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "C").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 2);
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
    }

    #[test]
    fn span_event_uses_microseconds() {
        let (log, _) = sample_log();
        let ev = span_event(&log.spans()[0]);
        assert_eq!(ev.get("ts").and_then(Value::as_u64), Some(1_500));
        assert_eq!(ev.get("dur").and_then(Value::as_u64), Some(8_000));
        assert_eq!(ev.get("pid").and_then(Value::as_u64), Some(1));
        let args = ev.get("args").expect("args");
        assert_eq!(args.get("admitted_us").and_then(Value::as_u64), Some(2_000));
        assert_eq!(
            args.get("outcome").and_then(Value::as_str),
            Some("edge-served")
        );
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let (log, _) = sample_log();
        let dump = spans_jsonl(&log);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = serde_json::from_str(line).expect("line parses");
            assert!(v.get("vehicle").is_some());
            assert!(v.get("completed_ns").is_some());
        }
        let second = serde_json::from_str(lines[1]).expect("parse");
        assert_eq!(second.get("admitted_ns"), Some(&Value::Null));
        assert_eq!(second.get("requeues").and_then(Value::as_u64), Some(2));
    }
}
