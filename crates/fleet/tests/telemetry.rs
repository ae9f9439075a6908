//! Property tests for the telemetry layer's two contracts:
//!
//! 1. **Reconciliation** — the span log partitions the request stream
//!    exactly the way `FleetMetrics`' outcome counters do: one closed
//!    span per request, per-outcome span counts equal to the served /
//!    collab / failover / rejected / fallback counters.
//! 2. **Executor invariance** — with telemetry enabled, the
//!    deterministic summary is still byte-identical at every executor
//!    width and chunk size, and the span log and metrics registry are
//!    identical too.

mod common;

use common::executor_grid;
use proptest::prelude::*;
use vdap_fleet::{FleetConfig, FleetEngine, FleetReport, SpanOutcome};
use vdap_sim::{SimDuration, SimTime};

/// A fleet small enough for proptest but chaotic enough to produce all
/// six span outcomes: a regional outage (failovers), a node crash on a
/// two-node deployment (retries, handoffs, fallbacks, skipped pBEAM
/// rounds), and tight quotas under load (rejections).
fn chaos_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64).with_telemetry();
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg.edge_nodes = 2;
    cfg.with_regional_outage(0, SimTime::from_secs(1), SimDuration::from_secs(2))
        .with_edge_node_crash(0, SimTime::from_secs(3), SimDuration::from_secs(3))
        .with_tenant_quota_flap(1, 0.25, SimTime::from_secs(4), SimDuration::from_secs(2))
}

/// Asserts every span/metrics reconciliation invariant on one report.
fn assert_reconciles(report: &FleetReport) {
    let m = &report.metrics;
    let tel = report.telemetry.as_ref().expect("telemetry enabled");
    let spans = &tel.spans;
    assert_eq!(
        spans.len() as u64,
        m.requests,
        "one closed span per request"
    );
    assert_eq!(spans.outcome_count(SpanOutcome::EdgeServed), m.edge_served);
    assert_eq!(spans.outcome_count(SpanOutcome::CollabHit), m.collab_hits);
    assert_eq!(spans.outcome_count(SpanOutcome::Failover), m.failovers);
    assert_eq!(spans.outcome_count(SpanOutcome::Rejected), m.rejected);
    assert_eq!(
        spans.outcome_count(SpanOutcome::LocalFallback) + spans.outcome_count(SpanOutcome::Skipped),
        m.local_fallbacks,
        "rung-3 spans split into degraded runs and skipped rounds"
    );
    assert_eq!(
        spans.outcome_count(SpanOutcome::Skipped),
        m.training_rounds_skipped
    );
    // Registry counters mirror the same partition.
    let r = &tel.registry;
    assert_eq!(r.counter("fleet.requests"), m.requests);
    assert_eq!(r.counter("fleet.served"), m.edge_served);
    assert_eq!(r.counter("fleet.collab_hits"), m.collab_hits);
    assert_eq!(r.counter("fleet.failovers"), m.failovers);
    assert_eq!(r.counter("fleet.rejected"), m.rejected);
    assert_eq!(r.counter("fleet.local_fallbacks"), m.local_fallbacks);
    assert_eq!(r.counter("fleet.handoffs"), m.handoffs);
    // Span timestamps are internally consistent. Note `serve_start`
    // may precede `admitted`: the serving pass runs at the barrier but
    // models lane occupancy starting at arrival + uplink.
    for s in spans.iter() {
        assert!(s.completed >= s.generated, "span ends after it starts");
        if let Some(admitted) = s.admitted {
            assert!(admitted >= s.generated, "admission follows generation");
        }
        if let Some(serve_start) = s.serve_start {
            assert!(serve_start >= s.generated, "lane starts after generation");
            assert!(s.completed >= serve_start, "completion follows lane start");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn spans_reconcile_with_metrics_at_every_shard_count(seed in any::<u64>()) {
        let reports: Vec<FleetReport> = executor_grid(&chaos_config(seed))
            .into_iter()
            .map(|point| FleetEngine::new(point).run())
            .collect();
        for report in &reports {
            assert_reconciles(report);
        }

        // Telemetry must not cost determinism: summaries byte-identical,
        // and the telemetry itself invariant too.
        let base = reports[0].telemetry.as_ref().expect("telemetry enabled");
        for r in &reports[1..] {
            prop_assert_eq!(reports[0].summary(), r.summary());
            let tel = r.telemetry.as_ref().expect("telemetry enabled");
            prop_assert_eq!(&base.spans, &tel.spans, "span logs diverged");
            prop_assert_eq!(&base.registry, &tel.registry, "registries diverged");
        }
    }
}

/// The full interaction surface with the bounded-memory sinks on:
/// ingest + mobility + a telemetry budget + explicit deterministic
/// sampling. The sampled span set, histogram series, and deterministic
/// summary must stay byte-identical at every executor width and chunk
/// size.
fn sampled_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
        .with_ingest()
        .with_mobility()
        .with_telemetry_budget(16 * 1024)
        .with_span_sampling(4);
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn sampled_telemetry_with_budget_is_shard_invariant(seed in any::<u64>()) {
        let reports: Vec<FleetReport> = executor_grid(&sampled_config(seed))
            .into_iter()
            .map(|point| FleetEngine::new(point).run())
            .collect();
        let base = reports[0].telemetry.as_ref().expect("telemetry enabled");
        for r in &reports[1..] {
            // Sampling and budget enforcement must not cost determinism.
            prop_assert_eq!(reports[0].summary(), r.summary());
            let tel = r.telemetry.as_ref().expect("telemetry enabled");
            prop_assert_eq!(&base.spans, &tel.spans, "sampled span sets diverged");
            // Registry equality covers series, histograms, counters and
            // the telemetry_bytes gauge — all executor-invariant because
            // the byte estimate is count-based.
            prop_assert_eq!(&base.registry, &tel.registry, "registries diverged");
            prop_assert_eq!(base.sampled_out, tel.sampled_out, "sampler drop counts diverged");
            prop_assert_eq!(base.peak_bytes, tel.peak_bytes, "peak byte estimates diverged");
        }
        // The property is vacuous unless the sampler actually dropped
        // OK spans and kept every non-OK span.
        prop_assert!(base.sampled_out > 0, "keep-1-in-4 never sampled anything out");
        prop_assert!(!base.spans.is_empty(), "sampling must not drop everything");
        prop_assert_eq!(
            base.spans.len() as u64 + base.sampled_out,
            reports[0].metrics.requests,
            "kept + sampled-out partitions the request stream"
        );
        prop_assert!(
            base.registry.gauge("telemetry_bytes").is_some(),
            "self-accounting gauge must be set"
        );
    }
}

#[test]
fn crossed_budget_auto_activates_deterministic_sampling() {
    // No spill, no explicit sampling, and a budget far below what 64
    // vehicles over 8 s produce: the engine's last resort is switching
    // OK-span sampling on retroactively.
    let run = |threads: u32, chunk: u32| {
        let mut cfg = FleetConfig::sized(64).with_telemetry_budget(4 * 1024);
        cfg.seed = 7;
        cfg.duration = SimDuration::from_secs(8);
        FleetEngine::new(cfg.with_executor_threads(threads).with_batch_size(chunk)).run()
    };
    let one = run(1, 64);
    let eight = run(4, 7);
    let tel = one.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(
        tel.sample,
        Some(vdap_fleet::BUDGET_AUTO_SAMPLE),
        "budget crossing must auto-activate sampling"
    );
    assert!(tel.rolled, "budget crossing must mark rollup active");
    assert!(
        tel.sampled_out > 0,
        "retroactive sampling must drop OK spans"
    );
    // Auto-activation happens at a barrier from a count-based byte
    // estimate, so the surviving set is still executor-invariant.
    assert_eq!(one.summary(), eight.summary());
    let tel8 = eight.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(tel.spans, tel8.spans);
    assert_eq!(tel.sampled_out, tel8.sampled_out);
    // Non-OK spans are never sampled out: every metrics-side failure
    // outcome still has its span.
    assert_eq!(
        tel.spans.outcome_count(SpanOutcome::Rejected),
        one.metrics.rejected
    );
    assert_eq!(
        tel.spans.outcome_count(SpanOutcome::Failover),
        one.metrics.failovers
    );
}

#[test]
fn span_spill_streams_every_span_to_parseable_segments() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet-spill-test");
    let _ = std::fs::remove_dir_all(&dir);
    // No budget: with a spill dir configured, every barrier flushes —
    // pure streaming export, nothing retained in memory.
    let mut cfg = FleetConfig::sized(64).with_span_spill(&dir);
    cfg.seed = 11;
    cfg.duration = SimDuration::from_secs(8);
    let report = FleetEngine::new(cfg).run();
    let tel = report.telemetry.as_ref().expect("telemetry enabled");
    assert!(
        tel.spans.is_empty(),
        "with spill and no budget, every span streams to disk"
    );
    let spill = tel.spill.as_ref().expect("spill sink present");
    assert_eq!(spill.io_errors(), 0);
    assert_eq!(
        spill.spilled(),
        report.metrics.requests,
        "every request's span reaches disk exactly once"
    );
    let segments = spill.segments();
    assert!(!segments.is_empty());
    let mut lines = 0u64;
    for segment in &segments {
        let text = std::fs::read_to_string(segment).expect("segment readable");
        for line in text.lines() {
            let value: serde_json::Value = serde_json::from_str(line).expect("line parses");
            assert!(value.get("vehicle").is_some());
            assert!(value.get("outcome").is_some());
            lines += 1;
        }
    }
    assert_eq!(lines, spill.spilled(), "one JSONL line per spilled span");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_off_means_no_spans_and_an_unchanged_summary() {
    let with = |telemetry: bool| {
        let mut cfg = FleetConfig::sized(64);
        cfg.telemetry = telemetry;
        cfg.duration = SimDuration::from_secs(6);
        FleetEngine::new(cfg).run()
    };
    let off = with(false);
    let on = with(true);
    assert!(off.telemetry.is_none());
    assert!(on.telemetry.is_some());
    assert_eq!(
        off.summary(),
        on.summary(),
        "telemetry is derived data: enabling it cannot perturb the run"
    );
}

#[test]
fn epoch_series_cover_every_barrier() {
    let mut cfg = FleetConfig::sized(64).with_telemetry();
    cfg.duration = SimDuration::from_secs(6);
    let epochs = cfg.duration.as_nanos().div_ceil(cfg.epoch.as_nanos());
    let report = FleetEngine::new(cfg).run();
    let tel = report.telemetry.expect("telemetry enabled");
    let depth = tel.registry.series("xedge.queue_depth");
    assert_eq!(depth.len() as u64, epochs, "one sample per barrier");
    assert_eq!(depth[0].epoch, 0);
    assert_eq!(depth.last().expect("nonempty").epoch, epochs - 1);
    let served: f64 = tel
        .registry
        .series("fleet.served.detection")
        .iter()
        .map(|p| p.value)
        .sum();
    let total_detection_served: f64 = tel
        .registry
        .series("fleet.served.infotainment")
        .iter()
        .chain(tel.registry.series("fleet.served.pbeam-training"))
        .map(|p| p.value)
        .sum::<f64>()
        + served;
    assert!(
        total_detection_served > 0.0,
        "per-class served series should see traffic"
    );
}
