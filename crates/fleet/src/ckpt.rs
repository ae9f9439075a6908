//! Snapshot codec glue for durable barrier checkpoints.
//!
//! The fleet engine serializes its *complete* deterministic state into
//! a [`vdap_ckpt::Snapshot`] payload at configurable epoch barriers
//! (see [`crate::FleetConfig::with_checkpoint`]). This module holds the
//! shared encoding vocabulary every subsystem codec speaks:
//!
//! * **Exactness over readability.** Any `u64` that may exceed 2^53
//!   (RNG words, `SimTime`/`SimDuration` nanos, counters) is hex-coded
//!   via [`vdap_ckpt::u64_hex`]; any `f64` that may be non-finite
//!   (empty-histogram min/max sentinels) travels by bit pattern via
//!   [`vdap_ckpt::f64_bits`]. Finite sample values also travel by bit
//!   pattern so a restore is bit-identical, not merely close.
//! * **One codec per owner.** Each subsystem encodes its own private
//!   state (`XEdgeServer` in `edge.rs`, `IngestPass` in `ingest.rs`,
//!   vehicles in `arena.rs`, the mobility pass in `engine.rs`); this
//!   module only provides the leaf helpers they compose and the
//!   top-level config fingerprint that guards restore.
//! * **Rebuild what is pure.** Anything derivable from `FleetConfig`
//!   plus the master seed (route graphs, contention models, retry
//!   policies, label tables) is *not* serialized — restore rebuilds it,
//!   and nothing executor-shaped is stored, which is what makes
//!   restoring under a different executor width or chunk size possible.

use std::fmt;

use vdap_ckpt::json::Value;
use vdap_ckpt::{f64_bits, get, obj, u128_hex, u64_hex, CkptError};
use vdap_ddi::UploadBatch;
use vdap_sim::{
    ReliabilityState, ReliabilityStats, RngStream, SimDuration, SimTime, StreamingHistogram,
    StreamingHistogramState,
};

use crate::config::FleetConfig;
use crate::metrics::FleetMetrics;

// --- element-level accessors (keyed accessors live in vdap-ckpt) -----

/// Decodes a hex-coded `u64` array element.
pub(crate) fn val_u64_hex(v: &Value) -> Result<u64, CkptError> {
    let s = v
        .as_str()
        .ok_or_else(|| CkptError::new("expected hex string"))?;
    u64::from_str_radix(s, 16).map_err(|e| CkptError::new(format!("bad hex u64 '{s}': {e}")))
}

/// Decodes a bit-pattern-coded `f64` array element.
pub(crate) fn val_f64_bits(v: &Value) -> Result<f64, CkptError> {
    Ok(f64::from_bits(val_u64_hex(v)?))
}

/// Decodes a plain-number array element as `u64` (small counts only).
pub(crate) fn val_u64(v: &Value) -> Result<u64, CkptError> {
    v.as_u64()
        .ok_or_else(|| CkptError::new("expected integral number"))
}

/// Decodes a plain-number array element as `u32`.
pub(crate) fn val_u32(v: &Value) -> Result<u32, CkptError> {
    u32::try_from(val_u64(v)?).map_err(|e| CkptError::new(format!("u32 out of range: {e}")))
}

/// Decodes a string array element.
pub(crate) fn val_str(v: &Value) -> Result<&str, CkptError> {
    v.as_str().ok_or_else(|| CkptError::new("expected string"))
}

/// Encodes an `i64` exactly (hex of the two's-complement bit pattern,
/// so negative tile coordinates survive the `f64`-backed number shim).
pub(crate) fn enc_i64(v: i64) -> Value {
    u64_hex(v as u64)
}

/// Decodes an `i64` array element from its bit pattern.
pub(crate) fn dec_i64(v: &Value) -> Result<i64, CkptError> {
    Ok(val_u64_hex(v)? as i64)
}

/// Decodes a boolean array element.
pub(crate) fn val_bool(v: &Value) -> Result<bool, CkptError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(CkptError::new("expected bool")),
    }
}

/// Views an array element that is itself an array.
pub(crate) fn val_array(v: &Value) -> Result<&[Value], CkptError> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| CkptError::new("expected array"))
}

/// Views an array element as a fixed-length pair.
pub(crate) fn val_pair(v: &Value) -> Result<(&Value, &Value), CkptError> {
    match val_array(v)? {
        [a, b] => Ok((a, b)),
        other => Err(CkptError::new(format!(
            "expected 2-element pair, got {} elements",
            other.len()
        ))),
    }
}

// --- time ------------------------------------------------------------

/// Encodes a `SimTime` (hex nanos — exact at any magnitude).
pub(crate) fn enc_time(t: SimTime) -> Value {
    u64_hex(t.as_nanos())
}

/// Encodes a `SimDuration` (hex nanos).
pub(crate) fn enc_dur(d: SimDuration) -> Value {
    u64_hex(d.as_nanos())
}

/// Encodes an optional `SimTime` (`null` when absent).
pub(crate) fn enc_opt_time(t: Option<SimTime>) -> Value {
    t.map_or(Value::Null, enc_time)
}

/// Reads a `SimTime` field.
pub(crate) fn time_field(v: &Value, key: &str) -> Result<SimTime, CkptError> {
    Ok(SimTime::from_nanos(vdap_ckpt::get_u64_hex(v, key)?))
}

/// Reads a `SimDuration` field.
pub(crate) fn dur_field(v: &Value, key: &str) -> Result<SimDuration, CkptError> {
    Ok(SimDuration::from_nanos(vdap_ckpt::get_u64_hex(v, key)?))
}

/// Reads an optional `SimTime` field (`null` ⇒ `None`).
pub(crate) fn opt_time_field(v: &Value, key: &str) -> Result<Option<SimTime>, CkptError> {
    match get(v, key)? {
        Value::Null => Ok(None),
        other => Ok(Some(SimTime::from_nanos(val_u64_hex(other)?))),
    }
}

// --- RNG streams -----------------------------------------------------

/// Encodes an RNG stream's full xoshiro256++ state (4 hex words).
pub(crate) fn enc_rng(rng: &RngStream) -> Value {
    Value::Array(rng.state().iter().copied().map(u64_hex).collect())
}

/// Reads an RNG stream field back from its 4-word state.
pub(crate) fn rng_field(v: &Value, key: &str) -> Result<RngStream, CkptError> {
    let words = vdap_ckpt::get_array(v, key)?;
    if words.len() != 4 {
        return Err(CkptError::new(format!(
            "rng state '{key}' has {} words, want 4",
            words.len()
        )));
    }
    let mut state = [0u64; 4];
    for (slot, w) in state.iter_mut().zip(words) {
        *slot = val_u64_hex(w)?;
    }
    if state == [0u64; 4] {
        return Err(CkptError::new(format!("rng state '{key}' is all-zero")));
    }
    Ok(RngStream::from_state(state))
}

// --- histograms ------------------------------------------------------

/// Encodes a streaming histogram sparsely (only non-zero buckets).
pub(crate) fn enc_hist(h: &StreamingHistogram) -> Value {
    let s = h.state();
    obj(vec![
        ("name", Value::String(s.name)),
        (
            "buckets",
            Value::Array(
                s.sparse_buckets
                    .into_iter()
                    .map(|(i, c)| Value::Array(vec![Value::Number(f64::from(i)), u64_hex(c)]))
                    .collect(),
            ),
        ),
        ("count", u64_hex(s.count)),
        ("sum_micro", u128_hex(s.sum_micro)),
        // min/max are ±∞ sentinels while empty — bit patterns survive.
        ("min", f64_bits(s.min)),
        ("max", f64_bits(s.max)),
    ])
}

/// Reads a streaming-histogram field.
pub(crate) fn hist_field(v: &Value, key: &str) -> Result<StreamingHistogram, CkptError> {
    let h = get(v, key)?;
    let mut sparse_buckets = Vec::new();
    for pair in vdap_ckpt::get_array(h, "buckets")? {
        let (i, c) = val_pair(pair)?;
        sparse_buckets.push((val_u32(i)?, val_u64_hex(c)?));
    }
    Ok(StreamingHistogram::from_state(StreamingHistogramState {
        name: vdap_ckpt::get_str(h, "name")?.to_string(),
        sparse_buckets,
        count: vdap_ckpt::get_u64_hex(h, "count")?,
        sum_micro: vdap_ckpt::get_u128_hex(h, "sum_micro")?,
        min: vdap_ckpt::get_f64_bits(h, "min")?,
        max: vdap_ckpt::get_f64_bits(h, "max")?,
    }))
}

// --- reliability ledger ----------------------------------------------

fn enc_labeled_nanos<'a>(entries: impl Iterator<Item = (&'a String, u64)>) -> Value {
    Value::Array(
        entries
            .map(|(label, nanos)| Value::Array(vec![Value::String(label.clone()), u64_hex(nanos)]))
            .collect(),
    )
}

fn dec_labeled_nanos(v: &Value, key: &str) -> Result<Vec<(String, u64)>, CkptError> {
    let mut out = Vec::new();
    for pair in vdap_ckpt::get_array(v, key)? {
        let (label, nanos) = val_pair(pair)?;
        out.push((val_str(label)?.to_string(), val_u64_hex(nanos)?));
    }
    Ok(out)
}

fn enc_samples(samples: &[f64]) -> Value {
    Value::Array(samples.iter().copied().map(f64_bits).collect())
}

fn dec_samples(v: &Value, key: &str) -> Result<Vec<f64>, CkptError> {
    vdap_ckpt::get_array(v, key)?
        .iter()
        .map(val_f64_bits)
        .collect()
}

/// Encodes the full reliability ledger (MTTR samples, open outages,
/// per-component downtime/degraded time, retry counters).
pub(crate) fn enc_reliability(r: &ReliabilityStats) -> Value {
    let s = r.state();
    obj(vec![
        ("mttr_samples", enc_samples(&s.mttr_samples)),
        ("failover_samples", enc_samples(&s.failover_samples)),
        ("retries", u64_hex(s.retries)),
        ("retry_successes", u64_hex(s.retry_successes)),
        ("retry_exhausted", u64_hex(s.retry_exhausted)),
        ("faults_injected", u64_hex(s.faults_injected)),
        (
            "down_since",
            enc_labeled_nanos(s.down_since.iter().map(|(c, t)| (c, t.as_nanos()))),
        ),
        (
            "downtime",
            enc_labeled_nanos(s.downtime.iter().map(|(c, d)| (c, d.as_nanos()))),
        ),
        (
            "degraded",
            enc_labeled_nanos(s.degraded.iter().map(|(c, d)| (c, d.as_nanos()))),
        ),
        ("cache_ttl_evictions", u64_hex(s.cache_ttl_evictions)),
        ("disk_spills", u64_hex(s.disk_spills)),
    ])
}

/// Reads a reliability-ledger field.
pub(crate) fn reliability_field(v: &Value, key: &str) -> Result<ReliabilityStats, CkptError> {
    let r = get(v, key)?;
    Ok(ReliabilityStats::from_state(ReliabilityState {
        mttr_samples: dec_samples(r, "mttr_samples")?,
        failover_samples: dec_samples(r, "failover_samples")?,
        retries: vdap_ckpt::get_u64_hex(r, "retries")?,
        retry_successes: vdap_ckpt::get_u64_hex(r, "retry_successes")?,
        retry_exhausted: vdap_ckpt::get_u64_hex(r, "retry_exhausted")?,
        faults_injected: vdap_ckpt::get_u64_hex(r, "faults_injected")?,
        down_since: dec_labeled_nanos(r, "down_since")?
            .into_iter()
            .map(|(c, n)| (c, SimTime::from_nanos(n)))
            .collect(),
        downtime: dec_labeled_nanos(r, "downtime")?
            .into_iter()
            .map(|(c, n)| (c, SimDuration::from_nanos(n)))
            .collect(),
        degraded: dec_labeled_nanos(r, "degraded")?
            .into_iter()
            .map(|(c, n)| (c, SimDuration::from_nanos(n)))
            .collect(),
        cache_ttl_evictions: vdap_ckpt::get_u64_hex(r, "cache_ttl_evictions")?,
        disk_spills: vdap_ckpt::get_u64_hex(r, "disk_spills")?,
    }))
}

// --- fleet metrics ---------------------------------------------------

/// Encodes the merged, shard-count-independent `FleetMetrics`.
pub(crate) fn enc_metrics(m: &FleetMetrics) -> Value {
    obj(vec![
        ("e2e_latency_ms", enc_hist(&m.e2e_latency_ms)),
        ("energy_per_request_j", enc_hist(&m.energy_per_request_j)),
        ("queue_depth", enc_hist(&m.queue_depth)),
        ("elastic_lanes", enc_hist(&m.elastic_lanes)),
        (
            "by_class",
            Value::Array(
                m.by_class
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("e2e_latency_ms", enc_hist(&c.e2e_latency_ms)),
                            ("requests", u64_hex(c.requests)),
                            ("edge_served", u64_hex(c.edge_served)),
                            ("collab_hits", u64_hex(c.collab_hits)),
                            ("failovers", u64_hex(c.failovers)),
                            ("rejected", u64_hex(c.rejected)),
                            ("local_fallbacks", u64_hex(c.local_fallbacks)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "work_units_by_tenant",
            Value::Array(
                m.work_units_by_tenant
                    .iter()
                    .map(|(&t, &w)| Value::Array(vec![Value::Number(f64::from(t)), u64_hex(w)]))
                    .collect(),
            ),
        ),
        ("requests", u64_hex(m.requests)),
        ("edge_served", u64_hex(m.edge_served)),
        ("collab_hits", u64_hex(m.collab_hits)),
        ("failovers", u64_hex(m.failovers)),
        ("rejected", u64_hex(m.rejected)),
        ("requeued", u64_hex(m.requeued)),
        ("retry_rescued", u64_hex(m.retry_rescued)),
        ("handoffs", u64_hex(m.handoffs)),
        ("local_fallbacks", u64_hex(m.local_fallbacks)),
        (
            "training_rounds_skipped",
            u64_hex(m.training_rounds_skipped),
        ),
        ("scale_ups", u64_hex(m.scale_ups)),
        ("scale_downs", u64_hex(m.scale_downs)),
    ])
}

/// Reads a `FleetMetrics` field.
pub(crate) fn metrics_field(v: &Value, key: &str) -> Result<FleetMetrics, CkptError> {
    let enc = get(v, key)?;
    let mut m = FleetMetrics::new();
    m.e2e_latency_ms = hist_field(enc, "e2e_latency_ms")?;
    m.energy_per_request_j = hist_field(enc, "energy_per_request_j")?;
    m.queue_depth = hist_field(enc, "queue_depth")?;
    m.elastic_lanes = hist_field(enc, "elastic_lanes")?;
    let classes = vdap_ckpt::get_array(enc, "by_class")?;
    if classes.len() != m.by_class.len() {
        return Err(CkptError::new(format!(
            "snapshot has {} workload classes, engine has {}",
            classes.len(),
            m.by_class.len()
        )));
    }
    for (slot, c) in m.by_class.iter_mut().zip(classes) {
        slot.e2e_latency_ms = hist_field(c, "e2e_latency_ms")?;
        slot.requests = vdap_ckpt::get_u64_hex(c, "requests")?;
        slot.edge_served = vdap_ckpt::get_u64_hex(c, "edge_served")?;
        slot.collab_hits = vdap_ckpt::get_u64_hex(c, "collab_hits")?;
        slot.failovers = vdap_ckpt::get_u64_hex(c, "failovers")?;
        slot.rejected = vdap_ckpt::get_u64_hex(c, "rejected")?;
        slot.local_fallbacks = vdap_ckpt::get_u64_hex(c, "local_fallbacks")?;
    }
    for pair in vdap_ckpt::get_array(enc, "work_units_by_tenant")? {
        let (t, w) = val_pair(pair)?;
        m.work_units_by_tenant.insert(val_u32(t)?, val_u64_hex(w)?);
    }
    m.requests = vdap_ckpt::get_u64_hex(enc, "requests")?;
    m.edge_served = vdap_ckpt::get_u64_hex(enc, "edge_served")?;
    m.collab_hits = vdap_ckpt::get_u64_hex(enc, "collab_hits")?;
    m.failovers = vdap_ckpt::get_u64_hex(enc, "failovers")?;
    m.rejected = vdap_ckpt::get_u64_hex(enc, "rejected")?;
    m.requeued = vdap_ckpt::get_u64_hex(enc, "requeued")?;
    m.retry_rescued = vdap_ckpt::get_u64_hex(enc, "retry_rescued")?;
    m.handoffs = vdap_ckpt::get_u64_hex(enc, "handoffs")?;
    m.local_fallbacks = vdap_ckpt::get_u64_hex(enc, "local_fallbacks")?;
    m.training_rounds_skipped = vdap_ckpt::get_u64_hex(enc, "training_rounds_skipped")?;
    m.scale_ups = vdap_ckpt::get_u64_hex(enc, "scale_ups")?;
    m.scale_downs = vdap_ckpt::get_u64_hex(enc, "scale_downs")?;
    Ok(m)
}

// --- ingest batches --------------------------------------------------

/// Encodes one in-flight DDI upload batch.
pub(crate) fn enc_batch(b: &UploadBatch) -> Value {
    obj(vec![
        ("vehicle", u64_hex(b.vehicle)),
        ("region", Value::Number(f64::from(b.region))),
        ("seq", Value::Number(f64::from(b.seq))),
        ("records", Value::Number(f64::from(b.records))),
        ("bytes", u64_hex(b.bytes)),
        ("sent_at", enc_time(b.sent_at)),
        ("deadline", enc_time(b.deadline)),
        ("priority", Value::Number(f64::from(b.priority))),
    ])
}

/// Decodes one in-flight DDI upload batch.
pub(crate) fn dec_batch(v: &Value) -> Result<UploadBatch, CkptError> {
    Ok(UploadBatch {
        vehicle: vdap_ckpt::get_u64_hex(v, "vehicle")?,
        region: vdap_ckpt::get_u32(v, "region")?,
        seq: vdap_ckpt::get_u32(v, "seq")?,
        records: vdap_ckpt::get_u32(v, "records")?,
        bytes: vdap_ckpt::get_u64_hex(v, "bytes")?,
        sent_at: time_field(v, "sent_at")?,
        deadline: time_field(v, "deadline")?,
        priority: u8::try_from(vdap_ckpt::get_u32(v, "priority")?)
            .map_err(|e| CkptError::new(format!("priority out of range: {e}")))?,
    })
}

// --- config fingerprint ----------------------------------------------

/// The scenario fingerprint stamped into every snapshot.
///
/// Restore refuses a snapshot whose fingerprint disagrees with the
/// restoring engine's config — resuming a *different* scenario would
/// silently produce garbage. The executor shape (`executor_threads`,
/// `batch_size`) and the `shards` label are deliberately **excluded**:
/// restoring under a different width or chunk size is a supported (and
/// tested) operation, because the canonical snapshot holds nothing
/// executor-shaped.
pub(crate) fn config_fingerprint(cfg: &FleetConfig) -> Value {
    obj(vec![
        ("seed", u64_hex(cfg.seed)),
        ("vehicles", Value::Number(f64::from(cfg.vehicles))),
        ("tenants", Value::Number(f64::from(cfg.tenants))),
        ("regions", Value::Number(f64::from(cfg.regions))),
        ("epoch_ns", u64_hex(cfg.epoch.as_nanos())),
        ("duration_ns", u64_hex(cfg.duration.as_nanos())),
        ("elastic", Value::Bool(cfg.elastic.is_some())),
        ("ingest", Value::Bool(cfg.ingest.is_some())),
        ("mobility", Value::Bool(cfg.mobility.is_some())),
        ("telemetry", Value::Bool(cfg.telemetry)),
        // Sink knobs that change what the telemetry *contains* (the
        // budget drives rollup/auto-sampling, the sample rate drives
        // the kept set). The spill *directory* is deliberately
        // excluded: it names an export location, not state — restoring
        // under a different spill dir is legitimate.
        (
            "telemetry_budget",
            u64_hex(cfg.telemetry_budget.unwrap_or(0)),
        ),
        ("span_sample", u64_hex(cfg.span_sample.map_or(0, u64::from))),
    ])
}

/// Rejects a snapshot taken under a different scenario config.
pub(crate) fn check_fingerprint(cfg: &FleetConfig, payload: &Value) -> Result<(), CkptError> {
    let want = config_fingerprint(cfg);
    let got = get(payload, "config")?;
    if *got == want {
        Ok(())
    } else {
        Err(CkptError::new(format!(
            "snapshot config mismatch: snapshot {got}, engine {want}"
        )))
    }
}

// --- snapshot diagnostics (wall-clock; never in the summary) ---------

/// One snapshot the engine wrote, with its wall-clock cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotWrite {
    /// Generation (completed-epoch index) the snapshot captured.
    pub generation: u64,
    /// Encoded size in bytes.
    pub bytes: usize,
    /// Wall-clock time spent encoding and writing, in milliseconds.
    pub write_ms: f64,
    /// Snapshot-store chaos injected into this write (`"torn-write"`
    /// or `"corruption"`), if any.
    pub chaos: Option<&'static str>,
}

/// Wall-clock checkpoint/restore accounting for
/// [`crate::FleetReport::diagnostics`].
///
/// Everything here lives on the wall-clock side of the determinism
/// boundary (like the barrier profile): write/load timings vary run to
/// run, so none of it appears in the deterministic summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDiagnostics {
    /// Snapshots written, in generation order.
    pub writes: Vec<SnapshotWrite>,
    /// Wall-clock milliseconds spent decoding the snapshot this run
    /// resumed from (`None` when the run started fresh).
    pub load_ms: Option<f64>,
    /// Generations rejected at resume time (checksum or decode
    /// failure), newest first — the supervisor fell back past these.
    pub rejected_generations: Vec<u64>,
    /// Crash-resume cycles the supervisor performed.
    pub resumes: u32,
}

impl SnapshotDiagnostics {
    /// Whether there is anything worth printing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
            && self.load_ms.is_none()
            && self.rejected_generations.is_empty()
            && self.resumes == 0
    }

    /// Folds another run leg's accounting into this one (a supervised
    /// run restarts the engine; the report should show every leg).
    pub fn absorb(&mut self, other: &SnapshotDiagnostics) {
        self.writes.extend(other.writes.iter().cloned());
        if other.load_ms.is_some() {
            self.load_ms = other.load_ms;
        }
        self.rejected_generations
            .extend(other.rejected_generations.iter().copied());
        self.resumes += other.resumes;
    }
}

impl fmt::Display for SnapshotDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  snapshots: {} written, {} resume(s), {} generation(s) rejected",
            self.writes.len(),
            self.resumes,
            self.rejected_generations.len()
        )?;
        for w in &self.writes {
            write!(
                f,
                "    write gen {}: {} B in {:.3} ms",
                w.generation, w.bytes, w.write_ms
            )?;
            if let Some(chaos) = w.chaos {
                write!(f, " ({chaos} injected)")?;
            }
            writeln!(f)?;
        }
        if let Some(load_ms) = self.load_ms {
            writeln!(f, "    restore decode: {load_ms:.3} ms")?;
        }
        for gen in &self.rejected_generations {
            writeln!(
                f,
                "    rejected gen {gen}: checksum/decode failure, fell back"
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    #[test]
    fn time_and_duration_round_trip_at_full_range() {
        let t = SimTime::from_nanos(u64::MAX - 7);
        let v = obj(vec![
            ("t", enc_time(t)),
            ("d", enc_dur(SimDuration::from_nanos(3))),
        ]);
        assert_eq!(time_field(&v, "t").unwrap(), t);
        assert_eq!(dur_field(&v, "d").unwrap(), SimDuration::from_nanos(3));
        let opt = obj(vec![
            ("a", enc_opt_time(None)),
            ("b", enc_opt_time(Some(t))),
        ]);
        assert_eq!(opt_time_field(&opt, "a").unwrap(), None);
        assert_eq!(opt_time_field(&opt, "b").unwrap(), Some(t));
    }

    #[test]
    fn rng_round_trip_preserves_the_stream() {
        let seeds = SeedFactory::new(0xC0FFEE);
        let mut rng = seeds.stream("ckpt-test");
        for _ in 0..17 {
            rng.uniform();
        }
        let v = obj(vec![("rng", enc_rng(&rng))]);
        let mut restored = rng_field(&v, "rng").unwrap();
        let mut orig = rng;
        for _ in 0..64 {
            assert_eq!(orig.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn rng_rejects_all_zero_state() {
        let v = obj(vec![(
            "rng",
            Value::Array(vec![u64_hex(0), u64_hex(0), u64_hex(0), u64_hex(0)]),
        )]);
        assert!(rng_field(&v, "rng").is_err());
    }

    #[test]
    fn histogram_round_trip_is_bit_exact_including_empty() {
        let mut h = StreamingHistogram::new("ckpt_test_ms");
        for i in 0..500 {
            h.record(0.001 * f64::from(i) * f64::from(i));
        }
        let v = obj(vec![
            ("h", enc_hist(&h)),
            ("empty", enc_hist(&StreamingHistogram::new("e"))),
        ]);
        let back = hist_field(&v, "h").unwrap();
        assert_eq!(back.state(), h.state());
        assert_eq!(format!("{back}"), format!("{h}"));
        let empty = hist_field(&v, "empty").unwrap();
        assert_eq!(empty.state(), StreamingHistogram::new("e").state());
    }

    #[test]
    fn reliability_round_trip_keeps_open_outages() {
        let mut r = ReliabilityStats::new();
        r.record_fault("lte/region0", SimTime::from_secs(3));
        r.record_recovery("lte/region0", SimTime::from_secs(9));
        r.record_fault("engine", SimTime::from_secs(20));
        r.record_retry();
        r.record_disk_spills(4);
        let v = obj(vec![("rel", enc_reliability(&r))]);
        let back = reliability_field(&v, "rel").unwrap();
        assert_eq!(back.state(), r.state());
        assert!(back.is_down("engine"));
    }

    #[test]
    fn metrics_round_trip_is_exact() {
        let mut m = FleetMetrics::new();
        m.requests = 1 << 60;
        m.edge_served = 42;
        m.e2e_latency_ms.record(3.25);
        m.by_class[1].rejected = 7;
        m.by_class[1].e2e_latency_ms.record(11.0);
        m.work_units_by_tenant.insert(3, u64::MAX - 1);
        let v = obj(vec![("m", enc_metrics(&m))]);
        let back = metrics_field(&v, "m").unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn batch_round_trip_is_exact() {
        let b = UploadBatch {
            vehicle: 900_720,
            region: 5,
            seq: 19,
            records: 64,
            bytes: 49_152,
            sent_at: SimTime::from_secs(12),
            deadline: SimTime::from_secs(14),
            priority: 3,
        };
        let v = enc_batch(&b);
        assert_eq!(dec_batch(&v).unwrap(), b);
    }

    #[test]
    fn fingerprint_guards_against_foreign_snapshots() {
        let cfg = FleetConfig::sized(64, 2);
        let payload = obj(vec![("config", config_fingerprint(&cfg))]);
        assert!(check_fingerprint(&cfg, &payload).is_ok());
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert!(check_fingerprint(&other, &payload).is_err());
        // Neither the shard label nor the executor shape is part of
        // the fingerprint: restoring under another one is supported.
        let mut reshaped = cfg.with_executor_threads(4).with_batch_size(7);
        reshaped.shards = 8;
        assert!(check_fingerprint(&reshaped, &payload).is_ok());
    }
}
