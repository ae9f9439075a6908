//! The snapshot codec for durable barrier checkpoints.
//!
//! The fleet engine serializes its *complete* deterministic state into
//! a [`vdap_ckpt::Snapshot`] payload at configurable epoch barriers
//! (see [`crate::FleetConfig::with_checkpoint`]). Every serialized type
//! speaks one vocabulary, the [`Snap`] trait: `enc` writes a value into
//! the payload's [`Value`] tree and `dec` reads it back.
//!
//! * **Leaf types encode by type.** `u8`/`u32` are plain numbers;
//!   `u64`, `usize` and `u128` (RNG words, nanos, counters that may
//!   exceed 2^53) are hex strings; `f64` travels by bit pattern, so
//!   ±∞ histogram sentinels survive and a restore is bit-identical;
//!   `SimTime`/`SimDuration` are hex nanos; `None` is `null`; an RNG
//!   stream is its 4 state words, with the all-zero state refused.
//!   `Vec`, arrays, tuples and `BTreeMap`s (as `[key, value]` pairs)
//!   compose their elements.
//! * **Records are one field list.** [`snap_record!`] writes both
//!   directions of a struct's codec from a single list of its fields.
//!   Encode destructures the struct without `..` and decode builds it
//!   as a struct literal, so a field added to state and left out of the
//!   list (or listed and then deleted) fails to compile on both sides.
//!   A field whose bytes do not follow its type (a `u32` written as
//!   hex, a `u128` split in two) names an [`Adapter`] in the list.
//! * **Rebuild what is pure.** The three top-level codecs —
//!   `XEdgeServer` (`edge.rs`), `IngestPass` (`ingest.rs`) and the
//!   engine payload (`engine.rs`) — stay hand-written, because they
//!   rebuild everything derivable from `FleetConfig` plus the master
//!   seed (route graphs, contention models, retry policies, label
//!   tables) instead of storing it, and check the stored state against
//!   that config: lengths, subsystem toggles, the fingerprint, and every
//!   id that later indexes a table. Nothing executor-shaped is stored,
//!   which is what makes restoring under a different executor width or
//!   chunk size possible.

use std::collections::BTreeMap;
use std::fmt;

use vdap_ckpt::json::Value;
use vdap_ckpt::{
    f64_bits, from_f64_bits, from_u128_hex, from_u64_hex, get, obj, u128_hex, u64_hex, CkptError,
};
use vdap_ddi::UploadBatch;
use vdap_edgeos::{AdmissionState, TenantAdmission, WorkloadClass};
use vdap_mobility::{MobilityMetrics, RouteProfile, TrackLeg, TrackMotion, TrackSnapshot};
use vdap_obs::{intern_name, HistogramState, RequestSpan, SpanOutcome};
use vdap_offload::Tile;
use vdap_sim::{
    ReliabilityState, ReliabilityStats, RngStream, SimDuration, SimTime, StreamingHistogram,
    StreamingHistogramState,
};

use crate::config::FleetConfig;
use crate::edge::{EdgeRequest, ServedRequest};
use crate::ingest::IngestMetrics;
use crate::metrics::{ClassMetrics, FleetMetrics};
use crate::vehicle::{DdiUplink, VehicleState};

// --- the trait -------------------------------------------------------

/// A value that round-trips through a snapshot payload.
pub(crate) trait Snap: Sized {
    /// Encodes the value into the payload tree.
    fn enc(&self) -> Value;
    /// Decodes a value written by [`Snap::enc`].
    fn dec(v: &Value) -> Result<Self, CkptError>;
}

/// A record's encoded members, keyed (and serialized) in sorted order.
pub(crate) type Fields = BTreeMap<String, Value>;

/// How a record writes (and reads) one field: its own member(s) of the
/// record, so an adapter can also spread one field over several keys.
pub(crate) trait Adapter<T> {
    fn put(out: &mut Fields, key: &str, v: &T);
    fn take(v: &Value, key: &str) -> Result<T, CkptError>;
}

/// The default adapter: the field's type's own [`Snap`] encoding.
pub(crate) struct ByType;

impl<T: Snap> Adapter<T> for ByType {
    fn put(out: &mut Fields, key: &str, v: &T) {
        out.insert(key.to_string(), v.enc());
    }

    fn take(v: &Value, key: &str) -> Result<T, CkptError> {
        field(v, key)
    }
}

/// Decodes the member `key` of a record, naming it in any error.
pub(crate) fn field<T: Snap>(v: &Value, key: &str) -> Result<T, CkptError> {
    T::dec(get(v, key)?).map_err(|e| e.in_field(key))
}

/// Decodes each element of the array member `key` in order and hands
/// it to `f`, without collecting the elements into a `Vec` first.
pub(crate) fn decode_each<T: Snap>(
    v: &Value,
    key: &str,
    mut f: impl FnMut(T) -> Result<(), CkptError>,
) -> Result<(), CkptError> {
    for item in array_of(get(v, key)?).map_err(|e| e.in_field(key))? {
        f(T::dec(item).map_err(|e| e.in_field(key))?)?;
    }
    Ok(())
}

/// Encodes a sequence of borrowed values as an array.
pub(crate) fn enc_all<'a, T: Snap + 'a>(items: impl IntoIterator<Item = &'a T>) -> Value {
    Value::Array(items.into_iter().map(Snap::enc).collect())
}

/// Implements [`Snap`] for a struct from one list of its fields.
///
/// Each entry is `field`, optionally `as "key"` (the member name,
/// default the field name) and `via Adapter` (a named [`Adapter`] for a
/// field whose bytes do not follow its type, default [`ByType`]).
/// Encode destructures the struct without `..` and decode builds a
/// struct literal, so the list must name every field exactly once or
/// neither side compiles.
macro_rules! snap_record {
    ($ty:ident { $($field:ident $(as $key:literal)? $(via $adapter:ident)?),+ $(,)? }) => {
        impl $crate::ckpt::Snap for $ty {
            fn enc(&self) -> ::vdap_ckpt::json::Value {
                let $ty { $($field),+ } = self;
                let mut out = $crate::ckpt::Fields::new();
                $(<$crate::ckpt::snap_record!(@via $($adapter)?) as $crate::ckpt::Adapter<_>>::put(
                    &mut out,
                    $crate::ckpt::snap_record!(@key $field $($key)?),
                    $field,
                );)+
                ::vdap_ckpt::json::Value::Object(out)
            }

            fn dec(v: &::vdap_ckpt::json::Value) -> Result<Self, ::vdap_ckpt::CkptError> {
                Ok($ty {$(
                    $field: <$crate::ckpt::snap_record!(@via $($adapter)?) as $crate::ckpt::Adapter<_>>::take(
                        v,
                        $crate::ckpt::snap_record!(@key $field $($key)?),
                    )?,
                )+})
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@via) => { $crate::ckpt::ByType };
    (@via $adapter:ident) => { $adapter };
}
pub(crate) use snap_record;

// --- leaf types ------------------------------------------------------

fn str_of(v: &Value) -> Result<&str, CkptError> {
    v.as_str().ok_or_else(|| CkptError::new("expected string"))
}

fn array_of(v: &Value) -> Result<&[Value], CkptError> {
    v.as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| CkptError::new("expected array"))
}

/// Narrows a decoded integer to the field's type.
pub(crate) fn fit<T: TryFrom<u64>>(n: u64) -> Result<T, CkptError> {
    T::try_from(n).map_err(|_| CkptError::new(format!("{n} out of range")))
}

/// Implements [`Snap`] for a type by converting it to and from another
/// `Snap` type that carries its encoding.
macro_rules! snap_via {
    ($ty:ty => $via:ty, $to:expr, $from:expr) => {
        impl Snap for $ty {
            fn enc(&self) -> Value {
                let to: fn(&$ty) -> $via = $to;
                to(self).enc()
            }

            fn dec(v: &Value) -> Result<Self, CkptError> {
                let from: fn($via) -> Result<$ty, CkptError> = $from;
                from(<$via>::dec(v)?)
            }
        }
    };
}

/// Small counts and ids: plain JSON numbers.
impl Snap for u32 {
    fn enc(&self) -> Value {
        Value::Number(f64::from(*self))
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        let n = v.as_u64();
        fit(n.ok_or_else(|| CkptError::new("expected unsigned integer"))?)
    }
}

/// Anything that may exceed 2^53: hex.
impl Snap for u64 {
    fn enc(&self) -> Value {
        u64_hex(*self)
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        from_u64_hex(v)
    }
}

impl Snap for u128 {
    fn enc(&self) -> Value {
        u128_hex(*self)
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        from_u128_hex(v)
    }
}

/// By bit pattern: exact, and ±∞ survive.
impl Snap for f64 {
    fn enc(&self) -> Value {
        f64_bits(*self)
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        from_f64_bits(v)
    }
}

impl Snap for bool {
    fn enc(&self) -> Value {
        Value::Bool(*self)
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(CkptError::new("expected bool")),
        }
    }
}

impl Snap for String {
    fn enc(&self) -> Value {
        Value::String(self.clone())
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        str_of(v).map(str::to_string)
    }
}

/// Telemetry names and span class labels, decoded back into the
/// process-wide name pool.
impl Snap for &'static str {
    fn enc(&self) -> Value {
        Value::String((*self).to_string())
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        str_of(v).map(intern_name)
    }
}

snap_via!(u8 => u32, |n| u32::from(*n), |n| fit(u64::from(n)));
snap_via!(usize => u64, |n| *n as u64, fit);
snap_via!(SimTime => u64, |t| t.as_nanos(), |n| Ok(SimTime::from_nanos(n)));
snap_via!(SimDuration => u64, |d| d.as_nanos(), |n| Ok(SimDuration::from_nanos(n)));
// A road tile's coordinate travels as its two's-complement bits, so
// negative coordinates survive the `f64`-backed number shim.
snap_via!(Tile => u64, |t| t.0 as u64, |n| Ok(Tile(n as i64)));
// The full xoshiro256++ state; the all-zero state (a stream stuck at
// zero forever) is refused.
snap_via!(RngStream => [u64; 4], RngStream::state, |state| {
    if state == [0; 4] {
        return Err(CkptError::new("rng state is all-zero"));
    }
    Ok(RngStream::from_state(state))
});
snap_via!(StreamingHistogram => StreamingHistogramState, StreamingHistogram::state, |s| Ok(
    StreamingHistogram::from_state(s)
));
snap_via!(ReliabilityStats => ReliabilityState, ReliabilityStats::state, |s| Ok(
    ReliabilityStats::from_state(s)
));
snap_via!(TenantAdmission => AdmissionState, TenantAdmission::state, |s| Ok(
    TenantAdmission::from_state(s)
));

impl<T: Snap> Snap for Option<T> {
    fn enc(&self) -> Value {
        self.as_ref().map_or(Value::Null, Snap::enc)
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        match v {
            Value::Null => Ok(None),
            other => T::dec(other).map(Some),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn enc(&self) -> Value {
        enc_all(self)
    }

    /// Sized exactly: a restored arena or span log keeps this capacity
    /// for the rest of the run.
    fn dec(v: &Value) -> Result<Self, CkptError> {
        let items = array_of(v)?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::dec(item)?);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn enc(&self) -> Value {
        enc_all(self)
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        Vec::<T>::dec(v)?.try_into().map_err(|items: Vec<T>| {
            CkptError::new(format!("expected {N} elements, got {}", items.len()))
        })
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn enc(&self) -> Value {
        Value::Array(vec![self.0.enc(), self.1.enc()])
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        match array_of(v)? {
            [a, b] => Ok((A::dec(a)?, B::dec(b)?)),
            _ => Err(CkptError::new("expected a pair")),
        }
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn enc(&self) -> Value {
        Value::Array(vec![self.0.enc(), self.1.enc(), self.2.enc()])
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        match array_of(v)? {
            [a, b, c] => Ok((A::dec(a)?, B::dec(b)?, C::dec(c)?)),
            _ => Err(CkptError::new("expected a triple")),
        }
    }
}

/// A map as its `[key, value]` pairs in key order.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn enc(&self) -> Value {
        let pairs = self
            .iter()
            .map(|(k, v)| Value::Array(vec![k.enc(), v.enc()]));
        Value::Array(pairs.collect())
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        Ok(Vec::<(K, V)>::dec(v)?.into_iter().collect())
    }
}

/// Implements [`Snap`] for a fieldless enum as its index in `$all`.
macro_rules! snap_index {
    ($ty:ty, $what:literal, $all:expr) => {
        impl Snap for $ty {
            fn enc(&self) -> Value {
                let idx = $all.iter().position(|x| x == self);
                Value::Number(idx.expect("every variant listed") as f64)
            }

            fn dec(v: &Value) -> Result<Self, CkptError> {
                let idx = u32::dec(v)?;
                let found = $all.get(idx as usize).copied();
                found.ok_or_else(|| CkptError::new(format!("unknown {} {idx}", $what)))
            }
        }
    };
}

snap_index!(WorkloadClass, "workload class", WorkloadClass::ALL);
snap_index!(
    RouteProfile,
    "route profile",
    [
        RouteProfile::Commute,
        RouteProfile::Roam,
        RouteProfile::RushHour
    ]
);
snap_index!(
    TrackLeg,
    "track leg",
    [TrackLeg::BeforeOutbound, TrackLeg::AtWork, TrackLeg::Done]
);

/// A span outcome as its label.
impl Snap for SpanOutcome {
    fn enc(&self) -> Value {
        Value::String(self.label().to_string())
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        let label = str_of(v)?;
        SpanOutcome::from_label(label)
            .ok_or_else(|| CkptError::new(format!("unknown span outcome {label:?}")))
    }
}

/// A track's motion as an object tagged by `kind`; a drive's segment
/// index is a plain number.
impl Snap for TrackMotion {
    fn enc(&self) -> Value {
        let kind = |k: &str| ("kind", Value::from(k));
        match self {
            TrackMotion::Parked => obj(vec![kind("parked")]),
            TrackMotion::Dwell(until) => obj(vec![kind("dwell"), ("until", until.enc())]),
            TrackMotion::Drive {
                edge,
                remaining,
                path,
            } => obj(vec![
                kind("drive"),
                ("edge", Value::Number(*edge as f64)),
                ("remaining", remaining.enc()),
                ("path", path.enc()),
            ]),
        }
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        match str_of(get(v, "kind")?)? {
            "parked" => Ok(TrackMotion::Parked),
            "dwell" => Ok(TrackMotion::Dwell(field(v, "until")?)),
            "drive" => Ok(TrackMotion::Drive {
                edge: field::<u32>(v, "edge")? as usize,
                remaining: field(v, "remaining")?,
                path: field(v, "path")?,
            }),
            other => Err(CkptError::new(format!("unknown track motion {other:?}"))),
        }
    }
}

// --- per-field adapters ----------------------------------------------

/// `(tenant, count)` pairs whose `u32` count is written as hex.
pub(crate) struct HexCounts;

impl Adapter<Vec<(u32, u32)>> for HexCounts {
    fn put(out: &mut Fields, key: &str, v: &Vec<(u32, u32)>) {
        let pairs = v.iter().map(|&(t, n)| (t, u64::from(n)).enc());
        out.insert(key.to_string(), Value::Array(pairs.collect()));
    }

    fn take(v: &Value, key: &str) -> Result<Vec<(u32, u32)>, CkptError> {
        let pairs = field::<Vec<(u32, u64)>>(v, key)?.into_iter();
        let pairs = pairs.map(|(t, n)| Ok((t, fit(n)?)));
        pairs
            .collect::<Result<_, CkptError>>()
            .map_err(|e| e.in_field(key))
    }
}

/// `(bucket index, count)` pairs whose `u32` index is written as hex.
pub(crate) struct HexIndex;

impl Adapter<Vec<(u32, u64)>> for HexIndex {
    fn put(out: &mut Fields, key: &str, v: &Vec<(u32, u64)>) {
        let pairs = v.iter().map(|&(i, n)| (u64::from(i), n).enc());
        out.insert(key.to_string(), Value::Array(pairs.collect()));
    }

    fn take(v: &Value, key: &str) -> Result<Vec<(u32, u64)>, CkptError> {
        let pairs = field::<Vec<(u64, u64)>>(v, key)?.into_iter();
        let pairs = pairs.map(|(i, n)| Ok((fit(i)?, n)));
        pairs
            .collect::<Result<_, CkptError>>()
            .map_err(|e| e.in_field(key))
    }
}

/// Raw RNG state words, refusing the all-zero state as [`RngStream`]'s
/// own encoding does.
pub(crate) struct RngWords;

impl Adapter<[u64; 4]> for RngWords {
    fn put(out: &mut Fields, key: &str, v: &[u64; 4]) {
        ByType::put(out, key, v);
    }

    fn take(v: &Value, key: &str) -> Result<[u64; 4], CkptError> {
        field::<RngStream>(v, key).map(|rng| rng.state())
    }
}

/// A `u128` split into hex `<key>_hi` and `<key>_lo` halves.
pub(crate) struct HiLo;

impl Adapter<u128> for HiLo {
    fn put(out: &mut Fields, key: &str, v: &u128) {
        out.insert(format!("{key}_hi"), ((*v >> 64) as u64).enc());
        out.insert(format!("{key}_lo"), (*v as u64).enc());
    }

    fn take(v: &Value, key: &str) -> Result<u128, CkptError> {
        let hi: u64 = field(v, &format!("{key}_hi"))?;
        let lo: u64 = field(v, &format!("{key}_lo"))?;
        Ok((u128::from(hi) << 64) | u128::from(lo))
    }
}

// --- records ---------------------------------------------------------

snap_record! { StreamingHistogramState {
    name, sparse_buckets as "buckets", count, sum_micro, min, max,
} }

snap_record! { HistogramState {
    buckets via HexIndex,
    count,
    sum_ticks as "sum" via HiLo,
    min_ticks as "min",
    max_ticks as "max",
} }

snap_record! { ReliabilityState {
    mttr_samples, failover_samples, retries, retry_successes, retry_exhausted, faults_injected,
    down_since, downtime, degraded, cache_ttl_evictions, disk_spills,
} }

snap_record! { AdmissionState {
    queue_cap, cap_overrides, depth, admitted, rejected, rejected_by_tenant,
    registrations via HexCounts,
} }

snap_record! { ClassMetrics {
    e2e_latency_ms, requests, edge_served, collab_hits, failovers, rejected, local_fallbacks,
} }

snap_record! { FleetMetrics {
    e2e_latency_ms, energy_per_request_j, queue_depth, elastic_lanes, by_class,
    work_units_by_tenant, requests, edge_served, collab_hits, failovers, rejected, requeued,
    retry_rescued, handoffs, local_fallbacks, training_rounds_skipped, scale_ups, scale_downs,
} }

snap_record! { IngestMetrics {
    batches_sent, records_sent, batches_written, records_written, deadline_misses, outage_bounces,
    queue_bounces, retries, deferrals, disk_spills, cache_evictions, records_shed, backlog_records,
    storage_rho, uplink_ms, ingest_latency_ms,
} }

snap_record! { UploadBatch { vehicle, region, seq, records, bytes, sent_at, deadline, priority } }

snap_record! { EdgeRequest { vehicle, seq, tenant, region, class, arrival, attempts, handoff } }

snap_record! { ServedRequest {
    vehicle, seq, tenant, region, class, work, arrival, admitted, serve_start, e2e, energy_j,
    retries, requeues, handoff,
} }

snap_record! { DdiUplink { rng, seq } }

snap_record! { VehicleState {
    id, tenant, region, rng, seq, ddi, next_tick, next_ingest, pending_handoff, cache_stale,
} }

snap_record! { RequestSpan {
    vehicle, seq, tenant, region, class, generated, admitted, serve_start, completed, outcome,
    retries, requeues, handoff,
} }

snap_record! { TrackSnapshot {
    id, profile, region, home, work, outbound_at, return_at, dwell_mean, leg, motion,
    rng via RngWords,
} }

snap_record! { MobilityMetrics {
    crossings, migrations, storm_crossings, stale_cache_hits, readdressed_batches, handoff_seconds,
    handoff_ms, crossing_speed_mph,
} }

// --- restore checks --------------------------------------------------

/// Rejects a snapshot id that would index past the `count` entries the
/// restoring config gives that table.
pub(crate) fn check_id(what: &str, id: u32, count: u32) -> Result<(), CkptError> {
    if id < count {
        Ok(())
    } else {
        Err(CkptError::new(format!(
            "{what} {id} out of range, config has {count}"
        )))
    }
}

/// Rejects a stored table whose length disagrees with the config.
pub(crate) fn check_len<T>(items: Vec<T>, want: usize, what: &str) -> Result<Vec<T>, CkptError> {
    if items.len() == want {
        Ok(items)
    } else {
        Err(CkptError::new(format!(
            "snapshot has {} {what}, config has {want}",
            items.len()
        )))
    }
}

// --- config fingerprint ----------------------------------------------

/// The scenario fingerprint stamped into every snapshot.
///
/// Restore refuses a snapshot whose fingerprint disagrees with the
/// restoring engine's config — resuming a *different* scenario would
/// silently produce garbage. The executor shape (`executor_threads`,
/// `batch_size`) is deliberately **excluded**:
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

    fn round_trip<T: Snap>(v: &T) -> T {
        T::dec(&v.enc()).expect("decodes what it encoded")
    }

    #[test]
    fn time_and_duration_round_trip_at_full_range() {
        let t = SimTime::from_nanos(u64::MAX - 7);
        assert_eq!(round_trip(&t), t);
        let d = SimDuration::from_nanos(3);
        assert_eq!(round_trip(&d), d);
        assert_eq!(round_trip(&None::<SimTime>), None);
        assert_eq!(None::<SimTime>.enc(), Value::Null);
        assert_eq!(round_trip(&Some(t)), Some(t));
    }

    #[test]
    fn rng_round_trip_preserves_the_stream() {
        let seeds = SeedFactory::new(0xC0FFEE);
        let mut rng = seeds.stream("ckpt-test");
        for _ in 0..17 {
            rng.uniform();
        }
        let mut restored = round_trip(&rng);
        let mut orig = rng;
        for _ in 0..64 {
            assert_eq!(orig.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn rng_rejects_all_zero_state() {
        let zero = Value::Array(vec![u64_hex(0), u64_hex(0), u64_hex(0), u64_hex(0)]);
        assert!(RngStream::dec(&zero).is_err());
        // A mobility track's raw state words are held to the same rule.
        let track = obj(vec![("rng", zero)]);
        assert!(<RngWords as Adapter<[u64; 4]>>::take(&track, "rng").is_err());
        let short = Value::Array(vec![u64_hex(1), u64_hex(2), u64_hex(3)]);
        assert!(RngStream::dec(&short).is_err());
    }

    #[test]
    fn histogram_round_trip_is_bit_exact_including_empty() {
        let mut h = StreamingHistogram::new("ckpt_test_ms");
        for i in 0..500 {
            h.record(0.001 * f64::from(i) * f64::from(i));
        }
        let back = round_trip(&h);
        assert_eq!(back.state(), h.state());
        assert_eq!(format!("{back}"), format!("{h}"));
        let empty = round_trip(&StreamingHistogram::new("e"));
        assert_eq!(empty.state(), StreamingHistogram::new("e").state());
    }

    #[test]
    fn telemetry_histogram_splits_its_sum_and_hexes_bucket_indices() {
        let mut h = vdap_obs::StreamingHistogram::new("ckpt_obs_ms");
        for i in 1..300u32 {
            h.record(f64::from(i) * 3.7);
        }
        let state = HistogramState {
            sum_ticks: (7u128 << 64) | 9,
            ..h.state()
        };
        let v = state.enc();
        assert_eq!(vdap_ckpt::get_u64_hex(&v, "sum_hi").unwrap(), 7);
        assert_eq!(vdap_ckpt::get_u64_hex(&v, "sum_lo").unwrap(), 9);
        let first = &get(&v, "buckets").unwrap().as_array().unwrap()[0];
        assert!(first.as_array().unwrap()[0].as_str().is_some(), "hex index");
        assert_eq!(round_trip(&state), state);
        let empty = vdap_obs::StreamingHistogram::new("e").state();
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn reliability_round_trip_keeps_open_outages() {
        let mut r = ReliabilityStats::new();
        r.record_fault("lte/region0", SimTime::from_secs(3));
        r.record_recovery("lte/region0", SimTime::from_secs(9));
        r.record_fault("engine", SimTime::from_secs(20));
        r.record_retry();
        r.record_disk_spills(4);
        let back = round_trip(&r);
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
        assert_eq!(round_trip(&m), m);
        // A ledger with the wrong number of workload classes is refused.
        let Value::Object(mut fields) = m.enc() else {
            panic!("metrics encode as an object");
        };
        fields.insert("by_class".into(), m.by_class[..2].to_vec().enc());
        assert!(FleetMetrics::dec(&Value::Object(fields)).is_err());
    }

    fn batch() -> UploadBatch {
        UploadBatch {
            vehicle: 900_720,
            region: 5,
            seq: 19,
            records: 64,
            bytes: 49_152,
            sent_at: SimTime::from_secs(12),
            deadline: SimTime::from_secs(14),
            priority: 3,
        }
    }

    #[test]
    fn batch_round_trip_is_exact() {
        let b = batch();
        assert_eq!(round_trip(&b), b);
    }

    #[test]
    fn admission_registrations_travel_as_hex() {
        let state = AdmissionState {
            queue_cap: 40,
            cap_overrides: vec![(1, 10)],
            depth: vec![(0, 3), (2, 5)],
            admitted: 1 << 55,
            rejected: 9,
            rejected_by_tenant: vec![(2, 9)],
            registrations: vec![(0, 12), (3, 7)],
        };
        let v = state.enc();
        let pair = &get(&v, "registrations").unwrap().as_array().unwrap()[1];
        assert_eq!(pair, &Value::Array(vec![Value::from(3u32), u64_hex(7)]));
        assert_eq!(round_trip(&state), state);
    }

    #[test]
    fn a_bad_member_is_named_in_the_error() {
        let err = UploadBatch::dec(&obj(vec![])).unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
        let Value::Object(mut fields) = batch().enc() else {
            panic!("a batch encodes as an object");
        };
        fields.insert("sent_at".into(), Value::Bool(true));
        let err = UploadBatch::dec(&Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("field 'sent_at'"), "{err}");
    }

    #[test]
    fn fingerprint_guards_against_foreign_snapshots() {
        let cfg = FleetConfig::sized(64);
        let payload = obj(vec![("config", config_fingerprint(&cfg))]);
        assert!(check_fingerprint(&cfg, &payload).is_ok());
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert!(check_fingerprint(&other, &payload).is_err());
        // The executor shape is not part of the fingerprint:
        // restoring under another one is supported.
        let reshaped = cfg.with_executor_threads(4).with_batch_size(7);
        assert!(check_fingerprint(&reshaped, &payload).is_ok());
    }
}
