//! The snapshot codec for durable barrier checkpoints.
//!
//! The fleet engine serializes its *complete* deterministic state into
//! a [`vdap_ckpt::Snapshot`] payload at configurable epoch barriers
//! (see [`crate::FleetConfig::with_checkpoint`]). Every serialized type
//! speaks one vocabulary, the [`Snap`] trait: `enc` appends a value's
//! canonical JSON text straight to the payload buffer, building no
//! [`Value`] tree, and `dec` reads it back from the parsed tree.
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
//! * **Keys in order.** Canonical JSON sorts object members by key, and
//!   the writer emits them as they come, so every field list and every
//!   hand-written object lists its keys in ascending byte order. The
//!   object writer [`Obj`] panics on a key out of order: that is a bug
//!   in a codec, and every test that writes a snapshot would hit it.
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

use vdap_ckpt::json::{self, Value};
use vdap_ckpt::{from_f64_bits, from_u128_hex, from_u64_hex, get, write_hex, CkptError};
use vdap_ddi::UploadBatch;
use vdap_edgeos::{AdmissionState, LanePolicy, TenantAdmission, WorkloadClass};
use vdap_fault::{FaultKind, FaultPlan, FaultSpec};
use vdap_mobility::{
    MobilityConfig, MobilityMetrics, RouteProfile, TrackLeg, TrackMotion, TrackSnapshot,
};
use vdap_obs::{intern_name, HistogramState, RequestSpan, SpanOutcome};
use vdap_offload::Tile;
use vdap_sim::{
    ReliabilityState, ReliabilityStats, RngStream, SimDuration, SimTime, StreamingHistogram,
    StreamingHistogramState,
};

use crate::config::{CheckpointConfig, ClassSpec, FleetConfig, IngestConfig};
use crate::edge::{EdgeRequest, ServedRequest};
use crate::ingest::IngestMetrics;
use crate::metrics::{ClassMetrics, FleetMetrics};
use crate::vehicle::{DdiUplink, VehicleState};

// --- the trait -------------------------------------------------------

/// A value that round-trips through a snapshot payload.
pub(crate) trait Snap: Sized {
    /// Appends the value's canonical JSON text to `out`.
    fn enc(&self, out: &mut String);
    /// Decodes a value written by [`Snap::enc`].
    fn dec(v: &Value) -> Result<Self, CkptError>;
}

/// Writes one JSON object into a payload buffer, member by member.
///
/// Keys are plain identifiers, written unescaped, and must come in
/// strictly ascending order, the order a canonical object's members
/// serialize in; a key out of order panics.
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    /// Where the previous key sits in `out`.
    last_key: Option<(usize, usize)>,
}

impl<'a> Obj<'a> {
    /// Opens an object at the end of `out`.
    pub(crate) fn new(out: &'a mut String) -> Self {
        out.push('{');
        Obj {
            out,
            last_key: None,
        }
    }

    /// Writes the member name `key` and returns the buffer its value
    /// goes into.
    pub(crate) fn key(&mut self, key: &str) -> &mut String {
        debug_assert!(
            key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
            "snapshot key {key:?} is not a plain identifier"
        );
        if let Some((start, end)) = self.last_key {
            let last = &self.out[start..end];
            assert!(last < key, "snapshot key {key:?} written after {last:?}");
            self.out.push(',');
        }
        self.out.push('"');
        let start = self.out.len();
        self.out.push_str(key);
        self.last_key = Some((start, self.out.len()));
        self.out.push_str("\":");
        self.out
    }

    /// Writes the member `key` with `v`'s encoding.
    pub(crate) fn field<T: Snap>(&mut self, key: &str, v: &T) {
        v.enc(self.key(key));
    }

    /// Closes the object.
    pub(crate) fn end(self) {
        self.out.push('}');
    }
}

/// How a record writes (and reads) one field: its own member(s) of the
/// record, so an adapter can also spread one field over several keys.
pub(crate) trait Adapter<T> {
    fn put(out: &mut Obj<'_>, key: &str, v: &T);
    fn take(v: &Value, key: &str) -> Result<T, CkptError>;
}

/// The default adapter: the field's type's own [`Snap`] encoding.
pub(crate) struct ByType;

impl<T: Snap> Adapter<T> for ByType {
    fn put(out: &mut Obj<'_>, key: &str, v: &T) {
        out.field(key, v);
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

/// Writes `items` as an array, each item written by `write`.
pub(crate) fn write_array<I>(
    out: &mut String,
    items: impl IntoIterator<Item = I>,
    mut write: impl FnMut(&mut String, I),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// Encodes a sequence of borrowed values as an array.
pub(crate) fn enc_all<'a, T: Snap + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    write_array(out, items, |out, item| item.enc(out));
}

/// Writes `v` with `write`, or `null` when there is none.
pub(crate) fn enc_or_null<T>(out: &mut String, v: Option<&T>, write: impl FnOnce(&T, &mut String)) {
    match v {
        Some(v) => write(v, out),
        None => out.push_str("null"),
    }
}

/// Implements [`Snap`] for a struct from one list of its fields.
///
/// Each entry is `field`, optionally `as "key"` (the member name,
/// default the field name) and `via Adapter` (a named [`Adapter`] for a
/// field whose bytes do not follow its type, default [`ByType`]).
/// Entries are listed in ascending key order, the order the members are
/// written in. Encode destructures the struct without `..` and decode
/// builds a struct literal, so the list must name every field exactly
/// once or neither side compiles.
macro_rules! snap_record {
    ($ty:ident { $($field:ident $(as $key:literal)? $(via $adapter:ident)?),+ $(,)? }) => {
        impl $crate::ckpt::Snap for $ty {
            fn enc(&self, out: &mut String) {
                let $ty { $($field),+ } = self;
                let mut obj = $crate::ckpt::Obj::new(out);
                $(<$crate::ckpt::snap_record!(@via $($adapter)?) as $crate::ckpt::Adapter<_>>::put(
                    &mut obj,
                    $crate::ckpt::snap_record!(@key $field $($key)?),
                    $field,
                );)+
                obj.end();
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
            fn enc(&self, out: &mut String) {
                let to: fn(&$ty) -> $via = $to;
                to(self).enc(out);
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
    fn enc(&self, out: &mut String) {
        json::write_number(out, f64::from(*self));
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        let n = v.as_u64();
        fit(n.ok_or_else(|| CkptError::new("expected unsigned integer"))?)
    }
}

/// Anything that may exceed 2^53: hex.
impl Snap for u64 {
    fn enc(&self, out: &mut String) {
        write_hex(out, u128::from(*self));
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        from_u64_hex(v)
    }
}

impl Snap for u128 {
    fn enc(&self, out: &mut String) {
        write_hex(out, *self);
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        from_u128_hex(v)
    }
}

/// By bit pattern: exact, and ±∞ survive.
impl Snap for f64 {
    fn enc(&self, out: &mut String) {
        write_hex(out, u128::from(self.to_bits()));
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        from_f64_bits(v)
    }
}

impl Snap for bool {
    fn enc(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(CkptError::new("expected bool")),
        }
    }
}

impl Snap for String {
    fn enc(&self, out: &mut String) {
        json::write_string(out, self);
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        str_of(v).map(str::to_string)
    }
}

/// Telemetry names and span class labels, decoded back into the
/// process-wide name pool.
impl Snap for &'static str {
    fn enc(&self, out: &mut String) {
        json::write_string(out, self);
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
    fn enc(&self, out: &mut String) {
        enc_or_null(out, self.as_ref(), Snap::enc);
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        match v {
            Value::Null => Ok(None),
            other => T::dec(other).map(Some),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn enc(&self, out: &mut String) {
        enc_all(out, self);
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
    fn enc(&self, out: &mut String) {
        enc_all(out, self);
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        Vec::<T>::dec(v)?.try_into().map_err(|items: Vec<T>| {
            CkptError::new(format!("expected {N} elements, got {}", items.len()))
        })
    }
}

/// Writes `[a,b]`.
fn enc_pair<A: Snap, B: Snap>(out: &mut String, a: &A, b: &B) {
    out.push('[');
    a.enc(out);
    out.push(',');
    b.enc(out);
    out.push(']');
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn enc(&self, out: &mut String) {
        enc_pair(out, &self.0, &self.1);
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        match array_of(v)? {
            [a, b] => Ok((A::dec(a)?, B::dec(b)?)),
            _ => Err(CkptError::new("expected a pair")),
        }
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn enc(&self, out: &mut String) {
        out.push('[');
        self.0.enc(out);
        out.push(',');
        self.1.enc(out);
        out.push(',');
        self.2.enc(out);
        out.push(']');
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
    fn enc(&self, out: &mut String) {
        write_array(out, self, |out, (k, v)| enc_pair(out, k, v));
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        Ok(Vec::<(K, V)>::dec(v)?.into_iter().collect())
    }
}

/// Implements [`Snap`] for a fieldless enum as its index in `$all`.
macro_rules! snap_index {
    ($ty:ty, $what:literal, $all:expr) => {
        impl Snap for $ty {
            fn enc(&self, out: &mut String) {
                let idx = $all.iter().position(|x| x == self);
                json::write_number(out, idx.expect("every variant listed") as f64);
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
    fn enc(&self, out: &mut String) {
        json::write_string(out, self.label());
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
    fn enc(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        match self {
            TrackMotion::Parked => obj.field("kind", &"parked"),
            TrackMotion::Dwell(until) => {
                obj.field("kind", &"dwell");
                obj.field("until", until);
            }
            TrackMotion::Drive {
                edge,
                remaining,
                path,
            } => {
                json::write_number(obj.key("edge"), *edge as f64);
                obj.field("kind", &"drive");
                obj.field("path", path);
                obj.field("remaining", remaining);
            }
        }
        obj.end();
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

/// A fault kind as an object tagged by its label, carrying its factor or
/// crash epoch when it has one.
impl Snap for FaultKind {
    fn enc(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        match self {
            FaultKind::EngineCrash { epoch } => obj.field("epoch", epoch),
            FaultKind::SlotThrottle { factor }
            | FaultKind::BandwidthCollapse { factor }
            | FaultKind::TenantQuotaFlap { factor }
            | FaultKind::StorageBrownout { factor } => obj.field("factor", factor),
            FaultKind::SlotFailure
            | FaultKind::LinkOutage
            | FaultKind::StorageWriteError
            | FaultKind::ServiceCrash
            | FaultKind::EdgeNodeCrash
            | FaultKind::RegionHandoffStorm
            | FaultKind::CollectorOutage
            | FaultKind::SnapshotTornWrite
            | FaultKind::SnapshotCorruption => {}
        }
        obj.field("kind", &self.label());
        obj.end();
    }

    fn dec(v: &Value) -> Result<Self, CkptError> {
        let factor = || field(v, "factor");
        Ok(match str_of(get(v, "kind")?)? {
            "slot-failure" => FaultKind::SlotFailure,
            "slot-throttle" => FaultKind::SlotThrottle { factor: factor()? },
            "link-outage" => FaultKind::LinkOutage,
            "bandwidth-collapse" => FaultKind::BandwidthCollapse { factor: factor()? },
            "storage-write-error" => FaultKind::StorageWriteError,
            "service-crash" => FaultKind::ServiceCrash,
            "edge-node-crash" => FaultKind::EdgeNodeCrash,
            "tenant-quota-flap" => FaultKind::TenantQuotaFlap { factor: factor()? },
            "region-handoff-storm" => FaultKind::RegionHandoffStorm,
            "collector-outage" => FaultKind::CollectorOutage,
            "storage-brownout" => FaultKind::StorageBrownout { factor: factor()? },
            "engine-crash" => FaultKind::EngineCrash {
                epoch: field(v, "epoch")?,
            },
            "snapshot-torn-write" => FaultKind::SnapshotTornWrite,
            "snapshot-corruption" => FaultKind::SnapshotCorruption,
            other => return Err(CkptError::new(format!("unknown fault kind {other:?}"))),
        })
    }
}

// A fault plan as its horizon and its faults in plan order.
snap_via!(FaultPlan => (SimDuration, Vec<FaultSpec>), |plan| (plan.horizon(), plan.faults().to_vec()), |(horizon, faults)| {
    Ok(faults.into_iter().fold(FaultPlan::new(horizon), FaultPlan::with_fault))
});

// --- per-field adapters ----------------------------------------------

/// `(tenant, count)` pairs whose `u32` count is written as hex.
pub(crate) struct HexCounts;

impl Adapter<Vec<(u32, u32)>> for HexCounts {
    fn put(out: &mut Obj<'_>, key: &str, v: &Vec<(u32, u32)>) {
        write_array(out.key(key), v, |out, &(t, n)| {
            enc_pair(out, &t, &u64::from(n));
        });
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
    fn put(out: &mut Obj<'_>, key: &str, v: &Vec<(u32, u64)>) {
        write_array(out.key(key), v, |out, &(i, n)| {
            enc_pair(out, &u64::from(i), &n);
        });
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
    fn put(out: &mut Obj<'_>, key: &str, v: &[u64; 4]) {
        ByType::put(out, key, v);
    }

    fn take(v: &Value, key: &str) -> Result<[u64; 4], CkptError> {
        field::<RngStream>(v, key).map(|rng| rng.state())
    }
}

/// A `u128` split into hex `<key>_hi` and `<key>_lo` halves.
pub(crate) struct HiLo;

impl Adapter<u128> for HiLo {
    fn put(out: &mut Obj<'_>, key: &str, v: &u128) {
        out.field(&format!("{key}_hi"), &((*v >> 64) as u64));
        out.field(&format!("{key}_lo"), &(*v as u64));
    }

    fn take(v: &Value, key: &str) -> Result<u128, CkptError> {
        let hi: u64 = field(v, &format!("{key}_hi"))?;
        let lo: u64 = field(v, &format!("{key}_lo"))?;
        Ok((u128::from(hi) << 64) | u128::from(lo))
    }
}

// --- records (fields in key order) -----------------------------------

snap_record! { StreamingHistogramState {
    sparse_buckets as "buckets", count, max, min, name, sum_micro,
} }

snap_record! { HistogramState {
    buckets via HexIndex,
    count,
    max_ticks as "max",
    min_ticks as "min",
    sum_ticks as "sum" via HiLo,
} }

snap_record! { ReliabilityState {
    cache_ttl_evictions, degraded, disk_spills, down_since, downtime, failover_samples,
    faults_injected, mttr_samples, retries, retry_exhausted, retry_successes,
} }

snap_record! { AdmissionState {
    admitted, cap_overrides, depth, queue_cap, registrations via HexCounts, rejected,
    rejected_by_tenant,
} }

snap_record! { ClassMetrics {
    collab_hits, e2e_latency_ms, edge_served, failovers, local_fallbacks, rejected, requests,
} }

snap_record! { FleetMetrics {
    by_class, collab_hits, e2e_latency_ms, edge_served, elastic_lanes, energy_per_request_j,
    failovers, handoffs, local_fallbacks, queue_depth, rejected, requests, requeued, retry_rescued,
    scale_downs, scale_ups, training_rounds_skipped, work_units_by_tenant,
} }

snap_record! { IngestMetrics {
    backlog_records, batches_sent, batches_written, cache_evictions, deadline_misses, deferrals,
    disk_spills, ingest_latency_ms, outage_bounces, queue_bounces, records_sent, records_shed,
    records_written, retries, storage_rho, uplink_ms,
} }

snap_record! { UploadBatch { bytes, deadline, priority, records, region, sent_at, seq, vehicle } }

snap_record! { EdgeRequest { arrival, attempts, class, handoff, region, seq, tenant, vehicle } }

snap_record! { ServedRequest {
    admitted, arrival, class, e2e, energy_j, handoff, region, requeues, retries, seq, serve_start,
    tenant, vehicle, work,
} }

snap_record! { DdiUplink { rng, seq } }

snap_record! { VehicleState {
    cache_stale, ddi, id, next_ingest, next_tick, pending_handoff, region, rng, seq, tenant,
} }

snap_record! { RequestSpan {
    admitted, class, completed, generated, handoff, outcome, region, requeues, retries, seq,
    serve_start, tenant, vehicle,
} }

snap_record! { TrackSnapshot {
    dwell_mean, home, id, leg, motion, outbound_at, profile, region, return_at,
    rng via RngWords, work,
} }

snap_record! { MobilityMetrics {
    crossing_speed_mph, crossings, handoff_ms, handoff_seconds, migrations, readdressed_batches,
    stale_cache_hits, storm_crossings,
} }

// The scenario config, written only into the fingerprint.

snap_record! { ClassSpec {
    cacheable, deadline, degraded_service_factor, download_bytes, drr_quantum, edge_service,
    upload_bytes, vehicle_service, weight, work_units,
} }

snap_record! { IngestConfig {
    cache_disk_records, cache_mem_records, cache_ttl, collector_queue_records, deadline,
    max_upload_attempts, record_bytes, records_per_batch, storage_records_per_sec, upload_period,
} }

snap_record! { CheckpointConfig { interval_epochs, retain } }

snap_record! { LanePolicy { max_lanes, min_lanes, scale_down_backlog, scale_up_backlog, step } }

snap_record! { MobilityConfig {
    chord_fraction, commute_weight, downtown_fraction, dwell_mean, roam_weight, rush_weight,
    rush_window, segment_capacity,
} }

snap_record! { FaultSpec { duration, kind, recurrence, start, target } }

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

/// The scenario fingerprint stamped into every snapshot, appended to
/// `out`: every config field that shapes the run.
///
/// Restore refuses a snapshot whose fingerprint disagrees with the
/// restoring engine's config — resuming a *different* scenario would
/// silently produce garbage. `FleetConfig` is destructured without
/// `..`, so a new knob does not compile until it is placed here or
/// among the exclusions. Three knobs are deliberately **excluded**:
/// `span_spill` names an export location, not state, and
/// `executor_threads` and `batch_size` shape only the executor —
/// restoring under a different spill directory, width or chunk size is
/// a supported (and tested) operation, because the canonical snapshot
/// holds nothing executor-shaped.
pub(crate) fn config_fingerprint(cfg: &FleetConfig, out: &mut String) {
    let FleetConfig {
        seed,
        vehicles,
        tenants,
        regions,
        duration,
        epoch,
        request_period,
        classes,
        cacheable_fraction,
        edge_capacity,
        edge_nodes,
        tenant_queue_cap,
        elastic,
        failover_penalty,
        chaos,
        ingest,
        mobility,
        telemetry,
        telemetry_budget,
        span_spill: _,
        span_sample,
        checkpoint,
        batch_size: _,
        executor_threads: _,
    } = cfg;
    let mut obj = Obj::new(out);
    obj.field("cacheable_fraction", cacheable_fraction);
    obj.field("chaos", chaos);
    obj.field("checkpoint", checkpoint);
    obj.field("classes", classes);
    obj.field("duration", duration);
    obj.field("edge_capacity", edge_capacity);
    obj.field("edge_nodes", edge_nodes);
    obj.field("elastic", elastic);
    obj.field("epoch", epoch);
    obj.field("failover_penalty", failover_penalty);
    obj.field("ingest", ingest);
    obj.field("mobility", mobility);
    obj.field("regions", regions);
    obj.field("request_period", request_period);
    obj.field("seed", seed);
    obj.field("span_sample", span_sample);
    obj.field("telemetry", telemetry);
    obj.field("telemetry_budget", telemetry_budget);
    obj.field("tenant_queue_cap", tenant_queue_cap);
    obj.field("tenants", tenants);
    obj.field("vehicles", vehicles);
    obj.end();
}

/// Rejects a snapshot taken under a different scenario config.
pub(crate) fn check_fingerprint(cfg: &FleetConfig, payload: &Value) -> Result<(), CkptError> {
    let mut want = String::new();
    config_fingerprint(cfg, &mut want);
    let got = get(payload, "config")?.to_string();
    if got == want {
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
    /// Wall-clock milliseconds the supervisor spent verifying the
    /// snapshot text it resumed from: parsing it, checking the envelope
    /// and the checksum (`None` when no supervised resume decoded one).
    pub verify_ms: Option<f64>,
    /// Wall-clock milliseconds spent rebuilding the engine state from
    /// the verified snapshot this run resumed from (`None` when the run
    /// started fresh).
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
            && self.verify_ms.is_none()
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
        if let Some(verify_ms) = self.verify_ms {
            writeln!(f, "    restore verify: {verify_ms:.3} ms")?;
        }
        if let Some(load_ms) = self.load_ms {
            writeln!(f, "    restore rebuild: {load_ms:.3} ms")?;
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
    use vdap_ckpt::{obj, u64_hex};
    use vdap_sim::SeedFactory;

    /// `v`'s encoding as a tree, parsed only if it is canonical text.
    fn tree<T: Snap>(v: &T) -> Value {
        let mut text = String::new();
        v.enc(&mut text);
        json::from_str_canonical(&text).expect("the codec writes canonical text")
    }

    fn round_trip<T: Snap>(v: &T) -> T {
        T::dec(&tree(v)).expect("decodes what it encoded")
    }

    #[test]
    #[should_panic(expected = "written after")]
    fn the_object_writer_refuses_a_key_out_of_order() {
        let mut out = String::new();
        let mut obj = Obj::new(&mut out);
        obj.field("b", &1u32);
        obj.field("a", &2u32);
    }

    #[test]
    fn time_and_duration_round_trip_at_full_range() {
        let t = SimTime::from_nanos(u64::MAX - 7);
        assert_eq!(round_trip(&t), t);
        let d = SimDuration::from_nanos(3);
        assert_eq!(round_trip(&d), d);
        assert_eq!(round_trip(&None::<SimTime>), None);
        assert_eq!(tree(&None::<SimTime>), Value::Null);
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
        let v = tree(&state);
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
        let Value::Object(mut fields) = tree(&m) else {
            panic!("metrics encode as an object");
        };
        fields.insert("by_class".into(), tree(&m.by_class[..2].to_vec()));
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
        let v = tree(&state);
        let pair = &get(&v, "registrations").unwrap().as_array().unwrap()[1];
        assert_eq!(pair, &Value::Array(vec![Value::from(3u32), u64_hex(7)]));
        assert_eq!(round_trip(&state), state);
    }

    #[test]
    fn a_bad_member_is_named_in_the_error() {
        let err = UploadBatch::dec(&obj(vec![])).unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
        let Value::Object(mut fields) = tree(&batch()) else {
            panic!("a batch encodes as an object");
        };
        fields.insert("sent_at".into(), Value::Bool(true));
        let err = UploadBatch::dec(&Value::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("field 'sent_at'"), "{err}");
    }

    #[test]
    fn fingerprint_guards_against_foreign_snapshots() {
        let cfg = FleetConfig::sized(64);
        let mut fingerprint = String::new();
        config_fingerprint(&cfg, &mut fingerprint);
        let fingerprint = json::from_str_canonical(&fingerprint).expect("canonical");
        let payload = obj(vec![("config", fingerprint)]);
        assert!(check_fingerprint(&cfg, &payload).is_ok());
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert!(check_fingerprint(&other, &payload).is_err());
        // The executor shape is not part of the fingerprint:
        // restoring under another one is supported.
        let reshaped = cfg.clone().with_executor_threads(4).with_batch_size(7);
        assert!(check_fingerprint(&reshaped, &payload).is_ok());
        // Every other knob is, down to a float's last bit.
        let mut nudged = cfg.clone();
        nudged.classes[2].degraded_service_factor =
            f64::from_bits(cfg.classes[2].degraded_service_factor.to_bits() + 1);
        assert!(check_fingerprint(&nudged, &payload).is_err());
        assert!(check_fingerprint(&cfg.clone().with_ingest(), &payload).is_err());
    }

    #[test]
    fn config_parts_round_trip() {
        let cfg = FleetConfig::sized(64)
            .with_ingest()
            .with_mobility()
            .with_elastic_capacity()
            .with_checkpoint(4, 3)
            .with_regional_outage(1, SimTime::from_secs(2), SimDuration::from_secs(3))
            .with_engine_crash(10, SimDuration::from_secs(1))
            .with_snapshot_torn_write(SimTime::from_secs(4), SimDuration::from_millis(100));
        assert_eq!(round_trip(&cfg.classes), cfg.classes);
        assert_eq!(round_trip(&cfg.ingest), cfg.ingest);
        assert_eq!(round_trip(&cfg.mobility), cfg.mobility);
        assert_eq!(round_trip(&cfg.elastic), cfg.elastic);
        assert_eq!(round_trip(&cfg.checkpoint), cfg.checkpoint);
        let plan = cfg.chaos.clone().expect("faults planned");
        assert_eq!(round_trip(&plan), plan);
        for kind in [
            FaultKind::SlotThrottle { factor: 0.25 },
            FaultKind::StorageBrownout { factor: 0.5 },
            FaultKind::EngineCrash { epoch: 9 },
            FaultKind::SnapshotCorruption,
        ] {
            assert_eq!(round_trip(&kind), kind);
        }
    }
}
