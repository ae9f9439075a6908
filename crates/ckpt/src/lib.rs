//! Durable engine snapshots: a versioned, checksummed envelope over the
//! vendored `serde_json` [`Value`] tree, plus a generation store with
//! keep-last-K retention.
//!
//! This crate deliberately depends on nothing but the JSON shim, so
//! every layer of the platform (sim primitives, edge serving state,
//! ingest queues, mobility tracks) can encode itself to a [`Value`]
//! without dependency cycles.
//!
//! ## Encoding conventions
//!
//! The JSON shim stores every number as an `f64`, which round-trips
//! integers only up to `2^53`. Deterministic engine state contains
//! values outside that range — xoshiro RNG words, `u64::MAX` sentinel
//! times, `u128` fixed-point histogram sums — so this crate encodes:
//!
//! * `u64` / `u128` that may exceed `2^53` → lower-case hex strings
//!   ([`write_hex`], read back by [`from_u64_hex`] / [`from_u128_hex`]);
//! * `f64` that may be non-finite (empty-histogram min/max are ±∞,
//!   which the shim would serialize as `null`) → the hex string of its
//!   bit pattern (read back by [`from_f64_bits`]);
//! * everything else → plain JSON numbers.
//!
//! ## Envelope
//!
//! [`Snapshot::seal`] wraps a payload's canonical text (the shim's
//! key-sorted, compact form) as
//! `{"checksum","generation","magic","payload","version"}`, in that
//! byte order: the payload is serialized once and placed between a
//! fixed prefix and suffix. The checksum is FNV-1a 64 over
//! `"{version}|{generation}|"` followed by the payload's bytes as
//! stored. [`Snapshot::decode`] parses the text once, refuses any input
//! that is not byte-for-byte the canonical form `seal` writes (extra
//! whitespace, reordered or extra members, a padded or upper-case hex
//! field), rejects bad magic and unknown versions, and checksums the
//! payload's bytes in place, without serializing anything again. A torn
//! write or a flipped bit therefore either fails to parse, breaks the
//! canonical form, or changes the checksummed bytes, and every path
//! returns an error instead of a silently wrong resume.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

pub use serde_json as json;
use serde_json::Value;

/// Version tag written into every snapshot envelope. [`Snapshot::decode`]
/// refuses any other version, so a payload laid out for an older engine
/// is never misread.
///
/// * 1 — the sharded fleet engine.
/// * 2 — the fleet engine's persistent vehicle arena: vehicles no
///   longer carry a migration `generation`, the mobility pass no longer
///   stores `physical_migrations`, and the event ledger is `events`.
/// * 3 — spans no longer carry a `shard` label and the mobility ledger
///   no longer stores `same_shard_crossings` (it is `crossings -
///   migrations`).
/// * 4 — the payload's `config` fingerprint covers the whole scenario
///   config (class specs, fault plan, edge tier, elastic policy,
///   ingest, mobility, checkpointing), not just its shape and toggles.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Magic string identifying a snapshot envelope.
pub const SNAPSHOT_MAGIC: &str = "vdap-ckpt";

/// Why a snapshot could not be decoded or a field could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptError {
    msg: String,
}

impl CkptError {
    /// Creates an error with a human-readable message.
    #[must_use]
    pub fn new(msg: impl Into<String>) -> Self {
        CkptError { msg: msg.into() }
    }

    /// Prefixes the message with the field it was read from, so a
    /// failure deep in a payload names its path.
    #[must_use]
    pub fn in_field(self, key: &str) -> Self {
        CkptError::new(format!("field '{key}': {}", self.msg))
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot error: {}", self.msg)
    }
}

impl std::error::Error for CkptError {}

impl From<serde_json::Error> for CkptError {
    fn from(e: serde_json::Error) -> Self {
        CkptError::new(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Value encoding helpers
// ---------------------------------------------------------------------

/// Encodes a `u64` as a lower-case hex string (exact at any magnitude).
#[must_use]
pub fn u64_hex(v: u64) -> Value {
    Value::String(format!("{v:x}"))
}

/// Appends `v` as a quoted lower-case hex string, the text a [`u64_hex`]
/// value serializes to, without building a [`Value`]. An `f64` is
/// written as the hex of its bit pattern, so non-finite values (±∞
/// sentinels in empty histograms) survive the JSON round trip exactly.
pub fn write_hex(out: &mut String, v: u128) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 32];
    let mut at = digits.len();
    let mut rest = v;
    loop {
        at -= 1;
        digits[at] = DIGITS[(rest & 0xf) as usize];
        rest >>= 4;
        if rest == 0 {
            break;
        }
    }
    out.push('"');
    out.push_str(std::str::from_utf8(&digits[at..]).expect("hex digits are ascii"));
    out.push('"');
}

/// Builds an object from key/value pairs.
#[must_use]
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Decodes a value written by [`u64_hex`].
///
/// # Errors
///
/// Fails when `v` is not a valid hex string.
pub fn from_u64_hex(v: &Value) -> Result<u64, CkptError> {
    let s = v
        .as_str()
        .ok_or_else(|| CkptError::new("expected hex string"))?;
    u64::from_str_radix(s, 16).map_err(|_| CkptError::new(format!("bad u64 hex '{s}'")))
}

/// Decodes a `u128` written by [`write_hex`].
///
/// # Errors
///
/// Fails when `v` is not a valid hex string.
pub fn from_u128_hex(v: &Value) -> Result<u128, CkptError> {
    let s = v
        .as_str()
        .ok_or_else(|| CkptError::new("expected hex string"))?;
    u128::from_str_radix(s, 16).map_err(|_| CkptError::new(format!("bad u128 hex '{s}'")))
}

/// Decodes an `f64` whose bit pattern [`write_hex`] wrote.
///
/// # Errors
///
/// Fails when `v` is not a valid hex string.
pub fn from_f64_bits(v: &Value) -> Result<f64, CkptError> {
    Ok(f64::from_bits(from_u64_hex(v)?))
}

/// Member lookup that reports the missing key by name.
///
/// # Errors
///
/// Fails when `v` is not an object or lacks `key`.
pub fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CkptError> {
    v.get(key)
        .ok_or_else(|| CkptError::new(format!("missing field '{key}'")))
}

/// Reads a hex-encoded `u64` field.
///
/// # Errors
///
/// Fails when the field is missing or not a valid hex string.
pub fn get_u64_hex(v: &Value, key: &str) -> Result<u64, CkptError> {
    from_u64_hex(get(v, key)?).map_err(|e| e.in_field(key))
}

/// Reads a plain-number `u64` field (values known to stay below `2^53`).
///
/// # Errors
///
/// Fails when the field is missing or not a non-negative integer.
pub fn get_u64(v: &Value, key: &str) -> Result<u64, CkptError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| CkptError::new(format!("field '{key}': expected unsigned integer")))
}

/// Reads a string field.
///
/// # Errors
///
/// Fails when the field is missing or not a string.
pub fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, CkptError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| CkptError::new(format!("field '{key}': expected string")))
}

// ---------------------------------------------------------------------
// Checksum + envelope
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 hash from state `h` over `bytes`.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash (the checksum every envelope carries).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// One decoded (or to-be-encoded) snapshot: a generation number and the
/// engine-defined payload tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Monotonic generation (the fleet engine uses the barrier index).
    pub generation: u64,
    /// Engine-defined state tree.
    pub payload: Value,
}

impl Snapshot {
    /// Wraps a payload under a generation number.
    #[must_use]
    pub fn new(generation: u64, payload: Value) -> Self {
        Snapshot {
            generation,
            payload,
        }
    }

    /// The checksum of a payload's text under this format's version and
    /// `generation`.
    fn checksum(generation: u64, payload_text: &str) -> u64 {
        let head = fnv1a64(format!("{SNAPSHOT_VERSION}|{generation}|").as_bytes());
        fnv1a64_extend(head, payload_text.as_bytes())
    }

    /// The canonical envelope text before and after the payload.
    fn envelope(generation: u64, checksum: u64) -> (String, String) {
        let mut head = String::from("{\"checksum\":");
        write_hex(&mut head, u128::from(checksum));
        head.push_str(",\"generation\":");
        write_hex(&mut head, u128::from(generation));
        head.push_str(",\"magic\":");
        serde_json::write_string(&mut head, SNAPSHOT_MAGIC);
        head.push_str(",\"payload\":");
        (head, format!(",\"version\":{SNAPSHOT_VERSION}}}"))
    }

    /// The durable text of a snapshot whose payload is already
    /// serialized: `payload_text` must be canonical JSON (what
    /// [`serde_json::to_string`] writes), or [`Snapshot::decode`] will
    /// refuse the result.
    #[must_use]
    pub fn seal(generation: u64, payload_text: &str) -> String {
        let checksum = Self::checksum(generation, payload_text);
        let (head, tail) = Self::envelope(generation, checksum);
        let mut text = String::with_capacity(head.len() + payload_text.len() + tail.len());
        text.push_str(&head);
        text.push_str(payload_text);
        text.push_str(&tail);
        text
    }

    /// Serializes the snapshot to its durable text form.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut payload_text = String::new();
        serde_json::write_value(&mut payload_text, &self.payload);
        Self::seal(self.generation, &payload_text)
    }

    /// Parses and validates a durable snapshot text.
    ///
    /// # Errors
    ///
    /// Fails on malformed or non-canonical JSON, wrong magic, an unknown
    /// version, an envelope with missing, extra or non-canonical
    /// members, or a checksum mismatch (torn writes and bit flips land
    /// here).
    pub fn decode(text: &str) -> Result<Snapshot, CkptError> {
        let mut v = serde_json::from_str_canonical(text)?;
        let magic = get_str(&v, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CkptError::new(format!("bad magic '{magic}'")));
        }
        let version = get_u64(&v, "version")?;
        if version != u64::from(SNAPSHOT_VERSION) {
            return Err(CkptError::new(format!("unsupported version {version}")));
        }
        let generation = get_u64_hex(&v, "generation")?;
        let stored = get_u64_hex(&v, "checksum")?;
        let Value::Object(members) = &mut v else {
            unreachable!("an envelope with members is an object");
        };
        let payload = members
            .remove("payload")
            .ok_or_else(|| CkptError::new("missing field 'payload'"))?;
        if members.len() != 4 {
            return Err(CkptError::new(format!(
                "envelope has {} members, expected 5",
                members.len() + 1
            )));
        }
        let (head, tail) = Self::envelope(generation, stored);
        let payload_text = text
            .strip_prefix(head.as_str())
            .and_then(|rest| rest.strip_suffix(tail.as_str()))
            .ok_or_else(|| CkptError::new("envelope is not in canonical form"))?;
        let computed = Self::checksum(generation, payload_text);
        if stored != computed {
            return Err(CkptError::new(format!(
                "checksum mismatch: stored {stored:x}, computed {computed:x}"
            )));
        }
        Ok(Snapshot {
            generation,
            payload,
        })
    }
}

// ---------------------------------------------------------------------
// Generation store
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Backend {
    Mem(BTreeMap<u64, String>),
    Dir(PathBuf),
}

/// A snapshot store keyed by generation, with keep-last-K retention.
///
/// The store is deliberately dumb: it moves opaque strings. Chaos
/// (torn writes, bit flips) is applied by the *writer* before `put`,
/// and validation happens in [`SnapshotStore::newest_valid`] by
/// decoding each candidate — so a corrupted newest generation falls
/// back to the previous one.
#[derive(Debug)]
pub struct SnapshotStore {
    backend: Backend,
}

impl SnapshotStore {
    /// An in-memory store (tests, single-process supervision).
    #[must_use]
    pub fn in_memory() -> Self {
        SnapshotStore {
            backend: Backend::Mem(BTreeMap::new()),
        }
    }

    /// A directory-backed store; one `ckpt-<generation>.json` file per
    /// generation. The directory is created if absent.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn in_dir(path: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let path = path.into();
        std::fs::create_dir_all(&path)
            .map_err(|e| CkptError::new(format!("create {}: {e}", path.display())))?;
        Ok(SnapshotStore {
            backend: Backend::Dir(path),
        })
    }

    fn file_of(dir: &std::path::Path, generation: u64) -> PathBuf {
        dir.join(format!("ckpt-{generation:020}.json"))
    }

    /// Stores one generation (overwriting it if present).
    ///
    /// # Errors
    ///
    /// Fails when a directory-backed store cannot write the file.
    pub fn put(&mut self, generation: u64, data: String) -> Result<(), CkptError> {
        match &mut self.backend {
            Backend::Mem(map) => {
                map.insert(generation, data);
                Ok(())
            }
            Backend::Dir(dir) => {
                let path = Self::file_of(dir, generation);
                std::fs::write(&path, data)
                    .map_err(|e| CkptError::new(format!("write {}: {e}", path.display())))
            }
        }
    }

    /// All stored generations, ascending.
    #[must_use]
    pub fn generations(&self) -> Vec<u64> {
        match &self.backend {
            Backend::Mem(map) => map.keys().copied().collect(),
            Backend::Dir(dir) => {
                let mut gens: Vec<u64> = std::fs::read_dir(dir)
                    .into_iter()
                    .flatten()
                    .flatten()
                    .filter_map(|e| {
                        let name = e.file_name().into_string().ok()?;
                        let digits = name.strip_prefix("ckpt-")?.strip_suffix(".json")?;
                        digits.parse::<u64>().ok()
                    })
                    .collect();
                gens.sort_unstable();
                gens
            }
        }
    }

    /// The stored text for one generation, if present.
    #[must_use]
    pub fn get(&self, generation: u64) -> Option<String> {
        self.text(generation).map(Cow::into_owned)
    }

    /// The stored text for one generation, borrowed from an in-memory
    /// store.
    fn text(&self, generation: u64) -> Option<Cow<'_, str>> {
        match &self.backend {
            Backend::Mem(map) => map.get(&generation).map(|s| Cow::Borrowed(s.as_str())),
            Backend::Dir(dir) => std::fs::read_to_string(Self::file_of(dir, generation))
                .ok()
                .map(Cow::Owned),
        }
    }

    /// Decodes one stored generation.
    ///
    /// # Errors
    ///
    /// Fails when the generation is absent or does not decode.
    pub fn load(&self, generation: u64) -> Result<Snapshot, CkptError> {
        let text = self
            .text(generation)
            .ok_or_else(|| CkptError::new(format!("generation {generation} not stored")))?;
        Snapshot::decode(&text)
    }

    /// Drops all but the newest `k` generations.
    ///
    /// # Errors
    ///
    /// Fails when a directory-backed store cannot delete a file.
    pub fn retain_last(&mut self, k: usize) -> Result<(), CkptError> {
        let gens = self.generations();
        if gens.len() <= k {
            return Ok(());
        }
        let drop_until = gens.len() - k;
        for &generation in &gens[..drop_until] {
            match &mut self.backend {
                Backend::Mem(map) => {
                    map.remove(&generation);
                }
                Backend::Dir(dir) => {
                    let path = Self::file_of(dir, generation);
                    std::fs::remove_file(&path)
                        .map_err(|e| CkptError::new(format!("remove {}: {e}", path.display())))?;
                }
            }
        }
        Ok(())
    }

    /// Decodes the newest generation that validates, walking backwards
    /// past corrupt ones. Returns the decoded snapshot (if any) and the
    /// generations rejected on the way.
    #[must_use]
    pub fn newest_valid(&self) -> (Option<Snapshot>, Vec<u64>) {
        let mut rejected = Vec::new();
        for generation in self.generations().into_iter().rev() {
            match self.load(generation) {
                Ok(snap) => return (Some(snap), rejected),
                Err(_) => rejected.push(generation),
            }
        }
        (None, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Value {
        obj(vec![
            ("rng", Value::Array(vec![u64_hex(u64::MAX), u64_hex(7)])),
            ("sum", Value::String(format!("{:x}", u128::MAX / 3))),
            (
                "min",
                Value::String(format!("{:x}", f64::INFINITY.to_bits())),
            ),
            ("count", Value::from(12u64)),
            ("label", Value::from("region0/lte")),
        ])
    }

    #[test]
    fn envelope_round_trips() {
        let snap = Snapshot::new(16, sample_payload());
        let text = snap.encode();
        let back = Snapshot::decode(&text).expect("valid snapshot");
        assert_eq!(back, snap);
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn envelope_is_the_canonical_form_of_its_members() {
        // The sealed text is exactly what serializing the whole envelope
        // as one tree gives, with the checksum over the full
        // "{version}|{generation}|{payload}" string.
        let payload = sample_payload();
        let text = Snapshot::new(16, payload.clone()).encode();
        let payload_text = payload.to_string();
        let checksum = fnv1a64(format!("{SNAPSHOT_VERSION}|16|{payload_text}").as_bytes());
        let tree = obj(vec![
            ("magic", Value::from(SNAPSHOT_MAGIC)),
            ("version", Value::from(SNAPSHOT_VERSION)),
            ("generation", u64_hex(16)),
            ("checksum", u64_hex(checksum)),
            ("payload", payload),
        ]);
        assert_eq!(text, tree.to_string());
        assert_eq!(Snapshot::seal(16, &payload_text), text);
        let mut hex = String::new();
        for v in [0, 1, 0xabc, u128::from(u64::MAX), u128::MAX] {
            hex.clear();
            write_hex(&mut hex, v);
            assert_eq!(hex, format!("\"{v:x}\""));
        }
    }

    #[test]
    fn envelopes_equal_as_json_but_not_canonical_are_refused() {
        let text = Snapshot::new(16, sample_payload()).encode();
        let tree = json::from_str(&text).expect("valid json");
        let Value::Object(members) = &tree else {
            panic!("an envelope is an object");
        };
        let checksum = members["checksum"].as_str().expect("hex").to_string();
        // Every member in reverse order, still the same JSON object.
        let mut reversed = String::from("{");
        for (i, (k, v)) in members.iter().rev().enumerate() {
            if i > 0 {
                reversed.push(',');
            }
            reversed.push_str(&format!("{}:{v}", Value::from(k.as_str())));
        }
        reversed.push('}');
        let mut extra = members.clone();
        extra.insert("note".into(), Value::from("hi"));
        // Equal as JSON: only whitespace or member order differ.
        let same_json = [
            ("leading whitespace", format!(" {text}")),
            ("trailing newline", format!("{text}\n")),
            (
                "space after a colon",
                text.replacen("\"magic\":", "\"magic\": ", 1),
            ),
            (
                "space inside the payload",
                text.replacen("\"count\":", "\"count\": ", 1),
            ),
            ("reordered members", reversed),
        ];
        // Equal in meaning: the same members and numbers, spelled
        // otherwise, plus one member no decoder reads.
        let same_values = [
            ("an extra member", Value::Object(extra).to_string()),
            (
                "an upper-case checksum",
                text.replacen(&checksum, &checksum.to_uppercase(), 1),
            ),
            (
                "a zero-padded checksum",
                text.replacen(&checksum, &format!("{checksum:0>20}"), 1),
            ),
            (
                "a zero-padded generation",
                text.replacen("\"generation\":\"10\"", "\"generation\":\"010\"", 1),
            ),
        ];
        for (what, tampered) in &same_json {
            assert_eq!(
                &json::from_str(tampered).expect("still valid json"),
                &tree,
                "{what}: the case must stay equal as JSON"
            );
        }
        for (what, tampered) in same_json.into_iter().chain(same_values) {
            assert_ne!(tampered, text, "{what}: the case must change the bytes");
            let err = Snapshot::decode(&tampered).expect_err(what);
            assert!(
                err.to_string().starts_with("snapshot error"),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn hex_helpers_round_trip_extremes() {
        let v = sample_payload();
        assert_eq!(
            from_u128_hex(get(&v, "sum").unwrap()).unwrap(),
            u128::MAX / 3
        );
        assert!(from_f64_bits(get(&v, "min").unwrap())
            .unwrap()
            .is_infinite());
        let rng = get(&v, "rng").unwrap().as_array().unwrap();
        let words = obj(vec![("w", rng[0].clone())]);
        assert_eq!(get_u64_hex(&words, "w").unwrap(), u64::MAX);
        assert_eq!(from_u64_hex(&rng[1]).unwrap(), 7);
        let err = get_u64_hex(&v, "label").unwrap_err();
        assert!(err.to_string().contains("field 'label'"), "{err}");
    }

    #[test]
    fn truncation_is_rejected() {
        let text = Snapshot::new(3, sample_payload()).encode();
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert!(
                Snapshot::decode(&text[..cut]).is_err(),
                "torn write at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bit_flips_never_yield_a_different_payload() {
        let snap = Snapshot::new(9, sample_payload());
        let text = snap.encode();
        let bytes = text.as_bytes();
        for i in (0..bytes.len()).step_by(3) {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 0x01;
            let Ok(s) = String::from_utf8(flipped) else {
                continue;
            };
            // A flip that survives decoding must be semantically
            // invisible — same generation, same payload.
            if let Ok(back) = Snapshot::decode(&s) {
                assert_eq!(back, snap, "silent corruption at byte {i}");
            }
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let text = Snapshot::new(1, Value::Null).encode();
        assert!(Snapshot::decode(&text.replace("vdap-ckpt", "vdap-oops")).is_err());
        // A forged version also breaks the checksum input.
        let current = format!("\"version\":{SNAPSHOT_VERSION}");
        let forged = format!("\"version\":{}", SNAPSHOT_VERSION + 1);
        assert!(text.contains(&current));
        assert!(Snapshot::decode(&text.replace(&current, &forged)).is_err());
    }

    #[test]
    fn store_retention_keeps_newest_k() {
        let mut store = SnapshotStore::in_memory();
        for g in [8u64, 16, 24, 32] {
            store
                .put(g, Snapshot::new(g, Value::from(g)).encode())
                .unwrap();
        }
        store.retain_last(2).unwrap();
        assert_eq!(store.generations(), vec![24, 32]);
        assert!(store.get(8).is_none());
        assert!(store.get(32).is_some());
    }

    #[test]
    fn newest_valid_falls_back_past_corruption() {
        let mut store = SnapshotStore::in_memory();
        store
            .put(8, Snapshot::new(8, Value::from("old")).encode())
            .unwrap();
        let newest = Snapshot::new(16, Value::from("new")).encode();
        let torn = &newest[..newest.len() / 2];
        store.put(16, torn.to_string()).unwrap();
        let (found, rejected) = store.newest_valid();
        let snap = found.expect("generation 8 still valid");
        assert_eq!(snap.generation, 8);
        assert_eq!(rejected, vec![16]);
    }

    #[test]
    fn dir_store_round_trips_and_retains() {
        let dir = std::env::temp_dir().join(format!("vdap-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::in_dir(&dir).expect("mkdir");
        for g in [8u64, 16, 24] {
            store
                .put(g, Snapshot::new(g, Value::from(g)).encode())
                .unwrap();
        }
        assert_eq!(store.generations(), vec![8, 16, 24]);
        store.retain_last(1).unwrap();
        assert_eq!(store.generations(), vec![24]);
        let (found, rejected) = store.newest_valid();
        assert_eq!(found.expect("valid").generation, 24);
        assert!(rejected.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
