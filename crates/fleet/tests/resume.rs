//! Crash–resume determinism: a supervised run that dies at an epoch
//! barrier and resumes from a durable snapshot must reproduce the
//! straight run's report byte-for-byte — through snapshot-store chaos
//! (torn writes, bit rot), past snapshots of an older format, and even
//! when the restoring engine uses a different executor width and chunk
//! size than the writer.

mod common;

use std::sync::OnceLock;

use common::executor_grid;
use proptest::prelude::*;
use vdap_ckpt::json::Value;
use vdap_ckpt::{fnv1a64, obj, u64_hex, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use vdap_fleet::{FleetConfig, FleetEngine, FleetReport, Snapshot, SnapshotStore};
use vdap_sim::{SimDuration, SimTime};

/// The full-stack scenario: ingest + mobility + telemetry, snapshots
/// every 4 epochs (the 8 s run has 16), keep-last-3 retention.
fn full_stack_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64, 1)
        .with_ingest()
        .with_mobility()
        .with_telemetry();
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(8);
    cfg.with_checkpoint(4, 3)
}

/// Straight run vs. supervised crash-at-`epoch` run, on every report
/// surface that must be deterministic.
fn assert_reports_identical(straight: &FleetReport, resumed: &FleetReport) {
    assert_eq!(straight.summary(), resumed.summary());
    assert_eq!(straight.metrics, resumed.metrics);
    assert_eq!(straight.reliability, resumed.reliability);
    assert_eq!(straight.region_availability, resumed.region_availability);
    assert_eq!(straight.events_processed, resumed.events_processed);
    assert_eq!(straight.ingest, resumed.ingest);
    assert_eq!(straight.mobility, resumed.mobility);
    assert_eq!(straight.region_admission, resumed.region_admission);
    let (s, r) = (
        straight.telemetry.as_ref().expect("telemetry on"),
        resumed.telemetry.as_ref().expect("telemetry on"),
    );
    assert_eq!(s.spans.spans(), r.spans.spans());
    assert_eq!(
        s.registry.counters().collect::<Vec<_>>(),
        r.registry.counters().collect::<Vec<_>>()
    );
    assert_eq!(
        s.registry.gauges().collect::<Vec<_>>(),
        r.registry.gauges().collect::<Vec<_>>()
    );
    assert_eq!(
        s.registry.all_series().collect::<Vec<_>>(),
        r.registry.all_series().collect::<Vec<_>>()
    );
}

#[test]
fn supervised_crash_resume_is_byte_identical_at_every_shard_count() {
    let base = full_stack_config(11).with_engine_crash(10, SimDuration::from_secs(1));
    for cfg in executor_grid(&base) {
        let shape = format!(
            "{:?} threads, chunk {:?}",
            cfg.executor_threads, cfg.batch_size
        );
        // run() ignores crash faults (they are still preambled into the
        // availability ledger), so it is the deterministic baseline.
        let straight = FleetEngine::new(cfg.clone()).run();
        let mut store = SnapshotStore::in_memory();
        let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
        assert_reports_identical(&straight, &resumed);
        // The crash really happened and really resumed …
        assert_eq!(resumed.snapshots.resumes, 1, "at {shape}");
        assert!(
            !resumed.snapshots.writes.is_empty(),
            "no snapshot written at {shape}"
        );
        // … and the scripted downtime is on the availability ledger of
        // both runs (the resume window flows into MTTR either way).
        assert!(
            resumed
                .region_availability
                .iter()
                .any(|(component, _)| component == "engine"),
            "engine downtime missing from the ledger"
        );
        // The snapshot diagnostics surface in diagnostics(), not in the
        // deterministic summary.
        assert!(resumed.diagnostics().contains("snapshots:"));
        assert!(!resumed.summary().contains("snapshots:"));
    }
}

#[test]
fn double_crash_resumes_twice() {
    let cfg = full_stack_config(23)
        .with_engine_crash(6, SimDuration::from_millis(500))
        .with_engine_crash(13, SimDuration::from_millis(500));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 2);
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn torn_write_on_newest_snapshot_falls_back_one_generation() {
    // Writes land at epochs 4, 8, 12 (sim times 2 s, 4 s, 6 s). The
    // torn-write window covers the epoch-8 write, so the crash at
    // epoch 10 must fall back to generation 4.
    let cfg = full_stack_config(5)
        .with_engine_crash(10, SimDuration::from_secs(1))
        .with_snapshot_torn_write(SimTime::from_secs(4), SimDuration::from_millis(100));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);
    assert!(
        resumed.snapshots.rejected_generations.contains(&8),
        "torn generation 8 was not rejected: {:?}",
        resumed.snapshots.rejected_generations
    );
    let diag = resumed.diagnostics();
    assert!(diag.contains("torn-write injected"), "diagnostics: {diag}");
    assert!(diag.contains("rejected gen 8"), "diagnostics: {diag}");
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn corrupted_snapshot_is_rejected_by_checksum() {
    let cfg = full_stack_config(7)
        .with_engine_crash(10, SimDuration::from_secs(1))
        .with_snapshot_corruption(SimTime::from_secs(4), SimDuration::from_millis(100));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert!(resumed.snapshots.rejected_generations.contains(&8));
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn all_snapshots_corrupt_restarts_from_scratch() {
    // Corruption covers the whole run: every write is damaged, so the
    // supervisor finds no valid generation and replays from epoch 0.
    let cfg = full_stack_config(3)
        .with_engine_crash(10, SimDuration::from_secs(1))
        .with_snapshot_corruption(SimTime::ZERO, SimDuration::from_secs(8));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);
    assert!(resumed.snapshots.rejected_generations.contains(&4));
    assert!(resumed.snapshots.rejected_generations.contains(&8));
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn crash_resume_round_trips_budget_sampling_and_histogram_state() {
    // 100 ms epochs over 8 s → 80 epochs, so the series retention
    // window (64) is crossed and rollup folds points into streaming
    // histograms before the crash at epoch 70; the tiny budget with no
    // spill and no explicit sampling also auto-activates OK-span
    // sampling. The snapshot at epoch 68 therefore carries every piece
    // of new sink state: histograms, the auto-activated sample rate,
    // the sampled-out count, and the rolled flag.
    let mut cfg = FleetConfig::sized(64, 1)
        .with_ingest()
        .with_telemetry_budget(4 * 1024);
    cfg.seed = 23;
    cfg.duration = SimDuration::from_secs(8);
    cfg.epoch = SimDuration::from_millis(100);
    let cfg = cfg
        .with_checkpoint(4, 3)
        .with_engine_crash(70, SimDuration::from_secs(1));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);
    assert_eq!(straight.summary(), resumed.summary());
    let (s, r) = (
        straight.telemetry.as_ref().expect("telemetry on"),
        resumed.telemetry.as_ref().expect("telemetry on"),
    );
    // The run must actually have exercised the new machinery …
    assert_eq!(s.sample, Some(vdap_fleet::BUDGET_AUTO_SAMPLE));
    assert!(s.rolled);
    assert!(s.sampled_out > 0);
    assert!(
        s.registry.all_histograms().count() > 0,
        "rollup must have produced histograms before the crash"
    );
    // … and the resumed run must reproduce all of it exactly.
    assert_eq!(s.spans.spans(), r.spans.spans());
    assert_eq!(s.sample, r.sample);
    assert_eq!(s.sampled_out, r.sampled_out);
    assert_eq!(s.rolled, r.rolled);
    assert_eq!(&s.registry, &r.registry);
}

#[test]
fn supervised_without_checkpoint_config_replays_from_scratch() {
    // No checkpoint config: the supervisor has nothing to restore from,
    // so a crash costs a full replay — and nothing else.
    let mut cfg = FleetConfig::sized(64, 1).with_ingest().with_telemetry();
    cfg.duration = SimDuration::from_secs(8);
    let cfg = cfg.with_engine_crash(10, SimDuration::from_secs(1));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert!(resumed.snapshots.writes.is_empty());
    assert_eq!(resumed.snapshots.resumes, 1);
    assert_eq!(straight.summary(), resumed.summary());
}

/// `cfg` run on `threads` workers in chunks of `chunk` vehicles, under
/// the shard label `shards`.
fn shaped(cfg: FleetConfig, threads: u32, chunk: u32, shards: u32) -> FleetConfig {
    let mut cfg = cfg.with_executor_threads(threads).with_batch_size(chunk);
    cfg.shards = shards;
    cfg
}

/// Checks a restored report against the straight run of the restoring
/// config on every deterministic surface.
fn assert_restore_matches(straight: &FleetReport, resumed: &FleetReport) {
    assert_eq!(straight.summary(), resumed.summary());
    assert_eq!(straight.metrics, resumed.metrics);
    assert_eq!(straight.reliability, resumed.reliability);
    assert_eq!(straight.events_processed, resumed.events_processed);
    assert_eq!(straight.ingest, resumed.ingest);
    assert_eq!(straight.mobility, resumed.mobility);
    assert_eq!(straight.region_admission, resumed.region_admission);
    // Spans written before the snapshot carry the *writer's* shard
    // label — the one field a different config legitimately changes —
    // so the comparison normalizes it away, exactly like the
    // executor-invariance telemetry tests do.
    let (s, r) = (
        straight.telemetry.as_ref().expect("telemetry on"),
        resumed.telemetry.as_ref().expect("telemetry on"),
    );
    let norm = |t: &vdap_fleet::FleetTelemetry| {
        t.spans.iter().map(|sp| sp.normalized()).collect::<Vec<_>>()
    };
    assert_eq!(norm(s), norm(r));
    assert_eq!(
        s.registry.counters().collect::<Vec<_>>(),
        r.registry.counters().collect::<Vec<_>>()
    );
    assert_eq!(
        s.registry.all_series().collect::<Vec<_>>(),
        r.registry.all_series().collect::<Vec<_>>()
    );
}

/// Takes the newest snapshot a supervised run of `writer` left behind,
/// restores it into an engine with `reader`, and checks the finished
/// report against the straight `reader` run.
fn cross_shape_restore(writer: FleetConfig, reader: FleetConfig) {
    let mut store = SnapshotStore::in_memory();
    let written = FleetEngine::new(writer).run_supervised(&mut store);
    assert!(!written.snapshots.writes.is_empty());
    let (snap, rejected) = store.newest_valid();
    let snap = snap.expect("a clean run leaves valid snapshots");
    assert!(rejected.is_empty());

    let straight = FleetEngine::new(reader.clone()).run();
    let resumed = FleetEngine::new(reader)
        .restore(&snap)
        .expect("snapshot restores under another executor shape");
    assert_restore_matches(&straight, &resumed);
}

#[test]
fn snapshot_written_by_8_shards_restores_into_1() {
    // Written by the widest, finest-grained executor; restored serially
    // with the whole fleet in one chunk.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u32;
    cross_shape_restore(
        shaped(full_stack_config(41), hw, 1, 8),
        shaped(full_stack_config(41), 1, 64, 1),
    );
}

#[test]
fn snapshot_written_by_1_shard_restores_into_8() {
    cross_shape_restore(
        shaped(full_stack_config(41), 1, 64, 1),
        shaped(full_stack_config(41), 4, 7, 8),
    );
}

#[test]
fn crash_at_barrier_resumes_under_a_different_executor_shape() {
    // A supervised run on four workers in 7-vehicle chunks crashes at
    // epoch 10 and resumes from generation 8, the last snapshot it
    // wrote before the crash. That same generation, restored into a
    // serial engine with the whole fleet in one chunk, must finish
    // exactly like the serial engine's straight run.
    let crash = |cfg: FleetConfig| cfg.with_engine_crash(10, SimDuration::from_secs(1));
    let writer = crash(shaped(full_stack_config(17), 4, 7, 4));
    let reader = crash(shaped(full_stack_config(17), 1, 64, 1));
    let mut store = SnapshotStore::in_memory();
    let supervised = FleetEngine::new(writer).run_supervised(&mut store);
    assert_eq!(supervised.snapshots.resumes, 1);
    let text = store.get(8).expect("the pre-crash snapshot is retained");
    let snap = Snapshot::decode(&text).expect("the pre-crash snapshot is valid");
    let straight = FleetEngine::new(reader.clone()).run();
    let resumed = FleetEngine::new(reader)
        .restore(&snap)
        .expect("snapshot restores under another executor shape");
    assert_restore_matches(&straight, &resumed);
    assert_eq!(supervised.summary(), resumed.summary());
}

#[test]
fn restore_rejects_foreign_fingerprint() {
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(full_stack_config(41)).run_supervised(&mut store);
    let (snap, _) = store.newest_valid();
    let snap = snap.expect("valid snapshot");
    // Same shape, different seed: the fingerprint must refuse it.
    let err = FleetEngine::new(full_stack_config(42))
        .restore(&snap)
        .expect_err("foreign seed must be rejected");
    assert!(err.to_string().contains("config mismatch"), "got: {err}");
}

/// A snapshot envelope of format `version` around `payload`, with the
/// checksum that version's decoder verifies.
fn envelope(version: u32, generation: u64, payload: Value) -> String {
    let text = payload.to_string();
    let checksum = fnv1a64(format!("{version}|{generation}|{text}").as_bytes());
    obj(vec![
        ("magic", Value::from(SNAPSHOT_MAGIC)),
        ("version", Value::from(version)),
        ("generation", u64_hex(generation)),
        ("checksum", u64_hex(checksum)),
        ("payload", payload),
    ])
    .to_string()
}

/// `snap`'s state laid out the way the previous snapshot format wrote
/// it — each vehicle with a migration `generation`, the mobility pass
/// with a `physical_migrations` counter, the event ledger as
/// `events_base` — in a previous-version envelope under `generation`.
fn previous_format(snap: &Snapshot, generation: u64) -> String {
    let mut payload = snap.payload.clone();
    let Value::Object(top) = &mut payload else {
        panic!("a snapshot payload is an object");
    };
    let events = top.remove("events").expect("event ledger");
    top.insert("events_base".to_string(), events);
    if let Some(Value::Array(vehicles)) = top.get_mut("vehicles") {
        for vehicle in vehicles {
            if let Value::Object(vehicle) = vehicle {
                vehicle.insert("generation".to_string(), Value::from(0u32));
            }
        }
    }
    if let Some(Value::Object(mobility)) = top.get_mut("mobility") {
        mobility.insert("physical_migrations".to_string(), u64_hex(0));
    }
    envelope(SNAPSHOT_VERSION - 1, generation, payload)
}

#[test]
fn previous_version_snapshot_is_refused_as_an_unknown_version() {
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(full_stack_config(41)).run_supervised(&mut store);
    let (snap, _) = store.newest_valid();
    let snap = snap.expect("valid snapshot");
    let old = previous_format(&snap, snap.generation);
    let err = Snapshot::decode(&old).expect_err("an older format must not decode");
    let previous = SNAPSHOT_VERSION - 1;
    assert!(
        err.to_string()
            .contains(&format!("unsupported version {previous}")),
        "got: {err}"
    );
    // The version is the only thing wrong with that envelope: the same
    // payload under the current tag decodes (and then fails restore on
    // its old layout instead of being misread).
    let Value::Object(fields) = vdap_ckpt::json::from_str(&old).expect("valid json") else {
        panic!("an envelope is an object");
    };
    let relabelled = envelope(SNAPSHOT_VERSION, snap.generation, fields["payload"].clone());
    let decoded = Snapshot::decode(&relabelled).expect("current-version envelope decodes");
    assert!(FleetEngine::new(full_stack_config(41))
        .restore(&decoded)
        .is_err());
}

#[test]
fn supervisor_falls_back_past_a_previous_version_snapshot() {
    // A store left behind by the previous format holds generation 9,
    // newer than anything this run writes before its crash at epoch 10
    // (generations 4 and 8). The supervisor must refuse it as an
    // unknown version and resume from generation 8.
    let cfg = full_stack_config(29).with_engine_crash(10, SimDuration::from_secs(1));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut scratch = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut scratch);
    let text = scratch.get(8).expect("generation 8 retained");
    let snap = Snapshot::decode(&text).expect("generation 8 valid");
    let mut store = SnapshotStore::in_memory();
    store
        .put(9, &previous_format(&snap, 9))
        .expect("in-memory put");
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);
    assert!(
        resumed.snapshots.rejected_generations.contains(&9),
        "rejected: {:?}",
        resumed.snapshots.rejected_generations
    );
    assert_reports_identical(&straight, &resumed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn crash_resume_is_byte_identical_for_any_seed(seed in any::<u64>()) {
        // The flagship property over the executor grid: kill at epoch
        // 10, resume from the epoch-8 snapshot, finish — the summary
        // and the ledgers replay byte-for-byte at every width and
        // chunk size, and match the serial straight run.
        let base = full_stack_config(seed).with_engine_crash(10, SimDuration::from_secs(1));
        let serial = FleetEngine::new(shaped(base.clone(), 1, 64, 1)).run();
        for cfg in executor_grid(&base) {
            let shape = (cfg.executor_threads, cfg.batch_size);
            let mut store = SnapshotStore::in_memory();
            let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
            prop_assert_eq!(resumed.snapshots.resumes, 1);
            prop_assert_eq!(serial.summary(), resumed.summary(), "{:?} diverged", shape);
            prop_assert_eq!(&serial.metrics, &resumed.metrics);
            prop_assert_eq!(&serial.reliability, &resumed.reliability);
            prop_assert_eq!(&serial.ingest, &resumed.ingest);
            prop_assert_eq!(&serial.mobility, &resumed.mobility);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn crash_resume_under_stealing_matches_serial_run(seed in any::<u64>()) {
        // Crash-at-barrier resume with the work-stealing executor in
        // its most schedule-dependent configuration: machine-wide
        // worker count and single-vehicle batches, so almost every
        // task is eligible for stealing on both the pre-crash and the
        // resumed leg. The baseline is the fully serial engine — one
        // worker, one whole-fleet chunk, no supervisor — and every
        // deterministic surface must still match byte-for-byte.
        let hw = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get) as u32;
        let serial = {
            let cfg = full_stack_config(seed)
                .with_engine_crash(10, SimDuration::from_secs(1))
                .with_executor_threads(1)
                .with_batch_size(64);
            FleetEngine::new(cfg).run()
        };
        let cfg = full_stack_config(seed)
            .with_engine_crash(10, SimDuration::from_secs(1))
            .with_executor_threads(hw)
            .with_batch_size(1);
        let mut store = SnapshotStore::in_memory();
        let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
        prop_assert_eq!(resumed.snapshots.resumes, 1);
        prop_assert_eq!(serial.summary(), resumed.summary());
        prop_assert_eq!(&serial.metrics, &resumed.metrics);
        prop_assert_eq!(&serial.reliability, &resumed.reliability);
        prop_assert_eq!(&serial.ingest, &resumed.ingest);
        prop_assert_eq!(&serial.mobility, &resumed.mobility);
        prop_assert_eq!(&serial.region_admission, &resumed.region_admission);
    }
}

/// One real encoded snapshot plus the summary its clean restore yields,
/// computed once for the tamper property below.
fn reference_snapshot() -> &'static (String, String) {
    static REF: OnceLock<(String, String)> = OnceLock::new();
    REF.get_or_init(|| {
        let mut store = SnapshotStore::in_memory();
        let _ = FleetEngine::new(full_stack_config(41)).run_supervised(&mut store);
        let generation = *store.generations().last().expect("snapshots written");
        let encoded = store.get(generation).expect("newest generation present");
        let snap = Snapshot::decode(&encoded).expect("clean snapshot decodes");
        let summary = FleetEngine::new(full_stack_config(41))
            .restore(&snap)
            .expect("clean snapshot restores")
            .summary();
        (encoded, summary)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn encoded_snapshot_round_trips(extra_decode in 0usize..3) {
        // decode → encode → decode is the identity on a real snapshot.
        let (encoded, _) = reference_snapshot();
        let mut text = encoded.clone();
        for _ in 0..=extra_decode {
            let snap = Snapshot::decode(&text).expect("round trip stays valid");
            text = snap.encode();
        }
        prop_assert_eq!(&text, encoded);
    }

    #[test]
    fn corrupting_any_single_byte_never_silently_resumes_wrong(
        pos in any::<usize>(),
        mask in 1u8..0x80,
    ) {
        // Flip one byte anywhere in a real encoded snapshot (the text
        // is ASCII, so the XOR keeps it valid UTF-8). Whatever happens
        // next — decode failure, restore failure, or (if the damage is
        // somehow survivable) a successful resume — the one forbidden
        // outcome is a *silently different* resumed run.
        let (encoded, expected_summary) = reference_snapshot();
        let mut bytes = encoded.clone().into_bytes();
        let at = pos % bytes.len();
        bytes[at] ^= mask;
        let tampered = String::from_utf8(bytes).expect("ascii stays utf-8");
        if let Ok(snap) = Snapshot::decode(&tampered) {
            if let Ok(report) = FleetEngine::new(full_stack_config(41)).restore(&snap) {
                prop_assert_eq!(&report.summary(), expected_summary);
            }
        }
    }
}
