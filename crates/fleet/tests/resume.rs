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
use vdap_ckpt::{fnv1a64, get, get_u64_hex, obj, u64_hex, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use vdap_fleet::{FleetConfig, FleetEngine, FleetReport, Snapshot, SnapshotStore};
use vdap_sim::{SimDuration, SimTime};

/// The full-stack scenario: ingest + mobility + telemetry, snapshots
/// every 4 epochs (the 8 s run has 16), keep-last-3 retention.
fn full_stack_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::sized(64)
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
    let mut cfg = FleetConfig::sized(64)
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
    let mut cfg = FleetConfig::sized(64).with_ingest().with_telemetry();
    cfg.duration = SimDuration::from_secs(8);
    let cfg = cfg.with_engine_crash(10, SimDuration::from_secs(1));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert!(resumed.snapshots.writes.is_empty());
    assert_eq!(resumed.snapshots.resumes, 1);
    assert_eq!(straight.summary(), resumed.summary());
}

/// `cfg` run on `threads` workers in chunks of `chunk` vehicles.
fn shaped(cfg: FleetConfig, threads: u32, chunk: u32) -> FleetConfig {
    cfg.with_executor_threads(threads).with_batch_size(chunk)
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
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn snapshot_written_by_8_shards_restores_into_1() {
    // Written by the widest, finest-grained executor; restored serially
    // with the whole fleet in one chunk.
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u32;
    cross_shape_restore(
        shaped(full_stack_config(41), hw, 1),
        shaped(full_stack_config(41), 1, 64),
    );
}

#[test]
fn snapshot_written_by_1_shard_restores_into_8() {
    cross_shape_restore(
        shaped(full_stack_config(41), 1, 64),
        shaped(full_stack_config(41), 4, 7),
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
    let writer = crash(shaped(full_stack_config(17), 4, 7));
    let reader = crash(shaped(full_stack_config(17), 1, 64));
    let mut store = SnapshotStore::in_memory();
    let supervised = FleetEngine::new(writer).run_supervised(&mut store);
    assert_eq!(supervised.snapshots.resumes, 1);
    let text = store.get(8).expect("the pre-crash snapshot is retained");
    let snap = Snapshot::decode(&text).expect("the pre-crash snapshot is valid");
    let straight = FleetEngine::new(reader.clone()).run();
    let resumed = FleetEngine::new(reader)
        .restore(&snap)
        .expect("snapshot restores under another executor shape");
    assert_reports_identical(&straight, &resumed);
    assert_eq!(supervised.summary(), resumed.summary());
}

#[test]
fn restore_rejects_foreign_fingerprint() {
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(full_stack_config(41)).run_supervised(&mut store);
    let (snap, _) = store.newest_valid();
    let snap = snap.expect("valid snapshot");
    // Same shape, and a different seed, an added fault or other class
    // weights: the fingerprint must refuse each.
    let foreign = [
        ("a foreign seed", full_stack_config(42)),
        (
            "a regional outage",
            full_stack_config(41).with_regional_outage(
                0,
                SimTime::from_secs(1),
                SimDuration::from_secs(2),
            ),
        ),
        (
            "other class weights",
            full_stack_config(41).with_class_weights([1, 1, 1]),
        ),
    ];
    for (what, cfg) in foreign {
        let err = FleetEngine::new(cfg)
            .restore(&snap)
            .expect_err("a foreign scenario must be rejected");
        assert!(
            err.to_string().contains("config mismatch"),
            "{what}: got {err}"
        );
    }
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

/// The config fingerprint as the previous snapshot format wrote it: the
/// scenario's shape, timing, subsystem toggles and telemetry knobs.
fn previous_fingerprint(cfg: &FleetConfig) -> Value {
    obj(vec![
        ("seed", u64_hex(cfg.seed)),
        ("vehicles", Value::from(cfg.vehicles)),
        ("tenants", Value::from(cfg.tenants)),
        ("regions", Value::from(cfg.regions)),
        ("epoch_ns", u64_hex(cfg.epoch.as_nanos())),
        ("duration_ns", u64_hex(cfg.duration.as_nanos())),
        ("elastic", Value::from(cfg.elastic.is_some())),
        ("ingest", Value::from(cfg.ingest.is_some())),
        ("mobility", Value::from(cfg.mobility.is_some())),
        ("telemetry", Value::from(cfg.telemetry)),
        (
            "telemetry_budget",
            u64_hex(cfg.telemetry_budget.unwrap_or(0)),
        ),
        ("span_sample", u64_hex(cfg.span_sample.map_or(0, u64::from))),
    ])
}

/// The payload with its `config` member replaced by `config`.
fn with_config(payload: &Value, config: Value) -> Value {
    let mut payload = payload.clone();
    let Value::Object(top) = &mut payload else {
        panic!("a snapshot payload is an object");
    };
    top.insert("config".to_string(), config);
    payload
}

/// `snap`'s state, taken under `cfg`, laid out the way the previous
/// snapshot format wrote it — with the previous, partial config
/// fingerprint — in a previous-version envelope under `generation`.
fn previous_format(snap: &Snapshot, generation: u64, cfg: &FleetConfig) -> String {
    let payload = with_config(&snap.payload, previous_fingerprint(cfg));
    envelope(SNAPSHOT_VERSION - 1, generation, payload)
}

#[test]
fn previous_version_snapshot_is_refused_as_an_unknown_version() {
    let cfg = full_stack_config(41);
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let (snap, _) = store.newest_valid();
    let snap = snap.expect("valid snapshot");
    let old = previous_format(&snap, snap.generation, &cfg);
    let err = Snapshot::decode(&old).expect_err("an older format must not decode");
    let previous = SNAPSHOT_VERSION - 1;
    assert!(
        err.to_string()
            .contains(&format!("unsupported version {previous}")),
        "got: {err}"
    );
    // The version is the only thing wrong with that envelope: the same
    // payload under the current tag decodes. Its fingerprint is the
    // previous, partial one, so the restore refuses it as another
    // scenario; with the current fingerprint put back, it restores to
    // the same run — the fingerprint is all the previous layout changes.
    let Value::Object(fields) = vdap_ckpt::json::from_str(&old).expect("valid json") else {
        panic!("an envelope is an object");
    };
    let relabelled = envelope(SNAPSHOT_VERSION, snap.generation, fields["payload"].clone());
    let decoded = Snapshot::decode(&relabelled).expect("current-version envelope decodes");
    let engine = FleetEngine::new(cfg);
    let err = engine
        .restore(&decoded)
        .expect_err("the previous fingerprint must not pass for the current one");
    assert!(err.to_string().contains("config mismatch"), "got: {err}");
    let current = get(&snap.payload, "config").expect("a fingerprint").clone();
    let refingerprinted = envelope(
        SNAPSHOT_VERSION,
        snap.generation,
        with_config(&fields["payload"], current),
    );
    let decoded = Snapshot::decode(&refingerprinted).expect("current-version envelope decodes");
    assert_eq!(
        engine
            .restore(&decoded)
            .expect("the payload with the current fingerprint restores")
            .summary(),
        engine.restore(&snap).expect("snapshot restores").summary()
    );
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
        .put(9, previous_format(&snap, 9, &cfg))
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

/// The full-stack scenario with every collector down from 1 s to 6 s,
/// so snapshots in that window carry rung-1 retries and rung-2 cached
/// deferrals.
fn backlog_config(seed: u64) -> FleetConfig {
    let mut cfg = full_stack_config(seed);
    for region in 0..cfg.regions {
        cfg = cfg.with_collector_outage(region, SimTime::from_secs(1), SimDuration::from_secs(5));
    }
    cfg
}

/// The list under `key` in a snapshot payload's ingest state.
fn ingest_list<'a>(payload: &'a mut Value, key: &str) -> &'a mut Vec<Value> {
    let Value::Object(top) = payload else {
        panic!("a snapshot payload is an object");
    };
    let Some(Value::Object(ingest)) = top.get_mut("ingest") else {
        panic!("ingest is on");
    };
    let Some(Value::Array(list)) = ingest.get_mut(key) else {
        panic!("ingest carries a {key} list");
    };
    list
}

#[test]
fn crash_resume_carries_a_live_ingest_backlog() {
    // The crash at epoch 10 (5 s) lands inside the outage, so the
    // epoch-8 snapshot it resumes from holds retries and cached batches,
    // which later crossings re-address.
    let cfg = backlog_config(13).with_engine_crash(10, SimDuration::from_secs(1));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut store = SnapshotStore::in_memory();
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);

    let text = store.get(8).expect("the pre-crash snapshot is retained");
    let mut snap = Snapshot::decode(&text).expect("the pre-crash snapshot is valid");
    assert!(!ingest_list(&mut snap.payload, "pending").is_empty());
    assert!(!ingest_list(&mut snap.payload, "cached").is_empty());
    assert!(!ingest_list(&mut snap.payload, "mem_used").is_empty());
    let ledger = snap
        .payload
        .get("mobility")
        .and_then(|mobility| mobility.get("metrics"))
        .expect("mobility carries its ledger");
    let readdressed_at_snapshot =
        get_u64_hex(ledger, "readdressed_batches").expect("re-address count");
    let mobility = resumed.mobility.as_ref().expect("mobility on");
    assert!(
        mobility.readdressed_batches > readdressed_at_snapshot,
        "nothing re-addressed after the resume"
    );
    assert_reports_identical(&straight, &resumed);
}

#[test]
fn restore_refuses_ingest_entries_for_vehicles_outside_the_fleet() {
    let cfg = backlog_config(13);
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let text = store.get(8).expect("generation 8 retained");
    let snap = Snapshot::decode(&text).expect("generation 8 valid");
    let engine = FleetEngine::new(cfg.clone());
    let reseal = |payload: Value| {
        let text = envelope(SNAPSHOT_VERSION, snap.generation, payload);
        Snapshot::decode(&text).expect("a resealed payload decodes")
    };
    engine
        .restore(&reseal(snap.payload.clone()))
        .expect("the untouched payload restores");

    let outside = u64_hex(u64::from(cfg.vehicles));
    for key in ["pending", "cached", "mem_used", "disk_used"] {
        let mut payload = snap.payload.clone();
        let list = ingest_list(&mut payload, key);
        match key {
            "pending" | "cached" => {
                let Some(Value::Object(entry)) = list.first_mut() else {
                    panic!("the snapshot holds {key} batches");
                };
                let Some(Value::Object(batch)) = entry.get_mut("batch") else {
                    panic!("a {key} entry carries its batch");
                };
                batch.insert("vehicle".to_string(), outside.clone());
            }
            _ => list.push(Value::Array(vec![outside.clone(), u64_hex(24)])),
        }
        let err = engine
            .restore(&reseal(payload))
            .expect_err("a vehicle outside the fleet must be refused");
        let msg = err.to_string();
        assert!(
            msg.contains(key) && msg.contains(&format!("vehicle {}", cfg.vehicles)),
            "{key}: {msg}"
        );
    }
}

#[test]
fn supervisor_falls_back_past_a_snapshot_that_does_not_restore() {
    // A checksum-valid generation 9 written by another scenario sits in
    // the store, newer than anything this run writes before its crash
    // at epoch 10 (generations 4 and 8). Its checksum verifies but its
    // fingerprint does not, so the supervisor must reject it and resume
    // from generation 8.
    let cfg = full_stack_config(29).with_engine_crash(10, SimDuration::from_secs(1));
    let straight = FleetEngine::new(cfg.clone()).run();
    let mut foreign = SnapshotStore::in_memory();
    let _ = FleetEngine::new(full_stack_config(42)).run_supervised(&mut foreign);
    let text = foreign.get(8).expect("generation 8 retained");
    let snap = Snapshot::decode(&text).expect("generation 8 valid");
    let mut store = SnapshotStore::in_memory();
    let planted = Snapshot::new(9, snap.payload).encode();
    Snapshot::decode(&planted).expect("the planted generation passes its checksum");
    store.put(9, planted).expect("in-memory put");
    let resumed = FleetEngine::new(cfg).run_supervised(&mut store);
    assert_eq!(resumed.snapshots.resumes, 1);
    assert_eq!(
        resumed.snapshots.rejected_generations,
        vec![9],
        "generation 9 is rejected and generation 8 restores"
    );
    assert!(resumed.snapshots.load_ms.is_some(), "no snapshot restored");
    assert_reports_identical(&straight, &resumed);
}

/// The member of `v` at `path`; a numeric step indexes an array.
fn at<'a>(mut v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    for step in path {
        v = match v {
            Value::Object(members) => members
                .get_mut(*step)
                .unwrap_or_else(|| panic!("no member {step}")),
            Value::Array(items) => &mut items[step.parse::<usize>().expect("an array index")],
            other => panic!("cannot step into {other}"),
        };
    }
    v
}

#[test]
fn restore_refuses_ids_outside_the_config_tables() {
    // Every id a restore later uses as a table index, set one past the
    // config's table in an otherwise valid, resealed payload: each must
    // be refused at decode with an error naming the field, not panic at
    // the next barrier.
    let cfg = backlog_config(13);
    let mut store = SnapshotStore::in_memory();
    let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
    let text = store.get(8).expect("generation 8 retained");
    let snap = Snapshot::decode(&text).expect("generation 8 valid");
    let engine = FleetEngine::new(cfg.clone());
    let reseal = |payload: Value| {
        let text = envelope(SNAPSHOT_VERSION, snap.generation, payload);
        Snapshot::decode(&text).expect("a resealed payload decodes")
    };
    engine
        .restore(&reseal(snap.payload.clone()))
        .expect("the untouched payload restores");

    // A track in the middle of a drive, for the segment and path ids.
    let mut payload = snap.payload.clone();
    let Value::Array(tracks) = at(&mut payload, &["mobility", "tracks"]) else {
        panic!("mobility carries its tracks");
    };
    let driving = tracks
        .iter()
        .position(|t| t.get("motion").and_then(|m| m.get("kind")) == Some(&Value::from("drive")))
        .expect("some track is driving at generation 8")
        .to_string();
    let driving = driving.as_str();

    let regions = Value::from(cfg.regions);
    let tenants = Value::from(cfg.tenants);
    let nodes = Value::from(cfg.edge_nodes);
    let cases: Vec<(&str, Vec<&str>, Value)> = vec![
        (
            "lane node",
            vec!["edge", "lanes", "0", "node"],
            nodes.clone(),
        ),
        (
            "in-flight node",
            vec!["edge", "in_flight", "0", "node"],
            nodes,
        ),
        (
            "request region",
            vec!["edge", "in_flight", "0", "req", "region"],
            regions.clone(),
        ),
        (
            "request tenant",
            vec!["edge", "in_flight", "0", "req", "tenant"],
            tenants.clone(),
        ),
        (
            "vehicle region",
            vec!["vehicles", "0", "region"],
            regions.clone(),
        ),
        ("vehicle tenant", vec!["vehicles", "0", "tenant"], tenants),
        (
            "pending batch region",
            vec!["ingest", "pending", "0", "batch", "region"],
            regions.clone(),
        ),
        (
            "cached batch region",
            vec!["ingest", "cached", "0", "batch", "region"],
            regions.clone(),
        ),
        (
            "track region",
            vec!["mobility", "tracks", "0", "region"],
            regions.clone(),
        ),
        (
            "track region",
            vec!["mobility", "tracks", "0", "home"],
            regions.clone(),
        ),
        (
            "track region",
            vec!["mobility", "tracks", "0", "work"],
            regions.clone(),
        ),
        (
            "track edge",
            vec!["mobility", "tracks", driving, "motion", "edge"],
            Value::from(1_000_000u32),
        ),
        (
            "track path region",
            vec!["mobility", "tracks", driving, "motion", "path", "0"],
            regions.clone(),
        ),
    ];
    for (what, path, hostile) in cases {
        let mut payload = snap.payload.clone();
        *at(&mut payload, &path) = hostile;
        let err = engine
            .restore(&reseal(payload))
            .expect_err("an id outside the config must be refused");
        assert!(err.to_string().contains(what), "{path:?}: {err}");
    }

    // Requeued requests and queued collector batches are usually empty
    // at a barrier: plant one of each with a hostile region.
    let mut payload = snap.payload.clone();
    let mut request = at(&mut payload, &["edge", "in_flight", "0", "req"]).clone();
    *at(&mut request, &["region"]) = regions.clone();
    let Value::Array(requeued) = at(&mut payload, &["edge", "requeued"]) else {
        panic!("the edge carries its requeued list");
    };
    requeued.push(request);
    let err = engine
        .restore(&reseal(payload))
        .expect_err("requeued region");
    assert!(err.to_string().contains("request region"), "{err}");

    let mut payload = snap.payload.clone();
    let mut batch = at(&mut payload, &["ingest", "pending", "0", "batch"]).clone();
    *at(&mut batch, &["region"]) = regions;
    let Value::Array(queue) = at(&mut payload, &["ingest", "collectors", "0"]) else {
        panic!("ingest carries its collector queues");
    };
    queue.push(batch);
    let err = engine
        .restore(&reseal(payload))
        .expect_err("collector region");
    assert!(err.to_string().contains("collector batch region"), "{err}");
}

/// FNV-1a digests of every snapshot text a clean supervised run of each
/// scenario retains, as `(generation, digest)`. Recorded when the v4
/// layout was pinned: a deliberate format change bumps
/// `SNAPSHOT_VERSION` and these digests together.
#[test]
fn snapshot_bytes_are_pinned() {
    assert_eq!(SNAPSHOT_VERSION, 4);
    let pinned = [
        (
            "full_stack_config(41)",
            full_stack_config(41),
            [
                (4, 0x7da0_e878_f870_6cea),
                (8, 0x80f2_f764_7437_9b10),
                (12, 0x8846_22e4_5357_b9ac),
            ],
        ),
        (
            "backlog_config(13)",
            backlog_config(13),
            [
                (4, 0xc3a0_7d15_d8be_4235),
                (8, 0x791c_ab11_f943_69ce),
                (12, 0xe8b7_26dc_62f1_f171),
            ],
        ),
    ];
    for (name, cfg, want) in pinned {
        let mut store = SnapshotStore::in_memory();
        let _ = FleetEngine::new(cfg).run_supervised(&mut store);
        let got: Vec<(u64, u64)> = store
            .generations()
            .into_iter()
            .map(|g| (g, fnv1a64(store.get(g).expect("retained").as_bytes())))
            .collect();
        assert_eq!(got, want, "{name}: snapshot bytes moved");
    }
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
        let serial = FleetEngine::new(shaped(base.clone(), 1, 64)).run();
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
