//! The fleet engine: epoch loop, barriers, and the run report.
//!
//! Each epoch is a two-phase fork/join. The **tick** hands the
//! persistent, id-ordered vehicle arena to the fork/join
//! [`WorkerPool`] as `chunks_mut(chunk_size)`; every chunk advances its
//! vehicles to the epoch boundary into its own reusable output buffer.
//! The **barrier** then runs single-threaded: it folds the chunk
//! outputs in chunk order, serves the edge, runs the ingest and
//! mobility passes, publishes the next V2V snapshot, enforces the
//! telemetry budget, and writes checkpoints.
//!
//! ## Why every executor width and chunk size gives the same report
//!
//! 1. **Behaviour is id-keyed.** Tenant, region, route cohort and RNG
//!    stream derive from the vehicle id alone ([`crate::FleetConfig`]),
//!    so which chunk or worker advances a vehicle cannot change what it
//!    does.
//! 2. **Epochs are conservative.** During an epoch a vehicle reads only
//!    time-determined inputs (the fault timeline, the *previous*
//!    barrier's V2V snapshot). Vehicles never observe same-epoch state
//!    of any other vehicle, so which worker runs a chunk, and in what
//!    order, is unobservable.
//! 3. **Barriers are canonical.** Chunk outputs fold in chunk order,
//!    which is vehicle-id order; all cross-vehicle coupling (XEdge
//!    admission, fair queueing, contention, snapshot union) happens
//!    single-threaded on globally sorted data, so chunk size, executor
//!    width and the worker schedule cannot leak in.
//! 4. **Aggregation is order-free.** Metrics are integer counters and
//!    [`vdap_sim::StreamingHistogram`]s whose recording and merging are
//!    associative and commutative bit-for-bit.

use std::sync::Arc;
use std::time::Instant;

use vdap_ckpt::json::Value;
use vdap_ckpt::{get, CkptError, Snapshot, SnapshotStore};
use vdap_edgeos::WorkloadClass;
use vdap_fault::{FaultEdge, FaultInjector, FaultKind};
use vdap_mobility::{
    Crossing, MobilityMetrics, RegionGraph, TrackMotion, TrackSnapshot, VehicleTrack,
};
use vdap_net::CellularChannel;
use vdap_obs::{BarrierProfiler, JsonlSpillSink, RequestSpan, SpanOutcome, StreamingHistogram};
use vdap_sim::{ReliabilityStats, RngStream, SeedFactory, SimDuration, SimTime};

use crate::arena::{advance_chunk, fresh_arena, region_label_table, ChunkOut, CollabSnapshot};
use crate::ckpt::{
    check_fingerprint, check_id, check_len, config_fingerprint, decode_each, enc_all, enc_or_null,
    field, fit, snap_record, write_array, Obj, Snap, SnapshotDiagnostics, SnapshotWrite,
};
use crate::config::{
    handoff_label, tenant_label, CheckpointConfig, FleetConfig, FleetConfigError, CKPT_STORE_LABEL,
    ENGINE_LABEL,
};
use crate::edge::{EdgeRequest, EpochOutcome, XEdgeServer};
use crate::ingest::IngestPass;
use crate::metrics::{FleetMetrics, FleetReport, FleetTelemetry};
use crate::pool::WorkerPool;
use crate::vehicle::{VehicleState, BOARD_W, RADIO_W};

/// Deterministic fleet simulation engine.
///
/// # Examples
///
/// ```
/// use vdap_fleet::{FleetConfig, FleetEngine};
/// use vdap_sim::SimDuration;
///
/// let mut cfg = FleetConfig::sized(64);
/// cfg.duration = SimDuration::from_secs(5);
/// let report = FleetEngine::new(cfg).run();
/// assert!(report.metrics.requests > 0);
/// ```
#[derive(Debug, Clone)]
pub struct FleetEngine {
    cfg: FleetConfig,
}

impl FleetEngine {
    /// Creates an engine for the given scenario, rejecting unusable
    /// configurations (zero counts, more tenants than vehicles, an epoch
    /// past the horizon, an empty class mix) with a descriptive
    /// [`FleetConfigError`] instead of a downstream panic or hang.
    pub fn try_new(cfg: FleetConfig) -> Result<Self, FleetConfigError> {
        cfg.validate()?;
        Ok(FleetEngine { cfg })
    }

    /// Creates an engine for the given scenario.
    ///
    /// # Panics
    ///
    /// Panics with the [`FleetConfigError`] message when the
    /// configuration is unusable; use [`FleetEngine::try_new`] to
    /// handle the rejection instead.
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Self {
        match FleetEngine::try_new(cfg) {
            Ok(engine) => engine,
            Err(err) => panic!("invalid fleet config: {err}"),
        }
    }

    /// The scenario this engine will run.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Runs the fleet to its horizon and returns the merged report.
    ///
    /// Crash faults in the chaos plan are ignored on this path — an
    /// unsupervised run has nothing to resume from, and no snapshots
    /// are written. Use [`FleetEngine::run_supervised`] for both.
    #[must_use]
    pub fn run(&self) -> FleetReport {
        let ctx = RunCtx::new(&self.cfg);
        match run_core(&ctx, EngineState::fresh(&ctx), None, &[]) {
            RunEnd::Completed(report) => *report,
            RunEnd::Crashed { .. } => unreachable!("run() honors no crash faults"),
        }
    }

    /// Runs the fleet under a crash supervisor backed by `store`.
    ///
    /// At every checkpoint barrier (see [`FleetConfig::with_checkpoint`])
    /// the complete deterministic engine state is serialized into the
    /// store; a seeded [`FaultKind::EngineCrash`] kills the run at its
    /// epoch barrier, and the supervisor resumes from the newest
    /// generation that restores — falling back past torn or corrupted
    /// writes and past any checksum-valid snapshot that fails to
    /// restore (a foreign fingerprint, an out-of-range id), or
    /// restarting from scratch when no generation restores. The
    /// returned report's summary is byte-identical to the same
    /// scenario's straight [`FleetEngine::run`]; only wall-clock
    /// diagnostics differ.
    #[must_use]
    pub fn run_supervised(&self, store: &mut SnapshotStore) -> FleetReport {
        let ctx = RunCtx::new(&self.cfg);
        let crashes: Vec<u64> = ctx
            .injector
            .as_deref()
            .map(|inj| inj.engine_crashes(ENGINE_LABEL))
            .unwrap_or_default();
        // The fence rises past each crash already taken, so a restored
        // leg replaying the same epochs does not die twice on the same
        // fault window.
        let mut fence = 0u64;
        let mut state = EngineState::fresh(&ctx);
        loop {
            let live: Vec<u64> = crashes.iter().copied().filter(|&e| e > fence).collect();
            match run_core(&ctx, state, Some(store), &live) {
                RunEnd::Completed(report) => return *report,
                RunEnd::Crashed { epoch, snapshots } => {
                    fence = epoch;
                    let mut carried = snapshots;
                    carried.resumes += 1;
                    let restored = store
                        .generations()
                        .into_iter()
                        .rev()
                        .find_map(|generation| {
                            let verifying = Instant::now();
                            let attempt = store.load(generation).and_then(|snap| {
                                let verify = verifying.elapsed();
                                let rebuilding = Instant::now();
                                let restored = state_from_snapshot(&ctx, &snap)?;
                                Ok((restored, verify, rebuilding.elapsed()))
                            });
                            if attempt.is_err() {
                                carried.rejected_generations.push(generation);
                            }
                            attempt.ok()
                        });
                    state = match restored {
                        Some((restored, verify, load)) => {
                            carried.verify_ms = Some(verify.as_secs_f64() * 1e3);
                            carried.load_ms = Some(load.as_secs_f64() * 1e3);
                            restored
                        }
                        // No generation restores: restart from scratch.
                        // Determinism makes this indistinguishable (minus
                        // wall clock) from never having crashed.
                        None => EngineState::fresh(&ctx),
                    };
                    state.snapshots = carried;
                }
            }
        }
    }

    /// Resumes a run from `snapshot` and drives it to the horizon.
    ///
    /// The snapshot must come from a scenario with the same fingerprint
    /// (seed, fleet shape, subsystem toggles). The executor shape is
    /// deliberately not fingerprinted: a snapshot taken at one executor
    /// width and chunk size restores under any other, and the resumed
    /// report's summary stays byte-identical.
    pub fn restore(&self, snapshot: &Snapshot) -> Result<FleetReport, CkptError> {
        let ctx = RunCtx::new(&self.cfg);
        let started = Instant::now();
        let mut state = state_from_snapshot(&ctx, snapshot)?;
        state.snapshots.load_ms = Some(started.elapsed().as_secs_f64() * 1e3);
        state.snapshots.resumes = 1;
        match run_core(&ctx, state, None, &[]) {
            RunEnd::Completed(report) => Ok(*report),
            RunEnd::Crashed { .. } => unreachable!("restore() honors no crash faults"),
        }
    }
}

/// Immutable per-run context: everything the engine loop needs that is
/// a pure function of the scenario and therefore never serialized.
struct RunCtx {
    cfg: Arc<FleetConfig>,
    seeds: SeedFactory,
    injector: Option<Arc<FaultInjector>>,
    region_labels: Arc<Vec<String>>,
    tenant_labels: Vec<String>,
    horizon: SimTime,
}

impl RunCtx {
    fn new(cfg: &FleetConfig) -> Self {
        let cfg = Arc::new(cfg.clone());
        let seeds = SeedFactory::new(cfg.seed);
        let injector = cfg.chaos.as_ref().map(|plan| Arc::new(plan.compile()));
        let region_labels = Arc::new(region_label_table(cfg.regions));
        let tenant_labels = (0..cfg.tenants).map(tenant_label).collect();
        let horizon = cfg.horizon();
        RunCtx {
            cfg,
            seeds,
            injector,
            region_labels,
            tenant_labels,
            horizon,
        }
    }
}

/// The complete mutable engine state carried across epoch barriers —
/// exactly the set a snapshot serializes and a restore rebuilds.
struct EngineState {
    /// Every vehicle, at index `id`, for the whole run.
    vehicles: Vec<VehicleState>,
    /// The V2V snapshot published at the previous barrier (read-only
    /// during the tick).
    collab: CollabSnapshot,
    edge: XEdgeServer,
    engine_metrics: FleetMetrics,
    reliability: ReliabilityStats,
    telemetry: Option<FleetTelemetry>,
    ingest: Option<IngestPass>,
    mobility: Option<MobilityPass>,
    ladder_rng: RngStream,
    epoch_index: u64,
    /// Per-vehicle events (request ticks + ingest uploads) so far.
    events: u64,
    /// Wall-clock snapshot diagnostics, carried across supervised legs.
    snapshots: SnapshotDiagnostics,
}

impl EngineState {
    /// Epoch-0 state for a scenario, with the availability preamble
    /// already written.
    fn fresh(ctx: &RunCtx) -> Self {
        let cfg = &ctx.cfg;
        let mut reliability = ReliabilityStats::new();

        // The fault timeline is a pure function of the plan, so the
        // fleet-wide availability ledger can be written up front in
        // time order. Tenant-quota flaps are folded into the per-tenant
        // ledger below instead of the generic one, so a tenant's MTTR
        // reflects both its own flaps and fleet-wide node crashes
        // without double-counting the same label. Engine crashes are
        // preambled too: their downtime is fixed by the plan, so the
        // resume window lands in MTTR whether or not this particular
        // run path honors the crash.
        if let Some(inj) = ctx.injector.as_deref() {
            let mut transitions = inj.transitions();
            transitions.sort_by_key(|t| (t.at, t.window));
            for tr in transitions {
                let window = &inj.windows()[tr.window];
                if matches!(window.kind, FaultKind::TenantQuotaFlap { .. }) {
                    continue;
                }
                match tr.edge {
                    FaultEdge::Start => reliability.record_fault(&window.target, tr.at),
                    FaultEdge::End => reliability.record_recovery(&window.target, tr.at),
                }
            }
            record_tenant_ledger(&mut reliability, inj, cfg, ctx.horizon);
        }

        EngineState {
            vehicles: fresh_arena(cfg, &ctx.seeds),
            collab: CollabSnapshot::new(),
            edge: XEdgeServer::new(cfg),
            engine_metrics: FleetMetrics::new(),
            reliability,
            telemetry: cfg.telemetry.then(|| {
                FleetTelemetry::configured(
                    cfg.telemetry_budget,
                    cfg.span_sample,
                    cfg.span_spill.clone(),
                    cfg.seed,
                )
            }),
            ingest: cfg
                .ingest
                .as_ref()
                .map(|_| IngestPass::new(cfg, &ctx.seeds)),
            mobility: cfg
                .mobility
                .as_ref()
                .map(|mob| MobilityPass::new(mob, cfg, &ctx.seeds)),
            // Ladder randomness is engine-owned and consumed in
            // canonical order at barriers, so no grouping of the fleet
            // can reach it.
            ladder_rng: ctx.seeds.stream("fleet-ladder"),
            epoch_index: 0,
            events: 0,
            snapshots: SnapshotDiagnostics::default(),
        }
    }
}

/// How one leg of the engine loop ended.
enum RunEnd {
    /// Ran to the horizon: the merged report.
    Completed(Box<FleetReport>),
    /// A seeded engine crash fired at this epoch barrier. The write
    /// diagnostics accumulated so far ride along to the next leg.
    Crashed {
        epoch: u64,
        snapshots: SnapshotDiagnostics,
    },
}

/// Drives `state` from its current epoch to the horizon — the single
/// engine loop behind [`FleetEngine::run`], [`FleetEngine::run_supervised`]
/// and [`FleetEngine::restore`].
///
/// With a `store` wired and a checkpoint config present, the complete
/// state is snapshotted at every interval barrier — after the barrier's
/// canonical exchange, when every chunk buffer is drained and all
/// scheduled events lie strictly beyond the barrier. `crashes` lists
/// epoch barriers at which a supervised leg dies (empty on unsupervised
/// paths).
fn run_core(
    ctx: &RunCtx,
    mut state: EngineState,
    mut store: Option<&mut SnapshotStore>,
    crashes: &[u64],
) -> RunEnd {
    let cfg = &ctx.cfg;
    let horizon = ctx.horizon;
    let injector = ctx.injector.as_deref();
    let pool = WorkerPool::new(cfg.executor_pool_size());
    let chunk = cfg.chunk_size(pool.threads());
    // One output buffer per arena chunk, and one for the gathered edge
    // requests, reused by every epoch of this leg.
    let mut outs: Vec<ChunkOut> = state
        .vehicles
        .chunks(chunk)
        .map(|_| ChunkOut::default())
        .collect();
    let mut requests: Vec<EdgeRequest> = Vec::new();
    // The profiler measures this leg's wall clock only — diagnostics,
    // so a resumed run legitimately reports a shorter profile.
    let mut profiler = BarrierProfiler::new(pool.threads());
    loop {
        let end_raw = SimTime::ZERO + cfg.epoch * (state.epoch_index + 1);
        let end = if end_raw > horizon { horizon } else { end_raw };

        // ---- tick phase: arena chunks, scoped fork/join ----
        // Each chunk advances its vehicles to the barrier against the
        // previous epoch's collab snapshot, into its own buffer; which
        // worker runs which chunk is unobservable because every vehicle
        // owns its RNG streams and the buffers fold in chunk order below.
        let mut tasks: Vec<(&mut [VehicleState], &mut ChunkOut)> = state
            .vehicles
            .chunks_mut(chunk)
            .zip(outs.iter_mut())
            .collect();
        let wall_started = Instant::now();
        let samples = pool.for_each_mut(&mut tasks, |_, (vehicles, out)| {
            advance_chunk(
                cfg,
                injector,
                &ctx.region_labels,
                &state.collab,
                vehicles,
                out,
                end,
            );
        });
        let wall = wall_started.elapsed();
        drop(tasks);

        // ---- barrier: single-threaded, canonical-order exchange ----
        let barrier_started = Instant::now();
        profiler.record_epoch(wall, &samples);
        let mut ingest_batches = Vec::new();
        let mut collab = CollabSnapshot::new();
        let mut stale_hits = 0;
        for out in &mut outs {
            state.events += std::mem::take(&mut out.events);
            stale_hits += std::mem::take(&mut out.stale_hits);
            requests.append(&mut out.outbox);
            ingest_batches.append(&mut out.ingest_outbox);
            // Union this epoch's publications into the next snapshot;
            // ties go to the smallest vehicle id (order-independent).
            for (tile, producer) in out.publications.drain(..) {
                collab
                    .entry(tile)
                    .and_modify(|p| *p = (*p).min(producer))
                    .or_insert(producer);
            }
            let metrics = &mut state.engine_metrics;
            for class in WorkloadClass::ALL {
                let issued = std::mem::take(&mut out.requests[class.index()]);
                metrics.record_requests(class, issued);
            }
            for r in out.collab.drain(..) {
                metrics.record_collab(r.class, r.e2e, r.energy_j);
            }
            // Failover latencies feed an exact (order-sensitive)
            // Summary; chunk order is `(vehicle, seq)` order.
            for (r, ms) in out.failovers.drain(..) {
                metrics.record_failover(r.class, r.e2e, r.energy_j);
                state
                    .reliability
                    .record_failover(SimDuration::from_millis_f64(ms));
            }
            if let Some(tel) = state.telemetry.as_mut() {
                for span in out.spans.drain(..) {
                    tel.registry.inc(
                        match span.outcome {
                            SpanOutcome::CollabHit => "fleet.collab_hits",
                            _ => "fleet.failovers",
                        },
                        1,
                    );
                    tel.absorb(span);
                }
            }
        }

        let outcome = state
            .edge
            .serve_epoch(&mut requests, end, injector, &mut state.ladder_rng);
        state
            .engine_metrics
            .queue_depth
            .record(outcome.queue_depth as f64);
        state
            .engine_metrics
            .elastic_lanes
            .record(f64::from(outcome.lanes));
        if outcome.scaled_up {
            state.engine_metrics.scale_ups += 1;
        }
        if outcome.scaled_down {
            state.engine_metrics.scale_downs += 1;
        }
        record_outcome(
            &mut state.engine_metrics,
            &mut state.reliability,
            &outcome,
            cfg,
            &ctx.tenant_labels,
            state.telemetry.as_mut(),
        );
        if let Some(tel) = state.telemetry.as_mut() {
            sample_epoch(tel, &outcome, state.epoch_index, end);
        }

        // The DDI ingestion pass: collector admission, the ingest
        // degradation ladder, and the storage drain — all sampled
        // at this barrier only, on canonically sorted batches.
        if let Some(ing) = state.ingest.as_mut() {
            let epoch_start = SimTime::ZERO + cfg.epoch * state.epoch_index;
            ing.barrier(
                ingest_batches,
                end - epoch_start,
                end,
                state.epoch_index,
                injector,
                &mut state.reliability,
                state.telemetry.as_mut(),
            );
        }

        // The geo-mobility pass: advance every seeded track across
        // the epoch just completed, price region crossings, and update
        // each crosser's region in place — single-threaded, in
        // canonical vehicle order.
        if let Some(mob) = state.mobility.as_mut() {
            let epoch_start = SimTime::ZERO + cfg.epoch * state.epoch_index;
            mob.metrics.stale_cache_hits += stale_hits;
            mob.barrier(
                &mut state.vehicles,
                &mut state.edge,
                state.ingest.as_mut(),
                injector,
                &mut state.reliability,
                state.telemetry.as_mut(),
                cfg,
                epoch_start,
                end - epoch_start,
                end,
                state.epoch_index,
            );
        }

        state.collab = collab;

        // Telemetry budget enforcement is the last barrier step, after
        // every span drain and series sample of the epoch, so the
        // resident estimate it acts on is complete — and deterministic.
        if let Some(tel) = state.telemetry.as_mut() {
            tel.barrier_flush(state.epoch_index);
        }

        profiler.record_barrier(barrier_started.elapsed());
        state.epoch_index += 1;

        // ---- durability hooks. Snapshot first, crash second: a   ----
        // ---- crash landing on a checkpoint epoch still leaves    ----
        // ---- its barrier's snapshot behind, like a process dying ----
        // ---- right after fsync.                                  ----
        if let (Some(ck), Some(store)) = (cfg.checkpoint, store.as_deref_mut()) {
            if state.epoch_index.is_multiple_of(ck.interval_epochs) && end < horizon {
                write_snapshot(ctx, &mut state, store, ck, end);
            }
        }
        if end < horizon && crashes.contains(&state.epoch_index) {
            return RunEnd::Crashed {
                epoch: state.epoch_index,
                snapshots: state.snapshots,
            };
        }
        if end >= horizon {
            break;
        }
    }

    // Drain work still pending at the horizon: in-flight lanes
    // complete (their latency is fixed), stranded requeues take the
    // local fallback. The tail belongs to no barrier, so it updates
    // telemetry counters and spans but adds no epoch samples.
    let tail = state.edge.flush(horizon);
    record_outcome(
        &mut state.engine_metrics,
        &mut state.reliability,
        &tail,
        cfg,
        &ctx.tenant_labels,
        state.telemetry.as_mut(),
    );

    let metrics = state.engine_metrics;
    if let Some(tel) = state.telemetry.as_mut() {
        tel.registry.inc("fleet.requests", metrics.requests);
        // With spill configured, the horizon tail goes to disk too, so
        // the JSONL segments hold the complete post-sampling stream.
        tel.final_flush(state.epoch_index);
        // Insertion order interleaves vehicle-side and edge-side
        // resolutions; canonical order makes the log independent of
        // when each request resolved.
        tel.spans.sort_canonical();
    }
    let region_availability = state
        .reliability
        .faulted_components()
        .iter()
        .map(|c| ((*c).to_string(), state.reliability.availability(c, horizon)))
        .collect();

    RunEnd::Completed(Box::new(FleetReport {
        metrics,
        reliability: state.reliability,
        region_availability,
        vehicles: cfg.vehicles,
        duration: cfg.duration,
        events_processed: state.events,
        admission_offered: state.edge.offered(),
        admission_rejected: state.edge.rejected(),
        mobility: state.mobility.as_ref().map(|m| m.metrics.clone()),
        region_admission: state.edge.region_admission_table(),
        ingest: state.ingest.as_mut().map(IngestPass::finish),
        telemetry: state.telemetry,
        profile: profiler.finish(),
        snapshots: state.snapshots,
    }))
}

/// Serializes the complete engine state at a barrier and persists it,
/// applying any seeded snapshot-store chaos *to the encoded bytes* on
/// the way in — the store itself stays dumb, exactly like a writer
/// dying mid-`write` (torn) or a bad sector flipping a bit (corrupt).
fn write_snapshot(
    ctx: &RunCtx,
    state: &mut EngineState,
    store: &mut SnapshotStore,
    ck: CheckpointConfig,
    end: SimTime,
) {
    let started = Instant::now();
    let generation = state.epoch_index;
    let mut encoded = {
        // The previous write's size is a close guess at this one's, so
        // the payload buffer rarely grows.
        let guess = state.snapshots.writes.last().map_or(0, |w| w.bytes);
        let mut payload = String::with_capacity(guess);
        snapshot_payload(&ctx.cfg, state, &mut payload);
        Snapshot::seal(generation, &payload)
    };
    let mut chaos = None;
    if let Some(inj) = ctx.injector.as_deref() {
        if inj.snapshot_torn(CKPT_STORE_LABEL, end) {
            // A torn write: the tail of the snapshot never hit disk.
            encoded.truncate(encoded.len() / 2);
            chaos = Some("torn-write");
        } else if inj.snapshot_corrupt(CKPT_STORE_LABEL, end) {
            // Bit rot: flip the low bit of the middle byte. The
            // encoding is ASCII, so the result is still valid UTF-8 —
            // only the checksum (or the JSON grammar) can catch it.
            let mut bytes = encoded.into_bytes();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            encoded = String::from_utf8(bytes).expect("low-bit flips keep ascii valid utf-8");
            chaos = Some("corruption");
        }
    }
    let bytes = encoded.len();
    if let Err(err) = store.put(generation, encoded) {
        panic!("snapshot store write failed: {err}");
    }
    if let Err(err) = store.retain_last(ck.retain) {
        panic!("snapshot retention failed: {err}");
    }
    state.snapshots.writes.push(SnapshotWrite {
        generation,
        bytes,
        write_ms: started.elapsed().as_secs_f64() * 1e3,
        chaos,
    });
}

/// Appends the complete deterministic engine state to `out` as
/// canonical JSON text.
///
/// Every chunk buffer is drained at a barrier and the arena is in id
/// order, so a snapshot is *canonical*: every executor width and chunk
/// size serializes the same scenario at the same barrier to the same
/// payload — which is what lets a snapshot restore under another.
fn snapshot_payload(cfg: &FleetConfig, state: &EngineState, out: &mut String) {
    let mut obj = Obj::new(out);
    obj.field("collab", &state.collab);
    config_fingerprint(cfg, obj.key("config"));
    state.edge.ckpt(obj.key("edge"));
    obj.field("epoch", &state.epoch_index);
    obj.field("events", &state.events);
    enc_or_null(obj.key("ingest"), state.ingest.as_ref(), IngestPass::ckpt);
    obj.field("ladder_rng", &state.ladder_rng);
    obj.field("metrics", &state.engine_metrics);
    enc_or_null(
        obj.key("mobility"),
        state.mobility.as_ref(),
        MobilityPass::ckpt,
    );
    obj.field("reliability", &state.reliability);
    enc_or_null(
        obj.key("telemetry"),
        state.telemetry.as_ref(),
        telemetry_ckpt,
    );
    obj.field("vehicles", &state.vehicles);
    obj.end();
}

/// Decodes the subsystem stored under `key`, which must be present
/// exactly when the config carries its settings `on`.
fn subsystem<C, T>(
    payload: &Value,
    key: &str,
    on: Option<C>,
    restore: impl FnOnce(C, &Value) -> Result<T, CkptError>,
) -> Result<Option<T>, CkptError> {
    match (get(payload, key)?, on) {
        (Value::Null, None) => Ok(None),
        (enc, Some(on)) if *enc != Value::Null => {
            restore(on, enc).map(Some).map_err(|e| e.in_field(key))
        }
        _ => Err(CkptError::new(format!(
            "snapshot and config disagree on the {key} subsystem"
        ))),
    }
}

/// Rebuilds a complete [`EngineState`] from a decoded snapshot.
///
/// Everything that is a pure function of the scenario — the region
/// graph, contention curves, retry policies, label tables — is
/// *recomputed*, never deserialized, and nothing executor-shaped is
/// stored, so the restoring engine's width and chunk size are free to
/// differ from the writing run's.
fn state_from_snapshot(ctx: &RunCtx, snapshot: &Snapshot) -> Result<EngineState, CkptError> {
    let cfg = &ctx.cfg;
    let payload = &snapshot.payload;
    check_fingerprint(cfg, payload)?;
    let epoch_index: u64 = field(payload, "epoch")?;
    if snapshot.generation != epoch_index {
        return Err(CkptError::new(format!(
            "snapshot generation {} disagrees with payload epoch {epoch_index}",
            snapshot.generation
        )));
    }
    let t_snap = SimTime::ZERO + cfg.epoch * epoch_index;
    if epoch_index == 0 || t_snap >= ctx.horizon {
        return Err(CkptError::new(format!(
            "snapshot epoch {epoch_index} outside the run's open interval"
        )));
    }
    let vehicles: Vec<VehicleState> = field(payload, "vehicles")?;
    let vehicles = check_len(vehicles, cfg.vehicles as usize, "vehicles")?;
    for (i, v) in vehicles.iter().enumerate() {
        if v.id as usize != i {
            return Err(CkptError::new(format!("vehicle {i} carries id {}", v.id)));
        }
        if v.ddi.is_some() != cfg.ingest.is_some() {
            return Err(CkptError::new(
                "snapshot and config disagree on DDI ingestion",
            ));
        }
        check_id("vehicle region", v.region, cfg.regions)?;
        check_id("vehicle tenant", v.tenant, cfg.tenants)?;
    }
    let mobility = subsystem(payload, "mobility", cfg.mobility.as_ref(), |mob, v| {
        MobilityPass::restore_ckpt(mob, cfg, &ctx.seeds, v)
    })?;
    let ingest = subsystem(payload, "ingest", cfg.ingest.as_ref(), |_, v| {
        IngestPass::restore_ckpt(cfg, &ctx.seeds, v)
    })?;
    let telemetry = subsystem(
        payload,
        "telemetry",
        cfg.telemetry.then_some(()),
        |(), v| restore_telemetry(cfg, v),
    )?;
    Ok(EngineState {
        vehicles,
        collab: field(payload, "collab")?,
        edge: XEdgeServer::restore_ckpt(cfg, get(payload, "edge")?)
            .map_err(|e| e.in_field("edge"))?,
        engine_metrics: field(payload, "metrics")?,
        reliability: field(payload, "reliability")?,
        telemetry,
        ingest,
        mobility,
        ladder_rng: field(payload, "ladder_rng")?,
        epoch_index,
        events: field(payload, "events")?,
        snapshots: SnapshotDiagnostics::default(),
    })
}

// ---- telemetry codec ------------------------------------------------

/// The telemetry sink's carried state as it is written: its sampling and
/// budget counters and the spill writer's position.
struct SinkState {
    /// Active keep-one-in-N rate, 0 meaning off (a configured rate is
    /// never zero: validation rejects it).
    sample: u64,
    sampled_out: u64,
    rolled: bool,
    peak_bytes: u64,
    spilled: u64,
    spill_index: u64,
    spill_bytes: u64,
}

snap_record! { SinkState {
    peak_bytes, rolled, sample, sampled_out, spill_bytes, spill_index, spilled,
} }

/// Serializes the full telemetry surface: the span log in its current
/// order (the final `sort_canonical` has unique keys, so order here is
/// immaterial), counters, gauges, every per-epoch series, the rolled-up
/// histograms, and the sink state.
fn telemetry_ckpt(tel: &FleetTelemetry, out: &mut String) {
    let reg = &tel.registry;
    let spill = tel.spill.as_ref();
    let sink = SinkState {
        sample: tel.sample.map_or(0, u64::from),
        sampled_out: tel.sampled_out,
        rolled: tel.rolled,
        peak_bytes: tel.peak_bytes,
        spilled: spill.map_or(0, JsonlSpillSink::spilled),
        spill_index: spill.map_or(0, |s| u64::from(s.current_index())),
        spill_bytes: spill.map_or(0, JsonlSpillSink::current_bytes),
    };
    let mut obj = Obj::new(out);
    write_array(obj.key("counters"), reg.counters(), |out, c| c.enc(out));
    write_array(obj.key("gauges"), reg.gauges(), |out, g| g.enc(out));
    write_array(obj.key("hists"), reg.all_histograms(), |out, h| {
        (h.name(), h.state()).enc(out);
    });
    write_array(
        obj.key("series"),
        reg.all_series(),
        |out, (name, points)| {
            out.push('[');
            name.enc(out);
            out.push(',');
            write_array(out, points, |out, p| (p.epoch, p.at, p.value).enc(out));
            out.push(']');
        },
    );
    obj.field("sink", &sink);
    enc_all(obj.key("spans"), tel.spans.spans());
    obj.end();
}

/// Rebuilds the telemetry surface. Sink wiring is config-derived: the
/// budget, the sampling seed, and the spill *directory* come from the
/// config the run restores under, while the dynamic counters (spilled
/// spans, current segment) come from the snapshot so the writer appends
/// where the crashed run left off.
fn restore_telemetry(cfg: &FleetConfig, v: &Value) -> Result<FleetTelemetry, CkptError> {
    let mut tel = FleetTelemetry::default();
    decode_each(v, "spans", |span| {
        tel.spans.push(span);
        Ok(())
    })?;
    let reg = &mut tel.registry;
    decode_each(v, "counters", |(name, count)| {
        reg.inc(name, count);
        Ok(())
    })?;
    decode_each(v, "gauges", |(name, value)| {
        reg.set_gauge(name, value);
        Ok(())
    })?;
    decode_each(
        v,
        "series",
        |(name, points): (_, Vec<(u64, SimTime, f64)>)| {
            for (epoch, at, value) in points {
                reg.sample(name, epoch, at, value);
            }
            Ok(())
        },
    )?;
    decode_each(v, "hists", |(name, state)| {
        reg.restore_histogram(StreamingHistogram::from_state(name, state));
        Ok(())
    })?;
    let sink: SinkState = field(v, "sink")?;
    let spill_index = fit(sink.spill_index).map_err(|e| e.in_field("spill_index"))?;
    tel.sample = Some(fit(sink.sample).map_err(|e| e.in_field("sample"))?)
        .filter(|&n| n != 0)
        .or(cfg.span_sample);
    tel.sampled_out = sink.sampled_out;
    tel.rolled = sink.rolled;
    tel.peak_bytes = sink.peak_bytes;
    tel.budget = cfg.telemetry_budget;
    tel.sample_seed = cfg.seed;
    tel.spill = cfg.span_spill.clone().map(|dir| {
        JsonlSpillSink::resume(
            dir,
            vdap_obs::DEFAULT_SEGMENT_BYTES,
            sink.spilled,
            spill_index,
            sink.spill_bytes,
        )
    });
    Ok(tel)
}

/// The engine-owned geo-mobility pass.
///
/// All mobility state — the seeded region graph and every vehicle's
/// route track — lives on the engine thread and advances only at
/// barriers, in canonical vehicle-id order, so crossings are a pure
/// function of `(seed, vehicle, epoch)`. A crossing updates the
/// vehicle's arena entry in place.
struct MobilityPass {
    graph: RegionGraph,
    tracks: Vec<VehicleTrack>,
    channel: CellularChannel,
    handoff_labels: Vec<String>,
    metrics: MobilityMetrics,
    crossings_buf: Vec<Crossing>,
}

impl MobilityPass {
    fn new(mob: &vdap_mobility::MobilityConfig, cfg: &FleetConfig, seeds: &SeedFactory) -> Self {
        let mut pass = MobilityPass::untracked(mob, cfg, seeds);
        pass.tracks = (0..cfg.vehicles)
            .map(|id| {
                VehicleTrack::new(
                    id,
                    cfg.region_of(id),
                    mob,
                    &pass.graph,
                    cfg.duration,
                    seeds.indexed_stream("fleet-mobility", u64::from(id)),
                )
            })
            .collect();
        pass
    }

    /// The pass over the seeded region graph, before any track exists.
    fn untracked(
        mob: &vdap_mobility::MobilityConfig,
        cfg: &FleetConfig,
        seeds: &SeedFactory,
    ) -> Self {
        let mut graph_rng = seeds.stream("fleet-mobility-graph");
        MobilityPass {
            graph: RegionGraph::seeded(
                cfg.regions,
                mob.chords(cfg.regions),
                mob.segment_capacity,
                &mut graph_rng,
            ),
            tracks: Vec::new(),
            channel: CellularChannel::calibrated(),
            handoff_labels: (0..cfg.regions).map(handoff_label).collect(),
            metrics: MobilityMetrics::new(),
            crossings_buf: Vec::new(),
        }
    }

    /// Serializes the pass: every route track (in vehicle-id order) and
    /// the mobility ledger.
    fn ckpt(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        obj.field("metrics", &self.metrics);
        write_array(obj.key("tracks"), &self.tracks, |out, t| {
            t.snapshot().enc(out)
        });
        obj.end();
    }

    /// Rebuilds the pass: the region graph and channel are re-derived
    /// from the seed, the tracks and the ledger come from the
    /// snapshot. A track naming a region or road segment the graph does
    /// not have is refused.
    fn restore_ckpt(
        mob: &vdap_mobility::MobilityConfig,
        cfg: &FleetConfig,
        seeds: &SeedFactory,
        v: &Value,
    ) -> Result<MobilityPass, CkptError> {
        let mut pass = MobilityPass::untracked(mob, cfg, seeds);
        let mut tracks = Vec::with_capacity(cfg.vehicles as usize);
        let segments = pass.graph.segments().len() as u32;
        decode_each(v, "tracks", |snap: TrackSnapshot| {
            if snap.id as usize != tracks.len() {
                return Err(CkptError::new(format!(
                    "mobility track {} carries id {}",
                    tracks.len(),
                    snap.id
                )));
            }
            for region in [snap.region, snap.home, snap.work] {
                check_id("track region", region, cfg.regions)?;
            }
            if let TrackMotion::Drive { edge, path, .. } = &snap.motion {
                let edge = u32::try_from(*edge).unwrap_or(u32::MAX);
                check_id("track edge", edge, segments)?;
                for &region in path {
                    check_id("track path region", region, cfg.regions)?;
                }
            }
            tracks.push(VehicleTrack::from_snapshot(snap));
            Ok(())
        })?;
        pass.tracks = check_len(tracks, cfg.vehicles as usize, "mobility tracks")?;
        pass.metrics = field(v, "metrics")?;
        Ok(pass)
    }

    /// One barrier's mobility step, covering the epoch
    /// `[epoch_start, end]` the tick just finished.
    #[allow(clippy::too_many_arguments)]
    fn barrier(
        &mut self,
        vehicles: &mut [VehicleState],
        edge: &mut XEdgeServer,
        mut ingest: Option<&mut IngestPass>,
        injector: Option<&FaultInjector>,
        reliability: &mut ReliabilityStats,
        telemetry: Option<&mut FleetTelemetry>,
        cfg: &FleetConfig,
        epoch_start: SimTime,
        window: SimDuration,
        end: SimTime,
        epoch_index: u64,
    ) {
        // Vehicles that crossed at the *previous* barrier spent the
        // epoch with a cold collab cache (the engine has already
        // counted its suppressed hits): clear every flag before marking
        // this barrier's crossers.
        for v in vehicles.iter_mut() {
            v.cache_stale = false;
        }

        // Congestion multipliers from pre-advance occupancy: every
        // track still reports the segment it was on when the epoch
        // began, so the load each driver sees is globally determined
        // before anyone moves.
        let mut occupancy = vec![0u32; self.graph.segments().len()];
        for track in &self.tracks {
            if let Some(edge_id) = track.driving_edge() {
                occupancy[edge_id] += 1;
            }
        }
        let congestion: Vec<f64> = self
            .graph
            .segments()
            .iter()
            .zip(&occupancy)
            .map(|(seg, &occ)| seg.congestion_multiplier(occ))
            .collect();

        let mut epoch_crossings = 0u64;
        let mut epoch_migrations = 0u64;
        for id in 0..cfg.vehicles {
            self.crossings_buf.clear();
            self.tracks[id as usize].advance(
                epoch_start,
                window,
                &self.graph,
                &congestion,
                &mut self.crossings_buf,
            );
            if self.crossings_buf.is_empty() {
                continue;
            }
            let tenant = cfg.tenant_of(id);
            let mut handoff = SimDuration::ZERO;
            for c in &self.crossings_buf {
                // A handoff storm at the destination cell multiplies
                // the crossing cost — the single accounting path for
                // handoff seconds, organic or injected.
                let storming = injector
                    .is_some_and(|inj| inj.handoff_storm(&self.handoff_labels[c.to as usize], end));
                let cost = if storming {
                    self.metrics.storm_crossings += 1;
                    self.channel.storm_handoff_cost(c.speed)
                } else {
                    self.channel.handoff_cost(c.speed)
                };
                self.metrics.crossings += 1;
                epoch_crossings += 1;
                self.metrics.handoff_seconds += cost.as_secs_f64();
                self.metrics.handoff_ms.record_duration(cost);
                self.metrics.crossing_speed_mph.record(c.speed.0);
                // `migrations` counts home-node *domain* changes — the
                // canonical placement function of a region.
                if c.from % cfg.edge_nodes != c.to % cfg.edge_nodes {
                    self.metrics.migrations += 1;
                    epoch_migrations += 1;
                }
                reliability.record_degraded(&self.handoff_labels[c.to as usize], cost);
                edge.reregister(tenant, c.from, c.to);
                handoff += cost;
            }

            // The vehicle's own state, in place: handoff debt lands on
            // its next request, the region moves, the collab cache goes
            // stale for one epoch.
            let dest = self.tracks[id as usize].region();
            let v = &mut vehicles[id as usize];
            v.pending_handoff += handoff;
            v.region = dest;
            v.cache_stale = true;
            if let Some(ing) = ingest.as_deref_mut() {
                self.metrics.readdressed_batches += ing.readdress(u64::from(id), dest);
            }
        }

        if let Some(tel) = telemetry {
            tel.registry.sample(
                "mobility.crossings",
                epoch_index,
                end,
                epoch_crossings as f64,
            );
            tel.registry.sample(
                "mobility.migrations",
                epoch_index,
                end,
                epoch_migrations as f64,
            );
        }
    }
}

/// The interned series name for a class's per-epoch served count.
const fn served_series(class: WorkloadClass) -> &'static str {
    match class {
        WorkloadClass::Detection => "fleet.served.detection",
        WorkloadClass::Infotainment => "fleet.served.infotainment",
        WorkloadClass::PbeamTraining => "fleet.served.pbeam-training",
    }
}

/// The interned series name for a class's per-epoch rejected count.
const fn rejected_series(class: WorkloadClass) -> &'static str {
    match class {
        WorkloadClass::Detection => "fleet.rejected.detection",
        WorkloadClass::Infotainment => "fleet.rejected.infotainment",
        WorkloadClass::PbeamTraining => "fleet.rejected.pbeam-training",
    }
}

/// Samples the per-epoch time series at one barrier. Every sampled
/// value is an output of the canonical single-threaded serving pass,
/// so the series are executor-invariant by construction.
fn sample_epoch(tel: &mut FleetTelemetry, outcome: &EpochOutcome, epoch: u64, at: SimTime) {
    tel.registry
        .sample("xedge.queue_depth", epoch, at, outcome.queue_depth as f64);
    tel.registry
        .sample("xedge.lanes", epoch, at, f64::from(outcome.lanes));
    for class in WorkloadClass::ALL {
        let served = outcome.served.iter().filter(|s| s.class == class).count();
        let rejected = outcome.rejected.iter().filter(|r| r.class == class).count();
        tel.registry
            .sample(served_series(class), epoch, at, served as f64);
        tel.registry
            .sample(rejected_series(class), epoch, at, rejected as f64);
    }
    tel.registry
        .set_gauge("xedge.lanes", f64::from(outcome.lanes));
}

/// Folds one barrier's serving outcome into the engine metrics and the
/// reliability ledger, per class. Rejected requests keep the legacy
/// accounting: the vehicle pays the uplink it wasted discovering the
/// bounce, then the full on-board fallback at the class's own service
/// time. Skipped pBEAM rounds (rung 3 for the training class) count as
/// fallbacks but accrue no degraded-mode time.
fn record_outcome(
    metrics: &mut FleetMetrics,
    reliability: &mut ReliabilityStats,
    outcome: &EpochOutcome,
    cfg: &FleetConfig,
    tenant_labels: &[String],
    mut telemetry: Option<&mut FleetTelemetry>,
) {
    for served in &outcome.served {
        metrics.record_served(
            served.class,
            served.tenant,
            served.work,
            served.e2e,
            served.energy_j,
        );
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.registry.inc("fleet.served", 1);
            tel.absorb(RequestSpan {
                vehicle: served.vehicle,
                seq: served.seq,
                tenant: served.tenant,
                region: served.region,
                class: served.class.label(),
                generated: served.arrival,
                admitted: Some(served.admitted),
                serve_start: Some(served.serve_start),
                completed: served.arrival + served.e2e,
                outcome: SpanOutcome::EdgeServed,
                retries: served.retries,
                requeues: served.requeues,
                handoff: served.handoff,
            });
        }
    }
    for rejected in &outcome.rejected {
        let spec = cfg.class(rejected.class);
        let e2e = rejected.uplink + cfg.failover_penalty + spec.vehicle_service;
        metrics.record_rejected(
            rejected.class,
            e2e,
            rejected.uplink.as_secs_f64() * RADIO_W + spec.vehicle_service.as_secs_f64() * BOARD_W,
        );
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.registry.inc("fleet.rejected", 1);
            tel.absorb(RequestSpan {
                vehicle: rejected.vehicle,
                seq: rejected.seq,
                tenant: rejected.tenant,
                region: rejected.region,
                class: rejected.class.label(),
                generated: rejected.arrival,
                admitted: None,
                serve_start: None,
                completed: rejected.arrival + e2e,
                outcome: SpanOutcome::Rejected,
                retries: 0,
                requeues: 0,
                handoff: false,
            });
        }
    }
    for fallback in &outcome.local_fallbacks {
        metrics.record_fallback(fallback.class, fallback.e2e, fallback.energy_j);
        let skipped = fallback.class == WorkloadClass::PbeamTraining;
        if skipped {
            // A skipped pBEAM round: no degraded-mode seconds accrue,
            // training just converges a round later.
            metrics.training_rounds_skipped += 1;
        } else {
            reliability
                .record_degraded(&tenant_labels[fallback.tenant as usize], fallback.degraded);
        }
        if let Some(tel) = telemetry.as_deref_mut() {
            tel.registry.inc("fleet.local_fallbacks", 1);
            tel.absorb(RequestSpan {
                vehicle: fallback.vehicle,
                seq: fallback.seq,
                tenant: fallback.tenant,
                region: fallback.region,
                class: fallback.class.label(),
                generated: fallback.arrival,
                admitted: Some(fallback.decided),
                serve_start: None,
                completed: fallback.arrival + fallback.e2e,
                outcome: if skipped {
                    SpanOutcome::Skipped
                } else {
                    SpanOutcome::LocalFallback
                },
                retries: fallback.retries,
                requeues: fallback.requeues,
                handoff: false,
            });
        }
    }
    metrics.requeued += outcome.requeued;
    metrics.retry_rescued += outcome.retry_rescued;
    metrics.handoffs += outcome.handoffs;
    if let Some(tel) = telemetry {
        tel.registry.inc("fleet.requeued", outcome.requeued);
        tel.registry
            .inc("fleet.retry_rescued", outcome.retry_rescued);
        tel.registry.inc("fleet.handoffs", outcome.handoffs);
    }
    for _ in 0..outcome.retry_attempts {
        reliability.record_retry();
    }
    for _ in 0..outcome.retry_rescued {
        reliability.record_retry_success();
    }
    for _ in 0..outcome.retry_exhausted {
        reliability.record_retry_exhausted();
    }
}

/// Writes the per-tenant availability ledger. A tenant is "down" while
/// its own quota is flapped or while any XEdge node-crash window is
/// active (every tenant's traffic shares the node pool). Crash windows
/// are quantized up to the barrier grid the serving pass actually
/// samples, so per-tenant MTTR matches what requests experienced.
fn record_tenant_ledger(
    reliability: &mut ReliabilityStats,
    inj: &FaultInjector,
    cfg: &FleetConfig,
    horizon: SimTime,
) {
    let quantize = |t: SimTime| -> SimTime {
        let k = t.elapsed().as_nanos().div_ceil(cfg.epoch.as_nanos());
        let q = SimTime::ZERO + cfg.epoch * k;
        if q > horizon {
            horizon
        } else {
            q
        }
    };
    let crash_windows: Vec<(SimTime, SimTime)> = inj
        .windows()
        .iter()
        .filter(|w| matches!(w.kind, FaultKind::EdgeNodeCrash))
        .map(|w| (quantize(w.start), quantize(w.end)))
        .filter(|(s, e)| e > s)
        .collect();
    for t in 0..cfg.tenants {
        let label = tenant_label(t);
        let mut windows = crash_windows.clone();
        for w in inj.windows() {
            if matches!(w.kind, FaultKind::TenantQuotaFlap { .. }) && w.target == label {
                let end = if w.end > horizon { horizon } else { w.end };
                if end > w.start {
                    windows.push((w.start, end));
                }
            }
        }
        if windows.is_empty() {
            continue;
        }
        windows.sort_unstable();
        // Coalesce overlaps so a tenant's downtime is not double-counted.
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            match merged.last_mut() {
                Some((_, last_end)) if s <= *last_end => {
                    if e > *last_end {
                        *last_end = e;
                    }
                }
                _ => merged.push((s, e)),
            }
        }
        for (s, e) in merged {
            reliability.record_fault(&label, s);
            reliability.record_recovery(&label, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 96 vehicles for 10 s on `workers` executor threads, one arena
    /// chunk per worker (the tests below compare widths 1 and 4 or 1
    /// and 3).
    fn small(workers: u32) -> FleetConfig {
        let mut cfg = FleetConfig::sized(96)
            .with_executor_threads(workers)
            .with_batch_size(96 / workers);
        cfg.duration = SimDuration::from_secs(10);
        cfg
    }

    #[test]
    fn shard_counts_produce_identical_summaries() {
        let one = FleetEngine::new(small(1)).run();
        let four = FleetEngine::new(small(4)).run();
        assert_eq!(one.summary(), four.summary());
        assert_eq!(one.metrics, four.metrics);
    }

    #[test]
    fn requests_split_across_outcomes() {
        let report = FleetEngine::new(small(2)).run();
        let m = &report.metrics;
        assert!(m.requests >= 96 * 9, "~1 request/vehicle/second");
        assert_eq!(
            m.requests,
            m.edge_served + m.collab_hits + m.failovers + m.rejected + m.local_fallbacks,
            "every request has exactly one outcome"
        );
        assert!(m.collab_hits > 0, "cohort-mates should share results");
        assert_eq!(m.e2e_latency_ms.count(), m.requests);
        assert_eq!(m.energy_per_request_j.count(), m.requests);
    }

    #[test]
    fn regional_outage_causes_failovers_and_lowers_availability() {
        let mut cfg =
            small(2).with_regional_outage(0, SimTime::from_secs(2), SimDuration::from_secs(4));
        cfg.duration = SimDuration::from_secs(10);
        let report = FleetEngine::new(cfg).run();
        assert!(report.metrics.failovers > 0);
        assert_eq!(report.reliability.faults_injected(), 1);
        assert_eq!(report.region_availability.len(), 1);
        let (label, avail) = &report.region_availability[0];
        assert_eq!(label, "region0/lte");
        assert!((*avail - 0.6).abs() < 1e-9, "4 s down of 10 s: {avail}");
        assert!(report.reliability.failover_latency().count() > 0);
    }

    #[test]
    fn node_crash_walks_the_degradation_ladder() {
        let build = |workers: u32| {
            let mut cfg = small(workers);
            cfg.edge_nodes = 1;
            let cfg = cfg.with_edge_node_crash(0, SimTime::from_secs(2), SimDuration::from_secs(4));
            FleetEngine::new(cfg).run()
        };
        let report = build(2);
        let m = &report.metrics;
        assert!(
            m.retry_rescued > 0,
            "late arrivals should ride out the crash via rung-1 retry"
        );
        assert!(
            m.local_fallbacks > 0,
            "early arrivals exhaust their deadline and fall to rung 3"
        );
        assert_eq!(
            m.requests,
            m.edge_served + m.collab_hits + m.failovers + m.rejected + m.local_fallbacks,
            "ladder outcomes still partition the request stream"
        );
        // Every tenant shares the single node: availability dips over
        // the barrier-quantized crash window [2 s, 6 s), then recovers.
        let horizon = SimTime::from_secs(10);
        for t in 0..4u32 {
            let label = tenant_label(t);
            let down = report.reliability.downtime(&label, horizon);
            assert_eq!(down, SimDuration::from_secs(4), "tenant {t}: {down:?}");
            let avail = report.reliability.availability(&label, horizon);
            assert!((avail - 0.6).abs() < 1e-9, "tenant {t}: {avail}");
        }
        assert!(report.reliability.mttr().count() >= 4, "per-tenant MTTR");
        assert!(report.reliability.mttr().mean() > 0.0);
        assert!(report.reliability.retry_count() > 0);
        assert!(report.reliability.total_degraded_time() > SimDuration::ZERO);
        // The whole chaos story is still byte-identical across executor
        // widths and chunk sizes.
        assert_eq!(build(1).summary(), build(4).summary());
    }

    #[test]
    fn ingest_runs_healthy_and_stays_shard_invariant() {
        let build = |workers: u32| {
            let mut cfg = small(workers).with_ingest();
            cfg.duration = SimDuration::from_secs(10);
            FleetEngine::new(cfg).run()
        };
        let report = build(2);
        let ing = report.ingest.as_ref().expect("ingest ledger present");
        assert!(ing.batches_sent > 0, "vehicles uploaded batches");
        assert_eq!(
            ing.records_sent,
            ing.records_written + ing.records_shed + ing.cache_evictions + ing.backlog_records,
            "every record is written, shed, evicted, or backlog"
        );
        assert_eq!(ing.deadline_misses, 0, "healthy run misses nothing");
        let one = build(1);
        let four = build(4);
        assert_eq!(one.summary(), four.summary());
        assert_eq!(one.ingest, four.ingest);
    }

    #[test]
    fn storage_chaos_degrades_ingest_through_the_ladder() {
        let build = |workers: u32| {
            let mut cfg = small(workers)
                .with_ingest()
                .with_collector_outage(0, SimTime::from_secs(1), SimDuration::from_secs(6))
                .with_storage_brownout(0.02, SimTime::from_secs(2), SimDuration::from_secs(6));
            cfg.duration = SimDuration::from_secs(10);
            cfg.ingest.as_mut().unwrap().storage_records_per_sec = 400.0;
            FleetEngine::new(cfg).run()
        };
        let report = build(2);
        let ing = report.ingest.as_ref().expect("ingest ledger present");
        assert!(ing.outage_bounces > 0, "collector outage bounced uploads");
        assert!(ing.retries > 0, "rung 1 retried with seeded backoff");
        assert!(ing.deferrals > 0, "rung 2 deferred into vehicle caches");
        assert!(
            ing.deadline_misses > 0,
            "a brownout this deep must miss deadlines"
        );
        assert!(
            ing.storage_rho.max() > 1.0,
            "the browned-out tier saturates: {}",
            ing.storage_rho.max()
        );
        assert_eq!(
            ing.records_sent,
            ing.records_written + ing.records_shed + ing.cache_evictions + ing.backlog_records,
            "the ledger still partitions under chaos"
        );
        assert_eq!(build(1).summary(), build(4).summary());
    }

    #[test]
    fn mobility_crossings_stay_shard_invariant() {
        let build = |workers: u32| {
            let mut cfg = small(workers).with_mobility();
            cfg.duration = SimDuration::from_secs(10);
            FleetEngine::new(cfg).run()
        };
        let one = build(1);
        let four = build(4);
        let mob = one.mobility.as_ref().expect("mobility ledger present");
        assert!(mob.crossings > 0, "vehicles cross region boundaries");
        assert!(mob.migrations > 0, "some crossings change home-node domain");
        assert!(
            mob.partitions(),
            "crossings partition into migrations + same-domain moves"
        );
        assert_eq!(one.summary(), four.summary());
        assert_eq!(one.mobility, four.mobility);
        assert_eq!(one.region_admission, four.region_admission);
    }

    #[test]
    fn handoff_storm_multiplies_crossing_cost_without_double_counting() {
        let build = |storm: bool| {
            let mut cfg = small(2).with_mobility();
            if storm {
                cfg = cfg.with_handoff_storm(1, SimTime::from_secs(2), SimDuration::from_secs(6));
            }
            cfg.duration = SimDuration::from_secs(10);
            FleetEngine::new(cfg).run()
        };
        let calm = build(false);
        let stormy = build(true);
        let calm_mob = calm.mobility.as_ref().unwrap();
        let storm_mob = stormy.mobility.as_ref().unwrap();
        assert_eq!(calm_mob.storm_crossings, 0);
        assert!(
            storm_mob.storm_crossings > 0,
            "crossings into region 1 during the storm pay the multiplier"
        );
        assert!(
            storm_mob.handoff_seconds > calm_mob.handoff_seconds,
            "the storm multiplier must show up in the mobility ledger"
        );
        // Single-path accounting: with mobility on, the only writer of
        // a region's handoff-label degraded seconds is the mobility
        // pass, so the reliability ledger and the mobility ledger must
        // agree exactly — a storm must not double-count handoff time
        // through the serving path.
        for report in [&calm, &stormy] {
            let mob = report.mobility.as_ref().unwrap();
            let ledger: f64 = (0..8)
                .map(|r| {
                    report
                        .reliability
                        .degraded_time(&handoff_label(r))
                        .as_secs_f64()
                })
                .sum();
            assert!(
                (ledger - mob.handoff_seconds).abs() < 1e-6,
                "reliability ledger {ledger} vs mobility ledger {}",
                mob.handoff_seconds
            );
        }
    }

    /// `snapshot_payload(state_from_snapshot(p)) == p`, byte for byte,
    /// for every generation real runs write: random seeds, each of
    /// ingest, mobility, elastic lanes and budgeted, sampled telemetry
    /// on or off, and a node crash. Encode → decode → encode through
    /// the engine state is the identity.
    #[test]
    fn snapshot_payload_round_trips_through_engine_state() {
        let mut draws = SeedFactory::new(0x5AFE).stream("snapshot-round-trip");
        let mut generations = 0;
        for mask in 0..16u64 {
            let mut cfg = FleetConfig::sized(40);
            cfg.seed = draws.next_u64();
            cfg.duration = SimDuration::from_secs(6);
            // 80 epochs cross the series retention window, so rollup
            // histograms reach the snapshots too.
            cfg.epoch = SimDuration::from_millis(if mask % 3 == 0 { 75 } else { 500 });
            if mask & 1 != 0 {
                cfg = cfg.with_ingest().with_collector_outage(
                    0,
                    SimTime::from_secs(1),
                    SimDuration::from_secs(3),
                );
            }
            if mask & 2 != 0 {
                cfg = cfg.with_mobility();
            }
            if mask & 4 != 0 {
                cfg = cfg.with_elastic_capacity();
            }
            if mask & 8 != 0 {
                cfg = cfg.with_telemetry_budget(4 * 1024).with_span_sampling(3);
            }
            let cfg = cfg
                .with_edge_node_crash(1, SimTime::from_secs(2), SimDuration::from_secs(2))
                .with_checkpoint(3, 1000);
            let mut store = SnapshotStore::in_memory();
            let _ = FleetEngine::new(cfg.clone()).run_supervised(&mut store);
            let ctx = RunCtx::new(&cfg);
            for generation in store.generations() {
                let text = store.get(generation).expect("retained");
                let snap = Snapshot::decode(&text).expect("a clean write decodes");
                let state = state_from_snapshot(&ctx, &snap).expect("restores");
                let mut again = String::new();
                snapshot_payload(&cfg, &state, &mut again);
                assert!(
                    again == snap.payload.to_string(),
                    "mask {mask:#06b}, generation {generation} re-encodes differently"
                );
                generations += 1;
            }
        }
        assert!(generations > 150, "only {generations} generations checked");
    }

    #[test]
    fn chaos_summary_is_shard_invariant_too() {
        let build = |workers| {
            let cfg = small(workers).with_regional_outage(
                1,
                SimTime::from_secs(3),
                SimDuration::from_secs(3),
            );
            FleetEngine::new(cfg).run().summary()
        };
        assert_eq!(build(1), build(3));
    }
}
