//! The vehicle arena: every vehicle's private state in one persistent,
//! id-ordered `Vec`, advanced epoch by epoch in chunks.
//!
//! The engine owns a single `Vec<VehicleState>` for the whole run, with
//! vehicle `i` at index `i`. Each epoch's tick phase hands it to the
//! fork/join [`crate::WorkerPool`] as `chunks_mut(chunk_size)`, and
//! every chunk fills its own [`ChunkOut`]: one reusable set of output
//! buffers per chunk, drained at the barrier (keeping its allocation).
//! A region crossing is a field update on the vehicle in place.
//!
//! During an epoch a vehicle only *reads* globally-deterministic inputs
//! (virtual time, the compiled fault timeline, the previous barrier's
//! V2V snapshot) and *buffers* its outputs (edge requests, result
//! publications, vehicle-side outcomes) for the engine to fold at the
//! barrier in chunk order, which is vehicle-id order. Vehicles never
//! observe each other's same-epoch state, so the chunk size, the
//! executor width and which worker ran which chunk cannot reach any
//! report.
//!
//! There is no central event queue: each vehicle stores its own next
//! request-tick and next ingest-upload time, and an epoch advance just
//! replays each vehicle's private timeline up to the epoch boundary.
//!
//! Each request tick draws its [`vdap_edgeos::WorkloadClass`] from the
//! config's weighted mix using the vehicle's private RNG stream, so the
//! same vehicle issues the same class sequence however the arena is
//! chunked, and every vehicle-side cost (fallback service, V2V fetch
//! bytes) is priced by the drawn class's [`crate::ClassSpec`].

use std::collections::BTreeMap;

use vdap_ddi::UploadBatch;
use vdap_edgeos::WorkloadClass;
use vdap_fault::FaultInjector;
use vdap_net::{Direction, LinkSpec};
use vdap_obs::{RequestSpan, SpanOutcome};
use vdap_offload::Tile;
use vdap_sim::{SeedFactory, SimDuration, SimTime};

use crate::config::{region_label, FleetConfig};
use crate::edge::EdgeRequest;
use crate::vehicle::{tile_at, DdiUplink, VehicleState, BOARD_W, DSRC_W};

/// The V2V snapshot published at the previous barrier: tile → producer.
pub(crate) type CollabSnapshot = BTreeMap<Tile, u32>;

/// A request resolved on the vehicle side (a V2V hit or a regional-
/// outage failover): the raw sample the barrier folds into the engine
/// metrics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resolved {
    pub class: WorkloadClass,
    pub e2e: SimDuration,
    pub energy_j: f64,
}

/// Output buffers one chunk fills while advancing its vehicles. The
/// engine keeps one per chunk for a whole run and drains every buffer
/// at each barrier, in chunk order.
#[derive(Debug, Default)]
pub(crate) struct ChunkOut {
    /// Requests bound for the edge.
    pub outbox: Vec<EdgeRequest>,
    /// Telemetry upload batches bound for the regional DDI collectors.
    pub ingest_outbox: Vec<UploadBatch>,
    /// Cacheable results produced this epoch: (tile, producer).
    pub publications: Vec<(Tile, u32)>,
    /// Requests issued this epoch, indexed by [`WorkloadClass::index`].
    pub requests: [u64; 3],
    /// V2V collaboration hits.
    pub collab: Vec<Resolved>,
    /// Regional-outage failovers with their re-planning latency (ms),
    /// in `(vehicle, seq)` order.
    pub failovers: Vec<(Resolved, f64)>,
    /// Spans for requests resolved on the vehicle side. Empty unless
    /// the config enables telemetry.
    pub spans: Vec<RequestSpan>,
    /// V2V lookups that *would* have hit but were suppressed because
    /// the vehicle's collab cache went stale at its last crossing.
    pub stale_hits: u64,
    /// Per-vehicle events (request ticks + ingest uploads), for the
    /// deterministic event ledger.
    pub events: u64,
}

/// Builds the id-ordered arena and draws every vehicle's first
/// request-tick (and ingest-upload) phase: a deterministic per-vehicle
/// offset in `[0, period)`, drawn from each vehicle's private streams
/// in a fixed order (tick phase, then ingest phase).
pub(crate) fn fresh_arena(cfg: &FleetConfig, seeds: &SeedFactory) -> Vec<VehicleState> {
    let period = cfg.request_period.as_secs_f64();
    let upload_period = cfg.ingest.as_ref().map(|i| i.upload_period.as_secs_f64());
    (0..cfg.vehicles)
        .map(|id| {
            let mut v = VehicleState {
                id,
                tenant: cfg.tenant_of(id),
                region: cfg.region_of(id),
                rng: seeds.indexed_stream("fleet-vehicle", u64::from(id)),
                seq: 0,
                ddi: cfg.ingest.is_some().then(|| DdiUplink {
                    rng: seeds.indexed_stream("fleet-ddi", u64::from(id)),
                    seq: 0,
                }),
                next_tick: None,
                next_ingest: None,
                pending_handoff: SimDuration::ZERO,
                cache_stale: false,
            };
            let offset = v.rng.uniform_range(0.0, period);
            v.next_tick = Some(SimTime::ZERO + SimDuration::from_secs_f64(offset));
            if let Some(period) = upload_period {
                let offset = v
                    .ddi
                    .as_mut()
                    .expect("ingest on")
                    .rng
                    .uniform_range(0.0, period);
                v.next_ingest = Some(SimTime::ZERO + SimDuration::from_secs_f64(offset));
            }
            v
        })
        .collect()
}

/// Advances one chunk of the arena to the epoch boundary `end`
/// (inclusive), replaying each vehicle's private timeline of request
/// ticks and ingest uploads into `out`.
pub(crate) fn advance_chunk(
    cfg: &FleetConfig,
    injector: Option<&FaultInjector>,
    region_labels: &[String],
    snapshot: &CollabSnapshot,
    vehicles: &mut [VehicleState],
    out: &mut ChunkOut,
    end: SimTime,
) {
    for v in vehicles {
        loop {
            let next_tick = v.next_tick.filter(|&t| t <= end);
            let next_ingest = v.next_ingest.filter(|&t| t <= end);
            // Tick-before-ingest on equal timestamps is arbitrary but
            // fixed: the two event kinds draw from separate streams and
            // write disjoint buffers, so either order yields the same
            // outputs.
            match (next_tick, next_ingest) {
                (Some(t), Some(g)) if g < t => ingest_tick(cfg, v, out, g),
                (Some(t), _) => tick(cfg, injector, region_labels, snapshot, v, out, t),
                (None, Some(g)) => ingest_tick(cfg, v, out, g),
                (None, None) => break,
            }
            out.events += 1;
        }
    }
}

/// One vehicle request tick at time `now`. All branching depends only
/// on virtual time, the fault timeline, the previous barrier's
/// snapshot, and the vehicle's private RNG — inputs independent of
/// chunk size and worker schedule alike.
fn tick(
    cfg: &FleetConfig,
    injector: Option<&FaultInjector>,
    region_labels: &[String],
    snapshot: &CollabSnapshot,
    v: &mut VehicleState,
    out: &mut ChunkOut,
    now: SimTime,
) {
    let horizon = cfg.horizon();

    // Per-request draws, in a fixed order so the stream replays
    // identically: class pick, cache eligibility, cost jitter.
    let seq = v.seq;
    v.seq += 1;
    let pick = v.rng.below(u64::from(cfg.total_class_weight()));
    let class = cfg.class_for_draw(pick);
    let cache_draw = v.rng.chance(cfg.cacheable_fraction);
    let jitter = v.rng.uniform();
    let cacheable = cache_draw && cfg.class(class).cacheable;
    let handoff = std::mem::take(&mut v.pending_handoff);
    let stale = v.cache_stale;
    let spec = cfg.class(class);

    let region_down =
        injector.is_some_and(|inj| inj.is_down(&region_labels[v.region as usize], now));

    out.requests[class.index()] += 1;
    if region_down {
        // Regional LTE outage: re-plan and run the pipeline on board
        // (a pBEAM round continues training locally at its own cost).
        let failover = cfg.failover_penalty.mul_f64(1.0 + 0.2 * jitter);
        let service = spec.vehicle_service.mul_f64(1.0 + 0.1 * jitter);
        let e2e = handoff + failover + service;
        let resolved = Resolved {
            class,
            e2e,
            energy_j: service.as_secs_f64() * BOARD_W,
        };
        out.failovers.push((resolved, failover.as_millis_f64()));
        if cfg.telemetry {
            out.spans.push(vehicle_span(
                cfg,
                v.id,
                seq,
                class,
                now,
                e2e,
                SpanOutcome::Failover,
            ));
        }
    } else {
        let tile = tile_at(v.id, now);
        let lookup = if cacheable {
            snapshot.get(&tile).copied().filter(|p| *p != v.id)
        } else {
            None
        };
        // A vehicle that just crossed a region boundary cannot trust
        // its collab cache: the would-be hit is counted, then dropped.
        let shared_by = if stale {
            if lookup.is_some() {
                out.stale_hits += 1;
            }
            None
        } else {
            lookup
        };
        if shared_by.is_some() {
            // V2V collaboration hit: fetch the neighbour's result over
            // DSRC instead of recomputing.
            let dsrc = LinkSpec::dsrc();
            let fetch = dsrc.transfer_time(Direction::Downlink, spec.download_bytes);
            let merge = SimDuration::from_millis_f64(2.0 + jitter);
            let e2e = handoff + dsrc.latency() + fetch + merge;
            out.collab.push(Resolved {
                class,
                e2e,
                energy_j: fetch.as_secs_f64() * DSRC_W,
            });
            if cfg.telemetry {
                out.spans.push(vehicle_span(
                    cfg,
                    v.id,
                    seq,
                    class,
                    now,
                    e2e,
                    SpanOutcome::CollabHit,
                ));
            }
        } else {
            out.outbox.push(EdgeRequest {
                vehicle: v.id,
                seq,
                tenant: v.tenant,
                region: v.region,
                class,
                arrival: now,
                attempts: 0,
                handoff,
            });
            if cacheable {
                out.publications.push((tile, v.id));
            }
        }
    }

    // Open-loop reschedule with ±10% deterministic jitter.
    let next_jitter = v.rng.uniform();
    let delay = cfg.request_period.mul_f64(0.9 + 0.2 * next_jitter);
    v.next_tick = (now + delay <= horizon).then(|| now + delay);
}

/// One vehicle telemetry-upload tick at time `now`: batch the records
/// accumulated since the last upload and address them to the region's
/// collector. The batch is only *buffered* here — pricing, collector
/// admission and the storage drain all happen in the engine's barrier
/// ingest pass, so everything a vehicle does is a pure function of its
/// private DDI stream.
fn ingest_tick(cfg: &FleetConfig, v: &mut VehicleState, out: &mut ChunkOut, now: SimTime) {
    let ingest = cfg.ingest.as_ref().expect("ingest ticks imply config");
    let horizon = cfg.horizon();
    let region = v.region;
    // Fixed draw order on the DDI stream: priority, then reschedule
    // jitter — the stream replays identically however the arena is
    // chunked.
    let d = v.ddi.as_mut().expect("ingest ticks imply uplink state");
    let seq = d.seq;
    d.seq += 1;
    let priority = d.rng.below(4) as u8;
    let next_jitter = d.rng.uniform();
    let delay = ingest.upload_period.mul_f64(0.9 + 0.2 * next_jitter);
    v.next_ingest = (now + delay <= horizon).then(|| now + delay);
    out.ingest_outbox.push(UploadBatch {
        vehicle: u64::from(v.id),
        region,
        seq,
        records: ingest.records_per_batch,
        bytes: ingest.batch_bytes(),
        sent_at: now,
        deadline: now + ingest.deadline,
        priority,
    });
}

/// Builds a span for a request resolved entirely on the vehicle side
/// (collab hits and regional-outage failovers never reach the edge, so
/// `admitted` and `serve_start` stay empty).
fn vehicle_span(
    cfg: &FleetConfig,
    vehicle: u32,
    seq: u32,
    class: WorkloadClass,
    generated: SimTime,
    e2e: SimDuration,
    outcome: SpanOutcome,
) -> RequestSpan {
    RequestSpan {
        vehicle,
        seq,
        tenant: cfg.tenant_of(vehicle),
        region: cfg.region_of(vehicle),
        class: class.label(),
        generated,
        admitted: None,
        serve_start: None,
        completed: generated + e2e,
        outcome,
        retries: 0,
        requeues: 0,
        handoff: false,
    }
}

/// Builds the label table `region id → fault target label`.
pub(crate) fn region_label_table(regions: u32) -> Vec<String> {
    (0..regions).map(region_label).collect()
}
