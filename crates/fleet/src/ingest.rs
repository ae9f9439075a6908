//! The engine's barrier ingest pass: fleet-scale DDI ingestion under
//! pressure.
//!
//! The tick phase only *generates* [`UploadBatch`]es (a pure function
//! of each vehicle's private DDI stream); everything cross-vehicle
//! happens here, single-threaded at epoch barriers, in canonical batch
//! order:
//!
//! 1. **Uplink pricing.** Each region's batches share the cellular
//!    uplink; the [`ContentionModel`] prices the transfer from how many
//!    uploads the region offered this epoch.
//! 2. **Collector admission.** A batch is offered to its region's
//!    bounded [`RegionCollector`] queue. A collector outage
//!    ([`vdap_fault::FaultKind::CollectorOutage`]) or a full queue
//!    bounces the batch into the ingestion degradation ladder:
//!    *rung 1* — seeded-backoff retry at a later barrier (while the
//!    attempt budget and the batch deadline allow); *rung 2* — defer
//!    into the vehicle's local TTL cache, mem tier first, disk spill
//!    second (mirroring the `DdiService` two-tier cache); *rung 3* —
//!    shed, lowest-priority first: a deferred lower-priority batch is
//!    sacrificed before a higher-priority newcomer is dropped.
//! 3. **Storage drain.** The shared storage tier drains collector
//!    queues round-robin at the [`StorageTierModel`]'s finite write
//!    throughput. A brownout
//!    ([`vdap_fault::FaultKind::StorageBrownout`]) shrinks the epoch's
//!    write capacity; a hard write-error window
//!    ([`vdap_fault::FaultKind::StorageWriteError`]) zeroes it.
//!
//! All ladder randomness comes from one engine-owned RNG stream
//! consumed in canonical batch order, and every counter below is a
//! plain integer or a [`StreamingHistogram`], so the pass preserves the
//! byte-identity contract across executor widths and chunk sizes.

use vdap_ddi::{RegionCollector, StorageTierModel, UploadBatch};
use vdap_fault::{FaultInjector, RetryPolicy};
use vdap_net::{Direction, LinkSpec};
use vdap_offload::ContentionModel;
use vdap_sim::{
    ReliabilityStats, RngStream, SeedFactory, SimDuration, SimTime, StreamingHistogram,
};

use crate::config::{collector_label, FleetConfig, IngestConfig, STORE_LABEL};
use crate::metrics::FleetTelemetry;

/// Mergeable ingestion accounting (engine-side; reported through
/// `FleetReport::ingest` and the deterministic summary).
#[derive(Debug, Clone, PartialEq)]
pub struct IngestMetrics {
    /// Upload batches vehicles sent.
    pub batches_sent: u64,
    /// Telemetry records vehicles sent.
    pub records_sent: u64,
    /// Batches made durable by the storage tier.
    pub batches_written: u64,
    /// Records made durable by the storage tier.
    pub records_written: u64,
    /// Batches that missed their ingestion deadline (written late,
    /// TTL-evicted, or shed).
    pub deadline_misses: u64,
    /// Offers bounced by a collector outage.
    pub outage_bounces: u64,
    /// Offers bounced by a full collector queue (backpressure).
    pub queue_bounces: u64,
    /// Rung-1 seeded-backoff retries scheduled.
    pub retries: u64,
    /// Rung-2 deferrals into vehicle TTL caches.
    pub deferrals: u64,
    /// Deferrals that overflowed the mem tier onto the disk tier.
    pub disk_spills: u64,
    /// Records TTL-evicted from vehicle caches before reaching storage.
    pub cache_evictions: u64,
    /// Records shed at rung 3 (lowest-priority first).
    pub records_shed: u64,
    /// Records not yet durable when the run ended (queued, cached, or
    /// awaiting retry).
    pub backlog_records: u64,
    /// Storage-tier utilization sampled once per epoch.
    pub storage_rho: StreamingHistogram,
    /// Contention-priced uplink time per offer (ms).
    pub uplink_ms: StreamingHistogram,
    /// Sent-to-durable latency of written batches (ms).
    pub ingest_latency_ms: StreamingHistogram,
}

impl Default for IngestMetrics {
    fn default() -> Self {
        IngestMetrics::new()
    }
}

impl IngestMetrics {
    /// Creates empty ingestion metrics.
    #[must_use]
    pub fn new() -> Self {
        IngestMetrics {
            batches_sent: 0,
            records_sent: 0,
            batches_written: 0,
            records_written: 0,
            deadline_misses: 0,
            outage_bounces: 0,
            queue_bounces: 0,
            retries: 0,
            deferrals: 0,
            disk_spills: 0,
            cache_evictions: 0,
            records_shed: 0,
            backlog_records: 0,
            storage_rho: StreamingHistogram::new("ingest_storage_rho"),
            uplink_ms: StreamingHistogram::new("ingest_uplink_ms"),
            ingest_latency_ms: StreamingHistogram::new("ingest_latency_ms"),
        }
    }

    /// Merges another ingestion ledger (associative and commutative).
    pub fn merge(&mut self, other: &IngestMetrics) {
        self.batches_sent += other.batches_sent;
        self.records_sent += other.records_sent;
        self.batches_written += other.batches_written;
        self.records_written += other.records_written;
        self.deadline_misses += other.deadline_misses;
        self.outage_bounces += other.outage_bounces;
        self.queue_bounces += other.queue_bounces;
        self.retries += other.retries;
        self.deferrals += other.deferrals;
        self.disk_spills += other.disk_spills;
        self.cache_evictions += other.cache_evictions;
        self.records_shed += other.records_shed;
        self.backlog_records += other.backlog_records;
        self.storage_rho.merge(&other.storage_rho);
        self.uplink_ms.merge(&other.uplink_ms);
        self.ingest_latency_ms.merge(&other.ingest_latency_ms);
    }

    /// Fraction of sent batches that missed their ingestion deadline.
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.batches_sent == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.batches_sent as f64
        }
    }
}

/// A batch waiting out its rung-1 backoff.
#[derive(Debug)]
struct Pending {
    due: SimTime,
    attempts: u32,
    /// Original cache expiry, once the batch has ever been deferred.
    expires: Option<SimTime>,
    batch: UploadBatch,
}

/// A batch deferred into its vehicle's local TTL cache.
#[derive(Debug)]
struct Cached {
    expires: SimTime,
    attempts: u32,
    disk: bool,
    batch: UploadBatch,
}

/// One vehicle's in-flight ingest: its rung-1 retries, its rung-2 TTL
/// cache and that cache's per-tier occupancy. A crossing re-addresses
/// only these batches, and the shed-victim search looks only here.
#[derive(Debug, Default)]
struct VehicleIngest {
    pending: Vec<Pending>,
    cached: Vec<Cached>,
    /// Records occupying the mem-tier cache.
    mem_used: u64,
    /// Records occupying the disk-tier cache.
    disk_used: u64,
}

/// One batch offered to a collector this barrier.
struct Offer {
    attempts: u32,
    expires: Option<SimTime>,
    batch: UploadBatch,
}

/// Engine-owned ingestion state, advanced once per barrier.
#[derive(Debug)]
pub(crate) struct IngestPass {
    ing: IngestConfig,
    collectors: Vec<RegionCollector>,
    collector_labels: Vec<String>,
    storage: StorageTierModel,
    lte: LinkSpec,
    contention: ContentionModel,
    policy: RetryPolicy,
    rng: RngStream,
    /// In-flight ingest indexed by vehicle id.
    vehicles: Vec<VehicleIngest>,
    pub metrics: IngestMetrics,
}

impl IngestPass {
    pub fn new(cfg: &FleetConfig, seeds: &SeedFactory) -> Self {
        let ing = cfg.ingest.clone().expect("ingest pass implies config");
        let lte = LinkSpec::lte();
        // How many serialized batch uploads one region's shared uplink
        // absorbs per epoch at nominal speed — the contention capacity.
        let nominal = lte
            .transfer_time(Direction::Uplink, ing.batch_bytes())
            .as_secs_f64();
        let per_epoch = (cfg.epoch.as_secs_f64() / nominal.max(1e-9)).floor() as u32;
        let mut policy = RetryPolicy::transfer_default();
        policy.max_attempts = ing.max_upload_attempts;
        IngestPass {
            collectors: (0..cfg.regions)
                .map(|r| RegionCollector::new(r, ing.collector_queue_records))
                .collect(),
            collector_labels: (0..cfg.regions).map(collector_label).collect(),
            storage: StorageTierModel::new(ing.storage_records_per_sec),
            lte,
            contention: ContentionModel::new(per_epoch.max(1)),
            policy,
            rng: seeds.stream("fleet-ingest"),
            vehicles: (0..cfg.vehicles)
                .map(|_| VehicleIngest::default())
                .collect(),
            metrics: IngestMetrics::new(),
            ing,
        }
    }

    /// Re-addresses a migrated vehicle's in-flight batches — pending
    /// retries and TTL-cached deferrals — to its new region's
    /// collector, returning how many batches moved. Called by the
    /// engine's mobility pass in canonical vehicle order, so the
    /// re-addressing is executor-shape invariant.
    pub fn readdress(&mut self, vehicle: u64, region: u32) -> u64 {
        let slot = &mut self.vehicles[vehicle as usize];
        let pending = slot.pending.iter_mut().map(|p| &mut p.batch);
        let cached = slot.cached.iter_mut().map(|c| &mut c.batch);
        pending
            .chain(cached)
            .map(|batch| u64::from(batch.readdress(region)))
            .sum()
    }

    /// Runs one barrier's ingest pass over the freshly drained batches.
    #[allow(clippy::too_many_arguments)] // one call site, in the engine's barrier loop
    pub fn barrier(
        &mut self,
        mut fresh: Vec<UploadBatch>,
        window: SimDuration,
        end: SimTime,
        epoch: u64,
        injector: Option<&FaultInjector>,
        reliability: &mut ReliabilityStats,
        telemetry: Option<&mut FleetTelemetry>,
    ) {
        fresh.sort_unstable_by_key(|b| (b.sent_at, b.vehicle, b.seq));
        for b in &fresh {
            self.metrics.batches_sent += 1;
            self.metrics.records_sent += u64::from(b.records);
        }
        let mut offers: Vec<Offer> = fresh
            .into_iter()
            .map(|batch| Offer {
                attempts: 0,
                expires: None,
                batch,
            })
            .collect();

        for slot in &mut self.vehicles {
            // Wake rung-1 retries whose backoff has elapsed.
            for p in slot.pending.extract_if(.., |p| p.due <= end) {
                offers.push(Offer {
                    attempts: p.attempts,
                    expires: p.expires,
                    batch: p.batch,
                });
            }
            // Vehicle cache: TTL-evict what expired (the records never
            // reach storage — a terminal deadline miss), re-offer the rest.
            for c in slot.cached.drain(..) {
                let records = u64::from(c.batch.records);
                let used = if c.disk {
                    &mut slot.disk_used
                } else {
                    &mut slot.mem_used
                };
                *used = used.saturating_sub(records);
                if c.expires <= end {
                    self.metrics.cache_evictions += records;
                    self.metrics.deadline_misses += 1;
                    reliability.record_cache_ttl_evictions(records);
                } else {
                    offers.push(Offer {
                        attempts: c.attempts,
                        expires: Some(c.expires),
                        batch: c.batch,
                    });
                }
            }
        }

        // Canonical processing order: the batch identity (vehicle, seq)
        // is unique and sent_at is fixed at generation, so this order is
        // independent of the executor shape and of which path re-offered a
        // batch.
        offers.sort_unstable_by_key(|o| (o.batch.sent_at, o.batch.vehicle, o.batch.seq));

        // Contention-priced uplink per region: every batch a region
        // offered this epoch shares its cellular uplink.
        let mut offered_per_region = vec![0u32; self.collectors.len()];
        for o in &offers {
            offered_per_region[o.batch.region as usize] += 1;
        }
        let uplink_ms: Vec<f64> = offered_per_region
            .iter()
            .map(|&n| {
                let transfer = self
                    .lte
                    .transfer_time(Direction::Uplink, self.ing.batch_bytes());
                let priced = transfer.mul_f64(self.contention.service_multiplier(n));
                (self.lte.latency() + priced).as_millis_f64()
            })
            .collect();

        for offer in offers {
            let region = offer.batch.region as usize;
            self.metrics.uplink_ms.record(uplink_ms[region]);
            let down = injector.is_some_and(|inj| inj.is_down(&self.collector_labels[region], end));
            if down {
                self.metrics.outage_bounces += 1;
                self.ladder(offer, end, reliability);
            } else if let Err(batch) = self.collectors[region].offer(offer.batch) {
                self.metrics.queue_bounces += 1;
                self.ladder(
                    Offer {
                        attempts: offer.attempts,
                        expires: offer.expires,
                        batch,
                    },
                    end,
                    reliability,
                );
            }
        }

        // Storage drain: finite write throughput, browned out or hard-
        // failed by the fault timeline, shared round-robin across the
        // regional collector queues.
        let store_down = injector.is_some_and(|inj| inj.is_down(STORE_LABEL, end));
        let factor = if store_down {
            0.0
        } else {
            injector.map_or(1.0, |inj| inj.brownout_factor(STORE_LABEL, end))
        };
        let offered: u64 = self
            .collectors
            .iter()
            .map(RegionCollector::queued_records)
            .sum();
        let rho = self.storage.utilization(offered, window, factor);
        self.metrics.storage_rho.record(rho);
        let delay = self.storage.write_delay(offered, window, factor);
        let mut budget = self.storage.capacity_in(window, factor);
        let mut written_records = 0u64;
        loop {
            let mut progressed = false;
            for c in &mut self.collectors {
                if let Some(records) = c.peek_records() {
                    if u64::from(records) <= budget {
                        let batch = c.pop().expect("peeked batch present");
                        budget -= u64::from(records);
                        written_records += u64::from(records);
                        let durable = end + delay;
                        self.metrics.batches_written += 1;
                        self.metrics.records_written += u64::from(records);
                        self.metrics
                            .ingest_latency_ms
                            .record((durable - batch.sent_at).as_millis_f64());
                        if durable > batch.deadline {
                            self.metrics.deadline_misses += 1;
                        }
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        if let Some(tel) = telemetry {
            let queued: u64 = self
                .collectors
                .iter()
                .map(RegionCollector::queued_records)
                .sum();
            tel.registry
                .sample("ingest.queued_records", epoch, end, queued as f64);
            tel.registry
                .sample("ingest.written_records", epoch, end, written_records as f64);
            tel.registry.sample("ingest.storage_rho", epoch, end, rho);
            tel.registry.inc("fleet.ingest_written", written_records);
        }
    }

    /// The ingestion degradation ladder, applied to one bounced offer:
    /// seeded-backoff retry → defer-to-cache (mem, then disk spill) →
    /// shed lowest-priority.
    fn ladder(&mut self, offer: Offer, end: SimTime, reliability: &mut ReliabilityStats) {
        let attempts = offer.attempts + 1;
        let slot = &mut self.vehicles[offer.batch.vehicle as usize];
        // Rung 1: retry while the attempt budget and the deadline allow.
        if attempts < self.ing.max_upload_attempts {
            let delay = self.policy.backoff_delay(attempts + 1, &mut self.rng);
            let due = end + delay;
            if due <= offer.batch.deadline {
                self.metrics.retries += 1;
                slot.pending.push(Pending {
                    due,
                    attempts,
                    expires: offer.expires,
                    batch: offer.batch,
                });
                return;
            }
        }
        // Rung 2: defer into the vehicle's local TTL cache. The expiry
        // is fixed at first deferral so re-offers cannot refresh it.
        let records = u64::from(offer.batch.records);
        let expires = offer.expires.unwrap_or(end + self.ing.cache_ttl);
        if slot.mem_used + records <= self.ing.cache_mem_records {
            slot.mem_used += records;
            self.metrics.deferrals += 1;
            slot.cached.push(Cached {
                expires,
                attempts,
                disk: false,
                batch: offer.batch,
            });
            return;
        }
        if slot.disk_used + records <= self.ing.cache_disk_records {
            slot.disk_used += records;
            self.metrics.deferrals += 1;
            self.metrics.disk_spills += 1;
            reliability.record_disk_spills(records);
            slot.cached.push(Cached {
                expires,
                attempts,
                disk: true,
                batch: offer.batch,
            });
            return;
        }
        // Rung 3: shed lowest-priority first. If this vehicle holds a
        // strictly lower-priority cached batch, sacrifice that one and
        // cache the newcomer in its tier; otherwise drop the newcomer.
        let victim = slot
            .cached
            .iter()
            .enumerate()
            .filter(|(_, c)| c.batch.priority < offer.batch.priority)
            .min_by_key(|(_, c)| (c.batch.priority, c.batch.sent_at, c.batch.seq))
            .map(|(i, _)| i);
        if let Some(i) = victim {
            let shed = slot.cached.remove(i);
            // The victim's cache slot transfers to the newcomer.
            let tier = if shed.disk {
                &mut slot.disk_used
            } else {
                &mut slot.mem_used
            };
            *tier = tier.saturating_sub(u64::from(shed.batch.records)) + records;
            slot.cached.push(Cached {
                expires,
                attempts,
                disk: shed.disk,
                batch: offer.batch,
            });
            self.shed(&shed.batch);
            self.metrics.deferrals += 1;
            if shed.disk {
                self.metrics.disk_spills += 1;
            }
        } else {
            self.shed(&offer.batch);
        }
    }

    /// Records one batch shed at rung 3 (a terminal deadline miss).
    fn shed(&mut self, batch: &UploadBatch) {
        self.metrics.records_shed += u64::from(batch.records);
        self.metrics.deadline_misses += 1;
    }

    /// Closes the ledger at the horizon: everything not yet durable —
    /// queued in collectors, parked in vehicle caches, or awaiting a
    /// retry — is backlog.
    pub fn finish(&mut self) -> IngestMetrics {
        let queued: u64 = self
            .collectors
            .iter()
            .map(RegionCollector::queued_records)
            .sum();
        let parked: u64 = self
            .vehicles
            .iter()
            .flat_map(|slot| {
                let pending = slot.pending.iter().map(|p| &p.batch);
                pending.chain(slot.cached.iter().map(|c| &c.batch))
            })
            .map(|batch| u64::from(batch.records))
            .sum();
        self.metrics.backlog_records = queued + parked;
        self.metrics.clone()
    }
}

// --- snapshot codec --------------------------------------------------

use crate::ckpt::{
    check_id, check_len, decode_each, enc_all, field, snap_record, write_array, Obj, Snap,
};
use vdap_ckpt::json::Value;
use vdap_ckpt::CkptError;

snap_record! { Pending { attempts, batch, due, expires } }
snap_record! { Cached { attempts, batch, disk, expires } }

/// Writes `(vehicle, records)` pairs for every vehicle whose `used` tier
/// holds records, in vehicle order.
fn used_pairs(out: &mut String, vehicles: &[VehicleIngest], used: impl Fn(&VehicleIngest) -> u64) {
    let pairs = (0u64..).zip(vehicles).filter(|&(_, slot)| used(slot) > 0);
    write_array(out, pairs, |out, (vehicle, slot)| {
        (vehicle, used(slot)).enc(out);
    });
}

/// The slot of `vehicle`, or an error naming the snapshot field `what`
/// when it refers to a vehicle this fleet does not have.
fn slot_mut<'a>(
    vehicles: &'a mut [VehicleIngest],
    vehicle: u64,
    what: &str,
) -> Result<&'a mut VehicleIngest, CkptError> {
    let fleet = vehicles.len();
    usize::try_from(vehicle)
        .ok()
        .and_then(|v| vehicles.get_mut(v))
        .ok_or_else(|| CkptError::new(format!("{what} names vehicle {vehicle}, fleet has {fleet}")))
}

impl IngestPass {
    /// Serializes everything the ingest pass carries across barriers:
    /// the ladder RNG position, rung-1 retry queue, rung-2 TTL caches
    /// with their per-vehicle tier occupancy, the ingestion ledger, and
    /// every collector's queued batches. The config-derived pieces
    /// (uplink model, contention capacity, retry policy, storage tier)
    /// are rebuilt on restore.
    ///
    /// Deliberately does **not** call [`IngestPass::finish`] — that
    /// closes the backlog ledger, which only happens at the horizon.
    pub(crate) fn ckpt(&self, out: &mut String) {
        let slots = &self.vehicles;
        let mut obj = Obj::new(out);
        enc_all(obj.key("cached"), slots.iter().flat_map(|s| &s.cached));
        write_array(obj.key("collectors"), &self.collectors, |out, c| {
            enc_all(out, c.batches());
        });
        used_pairs(obj.key("disk_used"), slots, |slot| slot.disk_used);
        used_pairs(obj.key("mem_used"), slots, |slot| slot.mem_used);
        obj.field("metrics", &self.metrics);
        enc_all(obj.key("pending"), slots.iter().flat_map(|s| &s.pending));
        obj.field("rng", &self.rng);
        obj.end();
    }

    /// Rebuilds the pass from config plus the serialized barrier state,
    /// refusing batches addressed to a vehicle or region the config does
    /// not have.
    pub(crate) fn restore_ckpt(
        cfg: &FleetConfig,
        seeds: &SeedFactory,
        v: &Value,
    ) -> Result<IngestPass, CkptError> {
        let mut pass = IngestPass::new(cfg, seeds);
        pass.rng = field(v, "rng")?;
        let slots = &mut pass.vehicles;
        decode_each(v, "pending", |p: Pending| {
            check_id("pending batch region", p.batch.region, cfg.regions)?;
            slot_mut(slots, p.batch.vehicle, "pending")?.pending.push(p);
            Ok(())
        })?;
        decode_each(v, "cached", |c: Cached| {
            check_id("cached batch region", c.batch.region, cfg.regions)?;
            slot_mut(slots, c.batch.vehicle, "cached")?.cached.push(c);
            Ok(())
        })?;
        decode_each(v, "mem_used", |(vehicle, records): (u64, u64)| {
            slot_mut(slots, vehicle, "mem_used")?.mem_used = records;
            Ok(())
        })?;
        decode_each(v, "disk_used", |(vehicle, records): (u64, u64)| {
            slot_mut(slots, vehicle, "disk_used")?.disk_used = records;
            Ok(())
        })?;
        pass.metrics = field(v, "metrics")?;
        let queues: Vec<Vec<UploadBatch>> = field(v, "collectors")?;
        let queues = check_len(queues, pass.collectors.len(), "collectors")?;
        for (region, batches) in (0u32..).zip(queues) {
            for b in &batches {
                check_id("collector batch region", b.region, cfg.regions)?;
            }
            pass.collectors[region as usize] =
                RegionCollector::from_batches(region, pass.ing.collector_queue_records, batches);
        }
        Ok(pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::sized(64).with_ingest();
        cfg.duration = SimDuration::from_secs(10);
        cfg
    }

    fn batch(vehicle: u64, seq: u32, sent_at: SimTime, priority: u8) -> UploadBatch {
        UploadBatch {
            vehicle,
            region: 0,
            seq,
            records: 24,
            bytes: 24 * 512,
            sent_at,
            deadline: sent_at + SimDuration::from_secs(5),
            priority,
        }
    }

    #[test]
    fn healthy_pass_writes_everything_within_deadline() {
        let cfg = ingest_cfg();
        let seeds = SeedFactory::new(7);
        let mut pass = IngestPass::new(&cfg, &seeds);
        let mut rel = ReliabilityStats::new();
        let batches: Vec<UploadBatch> = (0..8)
            .map(|v| batch(v, 0, SimTime::from_secs(1), 2))
            .collect();
        pass.barrier(
            batches,
            SimDuration::from_millis(500),
            SimTime::ZERO + SimDuration::from_millis(1500),
            0,
            None,
            &mut rel,
            None,
        );
        let m = pass.finish();
        assert_eq!(m.batches_sent, 8);
        assert_eq!(m.records_written, 8 * 24);
        assert_eq!(m.deadline_misses, 0);
        assert_eq!(m.backlog_records, 0);
        assert_eq!(m.uplink_ms.count(), 8);
        assert!(m.storage_rho.max() < 1.0, "light load stays subcritical");
    }

    #[test]
    fn collector_outage_walks_retry_then_cache() {
        let cfg = ingest_cfg().with_collector_outage(0, SimTime::ZERO, SimDuration::from_secs(60));
        let inj = cfg.chaos.clone().unwrap().compile();
        let seeds = SeedFactory::new(7);
        let mut pass = IngestPass::new(&cfg, &seeds);
        let mut rel = ReliabilityStats::new();
        let epoch = SimDuration::from_millis(500);
        let mut sent = vec![batch(
            1,
            0,
            SimTime::ZERO + SimDuration::from_millis(200),
            2,
        )];
        for k in 0..60u64 {
            let end = SimTime::ZERO + epoch * (k + 1);
            pass.barrier(
                std::mem::take(&mut sent),
                epoch,
                end,
                k,
                Some(&inj),
                &mut rel,
                None,
            );
        }
        let m = pass.finish();
        assert!(
            m.outage_bounces > 0,
            "offers bounced off the dead collector"
        );
        assert!(m.retries > 0, "rung 1 scheduled seeded-backoff retries");
        assert!(m.deferrals > 0, "rung 2 parked the batch in the cache");
        assert_eq!(m.records_written, 0, "nothing reaches storage");
        assert!(
            m.cache_evictions > 0,
            "a 60 s outage outlives the 20 s cache TTL"
        );
        assert!(rel.cache_ttl_eviction_count() > 0);
    }

    #[test]
    fn full_queue_backpressure_prefers_shedding_low_priority() {
        let mut cfg = ingest_cfg();
        {
            let ing = cfg.ingest.as_mut().unwrap();
            ing.collector_queue_records = 24; // one batch
            ing.cache_mem_records = 24; // one cached batch per vehicle
            ing.cache_disk_records = 0;
            ing.max_upload_attempts = 1; // ladder skips straight to rung 2
            ing.storage_records_per_sec = 0.1; // storage can't drain
        }
        let seeds = SeedFactory::new(7);
        let mut pass = IngestPass::new(&cfg, &seeds);
        let mut rel = ReliabilityStats::new();
        let t = SimTime::ZERO + SimDuration::from_millis(100);
        let batches = vec![
            batch(5, 0, t, 3), // fills the queue
            // Another vehicle's low-priority batch, deferred into its own
            // cache — and the fleet's oldest lowest-priority cached batch.
            batch(9, 0, t + SimDuration::from_micros(500), 0),
            batch(5, 1, t + SimDuration::from_millis(1), 0), // deferred (low prio)
            batch(5, 2, t + SimDuration::from_millis(2), 3), // sheds the cached 0
        ];
        pass.barrier(
            batches,
            SimDuration::from_millis(500),
            SimTime::ZERO + SimDuration::from_millis(500),
            0,
            None,
            &mut rel,
            None,
        );
        let m = &pass.metrics;
        assert_eq!(m.queue_bounces, 3);
        assert_eq!(m.records_shed, 24, "exactly the low-priority batch shed");
        assert!(m.deadline_misses >= 1);
        // The surviving cached batch is the high-priority newcomer.
        let own = &pass.vehicles[5];
        assert_eq!(own.cached.len(), 1);
        assert_eq!(own.cached[0].batch.priority, 3);
        assert_eq!(own.cached[0].batch.seq, 2);
        assert_eq!(own.mem_used, 24);
        // Only the crossing vehicle's own cache may be shed.
        let other = &pass.vehicles[9];
        assert_eq!(other.cached.len(), 1);
        assert_eq!(other.cached[0].batch.priority, 0);
        assert_eq!(other.mem_used, 24);
    }

    #[test]
    fn readdress_moves_only_the_crossers_batches() {
        let cfg = ingest_cfg();
        let mut pass = IngestPass::new(&cfg, &SeedFactory::new(7));
        let t = SimTime::from_secs(1);
        for vehicle in [3u64, 4, 5] {
            let slot = &mut pass.vehicles[vehicle as usize];
            for seq in 0..2 {
                slot.pending.push(Pending {
                    due: t,
                    attempts: 1,
                    expires: None,
                    batch: batch(vehicle, seq, t, 2),
                });
            }
            for seq in 2..5 {
                slot.cached.push(Cached {
                    expires: t + SimDuration::from_secs(20),
                    attempts: 1,
                    disk: seq == 4,
                    batch: batch(vehicle, seq, t, 2),
                });
            }
        }
        let regions = |pass: &IngestPass, vehicle: usize| -> Vec<u32> {
            let slot = &pass.vehicles[vehicle];
            let pending = slot.pending.iter().map(|p| p.batch.region);
            pending
                .chain(slot.cached.iter().map(|c| c.batch.region))
                .collect()
        };

        assert_eq!(pass.readdress(4, 6), 5, "two retries and three cached");
        assert_eq!(regions(&pass, 4), vec![6; 5]);
        for other in [3, 5] {
            assert_eq!(regions(&pass, other), vec![0; 5], "vehicle {other} moved");
        }
        assert_eq!(pass.readdress(4, 6), 0, "same-region re-address");
        assert_eq!(pass.readdress(0, 6), 0, "a vehicle with nothing in flight");
    }

    #[test]
    fn storage_brownout_backs_queues_up_and_raises_rho() {
        let run = |brown: bool| {
            let mut cfg = ingest_cfg();
            cfg.ingest.as_mut().unwrap().storage_records_per_sec = 200.0;
            if brown {
                cfg = cfg.with_storage_brownout(0.05, SimTime::ZERO, SimDuration::from_secs(60));
            }
            let inj = cfg.chaos.clone().map(|p| p.compile());
            let seeds = SeedFactory::new(7);
            let mut pass = IngestPass::new(&cfg, &seeds);
            let mut rel = ReliabilityStats::new();
            let epoch = SimDuration::from_millis(500);
            for k in 0..10u64 {
                let end = SimTime::ZERO + epoch * (k + 1);
                let sent: Vec<UploadBatch> = (0..4)
                    .map(|v| batch(v, k as u32, end - SimDuration::from_millis(100), 2))
                    .collect();
                pass.barrier(sent, epoch, end, k, inj.as_ref(), &mut rel, None);
            }
            pass.finish()
        };
        let nominal = run(false);
        let browned = run(true);
        assert!(browned.storage_rho.max() > nominal.storage_rho.max());
        assert!(browned.records_written < nominal.records_written);
        assert!(
            browned.backlog_records > 0 || browned.deadline_misses > nominal.deadline_misses,
            "brownout must leave visible pressure"
        );
    }

    #[test]
    fn metrics_merge_is_additive() {
        let mut a = IngestMetrics::new();
        a.batches_sent = 3;
        a.records_shed = 24;
        a.storage_rho.record(0.5);
        let mut b = IngestMetrics::new();
        b.batches_sent = 2;
        b.deadline_misses = 1;
        b.storage_rho.record(1.5);
        a.merge(&b);
        assert_eq!(a.batches_sent, 5);
        assert_eq!(a.deadline_misses, 1);
        assert_eq!(a.records_shed, 24);
        assert_eq!(a.storage_rho.count(), 2);
        assert!((a.deadline_miss_rate() - 0.2).abs() < 1e-12);
    }
}
