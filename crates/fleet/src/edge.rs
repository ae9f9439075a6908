//! The shared XEdge deployment served at epoch barriers.
//!
//! All cross-vehicle coupling funnels through this single-threaded
//! server: at each barrier the engine hands it the canonical-sorted
//! global batch of requests, and the server applies per-tenant admission
//! control, per-(tenant, class) deficit round-robin fair queueing, a
//! load-dependent service time (the [`ContentionModel`] priced per
//! class), and per-region LTE bandwidth sharing. Because serving
//! consumes only globally-determined data in a canonical order, its
//! outputs are independent of the executor's width and chunk size.
//!
//! ## Workload classes
//!
//! Every request carries a [`WorkloadClass`], and every stage of the
//! serving pass reads the class's [`ClassSpec`]: bytes on the wire,
//! work units charged in the fair queue (against a per-class quantum),
//! base service time (each class's queued share contributes its own
//! fraction to the contention load), deadline budget, and what rung 3
//! of the degradation ladder means for it.
//!
//! ## Elastic lane scaling
//!
//! When the config carries a [`vdap_edgeos::LanePolicy`], a
//! [`LaneScaler`] resizes the lane pool and the per-tenant admission
//! caps from the queue depth observed at the *previous* barrier —
//! observe at barrier `k`, actuate at barrier `k + 1`. Decisions are
//! integer functions of (lane count, queue depth), both of which are
//! globally determined, so elasticity composes with the byte-identity
//! invariant across executor shapes. Grown lanes join round-robin
//! (`node = index % edge_nodes`, preserving the homing rule); shrinks
//! remove only *idle* tail lanes and never drop a node's last lane, so
//! a busy pool defers its shrink to a later barrier instead of
//! cancelling in-flight work.
//!
//! ## Lane pick
//!
//! Every admitted request books the earliest-free lane of its target
//! node, lowest lane index on ties. The serving pass keeps a per-node
//! min-heap keyed `(free, lane index)` (`LaneHeap`), built once per
//! pass after the node refresh and the elastic step, so a pick costs
//! O(log lanes) instead of a scan over the whole pool — and, being keyed
//! on exactly the scan's order, picks the same lane.
//!
//! ## Edge-tier chaos and the degradation ladder
//!
//! The lane pool is partitioned across `edge_nodes` physical XEdge
//! nodes; each region is homed on node `region % edge_nodes`. Fault
//! state ([`vdap_fault::FaultKind::EdgeNodeCrash`],
//! [`vdap_fault::FaultKind::TenantQuotaFlap`],
//! [`vdap_fault::FaultKind::RegionHandoffStorm`]) is sampled only at
//! epoch barriers — the injector is a pure function of time — so chaos
//! lives entirely in this deterministic serving pass.
//!
//! A request hitting a fault walks a graceful-degradation ladder:
//!
//! 1. **Deadline-aware retry** ([`vdap_fault::retry_until_deadline`]):
//!    probe the crashed home node once per epoch until the request's
//!    *class* deadline budget runs out (a pBEAM round can ride out a
//!    crash a pedestrian-alert frame cannot).
//! 2. **Neighbor-region handoff**: re-register through the nearest
//!    region whose home node is healthy, paying the mobility handoff
//!    cost from [`vdap_net::CellularChannel`].
//! 3. **Local degraded execution, per class**: detection re-runs on the
//!    VCU at reduced accuracy, infotainment falls back to a lower-
//!    bitrate on-board decode (both charge degraded-mode seconds to the
//!    tenant), and a pBEAM training round is *skipped* — the vehicle
//!    pays only the re-planning penalty and training converges a round
//!    later.
//!
//! A node that crashes more than [`vdap_edgeos::CrashLoopPolicy`]
//! allows inside its window is declared crash-looping and stays down
//! for the rest of the run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use vdap_edgeos::{
    ClassQueueKey, CrashLoopPolicy, FairQueue, LaneDecision, LaneScaler, TenantAdmission, TenantId,
    WorkloadClass,
};
use vdap_fault::{retry_until_deadline, AttemptOutcome, FaultInjector, RetryPolicy};
use vdap_net::{CellularChannel, Direction, LinkSpec, Mph};
use vdap_offload::ContentionModel;
use vdap_sim::{RngStream, SimDuration, SimTime};

use crate::config::{
    edge_node_label, handoff_label, region_label, tenant_label, ClassSpec, FleetConfig,
};
use crate::vehicle::{DEGRADED_BOARD_W, RADIO_W, SPEED_MPH};

/// One vehicle request bound for the shared edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EdgeRequest {
    pub vehicle: u32,
    pub seq: u32,
    pub tenant: u32,
    pub region: u32,
    pub class: WorkloadClass,
    pub arrival: SimTime,
    /// Serving attempts so far (0 = never assigned a lane). Bumped when
    /// a node crash re-queues the request.
    pub attempts: u32,
    /// Mobility handoff debt the vehicle accrued at region crossings
    /// since its last request, charged as extra latency and radio
    /// energy when this request is served (zero with mobility off).
    pub handoff: SimDuration,
}

/// A request the edge finished serving, with vehicle-side accounting
/// and the lifecycle stamps telemetry spans are built from.
#[derive(Debug, Clone)]
pub(crate) struct ServedRequest {
    pub vehicle: u32,
    pub seq: u32,
    pub tenant: u32,
    pub region: u32,
    pub class: WorkloadClass,
    /// Work units charged in the fair queue (the tenant ledger entry).
    pub work: u64,
    pub arrival: SimTime,
    /// The barrier whose serving pass placed the request (admit stamp).
    pub admitted: SimTime,
    /// When the request began occupying a lane (or the reconstructed
    /// start of a successful rung-1 retry).
    pub serve_start: SimTime,
    pub e2e: SimDuration,
    pub energy_j: f64,
    /// Rung-1 retry probes spent before this request was served.
    pub retries: u32,
    /// Times the request was re-queued off a crashed lane.
    pub requeues: u32,
    /// Whether rung 2 served it through a neighbor region's node.
    pub handoff: bool,
}

/// A request bounced at the admission gate under nominal quotas (its
/// uplink time was already spent discovering that).
#[derive(Debug, Clone)]
pub(crate) struct RejectedRequest {
    pub vehicle: u32,
    pub seq: u32,
    pub tenant: u32,
    pub region: u32,
    pub class: WorkloadClass,
    pub arrival: SimTime,
    pub uplink: SimDuration,
}

/// A request that fell to the bottom ladder rung. What that means is
/// class-specific: degraded on-VCU execution for detection, a lower-
/// bitrate local decode for infotainment, a skipped round for pBEAM
/// training (`degraded` is zero and the round simply doesn't happen).
#[derive(Debug, Clone)]
pub(crate) struct LocalFallback {
    pub vehicle: u32,
    pub seq: u32,
    pub tenant: u32,
    pub region: u32,
    pub class: WorkloadClass,
    pub arrival: SimTime,
    /// The barrier (or run horizon) at which the ladder resolved it.
    pub decided: SimTime,
    pub e2e: SimDuration,
    pub energy_j: f64,
    /// Degraded-mode serving time charged to the tenant.
    pub degraded: SimDuration,
    /// Rung-1 retry probes spent before falling through.
    pub retries: u32,
    /// Times the request was re-queued off a crashed lane.
    pub requeues: u32,
}

/// What one barrier's serving pass produced.
#[derive(Debug, Default)]
pub(crate) struct EpochOutcome {
    pub served: Vec<ServedRequest>,
    pub rejected: Vec<RejectedRequest>,
    pub local_fallbacks: Vec<LocalFallback>,
    pub queue_depth: usize,
    /// Lane-pool size after this barrier's elastic step.
    pub lanes: u32,
    /// Whether the elastic step grew the pool at this barrier.
    pub scaled_up: bool,
    /// Whether the elastic step shrank the pool at this barrier.
    pub scaled_down: bool,
    /// In-flight requests re-queued off crashed lanes this barrier.
    pub requeued: u64,
    /// Retry attempts spent on ladder rung 1.
    pub retry_attempts: u64,
    /// Requests rescued by rung-1 retry (sub-count of `served`).
    pub retry_rescued: u64,
    /// Rung-1 retries that exhausted their deadline budget.
    pub retry_exhausted: u64,
    /// Requests served through a neighbor region's node (rung 2,
    /// sub-count of `served`).
    pub handoffs: u64,
}

/// One lane of one physical XEdge node.
#[derive(Debug, Clone)]
struct Lane {
    node: u32,
    free: SimTime,
}

/// Per-node min-heaps of `(free, lane index)` over the lane pool.
///
/// A node's top is exactly the lane a linear scan would pick — earliest
/// free, lowest index on ties — and booking it re-keys the top in
/// place. The heaps mirror `XEdgeServer::lanes` only inside a serving
/// pass: [`LaneHeap::rebuild`] runs after every change to the pool that
/// does not go through [`LaneHeap::rebook`].
#[derive(Debug, Default)]
struct LaneHeap {
    by_node: Vec<BinaryHeap<Reverse<(SimTime, usize)>>>,
}

impl LaneHeap {
    /// Rebuilds every node's heap from the pool, reusing allocations.
    fn rebuild(&mut self, lanes: &[Lane], nodes: u32) {
        self.by_node.resize_with(nodes as usize, BinaryHeap::new);
        for heap in &mut self.by_node {
            heap.clear();
        }
        for (i, lane) in lanes.iter().enumerate() {
            self.by_node[lane.node as usize].push(Reverse((lane.free, i)));
        }
    }

    /// `node`'s earliest-free lane and its free time (lowest index
    /// breaks ties).
    fn best(&self, node: u32) -> (usize, SimTime) {
        let Reverse((free, lane)) = *self.by_node[node as usize]
            .peek()
            .expect("every node owns at least one lane");
        (lane, free)
    }

    /// Books `node`'s best lane until `free`.
    fn rebook(&mut self, node: u32, free: SimTime) {
        let mut top = self.by_node[node as usize]
            .peek_mut()
            .expect("every node owns at least one lane");
        top.0 .0 = free;
    }
}

/// A request occupying a lane until `finish`.
#[derive(Debug, Clone)]
struct InFlight {
    finish: SimTime,
    node: u32,
    served: ServedRequest,
    req: EdgeRequest,
}

/// The shared multi-tenant XEdge deployment.
#[derive(Debug)]
pub(crate) struct XEdgeServer {
    /// Lanes persist across epochs so backlog carries over; lane `i`
    /// belongs to node `i % edge_nodes` (grown lanes keep the rule by
    /// joining round-robin).
    lanes: Vec<Lane>,
    /// The lane pick's per-node heaps, rebuilt each serving pass.
    lane_heap: LaneHeap,
    /// Requests currently occupying lanes, completion-pending.
    in_flight: Vec<InFlight>,
    /// Requests stripped off crashed lanes, awaiting the next pass.
    requeued: Vec<EdgeRequest>,
    /// Whether each node was down at the previous barrier.
    node_down: Vec<bool>,
    /// Barrier instants at which each node crashed (windowed).
    crash_history: Vec<Vec<SimTime>>,
    /// Nodes declared crash-looping: down for the rest of the run.
    crash_looped: Vec<bool>,
    crash_policy: CrashLoopPolicy,
    contention: ContentionModel,
    admission: TenantAdmission,
    /// Per-region admission gates, `Some` iff geo-mobility is on: a
    /// request admits through its *current* region's gate and crossings
    /// re-register the vehicle's tenant at the destination, so rush-hour
    /// convergence on downtown regions produces organic admission
    /// pressure with zero injected faults. `None` keeps the single
    /// global gate and byte-identical legacy behavior.
    region_admission: Option<Vec<TenantAdmission>>,
    lte: LinkSpec,
    /// Per-handoff connectivity gap at fleet cruising speed.
    handoff_cost: SimDuration,
    epoch: SimDuration,
    /// Per-class cost models, indexed by [`WorkloadClass::index`].
    classes: [ClassSpec; 3],
    /// Pre-built (flow key, quantum) table applied to each epoch's
    /// fair queue (only classes with a non-zero weight serve).
    class_quanta: Vec<(ClassQueueKey, u64)>,
    /// Elastic lane controller; `None` keeps the pool statically sized.
    scaler: Option<LaneScaler>,
    /// Queue depth observed at the previous barrier (the elastic
    /// controller's input — observe at `k`, actuate at `k + 1`).
    last_depth: usize,
    nominal_lanes: u32,
    edge_nodes: u32,
    regions: u32,
    tenants: u32,
    nominal_cap: usize,
    failover_penalty: SimDuration,
    /// Cached fault-target labels, indexed by id.
    node_labels: Vec<String>,
    region_labels: Vec<String>,
    handoff_labels: Vec<String>,
    tenant_labels: Vec<String>,
}

impl XEdgeServer {
    pub fn new(cfg: &FleetConfig) -> Self {
        let nodes = cfg.edge_nodes.max(1);
        let capacity = cfg.edge_capacity.max(1);
        let lanes = (0..capacity)
            .map(|i| Lane {
                node: i % nodes,
                free: SimTime::ZERO,
            })
            .collect();
        let mut class_quanta = Vec::new();
        for t in 0..cfg.tenants {
            for class in WorkloadClass::ALL {
                let spec = cfg.class(class);
                if spec.weight > 0 && spec.drr_quantum > 0 {
                    class_quanta.push((
                        ClassQueueKey::new(TenantId::new(t), class),
                        spec.drr_quantum,
                    ));
                }
            }
        }
        XEdgeServer {
            lanes,
            lane_heap: LaneHeap::default(),
            in_flight: Vec::new(),
            requeued: Vec::new(),
            node_down: vec![false; nodes as usize],
            crash_history: vec![Vec::new(); nodes as usize],
            crash_looped: vec![false; nodes as usize],
            crash_policy: CrashLoopPolicy::new(SimDuration::from_secs(30), 3),
            contention: ContentionModel::new(capacity),
            admission: TenantAdmission::new(cfg.tenant_queue_cap),
            region_admission: cfg.mobility.as_ref().map(|_| {
                let mut gates: Vec<TenantAdmission> = (0..cfg.regions)
                    .map(|_| TenantAdmission::new(cfg.tenant_queue_cap))
                    .collect();
                for id in 0..cfg.vehicles {
                    gates[cfg.region_of(id) as usize].register(TenantId::new(cfg.tenant_of(id)));
                }
                gates
            }),
            lte: LinkSpec::lte(),
            handoff_cost: CellularChannel::calibrated().handoff_cost(Mph(SPEED_MPH)),
            epoch: cfg.epoch,
            classes: cfg.classes.clone(),
            class_quanta,
            scaler: cfg.elastic.map(LaneScaler::new),
            last_depth: 0,
            nominal_lanes: capacity,
            edge_nodes: nodes,
            regions: cfg.regions,
            tenants: cfg.tenants,
            nominal_cap: cfg.tenant_queue_cap,
            failover_penalty: cfg.failover_penalty,
            node_labels: (0..nodes).map(edge_node_label).collect(),
            region_labels: (0..cfg.regions).map(region_label).collect(),
            handoff_labels: (0..cfg.regions).map(handoff_label).collect(),
            tenant_labels: (0..cfg.tenants).map(tenant_label).collect(),
        }
    }

    /// Requests offered to the admission gate(s) so far.
    pub fn offered(&self) -> u64 {
        match &self.region_admission {
            Some(gates) => gates.iter().map(|g| g.admitted() + g.rejected()).sum(),
            None => self.admission.admitted() + self.admission.rejected(),
        }
    }

    /// Requests rejected by the admission gate(s) so far.
    pub fn rejected(&self) -> u64 {
        match &self.region_admission {
            Some(gates) => gates.iter().map(TenantAdmission::rejected).sum(),
            None => self.admission.rejected(),
        }
    }

    /// Re-registers a migrating vehicle's tenant: deregistered at the
    /// source region's gate, registered at the destination's. No-op
    /// with mobility off.
    pub fn reregister(&mut self, tenant: u32, from: u32, to: u32) {
        if let Some(gates) = &mut self.region_admission {
            let t = TenantId::new(tenant);
            gates[from as usize].deregister(t);
            gates[to as usize].register(t);
        }
    }

    /// Vehicles registered with `region`'s gate across all tenants
    /// (`None` with mobility off).
    pub fn region_registered(&self, region: u32) -> Option<u32> {
        self.region_admission
            .as_ref()
            .map(|g| g[region as usize].registered_total())
    }

    /// Admission counters `(offered, rejected)` for one region's gate
    /// (`None` with mobility off).
    pub fn region_admission_stats(&self, region: u32) -> Option<(u64, u64)> {
        self.region_admission.as_ref().map(|g| {
            let gate = &g[region as usize];
            (gate.admitted() + gate.rejected(), gate.rejected())
        })
    }

    /// The per-region admission table for the run report: one
    /// [`RegionAdmission`] per region (`None` with mobility off).
    pub fn region_admission_table(&self) -> Option<Vec<crate::metrics::RegionAdmission>> {
        let gates = self.region_admission.as_ref()?;
        Some(
            (0..gates.len() as u32)
                .map(|r| crate::metrics::RegionAdmission {
                    registered: self.region_registered(r).expect("gates present"),
                    offered: self.region_admission_stats(r).expect("gates present").0,
                    rejected: self.region_admission_stats(r).expect("gates present").1,
                })
                .collect(),
        )
    }

    /// The physical node serving `region`'s traffic.
    fn home_node(&self, region: u32) -> u32 {
        region % self.edge_nodes
    }

    /// Whether `node` is unusable at `barrier` (crashed or looping).
    fn node_unavailable(
        &self,
        injector: Option<&FaultInjector>,
        node: u32,
        barrier: SimTime,
    ) -> bool {
        self.crash_looped[node as usize]
            || injector.is_some_and(|inj| inj.is_down(&self.node_labels[node as usize], barrier))
    }

    /// The per-vehicle share of a region's LTE cell given the average
    /// uplink concurrency (in transfer-seconds) this epoch's batch
    /// implies for the region.
    fn region_link(&self, uplink_secs: f64) -> LinkSpec {
        let concurrency = (uplink_secs / self.epoch.as_secs_f64()).ceil();
        self.lte.shared_among(concurrency.max(1.0) as u32)
    }

    /// Runs the elastic step at `barrier`: one [`LaneScaler`] decision
    /// from the previous barrier's queue depth, applied to the lane
    /// pool, the contention capacity, and the per-tenant admission cap.
    /// Records what happened into `outcome`.
    fn scale_capacity(&mut self, barrier: SimTime, outcome: &mut EpochOutcome) {
        let Some(mut scaler) = self.scaler.take() else {
            return;
        };
        let decision = scaler.decide(self.lanes.len() as u32, self.last_depth);
        // Never drop below one lane per node: the homing rule (and
        // the lane pick) requires every node to keep a lane.
        let target = decision.lanes().max(self.edge_nodes) as usize;
        match decision {
            LaneDecision::Grow(_) => {
                while self.lanes.len() < target {
                    let node = (self.lanes.len() as u32) % self.edge_nodes;
                    self.lanes.push(Lane {
                        node,
                        free: barrier,
                    });
                }
                outcome.scaled_up = true;
            }
            LaneDecision::Shrink(_) => {
                // Remove idle tail lanes only; a busy tail defers the
                // shrink to a later barrier rather than cancelling
                // in-flight work.
                let mut removed = false;
                while self.lanes.len() > target
                    && self.lanes.last().is_some_and(|l| l.free <= barrier)
                {
                    self.lanes.pop();
                    removed = true;
                }
                outcome.scaled_down = removed;
            }
            LaneDecision::Hold(_) => {}
        }
        let lanes = self.lanes.len() as u32;
        self.contention = self.contention.resized(lanes);
        let cap = scaler.tenant_cap(self.nominal_cap, self.nominal_lanes, lanes);
        self.admission.set_queue_cap(cap);
        if let Some(gates) = &mut self.region_admission {
            for gate in gates {
                gate.set_queue_cap(cap);
            }
        }
        self.scaler = Some(scaler);
    }

    /// Refreshes node health at `barrier`: detects up→down edges,
    /// strips in-flight work off crashed lanes into the requeue buffer,
    /// and applies the crash-loop policy.
    fn refresh_nodes(&mut self, injector: Option<&FaultInjector>, barrier: SimTime) -> u64 {
        let mut requeued = 0u64;
        for node in 0..self.edge_nodes {
            let idx = node as usize;
            let down = self.node_unavailable(injector, node, barrier);
            if down && !self.node_down[idx] {
                // Fresh crash at this barrier: in-flight work on the
                // node's lanes is lost and must be re-queued; the lane
                // pool restarts cold on recovery.
                let lost = |inf: &mut InFlight| inf.node == node && inf.finish > barrier;
                for inf in self.in_flight.extract_if(.., lost) {
                    let mut req = inf.req;
                    req.attempts += 1;
                    requeued += 1;
                    self.requeued.push(req);
                }
                for lane in self.lanes.iter_mut().filter(|l| l.node == node) {
                    lane.free = barrier;
                }
                if !self.crash_looped[idx] {
                    let (_, looping) = self
                        .crash_policy
                        .observe(&mut self.crash_history[idx], barrier);
                    if looping {
                        self.crash_looped[idx] = true;
                    }
                }
            }
            self.node_down[idx] = down;
        }
        requeued
    }

    /// Pops completions (`finish <= barrier`) into `outcome.served`.
    /// Extracts in place, so the survivors keep their order and the
    /// vector keeps its allocation.
    fn emit_completions(&mut self, barrier: SimTime, outcome: &mut EpochOutcome) {
        let done = self.in_flight.extract_if(.., |inf| inf.finish <= barrier);
        outcome.served.extend(done.map(|inf| inf.served));
    }

    /// Syncs per-tenant admission caps with the quota-flap state at
    /// `barrier`: an active flap shrinks the cap to
    /// `max(1, floor(current × factor))` of the (possibly elastically
    /// scaled) base cap.
    fn refresh_quotas(&mut self, injector: Option<&FaultInjector>, barrier: SimTime) {
        let Some(inj) = injector else { return };
        let base_cap = self.admission.queue_cap();
        for t in 0..self.tenants {
            let factor = inj.quota_factor(&self.tenant_labels[t as usize], barrier);
            let tenant = TenantId::new(t);
            let flap_cap =
                (factor < 1.0).then(|| ((base_cap as f64 * factor).floor() as usize).max(1));
            // The global gate mirrors the override even under mobility
            // so `tenant_flapped` has one place to look.
            match flap_cap {
                Some(cap) => self.admission.set_cap_override(tenant, cap),
                None => self.admission.clear_cap_override(tenant),
            }
            if let Some(gates) = &mut self.region_admission {
                for gate in gates.iter_mut() {
                    match flap_cap {
                        Some(cap) => gate.set_cap_override(tenant, cap),
                        None => gate.clear_cap_override(tenant),
                    }
                }
            }
        }
    }

    /// Whether `tenant`'s quota is currently flapped (a cap override is
    /// in force — the elastic base cap is not a flap).
    fn tenant_flapped(&self, tenant: u32) -> bool {
        let t = TenantId::new(tenant);
        self.admission.effective_cap(t) != self.admission.queue_cap()
    }

    /// Rung 3, per class: degraded on-VCU execution for detection, a
    /// lower-bitrate local decode for infotainment, a *skipped round*
    /// for pBEAM training (only the re-planning penalty is paid; no
    /// degraded seconds accrue, the round just doesn't happen).
    fn local_fallback(&self, req: &EdgeRequest, decided: SimTime, retries: u32) -> LocalFallback {
        let spec = &self.classes[req.class.index()];
        let (e2e, energy_j, degraded) = match req.class {
            WorkloadClass::PbeamTraining => (self.failover_penalty, 0.0, SimDuration::ZERO),
            _ => {
                let service = spec.vehicle_service.mul_f64(spec.degraded_service_factor);
                (
                    self.failover_penalty + service,
                    service.as_secs_f64() * DEGRADED_BOARD_W,
                    service,
                )
            }
        };
        LocalFallback {
            vehicle: req.vehicle,
            seq: req.seq,
            tenant: req.tenant,
            region: req.region,
            class: req.class,
            arrival: req.arrival,
            decided,
            e2e: e2e + req.handoff,
            energy_j: energy_j + req.handoff.as_secs_f64() * RADIO_W,
            degraded,
            retries,
            requeues: req.attempts,
        }
    }

    /// Rung 1: probe the crashed home node once per epoch under the
    /// request's remaining *class* deadline budget. Returns the rescued
    /// [`ServedRequest`] and the attempt count, or the attempts spent
    /// when the budget ran dry.
    #[allow(clippy::too_many_arguments)]
    fn retry_rescue(
        &self,
        injector: &FaultInjector,
        req: &EdgeRequest,
        node: u32,
        barrier: SimTime,
        up: SimDuration,
        down: SimDuration,
        service: SimDuration,
        rng: &mut RngStream,
    ) -> Result<(ServedRequest, u32), u32> {
        let spec = &self.classes[req.class.index()];
        let elapsed = barrier.duration_since(req.arrival);
        if elapsed >= spec.deadline {
            return Err(0);
        }
        let budget = spec.deadline - elapsed;
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: self.epoch,
            backoff_factor: 1.0,
            jitter: 0.0,
            attempt_timeout: None,
        };
        let label = &self.node_labels[node as usize];
        let report = retry_until_deadline(&policy, barrier, budget, rng, |_, at| {
            if self.crash_looped[node as usize] || injector.is_down(label, at) {
                // The probe burns an epoch discovering the node is
                // still gone.
                AttemptOutcome::Failure(self.epoch)
            } else {
                AttemptOutcome::Success(up + service + down)
            }
        });
        if report.succeeded() {
            let e2e = report.finished_at.duration_since(req.arrival) + req.handoff;
            let energy_j =
                (up.as_secs_f64() + down.as_secs_f64() + req.handoff.as_secs_f64()) * RADIO_W;
            Ok((
                ServedRequest {
                    vehicle: req.vehicle,
                    seq: req.seq,
                    tenant: req.tenant,
                    region: req.region,
                    class: req.class,
                    work: spec.work_units,
                    arrival: req.arrival,
                    admitted: barrier,
                    // The successful probe finished at `finished_at`;
                    // service began one downlink + service time before.
                    serve_start: report.finished_at - (service + down),
                    e2e,
                    energy_j,
                    retries: report.attempts,
                    requeues: req.attempts,
                    handoff: false,
                },
                report.attempts,
            ))
        } else {
            Err(report.attempts)
        }
    }

    /// Rung 2: the nearest region whose home node is healthy and whose
    /// cell is neither storming nor in LTE outage at `barrier`.
    fn failover_region(
        &self,
        injector: Option<&FaultInjector>,
        region: u32,
        barrier: SimTime,
    ) -> Option<u32> {
        // With mobility on, storms price crossings instead of gating
        // the serving path (see `serve_epoch`).
        let storms_gate_serving = self.region_admission.is_none();
        (1..self.regions)
            .map(|d| (region + d) % self.regions)
            .find(|&nr| {
                let node = self.home_node(nr);
                !self.node_unavailable(injector, node, barrier)
                    && !injector.is_some_and(|inj| {
                        (storms_gate_serving
                            && inj.handoff_storm(&self.handoff_labels[nr as usize], barrier))
                            || inj.is_down(&self.region_labels[nr as usize], barrier)
                    })
            })
    }

    /// Assigns `req` to the earliest-free lane of `node`; the request
    /// occupies the lane until `finish` and completes at a later
    /// barrier. `extra_latency` is added to the end-to-end latency
    /// (handoff cost on rung 2). `barrier` stamps the span's admit
    /// time; `retries`/`handoff` record the ladder detours taken before
    /// the lane was found.
    #[allow(clippy::too_many_arguments)]
    fn assign_lane(
        &mut self,
        req: EdgeRequest,
        node: u32,
        up: SimDuration,
        down: SimDuration,
        service: SimDuration,
        extra_latency: SimDuration,
        extra_energy: f64,
        barrier: SimTime,
        retries: u32,
        handoff: bool,
    ) {
        let ready = req.arrival + up + extra_latency;
        let (lane, free) = self.lane_heap.best(node);
        let start = if ready > free { ready } else { free };
        let finish = start + service;
        self.lanes[lane].free = finish;
        self.lane_heap.rebook(node, finish);
        let e2e = finish.duration_since(req.arrival) + down;
        let energy_j = (up.as_secs_f64() + down.as_secs_f64()) * RADIO_W + extra_energy;
        let work = self.classes[req.class.index()].work_units;
        self.in_flight.push(InFlight {
            finish,
            node,
            served: ServedRequest {
                vehicle: req.vehicle,
                seq: req.seq,
                tenant: req.tenant,
                region: req.region,
                class: req.class,
                work,
                arrival: req.arrival,
                admitted: barrier,
                serve_start: start,
                e2e,
                energy_j,
                retries,
                requeues: req.attempts,
                handoff,
            },
            req,
        });
    }

    /// Serves one barrier's batch, draining `batch` (its allocation
    /// stays with the caller for the next epoch). The requests are
    /// sorted canonically here, so the order the engine gathered them
    /// in cannot influence the outcome. `barrier` is the global
    /// epoch-boundary instant — the only time at which fault state and
    /// elastic decisions are sampled — and `rng` is the engine-owned
    /// ladder stream, consumed in canonical order.
    pub fn serve_epoch(
        &mut self,
        batch: &mut Vec<EdgeRequest>,
        barrier: SimTime,
        injector: Option<&FaultInjector>,
        rng: &mut RngStream,
    ) -> EpochOutcome {
        batch.sort_unstable_by_key(|r| (r.arrival, r.vehicle, r.seq));

        let mut outcome = EpochOutcome {
            requeued: self.refresh_nodes(injector, barrier),
            ..EpochOutcome::default()
        };
        self.emit_completions(barrier, &mut outcome);
        self.scale_capacity(barrier, &mut outcome);
        self.refresh_quotas(injector, barrier);
        // The lane pool is final for this pass: only `assign_lane`
        // moves it from here on, and it keeps the heaps in step.
        self.lane_heap.rebuild(&self.lanes, self.edge_nodes);

        // Per-region LTE sharing from this batch's uplink demand
        // (class-sized: a pBEAM gradient weighs more than a detection
        // frame). Summed in canonical batch order.
        let mut region_secs: BTreeMap<u32, f64> = BTreeMap::new();
        for r in batch.iter() {
            let bytes = self.classes[r.class.index()].upload_bytes;
            let t = self.lte.transfer_time(Direction::Uplink, bytes);
            *region_secs.entry(r.region).or_insert(0.0) += t.as_secs_f64();
        }
        let region_links: BTreeMap<u32, LinkSpec> = region_secs
            .iter()
            .map(|(&r, &secs)| (r, self.region_link(secs)))
            .collect();
        let unshared = self.lte.clone();
        let link_for = move |region: u32| -> LinkSpec {
            region_links
                .get(&region)
                .cloned()
                .unwrap_or_else(|| unshared.clone())
        };

        // Admission (arrival order), then per-(tenant, class) DRR fair
        // queueing with class-sized quanta. Requests re-queued off
        // crashed lanes were admitted in an earlier epoch and re-enter
        // the queue without a second admission charge.
        let mut queue: FairQueue<EdgeRequest, ClassQueueKey> =
            FairQueue::new(self.classes[0].drr_quantum.max(1));
        for &(key, quantum) in &self.class_quanta {
            queue.set_quantum(key, quantum);
        }
        let mut queued_by_class = [0u64; 3];
        let mut admitted: Vec<(u32, TenantId)> = Vec::new();
        for req in std::mem::take(&mut self.requeued) {
            let spec = &self.classes[req.class.index()];
            if barrier.duration_since(req.arrival) >= spec.deadline {
                // Too stale to re-serve: straight to the bottom rung.
                outcome
                    .local_fallbacks
                    .push(self.local_fallback(&req, barrier, 0));
            } else {
                let key = ClassQueueKey::new(TenantId::new(req.tenant), req.class);
                queued_by_class[req.class.index()] += 1;
                queue.enqueue(key, spec.work_units, req);
            }
        }
        for req in batch.drain(..) {
            let tenant = TenantId::new(req.tenant);
            // With mobility on, the request admits through its current
            // region's gate — crossings concentrate vehicles, so the
            // destination gate feels the pressure.
            let admit = match &mut self.region_admission {
                Some(gates) => gates[req.region as usize].try_admit(tenant),
                None => self.admission.try_admit(tenant),
            };
            if admit {
                admitted.push((req.region, tenant));
                let spec = &self.classes[req.class.index()];
                queued_by_class[req.class.index()] += 1;
                queue.enqueue(ClassQueueKey::new(tenant, req.class), spec.work_units, req);
            } else if self.tenant_flapped(req.tenant) {
                // Quota flap: a fault, not load — bounced into the
                // degradation ladder's bottom rung.
                outcome
                    .local_fallbacks
                    .push(self.local_fallback(&req, barrier, 0));
            } else {
                let bytes = self.classes[req.class.index()].upload_bytes;
                let uplink = link_for(req.region).transfer_time(Direction::Uplink, bytes);
                outcome.rejected.push(RejectedRequest {
                    vehicle: req.vehicle,
                    seq: req.seq,
                    tenant: req.tenant,
                    region: req.region,
                    class: req.class,
                    arrival: req.arrival,
                    // The vehicle paid its crossing handoff debt before
                    // discovering the rejection.
                    uplink: uplink + req.handoff,
                });
            }
        }
        outcome.queue_depth = queue.len();
        self.last_depth = outcome.queue_depth;

        // Load-dependent service time: each class's queued share
        // contributes its own fractional concurrency
        // (`depth × service / epoch`), the shares sum into one load
        // figure, and the resulting multiplier stretches every class's
        // base service time.
        let implied: f64 = WorkloadClass::ALL
            .iter()
            .map(|c| {
                queued_by_class[c.index()] as f64
                    * self.classes[c.index()].edge_service.as_secs_f64()
            })
            .sum::<f64>()
            / self.epoch.as_secs_f64();
        let multiplier = self.contention.service_multiplier_f64(implied);
        let service_by_class: [SimDuration; 3] = [
            self.classes[0].edge_service.mul_f64(multiplier),
            self.classes[1].edge_service.mul_f64(multiplier),
            self.classes[2].edge_service.mul_f64(multiplier),
        ];

        // Serve in DRR order on the home node's earliest-free lane,
        // walking the degradation ladder when the home path is faulted.
        while let Some((_, req)) = queue.pop() {
            let ci = req.class.index();
            let link = link_for(req.region);
            let up = link.transfer_time(Direction::Uplink, self.classes[ci].upload_bytes);
            let down = link.transfer_time(Direction::Downlink, self.classes[ci].download_bytes);
            let service = service_by_class[ci];
            let home = self.home_node(req.region);
            let home_down = self.node_unavailable(injector, home, barrier);
            // With mobility on, a handoff storm prices the vehicle's
            // *crossings* (the engine's mobility pass multiplies the
            // handoff cost) instead of rerouting the serving path —
            // one accounting path, no double-counted handoff seconds.
            let storming = self.region_admission.is_none()
                && injector.is_some_and(|inj| {
                    inj.handoff_storm(&self.handoff_labels[req.region as usize], barrier)
                });

            if !home_down && !storming {
                let debt = req.handoff;
                let debt_energy = debt.as_secs_f64() * RADIO_W;
                self.assign_lane(
                    req,
                    home,
                    up,
                    down,
                    service,
                    debt,
                    debt_energy,
                    barrier,
                    0,
                    false,
                );
                continue;
            }

            // Rung 1 — deadline-aware retry (crashed home node only;
            // waiting out a handoff storm has unbounded cost).
            let mut retries_spent = 0u32;
            if home_down {
                if let Some(inj) = injector {
                    match self.retry_rescue(inj, &req, home, barrier, up, down, service, rng) {
                        Ok((served, attempts)) => {
                            outcome.retry_attempts += u64::from(attempts);
                            outcome.retry_rescued += 1;
                            outcome.served.push(served);
                            continue;
                        }
                        Err(attempts) => {
                            outcome.retry_attempts += u64::from(attempts);
                            outcome.retry_exhausted += 1;
                            retries_spent = attempts;
                        }
                    }
                }
            }

            // Rung 2 — hand off to the nearest healthy region's node.
            if let Some(neighbor) = self.failover_region(injector, req.region, barrier) {
                let node = self.home_node(neighbor);
                let handoff = self.handoff_cost + req.handoff;
                let handoff_energy = handoff.as_secs_f64() * RADIO_W;
                self.assign_lane(
                    req,
                    node,
                    up,
                    down,
                    service,
                    handoff,
                    handoff_energy,
                    barrier,
                    retries_spent,
                    true,
                );
                outcome.handoffs += 1;
                continue;
            }

            // Rung 3 — class-specific local fallback.
            outcome
                .local_fallbacks
                .push(self.local_fallback(&req, barrier, retries_spent));
        }

        // Served requests leave the admission gate before the next epoch.
        for (region, tenant) in admitted {
            match &mut self.region_admission {
                Some(gates) => gates[region as usize].release(tenant),
                None => self.admission.release(tenant),
            }
        }
        outcome.lanes = self.lanes.len() as u32;
        outcome
    }

    /// Drains everything still pending at the end of the run: in-flight
    /// work completes past the horizon (its latency is already fixed),
    /// and requests stranded in the requeue buffer take the class-
    /// specific local fallback, decided at `horizon`.
    pub fn flush(&mut self, horizon: SimTime) -> EpochOutcome {
        let mut outcome = EpochOutcome {
            lanes: self.lanes.len() as u32,
            ..EpochOutcome::default()
        };
        for inf in self.in_flight.drain(..) {
            outcome.served.push(inf.served);
        }
        for req in std::mem::take(&mut self.requeued) {
            outcome
                .local_fallbacks
                .push(self.local_fallback(&req, horizon, 0));
        }
        outcome
    }
}

// --- snapshot codec --------------------------------------------------

use crate::ckpt::{check_id, check_len, enc_or_null, field, snap_record, Obj};
use vdap_ckpt::json::Value;
use vdap_ckpt::{get, CkptError};

snap_record! { Lane { free, node } }
snap_record! { InFlight { finish, node, req, served } }

impl XEdgeServer {
    /// Serializes everything the serving pass carries across barriers:
    /// the (possibly elastically resized) lane pool, in-flight work,
    /// crash-requeued requests, node health and crash history, the
    /// admission gates, the elastic controller's counters, and the
    /// observe-at-`k`/actuate-at-`k+1` queue-depth latch. The rest of
    /// the server is a pure function of `FleetConfig` and is rebuilt on
    /// restore.
    pub(crate) fn ckpt(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        obj.field("admission", &self.admission);
        obj.field("crash_history", &self.crash_history);
        obj.field("crash_looped", &self.crash_looped);
        obj.field("in_flight", &self.in_flight);
        obj.field("lanes", &self.lanes);
        obj.field("last_depth", &self.last_depth);
        obj.field("node_down", &self.node_down);
        obj.field("region_admission", &self.region_admission);
        obj.field("requeued", &self.requeued);
        enc_or_null(obj.key("scaler"), self.scaler.as_ref(), |s, out| {
            let (ups, downs) = s.counters();
            let mut scaler = Obj::new(out);
            scaler.field("scale_downs", &downs);
            scaler.field("scale_ups", &ups);
            scaler.end();
        });
        obj.end();
    }

    /// Rebuilds the server from config (everything derivable) plus the
    /// serialized cross-barrier state, refusing node, region and tenant
    /// ids the config has no table entry for.
    pub(crate) fn restore_ckpt(cfg: &FleetConfig, v: &Value) -> Result<XEdgeServer, CkptError> {
        let mut edge = XEdgeServer::new(cfg);
        let lanes: Vec<Lane> = field(v, "lanes")?;
        if lanes.is_empty() {
            return Err(CkptError::new("snapshot has an empty lane pool"));
        }
        edge.in_flight = field(v, "in_flight")?;
        edge.requeued = field(v, "requeued")?;
        for lane in &lanes {
            check_id("lane node", lane.node, edge.edge_nodes)?;
        }
        for inf in &edge.in_flight {
            check_id("in-flight node", inf.node, edge.edge_nodes)?;
        }
        for req in edge
            .in_flight
            .iter()
            .map(|inf| &inf.req)
            .chain(&edge.requeued)
        {
            check_id("request region", req.region, cfg.regions)?;
            check_id("request tenant", req.tenant, cfg.tenants)?;
        }
        edge.contention = edge.contention.resized(lanes.len() as u32);
        edge.lanes = lanes;
        let nodes = edge.node_down.len();
        edge.node_down = check_len(field(v, "node_down")?, nodes, "edge nodes")?;
        edge.crash_history = check_len(field(v, "crash_history")?, nodes, "crash histories")?;
        edge.crash_looped = check_len(field(v, "crash_looped")?, nodes, "crash-loop flags")?;
        edge.admission = field(v, "admission")?;
        let gates: Option<Vec<TenantAdmission>> = field(v, "region_admission")?;
        edge.region_admission = match (gates, cfg.mobility.as_ref()) {
            (None, None) => None,
            (Some(gates), Some(_)) => Some(check_len(
                gates,
                cfg.regions as usize,
                "region admission gates",
            )?),
            _ => {
                return Err(CkptError::new(
                    "snapshot and config disagree on per-region admission",
                ))
            }
        };
        edge.scaler = match (get(v, "scaler")?, cfg.elastic) {
            (Value::Null, None) => None,
            (s, Some(policy)) => Some(LaneScaler::from_counters(
                policy,
                field(s, "scale_ups")?,
                field(s, "scale_downs")?,
            )),
            _ => {
                return Err(CkptError::new(
                    "snapshot and config disagree on elastic capacity",
                ))
            }
        };
        edge.last_depth = field(v, "last_depth")?;
        Ok(edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    /// The linear scan the lane heap replaced: `node`'s earliest-free
    /// lane, lowest index on ties.
    fn linear_pick(lanes: &[Lane], node: u32) -> usize {
        lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.node == node)
            .min_by_key(|(i, l)| (l.free, *i))
            .map(|(i, _)| i)
            .expect("every node owns at least one lane")
    }

    /// Sets every lane free at one of four 100 ms grid points from
    /// `base`, so equal free times are common.
    fn scramble(edge: &mut XEdgeServer, rng: &mut RngStream, base: SimTime) {
        for lane in &mut edge.lanes {
            lane.free = base + SimDuration::from_millis(100 * rng.below(4));
        }
    }

    /// Rebuilds the heaps as a serving pass does, then books `rounds`
    /// requests through `assign_lane`, checking that each one lands on
    /// the lane the linear scan picks.
    fn assert_picks_match_scan(
        edge: &mut XEdgeServer,
        rng: &mut RngStream,
        barrier: SimTime,
        rounds: u32,
    ) {
        edge.lane_heap.rebuild(&edge.lanes, edge.edge_nodes);
        for seq in 0..rounds {
            let node = rng.below(u64::from(edge.edge_nodes)) as u32;
            let expected = linear_pick(&edge.lanes, node);
            let before: Vec<SimTime> = edge.lanes.iter().map(|l| l.free).collect();
            // Service times on the same 100 ms grid keep producing ties.
            let service = SimDuration::from_millis(100 * (1 + rng.below(2)));
            let req = EdgeRequest {
                vehicle: seq,
                seq,
                tenant: 0,
                region: node,
                class: WorkloadClass::Detection,
                arrival: barrier,
                attempts: 0,
                handoff: SimDuration::ZERO,
            };
            edge.assign_lane(
                req,
                node,
                SimDuration::ZERO,
                SimDuration::ZERO,
                service,
                SimDuration::ZERO,
                0.0,
                barrier,
                0,
                false,
            );
            let booked: Vec<usize> = (0..before.len())
                .filter(|&i| edge.lanes[i].free != before[i])
                .collect();
            assert_eq!(booked, vec![expected], "node {node}");
        }
    }

    #[test]
    fn lane_heap_picks_what_the_linear_scan_picks() {
        let mut rng = SeedFactory::new(7).stream("lane-pick");
        for (capacity, nodes) in [(1, 1), (4, 4), (12, 3), (97, 5)] {
            let cfg = FleetConfig {
                edge_capacity: capacity,
                edge_nodes: nodes,
                ..FleetConfig::default()
            };
            let mut edge = XEdgeServer::new(&cfg);
            for _ in 0..8 {
                scramble(&mut edge, &mut rng, SimTime::ZERO);
                assert_picks_match_scan(&mut edge, &mut rng, SimTime::ZERO, 64);
            }
        }
    }

    #[test]
    fn lane_heap_tracks_a_pool_grown_then_shrunk_by_the_scaler() {
        let mut rng = SeedFactory::new(11).stream("lane-pick");
        // 16 nominal lanes on 4 nodes, elastic between 8 and 64.
        let cfg = FleetConfig::default().with_elastic_capacity();
        let mut edge = XEdgeServer::new(&cfg);
        let mut barrier = SimTime::ZERO;
        // A deep queue at every barrier grows the pool one lane at a
        // time, round-robin over the nodes.
        for _ in 0..11 {
            barrier += cfg.epoch;
            edge.last_depth = 10_000;
            let mut outcome = EpochOutcome::default();
            edge.scale_capacity(barrier, &mut outcome);
            assert!(outcome.scaled_up);
        }
        assert_eq!(edge.lanes.len(), 27);
        scramble(&mut edge, &mut rng, barrier);
        assert_picks_match_scan(&mut edge, &mut rng, barrier, 200);
        // Far past every booking, each lane is idle, so an empty queue
        // shrinks the pool from its tail.
        barrier += SimDuration::from_secs(600);
        for _ in 0..6 {
            barrier += cfg.epoch;
            edge.last_depth = 0;
            let mut outcome = EpochOutcome::default();
            edge.scale_capacity(barrier, &mut outcome);
            assert!(outcome.scaled_down);
        }
        assert_eq!(edge.lanes.len(), 21);
        scramble(&mut edge, &mut rng, barrier);
        assert_picks_match_scan(&mut edge, &mut rng, barrier, 200);
    }

    #[test]
    fn lane_heap_sees_a_crashed_nodes_lanes_reset_to_the_barrier() {
        let mut rng = SeedFactory::new(13).stream("lane-pick");
        let cfg = FleetConfig::default().with_edge_node_crash(
            1,
            SimTime::from_secs(2),
            SimDuration::from_secs(3),
        );
        let injector = cfg.chaos.as_ref().expect("chaos plan").compile();
        let mut edge = XEdgeServer::new(&cfg);
        // Every lane is booked past the crash barrier; the crash resets
        // node 1's lanes to it, leaving that node's lanes all tied.
        scramble(&mut edge, &mut rng, SimTime::from_secs(5));
        let barrier = SimTime::from_secs(2);
        edge.refresh_nodes(Some(&injector), barrier);
        assert!(edge.node_down[1]);
        assert!(edge
            .lanes
            .iter()
            .filter(|l| l.node == 1)
            .all(|l| l.free == barrier));
        assert_picks_match_scan(&mut edge, &mut rng, barrier, 64);
    }
}
