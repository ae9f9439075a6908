//! The Elastic Management module (§IV-C, Figure 6).
//!
//! "The Elastic Management module can choose an optimal pipeline of a
//! Polymorphic Service to get a smallest end-to-end latency ... or
//! achieve other goals, such as energy efficiency. ... Once the network
//! quality fails to meet the response time requirement, it can
//! dynamically adjust the pipeline ... If the network quality and
//! computation resources cannot support this service, the service will
//! be hung up until meeting requirements again."
//!
//! [`ElasticManager::decide`] estimates every pipeline of a
//! [`PolymorphicService`] against an [`Environment`] snapshot and either
//! selects the best feasible pipeline or hangs the service.

use serde::{Deserialize, Serialize};
use vdap_hw::{ProcessorSpec, VcuBoard};
use vdap_net::{NetTopology, Site};
use vdap_sim::{SimDuration, SimTime, TraceLevel, TraceLog};

use crate::service::{Pipeline, PolymorphicService};

/// Power the vehicle's radio draws while transmitting, watts (energy
/// accounting for offloaded pipelines).
const RADIO_TX_WATTS: f64 = 2.5;

/// What the elastic manager optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Smallest end-to-end latency (the default for driving services).
    MinLatency,
    /// Smallest vehicle-side energy (battery-preserving mode).
    MinVehicleEnergy,
}

/// A point-in-time snapshot of everything pipeline selection needs.
#[derive(Debug)]
pub struct Environment<'a> {
    /// The link fabric.
    pub net: &'a NetTopology,
    /// The vehicle's board (queues included in estimates).
    pub board: &'a VcuBoard,
    /// The XEdge server's processor.
    pub edge: &'a ProcessorSpec,
    /// The cloud server's processor.
    pub cloud: &'a ProcessorSpec,
    /// Service-time multiplier for the shared edge (≥ 1, queueing).
    pub edge_load: f64,
    /// Service-time multiplier for the cloud (≥ 1).
    pub cloud_load: f64,
    /// Current virtual time.
    pub now: SimTime,
}

/// The estimate for one pipeline variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineEstimate {
    /// Variant label.
    pub label: String,
    /// Predicted end-to-end latency (transfers + compute + result
    /// return).
    pub latency: SimDuration,
    /// Predicted vehicle-side energy, joules (on-board compute + radio).
    pub vehicle_energy_j: f64,
    /// Whether the latency meets the service deadline.
    pub feasible: bool,
}

/// The outcome of one elastic-management decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Index of the selected pipeline, `None` when the service was hung.
    pub selected: Option<usize>,
    /// Every pipeline's estimate, in service order.
    pub estimates: Vec<PipelineEstimate>,
}

impl Decision {
    /// The estimate of the selected pipeline.
    #[must_use]
    pub fn selected_estimate(&self) -> Option<&PipelineEstimate> {
        self.selected.and_then(|i| self.estimates.get(i))
    }
}

/// Scaling rules for an elastic XEdge lane pool.
///
/// The Elastic Management module's fleet-tier face: where
/// [`ElasticManager::decide`] picks a pipeline for one service,
/// [`LaneScaler`] sizes the *serving capacity* a whole fleet shares.
/// All thresholds are integers and all decisions are pure functions of
/// `(current lanes, observed queue depth)`, so a scaler driven from
/// deterministic inputs is itself deterministic — the property the
/// fleet engine's executor-shape invariance depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LanePolicy {
    /// Floor on the pool size (never scale below).
    pub min_lanes: u32,
    /// Ceiling on the pool size (never scale above).
    pub max_lanes: u32,
    /// Queued requests per lane above which the pool grows.
    pub scale_up_backlog: u32,
    /// Queued requests per lane below which the pool shrinks.
    pub scale_down_backlog: u32,
    /// Lanes added or removed per decision.
    pub step: u32,
}

impl LanePolicy {
    /// A policy bracketing a nominal pool size: scales between half and
    /// four times `nominal`, one lane per decision, growing when the
    /// backlog exceeds 2 requests per lane and shrinking below 1.
    #[must_use]
    pub fn around(nominal: u32) -> Self {
        let nominal = nominal.max(1);
        LanePolicy {
            min_lanes: (nominal / 2).max(1),
            max_lanes: nominal.saturating_mul(4),
            scale_up_backlog: 2,
            scale_down_backlog: 1,
            step: 1,
        }
    }

    /// Panics unless the thresholds are usable.
    fn validate(&self) {
        assert!(self.min_lanes > 0, "lane floor must be positive");
        assert!(self.max_lanes >= self.min_lanes, "lane ceiling below floor");
        assert!(self.step > 0, "scaling step must be positive");
        assert!(
            self.scale_up_backlog > self.scale_down_backlog,
            "scale-up threshold must exceed scale-down (hysteresis)"
        );
    }
}

/// What one elastic capacity decision did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LaneDecision {
    /// Pool grew to the contained lane count.
    Grow(u32),
    /// Pool shrank to the contained lane count.
    Shrink(u32),
    /// Pool stayed where it was.
    Hold(u32),
}

impl LaneDecision {
    /// The lane count after the decision.
    #[must_use]
    pub fn lanes(self) -> u32 {
        match self {
            LaneDecision::Grow(n) | LaneDecision::Shrink(n) | LaneDecision::Hold(n) => n,
        }
    }
}

/// Deterministic elastic capacity controller for an XEdge lane pool.
///
/// # Examples
///
/// ```
/// use vdap_edgeos::{LaneDecision, LanePolicy, LaneScaler};
///
/// let mut scaler = LaneScaler::new(LanePolicy::around(8));
/// // 40 queued on 8 lanes = 5 per lane: grow.
/// assert_eq!(scaler.decide(8, 40), LaneDecision::Grow(9));
/// // 2 queued on 9 lanes: shrink back toward the floor.
/// assert_eq!(scaler.decide(9, 2), LaneDecision::Shrink(8));
/// // In the hysteresis band: hold.
/// assert_eq!(scaler.decide(8, 12), LaneDecision::Hold(8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneScaler {
    policy: LanePolicy,
    scale_ups: u64,
    scale_downs: u64,
}

impl LaneScaler {
    /// Creates a scaler.
    ///
    /// # Panics
    ///
    /// Panics when the policy's thresholds are unusable (zero floor or
    /// step, ceiling below floor, no hysteresis gap).
    #[must_use]
    pub fn new(policy: LanePolicy) -> Self {
        policy.validate();
        LaneScaler {
            policy,
            scale_ups: 0,
            scale_downs: 0,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &LanePolicy {
        &self.policy
    }

    /// `(scale-ups, scale-downs)` so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.scale_ups, self.scale_downs)
    }

    /// Rebuilds a scaler mid-run from its policy and decision counters
    /// (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics when the policy's thresholds are unusable, exactly like
    /// [`LaneScaler::new`].
    #[must_use]
    pub fn from_counters(policy: LanePolicy, scale_ups: u64, scale_downs: u64) -> Self {
        policy.validate();
        LaneScaler {
            policy,
            scale_ups,
            scale_downs,
        }
    }

    /// Decides the pool size for the next interval from the observed
    /// queue depth. Integer arithmetic only; clamped to
    /// `[min_lanes, max_lanes]`.
    pub fn decide(&mut self, lanes: u32, queue_depth: usize) -> LaneDecision {
        let lanes = lanes.clamp(self.policy.min_lanes, self.policy.max_lanes);
        let depth = u64::try_from(queue_depth).unwrap_or(u64::MAX);
        let grow = depth > u64::from(lanes) * u64::from(self.policy.scale_up_backlog);
        let shrink = depth < u64::from(lanes) * u64::from(self.policy.scale_down_backlog);
        if grow && lanes < self.policy.max_lanes {
            self.scale_ups += 1;
            LaneDecision::Grow((lanes + self.policy.step).min(self.policy.max_lanes))
        } else if shrink && lanes > self.policy.min_lanes {
            self.scale_downs += 1;
            LaneDecision::Shrink(
                lanes
                    .saturating_sub(self.policy.step)
                    .max(self.policy.min_lanes),
            )
        } else {
            LaneDecision::Hold(lanes)
        }
    }

    /// The per-tenant admission cap matching a scaled pool: the nominal
    /// cap grown or shrunk in proportion to the lanes, floored at 1 so
    /// a scaled-down tenant is squeezed, never wedged shut.
    #[must_use]
    pub fn tenant_cap(&self, nominal_cap: usize, nominal_lanes: u32, lanes: u32) -> usize {
        let nominal_lanes = u64::from(nominal_lanes.max(1));
        let scaled = (nominal_cap as u64).saturating_mul(u64::from(lanes)) / nominal_lanes;
        usize::try_from(scaled).unwrap_or(usize::MAX).max(1)
    }
}

/// The elastic manager.
#[derive(Debug, Default)]
pub struct ElasticManager {
    trace: TraceLog,
    decisions: u64,
    hangs: u64,
    switches: u64,
}

impl ElasticManager {
    /// Creates a manager.
    #[must_use]
    pub fn new() -> Self {
        ElasticManager::default()
    }

    /// `(decisions, hangs, pipeline switches)` so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.decisions, self.hangs, self.switches)
    }

    /// The decision trace.
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Estimates one pipeline in an environment.
    #[must_use]
    pub fn estimate(&self, pipeline: &Pipeline, env: &Environment<'_>) -> PipelineEstimate {
        let mut latency = SimDuration::ZERO;
        let mut energy = 0.0;
        let mut data_site = Site::Vehicle; // sensor data originates on board
        for stage in &pipeline.stages {
            // Move the stage input to the stage's site.
            let hop = env
                .net
                .transfer_time(data_site, stage.site, stage.workload.input_bytes());
            latency += hop;
            if data_site == Site::Vehicle && stage.site != Site::Vehicle {
                energy += RADIO_TX_WATTS * hop.as_secs_f64();
            }
            // Compute at the site.
            let compute = match stage.site {
                Site::Vehicle => {
                    match env.board.earliest_finish_slot(env.now, &stage.workload) {
                        Some(slot) => {
                            let unit = &env.board.slot(slot).expect("chosen slot").unit;
                            energy += unit.spec().energy_joules(&stage.workload);
                            unit.estimate_finish(env.now, &stage.workload) - env.now
                        }
                        // Nothing on the board can run it: infeasible.
                        None => SimDuration::MAX,
                    }
                }
                Site::Edge => env
                    .edge
                    .service_time(&stage.workload)
                    .mul_f64(env.edge_load.max(1.0)),
                Site::Cloud => env
                    .cloud
                    .service_time(&stage.workload)
                    .mul_f64(env.cloud_load.max(1.0)),
            };
            latency += compute;
            data_site = stage.site;
        }
        // Results return to the vehicle.
        if let Some(last) = pipeline.stages.last() {
            latency +=
                env.net
                    .transfer_time(data_site, Site::Vehicle, last.workload.output_bytes());
        }
        PipelineEstimate {
            label: pipeline.label.clone(),
            latency,
            vehicle_energy_j: energy,
            feasible: true, // deadline check happens against the service
        }
    }

    /// Estimates every pipeline, selects per the objective, and applies
    /// the result to the service (select or hang).
    pub fn decide(
        &mut self,
        service: &mut PolymorphicService,
        env: &Environment<'_>,
        objective: Objective,
    ) -> Decision {
        self.decisions += 1;
        let deadline = service.deadline();
        let mut estimates: Vec<PipelineEstimate> = service
            .pipelines()
            .iter()
            .map(|p| self.estimate(p, env))
            .collect();
        for e in &mut estimates {
            e.feasible = e.latency <= deadline;
        }
        let previous = service.selected();
        let best = estimates
            .iter()
            .enumerate()
            .filter(|(_, e)| e.feasible)
            .min_by(|(_, a), (_, b)| match objective {
                Objective::MinLatency => a.latency.cmp(&b.latency),
                Objective::MinVehicleEnergy => a
                    .vehicle_energy_j
                    .partial_cmp(&b.vehicle_energy_j)
                    .expect("finite energies"),
            })
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                if previous.is_some() && previous != Some(i) {
                    self.switches += 1;
                }
                service.select(i);
                self.trace.record(
                    env.now,
                    TraceLevel::Info,
                    "edgeos.elastic",
                    format!(
                        "{}: selected '{}' ({})",
                        service.name(),
                        estimates[i].label,
                        estimates[i].latency
                    ),
                );
            }
            None => {
                self.hangs += 1;
                service.hang();
                self.trace.record(
                    env.now,
                    TraceLevel::Warn,
                    "edgeos.elastic",
                    format!("{}: no feasible pipeline, hung", service.name()),
                );
            }
        }
        Decision {
            selected: best,
            estimates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{kidnapper_search, ServiceState};
    use vdap_hw::{catalog, ComputeWorkload, TaskClass};
    use vdap_net::LinkSpec;

    struct Fixture {
        net: NetTopology,
        board: VcuBoard,
        edge: ProcessorSpec,
        cloud: ProcessorSpec,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                net: NetTopology::reference(),
                board: VcuBoard::reference_design(),
                edge: catalog::xedge_server(),
                cloud: catalog::cloud_server(),
            }
        }

        fn env(&self) -> Environment<'_> {
            Environment {
                net: &self.net,
                board: &self.board,
                edge: &self.edge,
                cloud: &self.cloud,
                edge_load: 1.0,
                cloud_load: 1.0,
                now: SimTime::ZERO,
            }
        }

        /// Saturates every board slot for `secs` seconds.
        fn saturate_board(&mut self, secs: f64) {
            let ids: Vec<_> = self.board.slots().iter().map(|s| s.id).collect();
            for id in ids {
                let rate = self
                    .board
                    .slot(id)
                    .unwrap()
                    .unit
                    .spec()
                    .throughput_gflops(TaskClass::VisionKernel);
                let w = ComputeWorkload::new("hog", TaskClass::VisionKernel)
                    .with_gflops(rate * secs)
                    .with_parallel_fraction(1.0);
                self.board.unit_mut(id).unwrap().enqueue(SimTime::ZERO, &w);
            }
        }
    }

    #[test]
    fn idle_board_good_network_picks_a_fast_pipeline() {
        let fx = Fixture::new();
        let mut service = kidnapper_search(SimDuration::from_millis(500), Site::Edge);
        let mut mgr = ElasticManager::new();
        let d = mgr.decide(&mut service, &fx.env(), Objective::MinLatency);
        assert!(d.selected.is_some());
        assert_eq!(service.state(), ServiceState::Running);
        let est = d.selected_estimate().unwrap();
        assert!(est.latency <= SimDuration::from_millis(500));
    }

    #[test]
    fn busy_board_pushes_work_to_the_edge() {
        let mut fx = Fixture::new();
        fx.saturate_board(10.0); // queues for the next 10 s
                                 // Deadline generous enough for the DSRC frame upload (~0.9 s)
                                 // but far below the 10 s on-board queue.
        let mut service = kidnapper_search(SimDuration::from_secs(2), Site::Edge);
        let mut mgr = ElasticManager::new();
        let d = mgr.decide(&mut service, &fx.env(), Objective::MinLatency);
        let label = &d.selected_estimate().unwrap().label;
        assert_eq!(label, "all-remote", "busy board should offload fully");
    }

    #[test]
    fn dead_network_forces_onboard() {
        let mut fx = Fixture::new();
        // Nearly-dead links to edge and cloud.
        fx.net.set_vehicle_edge(LinkSpec::dsrc().scaled(0.001));
        fx.net.set_vehicle_cloud(LinkSpec::lte().scaled(0.001));
        let mut service = kidnapper_search(SimDuration::from_secs(2), Site::Edge);
        let mut mgr = ElasticManager::new();
        let d = mgr.decide(&mut service, &fx.env(), Objective::MinLatency);
        assert_eq!(d.selected_estimate().unwrap().label, "all-onboard");
    }

    #[test]
    fn hopeless_environment_hangs_service() {
        let mut fx = Fixture::new();
        fx.net.set_vehicle_edge(LinkSpec::dsrc().scaled(0.001));
        fx.net.set_vehicle_cloud(LinkSpec::lte().scaled(0.001));
        fx.saturate_board(100.0);
        let mut service = kidnapper_search(SimDuration::from_millis(200), Site::Edge);
        let mut mgr = ElasticManager::new();
        let d = mgr.decide(&mut service, &fx.env(), Objective::MinLatency);
        assert!(d.selected.is_none());
        assert_eq!(service.state(), ServiceState::Hung);
        let (_, hangs, _) = mgr.counters();
        assert_eq!(hangs, 1);
        assert!(mgr.trace().iter().any(|e| e.message.contains("hung")));
    }

    #[test]
    fn recovery_reselects_after_hang() {
        let mut fx = Fixture::new();
        fx.net.set_vehicle_edge(LinkSpec::dsrc().scaled(0.001));
        fx.net.set_vehicle_cloud(LinkSpec::lte().scaled(0.001));
        fx.saturate_board(100.0);
        let mut service = kidnapper_search(SimDuration::from_millis(200), Site::Edge);
        let mut mgr = ElasticManager::new();
        mgr.decide(&mut service, &fx.env(), Objective::MinLatency);
        assert_eq!(service.state(), ServiceState::Hung);
        // Network recovers.
        let fx2 = Fixture::new();
        mgr.decide(&mut service, &fx2.env(), Objective::MinLatency);
        assert_eq!(service.state(), ServiceState::Running);
    }

    #[test]
    fn energy_objective_prefers_offloading_heavy_math() {
        let fx = Fixture::new();
        let mut service = kidnapper_search(SimDuration::from_secs(5), Site::Edge);
        let mut mgr = ElasticManager::new();
        let d = mgr.decide(&mut service, &fx.env(), Objective::MinVehicleEnergy);
        let est = d.selected_estimate().unwrap();
        // The split pipeline is the vehicle-energy optimum: the cheap
        // motion filter runs on the efficient on-board ASIC, while the
        // expensive recognition (and most radio time, thanks to the 8x
        // data reduction) leaves the vehicle.
        assert_eq!(est.label, "split");
        let onboard = &d.estimates[0];
        let all_remote = &d.estimates[1];
        assert!(est.vehicle_energy_j < onboard.vehicle_energy_j);
        assert!(est.vehicle_energy_j < all_remote.vehicle_energy_j);
    }

    #[test]
    fn switch_counter_tracks_pipeline_changes() {
        // Start with a saturated board (forces all-remote), then move to
        // an idle board with a dead network (forces all-onboard): the
        // manager must switch pipelines and count it.
        let mut busy = Fixture::new();
        busy.saturate_board(10.0);
        let mut service = kidnapper_search(SimDuration::from_secs(2), Site::Edge);
        let mut mgr = ElasticManager::new();
        mgr.decide(&mut service, &busy.env(), Objective::MinLatency);
        let first = service.selected();
        assert_eq!(service.selected_pipeline().unwrap().label, "all-remote");

        let mut offline = Fixture::new();
        offline.net.set_vehicle_edge(LinkSpec::dsrc().scaled(0.001));
        offline.net.set_vehicle_cloud(LinkSpec::lte().scaled(0.001));
        mgr.decide(&mut service, &offline.env(), Objective::MinLatency);
        assert_ne!(service.selected(), first);
        let (_, _, switches) = mgr.counters();
        assert_eq!(switches, 1);
    }

    #[test]
    fn lane_scaler_tracks_backlog_with_hysteresis() {
        let mut s = LaneScaler::new(LanePolicy::around(4));
        assert_eq!(s.policy().min_lanes, 2);
        assert_eq!(s.policy().max_lanes, 16);
        // Sustained overload walks the pool up to the ceiling.
        let mut lanes = 4;
        for _ in 0..20 {
            lanes = s.decide(lanes, 1000).lanes();
        }
        assert_eq!(lanes, 16);
        // Sustained idleness walks it back to the floor.
        for _ in 0..20 {
            lanes = s.decide(lanes, 0).lanes();
        }
        assert_eq!(lanes, 2);
        let (ups, downs) = s.counters();
        assert_eq!(ups, 12);
        assert_eq!(downs, 14);
        // In-band depth holds steady (no flapping between thresholds).
        assert_eq!(s.decide(8, 10), LaneDecision::Hold(8));
    }

    #[test]
    fn tenant_cap_scales_with_lanes_and_floors_at_one() {
        let s = LaneScaler::new(LanePolicy::around(8));
        assert_eq!(s.tenant_cap(100, 16, 16), 100);
        assert_eq!(s.tenant_cap(100, 16, 32), 200);
        assert_eq!(s.tenant_cap(100, 16, 8), 50);
        assert_eq!(s.tenant_cap(3, 16, 1), 1, "floored at one");
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn lane_policy_requires_hysteresis_gap() {
        let _ = LaneScaler::new(LanePolicy {
            min_lanes: 1,
            max_lanes: 8,
            scale_up_backlog: 2,
            scale_down_backlog: 2,
            step: 1,
        });
    }

    #[test]
    fn loaded_edge_shifts_choice() {
        let fx = Fixture::new();
        let mut service = kidnapper_search(SimDuration::from_secs(2), Site::Edge);
        let mut mgr = ElasticManager::new();
        let idle = mgr.estimate(&service.pipelines()[1], &fx.env());
        let mut env = fx.env();
        env.edge_load = 50.0;
        let loaded = mgr.estimate(&service.pipelines()[1], &env);
        assert!(loaded.latency > idle.latency);
        // Under heavy edge load the manager avoids the remote pipelines.
        let d = mgr.decide(&mut service, &env, Objective::MinLatency);
        assert_eq!(d.selected_estimate().unwrap().label, "all-onboard");
    }
}
