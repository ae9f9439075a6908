//! Per-vehicle state and mobility.
//!
//! Vehicles are open-loop request sources: each issues a perception
//! request every `request_period` (±10% deterministic jitter from its
//! own RNG stream) regardless of how earlier requests fared. All
//! per-vehicle randomness comes from `SeedFactory::indexed_stream`
//! keyed by the vehicle id — never by its arena chunk — so the same
//! vehicle replays the same decisions no matter which worker thread
//! advances it.

use vdap_offload::Tile;
use vdap_sim::{RngStream, SimDuration, SimTime};

/// Nominal fleet cruising speed used by the mobility model.
pub(crate) const SPEED_MPH: f64 = 30.0;

/// Number of route cohorts: vehicles in the same cohort drive the same
/// route (offset only in id), so their road tiles coincide and V2V
/// result sharing can hit.
pub(crate) const ROUTE_COHORTS: u32 = 8;

/// Vehicle radio power draw while transmitting over cellular (W).
pub(crate) const RADIO_W: f64 = 2.5;

/// Vehicle compute-board power draw while running fallback inference (W).
pub(crate) const BOARD_W: f64 = 35.0;

/// Board power draw for rung-3 degraded local inference (W): the
/// reduced-accuracy pipeline clocks the accelerator lower than the full
/// on-board fallback.
pub(crate) const DEGRADED_BOARD_W: f64 = 28.0;

/// DSRC radio power draw during a V2V exchange (W).
pub(crate) const DSRC_W: f64 = 1.0;

/// One vehicle's DDI uplink state: a private RNG stream (separate from
/// the request stream, so enabling ingestion cannot perturb the
/// request timeline) and a batch sequence counter.
#[derive(Debug)]
pub(crate) struct DdiUplink {
    /// Private DDI random stream.
    pub rng: RngStream,
    /// Next upload-batch sequence number.
    pub seq: u32,
}

/// One simulated vehicle: its complete private state, stored at index
/// `id` of the engine's arena for the whole run. A region crossing
/// updates `region`, `pending_handoff` and `cache_stale` in place.
#[derive(Debug)]
pub(crate) struct VehicleState {
    /// Fleet-wide vehicle id.
    pub id: u32,
    /// Tenant the vehicle's services bill to.
    pub tenant: u32,
    /// LTE region the vehicle currently drives in (fixed for the run
    /// unless mobility is on).
    pub region: u32,
    /// Private random stream (seeded by vehicle id).
    pub rng: RngStream,
    /// Next request sequence number.
    pub seq: u32,
    /// DDI uplink state (`Some` iff ingestion is enabled).
    pub ddi: Option<DdiUplink>,
    /// When the next request tick is due (`None` once past the
    /// horizon); a restored run resumes the timeline from it.
    pub next_tick: Option<SimTime>,
    /// When the next ingest upload is due (`None` when ingestion is off
    /// or past the horizon).
    pub next_ingest: Option<SimTime>,
    /// Cellular handoff cost accrued at barrier crossings, charged as
    /// extra latency on the vehicle's next request.
    pub pending_handoff: SimDuration,
    /// Set at a region crossing: the vehicle's V2V collaboration cache
    /// is stale for the following epoch (lookups suppressed, would-be
    /// hits counted).
    pub cache_stale: bool,
}

/// The route cohort a vehicle belongs to.
pub(crate) fn cohort_of(id: u32) -> u32 {
    (id / 16) % ROUTE_COHORTS
}

/// The road tile a vehicle occupies at `now`. Cohorts drive parallel
/// offsets of the same route at [`SPEED_MPH`], so two cohort-mates
/// always share a tile while vehicles of different cohorts never do.
pub(crate) fn tile_at(id: u32, now: SimTime) -> Tile {
    let hours = now.elapsed().as_secs_f64() / 3600.0;
    let miles = f64::from(cohort_of(id)) * 0.5 + SPEED_MPH * hours;
    Tile::containing(miles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SimDuration;

    #[test]
    fn cohort_mates_share_tiles_strangers_do_not() {
        let t = SimTime::from_secs(30);
        // Vehicles 0 and 5 share cohort 0; vehicle 16 is cohort 1.
        assert_eq!(cohort_of(0), cohort_of(5));
        assert_ne!(cohort_of(0), cohort_of(16));
        assert_eq!(tile_at(0, t), tile_at(5, t));
        assert_ne!(tile_at(0, t), tile_at(16, t));
    }

    #[test]
    fn vehicles_move_across_tiles_over_time() {
        let start = tile_at(3, SimTime::ZERO);
        let later = tile_at(3, SimTime::ZERO + SimDuration::from_secs(60));
        assert_ne!(start, later, "30 mph for 60 s crosses a 0.1-mile tile");
    }
}
