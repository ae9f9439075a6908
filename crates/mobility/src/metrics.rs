//! The deterministic mobility ledger.

use vdap_sim::StreamingHistogram;

/// Mergeable mobility accounting, filled by the fleet engine's barrier
/// mobility pass in canonical `(epoch, vehicle)` order.
///
/// Every field is executor-shape independent by construction:
/// crossings are a pure function of each vehicle's seeded track, and
/// `migrations` counts crossings whose destination region is homed on
/// a *different XEdge node domain* than the source (`region %
/// edge_nodes`) — the canonical placement function — rather than
/// anything about which worker ran the vehicle. The remaining
/// `crossings - migrations` stay inside one home-node domain.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityMetrics {
    /// Region-boundary crossings.
    pub crossings: u64,
    /// Crossings that move the vehicle to a different XEdge home-node
    /// domain.
    pub migrations: u64,
    /// Crossings that landed while the destination's handoff label was
    /// storming (`RegionHandoffStorm` multiplied the handoff cost).
    pub storm_crossings: u64,
    /// V2V snapshot lookups suppressed because the vehicle's collab
    /// cache went stale at its last crossing.
    pub stale_cache_hits: u64,
    /// In-flight ingest batches (pending retries + TTL-cached) re-
    /// addressed to the destination region's collector at a crossing.
    pub readdressed_batches: u64,
    /// Total connectivity seconds paid to cellular handoffs.
    pub handoff_seconds: f64,
    /// Per-crossing handoff cost (ms).
    pub handoff_ms: StreamingHistogram,
    /// Nominal speed of the segment each crossing arrived on (mph).
    pub crossing_speed_mph: StreamingHistogram,
}

impl Default for MobilityMetrics {
    fn default() -> Self {
        MobilityMetrics::new()
    }
}

impl MobilityMetrics {
    /// Creates an empty mobility ledger.
    #[must_use]
    pub fn new() -> Self {
        MobilityMetrics {
            crossings: 0,
            migrations: 0,
            storm_crossings: 0,
            stale_cache_hits: 0,
            readdressed_batches: 0,
            handoff_seconds: 0.0,
            handoff_ms: StreamingHistogram::new("mobility_handoff_ms"),
            crossing_speed_mph: StreamingHistogram::new("mobility_crossing_speed_mph"),
        }
    }

    /// Merges another mobility ledger (associative and commutative for
    /// the integer fields; `handoff_seconds` is a float sum, so merge
    /// order must be canonical).
    pub fn merge(&mut self, other: &MobilityMetrics) {
        self.crossings += other.crossings;
        self.migrations += other.migrations;
        self.storm_crossings += other.storm_crossings;
        self.stale_cache_hits += other.stale_cache_hits;
        self.readdressed_batches += other.readdressed_batches;
        self.handoff_seconds += other.handoff_seconds;
        self.handoff_ms.merge(&other.handoff_ms);
        self.crossing_speed_mph.merge(&other.crossing_speed_mph);
    }

    /// The partition invariant the proptests pin: every migration is a
    /// crossing, so the crossings split into domain migrations and
    /// `crossings - migrations` same-domain moves.
    #[must_use]
    pub fn partitions(&self) -> bool {
        self.migrations <= self.crossings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_additive_and_partition_holds() {
        let mut a = MobilityMetrics::new();
        a.crossings = 5;
        a.migrations = 3;
        a.handoff_seconds = 0.75;
        a.handoff_ms.record(250.0);
        let mut b = MobilityMetrics::new();
        b.crossings = 2;
        b.migrations = 1;
        b.stale_cache_hits = 4;
        a.merge(&b);
        assert_eq!(a.crossings, 7);
        assert_eq!(a.migrations, 4);
        assert_eq!(a.stale_cache_hits, 4);
        assert!((a.handoff_seconds - 0.75).abs() < 1e-12);
        assert_eq!(a.handoff_ms.count(), 1);
        assert!(a.partitions());
    }
}
