//! Mixed-workload fleet serving with elastic XEdge capacity: the §II
//! service catalogue is mapped onto the three fleet workload classes
//! (detection offload, infotainment streaming, pBEAM training rounds),
//! then 1,024 vehicles drive the weighted class mix against a shared
//! XEdge deployment whose lane pool grows and shrinks with observed
//! queue depth. Finishes with a serial rerun (one worker, the whole
//! fleet in one chunk) to demonstrate that elasticity costs nothing in
//! determinism.
//!
//! ```text
//! cargo run --release --example fleet_mixed
//! ```

use openvdap::apps;
use vdap_fleet::{FleetConfig, FleetEngine, WorkloadClass};
use vdap_sim::SimDuration;

fn main() {
    // Every per-vehicle service bills its XEdge traffic to exactly one
    // fleet workload class; the class then prices the request end to
    // end (bytes, fair-queue work units, deadline, degraded mode).
    println!("service catalogue -> fleet workload class");
    for svc in apps::standard_service_mix() {
        println!("  {:>24} -> {}", svc.name(), apps::workload_class_of(&svc));
    }

    let mut cfg = FleetConfig::sized(1024).with_elastic_capacity();
    cfg.seed = 42;
    cfg.duration = SimDuration::from_secs(60);
    cfg.request_period = SimDuration::from_millis(500);
    let report = FleetEngine::new(cfg.clone()).run();

    println!();
    println!(
        "{:>16}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "class", "requests", "served", "collab", "failover", "fallback", "p95 e2e (ms)"
    );
    println!("{}", "-".repeat(76));
    for class in WorkloadClass::ALL {
        let c = report.metrics.class(class);
        println!(
            "{:>16}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>12.1}",
            class.label(),
            c.requests,
            c.edge_served,
            c.collab_hits,
            c.failovers,
            c.local_fallbacks,
            c.e2e_latency_ms.quantile(0.95),
        );
    }
    println!();
    println!(
        "elastic lanes: mean {:.1}, max {:.0} (nominal {}), {} scale-ups, {} scale-downs",
        report.metrics.elastic_lanes.mean(),
        report.metrics.elastic_lanes.max(),
        cfg.edge_capacity,
        report.metrics.scale_ups,
        report.metrics.scale_downs,
    );
    println!(
        "pBEAM rounds skipped under degradation: {}",
        report.metrics.training_rounds_skipped
    );

    // Determinism contract: elastic decisions are sampled only at
    // epoch barriers, so the same seed on the serial engine reproduces
    // the parallel run's aggregate metrics byte for byte.
    let serial = FleetEngine::new(cfg.with_executor_threads(1).with_batch_size(1024)).run();
    assert_eq!(
        serial.summary(),
        report.summary(),
        "serial and default-executor summaries must be byte-identical"
    );
    println!();
    println!("determinism: serial rerun matches the default-executor summary byte for byte");
}
