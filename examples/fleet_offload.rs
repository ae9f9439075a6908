//! Fleet-scale offloading study on the fleet engine: 1,200 vehicles
//! stream detection work to the shared multi-tenant XEdge deployment
//! for 90 simulated seconds, under three levels of edge load, with a
//! regional LTE outage thrown in. Finishes by re-running the heaviest
//! point on the serial engine (one worker, the whole fleet in one
//! chunk) to demonstrate the engine's byte-identical determinism
//! contract.
//!
//! ```text
//! cargo run --release --example fleet_offload
//! ```

use openvdap::scenario::{sweep, ScenarioConfig};
use vdap_fleet::FleetEngine;
use vdap_sim::{SimDuration, SimTime};

fn main() {
    let scenario = ScenarioConfig {
        seed: 42,
        vehicles: 1200,
        duration: SimDuration::from_secs(90),
        request_period: SimDuration::from_secs(1),
        ..ScenarioConfig::default()
    };

    // The worker-pool-backed sweep evaluates each load point in
    // parallel (capped at the machine's core count).
    let loads = [1.0, 2.0, 4.0];
    let base = scenario.clone();
    let results = sweep(loads.to_vec(), move |edge_load| {
        let cfg = ScenarioConfig {
            edge_load,
            ..base.clone()
        }
        .fleet()
        .with_regional_outage(0, SimTime::from_secs(30), SimDuration::from_secs(15));
        (edge_load, FleetEngine::new(cfg).run())
    });

    println!(
        "{:>9}  {:>8} {:>12} {:>12} {:>12} {:>14}",
        "edge load", "requests", "p95 e2e (ms)", "reject rate", "collab hits", "energy/req (J)"
    );
    println!("{}", "-".repeat(74));
    for (edge_load, report) in &results {
        println!(
            "{:>8.1}x  {:>8} {:>12.1} {:>12.4} {:>12} {:>14.3}",
            edge_load,
            report.metrics.requests,
            report.metrics.e2e_latency_ms.quantile(0.95),
            report.reject_rate(),
            report.metrics.collab_hits,
            report.metrics.energy_per_request_j.mean(),
        );
    }

    let (_, heaviest) = results.last().expect("three load points");
    println!();
    println!("heaviest point:");
    print!("{}", heaviest.summary());

    // Determinism contract: the same seed on the serial engine
    // reproduces the parallel run's aggregate metrics byte for byte.
    let serial_cfg = ScenarioConfig {
        edge_load: loads[2],
        ..scenario
    }
    .fleet()
    .with_regional_outage(0, SimTime::from_secs(30), SimDuration::from_secs(15))
    .with_executor_threads(1)
    .with_batch_size(1200);
    let serial = FleetEngine::new(serial_cfg).run();
    assert_eq!(
        serial.summary(),
        heaviest.summary(),
        "serial and default-executor summaries must be byte-identical"
    );
    println!();
    println!("determinism: serial rerun matches the default-executor summary byte for byte");
}
