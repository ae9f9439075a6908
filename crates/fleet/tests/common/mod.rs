//! Shared helpers for the fleet engine's invariance properties.

use vdap_fleet::FleetConfig;

/// Every executor shape an invariance property sweeps: width
/// {1, 2, 4, hardware} × chunk size {1, 7, 64, whole fleet}. None of
/// these may reach a report.
pub fn executor_grid(cfg: &FleetConfig) -> Vec<FleetConfig> {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u32;
    let mut grid = Vec::new();
    for threads in [1, 2, 4, hw] {
        for chunk in [1, 7, 64, cfg.vehicles] {
            grid.push(
                cfg.clone()
                    .with_executor_threads(threads)
                    .with_batch_size(chunk),
            );
        }
    }
    grid
}
