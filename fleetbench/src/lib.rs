//! Host-cost benchmark of the `vdap-fleet` engine.
//!
//! Each workload is a batch job: a fixed, seeded simulated fleet run to
//! its horizon. [`run_rep`] performs one measured repetition of one
//! workload through the engine's public API only: build the config,
//! construct the engine, run it (under the crash supervisor on
//! crash-resume), resume from the newest snapshot where one exists,
//! render the summary, and check the report; [`setup_s`] times the
//! setup alone. Wall-clock figures are taken around those public calls;
//! per-layer figures come from the `EngineProfile`,
//! `SnapshotDiagnostics`, telemetry and ledger fields the report already
//! carries.
//!
//! The benchmark sets no shard count, batch size or executor width, and
//! reads `EngineProfile` only through `epochs`, `barrier`,
//! `worker_busy`/`worker_idle`, `mean_idle_fraction()` and
//! `total_steals()`, so engine refactors that drop those knobs keep it
//! compiling.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use vdap_fleet::{
    FleetConfig, FleetEngine, FleetReport, IngestConfig, MobilityConfig, SnapshotStore,
};
use vdap_sim::{SimDuration, SimTime};

/// Epoch at whose barrier crash-resume's engine crashes.
const CRASH_EPOCH: u64 = 50;
/// Resident telemetry budget of the telemetry-on workloads.
const TELEMETRY_BUDGET: u64 = 8 << 20;
/// OK-span sampling rate (keep one in N) of the telemetry-on workloads.
const SPAN_SAMPLING: u32 = 8;
/// Timed samples of constructions per [`setup_s`] call.
const SETUP_SAMPLES: usize = 31;
/// Constructions timed together in one `setup_s` sample.
const SETUPS_PER_SAMPLE: usize = 64;
/// Resumes from the newest snapshot timed per crash-resume repetition.
const RESUMES: usize = 3;

/// The benchmark's workloads. Each makes a different layer dominate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A provisioned city fleet, serving only: batch setup, merge and
    /// the serve loop at the 100k-vehicle scale, with no backlog.
    SteadyCity,
    /// An unprovisioned fleet under rush hour, collector outage,
    /// storage brownout and an LTE outage: every barrier pass whose
    /// cost grows with backlog.
    RushOverload,
    /// A provisioned fleet with checkpoints and one engine crash: the
    /// snapshot codec's write and read paths.
    CrashResume,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::SteadyCity,
        Workload::RushOverload,
        Workload::CrashResume,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyCity => "steady-city",
            Workload::RushOverload => "rush-overload",
            Workload::CrashResume => "crash-resume",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(vehicles, simulated seconds)` of the measured shape, or of the
    /// scaled-down shape the tests run.
    #[must_use]
    pub fn shape(self, small: bool) -> (u32, u64) {
        match (self, small) {
            (Workload::SteadyCity, false) => (100_000, 6),
            (Workload::RushOverload, false) => (10_000, 20),
            (Workload::CrashResume, false) => (5_000, 32),
            (Workload::SteadyCity, true) => (200, 6),
            (Workload::RushOverload, true) => (200, 20),
            (Workload::CrashResume, true) => (200, 32),
        }
    }

    /// The engine config for `seed` at the given shape. The engine sees
    /// nothing but this config.
    #[must_use]
    #[allow(clippy::field_reassign_with_default)]
    pub fn config(self, seed: u64, vehicles: u32, secs: u64) -> FleetConfig {
        // Field by field rather than a struct literal, so that the
        // benchmark still compiles if the config gains a private field.
        let mut cfg = FleetConfig::default();
        cfg.seed = seed;
        cfg.vehicles = vehicles;
        // Fault windows are laid out over the duration, so it is set
        // before any fault is added.
        cfg.duration = SimDuration::from_secs(secs);
        match self {
            Workload::SteadyCity => {
                provision(&mut cfg);
                cfg
            }
            Workload::RushOverload => cfg
                .with_mobility_config(MobilityConfig::rush_hour())
                .with_ingest()
                .with_collector_outage(0, SimTime::from_secs(4), SimDuration::from_secs(3))
                .with_storage_brownout(0.4, SimTime::from_secs(8), SimDuration::from_secs(4))
                .with_regional_outage(0, SimTime::from_secs(10), SimDuration::from_secs(6))
                .with_telemetry_budget(TELEMETRY_BUDGET)
                .with_span_sampling(SPAN_SAMPLING),
            Workload::CrashResume => {
                provision(&mut cfg);
                let ingest = provisioned_ingest(&cfg);
                cfg.with_ingest_config(ingest)
                    .with_mobility()
                    .with_telemetry_budget(TELEMETRY_BUDGET)
                    .with_span_sampling(SPAN_SAMPLING)
                    .with_checkpoint(8, 3)
                    .with_engine_crash(CRASH_EPOCH, SimDuration::from_millis(750))
            }
        }
    }
}

/// Sizes the serving tier for steady state: one region per 50 vehicles,
/// one XEdge lane per 40 (at least one per edge node) and a per-tenant
/// queue cap of a sixth of the fleet.
fn provision(cfg: &mut FleetConfig) {
    let v = cfg.vehicles;
    cfg.regions = (v / 50).max(1);
    cfg.edge_capacity = (v / 40).max(cfg.edge_nodes);
    cfg.tenant_queue_cap = (v / 6) as usize;
}

/// Default ingest with storage at 1.25x the offered record rate and each
/// regional collector queue holding three epochs of its arrivals.
fn provisioned_ingest(cfg: &FleetConfig) -> IngestConfig {
    let mut ing = IngestConfig::default();
    let offered = f64::from(cfg.vehicles) * f64::from(ing.records_per_batch)
        / ing.upload_period.as_secs_f64();
    ing.storage_records_per_sec = offered * 1.25;
    let per_region_epoch = offered / f64::from(cfg.regions) * cfg.epoch.as_secs_f64();
    ing.collector_queue_records =
        (3.0 * per_region_epoch) as u64 + u64::from(ing.records_per_batch);
    ing
}

/// 64-bit FNV-1a of a summary: the digest repeats of a workload must
/// share.
fn digest(summary: &str) -> u64 {
    summary.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One recorded span: name, start and end relative to the tracer's
/// origin, and the index of the span that contains it.
#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder for a traced repetition.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Attaches durations the engine measured inside span `parent` as
    /// child spans laid end to end from its start (the report gives
    /// their totals, not their positions), clipped to the parent.
    fn attach(&mut self, parent: usize, parts: &[(&'static str, Duration)]) {
        let (mut at, limit) = (self.spans[parent].start, self.spans[parent].end);
        for &(name, len) in parts {
            let end = (at + len).min(limit);
            self.spans.push(Span {
                name,
                parent: Some(parent),
                start: at,
                end,
            });
            at = end;
        }
    }

    /// A span's duration minus the part of it its children cover.
    fn self_time(&self, id: usize) -> Duration {
        let span = &self.spans[id];
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        (span.end - span.start).saturating_sub(children)
    }

    /// The spans as a Chrome trace-event document (loadable in
    /// Perfetto), with each span's id, parent and self time as
    /// arguments.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let (parent, parent_id) = s
                .parent
                .map_or(("", -1), |p| (self.spans[p].name, p as i64));
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":\"{}\",\"parent_id\":{parent_id},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                micros(s.start),
                micros(s.end - s.start),
                parent,
                micros(self.self_time(i)),
            );
        }
        out.push_str("]}\n");
        out
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Wall-clock and process CPU seconds one call took, and the CPU
/// seconds the hypervisor stole from the machine meanwhile.
#[derive(Debug, Clone, Copy)]
struct Took {
    wall: f64,
    cpu: f64,
    steal: f64,
}

impl Took {
    /// The wall time with the hypervisor's steal taken out: the wall
    /// scaled by the share of the CPU time the process asked for that it
    /// got. Unlike CPU time it still shows how far the work ran in
    /// parallel. Steal is machine-wide, so this assumes the benchmark is
    /// the only busy process.
    fn unstolen_wall(self) -> f64 {
        if self.cpu > 0.0 && self.steal > 0.0 {
            self.wall * self.cpu / (self.cpu + self.steal)
        } else {
            self.wall
        }
    }
}

/// Runs `f`, returning its result, the time it took and, when tracing,
/// the span recorded around it.
fn timed<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, Took, Option<usize>) {
    let id = tracer.as_mut().map(|t| t.open(name, parent));
    let (started, cpu_started, steal_started) = (Instant::now(), process_cpu_s(), stolen_s());
    let out = f();
    let took = Took {
        wall: started.elapsed().as_secs_f64(),
        cpu: process_cpu_s() - cpu_started,
        steal: stolen_s() - steal_started,
    };
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.close(id);
    }
    (out, took, id)
}

/// The result of one repetition.
#[derive(Debug)]
pub struct Rep {
    /// FNV-1a of the report's `summary()`.
    pub digest: u64,
    /// Validity and correctness checks the run failed (empty when it
    /// passed all of them).
    pub problems: Vec<String>,
    /// Measured values by metric name. `None` is a reading this
    /// platform does not offer (peak RSS off Linux).
    pub values: Vec<(&'static str, Option<f64>)>,
    /// The spans, when the repetition was traced.
    pub tracer: Option<Tracer>,
}

/// Profile totals of one engine leg: epochs, tick wall, barrier wall.
struct Leg {
    epochs: f64,
    tick_s: f64,
    barrier_s: f64,
}

impl Leg {
    fn of(report: &FleetReport) -> Leg {
        let p = &report.profile;
        // Every worker sees the whole fork/join wall as busy + idle.
        let workers = p.worker_busy.len().max(1) as f64;
        let tick_s = p
            .worker_busy
            .iter()
            .zip(&p.worker_idle)
            .map(|(b, i)| (*b + *i).as_secs_f64())
            .sum::<f64>()
            / workers;
        Leg {
            epochs: p.epochs as f64,
            tick_s,
            barrier_s: p.barrier.as_secs_f64(),
        }
    }

    fn per_epoch_ms(&self, secs: f64) -> f64 {
        secs * 1e3 / self.epochs.max(1.0)
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB; `None`
/// where `/proc/self/status` does not exist.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time the hypervisor has stolen from this machine so far, summed
/// over its CPUs (the `steal` column of `/proc/stat`, in the kernel's
/// fixed 100 ticks per second), in seconds; 0 where that file does not
/// exist.
fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let ticks = stat.lines().next()?.split_whitespace().nth(8)?;
            ticks.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// User plus system CPU time this process has used so far, over all its
/// threads (exited ones too), in seconds; NaN off 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `clockid_t` is a C int and `struct
    // timespec` is two 64-bit integers, as declared above; `ts` is valid
    // and writable for the call, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_s() -> f64 {
    f64::NAN
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The workload's setup: build the config, construct the engine and,
/// on crash-resume, open the snapshot store.
fn setup(
    workload: Workload,
    seed: u64,
    small: bool,
) -> (Result<FleetEngine, String>, Option<SnapshotStore>) {
    let (vehicles, secs) = workload.shape(small);
    let engine = FleetEngine::try_new(workload.config(seed, vehicles, secs))
        .map_err(|e| format!("config rejected: {e}"));
    let store = (workload == Workload::CrashResume).then(SnapshotStore::in_memory);
    (engine, store)
}

/// Seconds one setup of `workload` takes: the median over
/// `SETUP_SAMPLES` samples, each timing `SETUPS_PER_SAMPLE` setups
/// together, since one takes well under a microsecond.
#[must_use]
pub fn setup_s(workload: Workload, seed: u64, small: bool) -> f64 {
    let mut samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..SETUPS_PER_SAMPLE {
                drop(std::hint::black_box(setup(workload, seed, small)));
            }
            started.elapsed().as_secs_f64() / SETUPS_PER_SAMPLE as f64
        })
        .collect();
    median(&mut samples)
}

/// Runs one repetition of `workload` for `seed`: setup, the measured
/// run, then (on crash-resume) timed resumes from the newest snapshot.
///
/// # Errors
///
/// Returns an error when the engine rejects the config or a snapshot
/// cannot be resumed; either counts as a failed run.
pub fn run_rep(workload: Workload, seed: u64, small: bool, trace: bool) -> Result<Rep, String> {
    let mut tracer = trace.then(Tracer::new);
    let root = tracer.as_mut().map(|t| t.open("rep", None));
    let ((engine, mut store), _, _) = timed(&mut tracer, "try_new", root, || {
        setup(workload, seed, small)
    });
    let engine = engine?;

    // ---- the measured run ----
    let (report, run, run_span) = match store.as_mut() {
        Some(store) => timed(&mut tracer, "run_supervised", root, || {
            engine.run_supervised(store)
        }),
        None => timed(&mut tracer, "run", root, || engine.run()),
    };
    let peak_rss = peak_rss_mb();
    let leg = Leg::of(&report);
    let (summary, summary_took, _) = timed(&mut tracer, "summary", root, || report.summary());
    let snaps = &report.snapshots;
    let write_ms: Vec<f64> = snaps.writes.iter().map(|w| w.write_ms).collect();
    let write_total_s = write_ms.iter().fold(0.0, |a, b| a + b) / 1e3;
    if let (Some(t), Some(id)) = (tracer.as_mut(), run_span) {
        t.attach(
            id,
            &[
                ("engine.tick", Duration::from_secs_f64(leg.tick_s)),
                ("engine.barrier", Duration::from_secs_f64(leg.barrier_s)),
                ("ckpt.write", Duration::from_secs_f64(write_total_s)),
            ],
        );
    }
    let mut problems = check_validity(workload, &engine, &report);

    // ---- resume from the newest valid snapshot ----
    // The store survives a resume, so each repetition times several and
    // keeps the medians of verify, verify + restore (wall without steal,
    // and CPU), decode, and the restored leg's time outside tick and
    // barrier (per epoch).
    let mut resumes: [Vec<f64>; 5] = Default::default();
    if let Some(store) = store.as_ref() {
        for _ in 0..RESUMES {
            let ((newest, _rejected), verify, _) =
                timed(&mut tracer, "newest_valid", root, || store.newest_valid());
            let newest = newest.ok_or("no valid snapshot survived the run")?;
            let (r, restore, r_span) =
                timed(&mut tracer, "restore", root, || engine.restore(&newest));
            let r = r.map_err(|e| format!("restore failed: {e}"))?;
            let rl = Leg::of(&r);
            let load_s = r.snapshots.load_ms.unwrap_or(0.0) / 1e3;
            if r.snapshots.load_ms.is_none() {
                problems.push("restore reported no snapshot decode time".into());
            }
            if r.summary() != summary {
                problems.push("restore(&newest) summary differs from the supervised run".into());
            }
            if let (Some(t), Some(id)) = (tracer.as_mut(), r_span) {
                t.attach(
                    id,
                    &[
                        ("ckpt.load", Duration::from_secs_f64(load_s)),
                        ("engine.tick", Duration::from_secs_f64(rl.tick_s)),
                        ("engine.barrier", Duration::from_secs_f64(rl.barrier_s)),
                    ],
                );
            }
            let unprofiled_s = restore.wall - load_s - rl.tick_s - rl.barrier_s;
            for (column, x) in resumes.iter_mut().zip([
                verify.wall,
                verify.unstolen_wall() + restore.unstolen_wall(),
                verify.cpu + restore.cpu,
                load_s,
                rl.per_epoch_ms(unprofiled_s),
            ]) {
                column.push(x);
            }
        }
    }
    if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
        t.close(id);
    }
    // Time outside tick and barrier: batch setup, state init and the
    // horizon drain. Under the supervisor the profile covers only the
    // final leg while the wall covers every leg, so crash-resume takes
    // it from the restore calls, whose profile and wall cover the same
    // epochs. Without a snapshot, resuming after a crash means running
    // again from scratch, so the restore times are the run's own.
    let [verify_s, restore_s, restore_cpu_s, load_s, unprofiled_ms] = match resumes {
        [mut v, mut r, mut c, mut l, mut u] if !r.is_empty() => [
            median(&mut v),
            median(&mut r),
            median(&mut c),
            median(&mut l),
            median(&mut u),
        ],
        _ => [
            0.0,
            run.unstolen_wall(),
            run.cpu,
            0.0,
            leg.per_epoch_ms(run.wall - leg.tick_s - leg.barrier_s),
        ],
    };

    let total_epochs = engine.config().total_epochs() as f64;
    let vehicle_s = f64::from(report.vehicles) * engine.config().duration.as_secs_f64();
    let events = report.events_processed as f64;
    let m = &report.metrics;
    let ingest = report.ingest.as_ref();
    let mobility = report.mobility.as_ref();
    let telemetry = report.telemetry.as_ref();
    let count = |n: u64| Some(n as f64);
    let values = vec![
        // end to end, on the wall clock without the hypervisor's steal
        ("vehicle_s_per_s", Some(vehicle_s / run.unstolen_wall())),
        ("events_per_s", Some(events / run.unstolen_wall())),
        ("peak_rss_mb", peak_rss),
        ("restore_s", Some(restore_s)),
        // the same per CPU second
        ("vehicle_s_per_cpu_s", Some(vehicle_s / run.cpu)),
        ("events_per_cpu_s", Some(events / run.cpu)),
        ("restore_cpu_s", Some(restore_cpu_s)),
        ("run_s", Some(run.unstolen_wall())),
        ("run_wall_s", Some(run.wall)),
        ("run_cpu_s", Some(run.cpu)),
        ("run_steal_s", Some(run.steal)),
        // engine
        ("engine.epochs", Some(leg.epochs)),
        (
            "engine.tick_ms_per_epoch",
            Some(leg.per_epoch_ms(leg.tick_s)),
        ),
        (
            "engine.barrier_ms_per_epoch",
            Some(leg.per_epoch_ms(leg.barrier_s)),
        ),
        // The profiled barrier per epoch over every epoch of the run
        // (a supervised profile covers only the final leg).
        (
            "engine.barrier_share",
            Some(share(
                leg.per_epoch_ms(leg.barrier_s) * total_epochs / 1e3,
                run.wall,
            )),
        ),
        ("engine.unprofiled_ms_per_epoch", Some(unprofiled_ms)),
        // pool
        (
            "pool.workers",
            count(report.profile.worker_busy.len() as u64),
        ),
        ("pool.idle_frac", Some(report.profile.mean_idle_fraction())),
        ("pool.steals", count(report.profile.total_steals())),
        // shard / vehicle
        ("sim.events", count(report.events_processed)),
        ("sim.requests", count(m.requests)),
        // edge
        ("edge.offered", count(report.admission_offered)),
        ("edge.rejected", count(report.admission_rejected)),
        (
            "edge.served_frac",
            Some(share(m.edge_served as f64, m.requests as f64)),
        ),
        ("edge.queue_depth_mean", Some(m.queue_depth.mean())),
        ("edge.e2e_p95_ms", Some(m.e2e_latency_ms.quantile(0.95))),
        // ingest
        (
            "ingest.records_sent",
            count(ingest.map_or(0, |i| i.records_sent)),
        ),
        (
            "ingest.written_frac",
            Some(ingest.map_or(0.0, |i| {
                share(i.records_written as f64, i.records_sent as f64)
            })),
        ),
        (
            "ingest.backlog_records",
            count(ingest.map_or(0, |i| i.backlog_records)),
        ),
        ("ingest.deferrals", count(ingest.map_or(0, |i| i.deferrals))),
        // mobility
        (
            "mobility.crossings",
            count(mobility.map_or(0, |x| x.crossings)),
        ),
        (
            "mobility.readdressed",
            count(mobility.map_or(0, |x| x.readdressed_batches)),
        ),
        // obs
        (
            "obs.spans",
            count(telemetry.map_or(0, |t| t.spans.len() as u64)),
        ),
        (
            "obs.sampled_out",
            count(telemetry.map_or(0, |t| t.sampled_out)),
        ),
        (
            "obs.histograms",
            count(telemetry.map_or(0, |t| t.registry.all_histograms().count() as u64)),
        ),
        (
            "obs.peak_bytes",
            count(telemetry.map_or(0, |t| t.peak_bytes)),
        ),
        // ckpt
        ("ckpt.writes", count(snaps.writes.len() as u64)),
        (
            "ckpt.bytes_per_write",
            Some(share(
                snaps.writes.iter().map(|w| w.bytes as f64).sum(),
                snaps.writes.len() as f64,
            )),
        ),
        ("ckpt.write_share", Some(share(write_total_s, run.wall))),
        ("ckpt.verify_share", Some(share(verify_s, restore_s))),
        ("ckpt.load_share", Some(share(load_s, restore_s))),
        (
            "ckpt.write_ms_p50",
            Some(if write_ms.is_empty() {
                0.0
            } else {
                median(&mut write_ms.clone())
            }),
        ),
        ("ckpt.verify_ms", Some(verify_s * 1e3)),
        ("ckpt.load_ms", Some(load_s * 1e3)),
        // report
        ("report.summary_ms", Some(summary_took.wall * 1e3)),
    ];
    Ok(Rep {
        digest: digest(&summary),
        problems,
        values,
        tracer,
    })
}

/// The digest of crash-resume's config run straight through with
/// `run()`, which ignores the crash and writes no snapshots: the
/// supervised summary must equal it.
///
/// # Errors
///
/// Returns an error when the engine rejects the config.
pub fn straight_digest(workload: Workload, seed: u64, small: bool) -> Result<u64, String> {
    let engine = setup(workload, seed, small).0?;
    Ok(digest(&engine.run().summary()))
}

/// Checks that the run exercised the layer its workload exists for, so
/// a row that did not is never reported as evidence.
fn check_validity(workload: Workload, engine: &FleetEngine, report: &FleetReport) -> Vec<String> {
    let mut problems = Vec::new();
    let mut require = |ok: bool, what: &str| {
        if !ok {
            problems.push(format!("{}: {what}", workload.name()));
        }
    };
    match workload {
        Workload::SteadyCity => {
            let tightest = engine
                .config()
                .classes
                .iter()
                .map(|c| c.deadline)
                .min()
                .expect("three classes");
            let p95 = report.metrics.e2e_latency_ms.quantile(0.95);
            require(
                report.admission_rejected == 0,
                "admission rejected requests",
            );
            require(
                p95 < tightest.as_millis_f64(),
                "e2e p95 is not below the tightest class deadline",
            );
        }
        Workload::RushOverload => {
            let mobility = report.mobility.as_ref();
            let ingest = report.ingest.as_ref();
            let telemetry = report.telemetry.as_ref();
            require(
                mobility.is_some_and(|m| m.crossings > 0),
                "no region crossings",
            );
            require(
                mobility.is_some_and(|m| m.readdressed_batches > 0),
                "no ingest batch was re-addressed",
            );
            require(
                ingest.is_some_and(|i| i.deferrals > 0),
                "no ingest deferrals",
            );
            require(
                telemetry.is_some_and(|t| t.sampled_out > 0),
                "no span was sampled out",
            );
            require(report.metrics.failovers > 0, "no failovers");
        }
        Workload::CrashResume => {
            let snaps = &report.snapshots;
            require(
                snaps.resumes == 1,
                "expected exactly one crash-resume cycle",
            );
            require(snaps.load_ms.is_some(), "the resume decoded no snapshot");
            require(
                snaps.writes.iter().any(|w| w.generation > CRASH_EPOCH),
                "no snapshot was written after the resume",
            );
        }
    }
    problems
}

/// Median of `xs` (mean of the middle two for an even count); sorts in
/// place. Panics on an empty slice.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}
