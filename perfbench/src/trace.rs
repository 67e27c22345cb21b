//! The traced run: per-layer metrics.
//!
//! Spans are recorded from the benchmark's own code. Inside
//! `UnlockSession::run`, a wall-stamping [`EventSink`] marks every stage
//! callback of the session (the instants its virtual clock advances) and
//! every attempt end; the host time between two marks is charged to the
//! layer whose work lies between them. Fleet-only figures come from the
//! `FleetReport`, the engine's telemetry and direct timing of public
//! calls (`UserPopulation::profile` / `arrivals`, `UnlockSession::new`).

use std::sync::Mutex;
use std::time::Instant;

use wearlock_fleet::{FleetConfig, FleetEngine};
use wearlock_runtime::SweepRunner;
use wearlock_telemetry::{
    AttemptEvent, EventSink, MetricsRecorder, MetricsSnapshot, NullSink, RetryEvent, StageSpan,
};

use crate::workloads::{
    digest_report, fleet_config, fleet_population_jobs, new_session, report_ok, run_job,
    session_direct_jobs, session_direct_size, warm_fft_cache, warm_sessions, JobSet,
};
use crate::{allocations, percentile, Args, Digest, RunResult, Workload};

/// Layers the host time of a run call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// Lockout/link gates, wireless handshakes and other bookkeeping
    /// between stages.
    Link,
    /// Sensor trace synthesis.
    SensorSynth,
    /// Motion filter of an attempt that ended there (abort or skip).
    MotionFilter,
    /// Motion filter, ambient recording, probe modulation and the
    /// acoustic channel of phase 1.
    Phase1Tx,
    /// Recording trims and demodulator set-up of both phases.
    Trim,
    /// Probe analysis, ambient similarity, sub-channel selection.
    AnalyzeProbe,
    /// Token generation, coding, modulation and the phase-2 channel.
    Phase2Tx,
    /// Token demodulation, decoding and verification.
    Demodulate,
    /// Not between two marks: report assembly after the last attempt.
    Unattributed,
}

const LAYERS: [Layer; 9] = [
    Layer::Link,
    Layer::SensorSynth,
    Layer::MotionFilter,
    Layer::Phase1Tx,
    Layer::Trim,
    Layer::AnalyzeProbe,
    Layer::Phase2Tx,
    Layer::Demodulate,
    Layer::Unattributed,
];

/// A mark the stamping sink records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Start,
    Stage(&'static str),
    AttemptEnd,
    Retry,
}

/// The session's stage labels, interned so marks stay `Copy`.
const STAGES: [&str; 12] = [
    "wireless:handshake",
    "wireless:retransmit",
    "fault:clock-drift",
    "wireless:sensor-transfer",
    "compute:motion-filter",
    "audio:phase1",
    "compute:phase1-probing",
    "wireless:cts",
    "audio:phase2",
    "compute:phase2-preprocess",
    "compute:phase2-demod",
    "wireless:verdict",
];

/// The layer whose work lies between marks `prev` and `cur`.
fn layer_between(prev: Mark, cur: Mark) -> Layer {
    match cur {
        Mark::Stage("wireless:sensor-transfer") => Layer::SensorSynth,
        Mark::Stage("audio:phase1") => Layer::Phase1Tx,
        Mark::Stage("compute:phase1-probing" | "compute:phase2-preprocess") => Layer::Trim,
        Mark::Stage("wireless:cts") => Layer::AnalyzeProbe,
        Mark::Stage("audio:phase2") => Layer::Phase2Tx,
        Mark::Stage("other") => Layer::Unattributed,
        Mark::AttemptEnd => match prev {
            Mark::Stage("wireless:verdict") => Layer::Demodulate,
            Mark::Stage("compute:motion-filter") => Layer::MotionFilter,
            Mark::Stage("compute:phase1-probing") => Layer::AnalyzeProbe,
            _ => Layer::Link,
        },
        _ => Layer::Link,
    }
}

/// Wall-stamps the session's callbacks. Used from one thread at a time.
#[derive(Default)]
struct StampSink {
    marks: Mutex<Vec<(Mark, Instant)>>,
}

impl StampSink {
    fn mark(&self, mark: Mark) {
        let now = Instant::now();
        self.marks.lock().expect("unpoisoned").push((mark, now));
    }

    fn take(&self) -> Vec<(Mark, Instant)> {
        std::mem::take(&mut *self.marks.lock().expect("unpoisoned"))
    }
}

impl EventSink for StampSink {
    fn record_span(&self, span: &StageSpan<'_>) {
        let stage = STAGES.iter().find(|&&s| s == span.stage).copied();
        self.mark(Mark::Stage(stage.unwrap_or("other")));
    }

    fn record_attempt(&self, _event: &AttemptEvent) {
        self.mark(Mark::AttemptEnd);
    }

    fn record_retry(&self, _event: &RetryEvent) {
        self.mark(Mark::Retry);
    }
}

/// Host seconds per layer, summed over a pass.
#[derive(Debug, Default)]
struct LayerTimes {
    busy: [f64; LAYERS.len()],
    motion_exits: u64,
}

impl LayerTimes {
    fn add(&mut self, marks: &[(Mark, Instant)], end: Instant) {
        for pair in marks.windows(2) {
            let layer = layer_between(pair[0].0, pair[1].0);
            if layer == Layer::MotionFilter {
                self.motion_exits += 1;
            }
            self.charge(layer, pair[1].1 - pair[0].1);
        }
        if let Some(&(_, last)) = marks.last() {
            self.charge(Layer::Unattributed, end - last);
        }
    }

    fn charge(&mut self, layer: Layer, d: std::time::Duration) {
        let i = LAYERS.iter().position(|&l| l == layer).expect("listed");
        self.busy[i] += d.as_secs_f64();
    }

    fn get(&self, layer: Layer) -> f64 {
        self.busy[LAYERS.iter().position(|&l| l == layer).expect("listed")]
    }
}

/// What one pass over a job set measured.
struct Pass {
    wall: f64,
    latencies: Vec<f64>,
    digest: String,
    failed: u64,
    allocs: u64,
}

/// Runs every job of `set` once on freshly warmed sessions, serially,
/// with `sink`; `stamps` collects layer times when given.
fn pass(
    set: &JobSet,
    sink: &dyn EventSink,
    mut stamps: Option<(&StampSink, &mut LayerTimes)>,
) -> Pass {
    let mut sessions = warm_sessions(set);
    let mut digest = Digest::default();
    let mut latencies = Vec::with_capacity(set.jobs.len());
    let mut failed = 0;
    let allocs_before = allocations();
    let start = Instant::now();
    for (i, job) in set.jobs.iter().enumerate() {
        if let Some((stamp, _)) = &stamps {
            stamp.mark(Mark::Start);
        }
        let (report, elapsed) = run_job(&mut sessions[job.user], job, sink);
        if let Some((stamp, times)) = &mut stamps {
            let end = Instant::now();
            times.add(&stamp.take(), end);
        }
        latencies.push(elapsed);
        failed += u64::from(!report_ok(&report, job));
        digest_report(&mut digest, i, &report);
    }
    let wall = start.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    Pass {
        wall,
        latencies,
        digest: digest.hex(),
        failed,
        allocs: allocations() - allocs_before,
    }
}

/// Replayed run calls of a traced run.
fn traced_calls(tiny: bool) -> usize {
    if tiny {
        16
    } else {
        320
    }
}

/// Entry point of the traced run.
pub fn run(args: &Args) -> RunResult {
    warm_fft_cache();
    let fleet = match args.workload {
        Workload::SessionDirect => None,
        w => Some(fleet_config(w, args.seed, args.tiny)),
    };
    let set = match &fleet {
        None => {
            let (users, jobs) = session_direct_size(args.tiny);
            session_direct_jobs(args.seed, users, jobs.min(traced_calls(args.tiny)))
        }
        Some(config) => fleet_population_jobs(config, traced_calls(args.tiny)),
    };
    let calls = set.jobs.len() as f64;
    let mut result = RunResult {
        checks_ok: !set.jobs.is_empty(),
        ..RunResult::default()
    };

    // Three passes over the same jobs: untraced, wall-stamped, and with
    // the telemetry recorder. The sink must not change any outcome.
    let plain = pass(&set, &NullSink, None);
    let stamp = StampSink::default();
    let mut times = LayerTimes::default();
    let stamped = pass(&set, &stamp, Some((&stamp, &mut times)));
    let recorder = MetricsRecorder::new();
    let recorded = pass(&set, &recorder, None);
    let json_start = Instant::now();
    let json = recorder.to_json();
    let mut to_json_s = json_start.elapsed().as_secs_f64();
    result.attempted += 3 * set.jobs.len() as u64;
    result.failed += plain.failed + stamped.failed + recorded.failed;
    if plain.digest != stamped.digest || plain.digest != recorded.digest || json.is_empty() {
        eprintln!("wearlock-perfbench: a sink changed the outcomes");
        result.checks_ok = false;
    }
    let snapshot = recorder.snapshot();

    // Session construction, timed directly over the set's configs.
    let news = 8 * set.users.len();
    let start = Instant::now();
    for k in 0..news {
        std::hint::black_box(new_session(set.users[k % set.users.len()]));
    }
    let session_new_us = 1e6 * start.elapsed().as_secs_f64() / news.max(1) as f64;

    // For fleets, the funnel, allocation and telemetry figures come from
    // the engine's own run rather than from the replay.
    let fleet = fleet.map(|config| fleet_layers(&config, &mut result));
    let (motion_exit_share, allocs_per_attempt) = match &fleet {
        Some(f) => (f.motion_exit_share, f.allocs_per_attempt),
        None => (
            motion_exit_share(&snapshot),
            plain.allocs as f64 / snapshot.attempts.max(1) as f64,
        ),
    };
    if let Some(f) = &fleet {
        to_json_s = f.to_json_s;
    }
    let fleet = fleet.unwrap_or_default();

    let ms = |layer| 1e3 * times.get(layer) / calls.max(1.0);
    let stamped_total: f64 = times.busy.iter().sum();
    println!(
        "traced calls={} plain_wall_s={} stamped_wall_s={} recorded_wall_s={} outcome_digest={}",
        set.jobs.len(),
        plain.wall,
        stamped.wall,
        recorded.wall,
        plain.digest
    );
    result.push(
        "sensors.synthesize.ms_per_run",
        ms(Layer::SensorSynth),
        "ms",
    );
    result.push(
        "sensors.motion_filter.ms_per_exit",
        1e3 * times.get(Layer::MotionFilter) / (times.motion_exits.max(1) as f64),
        "ms",
    );
    result.push("acoustics.phase1_tx.ms_per_run", ms(Layer::Phase1Tx), "ms");
    result.push("core.trim.ms_per_run", ms(Layer::Trim), "ms");
    result.push(
        "modem.analyze_probe.ms_per_run",
        ms(Layer::AnalyzeProbe),
        "ms",
    );
    result.push("acoustics.phase2_tx.ms_per_run", ms(Layer::Phase2Tx), "ms");
    result.push("modem.demodulate.ms_per_run", ms(Layer::Demodulate), "ms");
    result.push("platform.link.ms_per_run", ms(Layer::Link), "ms");
    result.push(
        "core.unattributed_share",
        times.get(Layer::Unattributed) / stamped_total.max(f64::MIN_POSITIVE),
        "share",
    );
    result.push(
        "core.run.p50_ms",
        1e3 * percentile(&plain.latencies, 0.50),
        "ms",
    );
    result.push(
        "core.run.p95_ms",
        1e3 * percentile(&plain.latencies, 0.95),
        "ms",
    );
    result.push("core.session_new.us", session_new_us, "us");
    result.push("core.motion_early_exit_share", motion_exit_share, "share");
    result.push(
        "core.retries_per_run",
        snapshot.attempts as f64 / calls.max(1.0),
        "count",
    );
    result.push(
        "faults.faulted_share",
        set.jobs.iter().filter(|j| !j.faults.is_null()).count() as f64 / calls.max(1.0),
        "share",
    );
    result.push("core.run.allocs_per_attempt", allocs_per_attempt, "count");
    result.push("fleet.population.users_per_s", fleet.users_per_s, "1/s");
    result.push("fleet.store.hit_ratio", fleet.hit_ratio, "share");
    result.push("fleet.store.creations", fleet.creations, "count");
    result.push("fleet.store.evictions", fleet.evictions, "count");
    result.push(
        "fleet.admission.rejected_share",
        fleet.rejected_share,
        "share",
    );
    result.push("fleet.attempts_per_user", fleet.attempts_per_user, "count");
    result.push(
        "runtime.parallel_efficiency",
        fleet.parallel_efficiency,
        "share",
    );
    result.push(
        "telemetry.overhead_share",
        recorded.wall / plain.wall - 1.0,
        "share",
    );
    result.push("telemetry.to_json_ms", 1e3 * to_json_s, "ms");
    result.push(
        "trace.overhead_share",
        stamped.wall / plain.wall - 1.0,
        "share",
    );
    result
}

/// Attempts the motion filter ended (skip or mismatch) ÷ attempts.
fn motion_exit_share(snapshot: &MetricsSnapshot) -> f64 {
    let exits =
        snapshot.outcome("unlocked_motion_skip") + snapshot.outcome("denied_motion_mismatch");
    exits as f64 / snapshot.attempts.max(1) as f64
}

/// Fleet-only per-layer figures; all zero for `session_direct`, whose
/// calls bypass the fleet layers.
#[derive(Debug, Default)]
struct FleetLayers {
    users_per_s: f64,
    parallel_efficiency: f64,
    hit_ratio: f64,
    creations: f64,
    evictions: f64,
    rejected_share: f64,
    attempts_per_user: f64,
    motion_exit_share: f64,
    allocs_per_attempt: f64,
    to_json_s: f64,
}

/// Times population generation directly, runs the fleet at one worker
/// per core for the engine's store, admission, funnel and allocation
/// counters, and runs a quarter-size fleet (same shards and stores) at
/// one worker and at one per core: the two reports must agree bit for
/// bit, and their wall times give the parallel efficiency.
fn fleet_layers(config: &FleetConfig, result: &mut RunResult) -> FleetLayers {
    let engine = FleetEngine::new(*config);
    let pop = engine.population();
    let start = Instant::now();
    let mut generated = 0usize;
    for user in 0..pop.len() {
        let profile = pop.profile(user);
        generated += pop
            .arrivals(&profile, config.duration_s, config.max_attempts_per_user)
            .len();
    }
    std::hint::black_box(generated);
    let users_per_s = pop.len() as f64 / start.elapsed().as_secs_f64();

    let parallel = SweepRunner::new(0);
    let metrics = MetricsRecorder::new();
    let allocs_before = allocations();
    let report = engine.run(&parallel, &metrics);
    let allocs = allocations() - allocs_before;
    let json_start = Instant::now();
    let json = metrics.to_json();
    let to_json_s = json_start.elapsed().as_secs_f64();

    let quarter = FleetEngine::new(FleetConfig {
        users: (config.users / 4).max(1),
        ..*config
    });
    let timed_run = |runner: &SweepRunner| {
        let metrics = MetricsRecorder::new();
        let start = Instant::now();
        let report = quarter.run(runner, &metrics);
        (report, metrics.to_json(), start.elapsed().as_secs_f64())
    };
    let (report_1, json_1, wall_1) = timed_run(&SweepRunner::serial());
    let (report_n, json_n, wall_n) = timed_run(&parallel);

    result.attempted += report.accepted + report_1.accepted + report_n.accepted;
    let ok = report_1 == report_n
        && json_1 == json_n
        && !json.is_empty()
        && report.arrivals == report.accepted + report.rejected
        && report.unlocked <= report.accepted
        && report.evictions_within_budget();
    if !ok {
        eprintln!(
            "wearlock-perfbench: fleet check failed: {report:?}, {report_1:?} vs {report_n:?}"
        );
        result.failed += report.accepted;
        result.checks_ok = false;
    }
    let accepted = report.accepted.max(1) as f64;
    println!(
        "fleet accepted={} creations={} evictions={} quarter_fleet_wall_1_worker_s={wall_1} \
         quarter_fleet_wall_{}_workers_s={wall_n}",
        report.accepted,
        report.session_creations,
        report.evictions,
        parallel.threads(),
    );
    FleetLayers {
        users_per_s,
        parallel_efficiency: wall_1 / (parallel.threads() as f64 * wall_n),
        hit_ratio: 1.0 - report.session_creations as f64 / accepted,
        creations: report.session_creations as f64,
        evictions: report.evictions as f64,
        rejected_share: report.rejected as f64 / report.arrivals.max(1) as f64,
        attempts_per_user: report.arrivals as f64 / report.users.max(1) as f64,
        motion_exit_share: motion_exit_share(&metrics.snapshot()),
        allocs_per_attempt: allocs as f64 / accepted,
        to_json_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_are_charged_to_the_layer_between_the_marks() {
        let stage = Mark::Stage;
        assert_eq!(
            layer_between(Mark::Start, stage("wireless:handshake")),
            Layer::Link
        );
        assert_eq!(
            layer_between(
                stage("wireless:handshake"),
                stage("wireless:sensor-transfer")
            ),
            Layer::SensorSynth
        );
        assert_eq!(
            layer_between(stage("compute:motion-filter"), Mark::AttemptEnd),
            Layer::MotionFilter
        );
        assert_eq!(
            layer_between(stage("compute:motion-filter"), stage("audio:phase1")),
            Layer::Phase1Tx
        );
        assert_eq!(
            layer_between(stage("compute:phase1-probing"), Mark::AttemptEnd),
            Layer::AnalyzeProbe
        );
        assert_eq!(
            layer_between(stage("wireless:verdict"), Mark::AttemptEnd),
            Layer::Demodulate
        );
        assert_eq!(layer_between(Mark::AttemptEnd, Mark::Retry), Layer::Link);
    }
}
