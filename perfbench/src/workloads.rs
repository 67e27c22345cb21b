//! Workload inputs and the timed (untraced) runs.
//!
//! Every input is a pure function of the `--seed` argument; the library
//! only ever sees the generated configs, environments, fault plans and
//! attempt seeds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wearlock::config::{NamedConfig, WearLockConfig};
use wearlock::environment::{Environment, MotionScenario};
use wearlock::session::{
    AttemptOptions, AttemptSummary, ResilienceReport, ResilientOutcome, RetryPolicy, UnlockPath,
    UnlockSession,
};
use wearlock_acoustics::channel::PathKind;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;
use wearlock_faults::{plan_seed, FaultConfig, FaultIntensity, FaultPlan};
use wearlock_fleet::{FleetConfig, FleetEngine, FleetReport, UserPopulation};
use wearlock_runtime::SweepRunner;
use wearlock_sensors::Activity;
use wearlock_telemetry::{EventSink, MetricsRecorder, NullSink};

use crate::{
    median, peak_rss_mb, percentile, process_cpu_s, thread_cpu_s, Args, Digest, RunResult, Workload,
};

/// Set-up repetitions before the timed window (the first one cold);
/// `setup_s` is the median of these and the ones made later in the run.
/// Repeating at several moments of the run keeps a few slow seconds on a
/// shared host from moving the median.
const SETUP_REPS_BEFORE: usize = 3;

/// Set-up repetitions after the `session_direct` window and after each
/// fleet run.
const SETUP_REPS_AFTER: usize = 3;

/// Fewest fleet runs a timed run makes. A `fleet_steady` run fills the
/// window by itself; `fleet_churn` runs are short, so the window holds
/// several and `attempts_per_cpu_s` is their median.
const MIN_FLEET_RUNS: usize = 1;

/// Domain tag of the warm-up attempt seeds (never reused by a job).
const WARMUP_TAG: u64 = 0x5741_524d; // "WARM"

/// The fleet configuration of a fleet workload.
pub fn fleet_config(workload: Workload, seed: u64, tiny: bool) -> FleetConfig {
    let base = FleetConfig {
        seed,
        queue_budget: 16,
        max_attempts_per_user: 32,
        ..FleetConfig::default()
    };
    match (workload, tiny) {
        // 9 users per shard and 12 store slots: no evictions, ~4
        // attempts per user, so most attempts find a warm session. The
        // users' profiles differ in cost, so a population this large
        // keeps the mix, and with it the rate, close from seed to seed.
        (Workload::FleetSteady, false) => FleetConfig {
            users: 576,
            duration_s: 600.0,
            mean_arrival_rate_hz: 1.0 / 150.0,
            session_capacity: 12,
            ..base
        },
        // 100k users over 128 store slots at ~0.007 attempts per user:
        // nearly every attempt creates a session and evicts one.
        (Workload::FleetChurn, false) => FleetConfig {
            users: 100_000,
            duration_s: 300.0,
            mean_arrival_rate_hz: 700.0 / (100_000.0 * 300.0),
            session_capacity: 2,
            ..base
        },
        (Workload::FleetSteady, true) => FleetConfig {
            users: 16,
            shards: 4,
            duration_s: 300.0,
            mean_arrival_rate_hz: 1.0 / 150.0,
            session_capacity: 1,
            ..base
        },
        (Workload::FleetChurn, true) => FleetConfig {
            users: 2_000,
            shards: 4,
            duration_s: 300.0,
            mean_arrival_rate_hz: 20.0 / (2_000.0 * 300.0),
            session_capacity: 1,
            ..base
        },
        (Workload::SessionDirect, _) => unreachable!("session_direct has no fleet"),
    }
}

/// Simulated users (sessions) and run calls of one `session_direct`
/// pass.
pub fn session_direct_size(tiny: bool) -> (usize, usize) {
    if tiny {
        (4, 16)
    } else {
        (32, 1_200)
    }
}

/// One `UnlockSession::run` call: which user's session, in what world,
/// under which faults and retry policy, with which RNG seed.
#[derive(Debug, Clone)]
pub struct Job {
    pub user: usize,
    pub env: Environment,
    pub faults: FaultPlan,
    pub retry: Option<RetryPolicy>,
    pub seed: u64,
}

/// A job list plus the configuration of each user's session. Each
/// user's jobs run in list order on that user's own session.
#[derive(Debug, Clone, Default)]
pub struct JobSet {
    pub users: Vec<NamedConfig>,
    pub jobs: Vec<Job>,
}

const LOCATIONS: [Location; 5] = [
    Location::QuietRoom,
    Location::Office,
    Location::ClassRoom,
    Location::Cafe,
    Location::GroceryStore,
];

/// The `session_direct` inputs. The categorical mix is stratified by
/// job index (the same shares for every seed, so seeds change worlds,
/// not the workload's composition): the five Table I locations, one job
/// in seven body-blocked, co-located sitting / walking and different
/// motion 7:2:1, Config1–3 round-robin over users, and one job in four
/// fault-exposed with the default retry ladder (which re-probes). The
/// seed draws distances (0.15–1 m), block depths, fault intensities and
/// every attempt's RNG stream.
pub fn session_direct_jobs(seed: u64, users: usize, jobs: usize) -> JobSet {
    let mut rng = StdRng::seed_from_u64(plan_seed(seed, 0x5345_5353)); // "SESS"
    let job_list = (0..jobs)
        .map(|i| {
            let path = if i % 7 == 3 {
                PathKind::BodyBlocked {
                    block_db: 4.0 + 14.0 * rng.gen::<f64>(),
                }
            } else {
                PathKind::LineOfSight
            };
            let motion = match i % 10 {
                0..=6 => MotionScenario::CoLocated {
                    activity: Activity::Sitting,
                },
                7..=8 => MotionScenario::CoLocated {
                    activity: Activity::Walking,
                },
                _ => MotionScenario::Different {
                    phone: Activity::Walking,
                    watch: Activity::Running,
                },
            };
            let env = Environment::builder()
                .location(LOCATIONS[i % LOCATIONS.len()])
                .distance(Meters(0.15 + 0.85 * rng.gen::<f64>()))
                .path(path)
                .motion(motion)
                .build();
            let level = 0.2 + 0.3 * rng.gen::<f64>();
            let job_seed = plan_seed(seed, i as u64);
            let (faults, retry) = if i % 4 == 1 {
                let config = FaultConfig::new(job_seed ^ 1, FaultIntensity::uniform(level));
                (FaultPlan::derive(&config, 0), Some(RetryPolicy::default()))
            } else {
                (FaultPlan::none(), None)
            };
            Job {
                user: i % users,
                env,
                faults,
                retry,
                seed: job_seed,
            }
        })
        .collect();
    JobSet {
        users: (0..users).map(|u| NamedConfig::ALL[u % 3]).collect(),
        jobs: job_list,
    }
}

/// The first `max_jobs` attempts of a fleet's population, user by user
/// in attempt order, with the attempt seeds and fault plans the fleet
/// engine derives for them. The traced run times these through
/// `UnlockSession::run`, because `FleetEngine::run` exposes no
/// per-attempt timing.
pub fn fleet_population_jobs(config: &FleetConfig, max_jobs: usize) -> JobSet {
    let engine = FleetEngine::new(*config);
    let pop = engine.population();
    let mut set = JobSet::default();
    for user in 0..pop.len() {
        if set.jobs.len() >= max_jobs {
            break;
        }
        let profile = pop.profile(user);
        let arrivals = pop.arrivals(&profile, config.duration_s, config.max_attempts_per_user);
        if arrivals.is_empty() {
            continue;
        }
        let local = set.users.len();
        set.users.push(profile.named);
        for k in 0..arrivals.len() as u64 {
            set.jobs.push(Job {
                user: local,
                env: profile.env.clone(),
                faults: FaultPlan::derive(&profile.faults, k),
                retry: None,
                seed: UserPopulation::attempt_seed(&profile, k),
            });
        }
    }
    set
}

/// A session for `named`.
pub fn new_session(named: NamedConfig) -> UnlockSession {
    let config = WearLockConfig::builder()
        .named(named)
        .build()
        .expect("paper configs are valid");
    UnlockSession::new(config).expect("valid configs make sessions")
}

/// One session per user of `set`, each warmed by one untimed attempt
/// in its first job's world (grows the FFT plan cache and the session's
/// scratch before anything is timed).
pub fn warm_sessions(set: &JobSet) -> Vec<UnlockSession> {
    set.users
        .iter()
        .enumerate()
        .map(|(u, &named)| {
            let mut session = new_session(named);
            let env = set
                .jobs
                .iter()
                .find(|j| j.user == u)
                .map(|j| j.env.clone())
                .unwrap_or_default();
            let mut rng = StdRng::seed_from_u64(plan_seed(WARMUP_TAG, u as u64));
            let _ = session.run(&env, &AttemptOptions::new(), &mut rng);
            if session.lockout().is_locked_out() {
                session.enter_pin();
            }
            session
        })
        .collect()
}

/// Runs one job; returns the report and the host wall time of the
/// `UnlockSession::run` call alone. A lockout is cleared by PIN entry
/// afterwards, so it never short-circuits the user's later jobs.
pub fn run_job(
    session: &mut UnlockSession,
    job: &Job,
    sink: &dyn EventSink,
) -> (ResilienceReport, f64) {
    let mut options = AttemptOptions::new().fault_plan(job.faults).sink(sink);
    if let Some(policy) = job.retry {
        options = options.retry_policy(policy);
    }
    let mut rng = StdRng::seed_from_u64(job.seed);
    let start = Instant::now();
    let report = session.run(&job.env, &options, &mut rng);
    let elapsed = start.elapsed().as_secs_f64();
    if session.lockout().is_locked_out() {
        session.enter_pin();
    }
    (report, elapsed)
}

/// The per-report output check: a series has attempts within its
/// budget, a finite non-negative delay, and an acoustic unlock carries
/// the mode it unlocked with.
pub fn report_ok(report: &ResilienceReport, job: &Job) -> bool {
    let budget = job.retry.map_or(1, |p| p.max_attempts as usize);
    let delay = report.total_delay().value();
    let mode_ok = match report.outcome {
        ResilientOutcome::Unlocked(UnlockPath::Acoustic(mode)) => {
            report.final_attempt().mode == Some(mode)
        }
        _ => true,
    };
    !report.attempts.is_empty()
        && report.attempts.len() <= budget
        && delay.is_finite()
        && delay >= 0.0
        && mode_ok
}

/// Digest contribution of one job's report.
pub fn digest_report(digest: &mut Digest, index: usize, report: &ResilienceReport) {
    digest.update(&(index as u64).to_le_bytes());
    digest.update(format!("{:?}", report.outcome).as_bytes());
    digest.update(&(report.attempts.len() as u64).to_le_bytes());
    digest.update(&report.total_delay().value().to_bits().to_le_bytes());
}

/// Short outcome label for the printed outcome mix.
pub fn outcome_label(report: &ResilienceReport) -> String {
    match report.outcome {
        ResilientOutcome::Unlocked(UnlockPath::MotionSkip) => "unlocked_motion_skip".into(),
        ResilientOutcome::Unlocked(UnlockPath::Acoustic(_)) => "unlocked_acoustic".into(),
        ResilientOutcome::PinFallback => "pin_fallback".into(),
        ResilientOutcome::Denied(reason) => format!("denied_{reason:?}"),
    }
}

/// One throwaway attempt per paper config, so the FFT plan cache holds
/// every size the workload needs before anything is timed.
pub fn warm_fft_cache() {
    for named in NamedConfig::ALL {
        let mut session = new_session(named);
        let mut rng = StdRng::seed_from_u64(plan_seed(WARMUP_TAG, 99));
        let _ = session.run(&Environment::default(), &AttemptOptions::new(), &mut rng);
    }
}

/// Entry point of the timed (untraced) run.
pub fn run(args: &Args) -> RunResult {
    match args.workload {
        Workload::SessionDirect => session_direct(args),
        w => fleet(args, fleet_config(w, args.seed, args.tiny)),
    }
}

fn finish(result: &mut RunResult, attempts_per_cpu_s: f64, setup: &[f64]) {
    result.push("attempts_per_cpu_s", attempts_per_cpu_s, "1/s");
    result.push("setup_s", median(setup), "s");
    match peak_rss_mb() {
        Some(mb) => result.push("peak_rss_mb", mb, "MiB"),
        None => {
            eprintln!("wearlock-perfbench: cannot read VmHWM from /proc/self/status");
            result.checks_ok = false;
            result.push("peak_rss_mb", f64::NAN, "MiB");
        }
    }
}

/// Fleet workloads: `FleetEngine::run` at one worker per core, repeated
/// while the next repeat is predicted to end within the time (at least
/// [`MIN_FLEET_RUNS`] times), with untimed set-ups after each run.
/// Every repeat must reproduce the first report and telemetry bit for
/// bit. A run's rate is its accepted attempts ÷ the CPU seconds of all
/// its workers; the wall-clock rate is printed beside it.
fn fleet(args: &Args, config: FleetConfig) -> RunResult {
    let set_up = || {
        let start = thread_cpu_s();
        warm_fft_cache();
        let engine = FleetEngine::new(config);
        (engine, thread_cpu_s() - start)
    };
    let mut setup = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS_BEFORE {
        let (e, s) = set_up();
        setup.push(s);
        engine = Some(e);
    }
    let engine = engine.expect("set up at least once");
    let runner = SweepRunner::new(0);

    let mut result = RunResult {
        checks_ok: true,
        ..RunResult::default()
    };
    let mut first: Option<(FleetReport, String)> = None;
    let mut rates = Vec::new();
    let mut wall_rates = Vec::new();
    let window = Instant::now();
    let mut last_wall = 0.0;
    while rates.len() < MIN_FLEET_RUNS || window.elapsed().as_secs_f64() + last_wall <= args.seconds
    {
        let metrics = MetricsRecorder::new();
        let start = Instant::now();
        let cpu_start = process_cpu_s();
        let run = catch_unwind(AssertUnwindSafe(|| engine.run(&runner, &metrics)));
        let cpu = process_cpu_s() - cpu_start;
        let wall = start.elapsed().as_secs_f64();
        last_wall = wall;
        let Ok(report) = run else {
            // A panicking run: charge the attempts the first run made.
            result.attempted += first.as_ref().map_or(1, |f| f.0.accepted);
            result.failed += first.as_ref().map_or(1, |f| f.0.accepted);
            result.checks_ok = false;
            break;
        };
        result.attempted += report.accepted;
        let json = metrics.to_json();
        let ok = report.accepted > 0
            && report.arrivals == report.accepted + report.rejected
            && report.unlocked <= report.accepted
            && report.evictions_within_budget()
            && metrics.snapshot().attempts == report.accepted
            && first
                .as_ref()
                .is_none_or(|(r, j)| *r == report && *j == json);
        if !ok {
            eprintln!("wearlock-perfbench: fleet output check failed: {report:?}");
            result.failed += report.accepted;
        }
        rates.push(report.accepted as f64 / cpu);
        wall_rates.push(report.accepted as f64 / wall);
        if first.is_none() {
            first = Some((report, json));
        }
        for _ in 0..SETUP_REPS_AFTER {
            setup.push(set_up().1);
        }
    }
    let (report, json) = first.expect("ran at least once");
    let mut digest = Digest::default();
    digest.update(format!("{report:?}").as_bytes());
    digest.update(json.as_bytes());
    println!(
        "fleet users={} shards={} session_capacity={} workers={} runs={} arrivals={} accepted={} \
         rejected={} unlocked={} creations={} evictions={} store_hit_ratio={:.4} \
         attempts_per_s={} cpu_rates={rates:?} wall_rates={wall_rates:?}",
        config.users,
        config.shards,
        config.session_capacity,
        runner.threads(),
        rates.len(),
        report.arrivals,
        report.accepted,
        report.rejected,
        report.unlocked,
        report.session_creations,
        report.evictions,
        1.0 - report.session_creations as f64 / report.accepted.max(1) as f64,
        median(&wall_rates),
    );
    println!(
        "outcomes unlock_rate={} sim_unlock_delay_p50_s={} sim_unlock_delay_p99_s={} \
         error_rate={} outcome_digest={}",
        report.unlock_rate,
        report.p50_latency_s,
        report.p99_latency_s,
        result.failed as f64 / result.attempted.max(1) as f64,
        digest.hex()
    );
    finish(&mut result, median(&rates), &setup);
    result
}

/// What one `session_direct` client thread measured.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<f64>,
    /// `(job index, report)` of the client's first pass.
    first_pass: Vec<(usize, ResilienceReport)>,
    calls: u64,
    failed: u64,
}

/// `session_direct`: one client thread per core, each owning the
/// sessions of the users `u % clients == client` and calling
/// `UnlockSession::run` back to back over their jobs, pass after pass,
/// until the time is up. The first pass always completes; its outcomes
/// make the digest, which is therefore independent of the client count.
/// The rate is the calls made ÷ the CPU seconds all clients used.
fn session_direct(args: &Args) -> RunResult {
    let (users, jobs) = session_direct_size(args.tiny);
    let set_up = || {
        let start = thread_cpu_s();
        let set = session_direct_jobs(args.seed, users, jobs);
        let sessions = warm_sessions(&set);
        (set, sessions, thread_cpu_s() - start)
    };
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS_BEFORE {
        let (set, sessions, s) = set_up();
        setup.push(s);
        prepared = Some((set, sessions));
    }
    let (set, sessions) = prepared.expect("set up at least once");
    let sessions: Vec<Mutex<UnlockSession>> = sessions.into_iter().map(Mutex::new).collect();
    let clients = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(users);

    let window = Instant::now();
    let cpu_start = process_cpu_s();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let set = &set;
                let sessions = &sessions;
                scope.spawn(move || {
                    let mine: Vec<usize> = (0..set.jobs.len())
                        .filter(|&i| set.jobs[i].user % clients == client)
                        .collect();
                    let mut log = ClientLog::default();
                    let mut pass = 0usize;
                    'passes: loop {
                        for &i in &mine {
                            if pass > 0 && window.elapsed().as_secs_f64() >= args.seconds {
                                break 'passes;
                            }
                            let job = &set.jobs[i];
                            let mut session =
                                sessions[job.user].lock().expect("no poisoned sessions");
                            log.calls += 1;
                            match catch_unwind(AssertUnwindSafe(|| {
                                run_job(&mut session, job, &NullSink)
                            })) {
                                Ok((report, elapsed)) => {
                                    log.latencies.push(elapsed);
                                    if !report_ok(&report, job) {
                                        log.failed += 1;
                                    }
                                    if pass == 0 {
                                        log.first_pass.push((i, report));
                                    }
                                }
                                Err(_) => log.failed += 1,
                            }
                        }
                        pass += 1;
                        if window.elapsed().as_secs_f64() >= args.seconds {
                            break;
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let cpu = process_cpu_s() - cpu_start;
    let wall = window.elapsed().as_secs_f64();
    drop(sessions);
    for _ in 0..SETUP_REPS_AFTER {
        setup.push(set_up().2);
    }

    let mut result = RunResult {
        checks_ok: true,
        ..RunResult::default()
    };
    let mut latencies = Vec::new();
    let mut first_pass = Vec::new();
    for log in logs {
        result.attempted += log.calls;
        result.failed += log.failed;
        latencies.extend(log.latencies);
        first_pass.extend(log.first_pass);
    }
    first_pass.sort_by_key(|(i, _)| *i);
    if first_pass.len() != set.jobs.len() {
        result.checks_ok = false;
    }
    let mut digest = Digest::default();
    let mut mix = std::collections::BTreeMap::<String, u64>::new();
    let mut delays = Vec::new();
    let mut unlocked = 0u64;
    for (i, report) in &first_pass {
        digest_report(&mut digest, *i, report);
        *mix.entry(outcome_label(report)).or_default() += 1;
        delays.push(report.total_delay().value());
        unlocked += u64::from(report.unlocked());
    }
    delays.sort_by(f64::total_cmp);
    latencies.sort_by(f64::total_cmp);
    let unlock_rate = unlocked as f64 / first_pass.len().max(1) as f64;
    println!(
        "session users={users} jobs_per_pass={jobs} clients={clients} calls={} wall_s={wall} \
         cpu_s={cpu} attempts_per_s={} attempt_p50_ms={} attempt_p99_ms={} latency_samples={}",
        result.attempted,
        result.attempted as f64 / wall,
        1e3 * percentile(&latencies, 0.50),
        1e3 * percentile(&latencies, 0.99),
        latencies.len()
    );
    println!(
        "outcomes unlock_rate={unlock_rate} sim_unlock_delay_p50_s={} sim_unlock_delay_p99_s={} \
         error_rate={} outcome_digest={} mix={mix:?}",
        percentile(&delays, 0.50),
        percentile(&delays, 0.99),
        result.failed as f64 / result.attempted.max(1) as f64,
        digest.hex()
    );
    let attempts_per_cpu_s = result.attempted as f64 / cpu;
    finish(&mut result, attempts_per_cpu_s, &setup);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_direct_mix_is_stratified_and_seeded() {
        let a = session_direct_jobs(1, 8, 140);
        let b = session_direct_jobs(2, 8, 140);
        let blocked = |set: &JobSet| {
            set.jobs
                .iter()
                .filter(|j| matches!(j.env.path, PathKind::BodyBlocked { .. }))
                .count()
        };
        let retried = |set: &JobSet| set.jobs.iter().filter(|j| j.retry.is_some()).count();
        assert_eq!(blocked(&a), 20);
        assert_eq!(blocked(&a), blocked(&b));
        assert_eq!(retried(&a), 35);
        assert_eq!(retried(&a), retried(&b));
        assert_ne!(a.jobs[0].seed, b.jobs[0].seed);
        assert_eq!(
            format!("{:?}", session_direct_jobs(1, 8, 140).jobs),
            format!("{:?}", a.jobs)
        );
    }

    #[test]
    fn fleet_population_jobs_follow_the_engine_seeds() {
        let config = fleet_config(Workload::FleetSteady, 9, true);
        let set = fleet_population_jobs(&config, 12);
        assert!(set.jobs.len() >= 12);
        let pop = *FleetEngine::new(config).population();
        let first = pop.profile(0);
        if !pop
            .arrivals(&first, config.duration_s, config.max_attempts_per_user)
            .is_empty()
        {
            assert_eq!(set.jobs[0].seed, UserPopulation::attempt_seed(&first, 0));
        }
    }
}
