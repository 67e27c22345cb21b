//! Telemetry contract: observing an attempt never changes it, the
//! funnel counters agree with the `AttemptReport` outcomes they
//! summarize, and the recorded spans reconcile with the report's own
//! delay/energy accounting.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wearlock::config::WearLockConfig;
use wearlock::environment::Environment;
use wearlock::session::{outcome_event, AttemptOptions, UnlockSession};
use wearlock_runtime::SweepRunner;
use wearlock_telemetry::{AttemptOutcome, EventSink, MetricsRecorder, NullSink};

const SEED: u64 = 20170605;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn session() -> UnlockSession {
    UnlockSession::new(WearLockConfig::default()).expect("default config is valid")
}

#[test]
fn observing_an_attempt_does_not_change_it() {
    // Same seed with and without a sink: the sink must be write-only —
    // identical reports, bit for bit.
    let env = Environment::default();
    let metrics = MetricsRecorder::new();
    let plain = session().run(&env, &AttemptOptions::new(), &mut rng(7));
    let observed = session().run(&env, &AttemptOptions::new().sink(&metrics), &mut rng(7));
    assert_eq!(format!("{plain:?}"), format!("{observed:?}"));

    // An explicit NullSink must also match.
    let null = session().run(&env, &AttemptOptions::new().sink(&NullSink), &mut rng(7));
    assert_eq!(format!("{plain:?}"), format!("{null:?}"));
}

#[test]
fn spans_reconcile_with_the_attempt_report() {
    let env = Environment::default();
    let metrics = MetricsRecorder::new();
    let series = session().run(&env, &AttemptOptions::new().sink(&metrics), &mut rng(7));
    let report = series.final_attempt();
    assert!(report.outcome.unlocked(), "{report:?}");

    let snap = metrics.snapshot();
    assert_eq!(metrics.attempts(), 1);
    assert_eq!(metrics.outcome_count(outcome_event(report.outcome)), 1);
    // One span per labelled delay, and each stage's recorded latency is
    // exactly the report's entry for it.
    let span_count: u64 = snap.stages.values().map(|s| s.latency_s.count).sum();
    assert_eq!(span_count, report.delays.len() as u64);
    for &(stage, delay) in &report.delays {
        let s = snap.stages.get(stage).unwrap_or_else(|| {
            panic!(
                "stage {stage} missing from metrics: {:?}",
                snap.stages.keys()
            )
        });
        assert_eq!(
            s.latency_s.sum.to_bits(),
            delay.value().to_bits(),
            "{stage}"
        );
    }
    // Totals reconcile (re-summed in stage-name order, so compare to
    // within float reassociation error, not bitwise).
    assert!((snap.total_latency_s() - report.total_delay.value()).abs() < 1e-9);
    assert!((snap.total_watch_energy_j() - report.watch_energy_j).abs() < 1e-9);
    assert!((snap.total_phone_energy_j() - report.phone_energy_j).abs() < 1e-9);
}

#[test]
fn funnel_counts_match_attempt_outcomes() {
    // The funnel sweep returns each attempt's outcome (derived from the
    // AttemptReport) while the recorder counts AttemptEvents emitted
    // inside the session — two independent paths that must tally.
    let metrics = MetricsRecorder::new();
    let outcomes = wearlock_bench::funnel::run(3, SEED, &SweepRunner::serial(), &metrics);
    assert_eq!(metrics.attempts(), outcomes.len() as u64);
    for o in AttemptOutcome::ALL {
        let n = outcomes.iter().filter(|&&x| x == o).count() as u64;
        assert_eq!(metrics.outcome_count(o), n, "{}", o.name());
    }
    // The scenario mix must actually exercise the funnel: unlocks AND
    // several distinct denial reasons.
    let distinct_denials = AttemptOutcome::ALL
        .iter()
        .filter(|o| !o.unlocked() && metrics.outcome_count(**o) > 0)
        .count();
    assert!(metrics.outcome_count(AttemptOutcome::UnlockedAcoustic) > 0);
    assert!(
        distinct_denials >= 3,
        "only {distinct_denials} denial kinds"
    );
}

#[test]
fn early_denial_emits_no_acoustic_stages() {
    // A wireless-gate denial never reaches the acoustic pipeline: the
    // recorder must hold only the handshake span and the funnel entry.
    let env = Environment::builder().wireless_in_range(false).build();
    let metrics = MetricsRecorder::new();
    let series = session().run(&env, &AttemptOptions::new().sink(&metrics), &mut rng(1));
    let report = series.final_attempt();
    assert!(!report.outcome.unlocked());
    assert!(report.data_channels.is_empty());
    let snap = metrics.snapshot();
    assert_eq!(
        metrics.outcome_count(AttemptOutcome::DeniedNoWirelessLink),
        1
    );
    assert!(
        snap.stages.keys().all(|s| !s.starts_with("audio:")),
        "{:?}",
        snap.stages.keys()
    );
}

#[test]
fn a_disabled_sink_records_nothing() {
    assert!(!NullSink.enabled());
    let env = Environment::default();
    session().run(&env, &AttemptOptions::new().sink(&NullSink), &mut rng(7));
    // And a recorder used as a sink is enabled and fills up.
    let metrics = MetricsRecorder::new();
    assert!(metrics.enabled());
    session().run(&env, &AttemptOptions::new().sink(&metrics), &mut rng(7));
    assert_eq!(metrics.attempts(), 1);
    assert!(!metrics.snapshot().stages.is_empty());
}
