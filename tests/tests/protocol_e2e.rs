//! End-to-end protocol behaviour across the whole stack: core session +
//! modem + acoustics + auth + sensors + platform.

use wearlock::environment::{Environment, MotionScenario};
use wearlock::session::{AttemptOptions, DenyReason, Outcome, UnlockPath};
use wearlock_acoustics::channel::PathKind;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;
use wearlock_sensors::Activity;
use wearlock_tests::{default_session, rng, unlock_rate};

#[test]
fn benign_unlock_succeeds_reliably() {
    let rate = unlock_rate(&Environment::default(), 10, 1);
    assert!(rate >= 0.8, "benign unlock rate {rate}");
}

#[test]
fn unlock_rate_collapses_with_distance() {
    let near = unlock_rate(&Environment::builder().distance(Meters(0.3)).build(), 8, 2);
    let far = unlock_rate(&Environment::builder().distance(Meters(3.5)).build(), 8, 3);
    assert!(near > 0.7, "near {near}");
    assert!(far < 0.3, "far {far}");
}

#[test]
fn every_location_supports_close_range_unlocks() {
    for (i, loc) in Location::FIELD_TEST.iter().enumerate() {
        let env = Environment::builder()
            .location(*loc)
            .distance(Meters(0.25))
            .build();
        let rate = unlock_rate(&env, 6, 10 + i as u64);
        // The loudest environment pins the speaker at its volume
        // ceiling; per-attempt success drops there (users retry, per
        // the case study).
        let floor = if *loc == Location::GroceryStore {
            0.33
        } else {
            0.5
        };
        assert!(rate >= floor, "{loc}: rate {rate}");
    }
}

/// The rate behind the Grocery Store floor of
/// `every_location_supports_close_range_unlocks`. Five sweeps of 600
/// attempts (base seeds `k << 20`, k = 1..=5, so no two share a task
/// stream) unlocked 2 107 of 3 000 (70.2 %), whose one-sided 99.9 %
/// Clopper–Pearson lower limit is 67.6 %; 600 attempts at that rate fall
/// below 370 unlocks with probability ≤ 0.1 %.
#[test]
#[ignore = "600 attempts, release mode: cargo test --release -p wearlock -p wearlock-tests -- --ignored floor_rate"]
fn floor_rate_grocery_store_close_range_unlocks() {
    let env = Environment::builder()
        .location(Location::GroceryStore)
        .distance(Meters(0.25))
        .build();
    let attempts = 600;
    let unlocked = (unlock_rate(&env, attempts, 6 << 20) * attempts as f64).round();
    assert!(
        unlocked >= 370.0,
        "{unlocked} of {attempts} attempts unlocked"
    );
}

#[test]
fn the_four_deny_paths_trigger() {
    let mut session = default_session();
    let mut r = rng(42);

    // 1. No wireless.
    let series = session.run(
        &Environment::builder().wireless_in_range(false).build(),
        &AttemptOptions::new(),
        &mut r,
    );
    let rep = series.final_attempt();
    assert_eq!(rep.outcome, Outcome::Denied(DenyReason::NoWirelessLink));

    // 2. Motion mismatch.
    let series = session.run(
        &Environment::builder()
            .motion(MotionScenario::Different {
                phone: Activity::Running,
                watch: Activity::Walking,
            })
            .build(),
        &AttemptOptions::new(),
        &mut r,
    );
    let rep = series.final_attempt();
    assert_eq!(rep.outcome, Outcome::Denied(DenyReason::MotionMismatch));

    // 3. Out of acoustic range: probe not detected or SNR too low.
    let series = session.run(
        &Environment::builder()
            .distance(Meters(6.0))
            .location(Location::GroceryStore)
            .build(),
        &AttemptOptions::new(),
        &mut r,
    );
    let rep = series.final_attempt();
    assert!(
        matches!(
            rep.outcome,
            Outcome::Denied(
                DenyReason::ProbeNotDetected
                    | DenyReason::SnrTooLow
                    | DenyReason::TokenRejected
                    | DenyReason::AmbientMismatch
                    // A barely-detectable far signal has a smeared
                    // correlation profile, which can read as NLOS.
                    | DenyReason::NlosDetected
            )
        ),
        "far outcome {:?}",
        rep.outcome
    );

    // 4. Severe body blocking: NLOS or PHY failure.
    session.enter_pin();
    let series = session.run(
        &Environment::builder()
            .path(PathKind::BodyBlocked { block_db: 32.0 })
            .build(),
        &AttemptOptions::new(),
        &mut r,
    );
    let rep = series.final_attempt();
    assert!(
        !rep.outcome.unlocked(),
        "blocked path unlocked: {:?}",
        rep.outcome
    );
}

#[test]
fn walking_together_uses_motion_skip_and_saves_audio() {
    let mut session = default_session();
    let mut r = rng(7);
    let env = Environment::builder()
        .motion(MotionScenario::CoLocated {
            activity: Activity::Walking,
        })
        .build();
    let mut skip_delays = Vec::new();
    let mut acoustic_delays = Vec::new();
    for _ in 0..10 {
        let series = session.run(&env, &AttemptOptions::new(), &mut r);
        let rep = series.final_attempt();
        match rep.outcome {
            Outcome::Unlocked(UnlockPath::MotionSkip) => skip_delays.push(rep.total_delay.value()),
            Outcome::Unlocked(UnlockPath::Acoustic(_)) => {
                acoustic_delays.push(rep.total_delay.value())
            }
            _ => {}
        }
        session.enter_pin();
    }
    assert!(
        skip_delays.len() >= 5,
        "expected mostly skips, got {}",
        skip_delays.len()
    );
    if let (Some(&skip), Some(&full)) = (skip_delays.first(), acoustic_delays.first()) {
        assert!(skip < full, "skip {skip} should be faster than full {full}");
    }
}

#[test]
fn counter_advances_and_tokens_never_repeat() {
    let mut session = default_session();
    let mut r = rng(8);
    let env = Environment::default();
    let c0 = session.last_counter();
    for _ in 0..3 {
        let _ = session.run(&env, &AttemptOptions::new(), &mut r);
    }
    // At least the acoustic attempts burned counters.
    assert!(session.last_counter() > c0);
}

#[test]
fn keyguard_tracks_outcomes() {
    let mut session = default_session();
    let mut r = rng(9);
    let series = session.run(&Environment::default(), &AttemptOptions::new(), &mut r);
    let rep = series.final_attempt();
    if rep.outcome.unlocked() {
        assert_eq!(
            session.keyguard().state(),
            wearlock_platform::keyguard::LockState::Unlocked
        );
        assert_eq!(session.keyguard().unlock_count(), 1);
    }
}

#[test]
fn near_ultrasound_band_works_phone_to_phone() {
    use wearlock::config::WearLockConfig;
    use wearlock::session::UnlockSession;
    use wearlock_modem::config::FrequencyBand;

    let config = WearLockConfig::builder()
        .band(FrequencyBand::NearUltrasound)
        .build()
        .unwrap();
    let mut session = UnlockSession::new(config).unwrap();
    let mut r = rng(10);
    let env = Environment::builder()
        .location(Location::QuietRoom)
        .distance(Meters(0.25))
        .build();
    let mut unlocked = 0;
    for _ in 0..5 {
        if session
            .run(&env, &AttemptOptions::new(), &mut r)
            .outcome
            .unlocked()
        {
            unlocked += 1;
        }
        session.enter_pin();
    }
    assert!(unlocked >= 3, "near-ultrasound unlocks {unlocked}/5");
}
