//! Security-property integration tests: the §IV threat model exercised
//! against the full stack.

use wearlock::attacks::{
    brute_force, intercept_at_distance, record_and_replay, relay_attack, RelayAttack, RelayOutcome,
    ReplayOutcome,
};
use wearlock::config::WearLockConfig;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;
use wearlock_modem::TransmissionMode;
use wearlock_tests::rng;

#[test]
fn brute_force_never_succeeds_within_lockout() {
    let mut r = rng(100);
    let report = brute_force(&WearLockConfig::default(), 500, &mut r);
    assert_eq!(report.simulated_successes, 0);
    assert!(report.success_probability < 1e-7);
}

#[test]
fn token_recovery_collapses_outside_secure_range() {
    let mut r = rng(101);
    let config = WearLockConfig::default();
    let mut rates = Vec::new();
    for d in [0.3, 2.0, 3.5] {
        let rep = intercept_at_distance(
            &config,
            Location::Office,
            Meters(d),
            TransmissionMode::Psk8,
            8,
            &mut r,
        )
        .unwrap();
        rates.push(rep.token_recovery_rate);
    }
    assert!(rates[0] > 0.5, "legit recovery {}", rates[0]);
    assert!(
        rates[2] < 0.2,
        "attacker at 3.5 m recovers {} of tokens",
        rates[2]
    );
    assert!(rates[0] > rates[2]);
}

#[test]
fn eavesdropper_ber_grows_with_distance() {
    let mut r = rng(102);
    let config = WearLockConfig::default();
    let near = intercept_at_distance(
        &config,
        Location::Office,
        Meters(0.3),
        TransmissionMode::Psk8,
        6,
        &mut r,
    )
    .unwrap();
    let far = intercept_at_distance(
        &config,
        Location::Office,
        Meters(3.0),
        TransmissionMode::Psk8,
        6,
        &mut r,
    )
    .unwrap();
    assert!(
        far.mean_ber > near.mean_ber + 0.03,
        "near {} far {}",
        near.mean_ber,
        far.mean_ber
    );
}

#[test]
fn replay_and_relay_defences_hold() {
    let config = WearLockConfig::default();
    assert_eq!(
        record_and_replay(&config, 0.02),
        ReplayOutcome::DetectedReplay
    );
    assert_eq!(record_and_replay(&config, 2.0), ReplayOutcome::TimedOut);

    // The acknowledged limitation: an ideal relay inside the timing
    // window succeeds without fingerprinting...
    assert_eq!(
        relay_attack(
            RelayAttack {
                extra_delay_s: 0.05,
                relay_evm: 0.0
            },
            None
        ),
        RelayOutcome::Accepted
    );
    // ...and the paper's proposed counter-measures stop realistic ones.
    assert_eq!(
        relay_attack(
            RelayAttack {
                extra_delay_s: 0.05,
                relay_evm: 0.1
            },
            Some(0.05)
        ),
        RelayOutcome::FingerprintMismatch
    );
}

#[test]
fn hotp_tokens_are_one_time_across_the_stack() {
    use wearlock_auth::token::{TokenGenerator, TokenVerifier, VerifyOutcome};
    let mut g = TokenGenerator::new(&b"k"[..], 0);
    let mut v = TokenVerifier::new(&b"k"[..], 0, 3);
    let t = g.next_token();
    assert!(matches!(v.verify(t), VerifyOutcome::Accepted { .. }));
    for _ in 0..3 {
        assert_eq!(v.verify(t), VerifyOutcome::Replayed);
    }
}
