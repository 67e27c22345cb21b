//! The §IV threat model as a gauntlet: every attack the paper analyzes,
//! run against the live defences.
//!
//! ```text
//! cargo run -p wearlock-examples --bin attack_gauntlet
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use wearlock::attacks::{
    brute_force, intercept_at_distance, record_and_replay, relay_attack, relay_attack_full,
    FullRelayOutcome, RelayAttack, RelayOutcome, ReplayOutcome,
};
use wearlock::config::WearLockConfig;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;
use wearlock_modem::TransmissionMode;

fn main() -> Result<(), wearlock::WearLockError> {
    let config = WearLockConfig::default();
    let mut rng = StdRng::seed_from_u64(666);

    println!("== 1. Brute force (guess the OTP before the 3-strike lockout) ==");
    let bf = brute_force(&config, 300, &mut rng);
    println!(
        "keyspace 2^31 = {:.2e}, window {}, lockout after {} -> p(success) = {:.2e}",
        bf.keyspace, 3, bf.guesses_allowed, bf.success_probability
    );
    println!(
        "simulated: {}/{} lockouts ended in a break-in\n",
        bf.simulated_successes, bf.simulated_trials
    );

    println!("== 2. Eavesdropping / co-located attack (distance wall) ==");
    println!("distance | mean BER | full-token recovery");
    for d in [0.3, 1.0, 2.0, 3.0] {
        let rep = intercept_at_distance(
            &config,
            Location::Office,
            Meters(d),
            TransmissionMode::Psk8,
            6,
            &mut rng,
        )?;
        println!(
            "  {d:4.1} m | {:8.4} | {:5.1}%",
            rep.mean_ber,
            rep.token_recovery_rate * 100.0
        );
    }
    println!();

    println!("== 3. Record-and-replay ==");
    for (desc, delay) in [("instant replay", 0.01), ("replay after 1 s", 1.0)] {
        let out = record_and_replay(&config, delay);
        let verdict = match out {
            ReplayOutcome::DetectedReplay => "BLOCKED (counter already consumed)",
            ReplayOutcome::TimedOut => "BLOCKED (outside the timing window)",
            ReplayOutcome::Accepted => "!! ACCEPTED !!",
        };
        println!("  {desc:18} -> {verdict}");
    }
    println!();

    println!("== 4. Relay attack (the acknowledged limitation) ==");
    let cases = [
        (
            "ideal relay, no fingerprinting",
            RelayAttack {
                extra_delay_s: 0.05,
                relay_evm: 0.005,
            },
            None,
        ),
        (
            "ideal relay + fingerprinting",
            RelayAttack {
                extra_delay_s: 0.05,
                relay_evm: 0.005,
            },
            Some(0.002),
        ),
        (
            "cheap relay + fingerprinting",
            RelayAttack {
                extra_delay_s: 0.05,
                relay_evm: 0.15,
            },
            Some(0.05),
        ),
        (
            "slow relay",
            RelayAttack {
                extra_delay_s: 0.6,
                relay_evm: 0.0,
            },
            None,
        ),
    ];
    for (desc, attack, fp) in cases {
        let out = relay_attack(attack, fp);
        let verdict = match out {
            RelayOutcome::Accepted => "SUCCEEDS (paper's admitted gap)",
            RelayOutcome::FingerprintMismatch => "BLOCKED (hardware fingerprint)",
            RelayOutcome::TimedOut => "BLOCKED (timing window)",
        };
        println!("  {desc:32} -> {verdict}");
    }
    println!();

    println!("== 5. Relay vs the *implemented* counter-measures (full stack) ==");
    let full_cases: [(&str, f64, f64, bool, Option<wearlock_dsp::units::Meters>); 4] = [
        ("no counter-measures, ideal relay", 0.0, 0.02, false, None),
        ("acoustic fingerprint enabled", 2.2, 0.02, true, None),
        (
            "distance bounding enabled",
            0.0,
            0.02,
            false,
            Some(wearlock_dsp::units::Meters(1.2)),
        ),
        (
            "honest owner, all defences on",
            0.0,
            0.0,
            true,
            Some(wearlock_dsp::units::Meters(1.2)),
        ),
    ];
    for (desc, ripple, delay, fp, bound) in full_cases {
        let out = relay_attack_full(&config, ripple, delay, fp, bound, &mut rng)?;
        let verdict = match out {
            FullRelayOutcome::Accepted => "passes",
            FullRelayOutcome::FingerprintMismatch => "BLOCKED (speaker signature mismatch)",
            FullRelayOutcome::DistanceBoundExceeded => "BLOCKED (acoustic path too long)",
        };
        println!("  {desc:36} -> {verdict}");
    }
    Ok(())
}
