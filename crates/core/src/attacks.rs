//! Attack simulations for the §IV threat model.
//!
//! * **Brute force** — guessing the 32-bit OTP over the acoustic
//!   channel, against the 3-strike lockout.
//! * **Co-located attack** — the attacker holds the victim's phone and
//!   approaches the watch; success requires the *watch* to hear the
//!   token, so the distance-BER wall applies.
//! * **Eavesdropping** — a listener farther than the secure range tries
//!   to decode the token transmission.
//! * **Record-and-replay** — replaying a captured token; defeated by
//!   the counter (one-time) and the interactive timing window.
//! * **Relay attack** — live relaying with ideal hardware succeeds (the
//!   paper's acknowledged limitation) unless hardware fingerprinting
//!   spots the extra ADC/DAC distortion.

use rand::Rng;

use wearlock_acoustics::channel::AcousticLink;
use wearlock_acoustics::noise::Location;
use wearlock_auth::token::{TokenGenerator, TokenVerifier, VerifyOutcome};
use wearlock_dsp::units::Meters;
use wearlock_modem::demodulator::bit_error_rate;
use wearlock_modem::{
    DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TransmissionMode, TxScratch,
};

use crate::config::{WearLockConfig, MAX_FAILURES, OTP_WINDOW, REPLAY_WINDOW_S};
use crate::protocol::{decode_token, encode_token};
use crate::WearLockError;

/// Keyspace analysis of the brute-force attack (paper §IV.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BruteForceReport {
    /// Size of the token keyspace.
    pub keyspace: f64,
    /// Guesses allowed before lockout.
    pub guesses_allowed: u32,
    /// Probability of unlocking before lockout.
    pub success_probability: f64,
    /// Empirical successes over the simulated trials.
    pub simulated_successes: usize,
    /// Simulated trials.
    pub simulated_trials: usize,
}

/// Analyzes and simulates brute force against the OTP verifier.
pub fn brute_force<R: Rng + ?Sized>(
    config: &WearLockConfig,
    trials: usize,
    rng: &mut R,
) -> BruteForceReport {
    let keyspace = 2f64.powi(31); // 31-bit HOTP values
    let guesses_allowed = MAX_FAILURES;
    // Window widens acceptance: `window` valid tokens at any time.
    let p_single = OTP_WINDOW as f64 / keyspace;
    let success_probability = 1.0 - (1.0 - p_single).powi(guesses_allowed as i32);

    let mut simulated_successes = 0;
    for t in 0..trials {
        let mut verifier = TokenVerifier::new(config.otp_key.clone(), t as u64 * 1_000, OTP_WINDOW);
        let mut locked = wearlock_auth::LockoutPolicy::new(guesses_allowed);
        while !locked.is_locked_out() {
            let guess: u32 = rng.gen::<u32>() & 0x7fff_ffff;
            match verifier.verify(guess) {
                VerifyOutcome::Accepted { .. } => {
                    simulated_successes += 1;
                    break;
                }
                _ => {
                    locked.record_failure();
                }
            }
        }
    }
    BruteForceReport {
        keyspace,
        guesses_allowed,
        success_probability,
        simulated_successes,
        simulated_trials: trials,
    }
}

/// Result of an eavesdropping / co-located decoding attempt series.
#[derive(Debug, Clone, PartialEq)]
pub struct InterceptReport {
    /// Distance of the adversary's microphone from the speaker.
    pub distance: Meters,
    /// Mean BER the adversary observed on the coded token bits (0.5
    /// when the signal wasn't even detected).
    pub mean_ber: f64,
    /// Fraction of trials where the full token was recovered exactly.
    pub token_recovery_rate: f64,
    /// Trials run.
    pub trials: usize,
}

/// Simulates an adversary at `distance` trying to decode token
/// transmissions sent at the system's volume for `Location` noise.
///
/// # Errors
///
/// Propagates modem construction failures.
pub fn intercept_at_distance<R: Rng + ?Sized>(
    config: &WearLockConfig,
    location: Location,
    distance: Meters,
    mode: TransmissionMode,
    trials: usize,
    rng: &mut R,
) -> Result<InterceptReport, WearLockError> {
    let tx = OfdmModulator::new(config.modem().clone())?;
    let rx = OfdmDemodulator::new(config.modem().clone())?;
    let link = AcousticLink::builder()
        .distance(distance)
        .noise(location.noise_model())
        .microphone(config.receiver_microphone())
        .build()?;
    let volume = config.required_volume(location.ambient_spl());

    let mut gen = TokenGenerator::new(config.otp_key.clone(), 0);
    let (mut tx_scratch, mut scratch) = (TxScratch::new(), DemodScratch::new());
    let (mut wave, mut frame) = (Vec::new(), DemodFrame::new());
    let mut bers = Vec::new();
    let mut recovered = 0usize;
    for _ in 0..trials {
        let token = gen.next_token();
        let coded = encode_token(config.token_coding, token);
        tx.modulate(&coded, mode.modulation(), &mut tx_scratch, &mut wave)?;
        let rec = link.transmit(&wave, volume, rng);
        match rx.demodulate(
            &rec,
            mode.modulation(),
            coded.len(),
            &mut scratch,
            &mut frame,
        ) {
            Ok(()) => {
                bers.push(bit_error_rate(&coded, &frame.bits));
                if decode_token(config.token_coding, &frame.bits) == Some(token) {
                    recovered += 1;
                }
            }
            Err(_) => bers.push(0.5),
        }
    }
    Ok(InterceptReport {
        distance,
        mean_ber: bers.iter().sum::<f64>() / bers.len().max(1) as f64,
        token_recovery_rate: recovered as f64 / trials.max(1) as f64,
        trials,
    })
}

/// Outcome of a record-and-replay attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The verifier flagged a replayed (consumed) counter.
    DetectedReplay,
    /// The timing window expired before the replay arrived.
    TimedOut,
    /// The replay was accepted — a defence failure.
    Accepted,
}

/// Simulates a record-and-replay attack: the adversary captured a
/// *verified* token exchange and replays the recording `replay_delay`
/// seconds later than the protocol's expected acoustic path time.
pub fn record_and_replay(config: &WearLockConfig, replay_delay_s: f64) -> ReplayOutcome {
    let mut gen = TokenGenerator::new(config.otp_key.clone(), 0);
    let mut verifier = TokenVerifier::new(config.otp_key.clone(), 0, OTP_WINDOW);

    // Legitimate exchange completes: token consumed.
    let token = gen.next_token();
    assert!(matches!(
        verifier.verify(token),
        VerifyOutcome::Accepted { .. }
    ));

    // The interactive two-phase protocol bounds the acoustic round:
    // arrivals outside the window are discarded before verification.
    if replay_delay_s > REPLAY_WINDOW_S {
        return ReplayOutcome::TimedOut;
    }
    match verifier.verify(token) {
        VerifyOutcome::Accepted { .. } => ReplayOutcome::Accepted,
        VerifyOutcome::Replayed => ReplayOutcome::DetectedReplay,
        VerifyOutcome::Rejected => ReplayOutcome::DetectedReplay,
    }
}

/// Parameters of a live relay attack (paper §IV.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayAttack {
    /// Extra end-to-end latency the relay inserts, seconds.
    pub extra_delay_s: f64,
    /// Error-vector-magnitude distortion the relay's ADC/DAC chain adds
    /// (0 = acoustically perfect relay).
    pub relay_evm: f64,
}

/// Outcome of a relay attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayOutcome {
    /// Relay latency exceeded the timing window.
    TimedOut,
    /// Hardware fingerprinting flagged the relay's distortion.
    FingerprintMismatch,
    /// The relay succeeded — the acknowledged limitation for ideal
    /// relay hardware when fingerprinting is disabled.
    Accepted,
}

/// Evaluates a relay attack against the protocol's defences.
///
/// `fingerprint_threshold`: when `Some(t)`, receivers flag EVM floors
/// above `t` as foreign hardware (the paper's proposed counter-measure);
/// `None` disables fingerprinting (the paper's current design).
pub fn relay_attack(attack: RelayAttack, fingerprint_threshold: Option<f64>) -> RelayOutcome {
    if attack.extra_delay_s > REPLAY_WINDOW_S {
        return RelayOutcome::TimedOut;
    }
    if let Some(threshold) = fingerprint_threshold {
        if attack.relay_evm > threshold {
            return RelayOutcome::FingerprintMismatch;
        }
    }
    RelayOutcome::Accepted
}

/// Outcome of the full-stack relay evaluation with the paper's proposed
/// counter-measures actually running (not just parameter checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullRelayOutcome {
    /// The acoustic hardware fingerprint did not match the enrolled
    /// device.
    FingerprintMismatch,
    /// Distance bounding measured the path beyond the secure range.
    DistanceBoundExceeded,
    /// All deployed counter-measures passed — with no counter-measures
    /// this is the paper's acknowledged limitation.
    Accepted,
}

/// Runs a relay attack through the *implemented* counter-measures:
///
/// 1. the phone's speaker fingerprint is enrolled from clean probes;
/// 2. the relay re-emits through its own speaker (`relay_ripple_phase`
///    distinguishes the physical unit) — the fingerprint verifier
///    checks the end-to-end signature;
/// 3. acoustic distance bounding measures the round trip including the
///    relay's `extra_delay_s`.
///
/// Pass `enable_fingerprint=false, distance_bound=None` to reproduce the
/// paper's current design, where an ideal relay succeeds.
///
/// # Errors
///
/// Propagates modem/configuration failures.
pub fn relay_attack_full<R: Rng + ?Sized>(
    config: &WearLockConfig,
    relay_ripple_phase: f64,
    extra_delay_s: f64,
    enable_fingerprint: bool,
    distance_bound: Option<Meters>,
    rng: &mut R,
) -> Result<FullRelayOutcome, WearLockError> {
    use crate::environment::Environment;
    use crate::fingerprint::FingerprintVerifier;
    use crate::ranging::{check_bound, BoundOutcome, RangingConfig};
    use wearlock_acoustics::hardware::SpeakerModel;
    use wearlock_acoustics::noise::Location;

    let modem_cfg = config.modem().clone();
    let tx = OfdmModulator::new(modem_cfg.clone())?;
    let rx = OfdmDemodulator::new(modem_cfg.clone())?;
    let mut probe = Vec::new();
    tx.probe(2, &mut TxScratch::new(), &mut probe)?;

    let probe_through = |speaker: SpeakerModel,
                         rng: &mut R|
     -> Result<Option<wearlock_modem::ProbeReport>, WearLockError> {
        let link = AcousticLink::builder()
            .distance(Meters(0.3))
            .noise(Location::Office.noise_model())
            .speaker(speaker)
            .microphone(config.receiver_microphone())
            .build()?;
        let rec = link.transmit(
            &probe,
            config.required_volume(Location::Office.ambient_spl()),
            rng,
        );
        Ok(rx.analyze_probe(&rec, &mut DemodScratch::new()).ok())
    };

    if enable_fingerprint {
        // Enrollment: two clean probes from the genuine phone speaker.
        let mut enroll = Vec::new();
        for _ in 0..2 {
            if let Some(p) = probe_through(SpeakerModel::smartphone(), rng)? {
                enroll.push(p);
            }
        }
        let verifier = FingerprintVerifier::enroll(&enroll, &modem_cfg, 0.3)
            .ok_or_else(|| WearLockError::SessionFailed("enrollment failed".into()))?;
        // The relayed emission passes through the relay's own speaker.
        let relayed = probe_through(
            SpeakerModel::smartphone().with_ripple_phase(relay_ripple_phase),
            rng,
        )?;
        match relayed {
            Some(p) if verifier.matches(&p, &modem_cfg) => {}
            _ => return Ok(FullRelayOutcome::FingerprintMismatch),
        }
    }

    if let Some(bound) = distance_bound {
        let env = Environment::builder()
            .location(Location::Office)
            .distance(Meters(0.3))
            .build();
        let out = check_bound(&RangingConfig::default(), &env, bound, extra_delay_s, rng)?;
        if !matches!(out, BoundOutcome::WithinBound(_)) {
            return Ok(FullRelayOutcome::DistanceBoundExceeded);
        }
    }

    Ok(FullRelayOutcome::Accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> WearLockConfig {
        WearLockConfig::default()
    }

    #[test]
    fn brute_force_is_hopeless() {
        let mut rng = StdRng::seed_from_u64(90);
        let report = brute_force(&cfg(), 200, &mut rng);
        assert_eq!(report.simulated_successes, 0);
        assert!(report.success_probability < 1e-8);
        assert_eq!(report.guesses_allowed, 3);
    }

    #[test]
    fn eavesdropper_at_three_meters_fails() {
        let mut rng = StdRng::seed_from_u64(91);
        let config = cfg();
        let report = intercept_at_distance(
            &config,
            Location::Office,
            Meters(3.0),
            TransmissionMode::Psk8,
            5,
            &mut rng,
        )
        .unwrap();
        assert!(report.mean_ber > 0.08, "eavesdrop ber {}", report.mean_ber);
        assert_eq!(report.token_recovery_rate, 0.0);
    }

    /// The rate behind `eavesdropper_at_three_meters_fails`: out of
    /// range means "rarely", not never. Five streams of 1 000 tries
    /// recovered 122 tokens (2.44 %), whose one-sided 99.9 %
    /// Clopper–Pearson upper limit is 3.19 %; 50 is the smallest count
    /// that 1 000 tries at that rate exceed with probability ≤ 0.1 %.
    #[test]
    #[ignore = "1 000 tries, release mode: cargo test --release -p wearlock -p wearlock-tests -- --ignored floor_rate"]
    fn floor_rate_eavesdropper_at_three_meters_recovers_few_tokens() {
        let mut rng = StdRng::seed_from_u64(93);
        let trials = 1_000;
        let report = intercept_at_distance(
            &cfg(),
            Location::Office,
            Meters(3.0),
            TransmissionMode::Psk8,
            trials,
            &mut rng,
        )
        .unwrap();
        let recovered = (report.token_recovery_rate * trials as f64).round();
        assert!(
            recovered <= 50.0,
            "{recovered} of {trials} tokens recovered"
        );
    }

    #[test]
    fn receiver_in_secure_range_succeeds() {
        let mut rng = StdRng::seed_from_u64(92);
        let config = cfg();
        let report = intercept_at_distance(
            &config,
            Location::Office,
            Meters(0.3),
            TransmissionMode::Qpsk,
            5,
            &mut rng,
        )
        .unwrap();
        assert!(
            report.token_recovery_rate >= 0.8,
            "legit recovery {}",
            report.token_recovery_rate
        );
    }

    #[test]
    fn replay_is_always_defeated() {
        let config = cfg();
        // Fast replay: counter already consumed.
        assert_eq!(
            record_and_replay(&config, 0.01),
            ReplayOutcome::DetectedReplay
        );
        // Slow replay: timing window.
        assert_eq!(record_and_replay(&config, 1.0), ReplayOutcome::TimedOut);
    }

    #[test]
    fn full_relay_defeated_by_fingerprint_or_ranging() {
        let mut rng = StdRng::seed_from_u64(93);
        let config = cfg();
        // Paper's current design: no counter-measures, fast ideal relay
        // with an identical speaker unit — succeeds.
        let out = relay_attack_full(&config, 0.0, 0.02, false, None, &mut rng).unwrap();
        assert_eq!(out, FullRelayOutcome::Accepted);

        // Fingerprinting on: the relay's own speaker unit betrays it.
        let out = relay_attack_full(&config, 2.2, 0.02, true, None, &mut rng).unwrap();
        assert_eq!(out, FullRelayOutcome::FingerprintMismatch);

        // Distance bounding on: even 20 ms of relay latency reads as
        // several metres of acoustic path.
        let out =
            relay_attack_full(&config, 0.0, 0.02, false, Some(Meters(1.2)), &mut rng).unwrap();
        assert_eq!(out, FullRelayOutcome::DistanceBoundExceeded);
    }

    #[test]
    fn full_relay_honest_device_passes_countermeasures() {
        let mut rng = StdRng::seed_from_u64(94);
        let config = cfg();
        // The genuine device (same speaker unit, no extra delay) clears
        // both counter-measures — defences must not lock out the owner.
        let out = relay_attack_full(&config, 0.0, 0.0, true, Some(Meters(1.2)), &mut rng).unwrap();
        assert_eq!(out, FullRelayOutcome::Accepted);
    }

    #[test]
    fn relay_succeeds_only_with_ideal_hardware_and_no_fingerprinting() {
        // The acknowledged limitation.
        assert_eq!(
            relay_attack(
                RelayAttack {
                    extra_delay_s: 0.05,
                    relay_evm: 0.01
                },
                None
            ),
            RelayOutcome::Accepted
        );
        // Counter-measures.
        assert_eq!(
            relay_attack(
                RelayAttack {
                    extra_delay_s: 0.5,
                    relay_evm: 0.01
                },
                None
            ),
            RelayOutcome::TimedOut
        );
        assert_eq!(
            relay_attack(
                RelayAttack {
                    extra_delay_s: 0.05,
                    relay_evm: 0.2
                },
                Some(0.1)
            ),
            RelayOutcome::FingerprintMismatch
        );
    }
}
