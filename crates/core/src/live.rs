//! Live two-thread session: the phone and watch roles as concurrent
//! agents.
//!
//! [`UnlockSession`](crate::session::UnlockSession) drives the protocol
//! sequentially for measurement; this module drives the same phone and
//! watch steps from two OS threads exchanging messages over crossbeam
//! channels — the control channel (Bluetooth/WiFi stand-in) and the
//! acoustic medium. It exists to validate the protocol's *distributed*
//! behaviour: message ordering, the interactive two-phase structure,
//! and clean termination. There is no virtual clock, cost model or
//! fault injection here; each thread draws its part of the world from
//! its own seeded stream (sensor traces and the ambient reading on the
//! phone, the air on the watch).

use std::thread;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;

use wearlock_acoustics::channel::AcousticLink;
use wearlock_dsp::units::Spl;
use wearlock_platform::keyguard::LockState;

use crate::config::WearLockConfig;
use crate::environment::Environment;
use crate::protocol::{Cts, PhoneRole, WatchRole};
use crate::session::{AttemptReport, AttemptTuning, DenyReason, Outcome};
use crate::trim::{PROBE_NOISE_LEAD_S, TOKEN_NOISE_LEAD_S};
use crate::WearLockError;

/// Messages from phone to watch.
enum ToWatch {
    /// RTS: the phone's ambient reading, and the probe it plays at
    /// `volume` (the simulated air carries the waveform; the watch's
    /// side renders what its microphone captures).
    Probe {
        ambient: Vec<f64>,
        waveform: Vec<f64>,
        volume: Spl,
    },
    /// The token, played at the probe's volume.
    Token { waveform: Vec<f64>, volume: Spl },
}

/// Messages from watch to phone.
enum ToPhone {
    /// CTS: the data channels and mode for phase 2, or a denial.
    Cts(Result<Cts, DenyReason>),
    /// The demodulated token bits, if a frame was found.
    TokenBits(Option<Vec<bool>>),
}

/// Result of a live session run.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveOutcome {
    /// The attempt's outcome, as the sequential session reports it.
    pub outcome: Outcome,
    /// Final keyguard state.
    pub final_state: LockState,
}

const STEP_TIMEOUT: Duration = Duration::from_secs(20);

fn failed(e: impl std::fmt::Display) -> WearLockError {
    WearLockError::SessionFailed(e.to_string())
}

/// Runs one live unlock attempt: spawns the watch thread, drives the
/// phone role on the calling thread, and returns the outcome.
///
/// # Errors
///
/// Returns [`WearLockError::SessionFailed`] on channel breakdown or
/// timeout, and propagates configuration errors.
pub fn run_live_session(
    config: &WearLockConfig,
    env: &Environment,
    seed: u64,
) -> Result<LiveOutcome, WearLockError> {
    let acoustic = &env.acoustic_link(config)?;
    let mut phone = PhoneRole::new(config)?;
    let (to_watch, at_watch) = bounded(4);
    let (to_phone, at_phone) = bounded(4);
    let outcome = thread::scope(|scope| {
        let watch = thread::Builder::new()
            .name("wearlock-watch".into())
            .spawn_scoped(scope, move || {
                watch_side(config, acoustic, seed ^ 0xdead, at_watch, to_phone)
            })
            .map_err(failed)?;
        // Returning drops the phone's sender, which ends the watch loop.
        let outcome = phone_side(config, env, acoustic, &mut phone, seed, to_watch, at_phone);
        let watch = watch
            .join()
            .unwrap_or_else(|_| Err(failed("watch thread panicked")));
        outcome.and_then(|outcome| watch.map(|()| outcome))
    })?;
    Ok(LiveOutcome {
        outcome,
        final_state: phone.keyguard.state(),
    })
}

fn phone_side(
    config: &WearLockConfig,
    env: &Environment,
    acoustic: &AcousticLink,
    phone: &mut PhoneRole,
    seed: u64,
    outbox: Sender<ToWatch>,
    inbox: Receiver<ToPhone>,
) -> Result<Outcome, WearLockError> {
    let mut rng = StdRng::seed_from_u64(seed);
    // The steps' diagnostics; the live runner reports only the outcome.
    let mut report = AttemptReport::new();
    if phone.locked_out() {
        return Ok(Outcome::Denied(DenyReason::LockedOut));
    }
    if !env.wireless_in_range {
        return Ok(Outcome::Denied(DenyReason::NoWirelessLink));
    }
    let (phone_trace, watch_trace) = env.sensor_traces(&mut rng);
    if let Some(outcome) = phone.motion_filter(&phone_trace, &watch_trace, &mut report) {
        return Ok(outcome);
    }

    let ambient = acoustic.record_ambient(4_096, &mut rng);
    let volume = PhoneRole::volume(config, &ambient, AttemptTuning::default());
    let mut waveform = Vec::new();
    phone.probe(&mut waveform);
    let send = |msg| outbox.send(msg).map_err(failed);
    let recv = || {
        inbox
            .recv_timeout(STEP_TIMEOUT)
            .map_err(|e| failed(format!("phone recv: {e}")))
    };
    send(ToWatch::Probe {
        ambient,
        waveform,
        volume,
    })?;
    let ToPhone::Cts(cts) = recv()? else {
        return Err(failed("expected the CTS"));
    };
    let cts = match cts {
        Ok(cts) => cts,
        Err(reason) => return Ok(Outcome::Denied(reason)),
    };

    let mut waveform = Vec::new();
    phone.token(config, &cts, &mut waveform);
    send(ToWatch::Token { waveform, volume })?;
    let ToPhone::TokenBits(bits) = recv()? else {
        return Err(failed("expected the token bits"));
    };
    Ok(phone.verify(config, bits.as_deref(), cts.mode))
}

fn watch_side(
    config: &WearLockConfig,
    acoustic: &AcousticLink,
    seed: u64,
    inbox: Receiver<ToWatch>,
    outbox: Sender<ToPhone>,
) -> Result<(), WearLockError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut watch = WatchRole::default();
    let mut report = AttemptReport::new();
    let mut cts = None;
    while let Ok(msg) = inbox.recv() {
        let reply = match msg {
            ToWatch::Probe {
                ambient,
                waveform,
                volume,
            } => {
                let recording = acoustic.transmit(&waveform, volume, &mut rng);
                let rx = WatchRole::receive(
                    &config.modem,
                    &recording,
                    waveform.len(),
                    PROBE_NOISE_LEAD_S,
                );
                let verdict = watch.analyze_probe(config, &rx, &ambient, None, &mut report);
                cts = verdict.as_ref().ok().cloned();
                ToPhone::Cts(verdict)
            }
            ToWatch::Token { waveform, volume } => {
                let cts = cts.as_ref().ok_or_else(|| failed("token before the CTS"))?;
                let recording = acoustic.transmit(&waveform, volume, &mut rng);
                let rx = WatchRole::receive(
                    &cts.data_cfg,
                    &recording,
                    waveform.len(),
                    TOKEN_NOISE_LEAD_S,
                );
                let bits = watch.demodulate_token(config, &rx, cts.mode);
                ToPhone::TokenBits(bits.map(<[bool]>::to_vec))
            }
        };
        outbox.send(reply).map_err(failed)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::UnlockPath;

    #[test]
    fn live_session_unlocks_in_benign_environment() {
        let config = WearLockConfig::default();
        let env = Environment::default();
        let out = run_live_session(&config, &env, 1234).unwrap();
        assert!(
            matches!(out.outcome, Outcome::Unlocked(UnlockPath::Acoustic(_))),
            "{out:?}"
        );
        assert_eq!(out.final_state, LockState::Unlocked);
    }

    #[test]
    fn live_session_unlocks_with_convolutional_coding() {
        use wearlock_modem::TokenCoding;
        let config = WearLockConfig::builder()
            .token_coding(TokenCoding::Convolutional)
            .build()
            .unwrap();
        let out = run_live_session(&config, &Environment::default(), 1234).unwrap();
        assert!(out.outcome.unlocked(), "{out:?}");
        assert_eq!(out.final_state, LockState::Unlocked);
    }

    #[test]
    fn live_session_denies_far_away() {
        use wearlock_dsp::units::Meters;
        let config = WearLockConfig::default();
        let env = Environment::builder()
            .distance(Meters(5.0))
            .location(wearlock_acoustics::noise::Location::Cafe)
            .build();
        let out = run_live_session(&config, &env, 999).unwrap();
        assert!(!out.outcome.unlocked(), "{out:?}");
    }
}
