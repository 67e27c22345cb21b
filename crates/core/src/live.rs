//! Live two-thread session: the phone and watch controllers as real
//! concurrent agents.
//!
//! [`UnlockSession`](crate::session::UnlockSession) simulates the
//! protocol sequentially for measurement; this module runs the same
//! roles as two OS threads exchanging messages over crossbeam channels
//! — the control channel (Bluetooth/WiFi stand-in) and the acoustic
//! medium — with a `parking_lot`-guarded keyguard shared like an
//! Android system service. It exists to validate the protocol's
//! *distributed* behaviour: message ordering, the interactive two-phase
//! structure, and clean termination.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use wearlock_acoustics::channel::AcousticLink;
use wearlock_auth::token::{TokenGenerator, TokenVerifier, VerifyOutcome};
use wearlock_dsp::units::{Db, Spl};
use wearlock_modem::{
    DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TransmissionMode, TxScratch,
};
use wearlock_platform::keyguard::{Keyguard, KeyguardEvent, LockState};

use crate::config::WearLockConfig;
use crate::environment::Environment;
use crate::session::{decode_token, encode_token};
use crate::WearLockError;

/// Messages from phone to watch over the control channel.
#[derive(Debug)]
enum ToWatch {
    /// Start of the protocol: begin recording.
    StartRecording,
    /// Acoustic emission (the simulated air carries the waveform and
    /// the transmit volume; the watch's side of the link renders what
    /// its microphone would capture).
    Acoustic { waveform: Vec<f64>, volume_db: f64 },
    /// The chosen transmission mode for phase 2.
    Mode(TransmissionMode),
    /// Protocol over.
    Done,
}

/// Messages from watch to phone.
#[derive(Debug)]
enum ToPhone {
    /// Ready to record (CTS for phase 1).
    Ready,
    /// Probe analysis: pilot SNR estimate in dB (the CTS payload).
    ProbeSnr(Option<f64>),
    /// Demodulated phase-2 bits.
    TokenBits(Option<Vec<bool>>),
}

/// Result of a live session run.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveOutcome {
    /// Whether the phone ended unlocked.
    pub unlocked: bool,
    /// The mode used for the token, if phase 2 ran.
    pub mode: Option<TransmissionMode>,
    /// Final keyguard state.
    pub final_state: LockState,
}

const STEP_TIMEOUT: Duration = Duration::from_secs(20);

fn watch_role(
    config: &WearLockConfig,
    env: &Environment,
    seed: u64,
    rx_ctrl: Receiver<ToWatch>,
    tx_ctrl: Sender<ToPhone>,
) -> Result<(), WearLockError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let link = AcousticLink::builder()
        .distance(env.distance)
        .noise(env.location.noise_model())
        .path(env.path)
        .speaker(config.speaker.clone())
        .microphone(config.receiver_microphone())
        .build()?;
    let demod = OfdmDemodulator::new(config.modem().clone())?;
    let mut scratch = DemodScratch::new();
    let mut mode: Option<TransmissionMode> = None;

    loop {
        let msg = rx_ctrl
            .recv_timeout(STEP_TIMEOUT)
            .map_err(|e| WearLockError::SessionFailed(format!("watch recv: {e}")))?;
        match msg {
            ToWatch::StartRecording => {
                tx_ctrl
                    .send(ToPhone::Ready)
                    .map_err(|e| WearLockError::SessionFailed(e.to_string()))?;
            }
            ToWatch::Acoustic {
                waveform,
                volume_db,
            } => {
                let recording = link.transmit(&waveform, Spl(volume_db), &mut rng);
                match mode {
                    None => {
                        // Phase 1: analyze the probe, report SNR.
                        let snr = demod
                            .analyze_probe(&recording, &mut scratch)
                            .ok()
                            .map(|r| r.psnr.value());
                        tx_ctrl
                            .send(ToPhone::ProbeSnr(snr))
                            .map_err(|e| WearLockError::SessionFailed(e.to_string()))?;
                    }
                    Some(m) => {
                        // Phase 2: demodulate the token bits.
                        let n_bits = config.token_coding().coded_len(wearlock_auth::TOKEN_BITS);
                        let mut frame = DemodFrame::new();
                        let bits = demod
                            .demodulate(
                                &recording,
                                m.modulation(),
                                n_bits,
                                &mut scratch,
                                &mut frame,
                            )
                            .ok()
                            .map(|()| frame.bits);
                        tx_ctrl
                            .send(ToPhone::TokenBits(bits))
                            .map_err(|e| WearLockError::SessionFailed(e.to_string()))?;
                    }
                }
            }
            ToWatch::Mode(m) => mode = Some(m),
            ToWatch::Done => return Ok(()),
        }
    }
}

/// Runs a full live session: spawns the watch thread, drives the phone
/// role on the calling thread, and returns the outcome.
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
    let (tx_to_watch, rx_at_watch) = bounded::<ToWatch>(4);
    let (tx_to_phone, rx_at_phone) = bounded::<ToPhone>(4);
    let keyguard = Arc::new(Mutex::new(Keyguard::new()));

    let watch_cfg = config.clone();
    let watch_env = env.clone();
    let watch_handle = thread::Builder::new()
        .name("wearlock-watch".into())
        .spawn(move || {
            watch_role(
                &watch_cfg,
                &watch_env,
                seed ^ 0xdead,
                rx_at_watch,
                tx_to_phone,
            )
        })
        .map_err(|e| WearLockError::SessionFailed(e.to_string()))?;

    let phone = || -> Result<LiveOutcome, WearLockError> {
        let modem = OfdmModulator::new(config.modem().clone())?;
        let mut generator = TokenGenerator::new(config.otp_key().to_vec(), 0);
        let mut verifier = TokenVerifier::new(config.otp_key().to_vec(), 0, 3);
        let volume = config.required_volume(env.location.ambient_spl());

        let recv = |rx: &Receiver<ToPhone>| -> Result<ToPhone, WearLockError> {
            rx.recv_timeout(STEP_TIMEOUT)
                .map_err(|e: RecvTimeoutError| {
                    WearLockError::SessionFailed(format!("phone recv: {e}"))
                })
        };
        let send = |msg: ToWatch| -> Result<(), WearLockError> {
            tx_to_watch
                .send(msg)
                .map_err(|e| WearLockError::SessionFailed(e.to_string()))
        };

        // Phase 1: RTS.
        send(ToWatch::StartRecording)?;
        match recv(&rx_at_phone)? {
            ToPhone::Ready => {}
            other => {
                return Err(WearLockError::SessionFailed(format!(
                    "unexpected watch reply {other:?}"
                )))
            }
        }
        let mut tx_scratch = TxScratch::new();
        let mut probe = Vec::new();
        modem.probe(config.probe_blocks(), &mut tx_scratch, &mut probe)?;
        send(ToWatch::Acoustic {
            waveform: probe,
            volume_db: volume.value(),
        })?;
        let snr = match recv(&rx_at_phone)? {
            ToPhone::ProbeSnr(snr) => snr,
            other => {
                return Err(WearLockError::SessionFailed(format!(
                    "unexpected watch reply {other:?}"
                )))
            }
        };
        let Some(psnr_db) = snr else {
            send(ToWatch::Done)?;
            let state = keyguard.lock().state();
            return Ok(LiveOutcome {
                unlocked: false,
                mode: None,
                final_state: state,
            });
        };

        // CTS: decide the mode from the reported SNR.
        let ebn0 = wearlock_modem::demodulator::ebn0_from_psnr(
            Db(psnr_db),
            config.modem(),
            TransmissionMode::Qpsk.modulation(),
        );
        let Some(mode) = config.policy().select_mode(ebn0) else {
            send(ToWatch::Done)?;
            let state = keyguard.lock().state();
            return Ok(LiveOutcome {
                unlocked: false,
                mode: None,
                final_state: state,
            });
        };
        send(ToWatch::Mode(mode))?;

        // Phase 2: token.
        let token = generator.next_token();
        let coded = encode_token(config.token_coding(), token);
        let mut wave = Vec::new();
        modem.modulate(&coded, mode.modulation(), &mut tx_scratch, &mut wave)?;
        send(ToWatch::Acoustic {
            waveform: wave,
            volume_db: volume.value(),
        })?;
        let bits = match recv(&rx_at_phone)? {
            ToPhone::TokenBits(bits) => bits,
            other => {
                return Err(WearLockError::SessionFailed(format!(
                    "unexpected watch reply {other:?}"
                )))
            }
        };
        send(ToWatch::Done)?;

        let unlocked = bits
            .and_then(|b| decode_token(config.token_coding(), &b))
            .map(|t| matches!(verifier.verify(t), VerifyOutcome::Accepted { .. }))
            .unwrap_or(false);
        let mut kg = keyguard.lock();
        if unlocked {
            kg.handle(KeyguardEvent::AcousticUnlockVerified);
        } else {
            kg.handle(KeyguardEvent::AcousticUnlockFailed { lockout: false });
        }
        Ok(LiveOutcome {
            unlocked,
            mode: Some(mode),
            final_state: kg.state(),
        })
    };

    let result = phone();
    match watch_handle.join() {
        Ok(Ok(())) => result,
        Ok(Err(e)) => result.and(Err(e)),
        Err(_) => Err(WearLockError::SessionFailed("watch thread panicked".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_session_unlocks_in_benign_environment() {
        let config = WearLockConfig::default();
        let env = Environment::default();
        let out = run_live_session(&config, &env, 1234).unwrap();
        assert!(out.unlocked, "{out:?}");
        assert_eq!(out.final_state, LockState::Unlocked);
        assert!(out.mode.is_some());
    }

    #[test]
    fn live_session_unlocks_with_convolutional_coding() {
        use wearlock_modem::TokenCoding;
        let config = WearLockConfig::builder()
            .token_coding(TokenCoding::Convolutional)
            .build()
            .unwrap();
        let out = run_live_session(&config, &Environment::default(), 1234).unwrap();
        assert!(out.unlocked, "{out:?}");
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
        assert!(!out.unlocked, "{out:?}");
    }
}
