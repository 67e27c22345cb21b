//! The unlock protocol's two roles (paper Fig. 2), written once.
//!
//! [`PhoneRole`] and [`WatchRole`] hold each device's protocol state and
//! expose the steps that device performs in an attempt. Both drivers —
//! the sequential [`UnlockSession`](crate::session::UnlockSession) and
//! the two-thread [`live`](crate::live) runner — call these steps and
//! nothing else for a protocol decision.
//!
//! The world stays in the drivers: the acoustic link, sensor synthesis,
//! fault plans, wireless delays and the cost model. No step takes a
//! random source or prices work, so a driver controls every random draw
//! and every virtual-clock advance. Diagnostics a step produces go into
//! the attempt's [`AttemptReport`].

use wearlock_acoustics::hardware::SpeakerModel;
use wearlock_auth::token::{
    bits_to_token, repetition_decode, repetition_encode, token_to_bits, TokenGenerator,
    TokenVerifier, VerifyOutcome,
};
use wearlock_auth::{LockoutPolicy, TOKEN_BITS};
use wearlock_dsp::units::Spl;
use wearlock_modem::coding::{conv_encode, viterbi_decode, TokenCoding};
use wearlock_modem::config::PREAMBLE_LEN;
use wearlock_modem::subchannel::{apply_selection, select_data_channels};
use wearlock_modem::{
    DemodFrame, DemodScratch, ModePolicy, OfdmConfig, OfdmDemodulator, OfdmModulator,
    TransmissionMode, TxScratch,
};
use wearlock_platform::keyguard::{Keyguard, KeyguardEvent};
use wearlock_sensors::{AccelTrace, FilterDecision, MotionFilter};

use crate::ambient::ambient_similarity;
use crate::config::{
    WearLockConfig, AMBIENT_SIMILARITY_THRESHOLD, MAX_FAILURES, NLOS_SPREAD_THRESHOLD_S,
    OTP_WINDOW, PROBE_BLOCKS,
};
use crate::session::{AttemptReport, AttemptTuning, DenyReason, Outcome, UnlockPath};
use crate::trim;
use crate::WearLockError;

/// Channel-codes a token for phase 2 under `coding`.
pub(crate) fn encode_token(coding: TokenCoding, token: u32) -> Vec<bool> {
    let bits = token_to_bits(token);
    match coding {
        TokenCoding::Repetition(r) => repetition_encode(&bits, r),
        TokenCoding::Convolutional => conv_encode(&bits),
    }
}

/// Decodes demodulated phase-2 bits back to a token under `coding`;
/// `None` when the bits do not decode.
pub(crate) fn decode_token(coding: TokenCoding, coded: &[bool]) -> Option<u32> {
    let bits = match coding {
        TokenCoding::Repetition(r) => repetition_decode(coded, TOKEN_BITS, r),
        TokenCoding::Convolutional => viterbi_decode(coded, TOKEN_BITS).ok(),
    };
    bits.as_deref().and_then(bits_to_token)
}

/// The CTS reply: the data channels and mode phase 2 uses.
#[derive(Debug, Clone)]
pub(crate) struct Cts {
    /// The modem configuration restricted to the selected channels.
    pub(crate) data_cfg: OfdmConfig,
    /// The transmission mode chosen from the probed Eb/N0.
    pub(crate) mode: TransmissionMode,
}

/// The phone: OTP generator and verifier, lockout, keyguard, and the
/// transmit side of the modem.
#[derive(Debug)]
pub(crate) struct PhoneRole {
    pub(crate) generator: TokenGenerator,
    pub(crate) verifier: TokenVerifier,
    pub(crate) lockout: LockoutPolicy,
    pub(crate) keyguard: Keyguard,
    /// Phase-1 modulator over the configured modem.
    modulator: OfdmModulator,
    scratch: TxScratch,
}

impl PhoneRole {
    /// A freshly provisioned phone.
    ///
    /// # Errors
    ///
    /// Returns [`WearLockError::Modem`] if the modem cannot be built
    /// from the configured parameters.
    pub(crate) fn new(config: &WearLockConfig) -> Result<Self, WearLockError> {
        Ok(PhoneRole {
            generator: TokenGenerator::new(config.otp_key.clone(), config.otp_counter),
            verifier: TokenVerifier::new(config.otp_key.clone(), config.otp_counter, OTP_WINDOW),
            lockout: LockoutPolicy::new(MAX_FAILURES),
            keyguard: Keyguard::new(),
            modulator: OfdmModulator::new(config.modem.clone())?,
            scratch: TxScratch::new(),
        })
    }

    /// Lockout gate: whether acoustic unlocking is disabled.
    pub(crate) fn locked_out(&self) -> bool {
        self.lockout.is_locked_out()
    }

    /// Motion filter (Alg. 1) at the paper's operating point. Returns
    /// the attempt's outcome when the filter decides it: a mismatch
    /// denies, a strong match unlocks without acoustics.
    pub(crate) fn motion_filter(
        &mut self,
        phone: &AccelTrace,
        watch: &AccelTrace,
        report: &mut AttemptReport,
    ) -> Option<Outcome> {
        let decision = MotionFilter::default().evaluate(phone, watch);
        report.dtw_score = Some(decision.score());
        match decision {
            FilterDecision::Abort { .. } => Some(Outcome::Denied(DenyReason::MotionMismatch)),
            FilterDecision::SkipSecondPhase { .. } => {
                self.keyguard.handle(KeyguardEvent::AcousticUnlockVerified);
                self.lockout.record_success();
                Some(Outcome::Unlocked(UnlockPath::MotionSkip))
            }
            FilterDecision::Continue { .. } => None,
        }
    }

    /// Transmit volume for the phone's `ambient` reading. A retry
    /// escalation boosts it above what the noise floor asks for,
    /// clamped to the speaker's ceiling and never below what an earlier
    /// attempt of the series played.
    pub(crate) fn volume(config: &WearLockConfig, ambient: &[f64], tuning: AttemptTuning) -> Spl {
        let volume = config.required_volume(wearlock_dsp::level::spl(ambient));
        if tuning.volume_boost_db > 0.0 {
            Spl((volume.value() + tuning.volume_boost_db)
                .min(SpeakerModel::smartphone().max_spl().value())
                .max(tuning.volume_floor))
        } else {
            volume
        }
    }

    /// Writes the RTS probe waveform into `out`.
    pub(crate) fn probe(&mut self, out: &mut Vec<f64>) {
        self.modulator
            .probe(PROBE_BLOCKS, &mut self.scratch, out)
            .expect("probe is valid");
    }

    /// Advances the OTP generator `ticks` tokens without sending them.
    pub(crate) fn skip_tokens(&mut self, ticks: u32) {
        for _ in 0..ticks {
            let _ = self.generator.next_token();
        }
    }

    /// Writes the next token, coded and modulated for `cts`, into
    /// `out`; returns the coded bits and the number of OFDM blocks.
    pub(crate) fn token(
        &mut self,
        config: &WearLockConfig,
        cts: &Cts,
        out: &mut Vec<f64>,
    ) -> (Vec<bool>, usize) {
        let tx = OfdmModulator::new(cts.data_cfg.clone()).expect("selection keeps config valid");
        let coded = encode_token(config.token_coding, self.generator.next_token());
        tx.modulate(&coded, cts.mode.modulation(), &mut self.scratch, out)
            .expect("coded token is non-empty");
        let blocks = tx.blocks_for(coded.len(), cts.mode.modulation());
        (coded, blocks)
    }

    /// Verifies the watch's demodulated `bits` and settles the attempt:
    /// lockout and keyguard bookkeeping, and after a rejection a counter
    /// resync over the secure control channel (the paper allows
    /// key/counter updates over Bluetooth at any time).
    pub(crate) fn verify(
        &mut self,
        config: &WearLockConfig,
        bits: Option<&[bool]>,
        mode: TransmissionMode,
    ) -> Outcome {
        let accepted = bits
            .and_then(|b| decode_token(config.token_coding, b))
            .is_some_and(|t| matches!(self.verifier.verify(t), VerifyOutcome::Accepted { .. }));
        if accepted {
            self.lockout.record_success();
            self.keyguard.handle(KeyguardEvent::AcousticUnlockVerified);
            return Outcome::Unlocked(UnlockPath::Acoustic(mode));
        }
        let lockout = self.lockout.record_failure();
        self.keyguard
            .handle(KeyguardEvent::AcousticUnlockFailed { lockout });
        self.verifier =
            TokenVerifier::new(config.otp_key.clone(), self.generator.counter(), OTP_WINDOW);
        Outcome::Denied(DenyReason::TokenRejected)
    }
}

/// A recording trimmed and windowed for demodulation.
pub(crate) struct Reception<'r> {
    /// The kept samples: the active segment plus a noise lead-in.
    pub(crate) samples: &'r [f64],
    /// Samples the preamble search scans.
    pub(crate) searched: usize,
    demod: OfdmDemodulator,
}

/// The watch: the receive side of the modem.
#[derive(Debug, Default)]
pub(crate) struct WatchRole {
    scratch: DemodScratch,
    frame: DemodFrame,
}

impl WatchRole {
    /// Trims `recording` of a `sent_len`-sample transmission over `cfg`
    /// to the active segment plus `lead_s` seconds of noise lead-in
    /// (cheap energy detection, so the correlator never sees the full
    /// buffer and Bluetooth never carries it), and bounds the preamble
    /// search to a ±50 ms window around the detected onset: the
    /// wireless start message bounds when the signal can arrive. With
    /// nothing above the noise floor the search scans everything, so a
    /// denial carries full diagnostics.
    pub(crate) fn receive<'r>(
        cfg: &OfdmConfig,
        recording: &'r [f64],
        sent_len: usize,
        lead_s: f64,
    ) -> Reception<'r> {
        let window = trim::plan_trim(recording, sent_len, lead_s);
        let samples = window.slice(recording);
        let mut demod = OfdmDemodulator::new(cfg.clone()).expect("the FFT size is plannable");
        if window.detected {
            let (lo, hi) = window.search_bounds(trim::SEARCH_PAD, PREAMBLE_LEN);
            demod = demod.with_search_window(lo, hi);
        }
        // The same clamp `detect` executes, so a driver prices exactly
        // the samples scanned.
        let (from, to) = demod.search_span(samples.len());
        Reception {
            samples,
            searched: to - from,
            demod,
        }
    }

    /// Probe analysis: preamble detection, the NLOS screen (weak
    /// preamble or ballooned delay spread), the ambient-noise screen
    /// against the phone's `ambient` reading, gain-weighted sub-channel
    /// selection, and the mode decision from the pilot Eb/N0.
    /// `relax_max_ber` replaces the BER target after a retry
    /// escalation.
    pub(crate) fn analyze_probe(
        &mut self,
        config: &WearLockConfig,
        rx: &Reception<'_>,
        ambient: &[f64],
        relax_max_ber: Option<f64>,
        report: &mut AttemptReport,
    ) -> Result<Cts, DenyReason> {
        let probe = rx
            .demod
            .analyze_probe(rx.samples, &mut self.scratch)
            .map_err(|_| DenyReason::ProbeNotDetected)?;
        report.psnr = Some(probe.psnr);
        report.rms_delay_spread = Some(probe.sync.rms_delay_spread);

        let mut policy = config.policy;
        if let Some(relaxed) = relax_max_ber {
            policy = ModePolicy::new(relaxed).unwrap_or(policy);
        }
        if probe.sync.rms_delay_spread > NLOS_SPREAD_THRESHOLD_S {
            report.nlos_flagged = true;
            let relaxed = config.nlos_relax_max_ber.ok_or(DenyReason::NlosDetected)?;
            policy = ModePolicy::new(relaxed).unwrap_or(policy);
        }

        // The trim kept a noise lead-in before the preamble for exactly
        // this comparison.
        let lead_in = &rx.samples[..probe.sync.preamble_offset.min(rx.samples.len())];
        let sim = ambient_similarity(ambient, lead_in);
        report.ambient_similarity = Some(sim);
        if sim < AMBIENT_SIMILARITY_THRESHOLD {
            return Err(DenyReason::AmbientMismatch);
        }

        // Bins whose probed gain sits in a deep fade count as noisy
        // (effective noise = noise / |H|², relative to the median gain),
        // so selection avoids them just like jammed bins.
        let mut gains: Vec<f64> = probe
            .channel_gain
            .iter()
            .flatten()
            .map(|h| h.norm_sq())
            .collect();
        gains.sort_by(f64::total_cmp);
        let median_gain = gains.get(gains.len() / 2).copied().unwrap_or(1.0);
        let effective_noise: Vec<f64> = probe
            .noise_spectrum
            .iter()
            .enumerate()
            .map(
                |(k, &noise)| match probe.channel_gain.get(k).copied().flatten() {
                    Some(h) => noise / (h.norm_sq() / median_gain.max(1e-30)).max(1e-3),
                    None => noise,
                },
            )
            .collect();
        let modem = &config.modem;
        let data_cfg = select_data_channels(modem, &effective_noise, modem.data_channels().len())
            .and_then(|sel| apply_selection(modem, &sel))
            .unwrap_or_else(|_| modem.clone());
        report.data_channels = data_cfg.data_channels().to_vec();

        let ebn0 = probe.ebn0(&data_cfg, TransmissionMode::Qpsk.modulation());
        report.ebn0 = Some(ebn0);
        let mode = policy.select_mode(ebn0).ok_or(DenyReason::SnrTooLow)?;
        Ok(Cts { data_cfg, mode })
    }

    /// Demodulates the token frame at `mode`; the coded bits, or `None`
    /// when no frame was found.
    pub(crate) fn demodulate_token(
        &mut self,
        config: &WearLockConfig,
        rx: &Reception<'_>,
        mode: TransmissionMode,
    ) -> Option<&[bool]> {
        let n_bits = config.token_coding.coded_len(TOKEN_BITS);
        rx.demod
            .demodulate(
                rx.samples,
                mode.modulation(),
                n_bits,
                &mut self.scratch,
                &mut self.frame,
            )
            .ok()?;
        Some(&self.frame.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_acoustics::channel::AcousticLink;
    use wearlock_acoustics::noise::NoiseModel;
    use wearlock_dsp::units::Meters;

    #[test]
    fn probe_analysis_moves_data_channels_off_jammed_bins() {
        // Tones 35 dB above a quiet floor on three default data
        // channels, heard at 0.15 m: the watch's gain-weighted
        // selection must drop exactly those bins. The tones also smear
        // the preamble's delay spread past the NLOS threshold, so the
        // screen relaxes the BER target instead of denying.
        let config = WearLockConfig::builder()
            .nlos_relax_max_ber(Some(0.25))
            .build()
            .unwrap();
        let jammed = [16, 20, 24];
        let noise = NoiseModel::Mixture(vec![
            NoiseModel::White { spl: Spl(20.0) },
            NoiseModel::Tones {
                freqs: jammed
                    .iter()
                    .map(|&k| config.modem.channel_frequency(k))
                    .collect(),
                spl: Spl(55.0),
            },
        ]);
        let link = AcousticLink::builder()
            .distance(Meters(0.15))
            .noise(noise)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(204);
        let mut probe = Vec::new();
        PhoneRole::new(&config).unwrap().probe(&mut probe);
        let ambient = link.record_ambient(4_096, &mut rng);
        let recording = link.transmit(&probe, Spl(68.0), &mut rng);

        let rx = WatchRole::receive(
            &config.modem,
            &recording,
            probe.len(),
            trim::PROBE_NOISE_LEAD_S,
        );
        let mut report = AttemptReport::new();
        let cts = WatchRole::default()
            .analyze_probe(&config, &rx, &ambient, None, &mut report)
            .unwrap();
        let selected = cts.data_cfg.data_channels();
        assert!(report.nlos_flagged);
        assert_eq!(report.data_channels, selected);
        assert_eq!(selected.len(), config.modem.data_channels().len());
        for j in jammed {
            assert!(config.modem.data_channels().contains(&j), "{j}");
            assert!(
                !selected.contains(&j),
                "jammed channel {j} kept: {selected:?}"
            );
        }
    }
}
