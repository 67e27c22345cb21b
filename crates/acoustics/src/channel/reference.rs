//! The direct-form channel chain that the fused [`AcousticLink::transmit`]
//! and [`AcousticLink::record_ambient`] replaced, kept as the tests'
//! reference: every filter runs in the sample domain as its own
//! "same"-length FIR (speaker band-pass and ripple, noise shaping,
//! microphone low-pass), and every noise source is drawn sample by
//! sample and calibrated on its realised RMS.
//!
//! The speaker and microphone stages are written out here, as the
//! sample-domain `SpeakerModel::emit` and `MicrophoneModel::record` ran
//! them before the fused operator replaced both.

use std::f64::consts::TAU;

use rand::Rng;

use wearlock_dsp::filter::Fir;
use wearlock_dsp::level::rms;
use wearlock_dsp::units::{SampleRate, Spl};

use super::AcousticLink;
use crate::noise::{
    for_each_sine, gaussian_noise, syllabic_envelope, NoiseModel, HUM, HUM_AMPLITUDE,
    MACHINE_SHAPING, SPEECH_SHAPING, SYLLABIC_RATE,
};

/// [`AcousticLink::transmit`] as a chain of direct-form stages.
pub(super) fn transmit<R: Rng + ?Sized>(
    link: &AcousticLink,
    signal: &[f64],
    volume: Spl,
    rng: &mut R,
) -> Vec<f64> {
    // 1. Speaker: volume calibration, rise, ringing, band limit, ripple.
    let mut emitted = link.speaker.drive(signal, volume);
    for fir in [link.speaker.band_pass(), link.speaker.ripple()]
        .iter()
        .flatten()
    {
        emitted = fir.apply(&emitted);
    }

    // 2. Propagation: spreading loss + fractional delay.
    let travelled = link.propagate(&emitted);

    // 3. Multipath.
    let faded = link.impulse_response(rng).apply(&travelled);

    // 4. Ambient padding + noise across the whole recording.
    let total = link.lead_pad + faded.len() + link.tail_pad;
    let mut recording = generate(&link.noise, total, rng);
    for (i, &v) in faded.iter().enumerate() {
        recording[link.lead_pad + i] += v;
    }

    // 5. Microphone: band limit, jitter, self-noise, quantization.
    record(link, recording, rng)
}

/// [`AcousticLink::record_ambient`] as a chain of direct-form stages.
pub(super) fn record_ambient<R: Rng + ?Sized>(
    link: &AcousticLink,
    len: usize,
    rng: &mut R,
) -> Vec<f64> {
    let ambient = generate(&link.noise, len, rng);
    record(link, ambient, rng)
}

/// The microphone in the sample domain: its band limit, then jitter,
/// self-noise and quantization.
fn record<R: Rng + ?Sized>(link: &AcousticLink, signal: Vec<f64>, rng: &mut R) -> Vec<f64> {
    let mut out = match link.microphone.band_limit() {
        Some(lpf) => lpf.apply(&signal),
        None => signal,
    };
    link.microphone.capture(&mut out, rng);
    out
}

/// Rescales `signal` in place so its RMS matches the target SPL's
/// amplitude. Silent signals are left untouched.
fn calibrate_spl(signal: &mut [f64], target: Spl) {
    let r = rms(signal);
    if r > 0.0 {
        let k = target.to_amplitude() / r;
        for s in signal.iter_mut() {
            *s *= k;
        }
    }
}

/// `noise` synthesized in the sample domain through an unlimited band.
fn generate<R: Rng + ?Sized>(noise: &NoiseModel, len: usize, rng: &mut R) -> Vec<f64> {
    let sample_rate = SampleRate::CD;
    match noise {
        NoiseModel::White { spl } => {
            let mut out = gaussian_noise(len, 1.0, rng);
            calibrate_spl(&mut out, *spl);
            out
        }
        NoiseModel::Speech { spl } => {
            let raw = gaussian_noise(len, 1.0, rng);
            let (cutoff, taps) = SPEECH_SHAPING;
            let lpf = Fir::low_pass(cutoff, taps, sample_rate)
                .expect("static speech LPF design is valid");
            let mut shaped = lpf.apply(&raw);
            // Syllabic modulation ~4 Hz with random phase.
            let phase = rng.gen::<f64>() * TAU;
            let w = TAU * SYLLABIC_RATE.value() / sample_rate.value();
            for_each_sine(&mut shaped, w, phase, |s, v| *s *= syllabic_envelope(v));
            calibrate_spl(&mut shaped, *spl);
            shaped
        }
        NoiseModel::Machine { spl } => {
            let raw = gaussian_noise(len, 1.0, rng);
            let (cutoff, taps) = MACHINE_SHAPING;
            let lpf = Fir::low_pass(cutoff, taps, sample_rate)
                .expect("static machine LPF design is valid");
            let mut shaped = lpf.apply(&raw);
            let hum = TAU * HUM.value() / sample_rate.value();
            let phase = rng.gen::<f64>() * TAU;
            for_each_sine(&mut shaped, hum, phase, |s, v| *s += HUM_AMPLITUDE * v);
            calibrate_spl(&mut shaped, *spl);
            shaped
        }
        NoiseModel::Transients { spl, rate_hz } => {
            let mut out = vec![0.0; len];
            let p = (rate_hz / sample_rate.value()).clamp(0.0, 1.0);
            let mut i = 0;
            while i < len {
                if rng.gen::<f64>() < p {
                    // Damped 6-8 kHz click ~3 ms long.
                    let f = 6_000.0 + 2_000.0 * rng.gen::<f64>();
                    let w = TAU * f / sample_rate.value();
                    let burst_len = (0.003 * sample_rate.value()) as usize;
                    for j in 0..burst_len.min(len - i) {
                        let env = (-(j as f64) / (burst_len as f64 / 4.0)).exp();
                        out[i + j] += env * (w * j as f64).sin();
                    }
                    i += burst_len;
                } else {
                    i += 1;
                }
            }
            calibrate_spl(&mut out, *spl);
            out
        }
        NoiseModel::Tones { freqs, spl } => {
            let mut out = vec![0.0; len];
            for f in freqs {
                let w = TAU * f.value() / sample_rate.value();
                let phase = rng.gen::<f64>() * TAU;
                for_each_sine(&mut out, w, phase, |s, v| *s += v);
            }
            calibrate_spl(&mut out, *spl);
            out
        }
        NoiseModel::Mixture(parts) => {
            let mut out = vec![0.0; len];
            for part in parts {
                for (o, v) in out.iter_mut().zip(generate(part, len, rng)) {
                    *o += v;
                }
            }
            out
        }
    }
}
