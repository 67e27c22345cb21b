//! Monte-Carlo equivalence of the fused channel and the direct-form
//! reference chain. For every location × {Moto 360, smartphone}
//! microphone, 200 seeds each drive both chains, and the paired
//! differences (fused − reference) of the received SPL, the ambient
//! noise's power in 500 Hz bands and a probe analysis (pilot SNR, RMS
//! delay spread) must have zero mean within Monte-Carlo error.
//!
//! The probe and its analysis follow the modem's default audible and
//! near-ultrasound configurations (chirp preamble, guard, two pilot
//! blocks; preamble correlation, delay profile, ambient-referenced
//! pilot SNR) on the `wearlock-dsp` primitives the modem uses, so the
//! acoustics crate needs no modem dependency.
//!
//! Both chains draw the multipath response first from the same seed, so
//! the pairs share their channel and differ in their noise.
//!
//! It takes about half a minute in a release build:
//! `cargo test --release -p wearlock-acoustics -- --ignored fused_channel`

use rand::rngs::StdRng;
use rand::SeedableRng;

use wearlock_dsp::cache::planned;
use wearlock_dsp::chirp::Chirp;
use wearlock_dsp::correlate::{
    normalized_cross_correlate_fft, profile_rms_delay_spread, CorrelationWorkspace,
};
use wearlock_dsp::level::spl;
use wearlock_dsp::units::{Hz, Meters, SampleRate, Spl};
use wearlock_dsp::window::WindowKind;
use wearlock_dsp::Complex;

use super::{reference, AcousticLink};
use crate::hardware::MicrophoneModel;
use crate::noise::Location;

/// Seeds per location × microphone.
const SEEDS: u64 = 200;

/// The largest |z| a metric's mean paired difference may reach. With
/// about 200 metrics, a zero-mean difference exceeds it with
/// probability ~0.1 %.
const MAX_Z: f64 = 4.5;

/// Ambient recording length: the noise synthesis crossfades five
/// periods over it.
const AMBIENT: usize = 17_000;

/// Running sums of one metric's paired differences.
#[derive(Debug, Clone, Default)]
struct Paired {
    n: f64,
    sum: f64,
    sum_sq: f64,
}

impl Paired {
    fn push(&mut self, d: f64) {
        self.n += 1.0;
        self.sum += d;
        self.sum_sq += d * d;
    }

    fn mean(&self) -> f64 {
        self.sum / self.n
    }

    /// The mean over its standard error (0 for identical pairs).
    fn z(&self) -> f64 {
        let var = (self.sum_sq - self.sum * self.sum / self.n) / (self.n - 1.0);
        let se = (var.max(0.0) / self.n).sqrt();
        if se > 0.0 {
            self.mean() / se
        } else if self.mean() == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    }
}

/// Power in each `(lo, hi)` Hz band, dB, averaged over Hann-windowed
/// 1 024-sample frames of `x` (Welch, no overlap).
fn band_powers_db(x: &[f64], bands: &[(f64, f64)]) -> Vec<f64> {
    const N: usize = 1_024;
    let fft = planned(N).unwrap();
    let window = WindowKind::Hann.coefficients(N);
    let bin = |f: f64| (f * N as f64 / 44_100.0).round() as usize;
    let mut power = vec![0.0; bands.len()];
    for frame in x.chunks_exact(N) {
        let windowed: Vec<f64> = frame.iter().zip(&window).map(|(x, w)| x * w).collect();
        let spectrum = fft.forward_real(&windowed).unwrap();
        for (p, &(lo, hi)) in power.iter_mut().zip(bands) {
            *p += spectrum[bin(lo)..bin(hi)]
                .iter()
                .map(|z| z.norm_sq())
                .sum::<f64>();
        }
    }
    power.iter().map(|p| 10.0 * p.log10()).collect()
}

/// A modem-style probe and its analysis.
struct Probe {
    /// `preamble | guard | block | block`.
    waveform: Vec<f64>,
    preamble: Vec<f64>,
    /// Active sub-channels of the pilot blocks.
    bins: Vec<usize>,
}

/// Preamble (chirp) length, guard after it, block FFT size and cyclic
/// prefix: the modem's defaults.
const PREAMBLE: usize = 256;
const GUARD: usize = 1_024;
const BLOCK: usize = 256;
const CP: usize = 128;
/// The modem's default preamble detection threshold.
const DETECTION: f64 = 0.35;

impl Probe {
    /// The probe for the audible band (1–6 kHz chirp, sub-channels
    /// 7–35) or, `ultrasound`, the 15–20 kHz one (sub-channels 78–106).
    fn new(ultrasound: bool) -> Self {
        let sr = SampleRate::CD;
        let (lo, hi, shift) = if ultrasound {
            (15_000.0, 20_000.0, 71)
        } else {
            (1_000.0, 6_000.0, 0)
        };
        let preamble = Chirp::new(Hz(lo), Hz(hi), PREAMBLE, sr).unwrap().generate();
        let bins: Vec<usize> = (7 + shift..=35 + shift).collect();
        let mut spectrum = vec![Complex::ZERO; BLOCK];
        for &k in &bins {
            spectrum[k] = Complex::ONE;
            spectrum[BLOCK - k] = Complex::ONE;
        }
        let body: Vec<f64> = planned(BLOCK)
            .unwrap()
            .inverse(&spectrum)
            .unwrap()
            .iter()
            .map(|z| z.re)
            .collect();
        // Blocks at the modem's drive level, RMS 0.35.
        let k = 0.35 / (body.iter().map(|x| x * x).sum::<f64>() / BLOCK as f64).sqrt();
        let mut waveform = preamble.clone();
        waveform.resize(PREAMBLE + GUARD, 0.0);
        for _ in 0..2 {
            waveform.extend(body[BLOCK - CP..].iter().chain(&body).map(|x| k * x));
        }
        Probe {
            waveform,
            preamble,
            bins,
        }
    }

    /// Pilot SNR (dB) and RMS delay spread (ms) of `recording`, if the
    /// preamble is found: the delay profile is the squared correlation
    /// scores after the peak above a quarter of it; the pilot SNR is the
    /// first block's power on the active sub-channels over the ambient
    /// noise's there (per-bin median over up to 48 blocks before the
    /// preamble).
    fn analyze(&self, recording: &[f64], ws: &mut CorrelationWorkspace) -> Option<(f64, f64)> {
        let mut scores = Vec::new();
        normalized_cross_correlate_fft(recording, &self.preamble, ws, &mut scores).ok()?;
        let (peak, score) =
            scores
                .iter()
                .enumerate()
                .fold((0, f64::MIN), |b, (i, &v)| if v > b.1 { (i, v) } else { b });
        if score < DETECTION {
            return None;
        }
        let taps: Vec<f64> = scores[peak..(peak + PREAMBLE).min(scores.len())]
            .iter()
            .map(|&s| if s >= 0.25 * score { s * s } else { 0.0 })
            .collect();
        let spread = profile_rms_delay_spread(&taps, SampleRate::CD);

        let fft = planned(BLOCK).unwrap();
        let power = |block: &[f64]| -> Vec<f64> {
            let spectrum = fft.forward_real(block).unwrap();
            self.bins.iter().map(|&k| spectrum[k].norm_sq()).collect()
        };
        let start = peak + PREAMBLE + GUARD + CP;
        let signal = power(recording.get(start..start + BLOCK)?);
        let ambient: Vec<Vec<f64>> = recording[..peak]
            .chunks_exact(BLOCK)
            .take(48)
            .map(power)
            .collect();
        if ambient.is_empty() {
            return None;
        }
        let noise = (0..self.bins.len())
            .map(|b| {
                let mut bin: Vec<f64> = ambient.iter().map(|p| p[b]).collect();
                bin.sort_unstable_by(f64::total_cmp);
                bin[bin.len() / 2]
            })
            .sum::<f64>();
        let snr = (signal.iter().sum::<f64>() - noise) / noise;
        Some((10.0 * snr.max(1e-6).log10(), 1e3 * spread))
    }
}

/// One chain's measurements for one seed.
struct Metrics {
    /// Received SPL of the probe recording, then the ambient band
    /// powers.
    levels: Vec<f64>,
    /// Pilot SNR (dB) and RMS delay spread (ms), if the probe was found.
    probe: Option<(f64, f64)>,
}

#[test]
#[ignore = "Monte-Carlo run, release mode: cargo test --release -p wearlock-acoustics -- --ignored fused_channel"]
fn fused_channel_matches_the_direct_form_chain_statistically() {
    let mut failures = Vec::new();
    for location in [
        Location::QuietRoom,
        Location::Office,
        Location::ClassRoom,
        Location::Cafe,
        Location::GroceryStore,
    ] {
        for (mic, ultrasound) in [
            (MicrophoneModel::moto360(), false),
            (MicrophoneModel::smartphone(), true),
        ] {
            let mut bands: Vec<(f64, f64)> = (0..16)
                .map(|b| (500.0 * b as f64, 500.0 * (b + 1) as f64))
                .collect();
            if ultrasound {
                bands.extend((30..40).map(|b| (500.0 * b as f64, 500.0 * (b + 1) as f64)));
            }
            let probe = Probe::new(ultrasound);
            let link = AcousticLink::builder()
                .distance(Meters(0.3))
                .noise(location.noise_model())
                .microphone(mic)
                .build()
                .unwrap();
            let mut ws = CorrelationWorkspace::new();
            let mut measure = |recording: Vec<f64>, ambient: Vec<f64>| {
                let mut levels = vec![spl(&recording).value()];
                levels.extend(band_powers_db(&ambient, &bands));
                let probe = probe.analyze(&recording, &mut ws);
                Metrics { levels, probe }
            };

            let mut levels = vec![Paired::default(); bands.len() + 1];
            let (mut psnr, mut spread) = (Paired::default(), Paired::default());
            let (mut fused_only, mut direct_only) = (0.0f64, 0.0f64);
            for seed in 0..SEEDS {
                let mut rng = StdRng::seed_from_u64(seed);
                let rec = link.transmit(&probe.waveform, Spl(70.0), &mut rng);
                let fused = measure(rec, link.record_ambient(AMBIENT, &mut rng));
                let mut rng = StdRng::seed_from_u64(seed);
                let rec = reference::transmit(&link, &probe.waveform, Spl(70.0), &mut rng);
                let direct = measure(rec, reference::record_ambient(&link, AMBIENT, &mut rng));
                for (p, (f, d)) in levels
                    .iter_mut()
                    .zip(fused.levels.iter().zip(&direct.levels))
                {
                    p.push(f - d);
                }
                match (fused.probe, direct.probe) {
                    (Some(f), Some(d)) => {
                        psnr.push(f.0 - d.0);
                        spread.push(f.1 - d.1);
                    }
                    (Some(_), None) => fused_only += 1.0,
                    (None, Some(_)) => direct_only += 1.0,
                    (None, None) => {}
                }
            }

            let band = if ultrasound {
                "Near-ultrasound"
            } else {
                "Audible"
            };
            let case = format!("{location} / {band}");
            let mut names = vec!["spl".to_string()];
            names.extend(bands.iter().map(|(lo, hi)| format!("band {lo}-{hi} Hz")));
            names.extend(["psnr".to_string(), "rms delay spread".to_string()]);
            let metrics: Vec<&Paired> = levels.iter().chain([&psnr, &spread]).collect();
            let (worst_name, worst) = names
                .iter()
                .zip(&metrics)
                .map(|(name, p)| (name.as_str(), p.z().abs()))
                .fold(
                    ("", 0.0f64),
                    |a, (name, z)| if z > a.1 { (name, z) } else { a },
                );
            eprintln!(
                "{case}: spl {:+.3} dB, psnr {:+.3} dB ({} pairs), spread {:+.4} ms, \
                 probe found by fused only {fused_only} / direct only {direct_only}, \
                 worst |z| {worst:.2} ({worst_name})",
                levels[0].mean(),
                psnr.mean(),
                psnr.n,
                spread.mean()
            );
            for (name, p) in names.iter().zip(metrics) {
                if p.n >= 20.0 && p.z().abs() > MAX_Z {
                    failures.push(format!(
                        "{case} {name}: mean {:+.4}, z {:.2}",
                        p.mean(),
                        p.z()
                    ));
                }
            }
            // Detection: the discordant pairs must split evenly
            // (McNemar).
            let discordant = fused_only + direct_only;
            if (fused_only - direct_only).abs() > MAX_Z * discordant.sqrt() + 1.0 {
                failures.push(format!(
                    "{case} detection: fused only {fused_only}, direct only {direct_only}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
