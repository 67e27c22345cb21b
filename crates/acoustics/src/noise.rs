//! Ambient noise synthesis.
//!
//! The paper evaluates WearLock in a quiet office (15–20 dB SPL ambient),
//! classrooms, cafes and grocery stores, against noise sources such as
//! human voice, keyboard typing, cafe machines and air conditioners, and
//! against a deliberate tone jammer (Audacity playing up to 6 mono
//! tracks). This module synthesizes all of those as calibrated-SPL
//! sample streams.

use rand::distributions::StandardNormal;
use rand::Rng;

use wearlock_dsp::filter::Fir;
use wearlock_dsp::level::rms;
use wearlock_dsp::units::{Hz, SampleRate, Spl};

/// Generates `len` samples of zero-mean Gaussian noise with standard
/// deviation `std` — the raw ingredient for controlled Eb/N0 sweeps.
pub fn gaussian_noise<R: Rng + ?Sized>(len: usize, std: f64, rng: &mut R) -> Vec<f64> {
    (0..len).map(|_| std * rng.sample(StandardNormal)).collect()
}

/// Samples between the direct `sin_cos` re-anchors of
/// [`for_each_sine`]'s rotating phasor, which bound its accumulated
/// rounding error (within 1e−11 of `sin` in the tests).
const PHASOR_BLOCK: usize = 1_024;

/// Calls `f(&mut out[i], sin(w·i + phase))` for every sample, rotating
/// a phasor by `w` per sample instead of calling `sin` each time.
fn for_each_sine(out: &mut [f64], w: f64, phase: f64, mut f: impl FnMut(&mut f64, f64)) {
    let (sin_w, cos_w) = w.sin_cos();
    for (b, block) in out.chunks_mut(PHASOR_BLOCK).enumerate() {
        let (mut s, mut c) = (w * (b * PHASOR_BLOCK) as f64 + phase).sin_cos();
        for o in block {
            f(o, s);
            (s, c) = (s * cos_w + c * sin_w, c * cos_w - s * sin_w);
        }
    }
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

/// A synthetic ambient-noise source with a calibrated SPL.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseModel {
    /// Flat-spectrum Gaussian noise.
    White {
        /// Long-term SPL of the noise.
        spl: Spl,
    },
    /// Speech-like babble: low-pass-shaped noise (voice energy sits
    /// below ~4 kHz) with slow syllabic amplitude modulation.
    Speech {
        /// Long-term SPL of the babble.
        spl: Spl,
    },
    /// Machine rumble (air conditioner / cafe machine): strong
    /// low-frequency noise plus a mains-hum tone.
    Machine {
        /// Long-term SPL of the rumble.
        spl: Spl,
    },
    /// Impulsive transients (keyboard typing, dishes): sparse damped
    /// high-frequency bursts.
    Transients {
        /// SPL measured over the whole stream (bursts are much louder
        /// than the average).
        spl: Spl,
        /// Expected bursts per second.
        rate_hz: f64,
    },
    /// Deliberate jamming tones at fixed frequencies (the paper's
    /// Audacity tone generator, at most 6 simultaneous mono tracks).
    Tones {
        /// Tone frequencies.
        freqs: Vec<Hz>,
        /// Combined SPL of all tones.
        spl: Spl,
    },
    /// Sum of component sources, each already carrying its own SPL.
    Mixture(Vec<NoiseModel>),
}

impl NoiseModel {
    /// Silence (a white source at −inf dB would also work, but this is
    /// explicit): generates all-zero samples.
    pub fn silence() -> Self {
        NoiseModel::Mixture(Vec::new())
    }

    /// The nominal long-term SPL of this source (power sum for
    /// mixtures).
    pub fn spl(&self) -> Spl {
        match self {
            NoiseModel::White { spl }
            | NoiseModel::Speech { spl }
            | NoiseModel::Machine { spl }
            | NoiseModel::Transients { spl, .. }
            | NoiseModel::Tones { spl, .. } => *spl,
            NoiseModel::Mixture(parts) => {
                if parts.is_empty() {
                    return Spl(f64::NEG_INFINITY);
                }
                let total: f64 = parts
                    .iter()
                    .map(|p| 10f64.powf(p.spl().value() / 10.0))
                    .sum();
                Spl(10.0 * total.log10())
            }
        }
    }

    /// Generates `len` samples of this noise at `sample_rate`.
    ///
    /// Each concrete source is RMS-calibrated to its configured SPL, so
    /// the modem's SNR accounting lines up with the paper's dB figures.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        len: usize,
        sample_rate: SampleRate,
        rng: &mut R,
    ) -> Vec<f64> {
        match self {
            NoiseModel::White { spl } => {
                let mut out = gaussian_noise(len, 1.0, rng);
                calibrate_spl(&mut out, *spl);
                out
            }
            NoiseModel::Speech { spl } => {
                let raw = gaussian_noise(len, 1.0, rng);
                let lpf = Fir::low_pass(Hz(4_000.0), 61, sample_rate)
                    .expect("static speech LPF design is valid");
                let mut shaped = lpf.apply(&raw);
                // Syllabic modulation ~4 Hz with random phase.
                let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                let w = std::f64::consts::TAU * 4.0 / sample_rate.value();
                for_each_sine(&mut shaped, w, phase, |s, v| *s *= 0.6 + 0.4 * v);
                calibrate_spl(&mut shaped, *spl);
                shaped
            }
            NoiseModel::Machine { spl } => {
                let raw = gaussian_noise(len, 1.0, rng);
                let lpf = Fir::low_pass(Hz(400.0), 61, sample_rate)
                    .expect("static machine LPF design is valid");
                let mut shaped = lpf.apply(&raw);
                let hum = std::f64::consts::TAU * 120.0 / sample_rate.value();
                let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                for_each_sine(&mut shaped, hum, phase, |s, v| *s += 0.3 * v);
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
                        let w = std::f64::consts::TAU * f / sample_rate.value();
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
                    let w = std::f64::consts::TAU * f.value() / sample_rate.value();
                    let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                    for_each_sine(&mut out, w, phase, |s, v| *s += v);
                }
                calibrate_spl(&mut out, *spl);
                out
            }
            NoiseModel::Mixture(parts) => {
                let mut out = vec![0.0; len];
                for part in parts {
                    for (o, v) in out.iter_mut().zip(part.generate(len, sample_rate, rng)) {
                        *o += v;
                    }
                }
                out
            }
        }
    }
}

/// The field-test environments of Table I plus the quiet room used for
/// the controlled measurements (Figs. 4, 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// Quiet room, ambient 15–20 dB SPL (Fig. 4 setup).
    QuietRoom,
    /// Office: keyboard typing, low speech, HVAC.
    Office,
    /// Classroom: sustained speech.
    ClassRoom,
    /// Cafe: speech babble plus machine noise.
    Cafe,
    /// Grocery store: broadband crowd/machinery noise.
    GroceryStore,
}

impl Location {
    /// All field-test locations in Table I order.
    pub const FIELD_TEST: [Location; 4] = [
        Location::Office,
        Location::ClassRoom,
        Location::Cafe,
        Location::GroceryStore,
    ];

    /// Nominal ambient SPL of this environment.
    pub fn ambient_spl(self) -> Spl {
        match self {
            Location::QuietRoom => Spl(17.5),
            Location::Office => Spl(35.0),
            Location::ClassRoom => Spl(42.0),
            Location::Cafe => Spl(50.0),
            Location::GroceryStore => Spl(55.0),
        }
    }

    /// The composite noise model for this environment.
    pub fn noise_model(self) -> NoiseModel {
        let spl = self.ambient_spl();
        match self {
            Location::QuietRoom => NoiseModel::White { spl },
            Location::Office => NoiseModel::Mixture(vec![
                NoiseModel::Speech {
                    spl: spl - Spl(4.0),
                },
                NoiseModel::Machine {
                    spl: spl - Spl(6.0),
                },
                NoiseModel::Transients {
                    spl: spl - Spl(8.0),
                    rate_hz: 6.0,
                },
                NoiseModel::White {
                    spl: spl - Spl(12.0),
                },
            ]),
            Location::ClassRoom => NoiseModel::Mixture(vec![
                NoiseModel::Speech {
                    spl: spl - Spl(1.0),
                },
                NoiseModel::Machine {
                    spl: spl - Spl(10.0),
                },
                NoiseModel::White {
                    spl: spl - Spl(12.0),
                },
            ]),
            Location::Cafe => NoiseModel::Mixture(vec![
                NoiseModel::Speech {
                    spl: spl - Spl(3.0),
                },
                NoiseModel::Machine {
                    spl: spl - Spl(4.0),
                },
                NoiseModel::Transients {
                    spl: spl - Spl(9.0),
                    rate_hz: 3.0,
                },
                NoiseModel::White {
                    spl: spl - Spl(12.0),
                },
            ]),
            Location::GroceryStore => NoiseModel::Mixture(vec![
                NoiseModel::White {
                    spl: spl - Spl(3.0),
                },
                NoiseModel::Speech {
                    spl: spl - Spl(5.0),
                },
                NoiseModel::Machine {
                    spl: spl - Spl(5.0),
                },
            ]),
        }
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Location::QuietRoom => "Quiet Room",
            Location::Office => "Office",
            Location::ClassRoom => "Class Room",
            Location::Cafe => "Cafe",
            Location::GroceryStore => "Grocery Store",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_dsp::goertzel::goertzel_power;
    use wearlock_dsp::level::spl;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn white_noise_hits_target_spl() {
        let m = NoiseModel::White { spl: Spl(30.0) };
        let s = m.generate(44_100, SampleRate::CD, &mut rng());
        assert!((spl(&s).value() - 30.0).abs() < 0.5);
    }

    #[test]
    fn randn_moments() {
        let xs = gaussian_noise(200_000, 1.0, &mut rng());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn phasor_sine_tracks_direct_sine() {
        // Slow syllabic, mains-hum and jammer-tone rates, over several
        // re-anchor blocks and a partial last block.
        for (w, phase) in [(5.7e-4, 0.3), (0.0171, 5.9), (1.9, 2.2)] {
            let mut out = vec![0.0; 5 * PHASOR_BLOCK + 77];
            for_each_sine(&mut out, w, phase, |o, v| *o = v);
            for (i, &v) in out.iter().enumerate() {
                let direct = (w * i as f64 + phase).sin();
                assert!((v - direct).abs() < 1e-11, "w {w} i {i}: {v} vs {direct}");
            }
        }
    }

    #[test]
    fn speech_energy_below_4khz() {
        let m = NoiseModel::Speech { spl: Spl(40.0) };
        let s = m.generate(44_100, SampleRate::CD, &mut rng());
        let low = goertzel_power(&s, Hz(1_000.0), SampleRate::CD).unwrap()
            + goertzel_power(&s, Hz(2_500.0), SampleRate::CD).unwrap();
        let high = goertzel_power(&s, Hz(12_000.0), SampleRate::CD).unwrap()
            + goertzel_power(&s, Hz(18_000.0), SampleRate::CD).unwrap();
        assert!(low > 20.0 * high, "low {low} high {high}");
    }

    #[test]
    fn tones_land_on_requested_frequencies() {
        let m = NoiseModel::Tones {
            freqs: vec![Hz(2_756.25), Hz(4_134.375)], // bin-centred at N=256
            spl: Spl(45.0),
        };
        let s = m.generate(44_100, SampleRate::CD, &mut rng());
        let on = goertzel_power(&s, Hz(2_756.25), SampleRate::CD).unwrap();
        let off = goertzel_power(&s, Hz(9_000.0), SampleRate::CD).unwrap();
        assert!(on > 1_000.0 * off.max(1e-12));
        assert!((spl(&s).value() - 45.0).abs() < 0.5);
    }

    #[test]
    fn mixture_spl_is_power_sum() {
        let m = NoiseModel::Mixture(vec![
            NoiseModel::White { spl: Spl(40.0) },
            NoiseModel::White { spl: Spl(40.0) },
        ]);
        // Two equal incoherent sources: +3 dB.
        assert!((m.spl().value() - 43.0103).abs() < 1e-3);
        let s = m.generate(44_100, SampleRate::CD, &mut rng());
        assert!((spl(&s).value() - 43.0).abs() < 1.0);
    }

    #[test]
    fn silence_generates_zeros() {
        let s = NoiseModel::silence().generate(100, SampleRate::CD, &mut rng());
        assert!(s.iter().all(|&v| v == 0.0));
        assert_eq!(NoiseModel::silence().spl().value(), f64::NEG_INFINITY);
    }

    #[test]
    fn transients_are_sparse_and_impulsive() {
        let m = NoiseModel::Transients {
            spl: Spl(35.0),
            rate_hz: 4.0,
        };
        let s = m.generate(44_100, SampleRate::CD, &mut rng());
        let peak = s.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let r = wearlock_dsp::level::rms(&s);
        // Crest factor far above Gaussian (~4x rms): impulsive.
        assert!(peak > 8.0 * r, "peak {peak} rms {r}");
    }

    #[test]
    fn locations_ordered_by_loudness() {
        let mut prev = f64::NEG_INFINITY;
        for loc in [
            Location::QuietRoom,
            Location::Office,
            Location::ClassRoom,
            Location::Cafe,
            Location::GroceryStore,
        ] {
            let v = loc.ambient_spl().value();
            assert!(v > prev, "{loc} not louder than previous");
            prev = v;
        }
    }

    #[test]
    fn location_models_generate_near_nominal_spl() {
        for loc in Location::FIELD_TEST {
            let s = loc
                .noise_model()
                .generate(44_100, SampleRate::CD, &mut rng());
            let measured = spl(&s).value();
            let nominal = loc.ambient_spl().value();
            assert!(
                (measured - nominal).abs() < 3.0,
                "{loc}: measured {measured} vs nominal {nominal}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let m = Location::Cafe.noise_model();
        let a = m.generate(1_000, SampleRate::CD, &mut rng());
        let b = m.generate(1_000, SampleRate::CD, &mut rng());
        assert_eq!(a, b);
    }
}
