//! Speaker and microphone hardware models.
//!
//! The paper's design is shaped by three hardware realities (§III.3,
//! §III.2 and Fig. 5's discussion):
//!
//! * **Rise effect** — a speaker cannot reach full power instantly; we
//!   model a first-order attack envelope.
//! * **Ringing effect** — the speaker output decays with a reverberation
//!   tail after the input stops; we model an exponential ring-out.
//! * **Band limits** — the Moto 360's microphone path has a mandatory
//!   low-pass that kills everything above ~7 kHz (signal already fades
//!   5→7 kHz), which forces audible-band (1–6 kHz) operation for
//!   phone–watch pairs; phone microphones pass near-ultrasound
//!   (15–20 kHz).
//! * **Timing jitter** — sample-clock wobble and micro-movements rotate
//!   phase proportionally to frequency, which is why the paper measures
//!   amplitude-shift keying needing *less* SNR per bit than phase-shift
//!   keying on real devices (Fig. 5), inverting the textbook ordering.

use std::fmt;
use std::sync::{Arc, Mutex};

use rand::Rng;

use wearlock_dsp::filter::Fir;
use wearlock_dsp::level::rms;
use wearlock_dsp::resample::sample_at;
use wearlock_dsp::units::{Hz, SampleRate, Seconds, Spl};

use crate::noise::randn;

/// A loudspeaker model: volume ceiling, attack (rise) envelope, ring-out
/// tail, and output band limit.
#[derive(Clone, PartialEq)]
pub struct SpeakerModel {
    max_spl: Spl,
    rise: Seconds,
    ringing: Seconds,
    band: Option<(Hz, Hz)>,
    /// Peak amplitude (radians) of the device's phase-response ripple.
    phase_ripple: f64,
    /// Phase offset of the ripple pattern — each physical speaker unit
    /// has its own resonance placement, making the ripple a usable
    /// hardware fingerprint (the paper's proposed relay counter-measure).
    ripple_phase: f64,
    /// The allpass FIR realizing the ripple, looked up whenever the two
    /// ripple parameters are set (`None` without ripple).
    ripple_fir: Option<Arc<Fir>>,
}

impl fmt::Debug for SpeakerModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The ripple FIR is derived from the fields shown.
        f.debug_struct("SpeakerModel")
            .field("max_spl", &self.max_spl)
            .field("rise", &self.rise)
            .field("ringing", &self.ringing)
            .field("band", &self.band)
            .field("phase_ripple", &self.phase_ripple)
            .field("ripple_phase", &self.ripple_phase)
            .finish()
    }
}

/// Builds the fixed allpass FIR realizing a speaker's phase-response
/// ripple: unit magnitude, phase `φ(f)` wiggling across frequency with
/// periods of a few OFDM sub-channels — too fast for 4-bin-spaced pilot
/// interpolation to track, which is what makes phase keying need more
/// SNR per bit than amplitude keying on real audio hardware (paper
/// Fig. 5 discussion).
fn phase_ripple_fir(amplitude: f64, phase_offset: f64) -> Fir {
    // Designed at 4x the modem FFT size so the truncated impulse
    // response stays a faithful allpass (flat magnitude) under linear
    // convolution.
    const N: usize = 1024;
    let fft = wearlock_dsp::Fft::new(N).expect("static fft size");
    let phi = |k: usize| -> f64 {
        let x = k as f64;
        // Spatial period of 8.6 modem bins (34.4 design bins):
        // marginally resolvable by the 4-bin pilot spacing, so pilot
        // interpolation leaves a residual phase error at the data bins.
        // The ripple amplitude rolls off above ~3.5 kHz (design bin
        // 160): cone resonances that wrinkle the phase response live at
        // low frequencies, so the near-ultrasound band sees a smoother
        // response.
        let roll = (160.0 / x.max(1.0)).min(1.0);
        amplitude * roll * (std::f64::consts::TAU * x / 34.4 + 0.7 + phase_offset).sin()
    };

    let mut spectrum = vec![wearlock_dsp::Complex::ZERO; N];
    spectrum[0] = wearlock_dsp::Complex::ONE;
    spectrum[N / 2] = wearlock_dsp::Complex::ONE;
    for k in 1..N / 2 {
        let h = wearlock_dsp::Complex::cis(phi(k));
        spectrum[k] = h;
        spectrum[N - k] = h.conj();
    }
    let ir = fft.inverse(&spectrum).expect("exact length");
    // Centre the impulse response so Fir::apply's group-delay
    // compensation keeps the output aligned.
    let taps: Vec<f64> = (0..N).map(|i| ir[(i + N / 2) % N].re).collect();
    Fir::from_taps(taps).expect("non-empty taps")
}

/// The ripple FIR for `(amplitude, phase_offset)`, shared process-wide:
/// every speaker built with the same parameters (one per session
/// configuration, and a fleet builds a session per cold user) reuses
/// one 8 KiB design instead of repeating the inverse FFT. Keyed on the
/// exact bits; the few most recent designs are kept, so a sweep over
/// ripple phases stays bounded.
fn shared_ripple_fir(amplitude: f64, phase_offset: f64) -> Arc<Fir> {
    /// Designs by `(amplitude, phase_offset)` bits, oldest first.
    type Designs = Vec<((u64, u64), Arc<Fir>)>;
    const KEPT: usize = 8;
    static DESIGNS: Mutex<Designs> = Mutex::new(Vec::new());
    let key = (amplitude.to_bits(), phase_offset.to_bits());
    let mut designs = DESIGNS
        .lock()
        .expect("ripple design cache poisoned by a panicking design");
    if let Some((_, fir)) = designs.iter().find(|(k, _)| *k == key) {
        return Arc::clone(fir);
    }
    let fir = Arc::new(phase_ripple_fir(amplitude, phase_offset));
    if designs.len() == KEPT {
        designs.remove(0);
    }
    designs.push((key, Arc::clone(&fir)));
    fir
}

impl SpeakerModel {
    /// A smartphone loudspeaker: 70 dB ceiling (a realistic phone
    /// speaker driven near max media volume), 1 ms rise, 4 ms ring,
    /// 100 Hz – 20 kHz response.
    pub fn smartphone() -> Self {
        SpeakerModel {
            max_spl: Spl(70.0),
            rise: Seconds(0.001),
            ringing: Seconds(0.004),
            band: Some((Hz(100.0), Hz(20_000.0))),
            phase_ripple: 0.55,
            ripple_phase: 0.0,
            ripple_fir: None,
        }
        .with_designed_ripple()
    }

    /// An idealized speaker (no rise/ringing/band limit), useful for
    /// controlled modem experiments.
    pub fn ideal() -> Self {
        SpeakerModel {
            max_spl: Spl(f64::INFINITY),
            rise: Seconds(0.0),
            ringing: Seconds(0.0),
            band: None,
            phase_ripple: 0.0,
            ripple_phase: 0.0,
            ripple_fir: None,
        }
    }

    /// Sets the ripple FIR for the current ripple parameters.
    fn with_designed_ripple(mut self) -> Self {
        self.ripple_fir = (self.phase_ripple > 0.0)
            .then(|| shared_ripple_fir(self.phase_ripple, self.ripple_phase));
        self
    }

    /// Overrides the maximum output SPL.
    pub fn with_max_spl(mut self, max_spl: Spl) -> Self {
        self.max_spl = max_spl;
        self
    }

    /// Overrides the rise time.
    pub fn with_rise(mut self, rise: Seconds) -> Self {
        self.rise = rise;
        self
    }

    /// Overrides the ringing tail length.
    pub fn with_ringing(mut self, ringing: Seconds) -> Self {
        self.ringing = ringing;
        self
    }

    /// Overrides the phase-response ripple amplitude in radians
    /// (0 disables it).
    pub fn with_phase_ripple(mut self, amplitude: f64) -> Self {
        self.phase_ripple = amplitude;
        self.with_designed_ripple()
    }

    /// Sets this unit's ripple phase offset — distinct physical
    /// speakers carry distinct offsets, which is what acoustic
    /// hardware fingerprinting keys on.
    pub fn with_ripple_phase(mut self, phase: f64) -> Self {
        self.ripple_phase = phase;
        self.with_designed_ripple()
    }

    /// The loudest SPL this speaker can produce.
    pub fn max_spl(&self) -> Spl {
        self.max_spl
    }

    /// Renders `signal` at the requested `volume` (target SPL, clamped
    /// to the speaker ceiling), applying rise envelope, ringing tail and
    /// band limit. Output is `signal.len() + ringing` samples.
    pub fn emit(&self, signal: &[f64], volume: Spl, sample_rate: SampleRate) -> Vec<f64> {
        if signal.is_empty() {
            return Vec::new();
        }
        let target = Spl(volume.value().min(self.max_spl.value()));
        let r = rms(signal);
        let gain = if r > 0.0 {
            target.to_amplitude() / r
        } else {
            0.0
        };

        let rise_n = self.rise.to_samples(sample_rate);
        let ring_n = self.ringing.to_samples(sample_rate);
        let mut out = vec![0.0; signal.len() + ring_n];

        // First-order attack envelope (rise effect).
        for (i, &x) in signal.iter().enumerate() {
            let env = if rise_n == 0 {
                1.0
            } else {
                1.0 - (-(i as f64) / (rise_n as f64 / 3.0)).exp()
            };
            out[i] = gain * env * x;
        }
        // Exponential ring-out continuing the last oscillation
        // (reverberation tail slowly reducing to zero).
        if ring_n > 0 && signal.len() >= 2 {
            let last = gain * signal[signal.len() - 1];
            let prev = gain * signal[signal.len() - 2];
            let slope = last - prev;
            for j in 0..ring_n {
                let env = (-(j as f64) / (ring_n as f64 / 4.0)).exp();
                out[signal.len() + j] = env
                    * (last + slope * (j as f64 + 1.0))
                        .clamp(-last.abs().max(1e-12) * 2.0, last.abs().max(1e-12) * 2.0);
            }
        }
        if let Some((lo, hi)) = self.band {
            let nyq = sample_rate.nyquist().value();
            let hi = Hz(hi.value().min(nyq * 0.98));
            if let Ok(bpf) = Fir::band_pass(lo, hi, 101, sample_rate) {
                out = bpf.apply(&out);
            }
        }
        if let Some(ripple) = &self.ripple_fir {
            out = ripple.apply(&out);
        }
        out
    }
}

impl Default for SpeakerModel {
    fn default() -> Self {
        SpeakerModel::smartphone()
    }
}

/// A microphone model: band limit, self-noise floor, ADC resolution and
/// clock jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct MicrophoneModel {
    cutoff: Option<Hz>,
    noise_floor: Spl,
    adc_bits: u32,
    /// Standard deviation of the slowly varying sampling-time jitter, in
    /// samples. Rotates phase ∝ frequency; hurts PSK more than ASK.
    jitter_std: f64,
}

impl MicrophoneModel {
    /// A smartwatch microphone patterned on the Moto 360: mandatory
    /// ~7 kHz low-pass (speech-recognition front end), modest noise
    /// floor, 16-bit ADC, noticeable clock jitter.
    pub fn moto360() -> Self {
        MicrophoneModel {
            cutoff: Some(Hz(7_000.0)),
            noise_floor: Spl(8.0),
            adc_bits: 16,
            jitter_std: 0.35,
        }
    }

    /// A smartphone microphone: full-band response up to ~21 kHz
    /// (supports near-ultrasound), lower noise floor, small clock
    /// jitter (at 18 kHz even fractions of a sample rotate phase
    /// substantially, and phone audio clocks are better than watch
    /// ones).
    pub fn smartphone() -> Self {
        MicrophoneModel {
            cutoff: Some(Hz(21_000.0)),
            noise_floor: Spl(4.0),
            adc_bits: 16,
            jitter_std: 0.05,
        }
    }

    /// An idealized microphone (no band limit, noise, quantization or
    /// jitter).
    pub fn ideal() -> Self {
        MicrophoneModel {
            cutoff: None,
            noise_floor: Spl(f64::NEG_INFINITY),
            adc_bits: 0,
            jitter_std: 0.0,
        }
    }

    /// Overrides the low-pass cutoff (None disables it).
    pub fn with_cutoff(mut self, cutoff: Option<Hz>) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Overrides the clock-jitter standard deviation in samples.
    pub fn with_jitter(mut self, jitter_std: f64) -> Self {
        self.jitter_std = jitter_std;
        self
    }

    /// Overrides the self-noise floor.
    pub fn with_noise_floor(mut self, noise_floor: Spl) -> Self {
        self.noise_floor = noise_floor;
        self
    }

    /// The band-limit cutoff, if any.
    pub fn cutoff(&self) -> Option<Hz> {
        self.cutoff
    }

    /// Records a pressure waveform through this microphone: band limit,
    /// clock jitter, self noise, then ADC quantization.
    ///
    /// The returned buffer has the same length as the input.
    pub fn record<R: Rng + ?Sized>(
        &self,
        signal: &[f64],
        sample_rate: SampleRate,
        rng: &mut R,
    ) -> Vec<f64> {
        if signal.is_empty() {
            return Vec::new();
        }
        let mut out = signal.to_vec();

        if let Some(cutoff) = self.cutoff {
            let nyq = sample_rate.nyquist().value();
            if cutoff.value() < nyq * 0.99 {
                let lpf = Fir::low_pass(cutoff, 101, sample_rate)
                    .expect("validated cutoff below nyquist");
                out = lpf.apply(&out);
            }
        }

        if self.jitter_std > 0.0 {
            // Slowly varying sampling-offset random walk (Ornstein-
            // Uhlenbeck), bounded to a few samples.
            let mut offset = 0.0f64;
            let alpha = 0.002_f64; // mean-reversion per sample
            let sigma = self.jitter_std * (2.0 * alpha).sqrt();
            let src = out.clone();
            for (n, o) in out.iter_mut().enumerate() {
                offset += -alpha * offset + sigma * randn(rng);
                *o = sample_at(&src, n as f64 + offset);
            }
        }

        if self.noise_floor.value().is_finite() {
            let amp = self.noise_floor.to_amplitude();
            for o in out.iter_mut() {
                *o += amp * randn(rng);
            }
        }

        if self.adc_bits > 0 {
            // Full scale sized to the observed peak (AGC-style), then
            // uniform quantization.
            let peak = out.iter().fold(1e-12f64, |a, &b| a.max(b.abs()));
            let levels = (1u64 << (self.adc_bits - 1)) as f64;
            for o in out.iter_mut() {
                let q = (*o / peak * levels).round() / levels * peak;
                *o = q;
            }
        }
        out
    }
}

impl Default for MicrophoneModel {
    fn default() -> Self {
        MicrophoneModel::smartphone()
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
        StdRng::seed_from_u64(11)
    }

    fn tone(f: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / 44_100.0).sin())
            .collect()
    }

    #[test]
    fn speaker_calibrates_output_spl() {
        let spk = SpeakerModel::smartphone();
        let out = spk.emit(&tone(3_000.0, 44_100), Spl(70.0), SampleRate::CD);
        // Rise envelope and band filter shave a little; within 1 dB.
        assert!((spl(&out).value() - 70.0).abs() < 1.0, "{}", spl(&out));
    }

    #[test]
    fn speaker_clamps_to_max_spl() {
        let spk = SpeakerModel::smartphone().with_max_spl(Spl(60.0));
        let out = spk.emit(&tone(3_000.0, 44_100), Spl(90.0), SampleRate::CD);
        assert!(spl(&out).value() < 61.0);
    }

    #[test]
    fn ripple_fir_is_designed_by_the_ripple_setters() {
        let spk = SpeakerModel::smartphone().with_ripple_phase(2.0);
        let fir = spk.ripple_fir.as_deref().expect("smartphone ripple");
        assert_eq!(fir, &phase_ripple_fir(0.55, 2.0));
        let flat = spk.with_phase_ripple(0.0);
        assert!(flat.ripple_fir.is_none());
        let again = flat.with_phase_ripple(0.3);
        assert_eq!(
            again.ripple_fir.as_deref(),
            Some(&phase_ripple_fir(0.3, 2.0))
        );
        // Equal parameters share one design.
        let a = SpeakerModel::smartphone().ripple_fir.unwrap();
        let b = SpeakerModel::smartphone().ripple_fir.unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn rise_effect_suppresses_onset() {
        let spk = SpeakerModel::smartphone()
            .with_rise(Seconds(0.005))
            .with_ringing(Seconds(0.0));
        let sig = tone(3_000.0, 2_000);
        let out = spk.emit(&sig, Spl(60.0), SampleRate::CD);
        let early = out[..30].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let late = out[500..600].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(early < 0.6 * late, "early {early} late {late}");
    }

    #[test]
    fn ringing_extends_output() {
        let spk = SpeakerModel::ideal().with_ringing(Seconds(0.002));
        let out = spk.emit(&tone(2_000.0, 1_000), Spl(60.0), SampleRate::CD);
        assert_eq!(out.len(), 1_000 + (0.002f64 * 44_100.0).round() as usize);
    }

    #[test]
    fn ideal_speaker_preserves_shape() {
        let spk = SpeakerModel::ideal();
        let sig = tone(5_000.0, 512);
        let out = spk.emit(&sig, Spl(40.0), SampleRate::CD);
        // Same shape scaled: correlation ~1.
        let corr = wearlock_dsp::stats::pearson(&sig, &out[..512]);
        assert!(corr > 0.999, "corr {corr}");
    }

    #[test]
    fn moto360_kills_near_ultrasound() {
        let mic = MicrophoneModel::moto360().with_noise_floor(Spl(f64::NEG_INFINITY));
        let mut r = rng();
        let audible = mic.record(&tone(3_000.0, 8_192), SampleRate::CD, &mut r);
        let ultra = mic.record(&tone(18_000.0, 8_192), SampleRate::CD, &mut r);
        let pa = goertzel_power(&audible, Hz(3_000.0), SampleRate::CD).unwrap();
        let pu = goertzel_power(&ultra, Hz(18_000.0), SampleRate::CD).unwrap();
        assert!(pa > 100.0 * pu, "audible {pa} ultra {pu}");
    }

    #[test]
    fn smartphone_mic_passes_near_ultrasound() {
        let mic = MicrophoneModel::smartphone().with_noise_floor(Spl(f64::NEG_INFINITY));
        let ultra = mic.record(&tone(18_000.0, 8_192), SampleRate::CD, &mut rng());
        let p = goertzel_power(&ultra, Hz(18_000.0), SampleRate::CD).unwrap();
        assert!(p > 0.1, "p {p}");
    }

    #[test]
    fn mic_noise_floor_sets_silence_level() {
        let mic = MicrophoneModel::smartphone()
            .with_cutoff(None)
            .with_jitter(0.0)
            .with_noise_floor(Spl(10.0));
        let silence = vec![0.0; 44_100];
        let out = mic.record(&silence, SampleRate::CD, &mut rng());
        assert!((spl(&out).value() - 10.0).abs() < 1.0, "{}", spl(&out));
    }

    #[test]
    fn ideal_mic_is_transparent() {
        let mic = MicrophoneModel::ideal();
        let sig = tone(1_000.0, 256);
        let out = mic.record(&sig, SampleRate::CD, &mut rng());
        assert_eq!(out, sig);
    }

    #[test]
    fn jitter_perturbs_high_frequencies_more() {
        let mic = MicrophoneModel::ideal().with_jitter(0.5);
        let mut r1 = rng();
        let mut r2 = rng();
        let low = tone(1_000.0, 8_192);
        let high = tone(18_000.0, 8_192);
        let low_out = mic.record(&low, SampleRate::CD, &mut r1);
        let high_out = mic.record(&high, SampleRate::CD, &mut r2);
        // Same jitter realization (same seed): compare distortion energy.
        let err_low: f64 = low
            .iter()
            .zip(&low_out)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let err_high: f64 = high
            .iter()
            .zip(&high_out)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(err_high > 5.0 * err_low, "low {err_low} high {err_high}");
    }

    #[test]
    fn empty_signal_yields_empty() {
        assert!(SpeakerModel::default()
            .emit(&[], Spl(60.0), SampleRate::CD)
            .is_empty());
        assert!(MicrophoneModel::default()
            .record(&[], SampleRate::CD, &mut rng())
            .is_empty());
    }
}
