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

use rand::Rng;

use wearlock_dsp::cache::planned;
use wearlock_dsp::filter::Fir;
use wearlock_dsp::level::rms;
use wearlock_dsp::resample::sample_at;
use wearlock_dsp::units::{Hz, SampleRate, Seconds, Spl};
use wearlock_dsp::Complex;

use crate::fused::add_received_signal;
use crate::multipath::ImpulseResponse;
use crate::noise::for_each_normal;

/// Taps of the speaker's output band-pass.
pub(crate) const BAND_PASS_TAPS: usize = 101;

/// Taps of the speaker's phase-ripple allpass, designed at 4x the modem
/// FFT size so the truncated impulse response stays a faithful allpass
/// (flat magnitude) under linear convolution.
pub(crate) const RIPPLE_TAPS: usize = 1024;

/// Taps of the microphone's low-pass.
pub(crate) const MIC_TAPS: usize = 101;

/// A loudspeaker model: volume ceiling, attack (rise) envelope, ring-out
/// tail, and output band limit.
#[derive(Debug, Clone, PartialEq)]
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
}

/// Builds the fixed allpass FIR realizing a speaker's phase-response
/// ripple: unit magnitude, phase `φ(f)` wiggling across frequency with
/// periods of a few OFDM sub-channels — too fast for 4-bin-spaced pilot
/// interpolation to track, which is what makes phase keying need more
/// SNR per bit than amplitude keying on real audio hardware (paper
/// Fig. 5 discussion).
fn phase_ripple_fir(amplitude: f64, phase_offset: f64) -> Fir {
    const N: usize = RIPPLE_TAPS;
    let fft = planned(N).expect("static fft size");
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

    let mut spectrum = vec![Complex::ZERO; N];
    spectrum[0] = Complex::ONE;
    spectrum[N / 2] = Complex::ONE;
    for k in 1..N / 2 {
        let h = Complex::cis(phi(k));
        spectrum[k] = h;
        spectrum[N - k] = h.conj();
    }
    let ir = fft.inverse(&spectrum).expect("exact length");
    // Centre the impulse response so Fir::apply's group-delay
    // compensation keeps the output aligned.
    let taps: Vec<f64> = (0..N).map(|i| ir[(i + N / 2) % N].re).collect();
    Fir::from_taps(taps).expect("non-empty taps")
}

/// The `taps`-tap low-pass at `cutoff`, or `None` where it would not
/// limit the band: a cutoff at or above 99 % of Nyquist (a microphone
/// set to pass everything) leaves the band unlimited. A non-positive or
/// non-finite cutoff has no design and also gives `None`
/// (`AcousticLink`'s builder rejects those for the microphone).
pub(crate) fn band_limit(cutoff: Hz, taps: usize) -> Option<Fir> {
    if cutoff.value() < SampleRate::CD.nyquist().value() * 0.99 {
        Fir::low_pass(cutoff, taps, SampleRate::CD).ok()
    } else {
        None
    }
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
        }
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
        }
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
        self
    }

    /// Sets this unit's ripple phase offset — distinct physical
    /// speakers carry distinct offsets, which is what acoustic
    /// hardware fingerprinting keys on.
    pub fn with_ripple_phase(mut self, phase: f64) -> Self {
        self.ripple_phase = phase;
        self
    }

    /// The loudest SPL this speaker can produce.
    pub fn max_spl(&self) -> Spl {
        self.max_spl
    }

    /// Renders `signal` at the requested `volume` (target SPL, clamped
    /// to the speaker ceiling), applying rise envelope, ringing tail,
    /// band limit and phase ripple. Output is `signal.len() + ringing`
    /// samples.
    ///
    /// The band-pass and ripple run as the channel's fused operator
    /// ([`add_received_signal`] through an ideal microphone and the
    /// identity response), so their tails are cut once, at the ends of
    /// the output.
    pub fn emit(&self, signal: &[f64], volume: Spl) -> Vec<f64> {
        let drive = self.drive(signal, volume);
        let mut out = vec![0.0; drive.len()];
        add_received_signal(
            self,
            &MicrophoneModel::ideal(),
            &drive,
            &ImpulseResponse::identity(),
            &mut out,
            0,
        );
        out
    }

    /// The drive waveform behind [`SpeakerModel::emit`]'s linear
    /// response: `signal` scaled to `volume` (clamped to the ceiling),
    /// shaped by the rise envelope and followed by the ring-out tail.
    /// `signal.len() + ringing` samples; empty for an empty signal.
    pub(crate) fn drive(&self, signal: &[f64], volume: Spl) -> Vec<f64> {
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

        let rise_n = self.rise.to_samples(SampleRate::CD);
        let ring_n = self.ringing.to_samples(SampleRate::CD);
        let mut out = vec![0.0; signal.len() + ring_n];

        // First-order attack envelope (rise effect). Once the decaying
        // term falls to 2^-54 or below, `1 − term` rounds to exactly 1.
        let mut risen = rise_n == 0;
        for (i, &x) in signal.iter().enumerate() {
            let env = if risen {
                1.0
            } else {
                let term = (-(i as f64) / (rise_n as f64 / 3.0)).exp();
                risen = term <= f64::EPSILON / 4.0;
                1.0 - term
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
        out
    }

    /// The output band-pass, or `None` without a band limit.
    pub(crate) fn band_pass(&self) -> Option<Fir> {
        let (lo, hi) = self.band?;
        Some(Fir::band_pass(lo, hi, BAND_PASS_TAPS, SampleRate::CD).expect("static band edges"))
    }

    /// The phase-ripple allpass, if this speaker has ripple, designed
    /// on each call (the fused channel keeps the composite spectrum).
    pub(crate) fn ripple(&self) -> Option<Fir> {
        (self.phase_ripple > 0.0).then(|| phase_ripple_fir(self.phase_ripple, self.ripple_phase))
    }

    /// The exact bits of everything that shapes this speaker's linear
    /// response: band edges and ripple parameters.
    pub(crate) fn response_key(&self) -> [u64; 4] {
        let (lo, hi) = self
            .band
            .map_or((0.0, 0.0), |(lo, hi)| (lo.value(), hi.value()));
        let (amplitude, phase) = if self.phase_ripple > 0.0 {
            (self.phase_ripple, self.ripple_phase)
        } else {
            (0.0, 0.0)
        };
        [lo, hi, amplitude, phase].map(f64::to_bits)
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

    /// Overrides the ADC resolution in bits (0 disables quantization).
    #[cfg(test)]
    pub(crate) fn with_adc_bits(mut self, adc_bits: u32) -> Self {
        self.adc_bits = adc_bits;
        self
    }

    /// The band-limit cutoff, if any.
    pub fn cutoff(&self) -> Option<Hz> {
        self.cutoff
    }

    /// The low-pass realising this microphone's band limit, or `None`
    /// when it does not limit the band (no cutoff, or one at or above
    /// 99 % of Nyquist).
    pub(crate) fn band_limit(&self) -> Option<Fir> {
        band_limit(self.cutoff?, MIC_TAPS)
    }

    /// The microphone stages after its band limit, in place: clock
    /// jitter, self noise, then ADC quantization. The band limit itself
    /// is part of the fused channel ([`add_received_signal`]).
    pub fn capture<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        if out.is_empty() {
            return;
        }
        if self.jitter_std > 0.0 {
            // Slowly varying sampling-offset random walk (Ornstein-
            // Uhlenbeck), bounded to a few samples.
            let mut offset = 0.0f64;
            let alpha = 0.002_f64; // mean-reversion per sample
            let sigma = self.jitter_std * (2.0 * alpha).sqrt();
            let src = out.to_vec();
            let mut n = 0;
            for_each_normal(out, rng, |o, z| {
                offset += -alpha * offset + sigma * z;
                *o = sample_at(&src, n as f64 + offset);
                n += 1;
            });
        }

        if self.noise_floor.value().is_finite() {
            let amp = self.noise_floor.to_amplitude();
            for_each_normal(out, rng, |o, z| *o += amp * z);
        }

        if self.adc_bits > 0 {
            // Full scale sized to the observed peak (AGC-style), then
            // uniform quantization.
            let peak = peak(out);
            let levels = (1u64 << (self.adc_bits - 1)) as f64;
            // `levels` is a power of two, so scaling by it is exact and
            // `x / step` rounds exactly as `x / peak * levels` does.
            let step = peak / levels;
            for o in out.iter_mut() {
                *o = round(*o / step) * step;
            }
        }
    }
}

/// The largest `|x|` in `samples`, at least 1e−12 (NaNs skipped):
/// `samples.iter().fold(1e-12, |a, &x| a.max(x.abs()))`, with eight
/// independent accumulators instead of one serial chain. The maximum of
/// non-NaN values does not depend on their order, so the result is the
/// fold's bit for bit.
fn peak(samples: &[f64]) -> f64 {
    let mut lanes = [1e-12f64; 8];
    let mut chunks = samples.chunks_exact(lanes.len());
    for chunk in &mut chunks {
        for (a, &x) in lanes.iter_mut().zip(chunk) {
            *a = a.max(x.abs());
        }
    }
    chunks
        .remainder()
        .iter()
        .chain(&lanes)
        .fold(1e-12f64, |a, &x| a.max(x.abs()))
}

/// `x.round()` (half away from zero, the sign of a zero kept), without
/// the libm call baseline x86-64 makes for it: below 2^52 the
/// truncation and the remainder are exact.
fn round(x: f64) -> f64 {
    // Also NaN and infinities.
    if x.is_nan() || x.abs() >= 4_503_599_627_370_496.0 {
        return x.round();
    }
    let t = x as i64 as f64;
    let r = x - t;
    // No branch on the remainder: in a recording its sign is random.
    let carry = (r >= 0.5) as i64 - (r <= -0.5) as i64;
    (t + carry as f64).copysign(x)
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
    use rand::{Rng, SeedableRng};
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

    /// `signal` through `mic`'s band limit (the fused channel with an
    /// ideal speaker and the identity response), then captured.
    fn record(mic: &MicrophoneModel, signal: &[f64], rng: &mut StdRng) -> Vec<f64> {
        let mut out = vec![0.0; signal.len()];
        add_received_signal(
            &SpeakerModel::ideal(),
            mic,
            signal,
            &ImpulseResponse::identity(),
            &mut out,
            0,
        );
        mic.capture(&mut out, rng);
        out
    }

    #[test]
    fn peak_is_the_serial_folds_bit_for_bit() {
        let fold = |s: &[f64]| s.iter().fold(1e-12f64, |a, &b| a.max(b.abs()));
        let mut rng = rng();
        // Lengths below, at and between multiples of the 8 accumulators.
        for len in 0..=41 {
            let random: Vec<f64> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let zeros: Vec<f64> = (0..len)
                .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                .collect();
            // The peak in the last sample: in the remainder unless the
            // length is a multiple of 8.
            let mut last = random.clone();
            if let Some(x) = last.last_mut() {
                *x = -7.5;
            }
            let mut nan = random.clone();
            if let Some(x) = nan.first_mut() {
                *x = f64::NAN;
            }
            let tiny = vec![-1e-13; len];
            for samples in [random, zeros, last, nan, tiny] {
                assert_eq!(
                    peak(&samples).to_bits(),
                    fold(&samples).to_bits(),
                    "{samples:?}"
                );
            }
        }
    }

    #[test]
    fn speaker_calibrates_output_spl() {
        let spk = SpeakerModel::smartphone();
        let out = spk.emit(&tone(3_000.0, 44_100), Spl(70.0));
        // Rise envelope and band filter shave a little; within 1 dB.
        assert!((spl(&out).value() - 70.0).abs() < 1.0, "{}", spl(&out));
    }

    #[test]
    fn speaker_clamps_to_max_spl() {
        let spk = SpeakerModel::smartphone().with_max_spl(Spl(60.0));
        let out = spk.emit(&tone(3_000.0, 44_100), Spl(90.0));
        assert!(spl(&out).value() < 61.0);
    }

    #[test]
    fn ripple_fir_is_designed_by_the_ripple_setters() {
        let spk = SpeakerModel::smartphone().with_ripple_phase(2.0);
        assert_eq!(spk.ripple(), Some(phase_ripple_fir(0.55, 2.0)));
        let flat = spk.with_phase_ripple(0.0);
        assert_eq!(flat.ripple(), None);
        let again = flat.with_phase_ripple(0.3);
        assert_eq!(again.ripple(), Some(phase_ripple_fir(0.3, 2.0)));
    }

    #[test]
    fn rise_effect_suppresses_onset() {
        let spk = SpeakerModel::smartphone()
            .with_rise(Seconds(0.005))
            .with_ringing(Seconds(0.0));
        let sig = tone(3_000.0, 2_000);
        let out = spk.emit(&sig, Spl(60.0));
        let early = out[..30].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let late = out[500..600].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(early < 0.6 * late, "early {early} late {late}");
    }

    #[test]
    fn ringing_extends_output() {
        let spk = SpeakerModel::ideal().with_ringing(Seconds(0.002));
        let out = spk.emit(&tone(2_000.0, 1_000), Spl(60.0));
        assert_eq!(out.len(), 1_000 + (0.002f64 * 44_100.0).round() as usize);
    }

    #[test]
    fn ideal_speaker_preserves_shape() {
        let spk = SpeakerModel::ideal();
        let sig = tone(5_000.0, 512);
        let out = spk.emit(&sig, Spl(40.0));
        // Same shape scaled: correlation ~1.
        let corr = wearlock_dsp::stats::pearson(&sig, &out[..512]);
        assert!(corr > 0.999, "corr {corr}");
    }

    #[test]
    fn moto360_kills_near_ultrasound() {
        let mic = MicrophoneModel::moto360().with_noise_floor(Spl(f64::NEG_INFINITY));
        let mut r = rng();
        let audible = record(&mic, &tone(3_000.0, 8_192), &mut r);
        let ultra = record(&mic, &tone(18_000.0, 8_192), &mut r);
        let pa = goertzel_power(&audible, Hz(3_000.0), SampleRate::CD).unwrap();
        let pu = goertzel_power(&ultra, Hz(18_000.0), SampleRate::CD).unwrap();
        assert!(pa > 100.0 * pu, "audible {pa} ultra {pu}");
    }

    #[test]
    fn smartphone_mic_passes_near_ultrasound() {
        let mic = MicrophoneModel::smartphone().with_noise_floor(Spl(f64::NEG_INFINITY));
        let ultra = record(&mic, &tone(18_000.0, 8_192), &mut rng());
        let p = goertzel_power(&ultra, Hz(18_000.0), SampleRate::CD).unwrap();
        assert!(p > 0.1, "p {p}");
    }

    #[test]
    fn mic_noise_floor_sets_silence_level() {
        let mic = MicrophoneModel::smartphone()
            .with_cutoff(None)
            .with_jitter(0.0)
            .with_noise_floor(Spl(10.0));
        let mut out = vec![0.0; 44_100];
        mic.capture(&mut out, &mut rng());
        assert!((spl(&out).value() - 10.0).abs() < 1.0, "{}", spl(&out));
    }

    #[test]
    fn ideal_mic_is_transparent() {
        let mic = MicrophoneModel::ideal();
        let sig = tone(1_000.0, 256);
        let mut out = sig.clone();
        mic.capture(&mut out, &mut rng());
        assert_eq!(out, sig);
    }

    #[test]
    fn jitter_perturbs_high_frequencies_more() {
        let mic = MicrophoneModel::ideal().with_jitter(0.5);
        let mut r1 = rng();
        let mut r2 = rng();
        let low = tone(1_000.0, 8_192);
        let high = tone(18_000.0, 8_192);
        let (mut low_out, mut high_out) = (low.clone(), high.clone());
        mic.capture(&mut low_out, &mut r1);
        mic.capture(&mut high_out, &mut r2);
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
    fn round_is_f64_round() {
        let mut r = rng();
        let specials = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -2.5,
            0.499_999_999_999_999_94,
            -0.3,
            32_767.5,
            -32_768.0,
            4_503_599_627_370_495.5,
            1e300,
            f64::NAN,
            f64::NEG_INFINITY,
        ];
        let random = (0..10_000).map(|_| (r.gen::<f64>() - 0.5) * 70_000.0);
        for x in specials.into_iter().chain(random) {
            assert_eq!(round(x).to_bits(), x.round().to_bits(), "{x}");
        }
    }

    #[test]
    fn invalid_cutoffs_record_without_a_band_limit() {
        let sig = tone(18_000.0, 1_024);
        let unlimited = record(&MicrophoneModel::ideal(), &sig, &mut rng());
        for cutoff in [0.0, -5.0, f64::NAN] {
            let mic = MicrophoneModel::ideal().with_cutoff(Some(Hz(cutoff)));
            assert!(mic.band_limit().is_none());
            assert_eq!(record(&mic, &sig, &mut rng()), unlimited);
        }
    }

    #[test]
    fn emit_matches_the_direct_form_chain_away_from_the_edges() {
        let spk = SpeakerModel::smartphone();
        let sig = tone(3_000.0, 6_000);
        let out = spk.emit(&sig, Spl(65.0));
        let drive = spk.drive(&sig, Spl(65.0));
        assert_eq!(out.len(), drive.len());
        // The direct-form chain cuts each filter's tails at the ends; the
        // fused operator cuts the composite's once. They agree beyond one
        // composite filter length of either end.
        let bpf = spk.band_pass().unwrap();
        let want = spk.ripple().unwrap().apply(&bpf.apply(&drive));
        let composite = BAND_PASS_TAPS + RIPPLE_TAPS - 1;
        let (mut err, mut energy) = (0.0, 0.0);
        for (o, w) in out[composite..out.len() - composite]
            .iter()
            .zip(&want[composite..])
        {
            err += (o - w) * (o - w);
            energy += w * w;
        }
        let rel = (err / energy).sqrt();
        assert!(rel <= 1e-9, "relative RMS error {rel:e}");
        // The key changes with the ripple phase, not with the volume cap,
        // and without ripple the phase is ignored.
        let other = spk.clone().with_ripple_phase(1.0);
        assert_ne!(spk.response_key(), other.response_key());
        assert_eq!(
            spk.response_key(),
            spk.clone().with_max_spl(Spl(60.0)).response_key()
        );
        assert_eq!(
            spk.with_phase_ripple(0.0).response_key(),
            other.with_phase_ripple(0.0).response_key()
        );
    }

    #[test]
    fn empty_signal_yields_empty() {
        assert!(SpeakerModel::default().emit(&[], Spl(60.0)).is_empty());
        assert!(record(&MicrophoneModel::default(), &[], &mut rng()).is_empty());
        MicrophoneModel::default().capture(&mut [], &mut rng());
    }
}
