//! Ambient noise synthesis.
//!
//! The paper evaluates WearLock in a quiet office (15–20 dB SPL ambient),
//! classrooms, cafes and grocery stores, against noise sources such as
//! human voice, keyboard typing, cafe machines and air conditioners, and
//! against a deliberate tone jammer (Audacity playing up to 6 mono
//! tracks). This module synthesizes all of those as calibrated-SPL
//! sample streams.
//!
//! The Gaussian sources (white noise, speech babble, machine rumble) are
//! drawn directly in the frequency domain, shaped there, and band-limited
//! by the receiving microphone there too; see [`NoiseModel::received`].

use std::f64::consts::{SQRT_2, TAU};
use std::sync::Arc;

use rand::Rng;

use wearlock_dsp::cache::planned;
use wearlock_dsp::level::rms;
use wearlock_dsp::units::{Hz, SampleRate, Spl};
use wearlock_dsp::{Complex, Fft};

use crate::fused::{low_pass, Designs, LowPass, MAX_TRANSFORM};
use crate::hardware::{MicrophoneModel, MIC_TAPS};

/// Generates `len` samples of zero-mean Gaussian noise with standard
/// deviation `std` — the raw ingredient for controlled Eb/N0 sweeps.
pub fn gaussian_noise<R: Rng + ?Sized>(len: usize, std: f64, rng: &mut R) -> Vec<f64> {
    let mut out = vec![0.0; len];
    rng.fill_standard_normal(&mut out);
    for o in &mut out {
        *o *= std;
    }
    out
}

/// Standard normals per stack block of the loops that draw one per
/// sample: large enough to amortise a block's fill, small enough to
/// stay in L1 next to the samples it feeds.
pub(crate) const GAUSSIAN_BLOCK: usize = 256;

/// Calls `f(&mut out[i], z)` for every sample in order, with `z` the
/// standard normals `rng.sample(StandardNormal)` would draw one after
/// another: filled [`GAUSSIAN_BLOCK`] at a time on the stack, bit for
/// bit the same values and stream position.
pub(crate) fn for_each_normal<T, R: Rng + ?Sized>(
    out: &mut [T],
    rng: &mut R,
    mut f: impl FnMut(&mut T, f64),
) {
    let mut block = [0.0; GAUSSIAN_BLOCK];
    for chunk in out.chunks_mut(GAUSSIAN_BLOCK) {
        let normals = &mut block[..chunk.len()];
        rng.fill_standard_normal(normals);
        for (o, &z) in chunk.iter_mut().zip(&*normals) {
            f(o, z);
        }
    }
}

/// Standard normals handed out one at a time in stream order, drawn
/// [`GAUSSIAN_BLOCK`] at a time, for a loop whose draws per step vary.
/// It draws exactly the `remaining` normals it is made for, so the
/// stream ends where per-draw sampling would leave it.
struct Normals {
    block: [f64; GAUSSIAN_BLOCK],
    /// The next normal in `block[..end]`.
    next: usize,
    end: usize,
    /// Normals not yet drawn.
    remaining: usize,
}

impl Normals {
    fn new(count: usize) -> Self {
        Normals {
            block: [0.0; GAUSSIAN_BLOCK],
            next: 0,
            end: 0,
            remaining: count,
        }
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.next == self.end {
            let take = self.remaining.min(GAUSSIAN_BLOCK);
            debug_assert!(take > 0, "more normals taken than made for");
            rng.fill_standard_normal(&mut self.block[..take]);
            self.remaining -= take;
            (self.next, self.end) = (0, take);
        }
        let z = self.block[self.next];
        self.next += 1;
        z
    }
}

/// Samples between the direct `sin_cos` re-anchors of
/// [`for_each_sine`]'s rotating phasor, which bound its accumulated
/// rounding error (within 1e−11 of `sin` in the tests).
const PHASOR_BLOCK: usize = 1_024;

/// Calls `f(&mut out[i], sin(w·i + phase))` for every sample, rotating
/// a phasor by `w` per sample instead of calling `sin` each time.
pub(crate) fn for_each_sine<T>(out: &mut [T], w: f64, phase: f64, mut f: impl FnMut(&mut T, f64)) {
    let (sin_w, cos_w) = w.sin_cos();
    for (b, block) in out.chunks_mut(PHASOR_BLOCK).enumerate() {
        let (mut s, mut c) = (w * (b * PHASOR_BLOCK) as f64 + phase).sin_cos();
        for o in block {
            f(o, s);
            (s, c) = (s * cos_w + c * sin_w, c * cos_w - s * sin_w);
        }
    }
}

/// The means of `sin(w·i + phase)` and `sin²(w·i + phase)` over `i` in
/// `0..len`, in closed form: `Σ e^{jwi}` is a geometric sum, and
/// `sin² = (1 − cos 2θ) / 2`.
fn sine_means(w: f64, phase: f64, len: usize) -> (f64, f64) {
    let mean_phasor = |w: f64, phase: f64| {
        let ratio = Complex::cis(w);
        let sum = if (ratio - Complex::ONE).abs() < 1e-12 {
            Complex::from_re(len as f64)
        } else {
            (Complex::ONE - Complex::cis(w * len as f64)) / (Complex::ONE - ratio)
        };
        sum * Complex::cis(phase) / len as f64
    };
    (
        mean_phasor(w, phase).im,
        0.5 - 0.5 * mean_phasor(2.0 * w, 2.0 * phase).re,
    )
}

/// Cutoff and taps of the speech babble's shaping low-pass.
pub(crate) const SPEECH_SHAPING: (Hz, usize) = (Hz(4_000.0), 61);
/// Cutoff and taps of the machine rumble's shaping low-pass.
pub(crate) const MACHINE_SHAPING: (Hz, usize) = (Hz(400.0), 61);
/// Frequency of the machine rumble's mains hum.
pub(crate) const HUM: Hz = Hz(120.0);
/// Amplitude of the mains hum relative to unit-variance white noise
/// before the rumble's shaping.
pub(crate) const HUM_AMPLITUDE: f64 = 0.3;
/// Rate of the speech babble's syllabic modulation.
pub(crate) const SYLLABIC_RATE: Hz = Hz(4.0);

/// Mean and modulation depth of the speech babble's syllabic envelope.
const SYLLABIC_DEPTH: (f64, f64) = (0.6, 0.4);

/// The power of unit white noise through the shaping low-pass
/// `(cutoff, taps)`: the sum of its squared taps.
fn shaped_power((cutoff, taps): (Hz, usize)) -> f64 {
    let lp = low_pass(cutoff, taps);
    let lp = lp
        .as_ref()
        .as_ref()
        .expect("shaping cutoffs lie below Nyquist");
    lp.fir.taps().iter().map(|t| t * t).sum()
}

/// The syllabic envelope of speech babble at modulation value `v`.
pub(crate) fn syllabic_envelope(v: f64) -> f64 {
    SYLLABIC_DEPTH.0 + SYLLABIC_DEPTH.1 * v
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

    /// Generates `len` samples of this noise at 44.1 kHz.
    ///
    /// Each concrete source is calibrated to its configured SPL, so
    /// the modem's SNR accounting lines up with the paper's dB figures.
    /// This is [`NoiseModel::received`] through an unlimited band.
    pub fn generate<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Vec<f64> {
        self.received(len, &MicrophoneModel::ideal(), rng)
    }

    /// Generates `len` samples of this noise as `microphone`'s band
    /// limit passes them (its clock jitter, self-noise and quantization
    /// are not applied: `AcousticLink` applies those to the whole
    /// recording).
    ///
    /// Each source is calibrated to its SPL before the band limit, as a
    /// sound-level meter in the room would read it. Gaussian sources are
    /// drawn in the frequency domain: Hermitian spectra of independent
    /// Gaussian bins, shaped by the sources' low-pass magnitude
    /// responses (speech 4 kHz, machine 400 Hz) and by the microphone
    /// low-pass's.
    /// Independent Gaussians sum to a Gaussian with the summed spectrum,
    /// so white noise and machine rumble share one draw; each speech
    /// source has its own, which its 4 Hz syllabic envelope multiplies
    /// afterwards. One complex inverse FFT returns two draws, in its
    /// real and imaginary parts. The transforms are circular periods of
    /// at most 4 096 samples that tile the recording, crossfaded over
    /// their overlaps of 384 samples; each draw is calibrated
    /// period by period from its spectrum's energy before the microphone
    /// (Parseval). The machine's 120 Hz hum (scaled by the microphone's
    /// gain there), transients (band-limited on their own support) and
    /// jammer tones (scaled by the gain at each tone) are synthesized in
    /// the sample domain.
    pub fn received<R: Rng + ?Sized>(
        &self,
        len: usize,
        microphone: &MicrophoneModel,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut synthesis = Synthesis::new(len, microphone);
        synthesis.add(self, rng);
        synthesis.finish(rng)
    }
}

/// Samples over which neighbouring noise periods crossfade: a fifth
/// longer than the shaped noise's correlation, the autocorrelation of a
/// 61-tap shaping low-pass in series with the 101-tap microphone
/// low-pass (321 samples). Any longer and a 15.7k-sample probe
/// recording needs a 2 048-point period besides its four 4 096-point
/// ones, not a 1 024-point one.
const CROSSFADE: usize = 384;

/// The Gaussian sources' circular periods for a recording of `len`
/// samples, as `(start, n)` in time order, `n` a power of two. A
/// recording up to [`MAX_TRANSFORM`] samples is one period of the next
/// power of two. A longer one is tiled backwards from its end with
/// [`MAX_TRANSFORM`]-sample periods, each overlapping the next by
/// [`CROSSFADE`] samples, and one power-of-two period covers what is
/// left at its start: a 15.7k-sample probe recording costs transforms
/// of 1 024 and four times 4 096 points.
fn periods(len: usize) -> Vec<(usize, usize)> {
    if len <= MAX_TRANSFORM {
        return vec![(0, len.next_power_of_two().max(2))];
    }
    let mut periods = Vec::new();
    let mut end = len;
    while end > MAX_TRANSFORM {
        periods.push((end - MAX_TRANSFORM, MAX_TRANSFORM));
        end = end - MAX_TRANSFORM + CROSSFADE;
    }
    periods.push((0, end.next_power_of_two()));
    periods.reverse();
    periods
}

/// A Gaussian sequence of the synthesis: the sum of the plain sources
/// (white noise, machine rumble), or one speech source.
#[derive(Default)]
struct Lane {
    /// Each source's mean power per sample before the microphone, with
    /// its shaping low-pass (cutoff, taps), if it has one.
    sources: Vec<(f64, Option<(Hz, usize)>)>,
    /// The syllabic phase of a speech lane.
    syllabic: Option<f64>,
    /// Whether a source's power came from the random stream (machine
    /// rumble's does, through its hum's phase): the lane's spectral
    /// density then differs from call to call and is not worth caching.
    varies: bool,
}

/// The exact bits of what a lane's power spectral density depends on:
/// its sources' powers and shapings.
type ShapingKey = Vec<(u64, Option<(u64, usize)>)>;

/// `Σ w·|H|²` over sources' weights `w` and shapings `H` at bin `j` of
/// a [`MAX_TRANSFORM`]-point DFT: a lane's power spectral density
/// before the microphone. A shorter period reads every second, fourth,
/// … bin, the same frequencies.
fn psd(shapes: &[(f64, Arc<Option<LowPass>>)], j: usize) -> f64 {
    shapes
        .iter()
        .map(|(w, lp)| {
            w * lp
                .as_ref()
                .as_ref()
                .map_or(1.0, |lp| lp.magnitude(j, MAX_TRANSFORM).powi(2))
        })
        .sum()
}

/// A lane's power spectral density ([`psd`]).
enum Density {
    /// Tabulated at every bin, for a lane whose powers recur.
    Table(Arc<Vec<f64>>),
    /// Summed over the sources per bin, for a lane whose powers differ
    /// on every call.
    Sources(Vec<(f64, Arc<Option<LowPass>>)>),
}

impl Density {
    /// The density at bin `j` of a [`MAX_TRANSFORM`]-point DFT.
    fn at(&self, j: usize) -> f64 {
        match self {
            Density::Table(table) => table[j],
            Density::Sources(shapes) => psd(shapes, j),
        }
    }
}

/// The working state of one [`NoiseModel::received`] call.
///
/// Sources synthesized in the sample domain (hum, transients, tones) go
/// straight to `out`; Gaussian sources are collected into lanes and
/// drawn at the end. Independent Gaussian sources sum to one Gaussian
/// whose spectrum is the sum of theirs, so the plain sources share one
/// draw with their summed spectrum, calibrated to their summed power.
/// Each speech source gets its own lane, which its syllabic envelope
/// multiplies after the inverse transform. Two lanes share one complex
/// spectrum per period (see [`periods`]): one in its real part, one in
/// its imaginary part. Where two periods overlap they crossfade with
/// power-complementary weights (`cos² + sin² = 1`), which keeps the
/// level and, over a crossfade far longer than the filters, the
/// spectrum.
struct Synthesis {
    out: Vec<f64>,
    /// The microphone's cutoff, if it has one.
    cutoff: Option<Hz>,
    plain: Lane,
    speech: Vec<Lane>,
}

impl Synthesis {
    fn new(len: usize, microphone: &MicrophoneModel) -> Self {
        Synthesis {
            out: vec![0.0; len],
            cutoff: microphone.cutoff(),
            plain: Lane::default(),
            speech: Vec::new(),
        }
    }

    /// The microphone's band limit, if any.
    fn band_limit(&self) -> Option<Arc<Option<LowPass>>> {
        self.cutoff.map(|c| low_pass(c, MIC_TAPS))
    }

    /// The microphone's amplitude gain at `f`.
    fn gain_at(&self, f: Hz) -> f64 {
        let limit = self.band_limit();
        limit
            .as_deref()
            .and_then(Option::as_ref)
            .map_or(1.0, |lp| lp.fir.gain_at(f, SampleRate::CD))
    }

    fn add<R: Rng + ?Sized>(&mut self, model: &NoiseModel, rng: &mut R) {
        let len = self.out.len();
        if len == 0 {
            return;
        }
        let sr = SampleRate::CD.value();
        match model {
            NoiseModel::White { spl } => {
                self.plain.sources.push((spl.to_amplitude().powi(2), None));
            }
            NoiseModel::Speech { spl } => self.speech.push(Lane {
                sources: vec![(spl.to_amplitude().powi(2), Some(SPEECH_SHAPING))],
                syllabic: Some(rng.gen::<f64>() * TAU),
                varies: false,
            }),
            NoiseModel::Machine { spl } => {
                // Unit white noise through the shaping has the power of
                // its taps; the hum adds its own.
                let shaped = shaped_power(MACHINE_SHAPING);
                let w = TAU * HUM.value() / sr;
                let phase = rng.gen::<f64>() * TAU;
                let hum_power = HUM_AMPLITUDE * HUM_AMPLITUDE * sine_means(w, phase, len).1;
                let k = spl.to_amplitude() / (shaped + hum_power).sqrt();
                self.plain
                    .sources
                    .push((k * k * shaped, Some(MACHINE_SHAPING)));
                self.plain.varies = true;
                let hum = k * HUM_AMPLITUDE * self.gain_at(HUM);
                for_each_sine(&mut self.out, w, phase, |s, v| *s += hum * v);
            }
            NoiseModel::Transients { spl, rate_hz } => {
                let p = (rate_hz / sr).clamp(0.0, 1.0);
                // Damped 6-8 kHz clicks ~3 ms long, one after another.
                let burst_len = (0.003 * sr) as usize;
                let mut samples = Vec::new();
                let mut bursts = Vec::new();
                let mut i = 0;
                while i < len {
                    if rng.gen::<f64>() < p {
                        let f = 6_000.0 + 2_000.0 * rng.gen::<f64>();
                        let w = TAU * f / sr;
                        let first = samples.len();
                        samples.extend((0..burst_len.min(len - i)).map(|j| {
                            let env = (-(j as f64) / (burst_len as f64 / 4.0)).exp();
                            env * (w * j as f64).sin()
                        }));
                        bursts.push((i, first..samples.len()));
                        i += burst_len;
                    } else {
                        i += 1;
                    }
                }
                let energy: f64 = samples.iter().map(|s| s * s).sum();
                if energy > 0.0 {
                    let k = spl.to_amplitude() / (energy / len as f64).sqrt();
                    for (at, range) in bursts {
                        self.add_band_limited(at, &samples[range], k);
                    }
                }
            }
            NoiseModel::Tones { freqs, spl } => {
                let tones: Vec<(Hz, f64)> =
                    freqs.iter().map(|&f| (f, rng.gen::<f64>() * TAU)).collect();
                let mut sum = vec![0.0; len];
                for &(f, phase) in &tones {
                    for_each_sine(&mut sum, TAU * f.value() / sr, phase, |s, v| *s += v);
                }
                let r = rms(&sum);
                if r > 0.0 {
                    let k = spl.to_amplitude() / r;
                    for &(f, phase) in &tones {
                        let a = k * self.gain_at(f);
                        for_each_sine(&mut self.out, TAU * f.value() / sr, phase, |s, v| {
                            *s += a * v
                        });
                    }
                }
            }
            NoiseModel::Mixture(parts) => {
                for part in parts {
                    self.add(part, rng);
                }
            }
        }
    }

    /// Adds `samples` scaled by `k` at `at`, through the microphone's
    /// band limit on their own support.
    fn add_band_limited(&mut self, at: usize, samples: &[f64], k: f64) {
        let limit = self.band_limit();
        let Some(lp) = limit.as_deref().and_then(Option::as_ref) else {
            for (o, &s) in self.out[at..].iter_mut().zip(samples) {
                *o += k * s;
            }
            return;
        };
        // Full convolution, aligned by the filter's group delay.
        let taps = lp.fir.taps();
        let delay = taps.len() / 2;
        let mut filtered = vec![0.0; samples.len() + taps.len() - 1];
        for (i, &s) in samples.iter().enumerate() {
            for (f, &t) in filtered[i..].iter_mut().zip(taps) {
                *f += k * s * t;
            }
        }
        let first = delay.saturating_sub(at);
        for (m, &f) in filtered.iter().enumerate().skip(first) {
            match self.out.get_mut(at + m - delay) {
                Some(o) => *o += f,
                None => break,
            }
        }
    }

    /// Draws the Gaussian lanes, two per complex spectrum, and returns
    /// the recording.
    fn finish<R: Rng + ?Sized>(mut self, rng: &mut R) -> Vec<f64> {
        let mut lanes = std::mem::take(&mut self.speech);
        if !self.plain.sources.is_empty() {
            lanes.insert(0, std::mem::take(&mut self.plain));
        }
        for pair in lanes.chunks(2) {
            self.draw(pair, rng);
        }
        self.out
    }

    /// `lane`'s power spectral density before the microphone: from a
    /// process-wide table keyed on the exact bits of its inputs when the
    /// lane's powers recur from call to call, else from its sources.
    fn lane_density(&self, lane: &Lane) -> Density {
        static DENSITIES: Designs<ShapingKey, Vec<f64>> = Designs::new(8);
        // Each source's weight (its power over that of unit white noise
        // through its shaping) and shaping.
        let shapes = || -> Vec<(f64, Arc<Option<LowPass>>)> {
            lane.sources
                .iter()
                .map(|&(power, shaping)| {
                    let lp = shaping.map_or(Arc::new(None), |(c, taps)| low_pass(c, taps));
                    let unit = shaping.map_or(1.0, shaped_power);
                    (power / unit, lp)
                })
                .collect()
        };
        if lane.varies {
            return Density::Sources(shapes());
        }
        let bits = |&(power, shaping): &(f64, Option<(Hz, usize)>)| {
            let shaping = shaping.map(|(cutoff, taps)| (cutoff.value().to_bits(), taps));
            (power.to_bits(), shaping)
        };
        Density::Table(DENSITIES.get_matching(
            |k| k.iter().copied().eq(lane.sources.iter().map(bits)),
            || lane.sources.iter().map(bits).collect(),
            || {
                let shapes = shapes();
                (0..=MAX_TRANSFORM / 2).map(|j| psd(&shapes, j)).collect()
            },
        ))
    }

    /// Draws `lanes` (one or two) period by period, calibrates each to
    /// its sources' summed power from its realised spectrum before the
    /// microphone (Parseval), and adds them to the output.
    fn draw<R: Rng + ?Sized>(&mut self, lanes: &[Lane], rng: &mut R) {
        let len = self.out.len();
        let periods = periods(len);
        // The envelope's mean square over the recording completes the
        // speech calibration.
        let w = TAU * SYLLABIC_RATE.value() / SampleRate::CD.value();
        let envelopes: Vec<f64> = lanes
            .iter()
            .map(|lane| {
                lane.syllabic.map_or(1.0, |phase| {
                    let (mean, square) = sine_means(w, phase, len);
                    let (a, b) = SYLLABIC_DEPTH;
                    a * a + 2.0 * a * b * mean + b * b * square
                })
            })
            .collect();
        let densities: Vec<Density> = lanes.iter().map(|l| self.lane_density(l)).collect();
        let limit = self.band_limit();
        let microphone = limit.as_deref().and_then(Option::as_ref);
        // Per bin of an n-point period and per lane: the weight of the
        // bin's squared Gaussian draws in the period's energy before the
        // microphone (for the calibration), and the bin's amplitude
        // through the microphone. Bins of variance n/2 per part make
        // unit-variance samples (white noise before its shaping)
        // whatever the period.
        //
        // Buffers sized once for the longest period; the bins and the
        // plan change only with the period's length.
        let longest = periods.iter().map(|&(_, n)| n).max().unwrap_or(0);
        let mut spectra = (0, Vec::with_capacity(longest / 2 + 1));
        let mut plan = None;
        let mut fades = Fades::default();
        let mut packed = Vec::with_capacity(longest);
        for (p, &(start, n)) in periods.iter().enumerate() {
            if spectra.0 != n {
                let stride = MAX_TRANSFORM / n;
                spectra.1.clear();
                spectra.1.extend((0..=n / 2).map(|k| {
                    let gain = microphone.map_or(1.0, |lp| lp.magnitude(k, n));
                    let mut bins = [(0.0, 0.0); 2];
                    for (bin, density) in bins.iter_mut().zip(&densities) {
                        let psd = density.at(k * stride);
                        *bin = (n as f64 * psd, (0.5 * n as f64 * psd).sqrt() * gain);
                    }
                    bins
                }));
                spectra.0 = n;
                plan = Some(planned(n).expect("a power of two"));
            }
            let fft: &Fft = plan.as_deref().expect("planned with the bins");
            packed.clear();
            packed.resize(n, Complex::ZERO);
            let mut energy = [0.0; 2];
            // Each lane draws one normal per real DC and Nyquist bin and
            // two per complex bin between: n in all.
            let mut normals = Normals::new(lanes.len() * n);
            for (k, spectrum) in spectra.1.iter().enumerate() {
                // Real white noise has real DC and Nyquist bins, with
                // twice the variance of each part of the complex bins
                // between.
                let edge = k == 0 || 2 * k == n;
                let mut bins = [Complex::ZERO; 2];
                for ((bin, e), &(power, amplitude)) in bins
                    .iter_mut()
                    .zip(&mut energy)
                    .zip(spectrum)
                    .take(lanes.len())
                {
                    let re = normals.next(rng);
                    if edge {
                        *e += power * re * re;
                        *bin = Complex::from_re(SQRT_2 * amplitude * re);
                    } else {
                        let im = normals.next(rng);
                        *e += power * (re * re + im * im);
                        *bin = Complex::new(amplitude * re, amplitude * im);
                    }
                }
                // A real sequence's spectrum is Hermitian: bin n − k is
                // the conjugate of bin k. The second lane enters times j.
                // Bins go straight to their bit-reversed slots, the
                // inverse transform's input order.
                let [a, b] = bins;
                packed[fft.bit_reversed(k)] = Complex::new(a.re - b.im, a.im + b.re);
                if !edge {
                    packed[fft.bit_reversed(n - k)] = Complex::new(a.re + b.im, b.re - a.im);
                }
            }
            // Parseval, with the inverse transform's 1/n: the period's
            // mean power is energy / n².
            let gains: Vec<f64> = lanes
                .iter()
                .zip(energy)
                .zip(&envelopes)
                .map(|((lane, e), envelope)| {
                    let target: f64 = lane.sources.iter().map(|&(p, _)| p).sum();
                    let power = e / (n * n) as f64;
                    if power > 0.0 {
                        (target / power / envelope).sqrt()
                    } else {
                        0.0
                    }
                })
                .collect();

            fft.inverse_bit_reversed_in_place(&mut packed)
                .expect("planned length");
            let end = (start + n).min(len);
            let sequences = &mut packed[..end - start];
            for (l, lane) in lanes.iter().enumerate() {
                if let Some(phase) = lane.syllabic {
                    for_each_sine(sequences, w, phase + w * start as f64, |z, v| {
                        let part = if l == 0 { &mut z.re } else { &mut z.im };
                        *part *= syllabic_envelope(v);
                    });
                }
            }
            // Power-complementary crossfades over the overlaps with the
            // previous and the next period.
            let gain = |l: usize| gains.get(l).copied().unwrap_or(0.0);
            let (ga, gb) = (gain(0), gain(1));
            let fade_in = p
                .checked_sub(1)
                .map_or(0, |q| periods[q].0 + periods[q].1 - start);
            let fade_out = periods.get(p + 1).map_or(end, |&(next, _)| next) - start;
            for (i, (o, z)) in self.out[start..end].iter_mut().zip(&*sequences).enumerate() {
                let v = ga * z.re + gb * z.im;
                *o += if i < fade_in {
                    fades.weights(fade_in)[i].0 * v
                } else if i >= fade_out {
                    fades.weights(end - start - fade_out)[i - fade_out].1 * v
                } else {
                    v
                };
            }
        }
    }
}

/// The weights of the last crossfade length used, `(sin θ, cos θ)` for
/// `θ = π/2 · i / len` over its samples: every overlap between two full
/// periods has the same length.
#[derive(Default)]
struct Fades {
    weights: Vec<(f64, f64)>,
}

impl Fades {
    fn weights(&mut self, len: usize) -> &[(f64, f64)] {
        if self.weights.len() != len {
            self.weights = (0..len)
                .map(|i| (std::f64::consts::FRAC_PI_2 * i as f64 / len as f64).sin_cos())
                .collect();
        }
        &self.weights
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
    fn cached_spectral_densities_give_the_designing_calls_bits() {
        // SPLs no other test uses: the first call computes the speech and
        // white lanes' spectral densities, the second reads them from the
        // table.
        let model = NoiseModel::Mixture(vec![
            NoiseModel::Speech { spl: Spl(37.25) },
            NoiseModel::White { spl: Spl(21.5) },
        ]);
        let mic = MicrophoneModel::moto360();
        let draw = || model.received(15_700, &mic, &mut rng());
        let (first, again) = (draw(), draw());
        assert!(first
            .iter()
            .zip(&again)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn white_noise_hits_target_spl() {
        let m = NoiseModel::White { spl: Spl(30.0) };
        let s = m.generate(44_100, &mut rng());
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
        let s = m.generate(44_100, &mut rng());
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
        let s = m.generate(44_100, &mut rng());
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
        let s = m.generate(44_100, &mut rng());
        assert!((spl(&s).value() - 43.0).abs() < 1.0);
    }

    #[test]
    fn silence_generates_zeros() {
        let s = NoiseModel::silence().generate(100, &mut rng());
        assert!(s.iter().all(|&v| v == 0.0));
        assert_eq!(NoiseModel::silence().spl().value(), f64::NEG_INFINITY);
    }

    #[test]
    fn transients_are_sparse_and_impulsive() {
        let m = NoiseModel::Transients {
            spl: Spl(35.0),
            rate_hz: 4.0,
        };
        let s = m.generate(44_100, &mut rng());
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
            let s = loc.noise_model().generate(44_100, &mut rng());
            let measured = spl(&s).value();
            let nominal = loc.ambient_spl().value();
            assert!(
                (measured - nominal).abs() < 3.0,
                "{loc}: measured {measured} vs nominal {nominal}"
            );
        }
    }

    #[test]
    fn sine_means_match_direct_sums() {
        for (w, phase, len) in [
            (5.7e-4, 0.3, 15_000),
            (0.0171, 5.9, 777),
            (std::f64::consts::PI, 1.0, 9),
            (0.0, 0.4, 10),
        ] {
            let (mean, square) = sine_means(w, phase, len);
            let sines = (0..len).map(|i| (w * i as f64 + phase).sin());
            let direct_mean = sines.clone().sum::<f64>() / len as f64;
            let direct_square = sines.map(|v| v * v).sum::<f64>() / len as f64;
            assert!(
                (mean - direct_mean).abs() < 1e-9,
                "w {w}: {mean} vs {direct_mean}"
            );
            assert!(
                (square - direct_square).abs() < 1e-9,
                "w {w}: {square} vs {direct_square}"
            );
        }
    }

    #[test]
    fn periods_cover_the_recording_with_crossfades() {
        assert_eq!(periods(1), vec![(0, 2)]);
        assert_eq!(periods(3_000), vec![(0, 4_096)]);
        assert_eq!(periods(4_096), vec![(0, 4_096)]);
        assert_eq!(
            periods(15_777),
            vec![
                (0, 1_024),
                (545, 4_096),
                (4_257, 4_096),
                (7_969, 4_096),
                (11_681, 4_096)
            ]
        );
        for len in (3..45_000).step_by(97).chain([4_097, 4_608, 4_609, 16_814]) {
            let p = periods(len);
            assert_eq!(p[0].0, 0, "{len}: {p:?}");
            let (start, n) = *p.last().unwrap();
            assert!(start + n >= len, "{len}: {p:?}");
            for w in p.windows(2) {
                assert!(w[0].0 + w[0].1 >= w[1].0 + CROSSFADE, "{len}: {p:?}");
            }
            for w in p.windows(3) {
                assert!(w[0].0 + w[0].1 <= w[2].0, "{len}: {p:?}");
            }
            assert!(p
                .iter()
                .all(|&(_, n)| n.is_power_of_two() && n <= MAX_TRANSFORM));
        }
    }

    /// Power of a Hann-windowed 1 024-sample `frame` in each `(lo, hi)`
    /// Hz band.
    fn band_powers(frame: &[f64], bands: &[(f64, f64)]) -> Vec<f64> {
        const N: usize = 1_024;
        let window = wearlock_dsp::window::WindowKind::Hann.coefficients(N);
        let frame: Vec<f64> = frame.iter().zip(&window).map(|(x, w)| x * w).collect();
        let spectrum = planned(N).unwrap().forward_real(&frame).unwrap();
        let bin = |f: f64| (f * N as f64 / 44_100.0) as usize;
        bands
            .iter()
            .map(|&(lo, hi)| spectrum[bin(lo)..bin(hi)].iter().map(|z| z.norm_sq()).sum())
            .collect()
    }

    #[test]
    fn crossfaded_noise_keeps_its_level_and_spectrum() {
        // 16 814 samples: periods overlapping on [1 582, 2 048) and
        // [5 294, 5 678), among others. Machine rumble and white noise: speech's
        // syllabic envelope would swamp the comparison with its own
        // variance.
        let m = NoiseModel::Mixture(vec![
            NoiseModel::Machine { spl: Spl(45.0) },
            NoiseModel::White { spl: Spl(38.0) },
        ]);
        let mic = MicrophoneModel::moto360();
        let bands = [(200.0, 600.0), (2_000.0, 4_000.0), (11_000.0, 13_000.0)];
        let (mut fades, mut steady) = ([vec![0.0; 3], vec![0.0; 3]], vec![0.0; 3]);
        let mut r = rng();
        for _ in 0..60 {
            let s = m.received(16_814, &mic, &mut r);
            let [first, second] = &mut fades;
            for (acc, p) in [
                (first, band_powers(&s[1_303..2_327], &bands)),
                (second, band_powers(&s[4_974..5_998], &bands)),
                (&mut steady, band_powers(&s[7_000..8_024], &bands)),
            ] {
                for (a, p) in acc.iter_mut().zip(p) {
                    *a += p;
                }
            }
        }
        for fade in &fades {
            for (band, (f, s)) in bands.iter().zip(fade.iter().zip(&steady)) {
                let db = 10.0 * (f / s).log10();
                assert!(db.abs() < 1.0, "{band:?}: fade {f:e} steady {s:e}");
            }
        }
    }

    #[test]
    fn received_noise_is_band_limited_by_the_microphone() {
        let m = NoiseModel::White { spl: Spl(40.0) };
        let mic = MicrophoneModel::moto360();
        let s = m.received(16_384, &mic, &mut rng());
        let pass = goertzel_power(&s, Hz(3_000.0), SampleRate::CD).unwrap();
        let stop = goertzel_power(&s, Hz(15_000.0), SampleRate::CD).unwrap();
        assert!(pass > 1e4 * stop, "pass {pass} stop {stop}");
        // Calibrated before the band limit: the 7 kHz low-pass keeps
        // about 7/22 of the white power.
        let loss = 40.0 - spl(&s).value();
        assert!(
            (loss - 10.0 * (22.05f64 / 7.0).log10()).abs() < 0.5,
            "loss {loss}"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let m = Location::Cafe.noise_model();
        let a = m.generate(1_000, &mut rng());
        let b = m.generate(1_000, &mut rng());
        assert_eq!(a, b);
    }
}
