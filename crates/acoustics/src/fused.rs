//! The channel's linear filters, applied in the frequency domain.
//!
//! Between the speaker's drive waveform and the microphone's clock
//! jitter, every stage of [`crate::AcousticLink`] that filters is linear
//! and time-invariant: the speaker's band-pass and phase-ripple FIRs, the
//! multipath response and the microphone's low-pass act on the signal;
//! each noise source's shaping filter and the same low-pass act on the
//! ambient noise. This module composes them instead of running them one
//! after another:
//!
//! * [`add_received_signal`] multiplies the signal's and the multipath
//!   response's spectra (both from one packed complex FFT) by the
//!   cached composite spectrum of the speaker and microphone filters,
//!   and inverts once.
//! * The noise synthesis in [`crate::noise`] multiplies the magnitude
//!   responses of its shaping filters and the microphone low-pass into
//!   Gaussian spectra drawn directly in the frequency domain.
//!
//! Filter spectra are designed once per process and parameter set and
//! shared through small process-wide tables. [`SpeakerModel::emit`] is
//! the signal path through an ideal microphone and the identity
//! response, so the speaker's filters have this one implementation.

use std::sync::{Arc, Mutex};

use wearlock_dsp::cache::planned;
use wearlock_dsp::filter::Fir;
use wearlock_dsp::units::Hz;
use wearlock_dsp::{Complex, Fft};

use crate::hardware::{MicrophoneModel, SpeakerModel, BAND_PASS_TAPS, MIC_TAPS, RIPPLE_TAPS};
use crate::multipath::ImpulseResponse;

/// A small process-wide table of derived designs (filters, spectra),
/// keyed on the exact bits of their parameters. It keeps the most
/// recently designed entries, so a sweep over many parameter values
/// stays bounded.
pub(crate) struct Designs<K, T> {
    kept: usize,
    entries: Mutex<Vec<(K, Arc<T>)>>,
}

impl<K: PartialEq, T> Designs<K, T> {
    /// An empty table keeping at most `kept` designs.
    pub(crate) const fn new(kept: usize) -> Self {
        Designs {
            kept,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The design for `key`, made by `design` on first use.
    pub(crate) fn get(&self, key: K, design: impl FnOnce() -> T) -> Arc<T>
    where
        K: Clone,
    {
        self.get_matching(|k| *k == key, || key.clone(), design)
    }

    /// The design whose key `matches`, else one made by `design` and kept
    /// under `key()`: a lookup that builds no key unless it misses.
    pub(crate) fn get_matching(
        &self,
        matches: impl Fn(&K) -> bool,
        key: impl FnOnce() -> K,
        design: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut entries = self
            .entries
            .lock()
            .expect("design table poisoned by a panicking design");
        if let Some((_, d)) = entries.iter().find(|(k, _)| matches(k)) {
            return Arc::clone(d);
        }
        let d = Arc::new(design());
        if entries.len() == self.kept {
            entries.remove(0);
        }
        entries.push((key(), Arc::clone(&d)));
        d
    }
}

/// The `n`-point DFT of `taps` (folded modulo `n` when longer).
fn spectrum(fft: &Fft, taps: &[f64]) -> Vec<Complex> {
    let n = fft.size();
    let mut folded = vec![0.0; n];
    for (i, &t) in taps.iter().enumerate() {
        folded[i % n] += t;
    }
    fft.forward_real(&folded).expect("planned length")
}

/// The longest composite response: band-pass, ripple and low-pass in
/// series.
const MAX_RESPONSE_LEN: usize = BAND_PASS_TAPS + RIPPLE_TAPS + MIC_TAPS - 2;

/// The speaker's band-pass and ripple FIRs and the microphone's
/// low-pass as one filter, at one transform size.
struct SignalResponse {
    /// Bins `0..=n/2` of the composite impulse response's `n`-point DFT
    /// (the rest mirror them: the response is real).
    half_spectrum: Vec<Complex>,
    /// The sum of the FIRs' group delays: sample `i` of the chained
    /// "same"-length filters is sample `i + delay` of the full
    /// convolution with the composite.
    delay: usize,
}

/// The composite response for a speaker–microphone pair at transform
/// size `n`, designed once per process.
fn signal_response(
    speaker: &SpeakerModel,
    microphone: &MicrophoneModel,
    fft: &Fft,
) -> Arc<SignalResponse> {
    type Key = ([u64; 4], Option<u64>, usize);
    static RESPONSES: Designs<Key, SignalResponse> = Designs::new(8);
    let key = (
        speaker.response_key(),
        microphone.cutoff().map(|c| c.value().to_bits()),
        fft.size(),
    );
    RESPONSES.get(key, || {
        let band_pass = speaker.band_pass();
        let low_pass = microphone.band_limit();
        let mut half_spectrum = vec![Complex::ONE; fft.size() / 2 + 1];
        let mut delay = 0;
        for fir in [band_pass, speaker.ripple(), low_pass].iter().flatten() {
            for (h, s) in half_spectrum.iter_mut().zip(spectrum(fft, fir.taps())) {
                *h *= s;
            }
            delay += fir.taps().len() / 2;
        }
        SignalResponse {
            half_spectrum,
            delay,
        }
    })
}

/// The longest transform of the channel: it bounds the FFT plans, the
/// cached spectra and the per-call buffers. A longer signal is filtered
/// in overlap-add blocks, a longer noise recording drawn in crossfaded
/// periods.
pub(crate) const MAX_TRANSFORM: usize = 4_096;

/// The transform size for a `signal`-sample input whose full
/// convolution is `tail` samples longer: the next power of two at or
/// above the whole convolution, up to [`MAX_TRANSFORM`]; above that
/// [`MAX_TRANSFORM`] (or more, for a response longer than half of it),
/// split into blocks.
fn transform_size(signal: usize, tail: usize) -> usize {
    let whole = (signal + tail).next_power_of_two().max(2);
    if whole <= MAX_TRANSFORM {
        whole
    } else {
        MAX_TRANSFORM.max((2 * tail).next_power_of_two())
    }
}

/// The fused signal path: adds `travelled` (the speaker's drive waveform
/// after spreading loss and propagation delay) as `microphone` records
/// it through `speaker`'s band-pass and phase ripple, the multipath
/// response `ir` and the microphone's band limit, to `recording`.
///
/// The result is aligned as the chained "same"-length FIRs align it:
/// `travelled[0]`'s direct-path arrival lands at `recording[offset]`.
/// The filters' leading and trailing tails are kept where they fall
/// inside `recording` and dropped where they fall outside it.
///
/// The spectrum of `ir` times the cached composite spectrum of the
/// three FIRs filters `travelled` in overlap-add blocks: one block for a
/// modem probe (a 4 096-point transform), two for a token. `ir` shares
/// its forward transform with the last block when the blocks are odd in
/// number; the other blocks go in pairs, one in the real part and one
/// in the imaginary part of a transform, through one inverse each.
///
/// # Examples
///
/// ```
/// use wearlock_acoustics::fused::add_received_signal;
/// use wearlock_acoustics::{ImpulseResponse, MicrophoneModel, SpeakerModel};
///
/// let impulse = [1.0];
/// let mut recording = vec![0.0; 4_000];
/// add_received_signal(
///     &SpeakerModel::ideal(),
///     &MicrophoneModel::ideal(),
///     &impulse,
///     &ImpulseResponse::identity(),
///     &mut recording,
///     100,
/// );
/// assert!((recording[100] - 1.0).abs() < 1e-12);
/// ```
pub fn add_received_signal(
    speaker: &SpeakerModel,
    microphone: &MicrophoneModel,
    travelled: &[f64],
    ir: &ImpulseResponse,
    recording: &mut [f64],
    offset: usize,
) {
    let energy = |s: &[f64]| s.iter().map(|v| v * v).sum::<f64>();
    if energy(travelled) == 0.0 || energy(ir.taps()) == 0.0 {
        return;
    }
    let tail = ir.len() - 1 + MAX_RESPONSE_LEN - 1;
    let fft = planned(transform_size(travelled.len(), tail)).expect("a power of two");
    let n = fft.size();
    let response = signal_response(speaker, microphone, &fft);
    let block = n - tail;
    let mut blocks: Vec<(usize, &[f64])> = travelled
        .chunks(block)
        .enumerate()
        .map(|(i, b)| (i * block, b))
        .collect();
    let lone = if blocks.len() % 2 == 1 {
        blocks.pop()
    } else {
        None
    };

    // The multipath response's spectrum, from a transform it shares
    // with the lone block. Unpacking two spectra cancels the larger
    // against itself, so its rounding error grows with their magnitude
    // ratio: `ir` enters scaled to the block's energy by a power of two
    // (an exact scaling, undone below).
    let scale = lone.map_or(1.0, |(_, x)| {
        let e = energy(x);
        if e > 0.0 {
            (0.5 * (e / energy(ir.taps())).log2()).round().exp2()
        } else {
            1.0
        }
    });
    let mut z = vec![Complex::ZERO; n];
    if let Some((_, x)) = lone {
        for (z, &x) in z.iter_mut().zip(x) {
            z.re = x;
        }
    }
    for (z, &h) in z.iter_mut().zip(ir.taps()) {
        z.im = scale * h;
    }
    fft.forward_in_place(&mut z).expect("planned length");
    // G = H·C, the whole channel's response, at bins 0..=n/2.
    let mut g = Vec::with_capacity(n / 2 + 1);
    for (k, &c) in response.half_spectrum.iter().enumerate() {
        // For Z = DFT(x + j·s·h): X_k = (Z_k + conj(Z_{n−k})) / 2 and
        // H_k = (Z_k − conj(Z_{n−k})) / 2js.
        let (a, b) = (z[k], z[(n - k) % n].conj());
        let h = a - b;
        let gk = Complex::new(0.5 * h.im / scale, -0.5 * h.re / scale) * c;
        g.push(gk);
        let y = (a + b).scale(0.5) * gk;
        z[k] = y;
        if k != 0 && 2 * k != n {
            z[n - k] = y.conj();
        }
    }
    if let Some((start, x)) = lone {
        fft.inverse_in_place(&mut z).expect("planned length");
        let block = &z[..x.len() + tail];
        add_aligned(recording, offset + start, response.delay, block, |y| y.re);
    }

    for pair in blocks.chunks_exact(2) {
        let [(first, x), (second, v)] = [pair[0], pair[1]];
        z.fill(Complex::ZERO);
        for (z, &x) in z.iter_mut().zip(x) {
            z.re = x;
        }
        for (z, &v) in z.iter_mut().zip(v) {
            z.im = v;
        }
        fft.forward_in_place(&mut z).expect("planned length");
        // G is the spectrum of a real response, so bin n − k is the
        // conjugate of bin k and the two parts stay apart.
        for (k, z) in z.iter_mut().enumerate() {
            *z *= if k <= n / 2 { g[k] } else { g[n - k].conj() };
        }
        fft.inverse_in_place(&mut z).expect("planned length");
        let (block, next) = (&z[..x.len() + tail], &z[..v.len() + tail]);
        add_aligned(recording, offset + first, response.delay, block, |y| y.re);
        add_aligned(recording, offset + second, response.delay, next, |y| y.im);
    }
}

/// Adds `part` of block samples to `recording`: a block starting at
/// `at` has its full convolution's sample `m` land at `at + m − delay`.
/// What falls outside `recording` is dropped.
fn add_aligned(
    recording: &mut [f64],
    at: usize,
    delay: usize,
    samples: &[Complex],
    part: impl Fn(&Complex) -> f64,
) {
    let skip = delay.saturating_sub(at);
    let samples = samples.get(skip..).unwrap_or_default();
    let recording = recording.get_mut(at + skip - delay..).unwrap_or_default();
    for (r, y) in recording.iter_mut().zip(samples) {
        *r += part(y);
    }
}

/// A low-pass FIR with its magnitude response.
pub(crate) struct LowPass {
    /// The filter, for the parts synthesized in the sample domain.
    pub(crate) fir: Fir,
    /// `|H|` at bins `0..=MAX_TRANSFORM/2` of a [`MAX_TRANSFORM`]-point
    /// DFT.
    magnitude: Vec<f64>,
}

impl LowPass {
    /// `|H|` at bin `k` of an `n`-point DFT, for `n` a power of two up
    /// to [`MAX_TRANSFORM`]: every `MAX_TRANSFORM / n`-th bin of the
    /// design, the same frequency. Both sizes are powers of two, so the
    /// stride is a shift.
    pub(crate) fn magnitude(&self, k: usize, n: usize) -> f64 {
        debug_assert!(n.is_power_of_two() && n <= MAX_TRANSFORM);
        self.magnitude[k << (MAX_TRANSFORM.trailing_zeros() - n.trailing_zeros())]
    }
}

/// The `taps`-tap low-pass at `cutoff` with its magnitude response, or
/// `None` where the cutoff does not limit the band
/// ([`crate::hardware::band_limit`]'s rule), designed once per process.
pub(crate) fn low_pass(cutoff: Hz, taps: usize) -> Arc<Option<LowPass>> {
    static LOW_PASSES: Designs<(u64, usize), Option<LowPass>> = Designs::new(8);
    LOW_PASSES.get((cutoff.value().to_bits(), taps), || {
        let fir = crate::hardware::band_limit(cutoff, taps)?;
        let fft = planned(MAX_TRANSFORM).expect("a power of two");
        let magnitude = spectrum(&fft, fir.taps())
            .iter()
            .take(MAX_TRANSFORM / 2 + 1)
            .map(|h| h.abs())
            .collect();
        Some(LowPass { fir, magnitude })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Full linear convolution, summed directly.
    fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
        out
    }

    #[test]
    fn fused_signal_is_the_full_convolution_placed_at_the_delay() {
        let speaker = SpeakerModel::smartphone();
        let mic = MicrophoneModel::moto360();
        let mut rng = StdRng::seed_from_u64(8);
        let ir = ImpulseResponse::from_taps(vec![1.0, 0.0, -0.3, 0.2]).unwrap();
        let composite = [
            speaker.band_pass().unwrap(),
            speaker.ripple().unwrap(),
            mic.band_limit().unwrap(),
        ]
        .iter()
        .fold(ir.taps().to_vec(), |h, fir| convolve(&h, fir.taps()));
        let delay = BAND_PASS_TAPS / 2 + RIPPLE_TAPS / 2 + MIC_TAPS / 2;

        // One block, two (a pair) and three (a pair and one with the
        // response); room on both sides keeps every tail, a short
        // buffer drops them.
        for (signal, offset, short) in [
            (700, delay + 40, None),
            (700, 25, Some(900)),
            (4_000, delay + 40, None),
            (7_000, 3, Some(7_500)),
        ] {
            let x: Vec<f64> = (0..signal).map(|_| rng.gen::<f64>() - 0.5).collect();
            let full = convolve(&x, &composite);
            let len = short.unwrap_or(full.len() + 100);
            let mut got = vec![0.0; len];
            add_received_signal(&speaker, &mic, &x, &ir, &mut got, offset);
            let mut want = vec![0.0; len];
            for (m, &y) in full.iter().enumerate() {
                if let Some(w) = (offset + m)
                    .checked_sub(delay)
                    .and_then(|i| want.get_mut(i))
                {
                    *w = y;
                }
            }
            let peak = want.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() < 1e-12 * peak,
                    "{signal} samples at {offset}, sample {i}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn designs_are_shared_and_bounded() {
        let table: Designs<u32, Vec<u32>> = Designs::new(2);
        let a = table.get(1, || vec![1]);
        assert!(Arc::ptr_eq(&a, &table.get(1, || unreachable!())));
        table.get(2, || vec![2]);
        table.get(3, || vec![3]);
        // The oldest design was evicted and is made again.
        assert!(!Arc::ptr_eq(&a, &table.get(1, || vec![1])));
    }

    #[test]
    fn low_pass_magnitude_matches_the_fir_gain() {
        let sr = wearlock_dsp::units::SampleRate::CD;
        let lp = low_pass(Hz(4_000.0), 61);
        let lp = lp.as_ref().as_ref().unwrap();
        for (k, n) in [
            (1, 2),
            (0, 512),
            (10, 512),
            (47, 512),
            (256, 512),
            (1_000, 4_096),
        ] {
            let f = Hz(k as f64 * sr.value() / n as f64);
            let got = lp.magnitude(k, n);
            assert!(
                (got - lp.fir.gain_at(f, sr)).abs() < 1e-12,
                "bin {k} of {n}"
            );
        }
    }
}
