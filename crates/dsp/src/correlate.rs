//! Cross-correlation: preamble detection, coarse synchronization, and
//! delay-profile estimation.
//!
//! The paper detects its chirp preamble with a sliding normalized
//! cross-correlator (§III.4), uses the correlation peak for coarse
//! time-domain synchronization (§III.5), and approximates a multipath
//! delay profile from the correlation magnitude around the peak to
//! compute the RMS delay spread for NLOS filtering (§III "NLOS
//! filtering").
//!
//! ## Allocation discipline
//!
//! The FFT correlators ([`cross_correlate_fft`],
//! [`normalized_cross_correlate_fft`]) share one overlap–save kernel and
//! take an explicit [`CorrelationWorkspace`] and output vector: they
//! perform **zero** allocations once the workspace has warmed up to the
//! template/signal sizes in play. The workspace only changes *where*
//! buffers live, never the sequence of floating-point operations. The
//! direct correlators stay as the tests' reference and as
//! [`find_peak`]'s path.

use std::sync::Arc;

use crate::cache;
use crate::complex::Complex;
use crate::error::DspError;
use crate::fft::Fft;
use crate::units::SampleRate;

/// Raw (unnormalized) linear cross-correlation of `signal` with
/// `template` at every alignment where the template fits entirely.
///
/// Output length is `signal.len() - template.len() + 1`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either input is empty and
/// [`DspError::LengthMismatch`] if the template is longer than the
/// signal.
pub fn cross_correlate(signal: &[f64], template: &[f64]) -> Result<Vec<f64>, DspError> {
    if signal.is_empty() || template.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if template.len() > signal.len() {
        return Err(DspError::LengthMismatch {
            expected: template.len(),
            actual: signal.len(),
        });
    }
    let m = template.len();
    Ok((0..=signal.len() - m)
        .map(|i| {
            signal[i..i + m]
                .iter()
                .zip(template)
                .map(|(a, b)| a * b)
                .sum()
        })
        .collect())
}

/// Per-lag rolling window energies plus the AGC-like energy floor,
/// shared by the direct and FFT normalized correlators so both divide
/// by *bitwise identical* denominators
/// (`energy.max(floor).sqrt() * ‖template‖`, formed at the point of
/// use so the energies are only traversed once).
///
/// Pure per-window normalization is scale-invariant, which would let a
/// window 80 dB below the recording's loudest content score like a
/// perfect match (e.g. a filter's decay tail that happens to resemble
/// the template). Gate the denominator at 60 dB below the loudest
/// window — an AGC-like absolute-energy floor.
///
/// The rolling window energy gives O(n) normalization; the incremental
/// update accumulates floating-point error, so recompute exactly every
/// 1024 lags and clamp at zero.
///
/// The floor scan and the emitted energies are two independent
/// recurrences (the floor scan never recomputes, so their values drift
/// apart between recompute points). One fused pass maintains both
/// accumulators — each sees exactly the operation sequence the original
/// two-pass code gave it, so every emitted energy keeps its bits —
/// while halving the passes over the signal and sharing the squared
/// sample terms between the recurrences.
fn window_energies_into(signal: &[f64], m: usize, out: &mut Vec<f64>) -> f64 {
    let total_energy: f64 = signal.iter().map(|x| x * x).sum();
    let n_lags = signal.len() - m + 1;
    out.clear();
    out.resize(n_lags, 0.0);

    let seed_energy: f64 = signal[..m].iter().map(|x| x * x).sum();
    let mut max_win = 0.0f64.max(seed_energy);
    let mut floor_energy = seed_energy;
    let mut win_energy = seed_energy;
    // Chunked by the recompute cadence so the inner loop is branch-lean;
    // chunk boundaries land exactly on the original `i % 1024 == 0`
    // recompute points.
    let mut i = 0;
    while i < n_lags {
        if i > 0 {
            win_energy = signal[i..i + m].iter().map(|x| x * x).sum();
        }
        let chunk_end = (i + 1024).min(n_lags);
        for j in i..chunk_end {
            out[j] = win_energy;
            if j + m < signal.len() {
                let entering = signal[j + m] * signal[j + m];
                let leaving = signal[j] * signal[j];
                floor_energy = (floor_energy + entering - leaving).max(0.0);
                max_win = max_win.max(floor_energy);
                win_energy = (win_energy + entering - leaving).max(0.0);
            }
        }
        i = chunk_end;
    }

    (max_win * 1e-6).max(total_energy * 1e-15)
}

/// Divides each raw correlation dot by its window's denominator
/// (`energy.max(floor).sqrt() * ‖template‖`), in place. One pass forms
/// the denominator and applies it, bitwise matching the former
/// materialize-then-divide sequence.
fn normalize_by_energies(dots: &mut [f64], energies: &[f64], energy_floor: f64, t_norm: f64) {
    for (dot, &e) in dots.iter_mut().zip(energies) {
        let denom = e.max(energy_floor).sqrt() * t_norm;
        *dot = if denom > 0.0 { *dot / denom } else { 0.0 };
    }
}

/// Validates the correlator inputs and returns `‖template‖`.
fn check_inputs(signal: &[f64], template: &[f64]) -> Result<f64, DspError> {
    if signal.is_empty() || template.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if template.len() > signal.len() {
        return Err(DspError::LengthMismatch {
            expected: template.len(),
            actual: signal.len(),
        });
    }
    let t_norm = template.iter().map(|x| x * x).sum::<f64>().sqrt();
    if t_norm == 0.0 {
        return Err(DspError::InvalidParameter(
            "template has zero energy".into(),
        ));
    }
    Ok(t_norm)
}

/// Normalized cross-correlation: each lag's score is divided by
/// `‖window‖·‖template‖`, yielding values in `[-1, 1]`.
///
/// WearLock compares the maximum normalized score against a threshold
/// (0.05 in the paper's NLOS experiment) to decide whether a preamble is
/// present at all.
///
/// # Errors
///
/// Same as [`cross_correlate`].
pub fn normalized_cross_correlate(signal: &[f64], template: &[f64]) -> Result<Vec<f64>, DspError> {
    let t_norm = check_inputs(signal, template)?;
    let m = template.len();
    let mut energies = Vec::new();
    let floor = window_energies_into(signal, m, &mut energies);
    let mut out = Vec::with_capacity(energies.len());
    for (i, &e) in energies.iter().enumerate() {
        let denom = e.max(floor).sqrt() * t_norm;
        let dot: f64 = signal[i..i + m]
            .iter()
            .zip(template)
            .map(|(a, b)| a * b)
            .sum();
        out.push(if denom > 0.0 { dot / denom } else { 0.0 });
    }
    Ok(out)
}

/// Reusable scratch for the FFT correlators: cached FFT plans, a
/// memoized template spectrum, and the block/denominator buffers the
/// overlap–save loop needs.
///
/// A workspace starts empty and grows to the sizes it sees; after the
/// first call at a given template/signal size ("warmup") subsequent
/// correlator calls perform no heap allocation.
/// The template spectrum is memoized by exact bit comparison, so
/// repeated searches for the same preamble (the modem's steady state)
/// skip the template transform entirely.
///
/// The workspace is plain mutable state — keep one per worker thread.
/// It is `Send`, so per-worker scratch can be created by a
/// `SweepRunner`-style pool and reused across tasks.
///
/// # Examples
///
/// ```
/// use wearlock_dsp::correlate::{cross_correlate_fft, CorrelationWorkspace};
///
/// let sig: Vec<f64> = (0..500).map(|i| (i as f64 * 0.3).sin()).collect();
/// let tpl: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
/// let mut ws = CorrelationWorkspace::new();
/// let mut out = Vec::new();
/// cross_correlate_fft(&sig, &tpl, &mut ws, &mut out)?;
/// assert_eq!(out.len(), sig.len() - tpl.len() + 1);
/// # Ok::<(), wearlock_dsp::DspError>(())
/// ```
#[derive(Debug, Default)]
pub struct CorrelationWorkspace {
    fft: Option<Arc<Fft>>,
    /// Copy of the template whose spectrum is memoized in `tpl_spec`.
    tpl_copy: Vec<f64>,
    tpl_fft_len: usize,
    tpl_spec: Vec<Complex>,
    /// Complex block buffer (overlap–save input, product, and inverse).
    block: Vec<Complex>,
    /// Raw window energies for normalization.
    denoms: Vec<f64>,
}

impl CorrelationWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn plan(&mut self, fft_len: usize) -> Result<&Fft, DspError> {
        if self.fft.as_ref().map(|f| f.size()) != Some(fft_len) {
            self.fft = Some(cache::planned(fft_len)?);
        }
        Ok(self.fft.as_deref().expect("plan just set"))
    }

    /// Whether the memoized template spectrum can be reused: identical
    /// length, identical bits and block size.
    fn template_is_cached(&self, template: &[f64], fft_len: usize) -> bool {
        self.tpl_fft_len == fft_len
            && self.tpl_copy.len() == template.len()
            && self
                .tpl_copy
                .iter()
                .zip(template)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Overlap–save block size for a template of `m` samples: at least 4×
/// the template, power of two. Fixed by the seed implementation — the
/// classic path's output bits depend on it, so it must never change.
fn os_fft_len(m: usize) -> usize {
    (4 * m).next_power_of_two().max(64)
}

/// FFT-accelerated raw cross-correlation (overlap–save) into a
/// caller-provided output, using `ws` for plans and scratch: identical
/// output to [`cross_correlate`] up to FFT roundoff but `O(n log n)`
/// instead of `O(n·m)`, which matters for the second-long recordings
/// the watch processes. Zero allocations once `ws` has warmed up.
///
/// # Errors
///
/// Same as [`cross_correlate`].
///
/// # Examples
///
/// ```
/// use wearlock_dsp::correlate::{cross_correlate, cross_correlate_fft, CorrelationWorkspace};
/// let sig: Vec<f64> = (0..500).map(|i| (i as f64 * 0.3).sin()).collect();
/// let tpl: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
/// let direct = cross_correlate(&sig, &tpl)?;
/// let mut fast = Vec::new();
/// cross_correlate_fft(&sig, &tpl, &mut CorrelationWorkspace::new(), &mut fast)?;
/// for (a, b) in direct.iter().zip(&fast) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// # Ok::<(), wearlock_dsp::DspError>(())
/// ```
pub fn cross_correlate_fft(
    signal: &[f64],
    template: &[f64],
    ws: &mut CorrelationWorkspace,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    if signal.is_empty() || template.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if template.len() > signal.len() {
        return Err(DspError::LengthMismatch {
            expected: template.len(),
            actual: signal.len(),
        });
    }
    let m = template.len();
    let out_len = signal.len() - m + 1;
    let fft_len = os_fft_len(m);
    ws.plan(fft_len)?;
    let step = fft_len - m + 1;

    // Conjugate spectrum of the (zero-padded) template realizes
    // correlation rather than convolution. Memoized: the modem searches
    // for the same preamble on every attempt.
    if !ws.template_is_cached(template, fft_len) {
        ws.block.clear();
        ws.block.resize(fft_len, Complex::ZERO);
        for (slot, &t) in ws.block.iter_mut().zip(template) {
            *slot = Complex::from_re(t);
        }
        let fft = ws.fft.as_deref().expect("planned above");
        fft.forward_in_place(&mut ws.block)?;
        ws.tpl_spec.clear();
        ws.tpl_spec.extend(ws.block.iter().map(|z| z.conj()));
        ws.tpl_copy.clear();
        ws.tpl_copy.extend_from_slice(template);
        ws.tpl_fft_len = fft_len;
    }

    out.clear();
    out.resize(out_len, 0.0);
    let fft = ws.fft.as_deref().expect("planned above");
    ws.block.resize(fft_len, Complex::ZERO);
    let mut start = 0;
    while start < out_len {
        // Every slot is written below (samples, then the zero tail), so
        // the buffer is reused without a wholesale re-zeroing pass.
        let avail = (signal.len() - start).min(fft_len);
        for (slot, &v) in ws.block[..avail]
            .iter_mut()
            .zip(&signal[start..start + avail])
        {
            *slot = Complex::from_re(v);
        }
        ws.block[avail..].fill(Complex::ZERO);
        fft.forward_in_place(&mut ws.block)?;
        for (a, b) in ws.block.iter_mut().zip(&ws.tpl_spec) {
            *a *= *b;
        }
        fft.inverse_in_place(&mut ws.block)?;
        let valid = step.min(out_len - start);
        for i in 0..valid {
            out[start + i] = ws.block[i].re;
        }
        start += step;
    }
    Ok(())
}

/// FFT-accelerated normalized cross-correlation into a caller-provided
/// output: the numerator comes from [`cross_correlate_fft`]
/// (overlap–save) while the denominator is the *same* rolling-energy
/// computation — same energy floor, same exact recompute cadence — as
/// [`normalized_cross_correlate`], so the two differ only by the FFT's
/// numerator roundoff. Zero allocations once `ws` has warmed up.
///
/// For unit-scale audio the observed deviation stays below `1e-9` per
/// lag (the dsp proptest suite enforces that bound); peak *offsets*
/// chosen from these scores match the direct correlator's, which the
/// modem regression tests lock down.
///
/// This is what the modem's preamble detector runs: preamble search
/// over a second of 44.1 kHz audio with a 256-sample template is the
/// single hottest kernel of an unlock, and overlap–save turns its
/// `O(n·m)` scan into `O(n log m)`.
///
/// # Errors
///
/// Same as [`cross_correlate`].
pub fn normalized_cross_correlate_fft(
    signal: &[f64],
    template: &[f64],
    ws: &mut CorrelationWorkspace,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    let t_norm = check_inputs(signal, template)?;
    let m = template.len();
    cross_correlate_fft(signal, template, ws, out)?;
    let mut energies = std::mem::take(&mut ws.denoms);
    let floor = window_energies_into(signal, m, &mut energies);
    normalize_by_energies(out, &energies, floor, t_norm);
    ws.denoms = energies;
    Ok(())
}

/// The best match found by a correlator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationPeak {
    /// Sample offset of the best alignment.
    pub offset: usize,
    /// Normalized correlation score at the peak, in `[-1, 1]`.
    pub score: f64,
}

/// Finds the peak of the normalized cross-correlation of `signal` with
/// `template`.
///
/// # Errors
///
/// Same as [`normalized_cross_correlate`].
///
/// # Examples
///
/// ```
/// use wearlock_dsp::correlate::find_peak;
///
/// let template = vec![1.0, -1.0, 1.0, -1.0];
/// let mut signal = vec![0.0; 64];
/// signal[20..24].copy_from_slice(&template);
/// let peak = find_peak(&signal, &template)?;
/// assert_eq!(peak.offset, 20);
/// assert!(peak.score > 0.99);
/// # Ok::<(), wearlock_dsp::DspError>(())
/// ```
pub fn find_peak(signal: &[f64], template: &[f64]) -> Result<CorrelationPeak, DspError> {
    let scores = normalized_cross_correlate(signal, template)?;
    let (offset, score) = scores.iter().enumerate().fold(
        (0usize, f64::MIN),
        |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        },
    );
    Ok(CorrelationPeak { offset, score })
}

/// Mean excess delay `τ̂ = Σ t_n·A(t_n) / Σ A(t_n)` in seconds for a
/// power delay profile given as a tap slice.
///
/// Returns `0.0` when the profile has no energy. Slice-based so scratch
/// buffers can be analyzed without building a [`DelayProfile`].
pub fn profile_mean_delay(taps: &[f64], sample_rate: SampleRate) -> f64 {
    let total: f64 = taps.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let fs = sample_rate.value();
    taps.iter()
        .enumerate()
        .map(|(n, a)| (n as f64 / fs) * a)
        .sum::<f64>()
        / total
}

/// RMS delay spread
/// `τ_rms = sqrt(Σ (t_n − τ̂)²·A(t_n) / Σ A(t_n))` in seconds — the
/// paper's NLOS indicator — for a power delay profile given as a tap
/// slice.
pub fn profile_rms_delay_spread(taps: &[f64], sample_rate: SampleRate) -> f64 {
    let total: f64 = taps.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let fs = sample_rate.value();
    let mean = profile_mean_delay(taps, sample_rate);
    (taps
        .iter()
        .enumerate()
        .map(|(n, a)| {
            let t = n as f64 / fs;
            (t - mean) * (t - mean) * a
        })
        .sum::<f64>()
        / total)
        .sqrt()
}

/// An approximate multipath delay profile extracted from the correlation
/// magnitude in a window after the main peak.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayProfile {
    /// `A(t_n)`: correlation magnitudes (power) at each delay tap.
    pub taps: Vec<f64>,
    /// Sample rate, for converting tap indices to seconds.
    pub sample_rate: SampleRate,
}

impl DelayProfile {
    /// Builds a delay profile from normalized correlation scores, taking
    /// `window` taps starting at the main peak. Tap magnitudes are the
    /// squared scores (a power profile).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `window == 0` or the
    /// peak lies outside `scores`.
    pub fn from_correlation(
        scores: &[f64],
        peak_offset: usize,
        window: usize,
        sample_rate: SampleRate,
    ) -> Result<Self, DspError> {
        if window == 0 {
            return Err(DspError::InvalidParameter(
                "delay profile window must be >= 1".into(),
            ));
        }
        if peak_offset >= scores.len() {
            return Err(DspError::InvalidParameter(format!(
                "peak offset {peak_offset} outside correlation of length {}",
                scores.len()
            )));
        }
        let end = (peak_offset + window).min(scores.len());
        let taps = scores[peak_offset..end].iter().map(|s| s * s).collect();
        Ok(DelayProfile { taps, sample_rate })
    }

    /// Mean excess delay `τ̂ = Σ t_n·A(t_n) / Σ A(t_n)` in seconds.
    ///
    /// Returns `0.0` when the profile has no energy.
    pub fn mean_delay(&self) -> f64 {
        profile_mean_delay(&self.taps, self.sample_rate)
    }

    /// RMS delay spread
    /// `τ_rms = sqrt(Σ (t_n − τ̂)²·A(t_n) / Σ A(t_n))` in seconds —
    /// the paper's NLOS indicator.
    pub fn rms_delay_spread(&self) -> f64 {
        profile_rms_delay_spread(&self.taps, self.sample_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::Chirp;
    use crate::units::Hz;

    /// Raw FFT correlation on a fresh workspace.
    fn xcorr_fft(signal: &[f64], template: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = Vec::new();
        cross_correlate_fft(signal, template, &mut CorrelationWorkspace::new(), &mut out)?;
        Ok(out)
    }

    /// Normalized FFT correlation on a fresh workspace.
    fn ncc_fft(signal: &[f64], template: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = Vec::new();
        normalized_cross_correlate_fft(
            signal,
            template,
            &mut CorrelationWorkspace::new(),
            &mut out,
        )?;
        Ok(out)
    }

    #[test]
    fn fft_correlation_matches_direct() {
        let sig: Vec<f64> = (0..1_000)
            .map(|i| (i as f64 * 0.17).sin() + 0.3 * (i as f64 * 0.71).cos())
            .collect();
        let tpl: Vec<f64> = (0..100).map(|i| (i as f64 * 0.29).sin()).collect();
        let direct = cross_correlate(&sig, &tpl).unwrap();
        let fast = xcorr_fft(&sig, &tpl).unwrap();
        assert_eq!(direct.len(), fast.len());
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn fft_correlation_handles_edge_lengths() {
        // Template as long as the signal: single output lag.
        let sig: Vec<f64> = (0..64).map(|i| (i as f64 * 0.4).sin()).collect();
        let fast = xcorr_fft(&sig, &sig).unwrap();
        assert_eq!(fast.len(), 1);
        let e: f64 = sig.iter().map(|x| x * x).sum();
        assert!((fast[0] - e).abs() < 1e-8);
        // Tiny template.
        let tpl = vec![1.0];
        let fast = xcorr_fft(&sig, &tpl).unwrap();
        for (a, b) in fast.iter().zip(&sig) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_correlation_rejects_degenerate_inputs() {
        assert!(xcorr_fft(&[], &[1.0]).is_err());
        assert!(xcorr_fft(&[1.0], &[]).is_err());
        assert!(xcorr_fft(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn normalized_fft_matches_direct() {
        let sig: Vec<f64> = (0..3_000)
            .map(|i| (i as f64 * 0.11).sin() + 0.2 * (i as f64 * 0.53).cos())
            .collect();
        let tpl: Vec<f64> = (0..128).map(|i| (i as f64 * 0.23).sin()).collect();
        let direct = normalized_cross_correlate(&sig, &tpl).unwrap();
        let fast = ncc_fft(&sig, &tpl).unwrap();
        assert_eq!(direct.len(), fast.len());
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn normalized_fft_matches_direct_with_silence() {
        // Long silent stretches exercise the energy floor: both paths
        // must gate the same lags with the same denominators.
        let tpl: Vec<f64> = (0..64).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut sig = vec![0.0; 4_096];
        for (i, &t) in tpl.iter().enumerate() {
            sig[2_000 + i] = t;
        }
        let direct = normalized_cross_correlate(&sig, &tpl).unwrap();
        let fast = ncc_fft(&sig, &tpl).unwrap();
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // And both still find the clean peak.
        let best = fast
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(best.0, 2_000);
        assert!(*best.1 > 0.99);
    }

    #[test]
    fn normalized_fft_rejects_degenerate_inputs() {
        assert!(ncc_fft(&[], &[1.0]).is_err());
        assert!(ncc_fft(&[1.0], &[]).is_err());
        assert!(ncc_fft(&[1.0], &[1.0, 2.0]).is_err());
        assert!(ncc_fft(&[0.0; 8], &[0.0; 4]).is_err());
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        // The same query through a fresh workspace and through one that
        // has already served different templates/sizes must agree bit
        // for bit: scratch reuse cannot leak state into results.
        let sig: Vec<f64> = (0..2_000)
            .map(|i| (i as f64 * 0.19).sin() + 0.1 * (i as f64 * 0.87).cos())
            .collect();
        let tpl_a: Vec<f64> = (0..96).map(|i| (i as f64 * 0.31).sin()).collect();
        let tpl_b: Vec<f64> = (0..256).map(|i| (i as f64 * 0.05).cos()).collect();

        let mut fresh = CorrelationWorkspace::new();
        let mut expect = Vec::new();
        normalized_cross_correlate_fft(&sig, &tpl_a, &mut fresh, &mut expect).unwrap();

        let mut used = CorrelationWorkspace::new();
        let mut out = Vec::new();
        // Warm the workspace with other shapes first.
        normalized_cross_correlate_fft(&sig, &tpl_b, &mut used, &mut out).unwrap();
        cross_correlate_fft(&sig[..500], &tpl_a, &mut used, &mut out).unwrap();
        normalized_cross_correlate_fft(&sig, &tpl_a, &mut used, &mut out).unwrap();
        assert_eq!(out.len(), expect.len());
        for (a, b) in out.iter().zip(&expect) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn raw_correlation_length() {
        let s = vec![0.0; 100];
        let t = vec![1.0; 10];
        assert_eq!(cross_correlate(&s, &t).unwrap().len(), 91);
    }

    #[test]
    fn errors_on_degenerate_inputs() {
        assert!(cross_correlate(&[], &[1.0]).is_err());
        assert!(cross_correlate(&[1.0], &[]).is_err());
        assert!(cross_correlate(&[1.0], &[1.0, 2.0]).is_err());
        assert!(normalized_cross_correlate(&[0.0; 8], &[0.0; 4]).is_err()); // zero-energy template
    }

    #[test]
    fn normalized_scores_bounded() {
        let t: Vec<f64> = (0..32).map(|i| (i as f64 * 0.9).sin()).collect();
        let mut s = vec![0.0; 256];
        s[100..132].copy_from_slice(&t);
        for (i, v) in s.iter_mut().enumerate() {
            *v += 0.05 * (i as f64 * 0.13).cos();
        }
        let scores = normalized_cross_correlate(&s, &t).unwrap();
        assert!(scores.iter().all(|v| v.abs() <= 1.0 + 1e-9));
    }

    #[test]
    fn chirp_detected_in_noise_at_exact_offset() {
        let chirp = Chirp::new(Hz(1_000.0), Hz(6_000.0), 256, SampleRate::CD).unwrap();
        let t = chirp.generate();
        let mut s = vec![0.0; 2000];
        // Deterministic pseudo-noise.
        let mut state = 0x12345678u64;
        for v in s.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *v = ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.1;
        }
        for (i, &c) in t.iter().enumerate() {
            s[700 + i] += c;
        }
        let peak = find_peak(&s, &t).unwrap();
        assert!(
            (699..=701).contains(&peak.offset),
            "offset {} score {}",
            peak.offset,
            peak.score
        );
        assert!(peak.score > 0.8);
    }

    #[test]
    fn inverted_template_gives_negative_score() {
        let t = vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let s: Vec<f64> = t.iter().map(|x| -x).collect();
        let scores = normalized_cross_correlate(&s, &t).unwrap();
        assert!((scores[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn delay_profile_single_tap_has_zero_spread() {
        let scores = vec![0.0, 0.0, 1.0, 0.0, 0.0];
        let p = DelayProfile::from_correlation(&scores, 2, 3, SampleRate::CD).unwrap();
        assert!(p.rms_delay_spread() < 1e-12);
        assert!(p.mean_delay() < 1e-12);
    }

    #[test]
    fn delay_profile_spread_grows_with_multipath() {
        let fs = SampleRate::CD;
        // LOS: one dominant tap. NLOS: energy smeared over many taps.
        let los = DelayProfile::from_correlation(&[1.0, 0.05, 0.02, 0.01], 0, 4, fs).unwrap();
        let nlos =
            DelayProfile::from_correlation(&[0.4, 0.35, 0.3, 0.28, 0.25, 0.2], 0, 6, fs).unwrap();
        assert!(nlos.rms_delay_spread() > 3.0 * los.rms_delay_spread());
    }

    #[test]
    fn delay_profile_rejects_bad_window() {
        assert!(DelayProfile::from_correlation(&[1.0], 0, 0, SampleRate::CD).is_err());
        assert!(DelayProfile::from_correlation(&[1.0], 5, 2, SampleRate::CD).is_err());
    }

    #[test]
    fn profile_free_functions_match_struct_methods() {
        let scores = vec![0.3, 0.8, 0.4, 0.2, 0.1];
        let p = DelayProfile::from_correlation(&scores, 1, 4, SampleRate::CD).unwrap();
        assert_eq!(
            p.mean_delay().to_bits(),
            profile_mean_delay(&p.taps, SampleRate::CD).to_bits()
        );
        assert_eq!(
            p.rms_delay_spread().to_bits(),
            profile_rms_delay_spread(&p.taps, SampleRate::CD).to_bits()
        );
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = DelayProfile {
            taps: vec![0.0; 4],
            sample_rate: SampleRate::CD,
        };
        assert_eq!(p.mean_delay(), 0.0);
        assert_eq!(p.rms_delay_spread(), 0.0);
    }
}
