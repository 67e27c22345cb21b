//! Radix-2 fast Fourier transform.
//!
//! The WearLock modem performs all OFDM modulation/demodulation through
//! FFTs of size 256 (paper §VI "the default FFT size is 256"), so a
//! power-of-two radix-2 implementation with precomputed twiddle factors
//! covers every use in this repository.
//!
//! Conventions: [`Fft::forward`] computes `X[k] = Σ x[n]·e^{-j2πkn/N}`
//! (no scaling) and [`Fft::inverse`] computes
//! `x[n] = (1/N)·Σ X[k]·e^{+j2πkn/N}`, matching equation (1) of the
//! paper, so `inverse(forward(x)) == x`.
//!
//! ## Allocation discipline
//!
//! Every transform has three entry points sharing one butterfly kernel,
//! so they produce *bitwise identical* spectra:
//!
//! * allocating ([`Fft::forward`]) — convenient, one `Vec` per call;
//! * `_into` ([`Fft::forward_into`]) — caller-provided output, zero
//!   allocations;
//! * in-place ([`Fft::forward_in_place`]) — transform a buffer without
//!   even a copy (the permutation runs as swaps).
//!
//! A caller that can write its input straight to bit-reversed slots
//! ([`Fft::bit_reversed`]) skips the permutation altogether with
//! [`Fft::inverse_bit_reversed_in_place`].
//!
//! ## The kernel
//!
//! The decimation-in-time stages `len = 2, 4, …, N` run in fused pairs
//! (radix-2²): one pass loads four values, runs the two butterflies of
//! stage `len` and the two of stage `2·len` that connect them, and
//! stores four values. When `log2 N` is odd a lone radix-2 stage ends
//! the schedule. Each butterfly computes `(a + b·w, a − b·w)` on the
//! same operands, with the same twiddle, as a stage-by-stage transform,
//! so fusing changes only the order of independent butterflies and the
//! output is the same bit for bit. Two back-ends run this one schedule
//! on the same tables: a portable scalar one, and on x86-64 CPUs with
//! AVX (detected at run time, for `N ≥ 8`) one that computes two
//! butterflies per 256-bit vector with the same IEEE operations and no
//! fused multiply-add.
//!
//! Plans are cheap to share: [`crate::cache::planned`] hands out
//! `Arc<Fft>` from a process-wide cache so the bit-reversal table and
//! twiddles for each size are computed exactly once.

use std::sync::Arc;

use crate::complex::Complex;
use crate::error::DspError;

#[cfg(target_arch = "x86_64")]
mod avx;
mod scalar;

/// A planned FFT of a fixed power-of-two size.
///
/// Planning precomputes the bit-reversal permutation and twiddle factors
/// so repeated transforms (one per OFDM block) avoid trigonometric work.
///
/// # Examples
///
/// ```
/// use wearlock_dsp::{Complex, Fft};
///
/// let fft = Fft::new(8)?;
/// let x: Vec<Complex> = (0..8).map(|n| Complex::from_re(n as f64)).collect();
/// let spectrum = fft.forward(&x)?;
/// let back = fft.inverse(&spectrum)?;
/// for (a, b) in x.iter().zip(&back) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// # Ok::<(), wearlock_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    /// The bit-reversal permutation; sizes are capped at 2³¹, so its
    /// indices fit `u32`.
    rev: Vec<u32>,
    /// Forward twiddles, one contiguous table per stage: stage `len`
    /// holds `e^{-j2πk/len}` for `k < len/2` at offset `len/2 − 1`, so
    /// `N − 1` entries in all. Each entry is entry `k·N/len` of the last
    /// stage's table `e^{-j2πk/N}`, copied bit for bit. The inverse
    /// conjugates them in its butterflies, an exact sign flip, so no
    /// second table is kept. The table may be longer: a plan sharing a
    /// longer plan's table reads its first `N − 1` entries (see
    /// [`twiddle_table`]).
    twiddles: Arc<[Complex]>,
}

/// The twiddle table of a `points`-point plan (see [`Fft`]'s layout).
///
/// Stage `len`'s entries do not depend on `points`: entry `k` is
/// `cis(−2π·m / points)` with `m = k·points/len`, and doubling
/// `points` doubles `m`. Both doublings are exact in floating point,
/// so the angle, and with it the entry, comes out the same `f64` bits
/// for every plan size. A shorter plan's table is therefore exactly a
/// prefix of a longer one's, and plans can share the longest table.
pub(crate) fn twiddle_table(points: usize) -> Arc<[Complex]> {
    let mut twiddles = vec![Complex::ZERO; points - 1];
    let (earlier, last) = twiddles.split_at_mut(points / 2 - 1);
    for (k, w) in last.iter_mut().enumerate() {
        *w = Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / points as f64);
    }
    let mut len = 2;
    while len < points {
        let stage = &mut earlier[len / 2 - 1..len - 1];
        for (w, &v) in stage.iter_mut().zip(last.iter().step_by(points / len)) {
            *w = v;
        }
        len <<= 1;
    }
    twiddles.into()
}

/// One pass of the stage schedule over the whole buffer, with the
/// twiddle tables of the stages it runs.
enum Pass<'a> {
    /// Stages `len` and `2·len` fused (radix-2²): their tables of
    /// `len/2` and `len` entries.
    Pair(&'a [Complex], &'a [Complex]),
    /// A lone radix-2 stage, the last one when `log2 N` is odd.
    Single(&'a [Complex]),
}

impl Fft {
    /// Plans an FFT of `size` points.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFftSize`] unless `size` is a power of
    /// two from 2 to 2³¹.
    pub fn new(size: usize) -> Result<Self, DspError> {
        Self::check_size(size)?;
        Ok(Self::with_twiddles(size, twiddle_table(size)))
    }

    /// Checks that `size` is a power of two from 2 to 2³¹.
    pub(crate) fn check_size(size: usize) -> Result<(), DspError> {
        if size < 2 || !size.is_power_of_two() || u32::try_from(size).is_err() {
            return Err(DspError::InvalidFftSize(size));
        }
        Ok(())
    }

    /// Plans a valid `size` on `twiddles`, the table of a plan of
    /// `size` points or more ([`twiddle_table`]).
    pub(crate) fn with_twiddles(size: usize, twiddles: Arc<[Complex]>) -> Self {
        assert!(twiddles.len() >= size - 1, "twiddle table too short");
        let bits = size.trailing_zeros();
        let rev = (0..size as u32)
            .map(|i| i.reverse_bits() >> (u32::BITS - bits))
            .collect();
        Fft {
            size,
            rev,
            twiddles,
        }
    }

    /// The plan's twiddle table: `size − 1` entries or more, when it
    /// shares a longer plan's.
    #[cfg(test)]
    pub(crate) fn twiddles(&self) -> &Arc<[Complex]> {
        &self.twiddles
    }

    /// The transform size.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The slot of bin `k` in bit-reversed order: the input layout of
    /// [`Fft::inverse_bit_reversed_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `k >= size`.
    #[inline]
    pub fn bit_reversed(&self, k: usize) -> usize {
        self.rev[k] as usize
    }

    fn check_len(&self, len: usize) -> Result<(), DspError> {
        if len != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: len,
            });
        }
        Ok(())
    }

    /// Stage `len`'s twiddle table.
    fn stage(&self, len: usize) -> &[Complex] {
        &self.twiddles[len / 2 - 1..len - 1]
    }

    /// The stage schedule both back-ends follow: stages fused in pairs
    /// from the shortest, then a lone last stage if one is left over.
    fn passes(&self) -> impl Iterator<Item = Pass<'_>> {
        std::iter::successors(Some(2usize), |&len| len.checked_mul(4))
            .take_while(move |&len| len <= self.size)
            .map(move |len| {
                if 2 * len <= self.size {
                    Pass::Pair(self.stage(len), self.stage(2 * len))
                } else {
                    Pass::Single(self.stage(len))
                }
            })
    }

    /// The shared butterfly kernel: every entry point runs it, which is
    /// what keeps the allocating, `_into` and in-place paths bitwise
    /// interchangeable. Both back-ends produce the same bits, so which
    /// one runs is invisible to callers.
    fn butterflies(&self, buf: &mut [Complex], invert: bool) {
        #[cfg(target_arch = "x86_64")]
        if self.size >= 8 && std::is_x86_feature_detected!("avx") {
            // SAFETY: `avx::stages` needs nothing but the AVX
            // instructions its `#[target_feature]` enables, and the CPU
            // running this was just detected to have them.
            #[allow(unsafe_code)]
            unsafe {
                avx::stages(self, buf, invert)
            };
            return;
        }
        scalar::stages(self, buf, invert);
    }

    /// Applies the bit-reversal permutation in place (the permutation is
    /// an involution, so swapping `i < rev[i]` pairs realizes it).
    fn permute_in_place(&self, buf: &mut [Complex]) {
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    #[inline]
    fn scale_inverse(&self, buf: &mut [Complex]) {
        let scale = 1.0 / self.size as f64;
        for v in buf {
            *v = v.scale(scale);
        }
    }

    /// Forward DFT (no normalization).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `input.len() != size`.
    pub fn forward(&self, input: &[Complex]) -> Result<Vec<Complex>, DspError> {
        let mut out = vec![Complex::ZERO; self.size.min(input.len())];
        self.forward_into(input, &mut out)?;
        Ok(out)
    }

    /// Inverse DFT with `1/N` normalization (paper eq. 1).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `input.len() != size`.
    pub fn inverse(&self, input: &[Complex]) -> Result<Vec<Complex>, DspError> {
        let mut out = vec![Complex::ZERO; self.size.min(input.len())];
        self.inverse_into(input, &mut out)?;
        Ok(out)
    }

    /// Forward DFT into a caller-provided buffer: zero allocations,
    /// bitwise identical to [`Fft::forward`].
    ///
    /// `input` and `out` must both have the planned size.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if either slice has the
    /// wrong length.
    pub fn forward_into(&self, input: &[Complex], out: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(input.len())?;
        self.check_len(out.len())?;
        for (o, &r) in out.iter_mut().zip(&self.rev) {
            *o = input[r as usize];
        }
        self.butterflies(out, false);
        Ok(())
    }

    /// Inverse DFT into a caller-provided buffer: zero allocations,
    /// bitwise identical to [`Fft::inverse`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if either slice has the
    /// wrong length.
    pub fn inverse_into(&self, input: &[Complex], out: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(input.len())?;
        self.check_len(out.len())?;
        for (o, &r) in out.iter_mut().zip(&self.rev) {
            *o = input[r as usize];
        }
        self.butterflies(out, true);
        self.scale_inverse(out);
        Ok(())
    }

    /// Forward DFT of a buffer, in place (no copy at all).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `buf.len() != size`.
    pub fn forward_in_place(&self, buf: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(buf.len())?;
        self.permute_in_place(buf);
        self.butterflies(buf, false);
        Ok(())
    }

    /// Inverse DFT of a buffer, in place, with `1/N` normalization.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `buf.len() != size`.
    pub fn inverse_in_place(&self, buf: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(buf.len())?;
        self.permute_in_place(buf);
        self.butterflies(buf, true);
        self.scale_inverse(buf);
        Ok(())
    }

    /// Inverse DFT, in place, of a spectrum stored in bit-reversed
    /// order: slot [`Fft::bit_reversed`]`(k)` holds bin `k`. The output
    /// is in natural order and bitwise identical to
    /// [`Fft::inverse_in_place`] on the naturally ordered spectrum; the
    /// permutation is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `buf.len() != size`.
    pub fn inverse_bit_reversed_in_place(&self, buf: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(buf.len())?;
        self.butterflies(buf, true);
        self.scale_inverse(buf);
        Ok(())
    }

    /// Forward DFT of a real signal (zero imaginary parts are implied).
    ///
    /// Bitwise identical to [`Fft::forward`] on the widened input.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `input.len() != size`.
    pub fn forward_real(&self, input: &[f64]) -> Result<Vec<Complex>, DspError> {
        let mut out = vec![Complex::ZERO; self.size.min(input.len())];
        self.forward_real_into(input, &mut out)?;
        Ok(out)
    }

    /// Forward DFT of a real signal into a caller-provided buffer: the
    /// widening to complex happens during the bit-reversal copy, so no
    /// intermediate complex buffer is ever materialized.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if either slice has the
    /// wrong length.
    pub fn forward_real_into(&self, input: &[f64], out: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(input.len())?;
        self.check_len(out.len())?;
        for (o, &r) in out.iter_mut().zip(&self.rev) {
            *o = Complex::from_re(input[r as usize]);
        }
        self.butterflies(out, false);
        Ok(())
    }
}

/// Direct (O(N²)) DFT, used as a test oracle for the FFT.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|t| {
                    input[t] * Complex::cis(-2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64)
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    fn assert_bitwise(a: &[Complex], b: &[Complex]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "bit mismatch at {i}: {x} vs {y}"
            );
        }
    }

    /// The seed repository's transform, with the seed's bit-reversal
    /// and twiddle tables, kept as the bitwise oracle for every entry
    /// point and both back-ends.
    fn seed_transform(input: &[Complex], invert: bool) -> Vec<Complex> {
        let n = input.len();
        let bits = n.trailing_zeros();
        let rev: Vec<usize> = (0..n)
            .map(|i| i.reverse_bits() >> (usize::BITS - bits))
            .collect();
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let mut buf: Vec<Complex> = (0..n).map(|i| input[rev[i]]).collect();
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = twiddles[k * step];
                    if invert {
                        w = w.conj();
                    }
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
        if invert {
            let scale = 1.0 / n as f64;
            for v in &mut buf {
                *v = v.scale(scale);
            }
        }
        buf
    }

    /// The scalar back-end called directly, with the entry points'
    /// permutation and scaling: on AVX hosts the entry points run the
    /// AVX back-end from eight points up.
    fn scalar_transform(fft: &Fft, input: &[Complex], invert: bool) -> Vec<Complex> {
        let mut buf: Vec<Complex> = fft.rev.iter().map(|&r| input[r as usize]).collect();
        scalar::stages(fft, &mut buf, invert);
        if invert {
            fft.scale_inverse(&mut buf);
        }
        buf
    }

    /// The splitmix64 generator: test inputs without a dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value of one kind the kernels must carry bit for bit: 0 signed
    /// zeros, 1 subnormals, 2 magnitudes near 1e300 (small enough that
    /// no sum over 8 192 points overflows), 3 ordinary values.
    fn special_value(bits: u64, kind: u64) -> f64 {
        let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        sign * match kind {
            0 => 0.0,
            1 => f64::from_bits((bits >> 12).max(1)),
            2 => 1e300 * (0.5 + unit),
            _ => 4.0 * unit - 2.0,
        }
    }

    /// `n` random values of one kind, or of all kinds mixed for `None`.
    fn special_signal(n: usize, state: &mut u64, kind: Option<u64>) -> Vec<Complex> {
        let mut value = || {
            let bits = splitmix(state);
            special_value(bits, kind.unwrap_or(bits >> 1 & 3))
        };
        (0..n).map(|_| Complex::new(value(), value())).collect()
    }

    /// Every power-of-two size up to 8 192: odd and even stage counts,
    /// so schedules with and without a lone last stage, on both sides
    /// of the AVX back-end's eight-point minimum.
    fn sizes() -> impl Iterator<Item = usize> {
        (1..=13).map(|bits| 1usize << bits)
    }

    /// Ordinary, mixed special and single-kind special inputs.
    fn inputs(n: usize) -> Vec<Vec<Complex>> {
        let mut state = n as u64;
        let mut inputs = vec![noisy_signal(n), special_signal(n, &mut state, None)];
        inputs.extend((0..4).map(|kind| special_signal(n, &mut state, Some(kind))));
        inputs
    }

    fn noisy_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                Complex::new(
                    (i as f64 * 0.37).sin() + 0.2 * (i as f64 * 1.1).cos(),
                    (i as f64 * 0.91).cos(),
                )
            })
            .collect()
    }

    #[test]
    fn twiddle_tables_are_prefixes_of_longer_ones() {
        let longest = twiddle_table(8_192);
        for n in sizes() {
            let table = twiddle_table(n);
            assert_eq!(table.len(), n - 1);
            for (a, b) in table.iter().zip(longest.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{n}-point table");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{n}-point table");
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(Fft::new(0), Err(DspError::InvalidFftSize(0))));
        assert!(matches!(Fft::new(1), Err(DspError::InvalidFftSize(1))));
        assert!(matches!(Fft::new(12), Err(DspError::InvalidFftSize(12))));
        assert!(Fft::new(256).is_ok());
        #[cfg(target_pointer_width = "64")]
        assert!(matches!(
            Fft::new(1 << 32),
            Err(DspError::InvalidFftSize(0x1_0000_0000))
        ));
    }

    #[test]
    fn rejects_wrong_length_input() {
        let fft = Fft::new(8).unwrap();
        let short = vec![Complex::ZERO; 4];
        assert!(matches!(
            fft.forward(&short),
            Err(DspError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        ));
        let mut out = vec![Complex::ZERO; 8];
        assert!(fft.forward_into(&short, &mut out).is_err());
        let mut short_out = vec![Complex::ZERO; 4];
        let x = vec![Complex::ZERO; 8];
        assert!(fft.forward_into(&x, &mut short_out).is_err());
        assert!(fft.forward_in_place(&mut short_out).is_err());
        assert!(fft.inverse_in_place(&mut short_out).is_err());
    }

    #[test]
    fn matches_naive_dft() {
        let n = 64;
        let x = noisy_signal(n);
        let fft = Fft::new(n).unwrap();
        assert_close(&fft.forward(&x).unwrap(), &dft_naive(&x), 1e-9);
    }

    #[test]
    fn all_entry_points_are_bitwise_identical_to_the_seed_path() {
        for n in sizes() {
            let fft = Fft::new(n).unwrap();
            for x in inputs(n) {
                for invert in [false, true] {
                    let seed = seed_transform(&x, invert);
                    let alloc = if invert {
                        fft.inverse(&x).unwrap()
                    } else {
                        fft.forward(&x).unwrap()
                    };
                    assert_bitwise(&alloc, &seed);

                    let mut into = vec![Complex::ZERO; n];
                    if invert {
                        fft.inverse_into(&x, &mut into).unwrap()
                    } else {
                        fft.forward_into(&x, &mut into).unwrap()
                    };
                    assert_bitwise(&into, &seed);

                    let mut in_place = x.clone();
                    if invert {
                        fft.inverse_in_place(&mut in_place).unwrap()
                    } else {
                        fft.forward_in_place(&mut in_place).unwrap()
                    };
                    assert_bitwise(&in_place, &seed);
                }

                let mut reversed = vec![Complex::ZERO; n];
                for (k, &v) in x.iter().enumerate() {
                    reversed[fft.bit_reversed(k)] = v;
                }
                fft.inverse_bit_reversed_in_place(&mut reversed).unwrap();
                assert_bitwise(&reversed, &seed_transform(&x, true));
            }
        }
    }

    #[test]
    fn scalar_back_end_is_bitwise_identical_to_the_seed_path() {
        for n in sizes() {
            let fft = Fft::new(n).unwrap();
            for x in inputs(n) {
                for invert in [false, true] {
                    assert_bitwise(
                        &scalar_transform(&fft, &x, invert),
                        &seed_transform(&x, invert),
                    );
                }
            }
        }
    }

    #[test]
    #[ignore = "10^4 random transforms per size, release mode: cargo test --release -p wearlock-dsp -- --ignored fft_random"]
    fn fft_random_transforms_on_both_back_ends_match_the_seed_path() {
        let mut state = 0x5EED;
        for n in sizes() {
            let fft = Fft::new(n).unwrap();
            let mut out = vec![Complex::ZERO; n];
            for i in 0..10_000 {
                let x = special_signal(n, &mut state, None);
                let invert = i % 2 == 1;
                let seed = seed_transform(&x, invert);
                assert_bitwise(&scalar_transform(&fft, &x, invert), &seed);
                if invert {
                    for (k, &v) in x.iter().enumerate() {
                        out[fft.bit_reversed(k)] = v;
                    }
                    fft.inverse_bit_reversed_in_place(&mut out).unwrap();
                } else {
                    fft.forward_into(&x, &mut out).unwrap();
                }
                assert_bitwise(&out, &seed);
            }
        }
    }

    #[test]
    fn forward_real_into_is_bitwise_identical_to_widened_forward() {
        for n in sizes() {
            let fft = Fft::new(n).unwrap();
            for x in inputs(n) {
                let xr: Vec<f64> = x.iter().map(|z| z.re).collect();
                let xc: Vec<Complex> = xr.iter().map(|&v| Complex::from_re(v)).collect();
                let seed = seed_transform(&xc, false);
                let mut out = vec![Complex::ZERO; n];
                fft.forward_real_into(&xr, &mut out).unwrap();
                assert_bitwise(&out, &seed);
                assert_bitwise(&fft.forward_real(&xr).unwrap(), &seed);
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let fft = Fft::new(16).unwrap();
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        let spec = fft.forward(&x).unwrap();
        for z in spec {
            assert!((z - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 256;
        let k0 = 19;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64))
            .collect();
        let fft = Fft::new(n).unwrap();
        let spec = fft.forward(&x).unwrap();
        for (k, z) in spec.iter().enumerate() {
            if k == k0 {
                assert!((z.abs() - n as f64).abs() < 1e-6);
            } else {
                assert!(z.abs() < 1e-6, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 128;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let fft = Fft::new(n).unwrap();
        let back = fft.inverse(&fft.forward(&x).unwrap()).unwrap();
        assert_close(&x, &back, 1e-9);
    }

    #[test]
    fn in_place_roundtrip() {
        let n = 64;
        let x = noisy_signal(n);
        let fft = Fft::new(n).unwrap();
        let mut buf = x.clone();
        fft.forward_in_place(&mut buf).unwrap();
        fft.inverse_in_place(&mut buf).unwrap();
        assert_close(&x, &buf, 1e-9);
    }

    #[test]
    fn parseval_energy_conserved() {
        let n = 64;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 2.1).sin(), 0.3 * (i as f64).cos()))
            .collect();
        let fft = Fft::new(n).unwrap();
        let spec = fft.forward(&x).unwrap();
        let et: f64 = x.iter().map(|z| z.norm_sq()).sum();
        let ef: f64 = spec.iter().map(|z| z.norm_sq()).sum::<f64>() / n as f64;
        assert!((et - ef).abs() < 1e-9 * et.max(1.0));
    }

    #[test]
    fn forward_real_matches_complex_path() {
        let n = 32;
        let xr: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let xc: Vec<Complex> = xr.iter().map(|&v| Complex::from_re(v)).collect();
        let fft = Fft::new(n).unwrap();
        assert_close(
            &fft.forward_real(&xr).unwrap(),
            &fft.forward(&xc).unwrap(),
            1e-12,
        );
    }
}
