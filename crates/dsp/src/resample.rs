//! Fractional delay and resampling via linear interpolation.
//!
//! The acoustic channel simulator uses these to model propagation delay
//! (non-integer sample offsets at 44.1 kHz for centimetre-scale distance
//! changes) and sample-clock skew between two independent devices.

use crate::error::DspError;
use crate::LANES;

/// Samples `signal` at position `pos` (fractional index) with linear
/// interpolation; positions outside the signal return `0.0`.
#[inline]
pub fn sample_at(signal: &[f64], pos: f64) -> f64 {
    if !pos.is_finite() || pos < 0.0 {
        return 0.0;
    }
    let i = pos.floor() as usize;
    if i + 1 >= signal.len() {
        return if i < signal.len() { signal[i] } else { 0.0 };
    }
    let frac = pos - i as f64;
    signal[i] * (1.0 - frac) + signal[i + 1] * frac
}

/// Taps of the windowed-sinc interpolator: position `i0 + frac` reads
/// input samples `i0 − 15 ..= i0 + 16`.
const SINC_TAPS: usize = 32;
/// Taps before `i0`.
const SINC_LEAD: usize = 15;

/// The Hann-windowed sinc weights for one fractional offset `frac`,
/// memoized on its exact bit pattern.
///
/// `n − delay` rounds differently in each binade of `n`, so `frac`
/// takes a few distinct values within one call (about `log2(len)`);
/// keying on the bits keeps every weight exactly what a fresh
/// evaluation would give.
struct SincWeights {
    frac_bits: u64,
    sinc: [f64; SINC_TAPS],
    window: [f64; SINC_TAPS],
}

impl SincWeights {
    fn new() -> Self {
        SincWeights {
            // A NaN pattern: never the bits of a fractional part.
            frac_bits: u64::MAX,
            sinc: [0.0; SINC_TAPS],
            window: [0.0; SINC_TAPS],
        }
    }

    fn update(&mut self, frac: f64) {
        if frac.to_bits() == self.frac_bits {
            return;
        }
        self.frac_bits = frac.to_bits();
        for (k, (s, w)) in self.sinc.iter_mut().zip(&mut self.window).enumerate() {
            let x = (k as isize - SINC_LEAD as isize) as f64 - frac;
            *s = (std::f64::consts::PI * x).sin() / (std::f64::consts::PI * x);
            // Hann window over the 32-tap support.
            *w = (0.5 + 0.5 * (std::f64::consts::PI * x / 16.0).cos()).max(0.0);
        }
    }

    /// Interpolates `signal` at `pos`: zero before the signal, the
    /// input sample itself at an integer position, otherwise the
    /// windowed-sinc sum over the taps inside the signal, in tap order.
    fn sample(&mut self, signal: &[f64], pos: f64) -> f64 {
        if pos < 0.0 {
            return 0.0;
        }
        let (i0, frac) = split(pos);
        if frac == 0.0 {
            return signal.get(i0 as usize).copied().unwrap_or(0.0);
        }
        self.update(frac);
        let mut acc = 0.0;
        for (k, (&s, &w)) in self.sinc.iter().zip(&self.window).enumerate() {
            let idx = i0 + k as isize - SINC_LEAD as isize;
            if idx >= 0 && (idx as usize) < signal.len() {
                acc += signal[idx as usize] * s * w;
            }
        }
        acc
    }
}

/// Splits a non-negative position into its integer and fractional parts.
fn split(pos: f64) -> (isize, f64) {
    let i0 = pos.floor() as isize;
    (i0, pos - i0 as f64)
}

/// Delays a signal by a (possibly fractional) number of samples,
/// zero-padding the front. Output length is `signal.len() + ceil(delay)`;
/// a negative delay counts as zero.
///
/// Output `n` is the input sampled at `n − delay` with a 32-tap
/// Hann-windowed sinc kernel — spectrally flat, so a 20 kHz component
/// is delayed, not attenuated (linear interpolation notches up to
/// ~11 dB near Nyquist, fatal for the 15–20 kHz near-ultrasound band).
/// Integer positions copy the input sample exactly. Eight consecutive
/// outputs that share a fractional part are computed together, each
/// summing its taps in order, so the result is bit-for-bit that of one
/// interpolation per output.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `delay` is not finite or
/// the output length overflows `usize`.
///
/// # Examples
///
/// ```
/// use wearlock_dsp::resample::fractional_delay;
/// let s = vec![1.0, 0.0, 0.0];
/// let d = fractional_delay(&s, 1.0)?;
/// assert_eq!(d.len(), 4);
/// assert!((d[1] - 1.0).abs() < 1e-12); // integer delays are exact
/// # Ok::<(), wearlock_dsp::DspError>(())
/// ```
pub fn fractional_delay(signal: &[f64], delay: f64) -> Result<Vec<f64>, DspError> {
    if !delay.is_finite() {
        return Err(DspError::InvalidParameter(format!(
            "delay {delay} is not finite"
        )));
    }
    let delay = delay.max(0.0);
    let out_len = signal
        .len()
        .checked_add(delay.ceil() as usize)
        .ok_or_else(|| DspError::InvalidParameter(format!("delay {delay} too long")))?;
    let mut weights = SincWeights::new();
    let mut out = vec![0.0; out_len];
    let mut blocks = out.chunks_exact_mut(LANES);
    for (b, block) in (&mut blocks).enumerate() {
        let n0 = b * LANES;
        match interior_block(signal, n0, delay) {
            Some((i0, frac)) => {
                weights.update(frac);
                let mut acc = [0.0; LANES];
                let base = i0 as usize - SINC_LEAD;
                for (t, (&s, &w)) in weights.sinc.iter().zip(&weights.window).enumerate() {
                    let x: &[f64; LANES] = signal[base + t..base + t + LANES]
                        .try_into()
                        .expect("a LANES-long window");
                    for (a, &x) in acc.iter_mut().zip(x) {
                        *a += x * s * w;
                    }
                }
                block.copy_from_slice(&acc);
            }
            None => {
                for (k, o) in block.iter_mut().enumerate() {
                    *o = weights.sample(signal, (n0 + k) as f64 - delay);
                }
            }
        }
    }
    let rest = blocks.into_remainder();
    let n0 = out_len - rest.len();
    for (k, o) in rest.iter_mut().enumerate() {
        *o = weights.sample(signal, (n0 + k) as f64 - delay);
    }
    Ok(out)
}

/// For outputs `n0 .. n0 + LANES` that all sit at `i0 + k + frac` with
/// one non-zero `frac` and whose taps all lie inside the signal, returns
/// `(i0, frac)`.
fn interior_block(signal: &[f64], n0: usize, delay: f64) -> Option<(isize, f64)> {
    let pos = n0 as f64 - delay;
    if pos < 0.0 {
        return None;
    }
    let (i0, frac) = split(pos);
    let fits =
        i0 >= SINC_LEAD as isize && i0 as usize + LANES + SINC_TAPS - SINC_LEAD - 1 <= signal.len();
    if frac == 0.0 || !fits {
        return None;
    }
    (1..LANES)
        .all(|k| {
            let (ik, fk) = split((n0 + k) as f64 - delay);
            ik == i0 + k as isize && fk.to_bits() == frac.to_bits()
        })
        .then_some((i0, frac))
}

/// Resamples a signal by `ratio` (output rate / input rate) with linear
/// interpolation. A `ratio` slightly off 1.0 models sample-clock skew
/// between transmitter and receiver.
///
/// Returns an empty vector for an empty input or non-positive ratio.
pub fn resample(signal: &[f64], ratio: f64) -> Vec<f64> {
    if signal.is_empty() || ratio <= 0.0 || ratio.is_nan() {
        return Vec::new();
    }
    let out_len = ((signal.len() as f64) * ratio).round() as usize;
    (0..out_len)
        .map(|n| sample_at(signal, n as f64 / ratio))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The direct per-output windowed-sinc interpolator that
    /// [`fractional_delay`] must match bit for bit.
    fn sample_at_sinc_reference(signal: &[f64], pos: f64) -> f64 {
        if !pos.is_finite() || pos < 0.0 || signal.is_empty() {
            return 0.0;
        }
        let i0 = pos.floor() as isize;
        let frac = pos - i0 as f64;
        if frac == 0.0 {
            let i = i0 as usize;
            return if i < signal.len() { signal[i] } else { 0.0 };
        }
        let mut acc = 0.0;
        for t in -15isize..=16 {
            let idx = i0 + t;
            if idx < 0 || idx as usize >= signal.len() {
                continue;
            }
            let x = t as f64 - frac;
            let sinc = (std::f64::consts::PI * x).sin() / (std::f64::consts::PI * x);
            let w = 0.5 + 0.5 * (std::f64::consts::PI * x / 16.0).cos();
            acc += signal[idx as usize] * sinc * w.max(0.0);
        }
        acc
    }

    fn fractional_delay_reference(signal: &[f64], delay: f64) -> Vec<f64> {
        let delay = delay.max(0.0);
        let out_len = signal.len() + delay.ceil() as usize;
        (0..out_len)
            .map(|n| sample_at_sinc_reference(signal, n as f64 - delay))
            .collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "sample {i}: {x} vs {y}");
        }
    }

    /// Deterministic test signal mixing negative, zero and subnormal
    /// samples into a tone.
    fn mixed_signal(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| match i % 11 {
                3 => 0.0,
                5 => -0.0,
                7 => f64::MIN_POSITIVE / 3.0,
                9 => -f64::MIN_POSITIVE / 7.0,
                _ => (i as f64 * 0.37).sin() * if i % 2 == 0 { 1.0 } else { -2.5 },
            })
            .collect()
    }

    #[test]
    fn fractional_delay_is_bitwise_the_reference() {
        // Delays whose fractional part is rounded differently in each
        // binade of n (64.29...: the 0.5 m link), plus integer, tiny,
        // half-sample and long delays.
        let delays = [
            0.0,
            1e-300,
            0.5,
            3.0,
            7.25,
            64.285_714_285_714_29,
            0.5 / 343.0 * 44_100.0,
            1.3 / 343.0 * 44_100.0,
            123.456_789,
            1_000.1,
        ];
        for len in [0, 1, 2, 7, 8, 9, 31, 33, 100, 1_000, 5_000] {
            let sig = mixed_signal(len);
            for &d in &delays {
                assert_bits_eq(
                    &fractional_delay(&sig, d).unwrap(),
                    &fractional_delay_reference(&sig, d),
                );
            }
        }
    }

    #[test]
    fn fractional_delay_rejects_non_finite_delay() {
        let s = vec![1.0, 2.0];
        for d in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(matches!(
                fractional_delay(&s, d),
                Err(DspError::InvalidParameter(_))
            ));
        }
        assert!(fractional_delay(&s, 1e300).is_err());
    }

    #[test]
    fn integer_delay_shifts_exactly() {
        let s = vec![1.0, 2.0, 3.0];
        let d = fractional_delay(&s, 2.0).unwrap();
        assert_eq!(d, vec![0.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn fractional_delay_is_spectrally_flat_at_high_frequency() {
        // An 18 kHz tone delayed by half a sample must keep its
        // amplitude (linear interpolation would cut it to ~0.3).
        let f = 18_000.0;
        let s: Vec<f64> = (0..4096)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / 44_100.0).sin())
            .collect();
        let d = fractional_delay(&s, 10.5).unwrap();
        let rms_in = (s.iter().map(|x| x * x).sum::<f64>() / s.len() as f64).sqrt();
        let body = &d[64..d.len() - 64];
        let rms_out = (body.iter().map(|x| x * x).sum::<f64>() / body.len() as f64).sqrt();
        assert!(
            (rms_out / rms_in - 1.0).abs() < 0.05,
            "gain {}",
            rms_out / rms_in
        );
    }

    #[test]
    fn zero_delay_is_identity() {
        let s = vec![0.5, -0.25, 0.125];
        assert_eq!(fractional_delay(&s, 0.0).unwrap(), s);
    }

    #[test]
    fn negative_delay_clamped_to_zero() {
        let s = vec![1.0, 2.0];
        assert_eq!(fractional_delay(&s, -3.0).unwrap(), s);
    }

    #[test]
    fn sample_at_edges() {
        let s = vec![1.0, 3.0];
        assert_eq!(sample_at(&s, 0.0), 1.0);
        assert_eq!(sample_at(&s, 0.5), 2.0);
        assert_eq!(sample_at(&s, 1.0), 3.0);
        assert_eq!(sample_at(&s, 5.0), 0.0);
        assert_eq!(sample_at(&s, -1.0), 0.0);
        assert_eq!(sample_at(&s, f64::NAN), 0.0);
    }

    #[test]
    fn unit_ratio_resample_preserves_signal() {
        let s: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin()).collect();
        let r = resample(&s, 1.0);
        assert_eq!(r.len(), 100);
        for (a, b) in s.iter().zip(&r) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn upsample_doubles_length() {
        let s = vec![0.0, 1.0, 0.0, -1.0];
        let r = resample(&s, 2.0);
        assert_eq!(r.len(), 8);
        assert!((r[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slight_skew_preserves_tone_frequency_approximately() {
        let f = 1_000.0;
        let s: Vec<f64> = (0..4410)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / 44_100.0).sin())
            .collect();
        // 100 ppm clock skew.
        let r = resample(&s, 1.0001);
        assert!((r.len() as f64 - 4410.0 * 1.0001).abs() < 1.5);
    }

    #[test]
    fn degenerate_resample_inputs() {
        assert!(resample(&[], 2.0).is_empty());
        assert!(resample(&[1.0], 0.0).is_empty());
        assert!(resample(&[1.0], f64::NAN).is_empty());
    }
}
