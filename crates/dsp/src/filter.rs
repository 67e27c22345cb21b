//! FIR filter design and application.
//!
//! Used by the acoustic channel simulator to model device band-limits —
//! most importantly the Moto 360's mandatory built-in low-pass around
//! 7 kHz that forced the paper onto the audible 1–6 kHz band for
//! phone–watch pairs (§III.2).

use crate::error::DspError;
use crate::units::{Hz, SampleRate};
use crate::window::WindowKind;

/// A finite impulse response filter.
///
/// # Examples
///
/// ```
/// use wearlock_dsp::filter::Fir;
/// use wearlock_dsp::units::{Hz, SampleRate};
///
/// let lpf = Fir::low_pass(Hz(7_000.0), 101, SampleRate::CD)?;
/// let signal = vec![1.0; 512];
/// let out = lpf.apply(&signal);
/// assert_eq!(out.len(), 512);
/// # Ok::<(), wearlock_dsp::DspError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Builds a filter from raw taps.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `taps` is empty.
    pub fn from_taps(taps: Vec<f64>) -> Result<Self, DspError> {
        if taps.is_empty() {
            return Err(DspError::EmptyInput);
        }
        Ok(Fir { taps })
    }

    /// Designs a windowed-sinc low-pass filter with cutoff `cutoff` and
    /// `num_taps` taps (Hamming window), normalized to unit DC gain.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `num_taps` is 0/even or
    /// the cutoff is outside `(0, Nyquist)`.
    pub fn low_pass(
        cutoff: Hz,
        num_taps: usize,
        sample_rate: SampleRate,
    ) -> Result<Self, DspError> {
        if num_taps == 0 || num_taps.is_multiple_of(2) {
            return Err(DspError::InvalidParameter(
                "fir tap count must be odd and >= 1".into(),
            ));
        }
        let fc = cutoff.value() / sample_rate.value();
        if fc <= 0.0 || fc >= 0.5 {
            return Err(DspError::InvalidParameter(format!(
                "cutoff {cutoff} outside (0, nyquist)"
            )));
        }
        let mid = (num_taps / 2) as isize;
        let win = WindowKind::Hamming.coefficients(num_taps);
        let mut taps: Vec<f64> = (0..num_taps as isize)
            .map(|i| {
                let n = (i - mid) as f64;
                let sinc = if n == 0.0 {
                    2.0 * fc
                } else {
                    (2.0 * std::f64::consts::PI * fc * n).sin() / (std::f64::consts::PI * n)
                };
                sinc * win[i as usize]
            })
            .collect();
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Ok(Fir { taps })
    }

    /// Designs a band-pass filter passing `low..high` by spectral
    /// subtraction of two low-pass designs.
    ///
    /// # Errors
    ///
    /// Propagates the [`Fir::low_pass`] errors and requires `low < high`.
    pub fn band_pass(
        low: Hz,
        high: Hz,
        num_taps: usize,
        sample_rate: SampleRate,
    ) -> Result<Self, DspError> {
        if low.value() >= high.value() {
            return Err(DspError::InvalidParameter(format!(
                "band-pass requires low {low} < high {high}"
            )));
        }
        let lp_high = Fir::low_pass(high, num_taps, sample_rate)?;
        let lp_low = Fir::low_pass(low, num_taps, sample_rate)?;
        let taps = lp_high
            .taps
            .iter()
            .zip(&lp_low.taps)
            .map(|(h, l)| h - l)
            .collect();
        Ok(Fir { taps })
    }

    /// The filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Applies the filter with zero-padding at the edges and compensates
    /// the group delay, so the output is time-aligned with the input and
    /// has the same length.
    ///
    /// Output `i` is `Σ taps[j] · signal[i + m/2 − j]` summed in
    /// ascending `j` over the taps whose input index lies inside the
    /// signal: the direct form, one output at a time.
    pub fn apply(&self, signal: &[f64]) -> Vec<f64> {
        let delay = self.taps.len() / 2;
        let n = signal.len();
        (0..n)
            .map(|i| {
                // Input index i + delay − j must lie in 0..n.
                let lo = (i + delay + 1).saturating_sub(n);
                let hi = (i + delay + 1).min(self.taps.len());
                (lo..hi).fold(0.0, |acc, j| acc + self.taps[j] * signal[i + delay - j])
            })
            .collect()
    }

    /// Magnitude response at frequency `f` (linear amplitude gain).
    pub fn gain_at(&self, f: Hz, sample_rate: SampleRate) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f.value() / sample_rate.value();
        let (mut re, mut im) = (0.0, 0.0);
        for (n, &t) in self.taps.iter().enumerate() {
            re += t * (w * n as f64).cos();
            im -= t * (w * n as f64).sin();
        }
        re.hypot(im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / 44_100.0).sin())
            .collect()
    }

    fn band_power(signal: &[f64], skip: usize) -> f64 {
        let body = &signal[skip..signal.len() - skip];
        body.iter().map(|x| x * x).sum::<f64>() / body.len() as f64
    }

    #[test]
    fn design_rejects_bad_params() {
        let sr = SampleRate::CD;
        assert!(Fir::low_pass(Hz(7_000.0), 0, sr).is_err());
        assert!(Fir::low_pass(Hz(7_000.0), 100, sr).is_err()); // even
        assert!(Fir::low_pass(Hz(0.0), 101, sr).is_err());
        assert!(Fir::low_pass(Hz(23_000.0), 101, sr).is_err());
        assert!(Fir::band_pass(Hz(5_000.0), Hz(1_000.0), 101, sr).is_err());
        assert!(Fir::from_taps(vec![]).is_err());
    }

    #[test]
    fn low_pass_passes_low_blocks_high() {
        let lpf = Fir::low_pass(Hz(7_000.0), 101, SampleRate::CD).unwrap();
        let low = lpf.apply(&tone(2_000.0, 4096));
        let high = lpf.apply(&tone(18_000.0, 4096));
        let pl = band_power(&low, 128);
        let ph = band_power(&high, 128);
        assert!(pl > 0.4, "passband power {pl}");
        assert!(ph < 0.01 * pl, "stopband power {ph} vs {pl}");
    }

    #[test]
    fn unit_dc_gain() {
        let lpf = Fir::low_pass(Hz(5_000.0), 61, SampleRate::CD).unwrap();
        assert!((lpf.gain_at(Hz(1.0), SampleRate::CD) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn band_pass_selects_band() {
        let bpf = Fir::band_pass(Hz(2_000.0), Hz(6_000.0), 201, SampleRate::CD).unwrap();
        let inside = band_power(&bpf.apply(&tone(4_000.0, 4096)), 256);
        let below = band_power(&bpf.apply(&tone(500.0, 4096)), 256);
        let above = band_power(&bpf.apply(&tone(12_000.0, 4096)), 256);
        assert!(inside > 10.0 * below, "inside {inside} below {below}");
        assert!(inside > 10.0 * above, "inside {inside} above {above}");
    }

    #[test]
    fn apply_preserves_length_and_alignment() {
        let lpf = Fir::low_pass(Hz(6_000.0), 51, SampleRate::CD).unwrap();
        let sig = tone(1_000.0, 1000);
        let out = lpf.apply(&sig);
        assert_eq!(out.len(), 1000);
        // Group-delay compensated: peak positions of in/out roughly align.
        let in_peak = sig[100..200]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let out_peak = out[100..200]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!((in_peak as isize - out_peak as isize).abs() <= 2);
    }

    #[test]
    fn gain_monotone_through_transition() {
        let lpf = Fir::low_pass(Hz(7_000.0), 101, SampleRate::CD).unwrap();
        let g5 = lpf.gain_at(Hz(5_000.0), SampleRate::CD);
        let g9 = lpf.gain_at(Hz(9_000.0), SampleRate::CD);
        assert!(g5 > g9);
    }
}
