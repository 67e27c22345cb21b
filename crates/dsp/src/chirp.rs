//! Linear frequency-modulated (LFM / chirp) signal generation.
//!
//! WearLock's preamble is a chirp sweeping `f_min → f_max` over `T_p`
//! (paper §III.3): chirps have strong autocorrelation, are
//! Doppler-insensitive, and can be detected by matched filtering even at
//! low SNR.

use crate::error::DspError;
use crate::units::{Hz, SampleRate};
use crate::window::apply_fade;

/// The raised-cosine fade on each end of a chirp is `1 / FADE_DIVISOR`
/// of its length, mitigating speaker rise and ringing.
const FADE_DIVISOR: usize = 16;

/// A linear chirp specification.
///
/// # Examples
///
/// ```
/// use wearlock_dsp::chirp::Chirp;
/// use wearlock_dsp::units::{Hz, SampleRate};
///
/// let c = Chirp::new(Hz(1_000.0), Hz(6_000.0), 256, SampleRate::CD)?;
/// let samples = c.generate();
/// assert_eq!(samples.len(), 256);
/// assert!(samples.iter().all(|s| s.abs() <= 1.0));
/// # Ok::<(), wearlock_dsp::DspError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Chirp {
    f_start: Hz,
    f_end: Hz,
    len: usize,
    sample_rate: SampleRate,
}

impl Chirp {
    /// Creates a chirp sweeping `f_start → f_end` over `len` samples.
    ///
    /// A small raised-cosine fade (1/16 of the length) is applied to both
    /// ends to mitigate speaker rise/ringing.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `len == 0`, any
    /// frequency is non-positive, or either frequency exceeds Nyquist.
    pub fn new(
        f_start: Hz,
        f_end: Hz,
        len: usize,
        sample_rate: SampleRate,
    ) -> Result<Self, DspError> {
        if len == 0 {
            return Err(DspError::InvalidParameter(
                "chirp length must be >= 1".into(),
            ));
        }
        for f in [f_start, f_end] {
            if f.value() <= 0.0 {
                return Err(DspError::InvalidParameter(format!(
                    "chirp frequency {f} must be positive"
                )));
            }
            if f.value() > sample_rate.nyquist().value() {
                return Err(DspError::InvalidParameter(format!(
                    "chirp frequency {f} exceeds nyquist {}",
                    sample_rate.nyquist()
                )));
            }
        }
        Ok(Chirp {
            f_start,
            f_end,
            len,
            sample_rate,
        })
    }

    /// Start frequency.
    pub fn f_start(&self) -> Hz {
        self.f_start
    }

    /// End frequency.
    pub fn f_end(&self) -> Hz {
        self.f_end
    }

    /// Length in samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chirp has zero length (never true for constructed
    /// values; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sample rate the chirp is generated at.
    pub fn sample_rate(&self) -> SampleRate {
        self.sample_rate
    }

    /// Generates the chirp samples with unit peak amplitude.
    ///
    /// Phase is `φ(t) = 2π·(f0·t + (k/2)·t²)` with
    /// `k = (f1 − f0) / T`, the standard linear-FM law.
    pub fn generate(&self) -> Vec<f64> {
        let fs = self.sample_rate.value();
        let t_total = self.len as f64 / fs;
        let f0 = self.f_start.value();
        let k = (self.f_end.value() - f0) / t_total;
        let mut out: Vec<f64> = (0..self.len)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * std::f64::consts::PI * (f0 * t + 0.5 * k * t * t)).sin()
            })
            .collect();
        apply_fade(&mut out, self.len / FADE_DIVISOR);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Fft;
    use crate::Complex;

    #[test]
    fn rejects_bad_parameters() {
        let sr = SampleRate::CD;
        assert!(Chirp::new(Hz(100.0), Hz(200.0), 0, sr).is_err());
        assert!(Chirp::new(Hz(0.0), Hz(200.0), 64, sr).is_err());
        assert!(Chirp::new(Hz(100.0), Hz(-5.0), 64, sr).is_err());
        assert!(Chirp::new(Hz(100.0), Hz(30_000.0), 64, sr).is_err());
    }

    #[test]
    fn amplitude_bounded_by_one() {
        let c = Chirp::new(Hz(1_000.0), Hz(6_000.0), 512, SampleRate::CD).unwrap();
        assert!(c.generate().iter().all(|s| s.abs() <= 1.0 + 1e-12));
    }

    #[test]
    fn energy_concentrates_in_swept_band() {
        // 15k-20k chirp at 44.1kHz: most energy must sit in bins covering
        // 15-20 kHz, little below 10 kHz.
        let n = 4096;
        let c = Chirp::new(Hz(15_000.0), Hz(20_000.0), n, SampleRate::CD).unwrap();
        let s = c.generate();
        let fft = Fft::new(n).unwrap();
        let spec = fft.forward_real(&s).unwrap();
        let bin_hz = 44_100.0 / n as f64;
        let band_energy: f64 = spec[..n / 2]
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                let f = *k as f64 * bin_hz;
                (14_500.0..=20_500.0).contains(&f)
            })
            .map(|(_, z): (usize, &Complex)| z.norm_sq())
            .sum();
        let low_energy: f64 = spec[..n / 2]
            .iter()
            .enumerate()
            .filter(|(k, _)| (*k as f64 * bin_hz) < 10_000.0)
            .map(|(_, z)| z.norm_sq())
            .sum();
        assert!(
            band_energy > 20.0 * low_energy,
            "band {band_energy} low {low_energy}"
        );
    }

    #[test]
    fn autocorrelation_peaks_at_zero_lag() {
        let c = Chirp::new(Hz(1_000.0), Hz(6_000.0), 256, SampleRate::CD).unwrap();
        let s = c.generate();
        let zero_lag: f64 = s.iter().map(|x| x * x).sum();
        // Correlate at lags beyond a few carrier cycles and check
        // they're well below the zero-lag peak (small lags still
        // correlate through the carrier phase, which matched filtering
        // tolerates).
        for lag in [33usize, 63, 120] {
            let r: f64 = s[..s.len() - lag]
                .iter()
                .zip(&s[lag..])
                .map(|(a, b)| a * b)
                .sum();
            assert!(
                r.abs() < 0.35 * zero_lag,
                "lag {lag}: {r} vs peak {zero_lag}"
            );
        }
    }

    #[test]
    fn downward_chirp_also_valid() {
        let c = Chirp::new(Hz(6_000.0), Hz(1_000.0), 256, SampleRate::CD).unwrap();
        assert_eq!(c.generate().len(), 256);
    }

    #[test]
    fn fade_zeroes_first_sample() {
        let c = Chirp::new(Hz(2_000.0), Hz(4_000.0), 256, SampleRate::CD).unwrap();
        let s = c.generate();
        assert!(s[0].abs() < 1e-9);
    }
}
