//! Short-time Fourier transform and average power spectra.
//!
//! Used for ambient-noise fingerprinting (Sound-Proof-style co-location
//! checks) and for noise-spectrum estimation windows.

use crate::cache::planned;
use crate::error::DspError;
use crate::window::WindowKind;

/// A power spectrogram: `frames × (fft_size/2)` one-sided bin powers.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    fft_size: usize,
    hop: usize,
    frames: Vec<Vec<f64>>,
}

impl Spectrogram {
    /// Computes the spectrogram of `signal` with the given FFT size,
    /// hop and analysis window.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFftSize`] for a bad FFT size,
    /// [`DspError::InvalidParameter`] for a zero hop, and
    /// [`DspError::EmptyInput`] when the signal is shorter than one
    /// frame.
    ///
    /// # Examples
    ///
    /// ```
    /// use wearlock_dsp::stft::Spectrogram;
    /// use wearlock_dsp::window::WindowKind;
    ///
    /// let tone: Vec<f64> = (0..2048)
    ///     .map(|i| (std::f64::consts::TAU * 1_722.0 * i as f64 / 44_100.0).sin())
    ///     .collect();
    /// let spec = Spectrogram::compute(&tone, 256, 128, WindowKind::Hann)?;
    /// // 1722 Hz = bin 10 at 44.1 kHz / 256.
    /// let avg = spec.average_power();
    /// let peak_bin = (0..avg.len()).max_by(|&a, &b| avg[a].total_cmp(&avg[b])).unwrap();
    /// assert_eq!(peak_bin, 10);
    /// # Ok::<(), wearlock_dsp::DspError>(())
    /// ```
    pub fn compute(
        signal: &[f64],
        fft_size: usize,
        hop: usize,
        window: WindowKind,
    ) -> Result<Self, DspError> {
        if hop == 0 {
            return Err(DspError::InvalidParameter("hop must be >= 1".into()));
        }
        let fft = planned(fft_size)?;
        if signal.len() < fft_size {
            return Err(DspError::EmptyInput);
        }
        let coeffs = window.coefficients(fft_size);
        let mut frames = Vec::new();
        let mut start = 0;
        while start + fft_size <= signal.len() {
            let seg: Vec<f64> = signal[start..start + fft_size]
                .iter()
                .zip(&coeffs)
                .map(|(s, w)| s * w)
                .collect();
            let spec = fft.forward_real(&seg)?;
            frames.push(spec[..fft_size / 2].iter().map(|z| z.norm_sq()).collect());
            start += hop;
        }
        Ok(Spectrogram {
            fft_size,
            hop,
            frames,
        })
    }

    /// Number of analysis frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of one-sided frequency bins per frame.
    pub fn num_bins(&self) -> usize {
        self.fft_size / 2
    }

    /// The hop between frames, samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// One frame's bin powers.
    pub fn frame(&self, i: usize) -> Option<&[f64]> {
        self.frames.get(i).map(|f| f.as_slice())
    }

    /// Mean power per bin across all frames.
    pub fn average_power(&self) -> Vec<f64> {
        let bins = self.num_bins();
        let mut avg = vec![0.0; bins];
        for f in &self.frames {
            for (a, &p) in avg.iter_mut().zip(f) {
                *a += p;
            }
        }
        let n = self.frames.len().max(1) as f64;
        for a in &mut avg {
            *a /= n;
        }
        avg
    }

    /// Median power per bin across frames — robust against transient
    /// bursts (keyboard clicks, dish clatter).
    pub fn median_power(&self) -> Vec<f64> {
        let bins = self.num_bins();
        let mut med = vec![0.0; bins];
        if self.frames.is_empty() {
            return med;
        }
        let mut col = vec![0.0; self.frames.len()];
        for (b, m) in med.iter_mut().enumerate() {
            for (i, f) in self.frames.iter().enumerate() {
                col[i] = f[b];
            }
            col.sort_by(f64::total_cmp);
            *m = col[col.len() / 2];
        }
        med
    }

    /// Log-power band summary: `bands` equal-width bands over the
    /// one-sided spectrum (the ambient "fingerprint" shape).
    pub fn band_log_power(&self, bands: usize) -> Vec<f64> {
        let avg = self.average_power();
        let bands = bands.max(1).min(avg.len());
        let per = avg.len() / bands;
        (0..bands)
            .map(|b| {
                let s: f64 = avg[b * per..(b + 1) * per].iter().sum();
                (s / per as f64).max(1e-30).log10()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / 44_100.0).sin())
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        let s = tone(1_000.0, 1_000);
        assert!(Spectrogram::compute(&s, 100, 128, WindowKind::Hann).is_err());
        assert!(Spectrogram::compute(&s, 256, 0, WindowKind::Hann).is_err());
        assert!(Spectrogram::compute(&s[..100], 256, 128, WindowKind::Hann).is_err());
    }

    #[test]
    fn frame_count_matches_hop() {
        let s = tone(1_000.0, 2_048);
        let spec = Spectrogram::compute(&s, 256, 128, WindowKind::Hann).unwrap();
        assert_eq!(spec.num_frames(), (2_048 - 256) / 128 + 1);
        assert_eq!(spec.num_bins(), 128);
        assert_eq!(spec.hop(), 128);
        assert!(spec.frame(0).is_some());
        assert!(spec.frame(10_000).is_none());
    }

    #[test]
    fn tone_energy_lands_in_its_bin() {
        // Bin-centred tone: 10 * 44100/256 = 1722.65 Hz.
        let s = tone(1_722.65, 4_096);
        let spec = Spectrogram::compute(&s, 256, 256, WindowKind::Hann).unwrap();
        let avg = spec.average_power();
        let peak = (0..avg.len())
            .max_by(|&a, &b| avg[a].total_cmp(&avg[b]))
            .unwrap();
        assert_eq!(peak, 10);
        assert!(avg[10] > 100.0 * avg[40].max(1e-12));
    }

    #[test]
    fn median_rejects_transient_bursts() {
        let mut s = tone(1_722.65, 8_192);
        // A single huge click at 6 kHz in one frame.
        let wf = std::f64::consts::TAU * 6_029.3 / 44_100.0; // bin 35
        for j in 0..256 {
            s[1_024 + j] += 50.0 * (wf * j as f64).sin();
        }
        let spec = Spectrogram::compute(&s, 256, 256, WindowKind::Rectangular).unwrap();
        let avg = spec.average_power();
        let med = spec.median_power();
        // The mean sees the click; the median doesn't.
        assert!(
            avg[35] > 10.0 * med[35].max(1e-12),
            "avg {} med {}",
            avg[35],
            med[35]
        );
    }

    #[test]
    fn band_summary_shape() {
        let s = tone(1_722.65, 4_096);
        let spec = Spectrogram::compute(&s, 256, 256, WindowKind::Hann).unwrap();
        let bands = spec.band_log_power(16);
        assert_eq!(bands.len(), 16);
        // The band containing bin 10 (band 1 of 16 × 8-bin bands)
        // dominates.
        let max_band = (0..16)
            .max_by(|&a, &b| bands[a].total_cmp(&bands[b]))
            .unwrap();
        assert_eq!(max_band, 1);
    }

    #[test]
    fn empty_spectrogram_medians_are_zero() {
        let spec = Spectrogram {
            fft_size: 256,
            hop: 128,
            frames: Vec::new(),
        };
        assert_eq!(spec.median_power(), vec![0.0; 128]);
        assert_eq!(spec.average_power(), vec![0.0; 128]);
    }
}
