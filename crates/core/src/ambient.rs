//! Ambient-noise similarity filter (Sound-Proof-style, paper §V).
//!
//! Both devices measure ambient sound in the first protocol phase; if
//! their noise "fingerprints" disagree, the devices are apparently not
//! co-located and the transmission is aborted before any heavy DSP.

use wearlock_dsp::level::power;
use wearlock_dsp::stats::pearson;
use wearlock_dsp::stft::Spectrogram;
use wearlock_dsp::window::WindowKind;

/// Number of frequency bands in the fingerprint.
const BANDS: usize = 16;

/// Computes a coarse spectral fingerprint of an ambient recording:
/// log-power in `BANDS` bands up to Nyquist, via a Hann STFT.
///
/// Returns `None` when the recording is shorter than one FFT window.
pub fn ambient_fingerprint(recording: &[f64]) -> Option<Vec<f64>> {
    const N: usize = 512;
    let spec = Spectrogram::compute(recording, N, N, WindowKind::Hann).ok()?;
    Some(spec.band_log_power(BANDS))
}

/// Similarity in `[-1, 1]` between two ambient recordings: Pearson
/// correlation of their band fingerprints.
///
/// Recordings that are too short to fingerprint score `-1.0` (treated
/// as dissimilar — fail safe).
pub fn ambient_similarity(a: &[f64], b: &[f64]) -> f64 {
    match (ambient_fingerprint(a), ambient_fingerprint(b)) {
        (Some(fa), Some(fb)) => pearson(&fa, &fb),
        _ => -1.0,
    }
}

/// Convenience: whether two recordings carry comparable overall levels
/// (within `tolerance_db`). Used alongside the spectral similarity.
pub fn levels_match(a: &[f64], b: &[f64], tolerance_db: f64) -> bool {
    let pa = power(a).max(1e-30);
    let pb = power(b).max(1e-30);
    (10.0 * (pa / pb).log10()).abs() <= tolerance_db
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_acoustics::noise::{Location, NoiseModel};
    use wearlock_dsp::units::Spl;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn same_scene_correlates() {
        // Two devices in the same cafe hear the same noise realization
        // plus small independent mic noise.
        let mut r = rng(1);
        let scene = Location::Cafe.noise_model().generate(8_192, &mut r);
        let mic_a = NoiseModel::White { spl: Spl(5.0) }.generate(8_192, &mut r);
        let mic_b = NoiseModel::White { spl: Spl(5.0) }.generate(8_192, &mut r);
        let a: Vec<f64> = scene.iter().zip(&mic_a).map(|(s, n)| s + n).collect();
        let b: Vec<f64> = scene.iter().zip(&mic_b).map(|(s, n)| s + n).collect();
        let sim = ambient_similarity(&a, &b);
        assert!(sim > 0.8, "sim {sim}");
    }

    #[test]
    fn different_scenes_decorrelate() {
        let mut r = rng(2);
        let a = Location::Cafe.noise_model().generate(8_192, &mut r);
        let b = Location::QuietRoom.noise_model().generate(8_192, &mut r);
        let sim = ambient_similarity(&a, &b);
        // Different spectral shapes and levels.
        assert!(sim < 0.75, "sim {sim}");
        assert!(!levels_match(&a, &b, 6.0));
    }

    #[test]
    fn short_recordings_fail_safe() {
        assert_eq!(ambient_similarity(&[0.0; 10], &[0.0; 10]), -1.0);
        assert!(ambient_fingerprint(&[0.0; 100]).is_none());
    }

    #[test]
    fn fingerprint_has_expected_shape() {
        let mut r = rng(3);
        let a = Location::Office.noise_model().generate(4_096, &mut r);
        let f = ambient_fingerprint(&a).unwrap();
        assert_eq!(f.len(), BANDS);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn levels_match_tolerance() {
        let a = vec![0.1; 1000];
        let b = vec![0.11; 1000];
        assert!(levels_match(&a, &b, 3.0));
        let c = vec![1.0; 1000];
        assert!(!levels_match(&a, &c, 3.0));
    }
}
