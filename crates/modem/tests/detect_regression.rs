//! Regression guard for the FFT-accelerated preamble search: the
//! demodulator's [`detect`] must return the same `FrameSync` offsets —
//! and scores to within the documented 1e-9 correlator tolerance — as
//! a reference detector built on the direct (O(n·m)) normalized
//! correlator.
//!
//! [`detect`]: wearlock_modem::OfdmDemodulator::detect

use rand::rngs::StdRng;
use rand::SeedableRng;

use wearlock_acoustics::channel::AcousticLink;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::correlate::normalized_cross_correlate;
use wearlock_dsp::level::SilenceDetector;
use wearlock_dsp::units::{Meters, Spl};
use wearlock_modem::config::OfdmConfig;
use wearlock_modem::constellation::Modulation;
use wearlock_modem::{
    DemodScratch, FrameSync, ModemError, OfdmDemodulator, OfdmModulator, TxScratch,
};

/// Modulates on fresh scratch.
fn modulate(tx: &OfdmModulator, bits: &[bool], m: Modulation) -> Result<Vec<f64>, ModemError> {
    let mut wave = Vec::new();
    tx.modulate(bits, m, &mut TxScratch::new(), &mut wave)?;
    Ok(wave)
}

/// Detects the preamble on fresh scratch.
fn detect(rx: &OfdmDemodulator, rec: &[f64]) -> Result<FrameSync, ModemError> {
    rx.detect(rec, &mut DemodScratch::new())
}

/// The direct-correlator half of `OfdmDemodulator::detect`: identical
/// silence gating and peak pick, with `normalized_cross_correlate` in
/// place of the FFT path.
fn reference_peak(cfg: &OfdmConfig, recording: &[f64]) -> (usize, f64) {
    let preamble = cfg.preamble_chirp().generate();
    let head = &recording[..preamble.len().min(recording.len())];
    let noise_spl = wearlock_dsp::level::spl(head);
    let detector =
        SilenceDetector::new(Spl(noise_spl.value() + 3.0), 256).expect("static window is valid");
    let search_from = detector
        .first_active_window(recording)
        .unwrap_or(0)
        .saturating_sub(preamble.len());
    let scores = normalized_cross_correlate(&recording[search_from..], &preamble).unwrap();
    let (rel_offset, score) = scores.iter().enumerate().fold(
        (0usize, f64::MIN),
        |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        },
    );
    (search_from + rel_offset, score)
}

#[test]
fn fft_detect_matches_direct_reference_over_acoustic_links() {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).unwrap();
    let rx = OfdmDemodulator::new(cfg.clone()).unwrap();
    let bits: Vec<bool> = (0..96).map(|i| (i * 31 + 5) % 11 < 5).collect();
    let mut rng = StdRng::seed_from_u64(404);

    let mut checked = 0;
    for &(distance, location) in &[
        (0.15, Location::QuietRoom),
        (0.3, Location::Office),
        (0.6, Location::ClassRoom),
        (1.0, Location::Office),
    ] {
        let link = AcousticLink::builder()
            .distance(Meters(distance))
            .noise(location.noise_model())
            .build()
            .unwrap();
        for _ in 0..3 {
            let wave = modulate(&tx, &bits, Modulation::Qpsk).unwrap();
            let rec = link.transmit(&wave, Spl(70.0), &mut rng);
            let Ok(sync) = detect(&rx, &rec) else {
                continue; // not detected: nothing to compare
            };
            let (ref_offset, ref_score) = reference_peak(&cfg, &rec);
            assert_eq!(
                sync.preamble_offset, ref_offset,
                "offset drifted at {distance} m in {location}"
            );
            assert!(
                (sync.preamble_score - ref_score).abs() < 1e-9,
                "score drifted at {distance} m in {location}: {} vs {}",
                sync.preamble_score,
                ref_score
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "only {checked} detections compared");
}

#[test]
fn fft_detect_matches_direct_reference_on_clean_waveform() {
    // No channel at all: the raw modulated waveform embedded in silence
    // with a known lead-in.
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).unwrap();
    let rx = OfdmDemodulator::new(cfg.clone()).unwrap();
    let bits: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
    let wave = modulate(&tx, &bits, Modulation::Bpsk).unwrap();

    let mut rec = vec![0.0; 3_000 + wave.len()];
    rec[3_000..].copy_from_slice(&wave);
    // A whisper of deterministic background so the silence gate has a
    // noise floor to measure.
    let mut state = 0xdeadbeefu64;
    for v in rec.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *v += ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 1e-4;
    }

    let sync = detect(&rx, &rec).expect("clean waveform detected");
    let (ref_offset, ref_score) = reference_peak(&cfg, &rec);
    assert_eq!(sync.preamble_offset, ref_offset);
    assert!((sync.preamble_score - ref_score).abs() < 1e-9);
    assert_eq!(sync.preamble_offset, 3_000);
}
