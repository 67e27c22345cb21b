//! Property-based tests for the DSP substrate.

use proptest::prelude::*;
use wearlock_dsp::correlate::{
    normalized_cross_correlate, normalized_cross_correlate_fft,
    normalized_cross_correlate_fft_into, CorrelationWorkspace,
};
use wearlock_dsp::level::rms;
use wearlock_dsp::resample::fractional_delay;
use wearlock_dsp::stats::{mean, pearson, percentile, variance};
use wearlock_dsp::units::{Db, Spl};
use wearlock_dsp::window::{apply_fade, WindowKind};
use wearlock_dsp::{dft_naive, fft_interpolate, Complex, Fft};

/// Bit-exact equality for float vectors: the `_into` / in-place entry
/// points must be the *same computation* as the allocating ones, not
/// merely a close one.
fn bits_eq(a: &[Complex], b: &[Complex]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn scores_bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn finite_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, 1..max_len)
}

fn complex_signal(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), len..=len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

proptest! {
    #[test]
    fn fft_roundtrip_is_identity(x in complex_signal(64)) {
        let fft = Fft::new(64).unwrap();
        let back = fft.inverse(&fft.forward(&x).unwrap()).unwrap();
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_matches_naive_dft(x in complex_signal(32)) {
        let fft = Fft::new(32).unwrap();
        let fast = fft.forward(&x).unwrap();
        let slow = dft_naive(&x);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn fft_is_linear(
        x in complex_signal(32),
        y in complex_signal(32),
        a in -2.0f64..2.0,
    ) {
        let fft = Fft::new(32).unwrap();
        let lhs_in: Vec<Complex> = x.iter().zip(&y).map(|(u, v)| u.scale(a) + *v).collect();
        let lhs = fft.forward(&lhs_in).unwrap();
        let fx = fft.forward(&x).unwrap();
        let fy = fft.forward(&y).unwrap();
        for (l, (u, v)) in lhs.iter().zip(fx.iter().zip(&fy)) {
            prop_assert!((*l - (u.scale(a) + *v)).abs() < 1e-8);
        }
    }

    #[test]
    fn parseval_holds(x in complex_signal(64)) {
        let fft = Fft::new(64).unwrap();
        let spec = fft.forward(&x).unwrap();
        let et: f64 = x.iter().map(|z| z.norm_sq()).sum();
        let ef: f64 = spec.iter().map(|z| z.norm_sq()).sum::<f64>() / 64.0;
        prop_assert!((et - ef).abs() < 1e-8 * et.max(1.0));
    }

    #[test]
    fn interpolation_preserves_original_samples(
        x in complex_signal(16),
        factor in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let out = fft_interpolate(&x, factor).unwrap();
        prop_assert_eq!(out.len(), x.len() * factor);
        // Band-limited interpolation must pass through every input point.
        for (i, z) in x.iter().enumerate() {
            prop_assert!((out[i * factor] - *z).abs() < 1e-8,
                "sample {} mismatch: {} vs {}", i, out[i * factor], z);
        }
    }

    #[test]
    fn normalized_correlation_bounded(sig in finite_signal(256)) {
        prop_assume!(sig.len() >= 8);
        let template: Vec<f64> = (0..8).map(|i| ((i * 37) as f64 * 0.7).sin() + 0.1).collect();
        let scores = normalized_cross_correlate(&sig, &template).unwrap();
        for s in scores {
            prop_assert!(s.abs() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn correlation_of_signal_with_itself_peaks_at_one(sig in finite_signal(128)) {
        let e: f64 = sig.iter().map(|x| x * x).sum();
        prop_assume!(e > 1e-6);
        let scores = normalized_cross_correlate(&sig, &sig).unwrap();
        prop_assert!((scores[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_fft_matches_direct_correlator(
        pair in (16usize..512).prop_flat_map(|n| (
            prop::collection::vec(-1.0f64..1.0, n),
            1usize..16,
        )),
    ) {
        // The FFT path shares the direct path's denominators bitwise;
        // only the numerator carries overlap–save roundoff, so the
        // scores must agree to 1e-9 for unit-scale signals.
        let (sig, tpl_len) = pair;
        prop_assume!(tpl_len <= sig.len());
        let template: Vec<f64> = (0..tpl_len)
            .map(|i| ((i * 29) as f64 * 0.43).sin() + 0.05)
            .collect();
        let direct = normalized_cross_correlate(&sig, &template).unwrap();
        let fast = normalized_cross_correlate_fft(&sig, &template).unwrap();
        prop_assert_eq!(direct.len(), fast.len());
        for (a, b) in direct.iter().zip(&fast) {
            prop_assert!((a - b).abs() < 1e-9, "direct {} vs fft {}", a, b);
        }
    }

    #[test]
    fn normalized_fft_peak_matches_direct_peak(sig in finite_signal(300)) {
        // The demodulator picks argmax over these scores: the FFT
        // correlator must select the same offset the direct one does.
        prop_assume!(sig.len() >= 32);
        let template: Vec<f64> = (0..16).map(|i| (i as f64 * 0.8).sin() + 0.1).collect();
        let direct = normalized_cross_correlate(&sig, &template).unwrap();
        let fast = normalized_cross_correlate_fft(&sig, &template).unwrap();
        let argmax = |v: &[f64]| {
            v.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap()
        };
        // Ties between near-equal scores may break differently within
        // the 1e-9 tolerance; accept any offset whose direct score is
        // within that bound of the true peak.
        let best_direct = direct[argmax(&direct)];
        prop_assert!((direct[argmax(&fast)] - best_direct).abs() < 1e-9);
    }

    #[test]
    fn rms_scales_linearly(sig in finite_signal(128), k in 0.1f64..10.0) {
        let scaled: Vec<f64> = sig.iter().map(|x| x * k).collect();
        prop_assert!((rms(&scaled) - k * rms(&sig)).abs() < 1e-9);
    }

    #[test]
    fn fractional_delay_bounded_overshoot(sig in finite_signal(64), d in 0.0f64..16.0) {
        let delayed = fractional_delay(&sig, d).unwrap();
        // Windowed-sinc interpolation can ring slightly (Gibbs), but
        // never beyond the kernel's L1 norm times the input peak.
        let max_in = sig.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let max_out = delayed.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        prop_assert!(max_out <= 3.0 * max_in + 1e-12, "in {max_in} out {max_out}");
    }

    #[test]
    fn integer_delay_is_exact_shift(sig in finite_signal(64), d in 0usize..16) {
        let delayed = fractional_delay(&sig, d as f64).unwrap();
        prop_assert_eq!(delayed.len(), sig.len() + d);
        for (i, &v) in sig.iter().enumerate() {
            prop_assert!((delayed[i + d] - v).abs() < 1e-12);
        }
    }

    #[test]
    fn db_roundtrip(v in -80.0f64..80.0) {
        prop_assert!((Db::from_linear_power(Db(v).to_linear_power()).value() - v).abs() < 1e-9);
        prop_assert!((Spl::from_amplitude(Spl(v).to_amplitude()).value() - v).abs() < 1e-9);
    }

    #[test]
    fn windows_bounded_zero_one(len in 2usize..200) {
        for kind in [WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman] {
            let w = kind.coefficients(len);
            for c in w {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&c));
            }
        }
    }

    #[test]
    fn fade_never_amplifies(mut sig in finite_signal(128), fade in 0usize..64) {
        let orig = sig.clone();
        apply_fade(&mut sig, fade);
        for (a, b) in sig.iter().zip(&orig) {
            prop_assert!(a.abs() <= b.abs() + 1e-12);
        }
    }

    #[test]
    fn variance_nonnegative_and_shift_invariant(sig in finite_signal(64), shift in -5.0f64..5.0) {
        let v1 = variance(&sig);
        prop_assert!(v1 >= 0.0);
        let shifted: Vec<f64> = sig.iter().map(|x| x + shift).collect();
        prop_assert!((variance(&shifted) - v1).abs() < 1e-9);
        prop_assert!((mean(&shifted) - mean(&sig) - shift).abs() < 1e-9);
    }

    #[test]
    fn percentile_within_range(sig in finite_signal(64), p in 0.0f64..100.0) {
        let lo = sig.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sig.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let v = percentile(&sig, p);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn pearson_bounded(
        pair in (2usize..64).prop_flat_map(|n| (
            prop::collection::vec(-1.0f64..1.0, n),
            prop::collection::vec(-1.0f64..1.0, n),
        )),
    ) {
        let (a, b) = pair;
        let r = pearson(&a, &b);
        prop_assert!(r.abs() <= 1.0 + 1e-9);
    }
}

// The allocation-free `_into`/in-place variants.
proptest! {
    #[test]
    fn forward_into_and_in_place_are_bitwise_forward(x in complex_signal(64)) {
        let fft = Fft::new(64).unwrap();
        let reference = fft.forward(&x).unwrap();

        let mut out = vec![Complex::ZERO; 64];
        fft.forward_into(&x, &mut out).unwrap();
        prop_assert!(bits_eq(&reference, &out));

        let mut buf = x.clone();
        fft.forward_in_place(&mut buf).unwrap();
        prop_assert!(bits_eq(&reference, &buf));
    }

    #[test]
    fn inverse_into_and_in_place_are_bitwise_inverse(x in complex_signal(64)) {
        let fft = Fft::new(64).unwrap();
        let reference = fft.inverse(&x).unwrap();

        let mut out = vec![Complex::ZERO; 64];
        fft.inverse_into(&x, &mut out).unwrap();
        prop_assert!(bits_eq(&reference, &out));

        let mut buf = x.clone();
        fft.inverse_in_place(&mut buf).unwrap();
        prop_assert!(bits_eq(&reference, &buf));
    }

    #[test]
    fn forward_real_into_is_bitwise_forward_real(
        x in prop::collection::vec(-1.0f64..1.0, 64..=64),
    ) {
        let fft = Fft::new(64).unwrap();
        let reference = fft.forward_real(&x).unwrap();
        let mut out = vec![Complex::ZERO; 64];
        fft.forward_real_into(&x, &mut out).unwrap();
        prop_assert!(bits_eq(&reference, &out));
    }

    #[test]
    fn correlator_into_is_bitwise_allocating_path(
        pair in (32usize..400).prop_flat_map(|n| (
            prop::collection::vec(-1.0f64..1.0, n),
            2usize..24,
        )),
    ) {
        let (sig, tpl_len) = pair;
        prop_assume!(tpl_len <= sig.len());
        let template: Vec<f64> = (0..tpl_len)
            .map(|i| ((i * 31) as f64 * 0.53).sin() + 0.07)
            .collect();
        let reference = normalized_cross_correlate_fft(&sig, &template).unwrap();
        let mut ws = CorrelationWorkspace::new();
        let mut scores = Vec::new();
        normalized_cross_correlate_fft_into(&sig, &template, &mut ws, &mut scores).unwrap();
        prop_assert!(scores_bits_eq(&reference, &scores));
    }

    #[test]
    fn workspace_reuse_never_leaks_state(
        sig_a in prop::collection::vec(-1.0f64..1.0, 64..300),
        sig_b in prop::collection::vec(-1.0f64..1.0, 64..300),
        len_a in prop::sample::select(vec![4usize, 8, 16]),
        len_b in prop::sample::select(vec![4usize, 8, 16]),
    ) {
        // A workspace warmed on one (signal, template-size) pair must
        // produce bitwise the same scores on the next pair as a fresh
        // workspace would — including across template sizes, which
        // force an internal re-plan.
        let tpl_a: Vec<f64> = (0..len_a).map(|i| (i as f64 * 0.9).sin() + 0.2).collect();
        let tpl_b: Vec<f64> = (0..len_b).map(|i| (i as f64 * 0.6).cos() + 0.1).collect();

        let mut reused = CorrelationWorkspace::new();
        let mut scores = Vec::new();
        normalized_cross_correlate_fft_into(&sig_a, &tpl_a, &mut reused, &mut scores).unwrap();
        normalized_cross_correlate_fft_into(&sig_b, &tpl_b, &mut reused, &mut scores).unwrap();

        let mut fresh_ws = CorrelationWorkspace::new();
        let mut fresh = Vec::new();
        normalized_cross_correlate_fft_into(&sig_b, &tpl_b, &mut fresh_ws, &mut fresh).unwrap();
        prop_assert!(scores_bits_eq(&fresh, &scores));
    }
}
