//! Property-based tests for the channel simulator.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wearlock_acoustics::channel::{empirical_snr, AwgnChannel};
use wearlock_acoustics::noise::NoiseModel;
use wearlock_acoustics::propagation::{attenuation, received_snr, required_tx_spl};
use wearlock_dsp::level::spl;
use wearlock_dsp::units::{Db, Meters, Spl};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn attenuation_monotone_in_distance(d1 in 0.1f64..5.0, d2 in 0.1f64..5.0) {
        let (lo, hi) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(attenuation(Meters(lo)).value() <= attenuation(Meters(hi)).value() + 1e-12);
    }

    #[test]
    fn attenuation_is_log_additive(d in 0.2f64..2.0) {
        let a1 = attenuation(Meters(d)).value();
        let a2 = attenuation(Meters(2.0 * d)).value();
        prop_assert!((a2 - a1 - 6.0206).abs() < 1e-6);
    }

    #[test]
    fn required_tx_spl_inverts_snr(range in 0.2f64..3.0, noise in 0.0f64..60.0, snr in 0.0f64..30.0) {
        let tx = required_tx_spl(Meters(range), Spl(noise), Db(snr));
        let got = received_snr(tx, Meters(range), Spl(noise));
        prop_assert!((got.value() - snr).abs() < 1e-9);
    }

    #[test]
    fn white_noise_hits_requested_spl(target in -10.0f64..60.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = NoiseModel::White { spl: Spl(target) }.generate(8_192, &mut rng);
        prop_assert!((spl(&s).value() - target).abs() < 1.0);
    }

    #[test]
    fn awgn_achieves_requested_snr(target in 0.0f64..40.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig: Vec<f64> = (0..8_192)
            .map(|i| (std::f64::consts::TAU * 1_000.0 * i as f64 / 44_100.0).sin())
            .collect();
        let noisy = AwgnChannel::new(Db(target)).transmit(&sig, &mut rng);
        let got = empirical_snr(&sig, &noisy).value();
        prop_assert!((got - target).abs() < 1.5, "target {target} got {got}");
    }

    #[test]
    fn mixture_spl_at_least_loudest_component(a in 0.0f64..50.0, b in 0.0f64..50.0) {
        let m = NoiseModel::Mixture(vec![
            NoiseModel::White { spl: Spl(a) },
            NoiseModel::Speech { spl: Spl(b) },
        ]);
        prop_assert!(m.spl().value() >= a.max(b) - 1e-9);
    }
}
