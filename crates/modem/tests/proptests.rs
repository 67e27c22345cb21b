//! Property-based tests for the modem core.

use proptest::prelude::*;
use wearlock_modem::coding::{conv_encode, viterbi_decode, TokenCoding};
use wearlock_modem::config::OfdmConfig;
use wearlock_modem::constellation::{demap_symbols, map_bits, Modulation};
use wearlock_modem::{OfdmDemodulator, OfdmModulator};

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop::sample::select(Modulation::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn constellation_roundtrip(bits in prop::collection::vec(any::<bool>(), 1..128), m in any_modulation()) {
        let syms = map_bits(m, &bits);
        let back = demap_symbols(m, &syms);
        prop_assert_eq!(&back[..bits.len()], &bits[..]);
        // Padding bits (if any) decode to false.
        prop_assert!(back[bits.len()..].iter().all(|&b| !b));
    }

    #[test]
    fn modulate_demodulate_is_lossless(
        bits in prop::collection::vec(any::<bool>(), 1..96),
        m in any_modulation(),
    ) {
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).unwrap();
        let rx = OfdmDemodulator::new(cfg).unwrap();
        let wave = tx.modulate(&bits, m).unwrap();
        let out = rx.demodulate(&wave, m, bits.len()).unwrap();
        prop_assert_eq!(out.bits, bits);
    }

    #[test]
    fn conv_code_roundtrip(bits in prop::collection::vec(any::<bool>(), 1..96)) {
        let coded = conv_encode(&bits);
        prop_assert_eq!(viterbi_decode(&coded, bits.len()).unwrap(), bits);
    }

    #[test]
    fn conv_code_corrects_sparse_errors(
        bits in prop::collection::vec(any::<bool>(), 16..64),
        seed in any::<u64>(),
    ) {
        let mut coded = conv_encode(&bits);
        // One flipped coded bit every 16 positions, pseudo-random phase.
        let start = (seed % 16) as usize;
        for i in (start..coded.len()).step_by(16) {
            coded[i] ^= true;
        }
        prop_assert_eq!(viterbi_decode(&coded, bits.len()).unwrap(), bits);
    }

    #[test]
    fn coding_rate_in_unit_interval(n in 1usize..256, r in 1usize..8) {
        for coding in [TokenCoding::Repetition(r), TokenCoding::Convolutional] {
            let rate = coding.rate(n);
            prop_assert!(rate > 0.0 && rate <= 1.0, "{coding}: {rate}");
            prop_assert!(coding.coded_len(n) >= n);
        }
    }

    #[test]
    fn with_data_channels_preserves_pilots(
        picks in prop::collection::btree_set(36usize..80, 1..12),
    ) {
        let cfg = OfdmConfig::default();
        let new: Vec<usize> = picks.into_iter().collect();
        let cfg2 = cfg.with_data_channels(new.clone()).unwrap();
        prop_assert_eq!(cfg2.data_channels(), &new[..]);
        prop_assert_eq!(cfg2.pilot_channels(), cfg.pilot_channels());
    }
}

// PR 4 surface: the scratch-reusing entry points must be the same
// computation as the legacy allocating ones, and a reused scratch must
// never leak state between payloads.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scratch_demodulate_is_bitwise_legacy(
        bits in prop::collection::vec(any::<bool>(), 1..96),
        m in any_modulation(),
    ) {
        use wearlock_modem::DemodScratch;
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).unwrap();
        let rx = OfdmDemodulator::new(cfg).unwrap();
        let wave = tx.modulate(&bits, m).unwrap();

        let legacy = rx.demodulate(&wave, m, bits.len()).unwrap();
        let mut scratch = DemodScratch::new();
        let explicit = rx.demodulate_with(&wave, m, bits.len(), &mut scratch).unwrap();

        prop_assert_eq!(&explicit.bits, &legacy.bits);
        prop_assert_eq!(explicit.sync.preamble_offset, legacy.sync.preamble_offset);
        prop_assert_eq!(explicit.sync.preamble_score.to_bits(), legacy.sync.preamble_score.to_bits());
        prop_assert_eq!(explicit.blocks.len(), legacy.blocks.len());
        for (x, y) in explicit.blocks.iter().zip(&legacy.blocks) {
            prop_assert_eq!(x.evm.to_bits(), y.evm.to_bits());
            prop_assert_eq!(x.fine_offset, y.fine_offset);
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_payloads(
        bits_a in prop::collection::vec(any::<bool>(), 1..80),
        bits_b in prop::collection::vec(any::<bool>(), 1..80),
        m_a in any_modulation(),
        m_b in any_modulation(),
    ) {
        use wearlock_modem::DemodScratch;
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).unwrap();
        let rx = OfdmDemodulator::new(cfg).unwrap();
        let wave_a = tx.modulate(&bits_a, m_a).unwrap();
        let wave_b = tx.modulate(&bits_b, m_b).unwrap();

        // Warm the scratch on payload A (possibly a different
        // modulation / frame length), then demodulate B with it.
        let mut scratch = DemodScratch::new();
        rx.demodulate_with(&wave_a, m_a, bits_a.len(), &mut scratch).unwrap();
        let reused = rx.demodulate_with(&wave_b, m_b, bits_b.len(), &mut scratch).unwrap();

        let mut fresh_scratch = DemodScratch::new();
        let fresh = rx.demodulate_with(&wave_b, m_b, bits_b.len(), &mut fresh_scratch).unwrap();

        prop_assert_eq!(&reused.bits, &fresh.bits);
        prop_assert_eq!(reused.blocks.len(), fresh.blocks.len());
        for (x, y) in reused.blocks.iter().zip(&fresh.blocks) {
            prop_assert_eq!(x.evm.to_bits(), y.evm.to_bits());
            prop_assert_eq!(x.equalized.len(), y.equalized.len());
            for (a, b) in x.equalized.iter().zip(&y.equalized) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn frame_into_matches_demodulate_synced(
        bits in prop::collection::vec(any::<bool>(), 1..96),
        m in any_modulation(),
    ) {
        use wearlock_modem::{DemodFrame, DemodScratch};
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).unwrap();
        let rx = OfdmDemodulator::new(cfg).unwrap();
        let wave = tx.modulate(&bits, m).unwrap();

        let mut scratch = DemodScratch::new();
        let sync = rx.detect_with(&wave, &mut scratch).unwrap();
        let reference = rx
            .demodulate_synced_with(&wave, m, bits.len(), sync, &mut scratch)
            .unwrap();

        let mut frame = DemodFrame::new();
        rx.demodulate_frame_into(&wave, m, bits.len(), sync, &mut scratch, &mut frame)
            .unwrap();
        prop_assert_eq!(&frame.bits, &reference.bits);
        prop_assert_eq!(frame.blocks, reference.blocks.len());
        // frame.mean_evm averages the per-block EVMs in block order —
        // the same additions DemodResult's blocks expose individually.
        let mean: f64 = reference.blocks.iter().map(|b| b.evm).sum::<f64>()
            / reference.blocks.len() as f64;
        prop_assert_eq!(frame.mean_evm.to_bits(), mean.to_bits());
    }
}
