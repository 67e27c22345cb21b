//! Property-based tests for the modem core.

use proptest::prelude::*;
use wearlock_modem::coding::{conv_encode, viterbi_decode, TokenCoding};
use wearlock_modem::config::OfdmConfig;
use wearlock_modem::constellation::{demap_symbols, map_bits, Modulation};
use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

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
        let mut wave = Vec::new();
        tx.modulate(&bits, m, &mut TxScratch::new(), &mut wave).unwrap();
        let mut out = DemodFrame::new();
        rx.demodulate(&wave, m, bits.len(), &mut DemodScratch::new(), &mut out)
            .unwrap();
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

// A reused scratch and frame must never leak state between payloads.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scratch_reuse_does_not_leak_between_payloads(
        bits_a in prop::collection::vec(any::<bool>(), 1..80),
        bits_b in prop::collection::vec(any::<bool>(), 1..80),
        m_a in any_modulation(),
        m_b in any_modulation(),
    ) {
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).unwrap();
        let rx = OfdmDemodulator::new(cfg).unwrap();
        let mut tx_scratch = TxScratch::new();
        let (mut wave_a, mut wave_b) = (Vec::new(), Vec::new());
        tx.modulate(&bits_a, m_a, &mut tx_scratch, &mut wave_a).unwrap();
        tx.modulate(&bits_b, m_b, &mut tx_scratch, &mut wave_b).unwrap();

        // Warm the scratch and frame on payload A (possibly a different
        // modulation / frame length), then demodulate B with them.
        let mut scratch = DemodScratch::new();
        let mut reused = DemodFrame::new();
        rx.demodulate(&wave_a, m_a, bits_a.len(), &mut scratch, &mut reused).unwrap();
        rx.demodulate(&wave_b, m_b, bits_b.len(), &mut scratch, &mut reused).unwrap();

        let mut fresh = DemodFrame::new();
        rx.demodulate(&wave_b, m_b, bits_b.len(), &mut DemodScratch::new(), &mut fresh)
            .unwrap();

        prop_assert_eq!(&reused.bits, &fresh.bits);
        prop_assert_eq!(reused.blocks, fresh.blocks);
        prop_assert_eq!(reused.mean_evm.to_bits(), fresh.mean_evm.to_bits());
    }
}
