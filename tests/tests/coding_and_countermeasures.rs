//! Integration tests for the extension features: token channel coding
//! schemes, acoustic fingerprinting and distance bounding.

use wearlock::config::WearLockConfig;
use wearlock::environment::Environment;
use wearlock::ranging::{check_bound, measure_distance, BoundOutcome, RangingConfig};
use wearlock::session::{AttemptOptions, UnlockSession};
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;
use wearlock_modem::coding::TokenCoding;
use wearlock_tests::rng;

#[test]
fn session_unlocks_with_convolutional_coding() {
    let config = WearLockConfig::builder()
        .token_coding(TokenCoding::Convolutional)
        .build()
        .unwrap();
    let mut session = UnlockSession::new(config).unwrap();
    let mut r = rng(300);
    let mut ok = 0;
    for _ in 0..6 {
        if session
            .run(&Environment::default(), &AttemptOptions::new(), &mut r)
            .outcome
            .unlocked()
        {
            ok += 1;
        }
        session.enter_pin();
    }
    assert!(ok >= 4, "conv-coded unlocks {ok}/6");
}

#[test]
fn convolutional_coding_is_shorter_on_air() {
    // 32-bit token: conv = 76 coded bits vs repetition-5 = 160 — the
    // conv frame saves about one OFDM block of air time at equal or
    // better robustness to scattered errors.
    assert!(TokenCoding::Convolutional.coded_len(32) < TokenCoding::Repetition(5).coded_len(32));
}

#[test]
fn repetition_and_conv_both_beat_uncoded_on_noisy_channel() {
    use rand::Rng;
    use wearlock_acoustics::channel::AwgnChannel;
    use wearlock_dsp::units::Db;
    use wearlock_modem::coding::{conv_encode, viterbi_decode};
    use wearlock_modem::config::OfdmConfig;
    use wearlock_modem::constellation::Modulation;
    use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).unwrap();
    let rx = OfdmDemodulator::new(cfg).unwrap();
    let mut r = rng(301);
    let ch = AwgnChannel::new(Db(-3.0));
    let (mut tx_scratch, mut scratch) = (TxScratch::new(), DemodScratch::new());
    let (mut wave, mut out) = (Vec::new(), DemodFrame::new());

    let mut uncoded_ok = 0;
    let mut conv_ok = 0;
    let trials = 14;
    for _ in 0..trials {
        let bits: Vec<bool> = (0..32).map(|_| r.gen()).collect();

        // Uncoded 32-bit token.
        tx.modulate(&bits, Modulation::Qpsk, &mut tx_scratch, &mut wave)
            .unwrap();
        let rec = ch.transmit(&wave, &mut r);
        if rx
            .demodulate(&rec, Modulation::Qpsk, 32, &mut scratch, &mut out)
            .is_ok()
            && out.bits == bits
        {
            uncoded_ok += 1;
        }

        // Convolutionally coded token.
        let coded = conv_encode(&bits);
        tx.modulate(&coded, Modulation::Qpsk, &mut tx_scratch, &mut wave)
            .unwrap();
        let rec = ch.transmit(&wave, &mut r);
        if rx
            .demodulate(&rec, Modulation::Qpsk, coded.len(), &mut scratch, &mut out)
            .is_ok()
            && viterbi_decode(&out.bits, 32).is_ok_and(|d| d == bits)
        {
            conv_ok += 1;
        }
    }
    assert!(
        conv_ok > uncoded_ok,
        "conv {conv_ok}/{trials} vs uncoded {uncoded_ok}/{trials}"
    );
    assert!(conv_ok >= 6, "conv only {conv_ok}/{trials}");
}

#[test]
fn distance_bounding_separates_honest_from_relay() {
    let cfg = RangingConfig::default();
    let env = Environment::builder()
        .location(Location::Office)
        .distance(Meters(0.4))
        .build();
    let mut r = rng(302);

    let honest = check_bound(&cfg, &env, Meters(1.2), 0.0, &mut r).unwrap();
    assert!(honest.accepted(), "{honest:?}");

    let relayed = check_bound(&cfg, &env, Meters(1.2), 0.015, &mut r).unwrap();
    assert!(!relayed.accepted(), "{relayed:?}");
}

#[test]
fn ranging_accuracy_supports_the_one_meter_boundary() {
    let cfg = RangingConfig::default();
    let mut r = rng(303);
    // Measurements at 0.5 m and 1.5 m must be distinguishable.
    let near = measure_distance(
        &cfg,
        &Environment::builder().distance(Meters(0.5)).build(),
        0.0,
        &mut r,
    )
    .unwrap();
    let far = measure_distance(
        &cfg,
        &Environment::builder().distance(Meters(1.5)).build(),
        0.0,
        &mut r,
    )
    .unwrap();
    match (near, far) {
        (BoundOutcome::WithinBound(n), BoundOutcome::WithinBound(f)) => {
            assert!(
                f.distance.value() > n.distance.value() + 0.5,
                "near {} far {}",
                n.distance,
                f.distance
            );
        }
        other => panic!("measurements missing: {other:?}"),
    }
}

#[test]
fn fingerprint_rejects_foreign_speaker_through_session_probes() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock::fingerprint::FingerprintVerifier;
    use wearlock_acoustics::channel::AcousticLink;
    use wearlock_acoustics::hardware::SpeakerModel;
    use wearlock_dsp::units::Spl;
    use wearlock_modem::{DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

    let cfg = WearLockConfig::default();
    let modem_cfg = cfg.modem().clone();
    let tx = OfdmModulator::new(modem_cfg.clone()).unwrap();
    let rx = OfdmDemodulator::new(modem_cfg.clone()).unwrap();
    let mut r = StdRng::seed_from_u64(304);
    let mut probe_wave = Vec::new();
    tx.probe(2, &mut TxScratch::new(), &mut probe_wave).unwrap();

    let probe = |speaker: SpeakerModel, r: &mut StdRng| {
        let link = AcousticLink::builder()
            .distance(Meters(0.3))
            .noise(Location::QuietRoom.noise_model())
            .speaker(speaker)
            .build()
            .unwrap();
        let rec = link.transmit(&probe_wave, Spl(65.0), r);
        rx.analyze_probe(&rec, &mut DemodScratch::new()).unwrap()
    };

    let enrolled = FingerprintVerifier::enroll(
        &[
            probe(SpeakerModel::smartphone(), &mut r),
            probe(SpeakerModel::smartphone(), &mut r),
        ],
        &modem_cfg,
        0.3,
    )
    .unwrap();
    // Genuine device accepted, foreign unit rejected.
    assert!(enrolled.matches(&probe(SpeakerModel::smartphone(), &mut r), &modem_cfg));
    assert!(!enrolled.matches(
        &probe(SpeakerModel::smartphone().with_ripple_phase(2.4), &mut r),
        &modem_cfg
    ));
}
