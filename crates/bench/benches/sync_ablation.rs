//! Ablation: CP-based fine synchronization and channel-estimation
//! interpolation strategies (DESIGN.md's design-choice benches).
//!
//! Measures decode success (as work done to a fixed accuracy) with the
//! full receiver vs a receiver whose fine sync is disabled (sync range
//! 0) and vs the alternative channel estimators.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wearlock_acoustics::channel::AcousticLink;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::{Meters, Spl};
use wearlock_modem::config::OfdmConfig;
use wearlock_modem::constellation::Modulation;
use wearlock_modem::demodulator::ChannelEstimator;
use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

fn bench_sync_ablation(c: &mut Criterion) {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let bits: Vec<bool> = (0..96).map(|_| rng.gen()).collect();
    let link = AcousticLink::builder()
        .distance(Meters(0.3))
        .noise(Location::Office.noise_model())
        .build()
        .unwrap();
    let mut wave = Vec::new();
    tx.modulate(&bits, Modulation::Qpsk, &mut TxScratch::new(), &mut wave)
        .unwrap();
    let rec = link.transmit(&wave, Spl(70.0), &mut rng);
    let mut scratch = DemodScratch::new();
    let mut frame = DemodFrame::new();
    let mut decode = |rx: &OfdmDemodulator| {
        rx.demodulate(
            std::hint::black_box(&rec),
            Modulation::Qpsk,
            bits.len(),
            &mut scratch,
            &mut frame,
        )
    };

    let full = OfdmDemodulator::new(cfg.clone()).unwrap();
    c.bench_function("rx_full_fine_sync", |b| b.iter(|| decode(&full)));

    let no_fine = OfdmDemodulator::new(
        wearlock_modem::config::OfdmConfigBuilder::from(cfg.clone())
            .fine_sync_range(0)
            .build()
            .unwrap(),
    )
    .unwrap();
    c.bench_function("rx_no_fine_sync", |b| b.iter(|| decode(&no_fine)));

    for (name, est) in [
        ("magphase", ChannelEstimator::MagnitudePhase),
        ("fft_complex", ChannelEstimator::FftComplex),
        ("nearest_pilot", ChannelEstimator::NearestPilot),
    ] {
        let rx = OfdmDemodulator::new(cfg.clone())
            .unwrap()
            .with_estimator(est);
        c.bench_function(&format!("rx_estimator_{name}"), |b| b.iter(|| decode(&rx)));
    }
}

criterion_group!(benches, bench_sync_ablation);
criterion_main!(benches);
