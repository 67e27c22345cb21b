//! End-to-end pipeline stages on this host: probe analysis and the full
//! unlock attempt (the real-code counterpart of Fig. 10's per-phase
//! breakdown, which the platform device model scales to Android
//! hardware).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wearlock::config::WearLockConfig;
use wearlock::environment::Environment;
use wearlock::session::{AttemptOptions, UnlockSession};
use wearlock_acoustics::channel::AcousticLink;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::{Meters, Spl};
use wearlock_modem::config::OfdmConfig;
use wearlock_modem::constellation::Modulation;
use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

fn bench_probe_analysis(c: &mut Criterion) {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).unwrap();
    let rx = OfdmDemodulator::new(cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let link = AcousticLink::builder()
        .distance(Meters(0.3))
        .noise(Location::Office.noise_model())
        .build()
        .unwrap();
    let mut probe = Vec::new();
    tx.probe(2, &mut TxScratch::new(), &mut probe).unwrap();
    let rec = link.transmit(&probe, Spl(70.0), &mut rng);
    let mut scratch = DemodScratch::new();
    c.bench_function("phase1_probe_analysis", |b| {
        b.iter(|| rx.analyze_probe(std::hint::black_box(&rec), &mut scratch))
    });
}

/// Steady-state demodulation: one frame decoded repeatedly into reused
/// scratch + frame buffers — the zero-allocation hot loop the counting
/// allocator gates.
fn bench_demodulate_steady_state(c: &mut Criterion) {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).unwrap();
    let rx = OfdmDemodulator::new(cfg).unwrap();
    let bits: Vec<bool> = (0..240).map(|i| (i * 13 + 1) % 7 < 3).collect();
    let mut wave = Vec::new();
    tx.modulate(&bits, Modulation::Qpsk, &mut TxScratch::new(), &mut wave)
        .unwrap();

    let mut scratch = DemodScratch::new();
    let mut frame = DemodFrame::new();
    c.bench_function("demodulate_steady_state", |b| {
        b.iter(|| {
            rx.demodulate(
                std::hint::black_box(&wave),
                Modulation::Qpsk,
                bits.len(),
                &mut scratch,
                &mut frame,
            )
            .unwrap();
            frame.bits.len()
        })
    });
}

fn bench_full_attempt(c: &mut Criterion) {
    let env = Environment::default();
    c.bench_function("full_unlock_attempt", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut session = UnlockSession::new(WearLockConfig::default()).unwrap();
        b.iter(|| {
            let r = session.run(std::hint::black_box(&env), &AttemptOptions::new(), &mut rng);
            session.enter_pin();
            r
        })
    });
}

criterion_group!(
    benches,
    bench_probe_analysis,
    bench_demodulate_steady_state,
    bench_full_attempt
);
criterion_main!(benches);
