//! Modem TX/RX throughput: the cost of modulating and demodulating one
//! token frame (the work behind Fig. 5's measurement loop).

use criterion::{criterion_group, criterion_main, Criterion};
use wearlock_modem::config::OfdmConfig;
use wearlock_modem::constellation::Modulation;
use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

fn bench_modem(c: &mut Criterion) {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).unwrap();
    let rx = OfdmDemodulator::new(cfg).unwrap();
    let bits: Vec<bool> = (0..160).map(|i| i % 3 == 0).collect();
    let mut tx_scratch = TxScratch::new();
    let mut scratch = DemodScratch::new();
    let mut frame = DemodFrame::new();

    for m in [Modulation::Qask, Modulation::Qpsk, Modulation::Psk8] {
        let mut wave = Vec::new();
        c.bench_function(&format!("modulate_160bit_{m}"), |b| {
            b.iter(|| {
                tx.modulate(std::hint::black_box(&bits), m, &mut tx_scratch, &mut wave)
                    .unwrap()
            })
        });
        c.bench_function(&format!("demodulate_160bit_{m}"), |b| {
            b.iter(|| {
                rx.demodulate(
                    std::hint::black_box(&wave),
                    m,
                    bits.len(),
                    &mut scratch,
                    &mut frame,
                )
                .unwrap()
            })
        });
    }
}

criterion_group!(benches, bench_modem);
criterion_main!(benches);
