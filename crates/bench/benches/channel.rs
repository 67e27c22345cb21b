//! Microbenchmarks of the acoustic channel kernels that dominate an
//! unlock attempt's host time: FIR filtering (speaker band-pass and
//! phase ripple, microphone low-pass, noise shaping), the windowed-sinc
//! propagation delay, multipath convolution, and the whole
//! `AcousticLink::transmit` per field-test location.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use wearlock_acoustics::channel::{AcousticLink, PathKind};
use wearlock_acoustics::multipath::ImpulseResponse;
use wearlock_acoustics::noise::Location;
use wearlock_acoustics::SPEED_OF_SOUND;
use wearlock_dsp::filter::Fir;
use wearlock_dsp::resample::fractional_delay;
use wearlock_dsp::units::{Hz, Meters, SampleRate, Seconds, Spl};

/// Samples in a benchmarked recording: about one phase-1 capture.
const RECORDING: usize = 16_384;

fn recording() -> Vec<f64> {
    (0..RECORDING)
        .map(|i| {
            let t = i as f64 / 44_100.0;
            (std::f64::consts::TAU * 3_000.0 * t).sin()
                + 0.3 * (std::f64::consts::TAU * 5_100.0 * t).cos()
        })
        .collect()
}

fn bench_fir(c: &mut Criterion) {
    let sr = SampleRate::CD;
    let x = recording();
    // Tap counts of the noise shaping (61), the speaker band-pass and
    // microphone low-pass (101), and the speaker phase ripple (1 024).
    let ripple: Vec<f64> = (0..1_024)
        .map(|i| ((i as f64 - 512.0) * 0.37).sin() / (1.0 + (i as f64 - 512.0).abs()))
        .collect();
    let filters = [
        (
            "fir_61_taps_16k",
            Fir::low_pass(Hz(4_000.0), 61, sr).unwrap(),
        ),
        (
            "fir_101_taps_16k",
            Fir::low_pass(Hz(7_000.0), 101, sr).unwrap(),
        ),
        ("fir_1024_taps_16k", Fir::from_taps(ripple).unwrap()),
    ];
    for (name, fir) in &filters {
        c.bench_function(name, |b| b.iter(|| fir.apply(black_box(&x))));
    }
}

fn bench_fractional_delay(c: &mut Criterion) {
    let x = recording();
    // The propagation delay of the default 0.5 m link.
    let delay = 0.5 / SPEED_OF_SOUND * 44_100.0;
    c.bench_function("fractional_delay_16k", |b| {
        b.iter(|| fractional_delay(black_box(&x), delay).unwrap())
    });
}

fn bench_impulse_response(c: &mut Criterion) {
    let sr = SampleRate::CD;
    let x = recording();
    let mut rng = StdRng::seed_from_u64(5);
    // The responses AcousticLink::transmit draws for each path kind.
    let los = ImpulseResponse::line_of_sight(Seconds(0.004), 60.0, 0.25, sr, &mut rng).unwrap();
    let nlos = ImpulseResponse::body_blocked(Seconds(0.0025), 25.0, sr, &mut rng).unwrap();
    c.bench_function("multipath_los_16k", |b| b.iter(|| los.apply(black_box(&x))));
    c.bench_function("multipath_nlos_16k", |b| {
        b.iter(|| nlos.apply(black_box(&x)))
    });
}

fn bench_transmit(c: &mut Criterion) {
    let x = recording();
    for location in [
        Location::QuietRoom,
        Location::Office,
        Location::ClassRoom,
        Location::Cafe,
        Location::GroceryStore,
    ] {
        let link = AcousticLink::builder()
            .distance(Meters(0.5))
            .noise(location.noise_model())
            .path(PathKind::LineOfSight)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        c.bench_function(&format!("transmit_16k_{location:?}"), |b| {
            b.iter(|| link.transmit(black_box(&x), Spl(70.0), &mut rng))
        });
    }
}

criterion_group!(
    benches,
    bench_fir,
    bench_fractional_delay,
    bench_impulse_response,
    bench_transmit
);
criterion_main!(benches);
