//! Microbenchmarks of the acoustic channel kernels that dominate an
//! unlock attempt's host time: the windowed-sinc propagation delay, the
//! Gaussian source, the fused FFT-domain signal path (which also renders
//! `SpeakerModel::emit`), the noise synthesis (flat and through the
//! watch microphone's band limit), the microphone's capture stages
//! (jitter, self-noise, quantization), and the whole
//! `AcousticLink::transmit` per field-test location.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::distributions::StandardNormal;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;
use wearlock_acoustics::channel::{AcousticLink, PathKind};
use wearlock_acoustics::fused::add_received_signal;
use wearlock_acoustics::hardware::{MicrophoneModel, SpeakerModel};
use wearlock_acoustics::multipath::ImpulseResponse;
use wearlock_acoustics::noise::{Location, NoiseModel};
use wearlock_acoustics::SPEED_OF_SOUND;
use wearlock_dsp::resample::fractional_delay;
use wearlock_dsp::units::{Hz, Meters, Seconds, Spl};

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

fn bench_fractional_delay(c: &mut Criterion) {
    let x = recording();
    // The propagation delay of the default 0.5 m link.
    let delay = 0.5 / SPEED_OF_SOUND * 44_100.0;
    c.bench_function("fractional_delay_16k", |b| {
        b.iter(|| fractional_delay(black_box(&x), delay).unwrap())
    });
}

fn bench_fused_signal(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    // A phase-1 probe's drive waveform after propagation (2 048 samples,
    // 4 ms ring-out, 0.5 m delay) through a line-of-sight response, into
    // one recording: one 4 096-point block. A phase-2 token's (3 200
    // samples) takes two.
    let probe: Vec<f64> = recording()[..2_048 + 176 + 65].to_vec();
    let token: Vec<f64> = recording()[..3_200 + 176 + 65].to_vec();
    let ir = ImpulseResponse::line_of_sight(Seconds(0.004), 60.0, 0.25, &mut rng).unwrap();
    let speaker = SpeakerModel::smartphone();
    for (name, travelled, mic) in [
        (
            "fused_signal_probe_moto360",
            &probe,
            MicrophoneModel::moto360(),
        ),
        (
            "fused_signal_probe_smartphone",
            &probe,
            MicrophoneModel::smartphone(),
        ),
        (
            "fused_signal_token_moto360",
            &token,
            MicrophoneModel::moto360(),
        ),
    ] {
        let mut out = vec![0.0; RECORDING];
        c.bench_function(name, |b| {
            b.iter(|| {
                add_received_signal(&speaker, &mic, black_box(travelled), &ir, &mut out, 12_288);
                black_box(&out);
            })
        });
    }
}

fn bench_standard_normal(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut out = vec![0.0; RECORDING];
    c.bench_function("standard_normal_16k", |b| {
        b.iter(|| {
            for o in out.iter_mut() {
                *o = rng.sample(StandardNormal);
            }
            black_box(&out);
        })
    });
    // The same draws through the block fill the channel's loops use.
    c.bench_function("standard_normal_fill_16k", |b| {
        b.iter(|| {
            rng.fill_standard_normal(&mut out);
            black_box(&out);
        })
    });
}

fn bench_noise(c: &mut Criterion) {
    let mut models: Vec<(String, NoiseModel)> = [
        Location::QuietRoom,
        Location::Office,
        Location::ClassRoom,
        Location::Cafe,
        Location::GroceryStore,
    ]
    .into_iter()
    .map(|location| (format!("noise_16k_{location:?}"), location.noise_model()))
    .collect();
    // The paper's jammer: six simultaneous Audacity tone tracks.
    models.push((
        "noise_16k_tones6".to_string(),
        NoiseModel::Tones {
            freqs: [1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0]
                .map(Hz)
                .to_vec(),
            spl: Spl(60.0),
        },
    ));
    let mut rng = StdRng::seed_from_u64(4);
    for (name, model) in &models {
        c.bench_function(name, |b| {
            b.iter(|| model.generate(black_box(RECORDING), &mut rng))
        });
    }
    // What `AcousticLink` synthesizes: each location's noise through the
    // watch microphone's 7 kHz band limit.
    let mic = MicrophoneModel::moto360();
    for (name, model) in &models {
        c.bench_function(&format!("received_{name}_moto360"), |b| {
            b.iter(|| model.received(black_box(RECORDING), &mic, &mut rng))
        });
    }
}

fn bench_microphone(c: &mut Criterion) {
    let x = recording();
    let mut rng = StdRng::seed_from_u64(6);
    for (name, mic) in [
        ("mic_capture_16k_moto360", MicrophoneModel::moto360()),
        ("mic_capture_16k_smartphone", MicrophoneModel::smartphone()),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut rec = black_box(&x).clone();
                mic.capture(&mut rec, &mut rng);
                rec
            })
        });
    }
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
    bench_fractional_delay,
    bench_fused_signal,
    bench_standard_normal,
    bench_noise,
    bench_microphone,
    bench_transmit
);
criterion_main!(benches);
