//! Microbenchmarks of the DSP substrate's hot paths: the 256-point FFT
//! the modem runs per OFDM block, the 1 024- and 4 096-point transforms
//! of the acoustic channel, and preamble cross-correlation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use wearlock_dsp::chirp::Chirp;
use wearlock_dsp::correlate::{
    normalized_cross_correlate, normalized_cross_correlate_fft, CorrelationWorkspace,
};
use wearlock_dsp::units::{Hz, SampleRate};
use wearlock_dsp::{Complex, Fft};

fn bench_fft(c: &mut Criterion) {
    let fft = Fft::new(256).unwrap();
    let x: Vec<Complex> = (0..256)
        .map(|i| Complex::new((i as f64 * 0.1).sin(), (i as f64 * 0.07).cos()))
        .collect();
    c.bench_function("fft_256_forward", |b| {
        b.iter(|| fft.forward(std::hint::black_box(&x)).unwrap())
    });
    c.bench_function("fft_256_roundtrip", |b| {
        b.iter(|| {
            let spec = fft.forward(std::hint::black_box(&x)).unwrap();
            fft.inverse(&spec).unwrap()
        })
    });
    // In-place transforms on a reused buffer: the per-block cost the
    // demodulator actually pays after the allocation work.
    c.bench_function("fft_256_forward_in_place", |b| {
        let mut buf = x.clone();
        b.iter(|| {
            buf.copy_from_slice(&x);
            fft.forward_in_place(std::hint::black_box(&mut buf))
                .unwrap()
        })
    });
    // A real block widened to complex during the bit-reversal copy: the
    // demodulator's per-block spectrum.
    let real: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut spec = vec![Complex::ZERO; 256];
    c.bench_function("fft_256_forward_real_classic", |b| {
        b.iter(|| {
            fft.forward_real_into(std::hint::black_box(&real), &mut spec)
                .unwrap()
        })
    });
}

/// The acoustic channel's transform sizes: its noise synthesis inverts
/// a 1 024-point first period and 4 096-point periods after it, and its
/// signal path runs 4 096-point transforms. In-place on a reused buffer
/// (the copy that restores the input each iteration is timed too).
fn bench_fft_channel_sizes(c: &mut Criterion) {
    for n in [1_024usize, 4_096] {
        let fft = Fft::new(n).unwrap();
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.1).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let mut buf = x.clone();
        c.bench_function(&format!("fft_{n}_forward_in_place"), |b| {
            b.iter(|| {
                buf.copy_from_slice(&x);
                fft.forward_in_place(std::hint::black_box(&mut buf))
                    .unwrap()
            })
        });
        c.bench_function(&format!("fft_{n}_inverse_in_place"), |b| {
            b.iter(|| {
                buf.copy_from_slice(&x);
                fft.inverse_in_place(std::hint::black_box(&mut buf))
                    .unwrap()
            })
        });
        // The noise synthesis's path: bins already in bit-reversed
        // slots, so no permutation.
        c.bench_function(&format!("fft_{n}_inverse_bit_reversed_in_place"), |b| {
            b.iter(|| {
                buf.copy_from_slice(&x);
                fft.inverse_bit_reversed_in_place(std::hint::black_box(&mut buf))
                    .unwrap()
            })
        });
    }
}

/// The seed implementation of the FFT preamble correlator, kept here
/// verbatim as the "before" baseline the plan cache, workspace reuse
/// and fused normalization are measured against: a fresh FFT plan,
/// template spectrum and per-block buffers on every call, plus the
/// original three-pass denominator computation (total-energy sum, floor
/// scan, emit pass).
fn seed_normalized_xcorr_fft(signal: &[f64], template: &[f64]) -> Vec<f64> {
    let n = signal.len();
    let m = template.len();
    let fft_len = (4 * m).next_power_of_two().max(64);
    let fft = Fft::new(fft_len).unwrap();
    let step = fft_len - m + 1;

    let mut tpl = vec![Complex::ZERO; fft_len];
    for (t, &v) in tpl.iter_mut().zip(template.iter()) {
        *t = Complex::new(v, 0.0);
    }
    let tpl_spec: Vec<Complex> = fft
        .forward(&tpl)
        .unwrap()
        .iter()
        .map(|z| z.conj())
        .collect();

    let n_lags = n - m + 1;
    let mut dots = vec![0.0; n_lags];
    let mut start = 0;
    while start < n_lags {
        let mut block = vec![Complex::ZERO; fft_len];
        for i in 0..fft_len {
            if start + i < n {
                block[i] = Complex::new(signal[start + i], 0.0);
            }
        }
        let spec = fft.forward(&block).unwrap();
        let prod: Vec<Complex> = spec.iter().zip(&tpl_spec).map(|(a, b)| *a * *b).collect();
        let time = fft.inverse(&prod).unwrap();
        let take = step.min(n_lags - start);
        for (d, z) in dots[start..start + take].iter_mut().zip(time.iter()) {
            *d = z.re;
        }
        start += step;
    }

    // Seed denominators: one pass for the total energy, one rolling
    // pass for the floor, one rolling pass (with the 1024-lag exact
    // recompute) to emit.
    let t_norm: f64 = template.iter().map(|x| x * x).sum::<f64>().sqrt();
    let total_energy: f64 = signal.iter().map(|x| x * x).sum();
    let mut max_win = 0.0f64;
    {
        let mut e: f64 = signal[..m].iter().map(|x| x * x).sum();
        max_win = max_win.max(e);
        for i in 0..n - m {
            e = (e + signal[i + m] * signal[i + m] - signal[i] * signal[i]).max(0.0);
            max_win = max_win.max(e);
        }
    }
    let energy_floor = (max_win * 1e-6).max(total_energy * 1e-15);
    let mut win_energy: f64 = signal[..m].iter().map(|x| x * x).sum();
    let mut denoms = Vec::with_capacity(n_lags);
    for i in 0..n_lags {
        if i % 1024 == 0 && i > 0 {
            win_energy = signal[i..i + m].iter().map(|x| x * x).sum();
        }
        denoms.push(win_energy.max(energy_floor).sqrt() * t_norm);
        if i + m < n {
            win_energy =
                (win_energy + signal[i + m] * signal[i + m] - signal[i] * signal[i]).max(0.0);
        }
    }
    dots.iter()
        .zip(&denoms)
        .map(|(&dot, &denom)| if denom > 0.0 { dot / denom } else { 0.0 })
        .collect()
}

fn bench_xcorr_fft_vs_direct(c: &mut Criterion) {
    use wearlock_dsp::correlate::{cross_correlate, cross_correlate_fft};
    let tpl: Vec<f64> = (0..256).map(|i| (i as f64 * 0.21).sin()).collect();
    let sig: Vec<f64> = (0..20_000).map(|i| (i as f64 * 0.037).sin()).collect();
    c.bench_function("xcorr_direct_20k", |b| {
        b.iter(|| cross_correlate(std::hint::black_box(&sig), &tpl).unwrap())
    });
    let mut ws = CorrelationWorkspace::new();
    let mut out = Vec::new();
    c.bench_function("xcorr_fft_20k", |b| {
        b.iter(|| cross_correlate_fft(std::hint::black_box(&sig), &tpl, &mut ws, &mut out).unwrap())
    });
}

fn bench_xcorr(c: &mut Criterion) {
    let chirp = Chirp::new(Hz(1_000.0), Hz(6_000.0), 256, SampleRate::CD).unwrap();
    let template = chirp.generate();
    let mut signal = vec![0.0; 4_666]; // the session's bounded search window
    for (i, s) in signal.iter_mut().enumerate() {
        *s = (i as f64 * 0.13).sin() * 0.1;
    }
    signal[2_000..2_256].copy_from_slice(&template);
    c.bench_function("preamble_search_4666", |b| {
        b.iter_batched(
            || signal.clone(),
            |s| normalized_cross_correlate(&s, &template).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

/// Direct vs FFT *normalized* correlation — the preamble-search kernel
/// the demodulator actually runs — at recording lengths from 2^12 to
/// 2^17 samples (93 ms to 3 s at 44.1 kHz) against the 256-sample
/// chirp. This is the crossover picture that justified switching
/// `detect` to the FFT path.
fn bench_normalized_xcorr_scaling(c: &mut Criterion) {
    let chirp = Chirp::new(Hz(1_000.0), Hz(6_000.0), 256, SampleRate::CD).unwrap();
    let template = chirp.generate();
    let mut ws = CorrelationWorkspace::new();
    let mut scores = Vec::new();
    for exp in 12..=17u32 {
        let n = 1usize << exp;
        let mut signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.071).sin() * 0.1).collect();
        let at = n / 2;
        for (i, &t) in template.iter().enumerate() {
            signal[at + i] += t;
        }
        c.bench_function(&format!("norm_xcorr_direct_2^{exp}"), |b| {
            b.iter(|| normalized_cross_correlate(std::hint::black_box(&signal), &template).unwrap())
        });
        c.bench_function(&format!("norm_xcorr_fft_2^{exp}"), |b| {
            b.iter(|| {
                normalized_cross_correlate_fft(
                    std::hint::black_box(&signal),
                    &template,
                    &mut ws,
                    &mut scores,
                )
                .unwrap()
            })
        });
    }
}

/// Preamble detection, seed path vs plan-cached workspace, over a
/// session-scale recording (1.5 s at 44.1 kHz). The seed path re-plans
/// its FFT and reallocates every buffer per call; the workspace path
/// reuses both.
fn bench_preamble_detect(c: &mut Criterion) {
    let chirp = Chirp::new(Hz(1_000.0), Hz(6_000.0), 256, SampleRate::CD).unwrap();
    let template = chirp.generate();
    let n = 65_536;
    let mut signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.071).sin() * 0.1).collect();
    for (i, &t) in template.iter().enumerate() {
        signal[n / 2 + i] += t;
    }

    c.bench_function("preamble_detect_seed_path", |b| {
        b.iter(|| seed_normalized_xcorr_fft(std::hint::black_box(&signal), &template))
    });
    let mut ws = CorrelationWorkspace::new();
    let mut scores = Vec::new();
    c.bench_function("preamble_detect_cached", |b| {
        b.iter(|| {
            normalized_cross_correlate_fft(
                std::hint::black_box(&signal),
                &template,
                &mut ws,
                &mut scores,
            )
            .unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_fft_channel_sizes,
    bench_xcorr,
    bench_xcorr_fft_vs_direct,
    bench_normalized_xcorr_scaling,
    bench_preamble_detect
);
criterion_main!(benches);
