//! Figure 5: BER of each modulation vs Eb/N0.
//!
//! Paper setup: quiet room (15–20 dB SPL), LOS, ambient noise raised by
//! an external speaker playing white noise; scatter fitted with
//! logarithmic trend lines. Measured ranking on real hardware: ASK needs
//! *less* SNR per bit than PSK of the same order (uneven
//! amplitude/phase responses of the audio chain), and 16QAM is unusable.
//!
//! Our substitution: the modem waveform passes through the smartphone
//! speaker model (including its phase-ripple response), a controlled
//! white-noise injection at an exact Eb/N0, and a microphone with clock
//! jitter — then the standard receiver.

use rand::rngs::StdRng;
use rand::Rng;

use wearlock_acoustics::hardware::{MicrophoneModel, SpeakerModel};
use wearlock_acoustics::noise::gaussian_noise;
use wearlock_dsp::units::{Db, Spl};
use wearlock_modem::config::{OfdmConfig, POST_PREAMBLE_GUARD, PREAMBLE_LEN};
use wearlock_modem::constellation::Modulation;
use wearlock_modem::demodulator::bit_error_rate;
use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};
use wearlock_runtime::SweepRunner;

/// One measured point of the Fig. 5 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerPoint {
    /// The modulation measured.
    pub modulation: Modulation,
    /// Energy-per-bit to noise-PSD ratio, dB.
    pub ebn0: Db,
    /// Measured bit error rate.
    pub ber: f64,
    /// Bits measured at this point.
    pub bits: usize,
}

/// Sends `payload` through speaker → exact-Eb/N0 AWGN → jittery mic →
/// receiver, and returns the measured BER (0.5 when undetectable).
/// `scratch` is the caller's receive scratch, so sweep workers reuse
/// their demodulation buffers across trials.
pub fn ber_at_ebn0(
    tx: &OfdmModulator,
    rx: &OfdmDemodulator,
    modulation: Modulation,
    ebn0: Db,
    payload: &[bool],
    rng: &mut StdRng,
    scratch: &mut DemodScratch,
) -> f64 {
    let speaker = SpeakerModel::smartphone().with_ringing(wearlock_dsp::units::Seconds(0.0));
    let mic = MicrophoneModel::ideal().with_jitter(0.05);

    let mut wave = Vec::new();
    tx.modulate(payload, modulation, &mut TxScratch::new(), &mut wave)
        .expect("valid payload");
    let emitted = speaker.emit(&wave, Spl(60.0));

    // Energy of the data section (skip preamble + guard).
    let data_start = PREAMBLE_LEN + POST_PREAMBLE_GUARD;
    let data_energy: f64 = emitted[data_start.min(emitted.len())..]
        .iter()
        .map(|s| s * s)
        .sum();
    // Discrete-time relation: Eb/N0 = Σs² / (2σ²·n_bits).
    let gamma = ebn0.to_linear_power();
    let sigma = (data_energy / (2.0 * gamma * payload.len() as f64)).sqrt();

    // The ideal microphone has no band limit: the jittery capture is
    // all it adds.
    let mut rec = emitted;
    let noise = gaussian_noise(rec.len(), sigma, rng);
    for (s, n) in rec.iter_mut().zip(noise) {
        *s += n;
    }
    mic.capture(&mut rec, rng);

    let mut frame = DemodFrame::new();
    match rx.demodulate(&rec, modulation, payload.len(), scratch, &mut frame) {
        Ok(()) => bit_error_rate(payload, &frame.bits),
        Err(_) => 0.5,
    }
}

/// Runs the full Fig. 5 sweep.
///
/// `ebn0_grid` in dB; `bits_per_point` controls statistical resolution.
/// Each (modulation, Eb/N0) point is an independent task with its own
/// derived RNG, so the result is identical for any worker count.
pub fn sweep(
    ebn0_grid: &[f64],
    bits_per_point: usize,
    seed: u64,
    runner: &SweepRunner,
) -> Vec<BerPoint> {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).expect("default config");
    let rx = OfdmDemodulator::new(cfg.clone()).expect("default config");
    let grid: Vec<(Modulation, f64)> = Modulation::ALL
        .iter()
        .flat_map(|&m| ebn0_grid.iter().map(move |&e| (m, e)))
        .collect();
    // Per-worker scratch: each worker warms its receive buffers on its
    // first task and demodulates allocation-free afterwards.
    runner.run_with_scratch(grid.len(), seed, DemodScratch::new, |i, rng, scratch| {
        let (m, e) = grid[i];
        let chunk = cfg.bits_per_block(m.bits_per_symbol()) * 10;
        let rounds = bits_per_point.div_ceil(chunk).max(1);
        let mut errs = 0.0;
        let mut total = 0usize;
        for _ in 0..rounds {
            let payload: Vec<bool> = (0..chunk).map(|_| rng.gen()).collect();
            let ber = ber_at_ebn0(&tx, &rx, m, Db(e), &payload, rng, scratch);
            errs += ber * chunk as f64;
            total += chunk;
        }
        BerPoint {
            modulation: m,
            ebn0: Db(e),
            ber: errs / total as f64,
            bits: total,
        }
    })
}
