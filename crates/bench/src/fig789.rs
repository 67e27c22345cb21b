//! Figures 7–9: BER vs distance per transmission mode, BER under
//! adaptive modulation at different MaxBER constraints, and BER under
//! jamming with/without sub-channel selection.

use rand::Rng;

use wearlock_acoustics::channel::AcousticLink;
use wearlock_acoustics::hardware::MicrophoneModel;
use wearlock_acoustics::noise::{Location, NoiseModel};
use wearlock_dsp::units::{Meters, Spl};
use wearlock_modem::config::{FrequencyBand, OfdmConfig};
use wearlock_modem::demodulator::bit_error_rate;
use wearlock_modem::subchannel::{apply_selection, select_data_channels};
use wearlock_modem::{
    DemodFrame, DemodScratch, ModePolicy, OfdmDemodulator, OfdmModulator, TransmissionMode,
    TxScratch,
};
use wearlock_runtime::SweepRunner;

/// A (distance, BER) measurement for one mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBer {
    /// Transmission mode.
    pub mode: TransmissionMode,
    /// Distance in metres.
    pub distance: f64,
    /// Mean BER (0.5 when undetectable).
    pub ber: f64,
}

fn near_ultrasound_link(distance: f64) -> AcousticLink {
    AcousticLink::builder()
        .distance(Meters(distance))
        .noise(Location::Office.noise_model())
        // Phone-phone pair: the receiver is a smartphone microphone.
        .microphone(MicrophoneModel::smartphone())
        .build()
        .expect("valid distance")
}

/// The two-block RTS probe of `tx`.
fn probe_wave(tx: &OfdmModulator) -> Vec<f64> {
    let mut probe = Vec::new();
    tx.probe(2, &mut TxScratch::new(), &mut probe)
        .expect("valid");
    probe
}

#[allow(clippy::too_many_arguments)]
fn measure_ber<R: Rng + ?Sized>(
    tx: &OfdmModulator,
    rx: &OfdmDemodulator,
    link: &AcousticLink,
    mode: TransmissionMode,
    volume: Spl,
    trials: usize,
    rng: &mut R,
    scratch: &mut DemodScratch,
) -> f64 {
    let (mut tx_scratch, mut wave, mut frame) = (TxScratch::new(), Vec::new(), DemodFrame::new());
    let mut total = 0.0;
    for _ in 0..trials {
        let bits: Vec<bool> = (0..240).map(|_| rng.gen()).collect();
        tx.modulate(&bits, mode.modulation(), &mut tx_scratch, &mut wave)
            .expect("non-empty");
        let rec = link.transmit(&wave, volume, rng);
        total += rx
            .demodulate(&rec, mode.modulation(), bits.len(), scratch, &mut frame)
            .map(|()| bit_error_rate(&bits, &frame.bits))
            .unwrap_or(0.5);
    }
    total / trials.max(1) as f64
}

/// Figure 7: BER vs distance for the three fixed transmission modes
/// (near-ultrasound, office LOS). `volume` is held fixed so distance is
/// the only variable.
///
/// Each (mode, distance) point is an independent task with its own
/// derived RNG, so the result is identical for any worker count.
pub fn fig7(distances: &[f64], trials: usize, seed: u64, runner: &SweepRunner) -> Vec<DistanceBer> {
    let cfg = OfdmConfig::new(FrequencyBand::NearUltrasound);
    let tx = OfdmModulator::new(cfg.clone()).expect("valid");
    let rx = OfdmDemodulator::new(cfg).expect("valid");
    let volume = Spl(56.0);
    let grid: Vec<(TransmissionMode, f64)> = TransmissionMode::ALL
        .into_iter()
        .flat_map(|mode| distances.iter().map(move |&d| (mode, d)))
        .collect();
    runner.run_with_scratch(grid.len(), seed, DemodScratch::new, |i, rng, scratch| {
        let (mode, d) = grid[i];
        let link = near_ultrasound_link(d);
        let ber = measure_ber(&tx, &rx, &link, mode, volume, trials, rng, scratch);
        DistanceBer {
            mode,
            distance: d,
            ber,
        }
    })
}

/// One adaptive-modulation measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveBer {
    /// The MaxBER constraint.
    pub max_ber: f64,
    /// Distance in metres.
    pub distance: f64,
    /// Mean BER over completed transmissions.
    pub ber: f64,
    /// Mode the policy picked most often (None = always aborted).
    pub mode: Option<TransmissionMode>,
    /// Fraction of trials where the policy aborted (no usable mode).
    pub abort_rate: f64,
}

/// Figure 8: adaptive modulation under different MaxBER constraints —
/// probe, pick the mode from measured Eb/N0, transmit, measure.
///
/// Each (MaxBER, distance) point is an independent task with its own
/// derived RNG, so the result is identical for any worker count.
pub fn fig8(
    max_bers: &[f64],
    distances: &[f64],
    trials: usize,
    seed: u64,
    runner: &SweepRunner,
) -> Vec<AdaptiveBer> {
    let cfg = OfdmConfig::new(FrequencyBand::NearUltrasound);
    let tx = OfdmModulator::new(cfg.clone()).expect("valid");
    let rx = OfdmDemodulator::new(cfg.clone()).expect("valid");
    let probe = probe_wave(&tx);
    let volume = Spl(56.0);
    let grid: Vec<(f64, f64)> = max_bers
        .iter()
        .flat_map(|&mb| distances.iter().map(move |&d| (mb, d)))
        .collect();
    runner.run_with_scratch(grid.len(), seed, DemodScratch::new, |i, rng, scratch| {
        let (mb, d) = grid[i];
        let policy = ModePolicy::new(mb).expect("valid maxber");
        let link = near_ultrasound_link(d);
        let mut bers = Vec::new();
        let mut aborts = 0usize;
        // BTreeMap for a deterministic tie-break in max_by_key below;
        // HashMap's randomized iteration order would flip the reported
        // mode between identical runs.
        let mut mode_votes: std::collections::BTreeMap<TransmissionMode, usize> =
            std::collections::BTreeMap::new();
        for _ in 0..trials {
            let probe_rec = link.transmit(&probe, volume, rng);
            let mode = rx.analyze_probe(&probe_rec, scratch).ok().and_then(|rep| {
                policy.select_mode(rep.ebn0(rx.config(), TransmissionMode::Qpsk.modulation()))
            });
            match mode {
                None => aborts += 1,
                Some(m) => {
                    *mode_votes.entry(m).or_insert(0) += 1;
                    bers.push(measure_ber(&tx, &rx, &link, m, volume, 1, rng, scratch));
                }
            }
        }
        AdaptiveBer {
            max_ber: mb,
            distance: d,
            ber: if bers.is_empty() {
                f64::NAN
            } else {
                bers.iter().sum::<f64>() / bers.len() as f64
            },
            mode: mode_votes
                .into_iter()
                .max_by_key(|(_, n)| *n)
                .map(|(m, _)| m),
            abort_rate: aborts as f64 / trials.max(1) as f64,
        }
    })
}

/// One jamming measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JammingBer {
    /// Number of simultaneously jammed sub-channels.
    pub jammed: usize,
    /// Mean BER with the default (fixed) channel assignment.
    pub ber_fixed: f64,
    /// Mean BER after probe-driven sub-channel selection.
    pub ber_selected: f64,
}

/// Figure 9: BER under a tone jammer with and without sub-channel
/// selection (QPSK, audible band, 15 cm — the paper's setup).
///
/// Each jammed-tone count is an independent task with its own derived
/// RNG, so the result is identical for any worker count.
pub fn fig9(max_jammed: usize, trials: usize, seed: u64, runner: &SweepRunner) -> Vec<JammingBer> {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).expect("valid");
    let rx = OfdmDemodulator::new(cfg.clone()).expect("valid");
    let probe = probe_wave(&tx);
    let volume = Spl(68.0);
    let mode = TransmissionMode::Qpsk;

    runner.run_with_scratch(
        max_jammed + 1,
        seed,
        DemodScratch::new,
        |jammed, rng, scratch| {
            let mut fixed_total = 0.0;
            let mut selected_total = 0.0;
            for _ in 0..trials {
                // The jammer picks random data channels each time.
                let mut bins = cfg.data_channels().to_vec();
                for i in (1..bins.len()).rev() {
                    bins.swap(i, rng.gen_range(0..=i));
                }
                let jam_bins: Vec<usize> = bins.into_iter().take(jammed).collect();
                let noise = NoiseModel::Mixture(vec![
                    NoiseModel::White { spl: Spl(20.0) },
                    NoiseModel::Tones {
                        freqs: jam_bins.iter().map(|&k| cfg.channel_frequency(k)).collect(),
                        spl: if jam_bins.is_empty() {
                            Spl(-120.0)
                        } else {
                            Spl(58.0)
                        },
                    },
                ]);
                let link = AcousticLink::builder()
                    .distance(Meters(0.15))
                    .noise(noise)
                    .build()
                    .expect("valid distance");

                fixed_total += measure_ber(&tx, &rx, &link, mode, volume, 1, rng, scratch);

                let probe_rec = link.transmit(&probe, volume, rng);
                let sel_ber = match rx.analyze_probe(&probe_rec, scratch) {
                    Ok(rep) => {
                        match select_data_channels(&cfg, &rep.noise_spectrum, 12)
                            .and_then(|sel| apply_selection(&cfg, &sel))
                        {
                            Ok(cfg2) => {
                                let tx2 = OfdmModulator::new(cfg2.clone()).expect("valid");
                                let rx2 = OfdmDemodulator::new(cfg2).expect("valid");
                                measure_ber(&tx2, &rx2, &link, mode, volume, 1, rng, scratch)
                            }
                            Err(_) => 0.5,
                        }
                    }
                    Err(_) => 0.5,
                };
                selected_total += sel_ber;
            }
            JammingBer {
                jammed,
                ber_fixed: fixed_total / trials.max(1) as f64,
                ber_selected: selected_total / trials.max(1) as f64,
            }
        },
    )
}
