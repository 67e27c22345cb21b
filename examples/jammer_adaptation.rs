//! Sub-channel selection under a tone jammer (the Fig. 9 mechanism,
//! interactive form).
//!
//! An "Audacity" jammer plays pure tones on a growing number of data
//! sub-channels. Without selection the modem's BER climbs with each
//! jammed tone; with the probe-driven selection it hops to clean bins
//! and holds a low BER.
//!
//! ```text
//! cargo run -p wearlock-examples --bin jammer_adaptation
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wearlock_acoustics::channel::AcousticLink;
use wearlock_acoustics::noise::NoiseModel;
use wearlock_dsp::units::{Meters, Spl};
use wearlock_modem::config::OfdmConfig;
use wearlock_modem::constellation::Modulation;
use wearlock_modem::demodulator::bit_error_rate;
use wearlock_modem::subchannel::{apply_selection, select_data_channels};
use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = OfdmConfig::default();
    let mut rng = StdRng::seed_from_u64(9);
    let payload: Vec<bool> = (0..240).map(|_| rng.gen()).collect();
    let (mut tx_scratch, mut scratch) = (TxScratch::new(), DemodScratch::new());
    let (mut wave, mut frame) = (Vec::new(), DemodFrame::new());

    println!("jammed tones | BER (fixed channels) | BER (sub-channel selection)");
    println!("-------------+----------------------+----------------------------");
    for n_jammed in 0..=6usize {
        // The jammer picks random *data* channels each round.
        let mut bins = cfg.data_channels().to_vec();
        for i in (1..bins.len()).rev() {
            bins.swap(i, rng.gen_range(0..=i));
        }
        let jammed: Vec<usize> = bins.into_iter().take(n_jammed).collect();
        let noise = NoiseModel::Mixture(vec![
            NoiseModel::White { spl: Spl(20.0) },
            NoiseModel::Tones {
                freqs: jammed.iter().map(|&k| cfg.channel_frequency(k)).collect(),
                spl: if jammed.is_empty() {
                    Spl(-100.0)
                } else {
                    Spl(58.0)
                },
            },
        ]);
        let link = AcousticLink::builder()
            .distance(Meters(0.15))
            .noise(noise)
            .build()?;

        // Fixed assignment.
        let tx = OfdmModulator::new(cfg.clone())?;
        let rx = OfdmDemodulator::new(cfg.clone())?;
        tx.modulate(&payload, Modulation::Qpsk, &mut tx_scratch, &mut wave)?;
        let rec = link.transmit(&wave, Spl(68.0), &mut rng);
        let fixed = rx
            .demodulate(
                &rec,
                Modulation::Qpsk,
                payload.len(),
                &mut scratch,
                &mut frame,
            )
            .map(|()| bit_error_rate(&payload, &frame.bits))
            .unwrap_or(0.5);

        // Probe → rank noise → reselect → transmit.
        tx.probe(2, &mut tx_scratch, &mut wave)?;
        let probe_rec = link.transmit(&wave, Spl(68.0), &mut rng);
        let adaptive = match rx.analyze_probe(&probe_rec, &mut scratch) {
            Ok(report) => {
                let sel = select_data_channels(&cfg, &report.noise_spectrum, 12)?;
                let cfg2 = apply_selection(&cfg, &sel)?;
                let tx2 = OfdmModulator::new(cfg2.clone())?;
                let rx2 = OfdmDemodulator::new(cfg2)?;
                tx2.modulate(&payload, Modulation::Qpsk, &mut tx_scratch, &mut wave)?;
                let rec2 = link.transmit(&wave, Spl(68.0), &mut rng);
                rx2.demodulate(
                    &rec2,
                    Modulation::Qpsk,
                    payload.len(),
                    &mut scratch,
                    &mut frame,
                )
                .map(|()| bit_error_rate(&payload, &frame.bits))
                .unwrap_or(0.5)
            }
            Err(_) => 0.5,
        };
        println!("{n_jammed:12} | {fixed:20.4} | {adaptive:26.4}");
    }
    println!("\n(jammer: up to 6 simultaneous tones at 58 dB SPL, QPSK, 15 cm)");
    Ok(())
}
