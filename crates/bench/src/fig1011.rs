//! Figures 10 and 11: per-phase computation delay on each device, and
//! communication delay per transport and payload type.

use rand::rngs::StdRng;

use wearlock::config::{WearLockConfig, PROBE_BLOCKS};
use wearlock::trim;
use wearlock_acoustics::channel::{DEFAULT_LEAD_PAD, DEFAULT_TAIL_PAD};
use wearlock_auth::TOKEN_BITS;
use wearlock_modem::config::{CP_LEN, FFT_SIZE, POST_PREAMBLE_GUARD, PREAMBLE_LEN, SYMBOL_LEN};
use wearlock_modem::{Modulation, OfdmModulator};
use wearlock_platform::device::{DeviceModel, Workload};
use wearlock_platform::link::{Transport, WirelessLink};
use wearlock_runtime::SweepRunner;

/// Per-phase compute times for one device (Fig. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePhases {
    /// The device measured.
    pub device: String,
    /// Phase-1 channel-probing processing, seconds.
    pub phase1_probing_s: f64,
    /// Phase-2 pre-processing (detection/sync), seconds.
    pub phase2_preprocess_s: f64,
    /// Phase-2 demodulation, seconds.
    pub phase2_demod_s: f64,
}

/// The workload sizes of one unlock, derived from the default session
/// configuration exactly as the session prices them: trim-bounded
/// preamble searches, and the trim's one level pass over each full
/// recording (the transmitted clip plus the link's ambient padding).
fn phase_workloads() -> (Workload, Workload, Workload) {
    let config = WearLockConfig::default();
    let modem = config.modem();
    let tx = OfdmModulator::new(modem.clone()).expect("default modem config is valid");
    let search_len = trim::NOMINAL_SEARCH_LEN;
    let probe_len = PREAMBLE_LEN + POST_PREAMBLE_GUARD + PROBE_BLOCKS * SYMBOL_LEN;
    let coded = config.token_coding().coded_len(TOKEN_BITS);
    let token_len = tx.frame_len(coded, Modulation::Qpsk);

    let probe = Workload::combined(&[
        Workload::CrossCorrelation {
            signal_len: search_len,
            template_len: PREAMBLE_LEN,
        },
        Workload::Fft {
            size: FFT_SIZE,
            count: 10,
        },
        Workload::LevelMeasure {
            samples: DEFAULT_LEAD_PAD + probe_len + DEFAULT_TAIL_PAD,
        },
    ]);
    let preprocess = Workload::combined(&[
        Workload::CrossCorrelation {
            signal_len: search_len,
            template_len: PREAMBLE_LEN,
        },
        Workload::LevelMeasure {
            samples: DEFAULT_LEAD_PAD + token_len + DEFAULT_TAIL_PAD,
        },
    ]);
    let demod = Workload::OfdmDemod {
        blocks: tx.blocks_for(coded, Modulation::Qpsk),
        fft_size: FFT_SIZE,
        cp_len: CP_LEN,
    };
    (probe, preprocess, demod)
}

/// Figure 10: the three phases on the three devices.
pub fn fig10() -> Vec<DevicePhases> {
    let (probe, preprocess, demod) = phase_workloads();
    [
        DeviceModel::nexus6(),
        DeviceModel::galaxy_nexus(),
        DeviceModel::moto360(),
    ]
    .iter()
    .map(|d| DevicePhases {
        device: d.name().to_string(),
        phase1_probing_s: d.execute(&probe).value(),
        phase2_preprocess_s: d.execute(&preprocess).value(),
        phase2_demod_s: d.execute(&demod).value(),
    })
    .collect()
}

/// A communication-delay measurement (Fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDelay {
    /// The transport measured.
    pub transport: Transport,
    /// Payload description.
    pub payload: &'static str,
    /// Mean delay over the repetitions, seconds.
    pub mean_s: f64,
    /// Minimum observed, seconds.
    pub min_s: f64,
    /// Maximum observed, seconds.
    pub max_s: f64,
}

/// Figure 11: message and audio-clip transfer delays over both
/// transports, `reps` repetitions each (paper: at least 20).
///
/// Each (transport, payload) series is an independent task with its
/// own derived RNG, so the result is identical for any worker count.
pub fn fig11(reps: usize, seed: u64, runner: &SweepRunner) -> Vec<LinkDelay> {
    let clip_bytes = 22_000; // ~0.25 s of trimmed 16-bit PCM
    let grid: Vec<(Transport, &'static str)> = [Transport::Bluetooth, Transport::Wifi]
        .into_iter()
        .flat_map(|t| [(t, "message"), (t, "audio clip")])
        .collect();
    runner.map(&grid, seed, |&(transport, payload), rng| {
        let link = WirelessLink::new(transport);
        let sample = |r: &mut StdRng| -> f64 {
            if payload == "message" {
                link.message_delay(r).value()
            } else {
                link.file_delay(clip_bytes, r).value()
            }
        };
        let xs: Vec<f64> = (0..reps.max(1)).map(|_| sample(rng)).collect();
        LinkDelay {
            transport,
            payload,
            mean_s: xs.iter().sum::<f64>() / xs.len() as f64,
            min_s: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max_s: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    })
}
