//! Total-delay comparison harness (Figs. 10–12).
//!
//! Breaks one unlock attempt's wall-clock into the paper's categories —
//! phase-1 channel-probing processing, phase-2 pre-processing, phase-2
//! demodulation, and communication — for each named configuration, and
//! compares the total against manual PIN entry.

use rand::Rng;

use wearlock_dsp::units::Seconds;
use wearlock_platform::pin::PinEntryModel;

use crate::config::{NamedConfig, WearLockConfig};
use crate::environment::Environment;
use crate::session::{AttemptOptions, Outcome, UnlockSession};
use crate::WearLockError;

/// Delay breakdown of one (successful) unlock attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayBreakdown {
    /// The configuration measured.
    pub config: NamedConfig,
    /// Phase-1 probing processing time.
    pub phase1_processing: Seconds,
    /// Phase-2 pre-processing (signal detection/sync on the token
    /// recording).
    pub phase2_preprocessing: Seconds,
    /// Phase-2 OFDM demodulation.
    pub phase2_demodulation: Seconds,
    /// All wireless communication (handshake, sensor/audio transfer,
    /// CTS, verdict).
    pub communication: Seconds,
    /// Audio play-out/recording time.
    pub audio: Seconds,
    /// End-to-end total.
    pub total: Seconds,
}

fn span_sum(delays: &[(&str, Seconds)], prefix: &str) -> Seconds {
    Seconds(
        delays
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v.value())
            .sum(),
    )
}

/// Measures the delay breakdown of `config_kind` in `env`, averaging
/// over `trials` *successful acoustic* attempts (motion skips and
/// failures are excluded — the paper times complete unlocks). Every
/// attempt, including the excluded ones, reports its spans and outcome
/// to `sink` (pass [`NullSink`] for none).
///
/// # Errors
///
/// Returns [`WearLockError::SessionFailed`] when no attempt succeeds
/// (e.g. a hostile environment).
///
/// [`NullSink`]: wearlock_telemetry::NullSink
pub fn measure_breakdown<R: Rng + ?Sized>(
    config_kind: NamedConfig,
    env: &Environment,
    trials: usize,
    sink: &dyn wearlock_telemetry::EventSink,
    rng: &mut R,
) -> Result<DelayBreakdown, WearLockError> {
    let config = WearLockConfig::builder().named(config_kind).build()?;
    let mut session = UnlockSession::new(config)?;
    let mut collected = Vec::new();
    let mut guard = 0;
    while collected.len() < trials && guard < trials * 10 {
        guard += 1;
        let mut series = session.run(env, &AttemptOptions::new().sink(sink), rng);
        let report = series.attempts.pop().expect("single attempt");
        if let Outcome::Unlocked(crate::session::UnlockPath::Acoustic(_)) = report.outcome {
            collected.push(report);
        }
        // Keep the policy state clean between timing runs.
        session.enter_pin();
    }
    if collected.is_empty() {
        return Err(WearLockError::SessionFailed(format!(
            "no successful acoustic unlock in {guard} tries for {config_kind}"
        )));
    }
    let n = collected.len() as f64;
    let avg = |f: &dyn Fn(&crate::session::AttemptReport) -> f64| -> Seconds {
        Seconds(collected.iter().map(f).sum::<f64>() / n)
    };
    Ok(DelayBreakdown {
        config: config_kind,
        phase1_processing: avg(&|r| span_sum(&r.delays, "compute:phase1").value()),
        phase2_preprocessing: avg(&|r| span_sum(&r.delays, "compute:phase2-preprocess").value()),
        phase2_demodulation: avg(&|r| span_sum(&r.delays, "compute:phase2-demod").value()),
        communication: avg(&|r| span_sum(&r.delays, "wireless:").value()),
        audio: avg(&|r| span_sum(&r.delays, "audio:").value()),
        total: avg(&|r| r.total_delay.value()),
    })
}

/// WearLock total delay vs manual PIN entry (Fig. 12).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupReport {
    /// Per-configuration breakdowns.
    pub configs: Vec<DelayBreakdown>,
    /// Median 4-digit PIN entry time.
    pub pin4: Seconds,
    /// Median 6-digit PIN entry time.
    pub pin6: Seconds,
}

impl SpeedupReport {
    /// Speedup of configuration `i` against the 4-digit PIN:
    /// `1 − t_wearlock / t_pin`.
    pub fn speedup_vs_pin4(&self, i: usize) -> f64 {
        1.0 - self.configs[i].total.value() / self.pin4.value()
    }
}

/// Runs the full Fig. 12 comparison, reporting every attempt's
/// telemetry to `sink`.
///
/// # Errors
///
/// Propagates [`measure_breakdown`] failures.
pub fn compare_with_pin<R: Rng + ?Sized>(
    env: &Environment,
    trials: usize,
    sink: &dyn wearlock_telemetry::EventSink,
    rng: &mut R,
) -> Result<SpeedupReport, WearLockError> {
    let mut configs = Vec::new();
    for kind in NamedConfig::ALL {
        configs.push(measure_breakdown(kind, env, trials, sink, rng)?);
    }
    Ok(SpeedupReport {
        configs,
        pin4: PinEntryModel::four_digit().median(),
        pin6: PinEntryModel::six_digit().median(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_acoustics::channel::{DEFAULT_LEAD_PAD, DEFAULT_TAIL_PAD};
    use wearlock_auth::TOKEN_BITS;
    use wearlock_modem::config::{CP_LEN, FFT_SIZE, PREAMBLE_LEN};
    use wearlock_modem::{Modulation, OfdmModulator, TxScratch};
    use wearlock_platform::device::Workload;
    use wearlock_platform::link::WirelessLink;
    use wearlock_telemetry::NullSink;

    use crate::config::{ExecutionPlan, PROBE_BLOCKS};
    use crate::offload::median_step_cost;
    use crate::trim;

    /// Jitter-free time of one acoustic unlock under `kind`: every step
    /// the session prices (handshake, sensor upload, motion filter, the
    /// two trimmed-clip processing steps, demodulation, CTS and
    /// verdict) at the nominal sizes of the default configuration, with
    /// every wireless delay at its median. Audio airtime is the same
    /// for all three configurations and is left out.
    fn median_attempt_time(kind: NamedConfig) -> f64 {
        let config = WearLockConfig::builder().named(kind).build().unwrap();
        let (phone, watch, plan) = (config.phone(), config.watch(), config.plan());
        let link = WirelessLink::new(config.transport());
        let modem = config.modem();
        let tx = OfdmModulator::new(modem.clone()).unwrap();
        let coded = config.token_coding().coded_len(TOKEN_BITS);
        let mut probe = Vec::new();
        tx.probe(PROBE_BLOCKS, &mut TxScratch::new(), &mut probe)
            .unwrap();
        let probe_len = probe.len();
        let token_len = tx.frame_len(coded, Modulation::Qpsk);
        let search = Workload::CrossCorrelation {
            signal_len: trim::NOMINAL_SEARCH_LEN,
            template_len: PREAMBLE_LEN,
        };
        let recording = |len| Workload::LevelMeasure {
            samples: DEFAULT_LEAD_PAD + len + DEFAULT_TAIL_PAD,
        };
        let fft = Workload::Fft {
            size: FFT_SIZE,
            count: 10,
        };
        let phase1 = median_step_cost(
            plan,
            &Workload::combined(&[search, fft, recording(probe_len)]),
            trim::planned_len(probe_len, trim::PROBE_NOISE_LEAD_S),
            phone,
            watch,
            &link,
        );
        let phase2 = median_step_cost(
            plan,
            &Workload::combined(&[search, recording(token_len)]),
            trim::planned_len(token_len, trim::TOKEN_NOISE_LEAD_S),
            phone,
            watch,
            &link,
        );
        let demod = Workload::OfdmDemod {
            blocks: tx.blocks_for(coded, Modulation::Qpsk),
            fft_size: FFT_SIZE,
            cp_len: CP_LEN,
        };
        let demod = match plan {
            ExecutionPlan::LocalOnWatch => watch.execute(&demod),
            ExecutionPlan::OffloadToPhone => phone.execute(&demod),
        };
        let n = Environment::default().sensor_samples;
        let message = link.file_delay_median(0).value();
        // Handshake round trip, CTS and verdict.
        4.0 * message
            + link.file_delay_median(n * 12).value()
            + phone.execute(&Workload::Dtw { n, m: n }).value()
            + phase1.time.value()
            + phase2.time.value()
            + demod.value()
    }

    #[test]
    fn config1_beats_config2_and_config3() {
        // On the jitter-free medians WiFi + Nexus 6 is far ahead, while
        // Bluetooth + Galaxy Nexus and the local watch tie: the watch's
        // ±50 ms preamble searches cost about what shipping each trimmed
        // clip over Bluetooth costs, so no sample count resolves an
        // ordering between them.
        let t: Vec<f64> = NamedConfig::ALL
            .iter()
            .map(|&kind| median_attempt_time(kind))
            .collect();
        assert!(
            3.0 * t[0] < t[1],
            "median config1 {} vs config2 {}",
            t[0],
            t[1]
        );
        assert!(
            3.0 * t[0] < t[2],
            "median config1 {} vs config3 {}",
            t[0],
            t[2]
        );
        assert!(
            (t[1] / t[2] - 1.0).abs() < 0.1,
            "median config2 {} vs config3 {}",
            t[1],
            t[2]
        );
        let mut rng = StdRng::seed_from_u64(70);
        let report = compare_with_pin(&Environment::default(), 25, &NullSink, &mut rng).unwrap();
        let t: Vec<f64> = report.configs.iter().map(|c| c.total.value()).collect();
        assert!(t[0] < t[1], "config1 {} vs config2 {}", t[0], t[1]);
    }

    #[test]
    fn wearlock_beats_pin_entry() {
        let mut rng = StdRng::seed_from_u64(71);
        let env = Environment::default();
        let report = compare_with_pin(&env, 3, &NullSink, &mut rng).unwrap();
        // Paper: ≥58.6% speedup for Config1, ≥17.7% even for the worst.
        assert!(
            report.speedup_vs_pin4(0) > 0.55,
            "config1 speedup {}",
            report.speedup_vs_pin4(0)
        );
        for i in 0..3 {
            assert!(
                report.speedup_vs_pin4(i) > 0.17,
                "config{} speedup {}",
                i + 1,
                report.speedup_vs_pin4(i)
            );
        }
    }

    #[test]
    fn breakdown_parts_sum_close_to_total() {
        let mut rng = StdRng::seed_from_u64(72);
        let b = measure_breakdown(
            NamedConfig::Config1,
            &Environment::default(),
            3,
            &NullSink,
            &mut rng,
        )
        .unwrap();
        let parts = b.phase1_processing.value()
            + b.phase2_preprocessing.value()
            + b.phase2_demodulation.value()
            + b.communication.value()
            + b.audio.value();
        // Motion-filter compute is the only unlisted span.
        assert!(
            (parts - b.total.value()).abs() < 0.2 * b.total.value() + 0.05,
            "parts {parts} total {}",
            b.total.value()
        );
    }

    #[test]
    fn watch_local_demod_dominates_config3() {
        let mut rng = StdRng::seed_from_u64(73);
        let b3 = measure_breakdown(
            NamedConfig::Config3,
            &Environment::default(),
            3,
            &NullSink,
            &mut rng,
        )
        .unwrap();
        let b1 = measure_breakdown(
            NamedConfig::Config1,
            &Environment::default(),
            3,
            &NullSink,
            &mut rng,
        )
        .unwrap();
        assert!(
            b3.phase1_processing.value() > 5.0 * b1.phase1_processing.value(),
            "watch probing {} vs phone {}",
            b3.phase1_processing.value(),
            b1.phase1_processing.value()
        );
    }
}
