//! Resilience experiment: unlock-rate and latency degradation under
//! injected faults.
//!
//! Sweeps the fault-injection intensity from zero (the benign baseline
//! — byte-identical to the unfaulted pipeline) to full, running a batch
//! of budgeted retry series ([`UnlockSession::run`] with a retry policy
//! and a [`FaultConfig`]) at each level. Each (intensity, trial) pair is
//! an independent task with its own session, derived RNG and fault
//! seed, so both the degradation curve and the merged metrics are
//! bitwise identical for any worker count.
//!
//! This is the `repro resilience` experiment; with `--metrics` the
//! merged telemetry additionally carries per-intensity unlock-rate
//! gauges (`resilience.i050.unlock_rate`, …) plus
//! `resilience.benign.unlock_rate`, which CI gates against the seed
//! baseline.

use rand::Rng;

use wearlock::config::WearLockConfig;
use wearlock::environment::Environment;
use wearlock::session::{
    AttemptOptions, AttemptSummary, ResilientOutcome, RetryPolicy, UnlockSession,
};
use wearlock_faults::{FaultConfig, FaultIntensity};
use wearlock_runtime::SweepRunner;
use wearlock_telemetry::MetricsRecorder;

/// The swept fault intensities; index 0 is the benign baseline.
pub const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Aggregated results of one intensity level.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityPoint {
    /// The fault intensity of this point.
    pub intensity: f64,
    /// Retry series run at this intensity.
    pub trials: usize,
    /// Series WearLock unlocked (acoustic or motion skip).
    pub unlocks: usize,
    /// Series that exhausted their budget and fell back to PIN.
    pub surrenders: usize,
    /// Series denied outright (no PIN fallback).
    pub denials: usize,
    /// Escalated retries across all series.
    pub escalations: u64,
    /// Mean acoustic attempts per series.
    pub mean_tries: f64,
    /// Mean wall clock per series (attempts + backoff + PIN), seconds.
    pub mean_delay_s: f64,
}

impl IntensityPoint {
    /// Fraction of series WearLock unlocked (PIN fallback counts as a
    /// failure of the acoustic path).
    pub fn unlock_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.unlocks as f64 / self.trials as f64
        }
    }
}

/// One series' result, classified (private per-task record).
#[derive(Debug, Clone, Copy)]
struct TrialResult {
    unlocked: bool,
    surrendered: bool,
    tries: usize,
    delay_s: f64,
    escalations: u32,
}

/// Runs `trials` budgeted retry series per intensity, recording
/// telemetry into `metrics`, and returns one aggregate per intensity in
/// sweep order. Also sets the per-intensity unlock-rate gauges on
/// `metrics` (after aggregation, on the main thread, so the values —
/// and the metrics JSON — stay deterministic).
pub fn run(
    trials: usize,
    seed: u64,
    runner: &SweepRunner,
    metrics: &MetricsRecorder,
) -> Vec<IntensityPoint> {
    let trials = trials.max(1);
    let policy = RetryPolicy::default();
    let results: Vec<TrialResult> =
        runner.run_with_metrics(INTENSITIES.len() * trials, seed, metrics, |i, rng, sink| {
            let intensity = INTENSITIES[i / trials];
            let mut session =
                UnlockSession::new(WearLockConfig::default()).expect("default config is valid");
            // The fault seed comes from the task's derived RNG, so
            // the fault sequence is a pure function of (seed, task).
            let faults = FaultConfig::new(rng.gen::<u64>(), FaultIntensity::uniform(intensity));
            let options = AttemptOptions::new()
                .fault_config(faults)
                .retry_policy(policy)
                .sink(sink);
            let rep = session.run(&Environment::default(), &options, rng);
            TrialResult {
                unlocked: rep.unlocked(),
                surrendered: rep.outcome == ResilientOutcome::PinFallback,
                tries: rep.tries(),
                delay_s: rep.total_delay.value(),
                escalations: rep.escalations,
            }
        });

    let points: Vec<IntensityPoint> = INTENSITIES
        .iter()
        .enumerate()
        .map(|(k, &intensity)| {
            let slice = &results[k * trials..(k + 1) * trials];
            let unlocks = slice.iter().filter(|r| r.unlocked).count();
            let surrenders = slice.iter().filter(|r| r.surrendered).count();
            IntensityPoint {
                intensity,
                trials,
                unlocks,
                surrenders,
                denials: trials - unlocks - surrenders,
                escalations: slice.iter().map(|r| r.escalations as u64).sum(),
                mean_tries: slice.iter().map(|r| r.tries as f64).sum::<f64>() / trials as f64,
                mean_delay_s: slice.iter().map(|r| r.delay_s).sum::<f64>() / trials as f64,
            }
        })
        .collect();

    for p in &points {
        metrics.set_gauge(
            &format!(
                "resilience.i{:03}.unlock_rate",
                (p.intensity * 100.0) as u32
            ),
            p.unlock_rate(),
        );
    }
    metrics.set_gauge("resilience.benign.unlock_rate", points[0].unlock_rate());
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_intensity_and_sets_gauges() {
        let runner = SweepRunner::new(1);
        let metrics = MetricsRecorder::new();
        let pts = run(2, 7, &runner, &metrics);
        assert_eq!(pts.len(), INTENSITIES.len());
        for (p, &i) in pts.iter().zip(&INTENSITIES) {
            assert_eq!(p.intensity, i);
            assert_eq!(p.trials, 2);
            assert_eq!(p.unlocks + p.surrenders + p.denials, 2);
        }
        let snap = metrics.snapshot();
        assert_eq!(
            snap.gauges["resilience.benign.unlock_rate"],
            pts[0].unlock_rate()
        );
        assert_eq!(
            snap.gauges["resilience.i100.unlock_rate"],
            pts[4].unlock_rate()
        );
    }

    #[test]
    fn benign_baseline_beats_full_intensity() {
        let runner = SweepRunner::new(0);
        let pts = run(8, 20170605, &runner, &MetricsRecorder::new());
        assert!(
            pts[0].unlock_rate() >= pts[4].unlock_rate(),
            "benign {} < full {}",
            pts[0].unlock_rate(),
            pts[4].unlock_rate()
        );
        assert!(pts[0].unlock_rate() >= 0.75, "{pts:?}");
    }
}
