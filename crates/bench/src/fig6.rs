//! Figure 6: time (a) and power (b) of offloading vs local processing
//! on the wearable, over 50 acoustic-unlock rounds.

use wearlock::config::{ExecutionPlan, WearLockConfig};
use wearlock::offload::step_cost;
use wearlock::trim;
use wearlock_auth::TOKEN_BITS;
use wearlock_modem::config::{CP_LEN, FFT_SIZE, PREAMBLE_LEN};
use wearlock_modem::{Modulation, OfdmModulator};
use wearlock_platform::device::{DeviceModel, Workload};
use wearlock_platform::link::WirelessLink;
use wearlock_runtime::SweepRunner;
use wearlock_telemetry::{EventSink, MetricsRecorder, StageSpan};

/// Aggregate of the 50-round comparison for one plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// The plan measured.
    pub plan: ExecutionPlan,
    /// Mean per-round processing wall time, seconds.
    pub mean_time_s: f64,
    /// Total watch battery energy over all rounds, joules.
    pub watch_energy_j: f64,
    /// Total watch battery fraction consumed.
    pub watch_battery_fraction: f64,
}

/// One unlock round's processing workload, sized from the default
/// session configuration (post-trim clip lengths, trim-bounded preamble
/// searches) so a config change re-prices the benchmark automatically.
fn round_workload() -> (Workload, usize) {
    let config = WearLockConfig::default();
    let modem = config.modem();
    let tx = OfdmModulator::new(modem.clone()).expect("default modem config is valid");
    // The trim anchors each clip, so both phases' preamble searches
    // scan the onset→peak span: the ±pad slack plus one template.
    let search_len = trim::NOMINAL_SEARCH_LEN;
    let coded = config.token_coding().coded_len(TOKEN_BITS);
    // QPSK is the mode adaptive modulation settles on at unlock range.
    let blocks = tx.blocks_for(coded, Modulation::Qpsk);
    // The clip shipped to the phone: the trimmed token recording.
    let samples = trim::planned_len(
        tx.frame_len(coded, Modulation::Qpsk),
        trim::TOKEN_NOISE_LEAD_S,
    );
    (
        Workload::combined(&[
            Workload::CrossCorrelation {
                signal_len: search_len,
                template_len: PREAMBLE_LEN,
            },
            Workload::Fft {
                size: FFT_SIZE,
                count: 10,
            },
            Workload::CrossCorrelation {
                signal_len: search_len,
                template_len: PREAMBLE_LEN,
            },
            Workload::OfdmDemod {
                blocks,
                fft_size: FFT_SIZE,
                cp_len: CP_LEN,
            },
        ]),
        samples,
    )
}

/// Runs the 50-round comparison (paper: "we run our system for 50
/// rounds of acoustic unlocking").
///
/// Every (plan, round) pair is an independent task with its own derived
/// RNG, so the result is identical for any worker count. Each round's
/// cost is recorded as a per-plan stage span in `metrics` (merged
/// deterministically in round order, so the metrics JSON is identical
/// for any worker count too).
pub fn run(
    rounds: usize,
    seed: u64,
    runner: &SweepRunner,
    metrics: &MetricsRecorder,
) -> (PlanCost, PlanCost) {
    let phone = DeviceModel::nexus6();
    let watch = DeviceModel::moto360();
    let link = WirelessLink::wifi();
    let (work, samples) = round_workload();
    let plans = [ExecutionPlan::LocalOnWatch, ExecutionPlan::OffloadToPhone];

    let costs = runner.run_with_metrics(plans.len() * rounds.max(1), seed, metrics, |i, rng, m| {
        let plan = plans[i / rounds.max(1)];
        let cost = step_cost(plan, &work, samples, &phone, &watch, &link, rng);
        m.record_span(&StageSpan {
            stage: match plan {
                ExecutionPlan::LocalOnWatch => "offload:local-on-watch",
                ExecutionPlan::OffloadToPhone => "offload:to-phone",
            },
            duration_s: cost.time.value(),
            watch_energy_j: cost.watch_energy_j,
            phone_energy_j: cost.phone_energy_j,
        });
        cost
    });

    let aggregate = |plan_idx: usize| -> PlanCost {
        let per_round = &costs[plan_idx * rounds.max(1)..(plan_idx + 1) * rounds.max(1)];
        let time: f64 = per_round.iter().map(|c| c.time.value()).sum();
        let watch_j: f64 = per_round.iter().map(|c| c.watch_energy_j).sum();
        PlanCost {
            plan: plans[plan_idx],
            mean_time_s: time / rounds.max(1) as f64,
            watch_energy_j: watch_j,
            watch_battery_fraction: watch.battery_fraction(watch_j),
        }
    };
    (aggregate(0), aggregate(1))
}
