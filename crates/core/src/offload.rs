//! Computation offloading (paper §V).
//!
//! Every unlock runs heavy DSP (preamble cross-correlation, OFDM
//! demodulation). The watch can run it locally — or ship its recording
//! to the phone, trading a file transfer for a much faster and more
//! energy-efficient CPU. This module prices both options and implements
//! the planner behind Figs. 6 and 10.

use rand::Rng;

use wearlock_dsp::units::Seconds;
use wearlock_platform::device::{DeviceModel, Workload};
use wearlock_platform::link::{pcm_bytes, WirelessLink};

use crate::config::ExecutionPlan;

/// Cost of running one processing step under a plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepCost {
    /// Wall-clock time the unlock waits for this step.
    pub time: Seconds,
    /// Energy drawn from the watch battery, joules.
    pub watch_energy_j: f64,
    /// Energy drawn from the phone battery, joules.
    pub phone_energy_j: f64,
}

impl StepCost {
    /// Component-wise sum.
    pub fn plus(self, other: StepCost) -> StepCost {
        StepCost {
            time: Seconds(self.time.value() + other.time.value()),
            watch_energy_j: self.watch_energy_j + other.watch_energy_j,
            phone_energy_j: self.phone_energy_j + other.phone_energy_j,
        }
    }
}

/// Prices one processing step over `audio_samples` of recorded audio
/// under `plan`.
///
/// * Local: the watch computes; nothing crosses the link (the verdict
///   message is priced with the rest of the control traffic).
/// * Offload: the watch ships 16-bit PCM to the phone (file-transfer
///   delay), then the phone computes. The radio energy is split per
///   battery: the watch pays the transmit side, the phone the receive
///   side ([`WirelessLink::tx_energy`] / [`WirelessLink::rx_energy`]).
pub fn step_cost<R: Rng + ?Sized>(
    plan: ExecutionPlan,
    workload: &Workload,
    audio_samples: usize,
    phone: &DeviceModel,
    watch: &DeviceModel,
    link: &WirelessLink,
    rng: &mut R,
) -> StepCost {
    price(plan, workload, audio_samples, phone, watch, link, |bytes| {
        link.file_delay(bytes, rng)
    })
}

/// [`step_cost`] with the file transfer at its jitter-free median
/// ([`WirelessLink::file_delay_median`]): the deterministic cost that
/// planning and projections compare.
pub fn median_step_cost(
    plan: ExecutionPlan,
    workload: &Workload,
    audio_samples: usize,
    phone: &DeviceModel,
    watch: &DeviceModel,
    link: &WirelessLink,
) -> StepCost {
    price(plan, workload, audio_samples, phone, watch, link, |bytes| {
        link.file_delay_median(bytes)
    })
}

/// Prices a step with `transfer(bytes)` as the offload's file-transfer
/// delay (called only when offloading).
fn price(
    plan: ExecutionPlan,
    workload: &Workload,
    audio_samples: usize,
    phone: &DeviceModel,
    watch: &DeviceModel,
    link: &WirelessLink,
    transfer: impl FnOnce(usize) -> Seconds,
) -> StepCost {
    match plan {
        ExecutionPlan::LocalOnWatch => StepCost {
            time: watch.execute(workload),
            watch_energy_j: watch.energy_for(workload),
            phone_energy_j: 0.0,
        },
        ExecutionPlan::OffloadToPhone => {
            let bytes = pcm_bytes(audio_samples);
            StepCost {
                time: Seconds(transfer(bytes).value() + phone.execute(workload).value()),
                watch_energy_j: link.tx_energy(bytes),
                phone_energy_j: phone.energy_for(workload) + link.rx_energy(bytes),
            }
        }
    }
}

/// Picks the plan with the lower expected wall-clock time (jitter-free
/// medians), breaking ties toward offloading (it always saves watch
/// energy).
pub fn choose_plan(
    workload: &Workload,
    audio_samples: usize,
    phone: &DeviceModel,
    watch: &DeviceModel,
    link: &WirelessLink,
) -> ExecutionPlan {
    let time = |plan| {
        median_step_cost(plan, workload, audio_samples, phone, watch, link)
            .time
            .value()
    };
    if time(ExecutionPlan::LocalOnWatch) < time(ExecutionPlan::OffloadToPhone) {
        ExecutionPlan::LocalOnWatch
    } else {
        ExecutionPlan::OffloadToPhone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_platform::link::Transport;

    fn demod_workload() -> Workload {
        Workload::combined(&[
            Workload::CrossCorrelation {
                signal_len: 20_000,
                template_len: 256,
            },
            Workload::OfdmDemod {
                blocks: 6,
                fft_size: 256,
                cp_len: 128,
            },
        ])
    }

    #[test]
    fn offload_over_wifi_beats_local_on_time_and_watch_energy() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = demod_workload();
        let phone = DeviceModel::nexus6();
        let watch = DeviceModel::moto360();
        let wifi = WirelessLink::wifi();
        let local = step_cost(
            ExecutionPlan::LocalOnWatch,
            &w,
            20_000,
            &phone,
            &watch,
            &wifi,
            &mut rng,
        );
        let off = step_cost(
            ExecutionPlan::OffloadToPhone,
            &w,
            20_000,
            &phone,
            &watch,
            &wifi,
            &mut rng,
        );
        assert!(
            off.time.value() < local.time.value(),
            "{off:?} vs {local:?}"
        );
        assert!(off.watch_energy_j < local.watch_energy_j);
        assert!(off.phone_energy_j > 0.0 && local.phone_energy_j == 0.0);
    }

    #[test]
    fn planner_prefers_offload_for_heavy_work() {
        let w = demod_workload();
        let plan = choose_plan(
            &w,
            20_000,
            &DeviceModel::nexus6(),
            &DeviceModel::moto360(),
            &WirelessLink::new(Transport::Wifi),
        );
        assert_eq!(plan, ExecutionPlan::OffloadToPhone);
    }

    #[test]
    fn planner_keeps_tiny_work_local_over_slow_links() {
        // A trivial workload isn't worth a Bluetooth file transfer.
        let w = Workload::Raw(1e4);
        let plan = choose_plan(
            &w,
            20_000,
            &DeviceModel::nexus6(),
            &DeviceModel::moto360(),
            &WirelessLink::new(Transport::Bluetooth),
        );
        assert_eq!(plan, ExecutionPlan::LocalOnWatch);
    }

    #[test]
    fn offload_charges_each_battery_its_own_radio_side() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Workload::Raw(0.0); // isolate the radio energies
        let phone = DeviceModel::nexus6();
        let watch = DeviceModel::moto360();
        let link = WirelessLink::bluetooth();
        let samples = 20_000;
        let cost = step_cost(
            ExecutionPlan::OffloadToPhone,
            &w,
            samples,
            &phone,
            &watch,
            &link,
            &mut rng,
        );
        let bytes = pcm_bytes(samples);
        assert!((cost.watch_energy_j - link.tx_energy(bytes)).abs() < 1e-15);
        let phone_radio = cost.phone_energy_j - phone.energy_for(&w);
        assert!((phone_radio - link.rx_energy(bytes)).abs() < 1e-15);
        // No double charge: the two ledgers together account for exactly
        // one link crossing plus the phone's compute.
        let total = cost.watch_energy_j + cost.phone_energy_j;
        let expect = link.transfer_energy(bytes) + phone.energy_for(&w);
        assert!((total - expect).abs() < 1e-15);
    }

    #[test]
    fn step_cost_plus_sums() {
        let a = StepCost {
            time: Seconds(1.0),
            watch_energy_j: 0.5,
            phone_energy_j: 0.2,
        };
        let b = StepCost {
            time: Seconds(0.5),
            watch_energy_j: 0.1,
            phone_energy_j: 0.3,
        };
        let c = a.plus(b);
        assert!((c.time.value() - 1.5).abs() < 1e-12);
        assert!((c.watch_energy_j - 0.6).abs() < 1e-12);
        assert!((c.phone_energy_j - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bluetooth_offload_slower_than_wifi_offload() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = demod_workload();
        let phone = DeviceModel::galaxy_nexus();
        let watch = DeviceModel::moto360();
        let bt = step_cost(
            ExecutionPlan::OffloadToPhone,
            &w,
            20_000,
            &phone,
            &watch,
            &WirelessLink::bluetooth(),
            &mut rng,
        );
        let wifi = step_cost(
            ExecutionPlan::OffloadToPhone,
            &w,
            20_000,
            &DeviceModel::nexus6(),
            &watch,
            &WirelessLink::wifi(),
            &mut rng,
        );
        assert!(bt.time.value() > wifi.time.value());
    }

    #[test]
    fn median_step_cost_prices_the_median_transfer() {
        let w = demod_workload();
        let phone = DeviceModel::galaxy_nexus();
        let watch = DeviceModel::moto360();
        let link = WirelessLink::bluetooth();
        let samples = 20_000;
        let off = median_step_cost(
            ExecutionPlan::OffloadToPhone,
            &w,
            samples,
            &phone,
            &watch,
            &link,
        );
        // 60 ms latency + 40 kB at 110 kB/s, then the phone's compute.
        let transfer = 0.060 + 40_000.0 / 110e3;
        let expect = transfer + phone.execute(&w).value();
        assert!((off.time.value() - expect).abs() < 1e-12, "{off:?}");
        assert_eq!(off.watch_energy_j, link.tx_energy(pcm_bytes(samples)));
        let local = median_step_cost(
            ExecutionPlan::LocalOnWatch,
            &w,
            samples,
            &phone,
            &watch,
            &link,
        );
        assert_eq!(local.time, watch.execute(&w));
    }
}
