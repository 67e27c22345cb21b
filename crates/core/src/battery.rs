//! Daily battery-impact projection.
//!
//! The paper measures per-round energy (Fig. 6) and "anticipate\[s\] more
//! energy saving in daily usage". This module projects one day of
//! realistic usage: smartphone users unlock ~40–50 times per day
//! (Harbach et al., the paper's \[2\]), a fraction of which the motion
//! filter resolves without any acoustics.

use wearlock_platform::device::{DeviceModel, Workload};
use wearlock_platform::link::WirelessLink;

use crate::config::ExecutionPlan;
use crate::offload::median_step_cost;

/// A day of unlocking behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageProfile {
    /// Unlocks per day (paper's \[2\] reports ~47 sessions/day median).
    pub unlocks_per_day: u32,
    /// Fraction resolved by the motion filter alone (no acoustics).
    pub motion_skip_fraction: f64,
    /// Fraction aborted by cheap filters before any audio (no wireless
    /// link, motion mismatch).
    pub early_abort_fraction: f64,
}

impl Default for UsageProfile {
    fn default() -> Self {
        UsageProfile {
            unlocks_per_day: 47,
            motion_skip_fraction: 0.15,
            early_abort_fraction: 0.10,
        }
    }
}

/// Projected daily energy cost on the watch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DailyCost {
    /// The plan evaluated.
    pub plan: ExecutionPlan,
    /// Acoustic unlock rounds actually executed.
    pub acoustic_rounds: u32,
    /// Total watch energy, joules/day.
    pub watch_j_per_day: f64,
    /// Fraction of the watch battery consumed per day.
    pub watch_battery_per_day: f64,
    /// Total phone energy, joules/day.
    pub phone_j_per_day: f64,
}

/// One acoustic round's processing workload (post-trim sizes, matching
/// the session's accounting).
fn round_workload() -> (Workload, usize) {
    (
        Workload::combined(&[
            Workload::CrossCorrelation {
                signal_len: 4_666,
                template_len: 256,
            },
            Workload::Fft {
                size: 256,
                count: 10,
            },
            Workload::CrossCorrelation {
                signal_len: 4_666,
                template_len: 256,
            },
            Workload::OfdmDemod {
                blocks: 7,
                fft_size: 256,
                cp_len: 128,
            },
        ]),
        11_000,
    )
}

/// Projects the daily watch/phone energy for `plan` under `profile`.
///
/// Deterministic: each round's transfer is priced at its jitter-free
/// median ([`median_step_cost`]).
pub fn project_daily(
    profile: &UsageProfile,
    plan: ExecutionPlan,
    phone: &DeviceModel,
    watch: &DeviceModel,
    link: &WirelessLink,
) -> DailyCost {
    let skip = (profile.motion_skip_fraction + profile.early_abort_fraction).clamp(0.0, 1.0);
    let acoustic_rounds = ((profile.unlocks_per_day as f64) * (1.0 - skip)).round() as u32;
    let (work, samples) = round_workload();

    let per_round = median_step_cost(plan, &work, samples, phone, watch, link);

    let watch_j = per_round.watch_energy_j * acoustic_rounds as f64;
    let phone_j = per_round.phone_energy_j * acoustic_rounds as f64;
    DailyCost {
        plan,
        acoustic_rounds,
        watch_j_per_day: watch_j,
        watch_battery_per_day: watch.battery_fraction(watch_j),
        phone_j_per_day: phone_j,
    }
}

/// Convenience: local-vs-offload daily comparison with the paper's
/// default devices.
pub fn daily_comparison(profile: &UsageProfile) -> (DailyCost, DailyCost) {
    let phone = DeviceModel::nexus6();
    let watch = DeviceModel::moto360();
    let link = WirelessLink::wifi();
    (
        project_daily(profile, ExecutionPlan::LocalOnWatch, &phone, &watch, &link),
        project_daily(
            profile,
            ExecutionPlan::OffloadToPhone,
            &phone,
            &watch,
            &link,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offloading_saves_watch_battery_daily() {
        let (local, offload) = daily_comparison(&UsageProfile::default());
        assert!(local.watch_battery_per_day > 5.0 * offload.watch_battery_per_day);
        assert!(offload.phone_j_per_day > 0.0);
        assert_eq!(local.phone_j_per_day, 0.0);
    }

    #[test]
    fn filters_reduce_acoustic_rounds() {
        let none = UsageProfile {
            motion_skip_fraction: 0.0,
            early_abort_fraction: 0.0,
            ..UsageProfile::default()
        };
        let heavy = UsageProfile {
            motion_skip_fraction: 0.5,
            early_abort_fraction: 0.2,
            ..UsageProfile::default()
        };
        let (l_none, _) = daily_comparison(&none);
        let (l_heavy, _) = daily_comparison(&heavy);
        assert!(l_heavy.acoustic_rounds < l_none.acoustic_rounds);
        assert!(l_heavy.watch_j_per_day < l_none.watch_j_per_day);
    }

    #[test]
    fn local_daily_drain_is_noticeable_but_bounded() {
        let (local, _) = daily_comparison(&UsageProfile::default());
        // ~35 acoustic rounds × watch DSP: enough to notice (paper's
        // motivation for offloading) but far from draining the battery.
        assert!(local.watch_battery_per_day > 0.001);
        assert!(local.watch_battery_per_day < 0.2);
    }

    #[test]
    fn skip_fractions_clamped() {
        let silly = UsageProfile {
            motion_skip_fraction: 0.9,
            early_abort_fraction: 0.9,
            ..UsageProfile::default()
        };
        let (l, _) = daily_comparison(&silly);
        assert_eq!(l.acoustic_rounds, 0);
        assert_eq!(l.watch_j_per_day, 0.0);
    }

    #[test]
    fn daily_figures_price_transfers_at_their_median() {
        let close = |got: f64, want: f64| {
            assert!((got - want).abs() <= 1e-12 * want, "got {got}, want {want}");
        };
        let (local, offload) = daily_comparison(&UsageProfile::default());
        // 47 unlocks a day, a quarter resolved without acoustics.
        assert_eq!(local.acoustic_rounds, 35);
        assert_eq!(offload.acoustic_rounds, 35);
        // One round: two 4 666-sample searches for a 256-sample
        // template (2.5 ops per lag and tap), ten 256-point FFTs
        // (8 ops per butterfly) and seven OFDM blocks.
        let block = 8.0 * 256.0 * 8.0 + 17.0 * 3.0 * 128.0 + 40.0 * 256.0;
        let ops = 2.0 * 2.5 * 4_411.0 * 256.0 + 8.0 * 256.0 * 8.0 * 10.0 + 7.0 * block;
        // Local: the Moto 360 computes at 10 Mops/s and 0.45 W.
        close(local.watch_j_per_day, 35.0 * ops / 1e7 * 0.45);
        assert_eq!(local.phone_j_per_day, 0.0);
        // Offload over WiFi: 11 000 samples are 22 kB, a median 15 ms
        // plus 22 kB at 1.8 MB/s; the watch sends at 0.28 W, the
        // Nexus 6 receives at 0.18 W and computes at 240 Mops/s, 2.2 W.
        let transfer = 0.015 + 22_000.0 / 1.8e6;
        close(offload.watch_j_per_day, 35.0 * transfer * 0.28);
        close(
            offload.phone_j_per_day,
            35.0 * (ops / 2.4e8 * 2.2 + transfer * 0.18),
        );
    }
}
