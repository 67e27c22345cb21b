//! Adaptive modulation policy.
//!
//! Unlike a throughput-maximizing link adaptation, WearLock picks the
//! modulation that keeps the *expected BER under a target* (`MaxBER`)
//! given the probe's Eb/N0 — deliberately choosing higher-order, more
//! fragile modulations when SNR headroom exists so that an eavesdropper
//! farther than ~1 m sees a much higher BER (paper §III.7, Figs. 5/8).
//!
//! The BER model below is fitted to the BER-vs-Eb/N0 curves measured on
//! this repository's own channel simulator (`repro fig5` regenerates
//! them): a log-linear waterfall `log10(BER) = a − b·Eb/N0` clamped at a
//! per-modulation *error floor* caused by the audio chain's phase
//! ripple. Amplitude keying has (almost) no floor — the hardware effect
//! the paper reports as "ASK needs less SNR per bit than PSK"; phase
//! keying floors at 8PSK/16QAM make them unusable at tight BER targets,
//! matching the paper's observation that 16QAM "is not usable in real
//! experiments or at least may need heavy error correction".

use wearlock_dsp::units::Db;

use crate::constellation::Modulation;
use crate::error::ModemError;

/// The three transmission modes WearLock actually deploys (paper
/// §III.7 settles on QASK, QPSK and 8PSK).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransmissionMode {
    /// Quaternary ASK — phase-impairment-immune fallback, 2 bits/symbol.
    Qask,
    /// QPSK — middle ground, 2 bits/symbol.
    Qpsk,
    /// 8PSK — fastest, most fragile, 3 bits/symbol.
    Psk8,
}

impl TransmissionMode {
    /// All modes from most to least robust (ladder order).
    pub const ALL: [TransmissionMode; 3] = [
        TransmissionMode::Qask,
        TransmissionMode::Qpsk,
        TransmissionMode::Psk8,
    ];

    /// The underlying constellation.
    pub fn modulation(self) -> Modulation {
        match self {
            TransmissionMode::Qask => Modulation::Qask,
            TransmissionMode::Qpsk => Modulation::Qpsk,
            TransmissionMode::Psk8 => Modulation::Psk8,
        }
    }

    /// Bits per symbol of the mode.
    pub fn bits_per_symbol(self) -> usize {
        self.modulation().bits_per_symbol()
    }
}

impl std::fmt::Display for TransmissionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.modulation().fmt(f)
    }
}

/// Per-modulation fit: `(modulation, a, b, floor)` such that
/// `BER(e) = max(floor, clamp(10^(a − b·e)))`, fitted to the simulator's
/// Fig. 5 sweep (anchors: measured Eb/N0 at BER 0.1 and 0.01).
const BER_FIT: [(Modulation, f64, f64, f64); 6] = [
    // BASK: 0.1 @ 11 dB, 0.01 @ 16 dB, no floor.
    (Modulation::Bask, 1.200, 0.2000, 1e-5),
    // QASK: 0.1 @ 13 dB, 0.01 @ 23 dB, floor 0.0025.
    (Modulation::Qask, 0.300, 0.1000, 2.5e-3),
    // BPSK: 0.1 @ 6 dB, 0.01 @ 10 dB, no floor.
    (Modulation::Bpsk, 0.500, 0.2500, 1e-5),
    // QPSK: 0.1 @ 6.5 dB, 0.01 @ 11 dB, floor 0.001.
    (Modulation::Qpsk, 0.444, 0.2222, 1e-3),
    // 8PSK: 0.1 @ 9 dB, floor 0.013 (>0.01: unusable at tight targets).
    (Modulation::Psk8, -0.583, 0.0463, 1.3e-2),
    // 16QAM: 0.1 @ 9.7 dB, floor 0.014.
    (Modulation::Qam16, -0.341, 0.0679, 1.4e-2),
];

fn fit(modulation: Modulation) -> (f64, f64, f64) {
    let (_, a, b, floor) = BER_FIT
        .iter()
        .find(|(m, _, _, _)| *m == modulation)
        .copied()
        .expect("all modulations are fitted");
    (a, b, floor)
}

/// Predicted BER for `modulation` at a given Eb/N0 under the fitted
/// model, clamped to `[floor, 0.5]`.
pub fn predicted_ber(modulation: Modulation, ebn0: Db) -> f64 {
    let (a, b, floor) = fit(modulation);
    10f64.powf(a - b * ebn0.value()).clamp(floor, 0.5)
}

/// The error floor of `modulation` on this hardware model — the BER it
/// cannot go below no matter the SNR.
pub fn error_floor(modulation: Modulation) -> f64 {
    fit(modulation).2
}

/// Minimum Eb/N0 (dB) at which `modulation` stays under `max_ber`, or
/// `None` when the modulation's error floor sits above `max_ber` (no
/// amount of SNR helps).
pub fn required_ebn0(modulation: Modulation, max_ber: f64) -> Option<Db> {
    let (a, b, floor) = fit(modulation);
    if max_ber <= floor {
        return None;
    }
    Some(Db((a - max_ber.log10()) / b))
}

/// The Eb/N0 headroom, dB, a mode must clear above its fitted
/// requirement: the fit is measured under white noise, real
/// environments are burstier, so the boundary needs headroom.
const SELECTION_MARGIN_DB: f64 = 3.0;

/// The adaptive modulation policy: keep BER under `max_ber` while
/// preferring the highest-order usable mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModePolicy {
    max_ber: f64,
}

impl ModePolicy {
    /// Creates a policy with the given BER ceiling and the 3 dB
    /// selection margin.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::InvalidInput`] unless `max_ber ∈ (0, 0.5]`.
    pub fn new(max_ber: f64) -> Result<Self, ModemError> {
        if !(max_ber > 0.0 && max_ber <= 0.5) {
            return Err(ModemError::InvalidInput(format!(
                "max_ber {max_ber} outside (0, 0.5]"
            )));
        }
        Ok(ModePolicy { max_ber })
    }

    /// The BER ceiling.
    pub fn max_ber(&self) -> f64 {
        self.max_ber
    }

    /// Selects the highest-order transmission mode whose required Eb/N0
    /// (plus the selection margin) is satisfied, or `None` when no mode
    /// can make the target — the transmitter then aborts (receiver
    /// outside the secure range).
    pub fn select_mode(&self, ebn0: Db) -> Option<TransmissionMode> {
        for mode in [
            TransmissionMode::Psk8,
            TransmissionMode::Qpsk,
            TransmissionMode::Qask,
        ] {
            if let Some(req) = required_ebn0(mode.modulation(), self.max_ber) {
                if ebn0.value() >= req.value() + SELECTION_MARGIN_DB {
                    return Some(mode);
                }
            }
        }
        None
    }

    /// The minimal Eb/N0 for *any* transmission to be allowed (the
    /// `SNR_min` of the paper's volume-control rule): the smallest
    /// requirement across usable modes.
    pub fn min_ebn0(&self) -> Db {
        TransmissionMode::ALL
            .iter()
            .filter_map(|m| required_ebn0(m.modulation(), self.max_ber))
            .min_by(|a, b| a.value().total_cmp(&b.value()))
            .unwrap_or(Db(f64::INFINITY))
    }
}

impl Default for ModePolicy {
    /// The paper's common operating point, `MaxBER = 0.1`.
    fn default() -> Self {
        ModePolicy { max_ber: 0.1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation() {
        assert!(ModePolicy::new(0.0).is_err());
        assert!(ModePolicy::new(0.7).is_err());
        assert!(ModePolicy::new(-0.1).is_err());
        assert!(ModePolicy::new(0.1).is_ok());
    }

    #[test]
    fn all_modes_usable_at_maxber_point_one() {
        for m in [Modulation::Qask, Modulation::Qpsk, Modulation::Psk8] {
            assert!(required_ebn0(m, 0.1).is_some(), "{m} unusable at 0.1");
        }
    }

    #[test]
    fn phase_floors_kill_high_order_at_tight_targets() {
        // At MaxBER 0.01 only QASK and QPSK survive (paper: "If
        // MaxBER = 0.01, then we can choose modulation like QPSK and
        // QASK").
        assert!(required_ebn0(Modulation::Qask, 0.01).is_some());
        assert!(required_ebn0(Modulation::Qpsk, 0.01).is_some());
        assert!(required_ebn0(Modulation::Psk8, 0.01).is_none());
        assert!(required_ebn0(Modulation::Qam16, 0.01).is_none());
    }

    #[test]
    fn ask_has_no_phase_error_floor() {
        // The hardware phase ripple floors PSK/QAM but not ASK — the
        // simulator's version of "ASK needs less SNR per bit than PSK".
        assert!(error_floor(Modulation::Bask) < 1e-3);
        assert!(error_floor(Modulation::Qask) < error_floor(Modulation::Psk8));
        assert!(error_floor(Modulation::Qpsk) < error_floor(Modulation::Psk8));
        assert!(error_floor(Modulation::Qam16) > 0.01);
    }

    #[test]
    fn predicted_ber_monotone_nonincreasing_in_snr() {
        for m in Modulation::ALL {
            let mut prev = 1.0;
            for e in (0..70).step_by(5) {
                let ber = predicted_ber(m, Db(e as f64));
                assert!(ber <= prev + 1e-12, "{m} not monotone at {e}");
                prev = ber;
            }
        }
    }

    #[test]
    fn tighter_ber_drops_to_lower_order() {
        let e = Db(15.0); // enough for 8PSK at 0.1 (9 + 3 margin), not for 0.01
        let loose = ModePolicy::new(0.1).unwrap();
        let tight = ModePolicy::new(0.01).unwrap();
        assert_eq!(loose.select_mode(e), Some(TransmissionMode::Psk8));
        let t = tight.select_mode(e).unwrap();
        assert!(t < TransmissionMode::Psk8, "tight policy chose {t}");
    }

    #[test]
    fn hopeless_snr_aborts() {
        let policy = ModePolicy::default();
        assert_eq!(policy.select_mode(Db(-30.0)), None);
    }

    #[test]
    fn generous_snr_uses_8psk() {
        let policy = ModePolicy::default();
        assert_eq!(policy.select_mode(Db(70.0)), Some(TransmissionMode::Psk8));
    }

    #[test]
    fn min_ebn0_is_finite_at_relaxed_targets() {
        let p = ModePolicy::default();
        assert!(p.min_ebn0().value().is_finite());
        // Impossibly tight target: every deployed mode's floor is above
        // it, so nothing is usable at any SNR.
        let tight = ModePolicy::new(1e-4).unwrap();
        assert_eq!(tight.select_mode(Db(80.0)), None);
        assert!(tight.min_ebn0().value().is_infinite());
    }

    #[test]
    fn mode_metadata() {
        assert_eq!(TransmissionMode::Psk8.bits_per_symbol(), 3);
        assert_eq!(TransmissionMode::Qask.modulation(), Modulation::Qask);
        assert_eq!(TransmissionMode::Psk8.to_string(), "8PSK");
    }

    #[test]
    fn required_and_predicted_are_consistent() {
        for m in Modulation::ALL {
            for ber in [0.2, 0.1, 0.05] {
                if let Some(e) = required_ebn0(m, ber) {
                    let p = predicted_ber(m, e);
                    assert!(
                        (p - ber).abs() / ber < 0.01,
                        "{m}: predicted {p} at required point vs {ber}"
                    );
                }
            }
        }
    }

    #[test]
    fn eavesdropper_penalty_grows_with_order() {
        // Just below the 8PSK requirement, predicted BER is higher for
        // the higher-order mode: the security argument for adaptive
        // modulation (an eavesdropper with less SNR suffers more when
        // the link runs a fragile constellation).
        let e = Db(8.0);
        let b_qpsk = predicted_ber(Modulation::Qpsk, e);
        let b_psk8 = predicted_ber(Modulation::Psk8, e);
        assert!(b_psk8 > b_qpsk);
    }
}
