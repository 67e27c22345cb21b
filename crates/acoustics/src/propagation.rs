//! Open-air sound propagation: spreading loss and SPL accounting.
//!
//! Paper §III.2: with transmitter level `SPL_tx` and receiver level
//! `SPL_rx` at distance `d`, open-air attenuation follows spherical
//! spreading from a point source, `SPL_tx − SPL_rx = 20·log10(d/d0)`,
//! with `d0` the reference distance (speaker→own-microphone distance,
//! [`REFERENCE_DISTANCE`]). Figure 4 confirms ≈6 dB loss per distance
//! doubling on real devices; WearLock exploits this law to bound the
//! secure range around 1 m by controlling speaker volume.
//!
//! # Examples
//!
//! ```
//! use wearlock_acoustics::propagation::received_spl;
//! use wearlock_dsp::units::{Meters, Spl};
//!
//! let tx = Spl(70.0);
//! let rx_1m = received_spl(tx, Meters(1.0));
//! let rx_2m = received_spl(tx, Meters(2.0));
//! // ~6 dB loss per distance doubling.
//! assert!((rx_1m.value() - rx_2m.value() - 6.0206).abs() < 1e-3);
//! ```

use wearlock_dsp::units::{Db, Meters, Spl};

/// The reference distance `d0` of the spreading law, 5 cm.
pub const REFERENCE_DISTANCE: Meters = Meters(0.05);

/// Attenuation `SPL_tx − SPL_rx` in dB at distance `d`.
///
/// Distances at or below `d0` attenuate by 0 dB (the law does not
/// amplify inside the reference distance).
pub fn attenuation(d: Meters) -> Db {
    let ratio = (d.value() / REFERENCE_DISTANCE.value()).max(1.0);
    Db(20.0 * ratio.log10())
}

/// SPL observed at distance `d` for a source emitting at `tx`.
pub fn received_spl(tx: Spl, d: Meters) -> Spl {
    Spl(tx.value() - attenuation(d).value())
}

/// Linear amplitude gain applied to a waveform travelling distance `d`
/// (always in `(0, 1]`).
pub fn amplitude_gain(d: Meters) -> f64 {
    10f64.powf(-attenuation(d).value() / 20.0)
}

/// SNR at the receiver given transmitter SPL, distance and noise floor:
/// `SNR_rx = SPL_rx − SPL_noise` (paper §III.2).
pub fn received_snr(tx: Spl, d: Meters, noise: Spl) -> Db {
    received_spl(tx, d).snr_against(noise)
}

/// The transmit SPL needed so a receiver at `range` sees at least
/// `min_snr` above the `noise` floor — the paper's volume-control rule
/// `SPL_tx − 20·log10(range/d0) − SPL_noise > SNR_min`.
pub fn required_tx_spl(range: Meters, noise: Spl, min_snr: Db) -> Spl {
    Spl(noise.value() + min_snr.value() + attenuation(range).value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_db_per_doubling() {
        for d in [0.25, 0.5, 1.0, 2.0] {
            let a1 = attenuation(Meters(d));
            let a2 = attenuation(Meters(2.0 * d));
            assert!((a2.value() - a1.value() - 6.0206).abs() < 1e-3);
        }
    }

    #[test]
    fn no_gain_inside_reference_distance() {
        assert_eq!(attenuation(Meters(0.02)), Db(0.0));
        assert_eq!(attenuation(REFERENCE_DISTANCE), Db(0.0));
    }

    #[test]
    fn amplitude_gain_matches_db() {
        let d = Meters(1.0);
        let g = amplitude_gain(d);
        assert!((20.0 * g.log10() + attenuation(d).value()).abs() < 1e-9);
        assert!(g > 0.0 && g <= 1.0);
    }

    #[test]
    fn snr_accounting() {
        let snr = received_snr(Spl(70.0), Meters(0.5), Spl(20.0));
        // 70 - 20·log10(0.5/0.05) = 50 at rx; minus 20 noise = 30 dB.
        assert!((snr.value() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn required_tx_spl_inverts_received_snr() {
        let tx = required_tx_spl(Meters(1.0), Spl(35.0), Db(25.0));
        let got = received_snr(tx, Meters(1.0), Spl(35.0));
        assert!((got.value() - 25.0).abs() < 1e-9);
    }
}
