//! Newtype units used throughout the WearLock reproduction.
//!
//! The paper freely mixes decibels (sound pressure level, SNR, Eb/N0),
//! metres, hertz and seconds; newtypes keep them from being confused
//! (C-NEWTYPE).

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Raw numeric value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }
    };
}

unit!(
    /// A relative level in decibels (power ratio `10·log10`).
    ///
    /// Used for SNR, Eb/N0 and attenuation figures.
    ///
    /// ```
    /// use wearlock_dsp::units::Db;
    /// let snr = Db(20.0);
    /// assert!((snr.to_linear_power() - 100.0).abs() < 1e-9);
    /// assert!((Db::from_linear_power(100.0).value() - 20.0).abs() < 1e-9);
    /// ```
    Db,
    "dB"
);

unit!(
    /// Sound pressure level in dB relative to the reference pressure
    /// (`SPL = 20·log10(p/p_ref)`, paper §III).
    Spl,
    "dB SPL"
);

unit!(
    /// A distance in metres.
    Meters,
    "m"
);

unit!(
    /// A frequency in hertz.
    Hz,
    "Hz"
);

unit!(
    /// A duration in seconds.
    Seconds,
    "s"
);

impl Db {
    /// Converts a dB power ratio to a linear power ratio.
    #[inline]
    pub fn to_linear_power(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Converts a dB ratio to a linear *amplitude* ratio (20·log10 form).
    #[inline]
    pub fn to_linear_amplitude(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }

    /// Creates a dB value from a linear power ratio.
    ///
    /// Ratios `<= 0` map to `-inf` dB, mirroring `log10` semantics.
    #[inline]
    pub fn from_linear_power(ratio: f64) -> Self {
        Db(10.0 * ratio.log10())
    }

    /// Creates a dB value from a linear amplitude ratio.
    #[inline]
    pub fn from_linear_amplitude(ratio: f64) -> Self {
        Db(20.0 * ratio.log10())
    }
}

impl Spl {
    /// The SPL difference to another level, as a plain dB figure.
    ///
    /// `SNR_rx = SPL_rx - SPL_noise` (paper §III.2).
    #[inline]
    pub fn snr_against(self, noise: Spl) -> Db {
        Db(self.0 - noise.0)
    }

    /// Converts to a linear RMS amplitude relative to the reference
    /// pressure.
    #[inline]
    pub fn to_amplitude(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }

    /// Builds an SPL from a linear RMS amplitude relative to the reference
    /// pressure.
    #[inline]
    pub fn from_amplitude(a: f64) -> Self {
        Spl(20.0 * a.log10())
    }
}

impl Seconds {
    /// Number of whole samples this duration spans at `sample_rate`.
    #[inline]
    pub fn to_samples(self, sample_rate: SampleRate) -> usize {
        (self.0 * sample_rate.value()).round().max(0.0) as usize
    }
}

/// An audio sample rate in samples per second.
///
/// The paper's modem runs at 44.1 kHz ([`SampleRate::CD`]).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SampleRate(f64);

impl SampleRate {
    /// The 44.1 kHz rate used by WearLock.
    pub const CD: SampleRate = SampleRate(44_100.0);

    /// Creates a sample rate.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn new(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "sample rate must be positive");
        SampleRate(hz)
    }

    /// The rate in Hz.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Duration of `n` samples.
    #[inline]
    pub fn duration_of(self, n: usize) -> Seconds {
        Seconds(n as f64 / self.0)
    }

    /// The Nyquist frequency (half the sample rate).
    #[inline]
    pub fn nyquist(self) -> Hz {
        Hz(self.0 / 2.0)
    }
}

impl Default for SampleRate {
    fn default() -> Self {
        SampleRate::CD
    }
}

impl fmt::Display for SampleRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Hz", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_roundtrip() {
        for &v in &[0.0, 3.0, 10.0, -20.0, 36.5] {
            let d = Db(v);
            assert!((Db::from_linear_power(d.to_linear_power()).0 - v).abs() < 1e-9);
            assert!((Db::from_linear_amplitude(d.to_linear_amplitude()).0 - v).abs() < 1e-9);
        }
    }

    #[test]
    fn spl_snr_subtraction() {
        let rx = Spl(60.0);
        let noise = Spl(20.0);
        assert_eq!(rx.snr_against(noise), Db(40.0));
    }

    #[test]
    fn spl_amplitude_roundtrip() {
        let s = Spl(35.0);
        assert!((Spl::from_amplitude(s.to_amplitude()).0 - 35.0).abs() < 1e-9);
    }

    #[test]
    fn sample_rate_durations() {
        let sr = SampleRate::CD;
        assert_eq!(Seconds(1.0).to_samples(sr), 44_100);
        assert!((sr.duration_of(22_050).0 - 0.5).abs() < 1e-12);
        assert_eq!(sr.nyquist(), Hz(22_050.0));
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn sample_rate_rejects_zero() {
        let _ = SampleRate::new(0.0);
    }

    #[test]
    fn unit_arithmetic() {
        assert_eq!(Meters(1.0) + Meters(0.5), Meters(1.5));
        assert_eq!(Hz(100.0) * 2.0, Hz(200.0));
        assert_eq!(-Db(3.0), Db(-3.0));
        assert_eq!(Seconds(2.0) / 4.0, Seconds(0.5));
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(Db(3.0).to_string(), "3.000 dB");
        assert_eq!(Meters(1.5).to_string(), "1.500 m");
    }
}
