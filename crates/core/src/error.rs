//! Top-level error type.

use std::error::Error;
use std::fmt;

/// A typed configuration-validation failure.
///
/// Every variant names the offending builder field and carries the
/// rejected value, so callers can match on the exact problem instead of
/// parsing a message string. [`WearLockConfigBuilder::build`] validates
/// eagerly: every field is checked up front and the first violation is
/// returned, rather than surfacing later as a panic or a silently
/// clamped value mid-attempt.
///
/// [`WearLockConfigBuilder::build`]: crate::config::WearLockConfigBuilder::build
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The shared OTP secret is empty.
    EmptyOtpKey,
    /// The token repetition factor is zero.
    ZeroRepetition,
    /// The NLOS BER relaxation target is outside `(0, 0.5]` — it could
    /// never satisfy `ModePolicy::new` when an attempt tries to apply
    /// it.
    InvalidNlosRelaxMaxBer {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyOtpKey => f.write_str("otp key is empty"),
            ConfigError::ZeroRepetition => f.write_str("token repetition must be >= 1"),
            ConfigError::InvalidNlosRelaxMaxBer { value } => {
                write!(f, "NLOS relaxed MaxBER must be in (0, 0.5], got {value}")
            }
        }
    }
}

impl Error for ConfigError {}

/// Errors surfaced by the WearLock system crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WearLockError {
    /// Configuration was invalid.
    InvalidConfig(String),
    /// A configuration field failed eager validation.
    Config(ConfigError),
    /// The underlying modem failed.
    Modem(wearlock_modem::ModemError),
    /// The acoustic simulator failed.
    Acoustics(wearlock_acoustics::AcousticsError),
    /// The sensors subsystem failed.
    Sensors(wearlock_sensors::SensorsError),
    /// A live-session thread failed or disconnected.
    SessionFailed(String),
}

impl fmt::Display for WearLockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WearLockError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            WearLockError::Config(e) => write!(f, "invalid configuration: {e}"),
            WearLockError::Modem(e) => write!(f, "modem: {e}"),
            WearLockError::Acoustics(e) => write!(f, "acoustics: {e}"),
            WearLockError::Sensors(e) => write!(f, "sensors: {e}"),
            WearLockError::SessionFailed(msg) => write!(f, "session failed: {msg}"),
        }
    }
}

impl Error for WearLockError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WearLockError::Config(e) => Some(e),
            WearLockError::Modem(e) => Some(e),
            WearLockError::Acoustics(e) => Some(e),
            WearLockError::Sensors(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for WearLockError {
    fn from(e: ConfigError) -> Self {
        WearLockError::Config(e)
    }
}

impl From<wearlock_modem::ModemError> for WearLockError {
    fn from(e: wearlock_modem::ModemError) -> Self {
        WearLockError::Modem(e)
    }
}

impl From<wearlock_acoustics::AcousticsError> for WearLockError {
    fn from(e: wearlock_acoustics::AcousticsError) -> Self {
        WearLockError::Acoustics(e)
    }
}

impl From<wearlock_sensors::SensorsError> for WearLockError {
    fn from(e: wearlock_sensors::SensorsError) -> Self {
        WearLockError::Sensors(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e = WearLockError::from(wearlock_modem::ModemError::SignalNotFound { best_score: 0.0 });
        assert!(e.source().is_some());
        assert!(e.to_string().starts_with("modem:"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WearLockError>();
    }
}
