//! Error type for the DSP substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by DSP primitives.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DspError {
    /// The requested FFT size is not a power of two from 2 to 2³¹.
    InvalidFftSize(usize),
    /// An input buffer had the wrong length.
    LengthMismatch {
        /// Length the operation required.
        expected: usize,
        /// Length that was provided.
        actual: usize,
    },
    /// An input buffer was empty where data was required.
    EmptyInput,
    /// A numeric parameter was out of its valid range.
    InvalidParameter(String),
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::InvalidFftSize(n) => {
                write!(f, "fft size {n} is not a power of two from 2 to 2^31")
            }
            DspError::LengthMismatch { expected, actual } => {
                write!(f, "expected buffer of length {expected}, got {actual}")
            }
            DspError::EmptyInput => write!(f, "input buffer is empty"),
            DspError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let msgs = [
            DspError::InvalidFftSize(3).to_string(),
            DspError::LengthMismatch {
                expected: 4,
                actual: 2,
            }
            .to_string(),
            DspError::EmptyInput.to_string(),
            DspError::InvalidParameter("x".into()).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
