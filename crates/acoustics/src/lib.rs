//! # wearlock-acoustics
//!
//! Sample-level acoustic channel simulator for the WearLock reproduction
//! (Yi et al., ICDCS 2017).
//!
//! The paper runs on real phone speakers and watch microphones; this
//! crate substitutes that hardware with a calibrated simulator that
//! reproduces every impairment the paper's modem design addresses:
//!
//! * spherical spreading loss, ~6 dB per distance doubling
//!   ([`propagation`], validates Fig. 4's law),
//! * ambient noise environments — quiet room, office, classroom, cafe,
//!   grocery store — plus deliberate tone jammers ([`noise`]),
//! * multipath reverberation and body-blocked NLOS paths
//!   ([`multipath`]),
//! * speaker rise/ringing effects and band limits, microphone band
//!   limits (the Moto 360's ~7 kHz low-pass), clock jitter, self-noise
//!   and ADC quantization ([`hardware`]),
//! * a composed end-to-end link and a controlled AWGN channel
//!   ([`channel`]), whose linear filters run fused in the frequency
//!   domain ([`fused`]).
//!
//! Every stage runs at one sample rate, the modem's 44.1 kHz
//! ([`SampleRate::CD`](wearlock_dsp::units::SampleRate::CD)).
//!
//! ## Example
//!
//! ```
//! use wearlock_acoustics::channel::AcousticLink;
//! use wearlock_acoustics::noise::Location;
//! use wearlock_dsp::units::{Meters, Spl};
//!
//! let link = AcousticLink::builder()
//!     .distance(Meters(1.0))
//!     .noise(Location::Cafe.noise_model())
//!     .build()?;
//! // What SNR does a 75 dB transmission achieve at 1 m in a cafe?
//! let snr = link.predicted_rx_snr(Spl(75.0));
//! assert!(snr.value() < 30.0);
//! # Ok::<(), wearlock_acoustics::AcousticsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
mod error;
pub mod fused;
pub mod hardware;
pub mod multipath;
pub mod noise;
pub mod propagation;

pub use channel::{AcousticLink, AwgnChannel, PathKind, SPEED_OF_SOUND};
pub use error::AcousticsError;
pub use hardware::{MicrophoneModel, SpeakerModel};
pub use multipath::ImpulseResponse;
pub use noise::{Location, NoiseModel};
