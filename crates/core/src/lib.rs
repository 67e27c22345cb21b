//! # wearlock
//!
//! A full-system reproduction of **WearLock: Unlocking Your Phone via
//! Acoustics using Smartwatch** (Yi, Qin, Carter, Li — IEEE ICDCS
//! 2017): automatic, secure smartphone unlocking over an acoustic OFDM
//! channel between the phone's speaker and a paired smartwatch's
//! microphone.
//!
//! The public API centres on [`session::UnlockSession`]: configure the
//! system ([`config::WearLockConfig`]), describe the physical scenario
//! ([`environment::Environment`]), and run unlock attempts through the
//! one entry point [`session::UnlockSession::run`], whose
//! [`session::AttemptOptions`] select telemetry, fault injection and the
//! retry ladder. Each attempt executes the paper's two-phase protocol
//! (wireless gate → motion filter → RTS/CTS channel probing with NLOS
//! screening, ambient similarity, sub-channel selection and
//! BER-constrained adaptive modulation → OFDM transmission of an HOTP
//! token → verification with replay defence and lockout) over a
//! sample-level acoustic channel simulator, with per-phase delay and
//! energy accounting.
//!
//! Sub-crates (all re-exported as dependencies): `wearlock-dsp`
//! (FFT/chirp/correlation toolkit), `wearlock-acoustics` (channel
//! simulator), `wearlock-modem` (the OFDM modem), `wearlock-auth`
//! (SHA-1/HMAC/HOTP), `wearlock-sensors` (DTW motion filter),
//! `wearlock-platform` (device, link, keyguard models).
//!
//! ## Quick start
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use wearlock::config::WearLockConfig;
//! use wearlock::environment::Environment;
//! use wearlock::session::{AttemptOptions, UnlockSession};
//!
//! let mut session = UnlockSession::new(WearLockConfig::default())?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let series = session.run(&Environment::default(), &AttemptOptions::new(), &mut rng);
//! let report = series.final_attempt();
//! assert!(report.outcome.unlocked());
//! println!("unlocked in {:.0} ms", report.total_delay.value() * 1e3);
//! # Ok::<(), wearlock::WearLockError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambient;
pub mod attacks;
pub mod battery;
pub mod casestudy;
pub mod config;
pub mod delay;
pub mod environment;
mod error;
pub mod fieldtest;
pub mod fingerprint;
pub mod live;
pub mod offload;
mod protocol;
pub mod ranging;
pub mod session;
pub mod trim;

pub use config::{ExecutionPlan, NamedConfig, WearLockConfig};
pub use environment::{Environment, MotionScenario};
pub use error::{ConfigError, WearLockError};
pub use session::{
    AttemptOptions, AttemptReport, AttemptSummary, DenyReason, Outcome, ResilienceReport,
    ResilientOutcome, RetryPolicy, UnlockPath, UnlockSession,
};
