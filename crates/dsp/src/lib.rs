//! # wearlock-dsp
//!
//! Digital signal processing substrate for the WearLock reproduction
//! (Yi et al., *WearLock: Unlocking Your Phone via Acoustics using
//! Smartwatch*, ICDCS 2017).
//!
//! The paper implements its modem and DSP routines as a pure-Java
//! library shared by the phone and watch apps; this crate is the Rust
//! equivalent — a dependency-free toolkit providing exactly the
//! primitives the acoustic OFDM modem needs:
//!
//! * [`Complex`] arithmetic and a radix-2 [`Fft`] (the modem's FFT size
//!   is 256 at 44.1 kHz),
//! * chirp (LFM) generation for the preamble ([`chirp`]),
//! * a process-wide FFT plan cache ([`cache`]) so hot paths never
//!   re-plan,
//! * normalized cross-correlation for preamble detection, coarse
//!   synchronization and delay-profile/NLOS estimation ([`correlate`]),
//!   with workspace-backed `_into` variants that are allocation-free
//!   after warmup,
//! * FIR filters modelling device band-limits ([`filter`]),
//! * level/SPL measurement and silence detection ([`level`]),
//! * windows/fades countering speaker rise and ringing ([`window`]),
//! * fractional delay/resampling for channel simulation ([`resample`]),
//! * small statistics helpers ([`stats`]) and the Goertzel single-bin
//!   DFT ([`goertzel`]).
//!
//! ## Example
//!
//! Detect a chirp preamble buried in noise:
//!
//! ```
//! use wearlock_dsp::chirp::Chirp;
//! use wearlock_dsp::correlate::find_peak;
//! use wearlock_dsp::units::{Hz, SampleRate};
//!
//! let preamble = Chirp::new(Hz(1_000.0), Hz(6_000.0), 256, SampleRate::CD)?;
//! let template = preamble.generate();
//! let mut recording = vec![0.0; 4_000];
//! for (i, &c) in template.iter().enumerate() {
//!     recording[1_234 + i] += 0.5 * c;
//! }
//! let peak = find_peak(&recording, &template)?;
//! assert_eq!(peak.offset, 1_234);
//! # Ok::<(), wearlock_dsp::DspError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chirp;
mod complex;
pub mod correlate;
mod error;
mod fft;
pub mod filter;
pub mod goertzel;
pub mod level;
pub mod resample;
pub mod stats;
pub mod stft;
pub mod units;
pub mod window;

pub use cache::FftCache;
pub use complex::Complex;
pub use correlate::CorrelationWorkspace;
pub use error::DspError;
pub use fft::{dft_naive, Fft};
pub use units::{Db, Hz, Meters, SampleRate, Seconds, Spl};
