//! # wearlock-modem
//!
//! The acoustic OFDM software modem of the WearLock reproduction
//! (Yi et al., ICDCS 2017, §III) — a pure-software modem for reliable
//! data transmission over the acoustic channel between a smartphone
//! speaker and a smartwatch microphone.
//!
//! Pipeline (paper Fig. 3):
//!
//! * **TX** ([`modulator`]): constellation mapping ([`constellation`]) →
//!   pilot tone insertion → IFFT → cyclic prefix → chirp preamble.
//! * **RX** ([`demodulator`]): energy-based silence detection → preamble
//!   detection & coarse sync by normalized cross-correlation → CP-based
//!   fine sync (eq. 2) → FFT → pilot channel estimation (magnitude and
//!   phase interpolated between pilots) & equalization (§III.6) →
//!   minimum-distance de-mapping.
//! * **Link adaptation**: pilot-based SNR (eq. 3) → `Eb/N0 = C/N·B/R` →
//!   BER-constrained mode selection ([`adaptive`]); per-bin noise
//!   ranking → sub-channel selection ([`subchannel`]).
//!
//! The frame is the paper's, fixed: FFT 256 @ 44.1 kHz, CP 128,
//! preamble 256, post-preamble guard 1024, pilots {7,11,…,35}; only the
//! band and the data channels (default
//! {16,17,18,20,21,22,24,25,26,28,29,30}) vary ([`config`]).
//!
//! ## Example
//!
//! ```
//! use wearlock_modem::config::OfdmConfig;
//! use wearlock_modem::constellation::Modulation;
//! use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};
//!
//! let cfg = OfdmConfig::default();
//! let tx = OfdmModulator::new(cfg.clone())?;
//! let rx = OfdmDemodulator::new(cfg)?;
//!
//! // Scratch is per worker: create once, reuse for every frame.
//! let (mut tx_scratch, mut rx_scratch) = (TxScratch::new(), DemodScratch::new());
//! let token_bits: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
//! let mut waveform = Vec::new();
//! tx.modulate(&token_bits, Modulation::Qpsk, &mut tx_scratch, &mut waveform)?;
//! let mut decoded = DemodFrame::new();
//! rx.demodulate(&waveform, Modulation::Qpsk, 32, &mut rx_scratch, &mut decoded)?;
//! assert_eq!(decoded.bits, token_bits);
//! # Ok::<(), wearlock_modem::ModemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod coding;
pub mod config;
pub mod constellation;
pub mod demodulator;
mod error;
pub mod modulator;
pub mod scratch;
pub mod subchannel;

pub use adaptive::{ModePolicy, TransmissionMode};
pub use coding::{conv_encode, viterbi_decode, TokenCoding};
pub use config::{FrequencyBand, OfdmConfig};
pub use constellation::Modulation;
pub use demodulator::{bit_error_rate, DemodFrame, FrameSync, OfdmDemodulator, ProbeReport};
pub use error::ModemError;
pub use modulator::OfdmModulator;
pub use scratch::{DemodScratch, TxScratch};
pub use subchannel::{select_data_channels, SubchannelSelection};
