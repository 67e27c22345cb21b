//! Reusable scratch buffers for the modem hot path.
//!
//! Every stage of the receive pipeline — preamble correlation, block
//! FFTs, channel estimation, equalization, probe analysis — needs
//! working memory proportional to the recording or the FFT size. The
//! seed implementation allocated that memory inside each call; the
//! structs here own it instead, so a worker that demodulates thousands
//! of frames allocates once during warmup and then runs allocation-free
//! (the `wearlock-tests` counting-allocator harness gates this).
//!
//! Scratch is **per worker**: the structs are `Send` but deliberately
//! not shared, so each `SweepRunner` worker (or each `UnlockSession`)
//! owns one and reuses it across attempts. Scratch contents never
//! influence results — every consumer fully overwrites the ranges it
//! reads, which the dsp/modem proptests pin down by comparing
//! fresh-scratch and reused-scratch outputs bit for bit.

use wearlock_dsp::{Complex, CorrelationWorkspace};

/// Channel-estimation working buffers (pilot responses and the
/// interpolated channel curve).
#[derive(Debug, Default)]
pub(crate) struct ChannelScratch {
    /// Pilot responses `z` read off the block spectrum.
    pub z: Vec<Complex>,
    /// Pilot magnitudes (magnitude/phase interpolation).
    pub mags: Vec<f64>,
    /// Unwrapped pilot phases.
    pub phases: Vec<f64>,
    /// Interpolated channel samples before scattering into the table.
    pub interp: Vec<Complex>,
}

/// Reusable working memory for [`crate::OfdmDemodulator`].
///
/// Create one per worker and pass it to every receive call
/// ([`crate::OfdmDemodulator::detect`],
/// [`crate::OfdmDemodulator::demodulate`],
/// [`crate::OfdmDemodulator::analyze_probe`], …). No receive path keeps
/// hidden per-thread state, so frames from different sessions can be
/// decoded through the same scratch in any order.
///
/// # Examples
///
/// ```
/// use wearlock_modem::config::OfdmConfig;
/// use wearlock_modem::constellation::Modulation;
/// use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};
///
/// let cfg = OfdmConfig::default();
/// let tx = OfdmModulator::new(cfg.clone())?;
/// let rx = OfdmDemodulator::new(cfg)?;
/// let bits = vec![true, false, true, true];
/// let mut wave = Vec::new();
/// tx.modulate(&bits, Modulation::Qpsk, &mut TxScratch::new(), &mut wave)?;
///
/// let mut scratch = DemodScratch::new();
/// let mut frame = DemodFrame::new();
/// rx.demodulate(&wave, Modulation::Qpsk, bits.len(), &mut scratch, &mut frame)?;
/// assert_eq!(frame.bits, bits);
/// # Ok::<(), wearlock_modem::ModemError>(())
/// ```
#[derive(Debug, Default)]
pub struct DemodScratch {
    /// FFT-correlator workspace (plans + overlap–save buffers).
    pub(crate) corr: CorrelationWorkspace,
    /// Normalized correlation scores over the search span.
    pub(crate) scores: Vec<f64>,
    /// Squared-score delay-profile taps.
    pub(crate) taps: Vec<f64>,
    /// Block spectrum (FFT output).
    pub(crate) spectrum: Vec<Complex>,
    /// Per-bin channel table.
    pub(crate) channel: Vec<Option<Complex>>,
    /// Channel-estimation buffers.
    pub(crate) chan: ChannelScratch,
    /// Equalized data symbols of the current block.
    pub(crate) equalized: Vec<Complex>,
    /// Flat bin-major `[bin × window]` buffer of ambient window powers
    /// for the probe's per-bin median noise estimate.
    pub(crate) bins: Vec<f64>,
    /// Per-bin median noise powers.
    pub(crate) noise: Vec<f64>,
}

impl DemodScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable working memory for [`crate::OfdmModulator`] — symbol,
/// spectrum and block-body buffers for
/// [`crate::OfdmModulator::modulate`] and [`crate::OfdmModulator::probe`].
#[derive(Debug, Default)]
pub struct TxScratch {
    /// Mapped constellation symbols for the whole payload.
    pub(crate) symbols: Vec<Complex>,
    /// Block spectrum handed to the IFFT.
    pub(crate) spectrum: Vec<Complex>,
    /// IFFT output (complex time samples).
    pub(crate) time: Vec<Complex>,
    /// Real block body before cyclic-prefix framing.
    pub(crate) body: Vec<f64>,
}

impl TxScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DemodScratch>();
        assert_send::<TxScratch>();
    }

    #[test]
    fn default_is_empty() {
        let s = DemodScratch::new();
        assert!(s.scores.is_empty());
        assert!(s.spectrum.is_empty());
        let t = TxScratch::new();
        assert!(t.symbols.is_empty());
    }
}
