//! OFDM transmitter: constellation mapping → pilot insertion → IFFT →
//! cyclic prefix → preamble framing (paper Fig. 3, TX path).

use std::sync::Arc;

use wearlock_dsp::{cache, Complex, Fft};

use crate::config::{OfdmConfig, CP_LEN, FFT_SIZE, POST_PREAMBLE_GUARD, PREAMBLE_LEN, SYMBOL_LEN};
use crate::constellation::{map_bits_into, Modulation};
use crate::error::ModemError;
use crate::scratch::TxScratch;

/// The OFDM transmitter.
///
/// # Examples
///
/// ```
/// use wearlock_modem::config::OfdmConfig;
/// use wearlock_modem::constellation::Modulation;
/// use wearlock_modem::modulator::OfdmModulator;
/// use wearlock_modem::TxScratch;
///
/// let tx = OfdmModulator::new(OfdmConfig::default())?;
/// let bits = vec![true, false, true, true, false, false, true, false];
/// let mut waveform = Vec::new();
/// tx.modulate(&bits, Modulation::Qpsk, &mut TxScratch::new(), &mut waveform)?;
/// assert!(waveform.len() > 256 + 1024); // preamble + guard + blocks
/// # Ok::<(), wearlock_modem::ModemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OfdmModulator {
    config: OfdmConfig,
    fft: Arc<Fft>,
    preamble: Vec<f64>,
}

impl OfdmModulator {
    /// Creates a transmitter for the given configuration. The FFT plan
    /// comes from the process-wide cache, so constructing many
    /// modulators (one per session attempt) shares one set of tables.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::Dsp`] if the FFT cannot be planned (the
    /// config validation normally prevents this).
    pub fn new(config: OfdmConfig) -> Result<Self, ModemError> {
        let fft = cache::planned(FFT_SIZE)?;
        let preamble = config.preamble_chirp().generate();
        Ok(OfdmModulator {
            config,
            fft,
            preamble,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &OfdmConfig {
        &self.config
    }

    /// The preamble waveform (chirp).
    pub fn preamble(&self) -> &[f64] {
        &self.preamble
    }

    /// Number of OFDM blocks needed for `n_bits` at `modulation`.
    pub fn blocks_for(&self, n_bits: usize, modulation: Modulation) -> usize {
        let per_block = self.config.bits_per_block(modulation.bits_per_symbol());
        n_bits.div_ceil(per_block).max(1)
    }

    /// Builds one OFDM block (CP + body) from data symbols laid onto the
    /// data channels and appends it to `out`; pilots carry unit power,
    /// everything else is null. Allocation-free once `scratch` has
    /// warmed up (and `out` has capacity).
    fn build_block_into(
        &self,
        symbols: &[Complex],
        scratch: &mut TxScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), ModemError> {
        let n = FFT_SIZE;
        scratch.spectrum.clear();
        scratch.spectrum.resize(n, Complex::ZERO);
        let spectrum = &mut scratch.spectrum;
        for &p in self.config.pilot_channels() {
            spectrum[p] = Complex::ONE;
        }
        for (i, &d) in self.config.data_channels().iter().enumerate() {
            spectrum[d] = symbols.get(i).copied().unwrap_or(Complex::ZERO);
        }
        // Hermitian symmetry so the IFFT output is purely real — we take
        // the real part as the emitted baseband signal (paper eq. 1).
        for k in 1..n / 2 {
            spectrum[n - k] = spectrum[k].conj();
        }
        scratch.time.clear();
        scratch.time.resize(n, Complex::ZERO);
        self.fft
            .inverse_into(&scratch.spectrum, &mut scratch.time)?;
        scratch.body.clear();
        scratch.body.extend(scratch.time.iter().map(|z| z.re));
        let body = &mut scratch.body;
        // Drive the DAC at a consistent level: the IFFT of a few dozen
        // unit tones is ~20 dB quieter than the unit-amplitude chirp
        // preamble, and the speaker calibrates the *whole* frame's RMS
        // to the chosen volume — without this normalization the payload
        // would be transmitted far below the preamble.
        let rms = (body.iter().map(|x| x * x).sum::<f64>() / body.len() as f64).sqrt();
        if rms > 1e-12 {
            let k = BLOCK_TARGET_RMS / rms;
            for x in body.iter_mut() {
                *x *= k;
            }
        }

        let cp = CP_LEN;
        out.reserve(cp + n);
        out.extend_from_slice(&body[n - cp..]);
        out.extend_from_slice(body);
        Ok(())
    }

    /// Modulates a payload into a complete frame,
    /// `preamble | guard | block … block`, written to `out` (cleared
    /// first). Zero allocations once `scratch` and `out` have warmed up.
    ///
    /// The final partial symbol group is zero-padded; the receiver is
    /// expected to know the payload bit length and truncate.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::InvalidInput`] for an empty payload.
    pub fn modulate(
        &self,
        bits: &[bool],
        modulation: Modulation,
        scratch: &mut TxScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), ModemError> {
        if bits.is_empty() {
            return Err(ModemError::InvalidInput("payload is empty".into()));
        }
        let mut symbols = std::mem::take(&mut scratch.symbols);
        map_bits_into(modulation, bits, &mut symbols);
        let per_block = self.config.data_channels().len();

        out.clear();
        out.reserve(self.frame_len(bits.len(), modulation));
        out.extend_from_slice(&self.preamble);
        out.extend(std::iter::repeat_n(0.0, POST_PREAMBLE_GUARD));
        let mut result = Ok(());
        for chunk in symbols.chunks(per_block) {
            if let Err(e) = self.build_block_into(chunk, scratch, out) {
                result = Err(e);
                break;
            }
        }
        scratch.symbols = symbols;
        result?;
        fade_in(out, 16);
        Ok(())
    }

    /// Builds the channel-probing (RTS) signal into `out`: the preamble
    /// followed by `pilot_blocks` (at least one) block-based pilot
    /// symbols in which *all* active channels (pilot and data) carry
    /// known unit-power tones and null channels stay empty — the
    /// paper's probe for sub-channel selection and pilot-SNR estimation.
    /// Zero allocations once `scratch` and `out` have warmed up.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::Dsp`] if a block transform fails (the
    /// config validation normally prevents this).
    pub fn probe(
        &self,
        pilot_blocks: usize,
        scratch: &mut TxScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), ModemError> {
        let pilot_blocks = pilot_blocks.max(1);
        let n_data = self.config.data_channels().len();
        let mut symbols = std::mem::take(&mut scratch.symbols);
        symbols.clear();
        symbols.resize(n_data, Complex::ONE);
        out.clear();
        out.extend_from_slice(&self.preamble);
        out.extend(std::iter::repeat_n(0.0, POST_PREAMBLE_GUARD));
        let mut result = Ok(());
        for _ in 0..pilot_blocks {
            if let Err(e) = self.build_block_into(&symbols, scratch, out) {
                result = Err(e);
                break;
            }
        }
        scratch.symbols = symbols;
        result?;
        fade_in(out, 16);
        Ok(())
    }

    /// Length in samples of a frame carrying `n_bits` at `modulation`.
    pub fn frame_len(&self, n_bits: usize, modulation: Modulation) -> usize {
        PREAMBLE_LEN + POST_PREAMBLE_GUARD + self.blocks_for(n_bits, modulation) * SYMBOL_LEN
    }
}

/// Target RMS of an OFDM block body relative to the unit-amplitude
/// preamble (PAPR head-room of ~3x keeps tone peaks below clipping).
const BLOCK_TARGET_RMS: f64 = 0.35;

/// Raised-cosine fade over the first `n` samples only — the frame must
/// start softly for the speaker rise effect, but its *end* is left
/// untouched so the last block's cyclic-prefix structure stays intact.
fn fade_in(signal: &mut [f64], n: usize) {
    let n = n.min(signal.len());
    for (i, s) in signal.iter_mut().enumerate().take(n) {
        let g = 0.5 - 0.5 * (std::f64::consts::PI * i as f64 / n as f64).cos();
        *s *= g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wearlock_dsp::goertzel::goertzel_power;
    use wearlock_dsp::units::SampleRate;

    fn bits(n: usize) -> Vec<bool> {
        (0..n).map(|i| (i * 7 + 3) % 5 < 2).collect()
    }

    fn modulate(tx: &OfdmModulator, bits: &[bool], m: Modulation) -> Result<Vec<f64>, ModemError> {
        let mut out = Vec::new();
        tx.modulate(bits, m, &mut TxScratch::new(), &mut out)?;
        Ok(out)
    }

    fn probe(tx: &OfdmModulator, pilot_blocks: usize) -> Vec<f64> {
        let mut out = Vec::new();
        tx.probe(pilot_blocks, &mut TxScratch::new(), &mut out)
            .unwrap();
        out
    }

    #[test]
    fn rejects_empty_payload() {
        let tx = OfdmModulator::new(OfdmConfig::default()).unwrap();
        assert!(matches!(
            modulate(&tx, &[], Modulation::Qpsk),
            Err(ModemError::InvalidInput(_))
        ));
    }

    #[test]
    fn frame_layout_lengths() {
        let tx = OfdmModulator::new(OfdmConfig::default()).unwrap();
        // 24 bits QPSK = 12 symbols = exactly one block of 12 channels.
        let w = modulate(&tx, &bits(24), Modulation::Qpsk).unwrap();
        assert_eq!(w.len(), 256 + 1024 + 384);
        assert_eq!(tx.frame_len(24, Modulation::Qpsk), w.len());
        // 25 bits needs a second block.
        assert_eq!(tx.blocks_for(25, Modulation::Qpsk), 2);
        assert_eq!(tx.frame_len(25, Modulation::Qpsk), 256 + 1024 + 2 * 384);
    }

    #[test]
    fn block_body_is_cyclic_with_prefix() {
        let tx = OfdmModulator::new(OfdmConfig::default()).unwrap();
        let w = modulate(&tx, &bits(24), Modulation::Qpsk).unwrap();
        let block = &w[256 + 1024..];
        let cp = &block[..128];
        let tail = &block[128 + 256 - 128..128 + 256];
        for (a, b) in cp.iter().zip(tail) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn energy_sits_on_active_channels() {
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).unwrap();
        let w = modulate(&tx, &bits(24), Modulation::Qpsk).unwrap();
        let body = &w[256 + 1024 + 128..256 + 1024 + 128 + 256];
        let sr = SampleRate::CD;
        // Data channel 16 at 2756 Hz carries power; null channel 10 at
        // 1722 Hz does not.
        let on = goertzel_power(body, cfg.channel_frequency(16), sr).unwrap();
        let off = goertzel_power(body, cfg.channel_frequency(10), sr).unwrap();
        assert!(on > 100.0 * off.max(1e-15), "on {on} off {off}");
    }

    #[test]
    fn probe_fills_all_active_channels() {
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).unwrap();
        let p = probe(&tx, 1);
        let body = &p[256 + 1024 + 128..256 + 1024 + 128 + 256];
        let sr = SampleRate::CD;
        for &k in cfg.data_channels().iter().chain(cfg.pilot_channels()) {
            let pw = goertzel_power(body, cfg.channel_frequency(k), sr).unwrap();
            assert!(pw > 1e-9, "channel {k} silent in probe");
        }
        for &k in cfg.null_channels_in_band().iter() {
            let pw = goertzel_power(body, cfg.channel_frequency(k), sr).unwrap();
            assert!(pw < 1e-10, "null channel {k} carries power {pw}");
        }
    }

    #[test]
    fn probe_has_at_least_one_block() {
        let tx = OfdmModulator::new(OfdmConfig::default()).unwrap();
        assert_eq!(probe(&tx, 0).len(), 256 + 1024 + 384);
        assert_eq!(probe(&tx, 2).len(), 256 + 1024 + 2 * 384);
    }

    #[test]
    fn waveform_is_finite_and_bounded() {
        let tx = OfdmModulator::new(OfdmConfig::default()).unwrap();
        for m in Modulation::ALL {
            let w = modulate(&tx, &bits(100), m).unwrap();
            assert!(w.iter().all(|s| s.is_finite()), "{m}");
        }
    }

    #[test]
    fn preamble_prefix_matches_chirp() {
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).unwrap();
        let w = modulate(&tx, &bits(24), Modulation::Qpsk).unwrap();
        let chirp = cfg.preamble_chirp().generate();
        // Apart from the global edge fade (first 16 samples), identical.
        for i in 16..256 {
            assert!((w[i] - chirp[i]).abs() < 1e-12);
        }
    }
}
