//! OFDM receiver: silence detection → preamble detection & coarse sync
//! → CP-based fine sync → FFT → pilot channel estimation & equalization
//! → constellation de-mapping (paper Fig. 3, RX path).
//!
//! ## Allocation discipline
//!
//! Every receive stage takes a caller-owned [`DemodScratch`], and frame
//! decoding writes into a caller-owned [`DemodFrame`]; after one warmup
//! frame, detection and demodulation perform zero heap allocations per
//! frame (gated by the `wearlock-tests` counting-allocator harness).
//! Probe analysis allocates only the vectors of the [`ProbeReport`] it
//! returns. FFT plans are shared process-wide via `wearlock_dsp::cache`,
//! so constructing a demodulator per attempt (as sessions do) never
//! re-plans.

use std::sync::Arc;

use wearlock_dsp::cache;
use wearlock_dsp::correlate::{normalized_cross_correlate_fft, profile_rms_delay_spread};
use wearlock_dsp::level::SilenceDetector;
use wearlock_dsp::units::{Db, Spl};
use wearlock_dsp::{Complex, Fft};

use crate::config::{
    OfdmConfig, CP_LEN, FFT_SIZE, FINE_SYNC_RANGE, PILOT_SPACING, POST_PREAMBLE_GUARD,
    PREAMBLE_LEN, SAMPLE_RATE, SYMBOL_LEN,
};
use crate::constellation::Modulation;
use crate::error::ModemError;
use crate::scratch::{ChannelScratch, DemodScratch};

/// Normalized-correlation threshold below which no preamble is
/// considered present: the best score a recording must reach to count
/// as carrying a frame.
///
/// The paper quotes 0.05 for its NLOS check; with our sliding
/// per-window normalization the maximum score of *pure noise* over a
/// seconds-long recording already reaches ≈0.25 (extreme-value statistics
/// of ~10⁴ correlation trials at 256 samples), so the receiver detects
/// at 0.3.
pub const DETECTION_THRESHOLD: f64 = 0.3;

/// Result of preamble detection and coarse synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameSync {
    /// Sample offset of the preamble start in the recording.
    pub preamble_offset: usize,
    /// Peak normalized correlation score, in `[-1, 1]`.
    pub preamble_score: f64,
    /// RMS delay spread `τ_rms` of the preamble's delay profile, in
    /// seconds — the paper's NLOS indicator.
    pub rms_delay_spread: f64,
}

/// A decoded frame with reusable storage: the recovered bits plus
/// condensed diagnostics, so a worker can decode frames indefinitely
/// into the same instance without touching the heap.
#[derive(Debug, Clone, Default)]
pub struct DemodFrame {
    /// Recovered payload bits (truncated to the requested length).
    pub bits: Vec<bool>,
    /// Synchronization info.
    pub sync: FrameSync,
    /// Number of blocks decoded.
    pub blocks: usize,
    /// Mean per-block error-vector magnitude (mean squared distance
    /// from each equalized symbol to its decision point).
    pub mean_evm: f64,
}

impl DemodFrame {
    /// Creates an empty frame; the bit buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Channel state extracted from an RTS probe recording.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Synchronization info for the probe.
    pub sync: FrameSync,
    /// Pilot-based SNR (paper eq. 3), as a dB figure.
    pub psnr: Db,
    /// Per-bin noise power, estimated from the ambient samples recorded
    /// before the preamble. Length [`FFT_SIZE`]: sub-channel `k` sits at
    /// index `k`, and the upper half mirrors the lower for real input.
    pub noise_spectrum: Vec<f64>,
    /// Estimated complex channel gain on each active sub-channel
    /// (index = sub-channel, `None` where not probed).
    pub channel_gain: Vec<Option<Complex>>,
    /// Ambient SPL measured before the preamble.
    pub ambient_spl: Spl,
}

impl ProbeReport {
    /// Converts the pilot SNR into `Eb/N0` for a candidate modulation:
    /// `Eb/N0 = C/N · B/R` (paper §III.7).
    pub fn ebn0(&self, config: &OfdmConfig, modulation: Modulation) -> Db {
        ebn0_from_psnr(self.psnr, config, modulation)
    }

    /// Noise power on one sub-channel.
    pub fn noise_on(&self, channel: usize) -> f64 {
        self.noise_spectrum.get(channel).copied().unwrap_or(0.0)
    }
}

/// Converts a carrier-to-noise figure into `Eb/N0` for `modulation`
/// under `config`: `Eb/N0 = C/N · B/R`.
pub fn ebn0_from_psnr(psnr: Db, config: &OfdmConfig, modulation: Modulation) -> Db {
    let b = config.occupied_bandwidth().value();
    let r = config.data_rate(modulation.bits_per_symbol());
    Db(psnr.value() + 10.0 * (b / r).log10())
}

/// The OFDM receiver.
///
/// # Examples
///
/// ```
/// use wearlock_modem::config::OfdmConfig;
/// use wearlock_modem::constellation::Modulation;
/// use wearlock_modem::demodulator::{DemodFrame, OfdmDemodulator};
/// use wearlock_modem::modulator::OfdmModulator;
/// use wearlock_modem::{DemodScratch, TxScratch};
///
/// let cfg = OfdmConfig::default();
/// let tx = OfdmModulator::new(cfg.clone())?;
/// let rx = OfdmDemodulator::new(cfg)?;
/// let bits = vec![true, false, true, true];
/// let mut wave = Vec::new();
/// tx.modulate(&bits, Modulation::Qpsk, &mut TxScratch::new(), &mut wave)?;
/// let mut frame = DemodFrame::new();
/// rx.demodulate(&wave, Modulation::Qpsk, bits.len(), &mut DemodScratch::new(), &mut frame)?;
/// assert_eq!(frame.bits, bits);
/// # Ok::<(), wearlock_modem::ModemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OfdmDemodulator {
    config: OfdmConfig,
    fft: Arc<Fft>,
    preamble: Vec<f64>,
    search_window: Option<(usize, usize)>,
}

impl OfdmDemodulator {
    /// Creates a receiver for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::Dsp`] if the FFT cannot be planned.
    pub fn new(config: OfdmConfig) -> Result<Self, ModemError> {
        let fft = cache::planned(FFT_SIZE)?;
        let preamble = config.preamble_chirp().generate();
        Ok(OfdmDemodulator {
            config,
            fft,
            preamble,
            search_window: None,
        })
    }

    /// Computes the spectrum of one real block body into `out`.
    fn block_spectrum_into(&self, body: &[f64], out: &mut Vec<Complex>) -> Result<(), ModemError> {
        out.clear();
        out.resize(FFT_SIZE, Complex::ZERO);
        self.fft.forward_real_into(body, out)?;
        Ok(())
    }

    /// Restricts preamble search to `[start, end)` sample offsets of
    /// the recording, replacing the silence-detector scan. Callers that
    /// already know roughly where the signal starts (the session's trim
    /// step finds the active segment, and the wireless start message
    /// bounds when audio can arrive) use this so the heavy correlator
    /// runs over exactly the window the cost model prices — see
    /// [`OfdmDemodulator::search_span`] for the effective bounds.
    pub fn with_search_window(mut self, start: usize, end: usize) -> Self {
        self.search_window = Some((start, end));
        self
    }

    /// The effective correlation span `[from, to)` that
    /// [`OfdmDemodulator::detect`] will scan for a recording of
    /// `recording_len` samples, after clamping the configured search
    /// window to the buffer and widening it to at least one preamble
    /// length. Cost models price the correlator over exactly
    /// `to - from` samples. Returns the full recording when no window
    /// is set (the silence detector then narrows it at run time).
    pub fn search_span(&self, recording_len: usize) -> (usize, usize) {
        match self.search_window {
            None => (0, recording_len),
            Some((start, end)) => {
                let to = end.max(self.preamble.len()).min(recording_len);
                let from = start.min(to.saturating_sub(self.preamble.len()));
                (from, to)
            }
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OfdmConfig {
        &self.config
    }

    /// Detects the preamble: energy-based silence filtering first, then
    /// FFT-accelerated normalized cross-correlation against the known
    /// chirp. Allocation-free once `scratch` has warmed up.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::SignalNotFound`] when the best score stays
    /// below the detection threshold, and [`ModemError::InvalidInput`]
    /// when the recording is shorter than the preamble.
    pub fn detect(
        &self,
        recording: &[f64],
        scratch: &mut DemodScratch,
    ) -> Result<FrameSync, ModemError> {
        if recording.len() < self.preamble.len() {
            return Err(ModemError::InvalidInput(format!(
                "recording ({} samples) shorter than preamble ({})",
                recording.len(),
                self.preamble.len()
            )));
        }
        // A caller-supplied search window bounds the scan directly (the
        // caller already located the active segment). Otherwise,
        // estimate the noise floor from the head of the recording and
        // skip sections that never rise above it.
        let (search_from, search_to) = if self.search_window.is_some() {
            self.search_span(recording.len())
        } else {
            let head = &recording[..self.preamble.len().min(recording.len())];
            let noise_spl = wearlock_dsp::level::spl(head);
            let detector = SilenceDetector::new(Spl(noise_spl.value() + 3.0), 256)
                .expect("static window is valid");
            let from = detector
                .first_active_window(recording)
                .unwrap_or(0)
                .saturating_sub(self.preamble.len());
            (from, recording.len())
        };

        // Overlap–save FFT correlator: same normalization (and hence
        // same scores up to ~1e-9) as the direct scan, at O(n log m) —
        // this search dominates the unlock's compute budget. Plans and
        // buffers live in the scratch, so the steady state allocates
        // nothing.
        let span = &recording[search_from..search_to];
        normalized_cross_correlate_fft(
            span,
            &self.preamble,
            &mut scratch.corr,
            &mut scratch.scores,
        )?;
        let scores = &scratch.scores;
        let (rel_offset, score) =
            scores
                .iter()
                .enumerate()
                .fold(
                    (0usize, f64::MIN),
                    |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    },
                );
        if score < DETECTION_THRESHOLD {
            return Err(ModemError::SignalNotFound { best_score: score });
        }
        // Approximate delay profile: squared correlation scores in a
        // window after the peak, thresholded at 25% of the peak so the
        // chirp's own autocorrelation sidelobes don't masquerade as
        // multipath.
        let window = PREAMBLE_LEN;
        let end = (rel_offset + window).min(scores.len());
        let floor = 0.25 * score;
        scratch.taps.clear();
        scratch
            .taps
            .extend(
                scores[rel_offset..end]
                    .iter()
                    .map(|&s| if s >= floor { s * s } else { 0.0 }),
            );
        Ok(FrameSync {
            preamble_offset: search_from + rel_offset,
            preamble_score: score,
            rms_delay_spread: profile_rms_delay_spread(&scratch.taps, SAMPLE_RATE),
        })
    }

    /// CP-based fine time synchronization (paper eq. 2): around the
    /// nominal block start, find the shift maximizing the normalized
    /// correlation between the cyclic prefix and the symbol tail.
    fn fine_sync(&self, recording: &[f64], nominal_start: usize) -> isize {
        let (n, cp) = (FFT_SIZE, CP_LEN);
        let tau = FINE_SYNC_RANGE as isize;
        let mut best = (0isize, f64::MIN);
        for tf in -tau..=tau {
            let start = nominal_start as isize + tf;
            if start < 0 {
                continue;
            }
            let start = start as usize;
            if start + cp + n > recording.len() {
                continue;
            }
            let head = &recording[start..start + cp];
            let tail = &recording[start + n..start + n + cp];
            let dot: f64 = head.iter().zip(tail).map(|(a, b)| a * b).sum();
            let e1: f64 = head.iter().map(|x| x * x).sum();
            let e2: f64 = tail.iter().map(|x| x * x).sum();
            let denom = (e1 * e2).sqrt();
            let score = if denom > 0.0 { dot / denom } else { 0.0 };
            if score > best.1 {
                best = (tf, score);
            }
        }
        best.0
    }

    /// Estimates the complex channel gain on every sub-channel covered
    /// by the pilot span, filling a per-bin `table` (paper §III.6). Pilot
    /// magnitude and unwrapped phase are interpolated separately
    /// (linear): the magnitude of unit pilots stays exact even when the
    /// device's phase response wiggles faster than the pilot spacing can
    /// track, so amplitude keying is immune to the audio chain's phase
    /// ripple. All working memory comes from `ch`, so repeated calls
    /// allocate nothing.
    fn estimate_channel_into(
        &self,
        spectrum: &[Complex],
        ch: &mut ChannelScratch,
        table: &mut Vec<Option<Complex>>,
    ) {
        let pilots = self.config.pilot_channels();
        let spacing = PILOT_SPACING;
        table.clear();
        table.resize(FFT_SIZE, None);
        ch.z.clear();
        ch.z.extend(pilots.iter().map(|&p| spectrum[p]));
        let z = &ch.z;
        ch.mags.clear();
        ch.mags.extend(z.iter().map(|c| c.abs()));
        ch.phases.clear();
        ch.phases.extend(z.iter().map(|c| c.arg()));
        for i in 1..ch.phases.len() {
            let mut d = ch.phases[i] - ch.phases[i - 1];
            while d > std::f64::consts::PI {
                d -= std::f64::consts::TAU;
            }
            while d < -std::f64::consts::PI {
                d += std::f64::consts::TAU;
            }
            ch.phases[i] = ch.phases[i - 1] + d;
        }
        ch.interp.clear();
        ch.interp.reserve(z.len() * spacing);
        let (mags, phases) = (&ch.mags, &ch.phases);
        for i in 0..z.len() {
            let ni = (i + 1).min(z.len() - 1);
            for j in 0..spacing {
                let t = j as f64 / spacing as f64;
                let m = mags[i] * (1.0 - t) + mags[ni] * t;
                let p = phases[i] * (1.0 - t) + phases[ni] * t;
                ch.interp.push(Complex::from_polar(m, p));
            }
        }
        let base = pilots[0];
        for (j, h) in ch.interp.iter().enumerate() {
            let k = base + j;
            if k < table.len() {
                table[k] = Some(*h);
            }
        }
        // Channels beyond the last pilot extend the final estimate.
        let last_pilot = *pilots.last().expect("non-empty");
        let last_h = table[last_pilot];
        for k in (last_pilot + 1)..table.len().min(FFT_SIZE / 2) {
            if table[k].is_none() {
                table[k] = last_h;
            }
        }
    }

    /// CP fine sync around the nominal block `start`, then the spectrum
    /// of the synchronized block body into `spectrum`.
    fn synced_block_spectrum(
        &self,
        recording: &[f64],
        start: usize,
        spectrum: &mut Vec<Complex>,
    ) -> Result<(), ModemError> {
        let (n, cp) = (FFT_SIZE, CP_LEN);
        if start + cp + n > recording.len() {
            return Err(ModemError::InvalidInput("block out of range".into()));
        }
        let tf = self.fine_sync(recording, start);
        let body_start = (start as isize + tf) as usize + cp;
        self.block_spectrum_into(&recording[body_start..body_start + n], spectrum)
    }

    /// Decodes one block starting at `start`, leaving the equalized
    /// data symbols in `scratch.equalized`.
    fn decode_block(
        &self,
        recording: &[f64],
        start: usize,
        scratch: &mut DemodScratch,
    ) -> Result<(), ModemError> {
        self.synced_block_spectrum(recording, start, &mut scratch.spectrum)?;
        self.estimate_channel_into(&scratch.spectrum, &mut scratch.chan, &mut scratch.channel);
        let (spectrum, channel) = (&scratch.spectrum, &scratch.channel);
        scratch.equalized.clear();
        scratch
            .equalized
            .extend(self.config.data_channels().iter().map(|&k| {
                let h = channel[k].unwrap_or(Complex::ONE);
                if h.norm_sq() > 1e-12 {
                    spectrum[k] / h
                } else {
                    spectrum[k]
                }
            }));
        Ok(())
    }

    /// Demodulates a recording known to carry `n_bits` at `modulation`
    /// into `frame`: [`OfdmDemodulator::detect`] followed by
    /// [`OfdmDemodulator::demodulate_synced`].
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::SignalNotFound`] if no preamble is
    /// detected, [`ModemError::InvalidInput`] for `n_bits == 0` and
    /// [`ModemError::TruncatedSignal`] if the recording ends before all
    /// expected blocks.
    pub fn demodulate(
        &self,
        recording: &[f64],
        modulation: Modulation,
        n_bits: usize,
        scratch: &mut DemodScratch,
        frame: &mut DemodFrame,
    ) -> Result<(), ModemError> {
        let sync = self.detect(recording, scratch)?;
        self.demodulate_synced(recording, modulation, n_bits, sync, scratch, frame)
    }

    /// Demodulates the blocks of a frame whose preamble sits at `sync`
    /// into `frame`, reusing both the scratch and the frame's bit
    /// buffer: after one warmup call, decoding a frame performs no heap
    /// allocation at all (gated by the counting-allocator harness in
    /// `wearlock-tests`).
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::InvalidInput`] for `n_bits == 0` and
    /// [`ModemError::TruncatedSignal`] if the recording ends before all
    /// expected blocks.
    pub fn demodulate_synced(
        &self,
        recording: &[f64],
        modulation: Modulation,
        n_bits: usize,
        sync: FrameSync,
        scratch: &mut DemodScratch,
        frame: &mut DemodFrame,
    ) -> Result<(), ModemError> {
        if n_bits == 0 {
            return Err(ModemError::InvalidInput("n_bits must be positive".into()));
        }
        let per_block = self.config.bits_per_block(modulation.bits_per_symbol());
        let blocks_expected = n_bits.div_ceil(per_block);
        let frame_start = sync.preamble_offset + PREAMBLE_LEN + POST_PREAMBLE_GUARD;

        frame.bits.clear();
        let mut evm_sum = 0.0;
        for b in 0..blocks_expected {
            let start = frame_start + b * SYMBOL_LEN;
            self.decode_block(recording, start, scratch).map_err(|_| {
                ModemError::TruncatedSignal {
                    blocks_decoded: b,
                    blocks_expected,
                }
            })?;
            let mut evm = 0.0;
            for &sym in &scratch.equalized {
                let idx = modulation.demap_index(sym);
                let decided = modulation.point(idx);
                evm += (sym - decided).norm_sq();
                modulation.demap_bits_into(idx, &mut frame.bits);
            }
            evm_sum += evm / scratch.equalized.len().max(1) as f64;
        }
        frame.bits.truncate(n_bits);
        frame.sync = sync;
        frame.blocks = blocks_expected;
        frame.mean_evm = evm_sum / blocks_expected as f64;
        Ok(())
    }

    /// Analyzes an RTS probe recording: synchronizes, measures the
    /// ambient noise spectrum from the pre-preamble samples, estimates
    /// per-channel gains from the pilot block, and computes the
    /// pilot-based SNR of eq. 3. The ambient window powers accumulate in
    /// one flat bin-major scratch buffer and the block FFTs reuse the
    /// scratch spectrum; only the returned report's vectors are
    /// allocated.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::SignalNotFound`] if the probe preamble is
    /// not detected, [`ModemError::TruncatedSignal`] if the pilot block
    /// is cut off.
    pub fn analyze_probe(
        &self,
        recording: &[f64],
        scratch: &mut DemodScratch,
    ) -> Result<ProbeReport, ModemError> {
        let sync = self.detect(recording, scratch)?;
        let n = FFT_SIZE;

        // Ambient noise spectrum from windows before the preamble.
        // Per-bin *median* across windows: robust against keyboard
        // clicks and other transients that would wreck a mean estimate.
        let ambient = &recording[..sync.preamble_offset];
        let ambient_spl = wearlock_dsp::level::spl(ambient);
        scratch.noise.clear();
        scratch.noise.resize(n, 0.0);
        let windows = (ambient.len() / n).min(48);
        if windows > 0 {
            // Flat bin-major layout: bin k's samples live at
            // [k*windows, (k+1)*windows) so the per-bin median is a
            // contiguous in-place sort, with no per-bin vectors.
            scratch.bins.clear();
            scratch.bins.resize(n * windows, 0.0);
            for w in 0..windows {
                let seg = &ambient[w * n..(w + 1) * n];
                self.block_spectrum_into(seg, &mut scratch.spectrum)?;
                for (k, z) in scratch.spectrum.iter().enumerate() {
                    scratch.bins[k * windows + w] = z.norm_sq();
                }
            }
            for k in 0..n {
                let xs = &mut scratch.bins[k * windows..(k + 1) * windows];
                xs.sort_unstable_by(f64::total_cmp);
                scratch.noise[k] = xs[xs.len() / 2];
            }
        }

        // Pilot block.
        let start = sync.preamble_offset + PREAMBLE_LEN + POST_PREAMBLE_GUARD;
        self.synced_block_spectrum(recording, start, &mut scratch.spectrum)
            .map_err(|_| ModemError::TruncatedSignal {
                blocks_decoded: 0,
                blocks_expected: 1,
            })?;
        let spectrum = &scratch.spectrum;

        // In the probe, data channels also carry unit pilots, so gains
        // can be read off every active channel directly.
        let active_bins = || {
            self.config
                .pilot_channels()
                .iter()
                .chain(self.config.data_channels())
        };
        let mut channel_gain = vec![None; n];
        for &k in active_bins() {
            channel_gain[k] = Some(spectrum[k]);
        }

        // Pilot-based SNR (paper eq. 3): signal-bearing bin power over
        // noise power. The noise reference prefers the *ambient*
        // spectrum measured on the same active bins before the preamble
        // — the in-band null bins sit at the low edge of the band where
        // speech-like noise is strongest, so eq. 3's null-bin estimate
        // is biased pessimistic under tilted noise. With no ambient
        // lead-in we fall back to the null bins.
        let active_power = mean_power(spectrum, active_bins());
        let ambient_noise = if windows > 0 {
            let count = active_bins().count();
            let m = active_bins().map(|&k| scratch.noise[k]).sum::<f64>() / count as f64;
            if m > 0.0 {
                Some(m)
            } else {
                None
            }
        } else {
            None
        };
        let noise_power = ambient_noise
            .unwrap_or_else(|| mean_power(spectrum, self.config.null_channels_in_band().iter()));
        let psnr_linear = if noise_power > 0.0 {
            ((active_power - noise_power) / noise_power).max(1e-6)
        } else {
            1e6
        };
        Ok(ProbeReport {
            sync,
            psnr: Db::from_linear_power(psnr_linear),
            noise_spectrum: scratch.noise.clone(),
            channel_gain,
            ambient_spl,
        })
    }
}

fn mean_power<'a>(spectrum: &[Complex], bins: impl Iterator<Item = &'a usize>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &k in bins {
        sum += spectrum[k].norm_sq();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Fraction of differing bits between two equal-length bit streams.
///
/// # Panics
///
/// Panics if the lengths differ — compare like with like.
pub fn bit_error_rate(sent: &[bool], received: &[bool]) -> f64 {
    assert_eq!(sent.len(), received.len(), "ber needs equal-length streams");
    if sent.is_empty() {
        return 0.0;
    }
    let errors = sent.iter().zip(received).filter(|(a, b)| a != b).count();
    errors as f64 / sent.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulator::OfdmModulator;
    use crate::scratch::TxScratch;

    fn bits(n: usize) -> Vec<bool> {
        (0..n).map(|i| (i * 13 + 1) % 7 < 3).collect()
    }

    fn pair() -> (OfdmModulator, OfdmDemodulator) {
        let cfg = OfdmConfig::default();
        (
            OfdmModulator::new(cfg.clone()).unwrap(),
            OfdmDemodulator::new(cfg).unwrap(),
        )
    }

    fn modulate(tx: &OfdmModulator, payload: &[bool], m: Modulation) -> Vec<f64> {
        let mut wave = Vec::new();
        tx.modulate(payload, m, &mut TxScratch::new(), &mut wave)
            .unwrap();
        wave
    }

    fn probe(tx: &OfdmModulator) -> Vec<f64> {
        let mut wave = Vec::new();
        tx.probe(1, &mut TxScratch::new(), &mut wave).unwrap();
        wave
    }

    /// Detects and demodulates on fresh scratch.
    fn demodulate(
        rx: &OfdmDemodulator,
        rec: &[f64],
        m: Modulation,
        n_bits: usize,
    ) -> Result<DemodFrame, ModemError> {
        let mut frame = DemodFrame::new();
        rx.demodulate(rec, m, n_bits, &mut DemodScratch::new(), &mut frame)?;
        Ok(frame)
    }

    #[test]
    fn clean_roundtrip_all_modulations() {
        let (tx, rx) = pair();
        for m in Modulation::ALL {
            let payload = bits(60);
            let wave = modulate(&tx, &payload, m);
            let out = demodulate(&rx, &wave, m, payload.len()).unwrap();
            assert_eq!(out.bits, payload, "{m}");
            assert!(out.sync.preamble_score > 0.9, "{m}");
        }
    }

    #[test]
    fn roundtrip_with_leading_offset_and_noise_padding() {
        let (tx, rx) = pair();
        let payload = bits(48);
        let wave = modulate(&tx, &payload, Modulation::Qpsk);
        let mut rec = vec![0.0; 3_000];
        // tiny noise so silence detection has something to skip
        for (i, r) in rec.iter_mut().enumerate() {
            *r = 1e-4 * ((i * 2654435761) as f64 % 17.0 - 8.0) / 8.0;
        }
        rec.extend_from_slice(&wave);
        rec.extend(std::iter::repeat_n(1e-4, 500));
        let out = demodulate(&rx, &rec, Modulation::Qpsk, payload.len()).unwrap();
        assert_eq!(out.bits, payload);
        assert!((out.sync.preamble_offset as isize - 3_000).unsigned_abs() <= 2);
    }

    #[test]
    fn search_window_bounds_scan_without_changing_sync() {
        let (tx, rx) = pair();
        let payload = bits(48);
        let wave = modulate(&tx, &payload, Modulation::Qpsk);
        let mut rec = vec![0.0; 3_000];
        for (i, r) in rec.iter_mut().enumerate() {
            *r = 1e-4 * ((i * 2654435761) as f64 % 17.0 - 8.0) / 8.0;
        }
        rec.extend_from_slice(&wave);
        let full = rx.detect(&rec, &mut DemodScratch::new()).unwrap();
        // A window around the true offset: same sync, bounded scan.
        let windowed = rx.clone().with_search_window(2_800, 3_200 + PREAMBLE_LEN);
        let (from, to) = windowed.search_span(rec.len());
        assert!(to - from < rec.len() / 2, "window did not bound the scan");
        let sync = windowed.detect(&rec, &mut DemodScratch::new()).unwrap();
        assert_eq!(sync.preamble_offset, full.preamble_offset);
        // A window that excludes the signal finds nothing.
        let missing = rx.clone().with_search_window(0, 1_500);
        assert!(matches!(
            missing.detect(&rec, &mut DemodScratch::new()),
            Err(ModemError::SignalNotFound { .. })
        ));
    }

    #[test]
    fn search_span_clamps_to_recording_and_preamble() {
        let (_tx, rx) = pair();
        let p = PREAMBLE_LEN;
        // No window: the whole recording.
        assert_eq!(rx.search_span(10_000), (0, 10_000));
        let rx = rx.with_search_window(4_000, 20_000);
        // End clamps to the buffer.
        assert_eq!(rx.search_span(10_000), (4_000, 10_000));
        // A window shorter than the preamble widens to fit it.
        let (from, to) = rx.search_span(4_100);
        assert!(to - from >= p, "span {from}..{to} can't fit the preamble");
    }

    #[test]
    fn detects_at_the_fixed_threshold() {
        // A preamble under rising levels of the same noise: every
        // detection scores at least the threshold, every miss below it,
        // and some preamble is detected below the former 0.35 bar.
        let (_tx, rx) = pair();
        let rx = rx.with_search_window(0, 4_000);
        let preamble = rx.config().preamble_chirp().generate();
        let mut state = 7u64;
        let noise: Vec<f64> = (0..4_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.2
            })
            .collect();
        let mut below_former_bar = 0;
        for step in 0..40 {
            let mut rec = noise.clone();
            for (r, p) in rec[1_500..].iter_mut().zip(&preamble) {
                *r += 0.002 * step as f64 * p;
            }
            match rx.detect(&rec, &mut DemodScratch::new()) {
                Ok(sync) => {
                    assert!(sync.preamble_score >= DETECTION_THRESHOLD, "{sync:?}");
                    below_former_bar += usize::from(sync.preamble_score < 0.35);
                }
                Err(ModemError::SignalNotFound { best_score }) => {
                    assert!(best_score < DETECTION_THRESHOLD, "{best_score}")
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(below_former_bar > 0);
    }

    #[test]
    fn detects_nothing_in_pure_noise() {
        let (_tx, rx) = pair();
        let mut state = 1u64;
        let rec: Vec<f64> = (0..8_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.2
            })
            .collect();
        let err = rx.detect(&rec, &mut DemodScratch::new()).unwrap_err();
        assert!(matches!(err, ModemError::SignalNotFound { .. }));
    }

    #[test]
    fn short_recording_is_invalid_input() {
        let (_tx, rx) = pair();
        assert!(matches!(
            rx.detect(&[0.0; 10], &mut DemodScratch::new()),
            Err(ModemError::InvalidInput(_))
        ));
    }

    #[test]
    fn truncated_signal_reports_progress() {
        let (tx, rx) = pair();
        let payload = bits(60); // 3 QPSK blocks
        let wave = modulate(&tx, &payload, Modulation::Qpsk);
        let cut = &wave[..wave.len() - 500]; // chop into the last block
        let err = demodulate(&rx, cut, Modulation::Qpsk, payload.len()).unwrap_err();
        match err {
            ModemError::TruncatedSignal {
                blocks_decoded,
                blocks_expected,
            } => {
                assert_eq!(blocks_expected, 3);
                assert!(blocks_decoded < 3);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn survives_attenuation_and_integer_delay() {
        let (tx, rx) = pair();
        let payload = bits(36);
        let wave = modulate(&tx, &payload, Modulation::Psk8);
        let mut rec = vec![0.0; 777];
        rec.extend(wave.iter().map(|s| s * 0.01));
        let out = demodulate(&rx, &rec, Modulation::Psk8, payload.len()).unwrap();
        assert_eq!(out.bits, payload);
    }

    #[test]
    fn survives_static_multipath_via_equalization() {
        let (tx, rx) = pair();
        let payload = bits(48);
        let wave = modulate(&tx, &payload, Modulation::Qpsk);
        // Two-tap channel: direct + echo at 20 samples, plus gain.
        let mut rec = vec![0.0; wave.len() + 20];
        for (i, &s) in wave.iter().enumerate() {
            rec[i] += 0.8 * s;
            rec[i + 20] += 0.3 * s;
        }
        let out = demodulate(&rx, &rec, Modulation::Qpsk, payload.len()).unwrap();
        assert_eq!(out.bits, payload);
        // Echo inflates delay spread but stays well under NLOS levels.
        assert!(out.sync.rms_delay_spread < 0.002);
    }

    #[test]
    fn probe_reports_high_psnr_on_clean_channel() {
        let (tx, rx) = pair();
        let probe = probe(&tx);
        let mut rec = vec![1e-5; 2_048];
        rec.extend_from_slice(&probe);
        let report = rx.analyze_probe(&rec, &mut DemodScratch::new()).unwrap();
        assert!(report.psnr.value() > 30.0, "psnr {}", report.psnr);
        assert_eq!(report.noise_spectrum.len(), FFT_SIZE);
        for &k in rx.config().data_channels() {
            assert!(report.channel_gain[k].is_some());
        }
    }

    #[test]
    fn probe_noise_spectrum_sees_jammer_tone() {
        let (tx, rx) = pair();
        let cfg = rx.config().clone();
        let probe = probe(&tx);
        // Jam sub-channel 20 during the ambient lead-in and probe.
        let jam_bin = 20usize;
        let f = cfg.channel_frequency(jam_bin).value();
        let mut rec: Vec<f64> = (0..4_096)
            .map(|i| 0.3 * (std::f64::consts::TAU * f * i as f64 / 44_100.0).sin())
            .collect();
        let offset = rec.len();
        rec.extend(std::iter::repeat_n(0.0, probe.len()));
        for (i, &s) in probe.iter().enumerate() {
            rec[offset + i] += s;
        }
        let report = rx.analyze_probe(&rec, &mut DemodScratch::new()).unwrap();
        let jam_power = report.noise_on(jam_bin);
        let quiet_power = report.noise_on(40);
        assert!(
            jam_power > 100.0 * quiet_power.max(1e-12),
            "jam {jam_power} quiet {quiet_power}"
        );
    }

    #[test]
    fn ebn0_increases_with_lower_order() {
        let cfg = OfdmConfig::default();
        let e_bpsk = ebn0_from_psnr(Db(20.0), &cfg, Modulation::Bpsk);
        let e_qam = ebn0_from_psnr(Db(20.0), &cfg, Modulation::Qam16);
        // Lower rate concentrates more energy per bit.
        assert!(e_bpsk.value() > e_qam.value());
    }

    #[test]
    fn ber_utility() {
        assert_eq!(bit_error_rate(&[], &[]), 0.0);
        assert_eq!(
            bit_error_rate(&[true, false, true, false], &[true, true, true, true]),
            0.5
        );
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn ber_panics_on_length_mismatch() {
        bit_error_rate(&[true], &[true, false]);
    }

    #[test]
    fn fine_sync_recovers_small_shift() {
        let (tx, rx) = pair();
        let payload = bits(24);
        let wave = modulate(&tx, &payload, Modulation::Qpsk);
        // Claim sync 5 samples early: fine sync must absorb it.
        let sync = FrameSync {
            preamble_offset: 0,
            preamble_score: 1.0,
            rms_delay_spread: 0.0,
        };
        let mut rec = vec![0.0; 5];
        rec.extend_from_slice(&wave);
        let nominal = PREAMBLE_LEN + POST_PREAMBLE_GUARD;
        assert_eq!(rx.fine_sync(&rec, nominal), 5);
        let mut frame = DemodFrame::new();
        rx.demodulate_synced(
            &rec,
            Modulation::Qpsk,
            payload.len(),
            sync,
            &mut DemodScratch::new(),
            &mut frame,
        )
        .unwrap();
        assert_eq!(frame.bits, payload);
    }

    #[test]
    fn zero_bits_rejected() {
        let (tx, rx) = pair();
        let wave = modulate(&tx, &bits(24), Modulation::Qpsk);
        assert!(matches!(
            demodulate(&rx, &wave, Modulation::Qpsk, 0),
            Err(ModemError::InvalidInput(_))
        ));
        let mut scratch = DemodScratch::new();
        let sync = rx.detect(&wave, &mut scratch).unwrap();
        let mut frame = DemodFrame::new();
        assert!(matches!(
            rx.demodulate_synced(&wave, Modulation::Qpsk, 0, sync, &mut scratch, &mut frame),
            Err(ModemError::InvalidInput(_))
        ));
    }

    /// A recording with a noisy lead-in so detection and multi-block
    /// decoding both have work to do.
    fn test_recording(tx: &OfdmModulator, payload: &[bool]) -> Vec<f64> {
        let wave = modulate(tx, payload, Modulation::Qpsk);
        let mut rec = vec![0.0; 3_000];
        for (i, r) in rec.iter_mut().enumerate() {
            *r = 1e-4 * ((i * 2654435761) as f64 % 17.0 - 8.0) / 8.0;
        }
        rec.extend_from_slice(&wave);
        rec
    }

    #[test]
    fn demodulate_frame_into_matches_demodulate_synced() {
        let (tx, rx) = pair();
        let payload = bits(96);
        let rec = test_recording(&tx, &payload);
        let full = demodulate(&rx, &rec, Modulation::Qpsk, payload.len()).unwrap();
        assert_eq!(full.bits, payload);

        let mut scratch = DemodScratch::new();
        let sync = rx.detect(&rec, &mut scratch).unwrap();
        let mut frame = DemodFrame::new();
        // Decode twice into the same frame: identical output both times.
        for _ in 0..2 {
            rx.demodulate_synced(
                &rec,
                Modulation::Qpsk,
                payload.len(),
                sync,
                &mut scratch,
                &mut frame,
            )
            .unwrap();
            assert_eq!(frame.bits, full.bits);
            assert_eq!(frame.blocks, full.blocks);
            assert_eq!(frame.sync, sync);
            assert_eq!(frame.mean_evm.to_bits(), full.mean_evm.to_bits());
        }
    }
}
