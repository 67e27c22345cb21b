//! OFDM modem configuration.
//!
//! The frame is the paper's implementation (§VI), fixed as constants:
//! FFT size 256 at 44.1 kHz (≈172 Hz sub-channel bandwidth), cyclic
//! prefix 128 samples, preamble 256 samples, post-preamble guard 1 024
//! samples. Channels are indexed 1–256: data channels
//! {16,17,18,20,21,22,24,25,26,28,29,30} by default, pilot channels
//! {7,11,15,19,23,27,31,35}, everything else null. The assignment is
//! shifted to higher indices for the near-ultrasound (15–20 kHz)
//! phone–phone band. Only the band and the data channels vary.

use wearlock_dsp::chirp::Chirp;
use wearlock_dsp::units::{Hz, SampleRate};

use crate::error::ModemError;

/// The operating frequency band (paper §III.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrequencyBand {
    /// Audible 1–6 kHz, the band a Moto 360's ~7 kHz input low-pass
    /// leaves usable for a phone→watch link.
    #[default]
    Audible,
    /// Near-ultrasound 15–20 kHz, usable on phone→phone pairs.
    NearUltrasound,
}

impl FrequencyBand {
    /// The chirp sweep range used for the preamble in this band.
    pub fn chirp_range(self) -> (Hz, Hz) {
        match self {
            FrequencyBand::Audible => (Hz(1_000.0), Hz(6_000.0)),
            FrequencyBand::NearUltrasound => (Hz(15_000.0), Hz(20_000.0)),
        }
    }

    /// The sub-channel index shift applied to the default (audible)
    /// channel assignment: bin k sits at `k·fs/N` Hz, so +71 moves the
    /// audible assignment (bins 7–35, ≈1.2–6 kHz) up to ≈13.4–18.3 kHz.
    pub const fn index_shift(self) -> usize {
        match self {
            FrequencyBand::Audible => 0,
            FrequencyBand::NearUltrasound => 71,
        }
    }
}

impl std::fmt::Display for FrequencyBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrequencyBand::Audible => f.write_str("Audible"),
            FrequencyBand::NearUltrasound => f.write_str("Near-ultrasound"),
        }
    }
}

/// FFT size `N`: 256 points (paper §VI).
pub const FFT_SIZE: usize = 256;
/// The modem's sample rate, 44.1 kHz.
pub const SAMPLE_RATE: SampleRate = SampleRate::CD;
/// Cyclic prefix length in samples.
pub const CP_LEN: usize = 128;
/// Preamble (chirp) length in samples.
pub const PREAMBLE_LEN: usize = 256;
/// Zero-guard length after the preamble, in samples.
pub const POST_PREAMBLE_GUARD: usize = 1_024;
/// Samples per OFDM symbol including the cyclic prefix.
pub const SYMBOL_LEN: usize = FFT_SIZE + CP_LEN;
/// Search half-range `τ` (samples) for CP-based fine sync (eq. 2).
pub const FINE_SYNC_RANGE: usize = 8;

/// The paper's default audible-band data channels.
pub const DEFAULT_DATA_CHANNELS: [usize; 12] = [16, 17, 18, 20, 21, 22, 24, 25, 26, 28, 29, 30];
/// The paper's default audible-band pilot channels (equally spaced).
pub const DEFAULT_PILOT_CHANNELS: [usize; 8] = [7, 11, 15, 19, 23, 27, 31, 35];
/// Bins between neighbouring pilots.
pub(crate) const PILOT_SPACING: usize = DEFAULT_PILOT_CHANNELS[1] - DEFAULT_PILOT_CHANNELS[0];

/// Modem configuration: the operating band and the data channels in
/// use. Everything else about the frame is fixed (the constants above);
/// the pilots follow from the band.
///
/// # Examples
///
/// ```
/// use wearlock_modem::config::{FrequencyBand, OfdmConfig, SYMBOL_LEN};
///
/// let cfg = OfdmConfig::new(FrequencyBand::NearUltrasound);
/// assert_eq!(cfg.data_channels().len(), 12);
/// assert_eq!(SYMBOL_LEN, 384);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OfdmConfig {
    band: FrequencyBand,
    data_channels: Vec<usize>,
}

impl OfdmConfig {
    /// The paper's channel assignment, shifted into `band`.
    pub fn new(band: FrequencyBand) -> Self {
        let shift = band.index_shift();
        OfdmConfig {
            band,
            data_channels: DEFAULT_DATA_CHANNELS.iter().map(|k| k + shift).collect(),
        }
    }

    /// The operating band.
    pub fn band(&self) -> FrequencyBand {
        self.band
    }

    /// Data sub-channel indices (ascending).
    pub fn data_channels(&self) -> &[usize] {
        &self.data_channels
    }

    /// Pilot sub-channel indices (ascending): the default assignment
    /// moved into the band by [`FrequencyBand::index_shift`].
    pub fn pilot_channels(&self) -> &'static [usize] {
        const NEAR_ULTRASOUND: [usize; 8] = {
            let mut pilots = DEFAULT_PILOT_CHANNELS;
            let mut i = 0;
            while i < pilots.len() {
                pilots[i] += FrequencyBand::NearUltrasound.index_shift();
                i += 1;
            }
            pilots
        };
        match self.band {
            FrequencyBand::Audible => &DEFAULT_PILOT_CHANNELS,
            FrequencyBand::NearUltrasound => &NEAR_ULTRASOUND,
        }
    }

    /// The lowest and highest active (pilot or data) sub-channel.
    fn active_span(&self) -> (usize, usize) {
        let active = || self.pilot_channels().iter().chain(&self.data_channels);
        let lo = *active().min().expect("pilots are non-empty");
        let hi = *active().max().expect("pilots are non-empty");
        (lo, hi)
    }

    /// Null sub-channel indices inside the occupied band (between the
    /// lowest and highest active channel) — the set `N` of the
    /// pilot-SNR estimator (paper eq. 3).
    pub fn null_channels_in_band(&self) -> Vec<usize> {
        let (lo, hi) = self.active_span();
        (lo..=hi)
            .filter(|k| !self.data_channels.contains(k) && !self.pilot_channels().contains(k))
            .collect()
    }

    /// Sub-channel bandwidth `fs / N` (≈172 Hz).
    pub fn subchannel_bandwidth(&self) -> Hz {
        Hz(SAMPLE_RATE.value() / FFT_SIZE as f64)
    }

    /// Centre frequency of sub-channel `k`.
    pub fn channel_frequency(&self, k: usize) -> Hz {
        Hz(k as f64 * self.subchannel_bandwidth().value())
    }

    /// The preamble chirp for this band.
    pub fn preamble_chirp(&self) -> Chirp {
        let (lo, hi) = self.band.chirp_range();
        Chirp::new(lo, hi, PREAMBLE_LEN, SAMPLE_RATE).expect("static preamble parameters")
    }

    /// Occupied bandwidth `B` spanned by pilot+data channels, used in
    /// the `Eb/N0 = C/N · B/R` conversion.
    pub fn occupied_bandwidth(&self) -> Hz {
        let (lo, hi) = self.active_span();
        Hz((hi - lo + 1) as f64 * self.subchannel_bandwidth().value())
    }

    /// Raw data rate `R = |D|·r_c·log2(M) / (T_g + T_s)` in bits/s for a
    /// modulation of `bits_per_symbol` bits (no channel coding,
    /// `r_c = 1`; paper §III.7).
    pub fn data_rate(&self, bits_per_symbol: usize) -> f64 {
        let t_symbol = SYMBOL_LEN as f64 / SAMPLE_RATE.value();
        self.data_channels.len() as f64 * bits_per_symbol as f64 / t_symbol
    }

    /// Bits carried by one OFDM block at `bits_per_symbol`.
    pub fn bits_per_block(&self, bits_per_symbol: usize) -> usize {
        self.data_channels.len() * bits_per_symbol
    }

    /// Returns a copy with different data channels (used by sub-channel
    /// selection after probing). The channels are sorted and
    /// de-duplicated.
    ///
    /// # Errors
    ///
    /// Returns [`ModemError::InvalidConfig`] when the set is empty,
    /// holds a channel outside `1..FFT_SIZE/2`, or overlaps a pilot.
    pub fn with_data_channels(&self, mut data_channels: Vec<usize>) -> Result<Self, ModemError> {
        data_channels.sort_unstable();
        data_channels.dedup();
        if data_channels.is_empty() {
            return Err(ModemError::InvalidConfig(
                "data channel set must be non-empty".into(),
            ));
        }
        let max_bin = FFT_SIZE / 2 - 1;
        if let Some(k) = data_channels.iter().find(|&&k| k == 0 || k > max_bin) {
            return Err(ModemError::InvalidConfig(format!(
                "channel {k} outside 1..={max_bin}"
            )));
        }
        if data_channels
            .iter()
            .any(|k| self.pilot_channels().contains(k))
        {
            return Err(ModemError::InvalidConfig(
                "data and pilot channels overlap".into(),
            ));
        }
        Ok(OfdmConfig {
            band: self.band,
            data_channels,
        })
    }
}

impl Default for OfdmConfig {
    fn default() -> Self {
        OfdmConfig::new(FrequencyBand::Audible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = OfdmConfig::default();
        assert_eq!(cfg.data_channels(), &DEFAULT_DATA_CHANNELS);
        assert_eq!(cfg.pilot_channels(), &DEFAULT_PILOT_CHANNELS);
        // ~172 Hz sub-channel bandwidth.
        assert!((cfg.subchannel_bandwidth().value() - 172.27).abs() < 0.1);
    }

    #[test]
    fn near_ultrasound_shifts_channels_into_band() {
        let cfg = OfdmConfig::new(FrequencyBand::NearUltrasound);
        let f_lo = cfg.channel_frequency(*cfg.pilot_channels().first().unwrap());
        let f_hi = cfg.channel_frequency(*cfg.pilot_channels().last().unwrap());
        assert!(f_lo.value() > 13_000.0, "{f_lo}");
        assert!(f_hi.value() < 20_000.0, "{f_hi}");
    }

    #[test]
    fn null_channels_fill_gaps() {
        let cfg = OfdmConfig::default();
        let nulls = cfg.null_channels_in_band();
        // Between 7 and 35 inclusive: 29 bins, 12 data + 8 pilots = 20
        // active, 9 nulls.
        assert_eq!(nulls.len(), 9);
        assert!(nulls.contains(&8));
        assert!(!nulls.contains(&19));
    }

    #[test]
    fn data_rate_formula() {
        let cfg = OfdmConfig::default();
        // |D|=12, symbol = 384 samples at 44.1kHz → 8.71ms.
        let r = cfg.data_rate(2);
        let expect = 12.0 * 2.0 / (384.0 / 44_100.0);
        assert!((r - expect).abs() < 1e-9);
        assert_eq!(cfg.bits_per_block(3), 36);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        for band in [FrequencyBand::Audible, FrequencyBand::NearUltrasound] {
            let cfg = OfdmConfig::new(band);
            let pilot = cfg.pilot_channels()[0];
            assert!(cfg.with_data_channels(vec![]).is_err());
            assert!(cfg.with_data_channels(vec![pilot]).is_err()); // overlaps a pilot
            assert!(cfg.with_data_channels(vec![500]).is_err()); // out of range
            assert!(cfg.with_data_channels(vec![128]).is_err()); // Nyquist bin
            assert!(cfg.with_data_channels(vec![0]).is_err()); // DC bin
        }
    }

    #[test]
    fn with_data_channels_replaces_set() {
        let cfg = OfdmConfig::default();
        let cfg2 = cfg.with_data_channels(vec![21, 17, 18, 20, 17]).unwrap();
        assert_eq!(cfg2.data_channels(), &[17, 18, 20, 21]);
        assert_eq!(cfg2.pilot_channels(), cfg.pilot_channels());
        assert_eq!(cfg2.band(), cfg.band());
    }

    #[test]
    fn symbol_and_bandwidth_accessors() {
        let cfg = OfdmConfig::default();
        assert!((cfg.channel_frequency(16).value() - 2_756.25).abs() < 0.1);
        // Occupied band 7..=35 → 29 bins ≈ 5 kHz.
        assert!((cfg.occupied_bandwidth().value() - 29.0 * 172.27).abs() < 2.0);
    }

    #[test]
    fn preamble_chirp_spans_band() {
        let cfg = OfdmConfig::default();
        let chirp = cfg.preamble_chirp();
        assert_eq!(chirp.f_start(), Hz(1_000.0));
        assert_eq!(chirp.f_end(), Hz(6_000.0));
        assert_eq!(chirp.len(), PREAMBLE_LEN);
    }
}
