//! Sub-channel ranking and selection.
//!
//! After the RTS probe, WearLock ranks candidate sub-channels by the
//! noise power observed on them and picks data channels "in a priority
//! order from low frequency to high frequency, and from low noise power
//! to high noise power" (paper §III.7) — dodging long-lived interferers
//! such as a periodically restarting air conditioner or a deliberate
//! tone jammer (Fig. 9).

use crate::config::{OfdmConfig, FFT_SIZE};
use crate::error::ModemError;

/// The outcome of sub-channel selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SubchannelSelection {
    /// The chosen data channels (ascending).
    pub data_channels: Vec<usize>,
    /// Candidates that were rejected for excessive noise.
    pub rejected: Vec<usize>,
}

/// Selects data sub-channels for `config` given a per-bin noise power
/// spectrum (as produced by probe analysis).
///
/// The candidate pool is every non-pilot bin from the first pilot up to
/// `pool_extent` bins past the default span. The `count` least-noisy
/// candidates are shortlisted (with a 2× head-room factor) and the
/// lowest-frequency `count` of those become the data set.
///
/// # Errors
///
/// Returns [`ModemError::InvalidInput`] if the noise spectrum is shorter
/// than the FFT bins it must describe, or if the pool cannot supply
/// `count` channels.
pub fn select_data_channels(
    config: &OfdmConfig,
    noise_spectrum: &[f64],
    count: usize,
) -> Result<SubchannelSelection, ModemError> {
    if count == 0 {
        return Err(ModemError::InvalidInput(
            "must select at least one data channel".into(),
        ));
    }
    let lo = *config.pilot_channels().first().expect("validated") + 1;
    let hi_default = *config
        .data_channels()
        .iter()
        .chain(config.pilot_channels())
        .max()
        .expect("validated");
    // Allow growing past the default span to escape wide-band jammers.
    let hi = (hi_default + count).min(FFT_SIZE / 2 - 1);
    if noise_spectrum.len() <= hi {
        return Err(ModemError::InvalidInput(format!(
            "noise spectrum has {} bins, need at least {}",
            noise_spectrum.len(),
            hi + 1
        )));
    }
    let candidates: Vec<usize> = (lo..=hi)
        .filter(|k| !config.pilot_channels().contains(k))
        .collect();
    if candidates.len() < count {
        return Err(ModemError::InvalidInput(format!(
            "candidate pool ({}) smaller than requested channel count ({count})",
            candidates.len()
        )));
    }

    // Rank by noise power (ascending).
    let mut by_noise = candidates.clone();
    by_noise.sort_by(|&a, &b| noise_spectrum[a].total_cmp(&noise_spectrum[b]));

    // Shortlist the quietest 2×count (bounded by pool size), then take
    // the lowest-frequency `count` of them.
    let shortlist_len = (2 * count).min(by_noise.len());
    let mut shortlist = by_noise[..shortlist_len].to_vec();
    shortlist.sort_unstable();
    let mut chosen = shortlist[..count].to_vec();
    chosen.sort_unstable();

    let rejected = candidates
        .iter()
        .copied()
        .filter(|k| !chosen.contains(k))
        .collect();
    Ok(SubchannelSelection {
        data_channels: chosen,
        rejected,
    })
}

/// Applies a selection to a config, returning the re-tuned config.
///
/// # Errors
///
/// Propagates config validation failures.
pub fn apply_selection(
    config: &OfdmConfig,
    selection: &SubchannelSelection,
) -> Result<OfdmConfig, ModemError> {
    config.with_data_channels(selection.data_channels.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_noise(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn flat_noise_prefers_low_frequencies() {
        let cfg = OfdmConfig::default();
        let sel = select_data_channels(&cfg, &flat_noise(256), 12).unwrap();
        // Lowest 12 non-pilot bins starting at 8.
        assert_eq!(sel.data_channels[0], 8);
        assert_eq!(sel.data_channels.len(), 12);
        assert!(sel
            .data_channels
            .iter()
            .all(|k| !cfg.pilot_channels().contains(k)));
    }

    #[test]
    fn jammed_channels_are_avoided() {
        let cfg = OfdmConfig::default();
        let mut noise = flat_noise(256);
        for &k in &[16usize, 17, 20, 24] {
            noise[k] = 1_000.0;
        }
        let sel = select_data_channels(&cfg, &noise, 12).unwrap();
        for &k in &[16usize, 17, 20, 24] {
            assert!(!sel.data_channels.contains(&k), "jammed bin {k} selected");
            assert!(sel.rejected.contains(&k));
        }
    }

    #[test]
    fn selection_never_includes_pilots() {
        let cfg = OfdmConfig::default();
        let mut noise = flat_noise(256);
        // Make pilot bins look irresistibly quiet.
        for &p in cfg.pilot_channels() {
            noise[p] = 0.0;
        }
        let sel = select_data_channels(&cfg, &noise, 12).unwrap();
        for &p in cfg.pilot_channels() {
            assert!(!sel.data_channels.contains(&p));
        }
    }

    #[test]
    fn apply_selection_produces_valid_config() {
        let cfg = OfdmConfig::default();
        let mut noise = flat_noise(256);
        noise[16] = 99.0;
        let sel = select_data_channels(&cfg, &noise, 12).unwrap();
        let cfg2 = apply_selection(&cfg, &sel).unwrap();
        assert_eq!(cfg2.data_channels(), &sel.data_channels[..]);
        assert_eq!(cfg2.pilot_channels(), cfg.pilot_channels());
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let cfg = OfdmConfig::default();
        assert!(select_data_channels(&cfg, &flat_noise(256), 0).is_err());
        assert!(select_data_channels(&cfg, &flat_noise(10), 12).is_err());
        assert!(select_data_channels(&cfg, &flat_noise(256), 200).is_err());
    }

    #[test]
    fn count_honored_and_sorted() {
        let cfg = OfdmConfig::default();
        let sel = select_data_channels(&cfg, &flat_noise(256), 6).unwrap();
        assert_eq!(sel.data_channels.len(), 6);
        assert!(sel.data_channels.windows(2).all(|w| w[0] < w[1]));
    }
}
