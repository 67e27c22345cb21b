//! Acoustic hardware fingerprinting — the paper's proposed relay
//! counter-measure (§IV.4): "we can use fingerprinting method to
//! unique identify those acoustic hardware to check if there are
//! relays".
//!
//! Every physical speaker carries its own phase-response ripple (cone
//! resonances land at unit-specific frequencies). The probe's
//! per-sub-channel channel estimate exposes that ripple: after removing
//! the bulk propagation delay (a linear phase) the *residual* phase
//! pattern is a stable device signature. A relay inserts an extra
//! speaker+microphone pair, so the end-to-end residual no longer
//! matches the enrolled device.

use wearlock_dsp::Complex;
use wearlock_modem::config::OfdmConfig;
use wearlock_modem::ProbeReport;

/// A device's acoustic phase signature over the active sub-channels.
#[derive(Debug, Clone, PartialEq)]
pub struct AcousticFingerprint {
    /// Sub-channel indices the signature covers (ascending).
    bins: Vec<usize>,
    /// Detrended residual phase per bin, radians.
    residual_phase: Vec<f64>,
}

impl AcousticFingerprint {
    /// Extracts a fingerprint from a probe analysis.
    ///
    /// Returns `None` when fewer than four active bins carry a usable
    /// channel estimate (not enough structure to detrend).
    pub fn from_probe(report: &ProbeReport, config: &OfdmConfig) -> Option<Self> {
        let mut bins = Vec::new();
        let mut phases = Vec::new();
        for &k in config.pilot_channels().iter().chain(config.data_channels()) {
            if let Some(h) = report.channel_gain.get(k).copied().flatten() {
                if h.norm_sq() > 1e-12 {
                    bins.push(k);
                    phases.push(h.arg());
                }
            }
        }
        if bins.len() < 4 {
            return None;
        }
        // Sort by bin, unwrap phases along frequency.
        let mut order: Vec<usize> = (0..bins.len()).collect();
        order.sort_by_key(|&i| bins[i]);
        let bins: Vec<usize> = order.iter().map(|&i| bins[i]).collect();
        let mut unwrapped: Vec<f64> = order.iter().map(|&i| phases[i]).collect();
        for i in 1..unwrapped.len() {
            let mut d = unwrapped[i] - unwrapped[i - 1];
            while d > std::f64::consts::PI {
                d -= std::f64::consts::TAU;
            }
            while d < -std::f64::consts::PI {
                d += std::f64::consts::TAU;
            }
            unwrapped[i] = unwrapped[i - 1] + d;
        }
        // Least-squares detrend (removes bulk delay + constant phase).
        let n = bins.len() as f64;
        let xs: Vec<f64> = bins.iter().map(|&b| b as f64).collect();
        let mx = xs.iter().sum::<f64>() / n;
        let my = unwrapped.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let sxy: f64 = xs
            .iter()
            .zip(&unwrapped)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum();
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        let residual_phase: Vec<f64> = xs
            .iter()
            .zip(&unwrapped)
            .map(|(x, y)| y - (my + slope * (x - mx)))
            .collect();
        Some(AcousticFingerprint {
            bins,
            residual_phase,
        })
    }

    /// The sub-channels covered.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// RMS difference in radians against another fingerprint, over the
    /// common bins. Returns `f64::INFINITY` with fewer than four common
    /// bins.
    pub fn distance(&self, other: &AcousticFingerprint) -> f64 {
        let mut diffs = Vec::new();
        for (i, &b) in self.bins.iter().enumerate() {
            if let Some(j) = other.bins.iter().position(|&ob| ob == b) {
                diffs.push(self.residual_phase[i] - other.residual_phase[j]);
            }
        }
        if diffs.len() < 4 {
            return f64::INFINITY;
        }
        // Remove any common offset before the RMS (different probes can
        // carry a global phase).
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        (diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / diffs.len() as f64).sqrt()
    }

    /// Phase residual on bin `k`, if covered.
    pub fn residual_on(&self, k: usize) -> Option<f64> {
        self.bins
            .iter()
            .position(|&b| b == k)
            .map(|i| self.residual_phase[i])
    }
}

/// Verifier holding the enrolled device signature.
///
/// # Examples
///
/// ```no_run
/// use wearlock::fingerprint::{AcousticFingerprint, FingerprintVerifier};
/// # fn get_probe() -> (wearlock_modem::ProbeReport, wearlock_modem::OfdmConfig) { unimplemented!() }
/// let (enroll_probe, config) = get_probe();
/// let enrolled = AcousticFingerprint::from_probe(&enroll_probe, &config).unwrap();
/// let verifier = FingerprintVerifier::new(enrolled, 0.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintVerifier {
    enrolled: AcousticFingerprint,
    threshold_rad: f64,
}

impl FingerprintVerifier {
    /// Creates a verifier accepting probes within `threshold_rad` RMS
    /// phase distance of the enrolled signature.
    pub fn new(enrolled: AcousticFingerprint, threshold_rad: f64) -> Self {
        FingerprintVerifier {
            enrolled,
            threshold_rad,
        }
    }

    /// Enrolls from several probes by averaging their residuals
    /// (reduces per-probe noise). Returns `None` if no probe yields a
    /// fingerprint.
    pub fn enroll(probes: &[ProbeReport], config: &OfdmConfig, threshold_rad: f64) -> Option<Self> {
        let prints: Vec<AcousticFingerprint> = probes
            .iter()
            .filter_map(|p| AcousticFingerprint::from_probe(p, config))
            .collect();
        let first = prints.first()?;
        let mut avg = first.clone();
        for (i, &b) in first.bins.clone().iter().enumerate() {
            let mut vals = Vec::new();
            for p in &prints {
                if let Some(v) = p.residual_on(b) {
                    vals.push(v);
                }
            }
            avg.residual_phase[i] = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        }
        Some(FingerprintVerifier::new(avg, threshold_rad))
    }

    /// The enrolled signature.
    pub fn enrolled(&self) -> &AcousticFingerprint {
        &self.enrolled
    }

    /// Checks a probe against the enrolled device. `true` = same
    /// hardware within tolerance.
    pub fn matches(&self, probe: &ProbeReport, config: &OfdmConfig) -> bool {
        match AcousticFingerprint::from_probe(probe, config) {
            Some(fp) => self.enrolled.distance(&fp) <= self.threshold_rad,
            None => false,
        }
    }
}

/// Helper for tests and simulations: builds a fingerprint directly from
/// a per-bin channel-gain table.
pub fn fingerprint_from_gains(gains: &[(usize, Complex)]) -> Option<AcousticFingerprint> {
    if gains.len() < 4 {
        return None;
    }
    let mut report_gain = vec![None; 256];
    for &(k, h) in gains {
        if k < report_gain.len() {
            report_gain[k] = Some(h);
        }
    }
    // Reuse the probe path via a synthetic config covering those bins.
    let bins: Vec<usize> = gains.iter().map(|&(k, _)| k).collect();
    let mut sorted = bins.clone();
    sorted.sort_unstable();
    let mut phases: Vec<f64> = Vec::new();
    let mut out_bins = Vec::new();
    for b in sorted {
        if let Some(h) = report_gain[b] {
            out_bins.push(b);
            phases.push(h.arg());
        }
    }
    // Unwrap + detrend (duplicated from `from_probe` for the raw path).
    for i in 1..phases.len() {
        let mut d = phases[i] - phases[i - 1];
        while d > std::f64::consts::PI {
            d -= std::f64::consts::TAU;
        }
        while d < -std::f64::consts::PI {
            d += std::f64::consts::TAU;
        }
        phases[i] = phases[i - 1] + d;
    }
    let n = out_bins.len() as f64;
    let xs: Vec<f64> = out_bins.iter().map(|&b| b as f64).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = phases.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs
        .iter()
        .zip(&phases)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum();
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let residual_phase = xs
        .iter()
        .zip(&phases)
        .map(|(x, y)| y - (my + slope * (x - mx)))
        .collect();
    Some(AcousticFingerprint {
        bins: out_bins,
        residual_phase,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_acoustics::channel::AcousticLink;
    use wearlock_acoustics::hardware::SpeakerModel;
    use wearlock_acoustics::noise::Location;
    use wearlock_dsp::units::{Meters, Spl};
    use wearlock_modem::{DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

    fn probe_with_speaker(speaker: SpeakerModel, seed: u64) -> (ProbeReport, OfdmConfig) {
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).unwrap();
        let rx = OfdmDemodulator::new(cfg.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let link = AcousticLink::builder()
            .distance(Meters(0.3))
            .noise(Location::QuietRoom.noise_model())
            .speaker(speaker)
            .build()
            .unwrap();
        let mut probe = Vec::new();
        tx.probe(2, &mut TxScratch::new(), &mut probe).unwrap();
        let rec = link.transmit(&probe, Spl(65.0), &mut rng);
        (
            rx.analyze_probe(&rec, &mut DemodScratch::new()).unwrap(),
            cfg,
        )
    }

    #[test]
    fn same_device_matches_across_probes() {
        let spk = SpeakerModel::smartphone();
        let (p1, cfg) = probe_with_speaker(spk.clone(), 1);
        let (p2, _) = probe_with_speaker(spk.clone(), 2);
        let verifier = FingerprintVerifier::enroll(&[p1], &cfg, 0.3).unwrap();
        assert!(verifier.matches(&p2, &cfg));
    }

    #[test]
    fn different_unit_is_rejected() {
        let (p1, cfg) = probe_with_speaker(SpeakerModel::smartphone(), 3);
        // A different physical unit: same model, different resonance
        // placement (ripple phase).
        let (p2, _) = probe_with_speaker(SpeakerModel::smartphone().with_ripple_phase(2.0), 4);
        let verifier = FingerprintVerifier::enroll(&[p1], &cfg, 0.3).unwrap();
        assert!(!verifier.matches(&p2, &cfg));
    }

    #[test]
    fn distance_is_small_same_large_different() {
        let spk = SpeakerModel::smartphone();
        let (p1, cfg) = probe_with_speaker(spk.clone(), 5);
        let (p2, _) = probe_with_speaker(spk.clone(), 6);
        let (p3, _) = probe_with_speaker(SpeakerModel::smartphone().with_ripple_phase(2.5), 7);
        let f1 = AcousticFingerprint::from_probe(&p1, &cfg).unwrap();
        let f2 = AcousticFingerprint::from_probe(&p2, &cfg).unwrap();
        let f3 = AcousticFingerprint::from_probe(&p3, &cfg).unwrap();
        let same = f1.distance(&f2);
        let diff = f1.distance(&f3);
        assert!(
            diff > 2.0 * same,
            "same-device {same:.3} rad vs different {diff:.3} rad"
        );
    }

    #[test]
    fn detrending_removes_bulk_delay() {
        // Pure linear phase (a delay) must produce a ~zero fingerprint.
        let gains: Vec<(usize, Complex)> = (10..40)
            .map(|k| (k, Complex::cis(-0.37 * k as f64 + 1.1)))
            .collect();
        let fp = fingerprint_from_gains(&gains).unwrap();
        let rms = (fp.residual_phase.iter().map(|p| p * p).sum::<f64>()
            / fp.residual_phase.len() as f64)
            .sqrt();
        assert!(rms < 1e-9, "rms {rms}");
    }

    #[test]
    fn too_few_bins_yields_none() {
        let gains: Vec<(usize, Complex)> = (0..3).map(|k| (k + 5, Complex::ONE)).collect();
        assert!(fingerprint_from_gains(&gains).is_none());
    }

    #[test]
    fn disjoint_fingerprints_are_infinitely_far() {
        let a = fingerprint_from_gains(&(10..20).map(|k| (k, Complex::ONE)).collect::<Vec<_>>())
            .unwrap();
        let b = fingerprint_from_gains(&(40..50).map(|k| (k, Complex::ONE)).collect::<Vec<_>>())
            .unwrap();
        assert!(a.distance(&b).is_infinite());
    }
}
