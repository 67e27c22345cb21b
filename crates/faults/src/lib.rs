//! Deterministic, seed-driven fault injection for the unlock pipeline.
//!
//! WearLock's evaluation environments are *benign by construction*:
//! noise is stationary, the Bluetooth link never hiccups, and the
//! watch's HOTP counter stays in sync. Real deployments see none of
//! that mercy — transient noise bursts, microphone dropouts, link
//! congestion, disconnects between the RTS/CTS and data phases, and
//! clock skew all eat unlock attempts. This crate models those failure
//! modes as data, so the session can be stressed *on purpose* and the
//! degradation curves measured (the `repro resilience` experiment).
//!
//! **Determinism contract.** A [`FaultPlan`] is a pure function of
//! `(seed, attempt_index)` — [`FaultPlan::derive`] draws every random
//! choice from its own RNG seeded by a hash of the pair, never from
//! the session's RNG. Two consequences:
//!
//! * sweeps that inject faults stay bitwise identical across
//!   `--threads`, exactly like the un-faulted experiments (the
//!   `wearlock-runtime` contract); and
//! * a plan derived at **zero intensity** is [`FaultPlan::is_null`],
//!   and a null plan's application is a strict no-op — an attempt run
//!   under a null plan makes byte-identical RNG draws to one run with
//!   no plan, so turning the subsystem off provably changes nothing.
//!
//! # Examples
//!
//! ```
//! use wearlock_faults::{FaultConfig, FaultIntensity, FaultPlan};
//!
//! let cfg = FaultConfig::new(7, FaultIntensity::uniform(0.8));
//! let plan = FaultPlan::derive(&cfg, 0);
//! assert_eq!(plan, FaultPlan::derive(&cfg, 0)); // pure in (seed, index)
//!
//! let calm = FaultConfig::new(7, FaultIntensity::zero());
//! assert!(FaultPlan::derive(&calm, 0).is_null());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Clamps to `[0, 1]`, mapping NaN to 0 (no faults).
fn clamp01(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(0.0, 1.0)
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed `u64 → u64` hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed for the plan of attempt `attempt_index` under `seed`.
///
/// Mixes the pair through SplitMix64 so adjacent attempt indices (and
/// adjacent sweep seeds) produce uncorrelated plans.
pub fn plan_seed(seed: u64, attempt_index: u64) -> u64 {
    splitmix64(seed ^ attempt_index.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Per-layer fault intensity, each in `[0, 1]`.
///
/// `0` means the layer is never faulted (and the derived plan is
/// provably null); `1` is the harshest setting the generator produces.
/// Values are clamped on construction, NaN maps to 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultIntensity {
    /// Acoustic channel faults: bursts, dropouts, gain collapse, clipping.
    pub acoustic: f64,
    /// Platform link faults: probe loss, latency spikes, disconnects.
    pub link: f64,
    /// Clock faults: HOTP counter skew and drift dead-time.
    pub clock: f64,
}

impl FaultIntensity {
    /// No faults anywhere.
    pub fn zero() -> Self {
        FaultIntensity {
            acoustic: 0.0,
            link: 0.0,
            clock: 0.0,
        }
    }

    /// The same intensity for every layer (clamped to `[0, 1]`).
    pub fn uniform(level: f64) -> Self {
        let level = clamp01(level);
        FaultIntensity {
            acoustic: level,
            link: level,
            clock: level,
        }
    }

    /// Per-layer intensities (each clamped to `[0, 1]`).
    pub fn new(acoustic: f64, link: f64, clock: f64) -> Self {
        FaultIntensity {
            acoustic: clamp01(acoustic),
            link: clamp01(link),
            clock: clamp01(clock),
        }
    }

    /// Whether every layer is at intensity 0.
    pub fn is_zero(&self) -> bool {
        self.acoustic == 0.0 && self.link == 0.0 && self.clock == 0.0
    }
}

/// What to inject, and under which seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Base seed for plan derivation (independent of the session RNG).
    pub seed: u64,
    /// Per-layer intensities.
    pub intensity: FaultIntensity,
}

impl FaultConfig {
    /// A config injecting at `intensity` under `seed`.
    pub fn new(seed: u64, intensity: FaultIntensity) -> Self {
        FaultConfig { seed, intensity }
    }

    /// The no-fault config: every derived plan is null.
    pub fn none() -> Self {
        FaultConfig::new(0, FaultIntensity::zero())
    }
}

/// A transient additive noise burst over a window of the recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseBurst {
    /// Window start as a fraction of the buffer length, `[0, 1)`.
    pub start_frac: f64,
    /// Window length as a fraction of the buffer length.
    pub len_frac: f64,
    /// Noise standard deviation as a multiple of the buffer RMS.
    pub level: f64,
    /// Seed for the burst's own noise generator (stored in the plan so
    /// application never touches the session RNG).
    pub seed: u64,
}

/// A window of the recording where the microphone went silent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dropout {
    /// Window start as a fraction of the buffer length, `[0, 1)`.
    pub start_frac: f64,
    /// Window length as a fraction of the buffer length.
    pub len_frac: f64,
}

/// Front-end saturation over the leading part of the recording — the
/// part that carries the preamble, which is exactly where clipping
/// hurts synchronization most.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clip {
    /// Clipped prefix as a fraction of the buffer length.
    pub len_frac: f64,
    /// Clip ceiling as a fraction of the buffer's peak amplitude,
    /// `(0, 1]` (lower is harsher).
    pub ceiling_frac: f64,
}

/// The acoustic-channel faults of one phase's recording.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AcousticFaults {
    /// Additive noise burst.
    pub burst: Option<NoiseBurst>,
    /// Microphone dropout window.
    pub dropout: Option<Dropout>,
    /// Broadband gain collapse (e.g. an occluded microphone), dB.
    pub gain_collapse_db: Option<f64>,
    /// Preamble-region clipping.
    pub clip: Option<Clip>,
}

/// Clamped `[lo, hi)` sample window for a fractional start/length.
fn window(len: usize, start_frac: f64, len_frac: f64) -> (usize, usize) {
    let lo = ((clamp01(start_frac) * len as f64) as usize).min(len);
    let n = (clamp01(len_frac) * len as f64).ceil() as usize;
    (lo, (lo + n).min(len))
}

fn rms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|s| s * s).sum::<f64>() / samples.len() as f64).sqrt()
}

impl AcousticFaults {
    /// No acoustic faults.
    pub fn none() -> Self {
        AcousticFaults::default()
    }

    /// Whether applying this is a no-op.
    pub fn is_null(&self) -> bool {
        self.burst.is_none()
            && self.dropout.is_none()
            && self.gain_collapse_db.is_none()
            && self.clip.is_none()
    }

    /// Applies the faults to a recording, in a fixed order: gain
    /// collapse (front-end), dropout, noise burst, then clipping (the
    /// last nonlinearity a saturated ADC applies). A null fault set
    /// returns without touching `samples`.
    pub fn apply(&self, samples: &mut [f64]) {
        if self.is_null() || samples.is_empty() {
            return;
        }
        if let Some(db) = self.gain_collapse_db {
            let g = 10f64.powf(-db.max(0.0) / 20.0);
            for s in samples.iter_mut() {
                *s *= g;
            }
        }
        if let Some(d) = &self.dropout {
            let (lo, hi) = window(samples.len(), d.start_frac, d.len_frac);
            for s in &mut samples[lo..hi] {
                *s = 0.0;
            }
        }
        if let Some(b) = &self.burst {
            // Scale to the recording's own level so "level 2.0" means
            // the same severity at any distance or volume.
            let std = b.level.max(0.0) * rms(samples).max(1e-9);
            let (lo, hi) = window(samples.len(), b.start_frac, b.len_frac);
            let mut rng = StdRng::seed_from_u64(b.seed);
            // Drawn in stack blocks: the same normals, in order, as one
            // `sample(StandardNormal)` per sample.
            let mut block = [0.0; 256];
            for chunk in samples[lo..hi].chunks_mut(block.len()) {
                let normals = &mut block[..chunk.len()];
                rng.fill_standard_normal(normals);
                for (s, &z) in chunk.iter_mut().zip(&*normals) {
                    *s += std * z;
                }
            }
        }
        if let Some(c) = &self.clip {
            let peak = samples.iter().fold(0.0f64, |a, &s| a.max(s.abs()));
            let ceiling = (clamp01(c.ceiling_frac) * peak).max(0.0);
            let (lo, hi) = window(samples.len(), 0.0, c.len_frac);
            for s in &mut samples[lo..hi] {
                *s = s.clamp(-ceiling, ceiling);
            }
        }
    }
}

/// Platform (wireless control channel) faults for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// The wireless RTS message is lost once and retransmitted, adding
    /// an extra round-trip before the acoustic probe.
    pub probe_loss: bool,
    /// Congestion: message latency multiplied (and throughput divided)
    /// by this factor for the whole attempt, offload pricing included.
    pub latency_factor: Option<f64>,
    /// The link disconnects between phase 1 and phase 2 — the CTS
    /// reply never arrives and the attempt dies mid-protocol.
    pub drop_after_phase1: bool,
}

impl LinkFaults {
    /// No link faults.
    pub fn none() -> Self {
        LinkFaults::default()
    }

    /// Whether this fault set changes nothing.
    pub fn is_null(&self) -> bool {
        !self.probe_loss && self.latency_factor.is_none() && !self.drop_after_phase1
    }
}

/// Clock faults stressing the HOTP timing/counter window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClockFaults {
    /// The watch's HOTP counter ran ahead by this many steps (missed
    /// syncs); skews past the verifier's window reject the token until
    /// the failure-path resync catches the counters up.
    pub counter_skew: u32,
    /// Watch/phone clock drift: dead time spent re-aligning the
    /// synchronization window, seconds.
    pub drift_s: f64,
}

impl ClockFaults {
    /// No clock faults.
    pub fn none() -> Self {
        ClockFaults::default()
    }

    /// Whether this fault set changes nothing.
    pub fn is_null(&self) -> bool {
        self.counter_skew == 0 && self.drift_s == 0.0
    }
}

/// Everything injected into one unlock attempt.
///
/// Derived purely from `(seed, attempt_index)` — see the crate docs
/// for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Faults on the phase-1 (RTS probe) recording.
    pub phase1: AcousticFaults,
    /// Faults on the phase-2 (token) recording.
    pub phase2: AcousticFaults,
    /// Wireless link faults.
    pub link: LinkFaults,
    /// Clock faults.
    pub clock: ClockFaults,
}

impl FaultPlan {
    /// The empty plan: applying it anywhere is a strict no-op.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether every layer of the plan is a no-op.
    pub fn is_null(&self) -> bool {
        self.phase1.is_null()
            && self.phase2.is_null()
            && self.link.is_null()
            && self.clock.is_null()
    }

    /// Derives the plan for attempt `attempt_index` under `config`.
    ///
    /// Pure in `(config, attempt_index)`: the same pair always yields
    /// the same plan, on any thread, in any order. At zero intensity
    /// every trigger probability is zero, so the plan is null.
    pub fn derive(config: &FaultConfig, attempt_index: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(plan_seed(config.seed, attempt_index));
        let a = clamp01(config.intensity.acoustic);
        let l = clamp01(config.intensity.link);
        let c = clamp01(config.intensity.clock);

        let phase1 = derive_acoustic(&mut rng, a);
        let phase2 = derive_acoustic(&mut rng, a);

        let mut link = LinkFaults::none();
        if rng.gen::<f64>() < 0.40 * l {
            link.probe_loss = true;
        }
        if rng.gen::<f64>() < 0.45 * l {
            link.latency_factor = Some(1.5 + 6.5 * l * rng.gen::<f64>());
        }
        if rng.gen::<f64>() < 0.15 * l {
            link.drop_after_phase1 = true;
        }

        let mut clock = ClockFaults::none();
        if rng.gen::<f64>() < 0.40 * c {
            // Up to 5 steps at full intensity — past the default HOTP
            // resync window (3), so high intensities force rejections.
            clock.counter_skew = 1 + (5.0 * c * rng.gen::<f64>()) as u32;
        }
        if rng.gen::<f64>() < 0.50 * c {
            clock.drift_s = 0.02 + 0.60 * c * rng.gen::<f64>();
        }

        FaultPlan {
            phase1,
            phase2,
            link,
            clock,
        }
    }
}

fn derive_acoustic(rng: &mut StdRng, a: f64) -> AcousticFaults {
    let mut f = AcousticFaults::none();
    if rng.gen::<f64>() < 0.55 * a {
        f.burst = Some(NoiseBurst {
            start_frac: rng.gen::<f64>() * 0.7,
            len_frac: 0.05 + 0.30 * a * rng.gen::<f64>(),
            level: 0.5 + 3.5 * a * rng.gen::<f64>(),
            seed: rng.gen(),
        });
    }
    if rng.gen::<f64>() < 0.35 * a {
        f.dropout = Some(Dropout {
            start_frac: rng.gen::<f64>() * 0.8,
            len_frac: 0.02 + 0.18 * a * rng.gen::<f64>(),
        });
    }
    if rng.gen::<f64>() < 0.30 * a {
        f.gain_collapse_db = Some(4.0 + 14.0 * a * rng.gen::<f64>());
    }
    if rng.gen::<f64>() < 0.30 * a {
        f.clip = Some(Clip {
            len_frac: 0.10 + 0.30 * a * rng.gen::<f64>(),
            ceiling_frac: (1.0 - 0.85 * a * rng.gen::<f64>()).max(0.08),
        });
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure() {
        let cfg = FaultConfig::new(0xDEAD, FaultIntensity::uniform(0.9));
        for index in [0, 1, 7, u64::MAX] {
            assert_eq!(
                FaultPlan::derive(&cfg, index),
                FaultPlan::derive(&cfg, index)
            );
        }
    }

    #[test]
    fn distinct_indices_give_distinct_plans() {
        let cfg = FaultConfig::new(3, FaultIntensity::uniform(1.0));
        let plans: Vec<FaultPlan> = (0..16).map(|i| FaultPlan::derive(&cfg, i)).collect();
        let distinct = plans
            .iter()
            .filter(|p| plans.iter().filter(|q| q == p).count() == 1)
            .count();
        assert!(distinct >= 12, "only {distinct}/16 distinct plans");
    }

    #[test]
    fn zero_intensity_is_null_for_any_seed_and_index() {
        for seed in [0, 1, 42, u64::MAX] {
            let cfg = FaultConfig::new(seed, FaultIntensity::zero());
            for index in [0, 5, 1_000_003] {
                assert!(FaultPlan::derive(&cfg, index).is_null());
            }
        }
        assert!(FaultPlan::derive(&FaultConfig::none(), 9).is_null());
    }

    #[test]
    fn full_intensity_actually_triggers() {
        let cfg = FaultConfig::new(11, FaultIntensity::uniform(1.0));
        let non_null = (0..32)
            .filter(|&i| !FaultPlan::derive(&cfg, i).is_null())
            .count();
        assert!(non_null >= 24, "only {non_null}/32 plans non-null");
    }

    #[test]
    fn null_apply_is_identity() {
        let samples: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut touched = samples.clone();
        AcousticFaults::none().apply(&mut touched);
        assert_eq!(touched, samples);
    }

    #[test]
    fn dropout_zeroes_its_window() {
        let mut s = vec![1.0; 100];
        let f = AcousticFaults {
            dropout: Some(Dropout {
                start_frac: 0.5,
                len_frac: 0.2,
            }),
            ..AcousticFaults::none()
        };
        f.apply(&mut s);
        assert!(s[50..70].iter().all(|&x| x == 0.0));
        assert!(s[..50].iter().all(|&x| x == 1.0));
        assert!(s[70..].iter().all(|&x| x == 1.0));
    }

    #[test]
    fn burst_raises_window_energy_deterministically() {
        let base: Vec<f64> = (0..2_000).map(|i| (i as f64 * 0.05).sin()).collect();
        let f = AcousticFaults {
            burst: Some(NoiseBurst {
                start_frac: 0.25,
                len_frac: 0.5,
                level: 3.0,
                seed: 77,
            }),
            ..AcousticFaults::none()
        };
        let mut a = base.clone();
        f.apply(&mut a);
        let mut b = base.clone();
        f.apply(&mut b);
        assert_eq!(a, b, "burst application must be reproducible");
        assert!(rms(&a[500..1500]) > 2.0 * rms(&base[500..1500]));
        // Outside the window, untouched.
        assert_eq!(&a[..500], &base[..500]);
    }

    #[test]
    fn gain_collapse_attenuates() {
        let mut s: Vec<f64> = (0..500).map(|i| (i as f64 * 0.1).cos()).collect();
        let before = rms(&s);
        AcousticFaults {
            gain_collapse_db: Some(20.0),
            ..AcousticFaults::none()
        }
        .apply(&mut s);
        assert!((rms(&s) / before - 0.1).abs() < 1e-9);
    }

    #[test]
    fn clip_bounds_the_prefix() {
        let mut s: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        AcousticFaults {
            clip: Some(Clip {
                len_frac: 0.5,
                ceiling_frac: 0.25,
            }),
            ..AcousticFaults::none()
        }
        .apply(&mut s);
        assert!(s[..50].iter().all(|&x| x.abs() <= 0.25 + 1e-12));
        assert!(s[50..].iter().any(|&x| x.abs() > 0.9));
    }

    #[test]
    fn windows_clamp_to_the_buffer() {
        assert_eq!(window(10, 0.95, 1.0), (9, 10));
        assert_eq!(window(10, 2.0, 0.5), (10, 10));
        assert_eq!(window(0, 0.3, 0.3), (0, 0));
        // Applying to an empty buffer must not panic.
        let f = AcousticFaults {
            dropout: Some(Dropout {
                start_frac: 0.0,
                len_frac: 1.0,
            }),
            ..AcousticFaults::none()
        };
        f.apply(&mut []);
    }

    #[test]
    fn intensity_clamps_and_classifies() {
        let i = FaultIntensity::new(-0.5, 1.5, f64::NAN);
        assert_eq!((i.acoustic, i.link, i.clock), (0.0, 1.0, 0.0));
        assert!(FaultIntensity::zero().is_zero());
        assert!(!FaultIntensity::uniform(0.1).is_zero());
        assert!(FaultIntensity::uniform(-3.0).is_zero());
    }

    #[test]
    fn plan_seed_mixes_both_arguments() {
        assert_ne!(plan_seed(1, 0), plan_seed(2, 0));
        assert_ne!(plan_seed(1, 0), plan_seed(1, 1));
        assert_ne!(plan_seed(0, 0), plan_seed(0, 1));
    }
}
