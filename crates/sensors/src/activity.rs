//! Synthetic accelerometer traces per activity.
//!
//! Substitutes the paper's human wearers: parametric gait/tremor models
//! generate 3-axis accelerometer streams for a phone and a watch. When
//! the devices ride the same body they share the gait phase and period
//! (with device-specific mounting gain and noise); traces of *different*
//! activities are independent — giving the DTW filter the same
//! similarity structure Table II measures (sitting 0.05, walking 0.02,
//! running 0.06, different activities 0.20).

use rand::distributions::StandardNormal;
use rand::Rng;

/// Standard gravity in m/s².
pub const GRAVITY: f64 = 9.81;

/// Default accelerometer sampling rate in Hz (typical Android wear).
pub const ACCEL_RATE_HZ: f64 = 50.0;

/// The activities evaluated in the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Sitting still: micro-tremor only.
    Sitting,
    /// Walking: ~1.8 Hz gait with strong harmonic content.
    Walking,
    /// Running/jogging: ~2.8 Hz gait, larger amplitude.
    Running,
}

impl Activity {
    /// All activities of the Table II experiment.
    pub const ALL: [Activity; 3] = [Activity::Sitting, Activity::Walking, Activity::Running];

    /// Fundamental gait frequency, Hz (0 for sitting).
    pub fn gait_hz(self) -> f64 {
        match self {
            Activity::Sitting => 0.0,
            Activity::Walking => 1.8,
            Activity::Running => 2.8,
        }
    }

    /// Oscillation amplitude in m/s².
    pub fn amplitude(self) -> f64 {
        match self {
            Activity::Sitting => 0.05,
            Activity::Walking => 3.5,
            Activity::Running => 8.0,
        }
    }

    /// Per-sample device-independent noise σ in m/s² (sensor noise
    /// plus fidgeting/tremor that the two devices do NOT share).
    pub fn noise_std(self) -> f64 {
        match self {
            Activity::Sitting => 0.75,
            Activity::Walking => 0.35,
            Activity::Running => 0.65,
        }
    }
}

impl std::fmt::Display for Activity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Activity::Sitting => "Sitting",
            Activity::Walking => "Walking",
            Activity::Running => "Running",
        };
        f.write_str(s)
    }
}

/// A 3-axis accelerometer trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccelTrace {
    /// Samples as `[x, y, z]` in m/s².
    pub samples: Vec<[f64; 3]>,
}

impl AccelTrace {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Converts to the magnitude representation
    /// `s = sqrt(sx² + sy² + sz²)` (paper §V: relative orientation
    /// between the devices is unobtainable, so only magnitudes are
    /// compared).
    pub fn magnitude(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]).sqrt())
            .collect()
    }
}

/// Internal gait state shared between co-located devices.
#[derive(Debug, Clone, Copy)]
struct GaitSeed {
    phase: f64,
    rate_scale: f64,
    orientation: [f64; 3],
}

fn sample_gait<R: Rng + ?Sized>(rng: &mut R) -> GaitSeed {
    let theta = rng.gen::<f64>() * std::f64::consts::TAU;
    // Gait acceleration is dominated by the vertical bounce, so the
    // oscillation axis stays mostly aligned with gravity — without
    // this, the magnitude representation would suppress the gait.
    let z: f64 = 0.6 + 0.4 * rng.gen::<f64>();
    let r = (1.0 - z * z).max(0.0).sqrt();
    GaitSeed {
        phase: rng.gen::<f64>() * std::f64::consts::TAU,
        rate_scale: 1.0 + 0.06 * rng.sample(StandardNormal),
        orientation: [r * theta.cos(), r * theta.sin(), z],
    }
}

fn synthesize_with<R: Rng + ?Sized>(
    activity: Activity,
    len: usize,
    gait: GaitSeed,
    device_gain: f64,
    device_lag: f64,
    rng: &mut R,
) -> AccelTrace {
    let w = std::f64::consts::TAU * activity.gait_hz() * gait.rate_scale / ACCEL_RATE_HZ;
    let amp = activity.amplitude() * device_gain;
    let noise = activity.noise_std();
    let samples = (0..len)
        .map(|n| {
            let t = n as f64 + device_lag;
            // Fundamental + second harmonic (heel strike), projected on
            // the device's mounting orientation, plus gravity on z.
            let osc =
                amp * ((w * t + gait.phase).sin() + 0.45 * (2.0 * w * t + 2.3 + gait.phase).sin());
            [
                gait.orientation[0] * osc + noise * rng.sample(StandardNormal),
                gait.orientation[1] * osc + noise * rng.sample(StandardNormal),
                GRAVITY + gait.orientation[2] * osc + noise * rng.sample(StandardNormal),
            ]
        })
        .collect();
    AccelTrace { samples }
}

/// Synthesizes a single independent trace of `len` samples.
pub fn synthesize<R: Rng + ?Sized>(activity: Activity, len: usize, rng: &mut R) -> AccelTrace {
    let gait = sample_gait(rng);
    synthesize_with(activity, len, gait, 1.0, 0.0, rng)
}

/// Synthesizes a correlated (phone, watch) pair riding the same body:
/// shared gait phase/rate, different mounting gains, a small sampling
/// lag between the devices, and independent sensor noise.
pub fn synthesize_pair<R: Rng + ?Sized>(
    activity: Activity,
    len: usize,
    rng: &mut R,
) -> (AccelTrace, AccelTrace) {
    let gait = sample_gait(rng);
    let phone = synthesize_with(activity, len, gait, 1.0, 0.0, rng);
    let lag = rng.gen::<f64>() * 4.0; // up to 80 ms offset at 50 Hz
    let watch_gain = 0.8 + 0.3 * rng.gen::<f64>(); // wrist swings differently
    let watch = synthesize_with(activity, len, gait, watch_gain, lag, rng);
    (phone, watch)
}

/// Synthesizes an *uncorrelated* pair (the "Different" row of
/// Table II): the phone does one activity while the watch wearer does
/// another — e.g. the attacker carries the victim's phone.
pub fn synthesize_different_pair<R: Rng + ?Sized>(
    phone_activity: Activity,
    watch_activity: Activity,
    len: usize,
    rng: &mut R,
) -> (AccelTrace, AccelTrace) {
    (
        synthesize(phone_activity, len, rng),
        synthesize(watch_activity, len, rng),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    #[test]
    fn traces_have_requested_length() {
        for a in Activity::ALL {
            let t = synthesize(a, 120, &mut rng());
            assert_eq!(t.len(), 120);
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn magnitude_is_near_gravity_when_sitting() {
        let t = synthesize(Activity::Sitting, 150, &mut rng());
        let mags = t.magnitude();
        let mean = mags.iter().sum::<f64>() / mags.len() as f64;
        assert!((mean - GRAVITY).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn running_has_more_energy_than_walking() {
        let mut r = rng();
        let mut var = |a: Activity| {
            let m = synthesize(a, 300, &mut r).magnitude();
            let mean = m.iter().sum::<f64>() / m.len() as f64;
            m.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / m.len() as f64
        };
        let sit = var(Activity::Sitting);
        let walk = var(Activity::Walking);
        let run = var(Activity::Running);
        assert!(walk > 3.0 * sit, "walk {walk} sit {sit}");
        assert!(run > 2.0 * walk, "run {run} walk {walk}");
    }

    #[test]
    fn pair_is_correlated_different_is_not() {
        use wearlock_dsp::stats::pearson;
        let mut r = rng();
        let (p, w) = synthesize_pair(Activity::Walking, 150, &mut r);
        let rho_same = pearson(&p.magnitude(), &w.magnitude()).abs();
        let (p2, w2) = synthesize_different_pair(Activity::Walking, Activity::Running, 150, &mut r);
        let rho_diff = pearson(&p2.magnitude(), &w2.magnitude()).abs();
        // Same-body pair shares structure (even before DTW alignment).
        assert!(rho_same > 0.25, "rho_same {rho_same}");
        assert!(rho_diff < rho_same, "diff {rho_diff} vs same {rho_same}");
    }

    #[test]
    fn gait_frequency_shows_up_in_spectrum() {
        let t = synthesize(Activity::Walking, 256, &mut rng());
        let m = t.magnitude();
        let mean = m.iter().sum::<f64>() / m.len() as f64;
        let centred: Vec<f64> = m.iter().map(|x| x - mean).collect();
        // Goertzel at the gait frequency (1.8 Hz at 50 Hz rate).
        let sr = wearlock_dsp::units::SampleRate::new(ACCEL_RATE_HZ);
        let at_gait =
            wearlock_dsp::goertzel::goertzel_power(&centred, wearlock_dsp::units::Hz(1.8), sr)
                .unwrap();
        let off =
            wearlock_dsp::goertzel::goertzel_power(&centred, wearlock_dsp::units::Hz(7.0), sr)
                .unwrap();
        assert!(at_gait > 3.0 * off, "gait {at_gait} off {off}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = synthesize(Activity::Running, 64, &mut rng());
        let b = synthesize(Activity::Running, 64, &mut rng());
        assert_eq!(a, b);
    }
}
