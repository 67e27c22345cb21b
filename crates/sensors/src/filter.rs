//! The sensor-based pre-filter (paper Algorithm 1).
//!
//! During the first protocol phase both devices record accelerometer
//! data; the phone computes the DTW score of the normalized magnitude
//! series and either
//!
//! * **aborts** the protocol (score above `d_h` — the devices are
//!   moving differently, so they are not on the same body),
//! * **skips the second phase** (score below `d_l` — motion similarity
//!   alone gives high co-location confidence, saving the acoustic
//!   transmission and its heavy DSP), or
//! * **continues** to the acoustic phase.

use crate::activity::AccelTrace;
use crate::dtw::dtw_score;
use crate::SensorsError;

/// Decision of the motion filter for one unlock attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterDecision {
    /// `DTW(sp, sw) > d_h`: different motion — abort the protocol.
    Abort {
        /// The offending DTW score.
        score: f64,
    },
    /// `DTW(sp, sw) < d_l`: strongly matched motion — skip the second
    /// (acoustic) phase, saving the computation.
    SkipSecondPhase {
        /// The DTW score.
        score: f64,
    },
    /// Inconclusive — continue to the acoustic phase.
    Continue {
        /// The DTW score.
        score: f64,
    },
}

impl FilterDecision {
    /// The DTW score behind the decision.
    pub fn score(&self) -> f64 {
        match *self {
            FilterDecision::Abort { score }
            | FilterDecision::SkipSecondPhase { score }
            | FilterDecision::Continue { score } => score,
        }
    }

    /// Whether any acoustic transmission happens after this decision.
    pub fn transmits_acoustics(&self) -> bool {
        matches!(self, FilterDecision::Continue { .. })
    }
}

/// The motion similarity filter with thresholds `(d_l, d_h)`.
///
/// # Examples
///
/// ```
/// use wearlock_sensors::filter::MotionFilter;
/// let f = MotionFilter::new(0.1, 0.35)?;
/// assert_eq!(f.low_threshold(), 0.1);
/// # Ok::<(), wearlock_sensors::SensorsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionFilter {
    d_l: f64,
    d_h: f64,
}

/// Minimum magnitude standard deviation (m/s²) for the comparison to be
/// meaningful: two *still* devices match trivially, so the filter only
/// decides "when the user is engaged in activities" (paper §V) and
/// stays inconclusive otherwise. Resting tremor stays below it.
const MIN_MOTION: f64 = 1.2;

impl MotionFilter {
    /// Creates a filter; requires `0 <= d_l < d_h`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorsError::InvalidThresholds`] otherwise.
    pub fn new(d_l: f64, d_h: f64) -> Result<Self, SensorsError> {
        if !(d_l >= 0.0 && d_l < d_h) {
            return Err(SensorsError::InvalidThresholds { d_l, d_h });
        }
        Ok(MotionFilter { d_l, d_h })
    }

    /// The skip threshold `d_l`.
    pub fn low_threshold(&self) -> f64 {
        self.d_l
    }

    /// Runs Algorithm 1 on the two recorded traces.
    pub fn evaluate(&self, phone: &AccelTrace, watch: &AccelTrace) -> FilterDecision {
        self.evaluate_magnitudes(&phone.magnitude(), &watch.magnitude())
    }

    /// Runs the decision on pre-computed magnitude series.
    pub fn evaluate_magnitudes(&self, phone: &[f64], watch: &[f64]) -> FilterDecision {
        if phone.is_empty() || watch.is_empty() {
            return FilterDecision::Abort {
                score: f64::INFINITY,
            };
        }
        let score = dtw_score(phone, watch);
        // Devices at rest carry no discriminative motion: their traces
        // match trivially. Only decide when at least one step of real
        // movement is present on both devices.
        let std = |xs: &[f64]| -> f64 {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let moving = std(phone) >= MIN_MOTION && std(watch) >= MIN_MOTION;
        if !score.is_finite() || (moving && score > self.d_h) {
            FilterDecision::Abort { score }
        } else if moving && score < self.d_l {
            FilterDecision::SkipSecondPhase { score }
        } else {
            FilterDecision::Continue { score }
        }
    }
}

impl Default for MotionFilter {
    /// The paper's operating point: skip below 0.1 (its published
    /// threshold); abort above 0.15. The "Different" row of Table II
    /// scores ≈0.20 (abort) while co-located activities score
    /// ≈0.02–0.06 (skip); the small hysteresis band in between sends
    /// borderline motion to the acoustic check instead of a hard abort.
    fn default() -> Self {
        MotionFilter {
            d_l: 0.1,
            d_h: 0.15,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{synthesize_different_pair, synthesize_pair, Activity};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn threshold_validation() {
        assert!(MotionFilter::new(0.2, 0.1).is_err());
        assert!(MotionFilter::new(-0.1, 0.2).is_err());
        assert!(MotionFilter::new(0.1, 0.1).is_err());
        assert!(MotionFilter::new(0.0, 0.1).is_ok());
    }

    #[test]
    fn same_body_walking_skips_second_phase() {
        let mut rng = StdRng::seed_from_u64(5);
        let f = MotionFilter::default();
        let mut skips = 0;
        for _ in 0..20 {
            let (p, w) = synthesize_pair(Activity::Walking, 120, &mut rng);
            if matches!(f.evaluate(&p, &w), FilterDecision::SkipSecondPhase { .. }) {
                skips += 1;
            }
        }
        assert!(skips >= 15, "only {skips}/20 walking pairs skipped");
    }

    #[test]
    fn different_activities_never_skip() {
        let mut rng = StdRng::seed_from_u64(6);
        let f = MotionFilter::default();
        for _ in 0..20 {
            let (p, w) =
                synthesize_different_pair(Activity::Walking, Activity::Running, 120, &mut rng);
            let d = f.evaluate(&p, &w);
            assert!(
                !matches!(d, FilterDecision::SkipSecondPhase { .. }),
                "different-activity pair skipped with score {}",
                d.score()
            );
        }
    }

    #[test]
    fn still_devices_are_inconclusive() {
        // Two sitting devices match trivially; the filter must neither
        // skip (that would unlock for any resting attacker phone) nor
        // abort — it hands the decision to the acoustic phase.
        let mut rng = StdRng::seed_from_u64(9);
        let f = MotionFilter::default();
        for _ in 0..10 {
            let (p, w) = synthesize_pair(Activity::Sitting, 120, &mut rng);
            let d = f.evaluate(&p, &w);
            assert!(
                matches!(d, FilterDecision::Continue { .. }),
                "sitting pair decided {d:?}"
            );
        }
    }

    #[test]
    fn empty_trace_aborts() {
        let f = MotionFilter::default();
        let d = f.evaluate(&AccelTrace::default(), &AccelTrace::default());
        assert!(matches!(d, FilterDecision::Abort { .. }));
    }

    #[test]
    fn decision_metadata() {
        let d = FilterDecision::Continue { score: 0.2 };
        assert_eq!(d.score(), 0.2);
        assert!(d.transmits_acoustics());
        assert!(!FilterDecision::Abort { score: 0.5 }.transmits_acoustics());
        assert!(!FilterDecision::SkipSecondPhase { score: 0.01 }.transmits_acoustics());
    }
}
