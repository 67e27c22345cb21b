//! Manual PIN-entry baseline.
//!
//! Fig. 12 compares WearLock's total unlock delay against manually
//! entering 4- and 6-digit PINs, "aligned to the medians of
//! measurements in \[2\]" (Harbach et al., SOUPS 2014). We encode those
//! medians with a per-attempt spread; WearLock must beat them by at
//! least 17.7% (slow config) / 58.6% (fast config).

use rand::distributions::StandardNormal;
use rand::Rng;

use wearlock_dsp::units::Seconds;

/// A manual PIN-entry timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinEntryModel {
    digits: u32,
    median: f64,
    spread: f64,
}

impl PinEntryModel {
    /// 4-digit PIN entry: wake + glance + 4 keystrokes + confirm,
    /// median ≈ 1.7 s.
    pub fn four_digit() -> Self {
        PinEntryModel {
            digits: 4,
            median: 1.7,
            spread: 0.18,
        }
    }

    /// 6-digit PIN entry, median ≈ 2.4 s.
    pub fn six_digit() -> Self {
        PinEntryModel {
            digits: 6,
            median: 2.4,
            spread: 0.18,
        }
    }

    /// Number of digits.
    pub fn digits(&self) -> u32 {
        self.digits
    }

    /// The median entry time.
    pub fn median(&self) -> Seconds {
        Seconds(self.median)
    }

    /// Samples one PIN-entry duration (lognormal around the median).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Seconds {
        let z: f64 = rng.sample(StandardNormal);
        Seconds(self.median * (self.spread * z).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn six_digits_slower_than_four() {
        assert!(PinEntryModel::six_digit().median() > PinEntryModel::four_digit().median());
        assert_eq!(PinEntryModel::four_digit().digits(), 4);
    }

    #[test]
    fn samples_cluster_around_median() {
        let m = PinEntryModel::four_digit();
        let mut rng = StdRng::seed_from_u64(44);
        let xs: Vec<f64> = (0..500).map(|_| m.sample(&mut rng).value()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 1.7).abs() < 0.15, "mean {mean}");
        assert!(xs.iter().all(|&x| x > 0.5 && x < 5.0));
    }
}
