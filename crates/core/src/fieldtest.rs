//! Field-test harness (Table I).
//!
//! Runs WearLock in the four field locations with the phone and watch
//! held in the *same hand* (speaker partially blocked by the grip →
//! NLOS-ish path) or *different hands* (clear LOS), in both frequency
//! bands, and reports the average phase-2 BER and the modulation the
//! adaptive policy picked — the shape target is Table I's ≈0.08 average
//! BER with 8PSK in quiet places and QPSK in noisy ones.

use rand::Rng;

use wearlock_acoustics::channel::PathKind;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;
use wearlock_modem::config::FrequencyBand;
use wearlock_modem::TransmissionMode;

use crate::config::WearLockConfig;
use crate::environment::Environment;
use crate::session::{AttemptOptions, UnlockSession};
use crate::WearLockError;

/// Hand configuration of the field test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandConfig {
    /// Phone in one hand, watch on the other wrist: clear path.
    DifferentHands,
    /// Phone held by the hand wearing the watch: the grip partially
    /// blocks the speaker→microphone path.
    SameHand,
}

impl HandConfig {
    /// Both configurations, Table I order.
    pub const ALL: [HandConfig; 2] = [HandConfig::DifferentHands, HandConfig::SameHand];

    /// The acoustic path this hand geometry produces.
    pub fn path(self) -> PathKind {
        match self {
            HandConfig::DifferentHands => PathKind::LineOfSight,
            HandConfig::SameHand => PathKind::BodyBlocked { block_db: 11.0 },
        }
    }

    /// Typical device distance for this geometry.
    pub fn distance(self) -> Meters {
        match self {
            HandConfig::DifferentHands => Meters(0.45),
            HandConfig::SameHand => Meters(0.12),
        }
    }
}

impl std::fmt::Display for HandConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandConfig::DifferentHands => f.write_str("Diff. Hand"),
            HandConfig::SameHand => f.write_str("Same Hand"),
        }
    }
}

/// One cell of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldCell {
    /// The location tested.
    pub location: Location,
    /// The hand configuration.
    pub hands: HandConfig,
    /// The frequency band.
    pub band: FrequencyBand,
    /// Average measured BER over attempts that reached phase 2.
    pub ber: f64,
    /// The modulation most often selected.
    pub mode: Option<TransmissionMode>,
    /// Number of attempts that produced a BER sample.
    pub samples: usize,
}

/// The full field test.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldTest {
    /// All cells, iteration order: band-major, hands, locations.
    pub cells: Vec<FieldCell>,
}

impl FieldTest {
    /// Grand average BER across cells with samples.
    pub fn average_ber(&self) -> f64 {
        let with: Vec<&FieldCell> = self.cells.iter().filter(|c| c.samples > 0).collect();
        if with.is_empty() {
            return 0.0;
        }
        with.iter().map(|c| c.ber).sum::<f64>() / with.len() as f64
    }

    /// Finds one cell.
    pub fn cell(
        &self,
        location: Location,
        hands: HandConfig,
        band: FrequencyBand,
    ) -> Option<&FieldCell> {
        self.cells
            .iter()
            .find(|c| c.location == location && c.hands == hands && c.band == band)
    }
}

/// Runs the field test with `trials` unlock attempts per cell. Every
/// attempt reports its spans and outcome to `sink` (pass [`NullSink`]
/// for none).
///
/// Same-hand attempts run with the NLOS relaxation enabled (BER target
/// 0.25), mirroring how the paper still completes transmissions in the
/// blocked geometry and simply reports the higher BER.
///
/// # Errors
///
/// Propagates configuration/session construction failures.
///
/// [`NullSink`]: wearlock_telemetry::NullSink
pub fn run_field_test<R: Rng + ?Sized>(
    trials: usize,
    sink: &dyn wearlock_telemetry::EventSink,
    rng: &mut R,
) -> Result<FieldTest, WearLockError> {
    let mut cells = Vec::new();
    for band in [FrequencyBand::Audible, FrequencyBand::NearUltrasound] {
        for hands in HandConfig::ALL {
            for location in Location::FIELD_TEST {
                let config = WearLockConfig::builder()
                    .band(band)
                    .nlos_relax_max_ber(Some(0.25))
                    .build()?;
                let mut session = UnlockSession::new(config)?;
                let env = Environment::builder()
                    .location(location)
                    .distance(hands.distance())
                    .path(hands.path())
                    .build();
                let mut bers = Vec::new();
                // BTreeMap, not HashMap: on a count tie, max_by_key
                // keeps the last entry in iteration order, and HashMap's
                // per-process hash seed would make the reported mode
                // flip between identical runs.
                let mut modes = std::collections::BTreeMap::new();
                for _ in 0..trials {
                    let series = session.run(&env, &AttemptOptions::new().sink(sink), rng);
                    let report = series.final_attempt();
                    if let Some(ber) = report.measured_ber {
                        bers.push(ber);
                    }
                    if let Some(m) = report.mode {
                        *modes.entry(m).or_insert(0usize) += 1;
                    }
                    session.enter_pin();
                }
                let mode = modes.into_iter().max_by_key(|(_, n)| *n).map(|(m, _)| m);
                let samples = bers.len();
                let ber = if samples > 0 {
                    bers.iter().sum::<f64>() / samples as f64
                } else {
                    f64::NAN
                };
                cells.push(FieldCell {
                    location,
                    hands,
                    band,
                    ber,
                    mode,
                    samples,
                });
            }
        }
    }
    Ok(FieldTest { cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_telemetry::NullSink;

    #[test]
    fn hand_configs_have_expected_paths() {
        assert_eq!(HandConfig::DifferentHands.path(), PathKind::LineOfSight);
        assert!(matches!(
            HandConfig::SameHand.path(),
            PathKind::BodyBlocked { .. }
        ));
        assert!(HandConfig::SameHand.distance().value() < 0.2);
    }

    #[test]
    fn field_test_produces_full_grid() {
        let mut rng = StdRng::seed_from_u64(80);
        let ft = run_field_test(2, &NullSink, &mut rng).unwrap();
        // 2 bands × 2 hands × 4 locations.
        assert_eq!(ft.cells.len(), 16);
        assert!(ft
            .cell(
                Location::Office,
                HandConfig::DifferentHands,
                FrequencyBand::Audible
            )
            .is_some());
    }

    #[test]
    fn same_hand_errs_more_than_different_hands() {
        let mut rng = StdRng::seed_from_u64(81);
        let ft = run_field_test(4, &NullSink, &mut rng).unwrap();
        let avg = |hands: HandConfig| -> f64 {
            let cells: Vec<&FieldCell> = ft
                .cells
                .iter()
                .filter(|c| c.hands == hands && c.samples > 0 && c.ber.is_finite())
                .collect();
            cells.iter().map(|c| c.ber).sum::<f64>() / cells.len().max(1) as f64
        };
        let same = avg(HandConfig::SameHand);
        let diff = avg(HandConfig::DifferentHands);
        assert!(same > diff, "same {same} diff {diff}");
    }

    #[test]
    fn average_ber_in_paper_ballpark() {
        let mut rng = StdRng::seed_from_u64(82);
        let ft = run_field_test(4, &NullSink, &mut rng).unwrap();
        let avg = ft.average_ber();
        // Paper: ≈0.08 average. Accept the same order of magnitude.
        assert!(avg > 0.005 && avg < 0.25, "avg ber {avg}");
    }
}
