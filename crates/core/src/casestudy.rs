//! The §VI case study: five participants try WearLock in a classroom.
//!
//! The paper's observations, reproduced as scripted behaviour models:
//!
//! * one student gripped the phone's bottom tightly, covering the
//!   speaker (success 3/10 at MaxBER 0.1), then loosened the grip
//!   (8/10 at 0.1, 10/10 at 0.15);
//! * one held the phone in one hand with the watch on the other wrist
//!   (8/10 at 0.1);
//! * one used the phone with the watch-wearing hand (4/10 at 0.1; NLOS
//!   detection flags 3/10; relaxing those to MaxBER 0.25 corrects the
//!   rate to 7/10);
//! * the average success rate across participants is ≈90%.

use rand::Rng;

use wearlock_acoustics::channel::PathKind;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;

use crate::config::WearLockConfig;
use crate::environment::Environment;
use crate::session::{AttemptOptions, DenyReason, Outcome, UnlockSession};
use crate::WearLockError;

/// A scripted participant behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct Participant {
    /// Label shown in the report.
    pub name: String,
    /// Acoustic path their grip produces.
    pub path: PathKind,
    /// Speaker→microphone distance.
    pub distance: Meters,
    /// BER target of their run.
    pub max_ber: f64,
    /// NLOS relaxation target, if the corrected protocol is active.
    pub nlos_relax: Option<f64>,
}

impl Participant {
    /// The five participants of the paper's case study.
    pub fn roster() -> Vec<Participant> {
        vec![
            Participant {
                name: "P1 tight grip (speaker covered)".into(),
                path: PathKind::BodyBlocked { block_db: 30.0 },
                distance: Meters(0.15),
                max_ber: 0.1,
                nlos_relax: None,
            },
            Participant {
                name: "P1 retry, loose grip".into(),
                path: PathKind::BodyBlocked { block_db: 6.0 },
                distance: Meters(0.15),
                max_ber: 0.1,
                nlos_relax: Some(0.15),
            },
            Participant {
                name: "P2 different hands".into(),
                path: PathKind::LineOfSight,
                distance: Meters(0.45),
                max_ber: 0.1,
                nlos_relax: None,
            },
            Participant {
                name: "P3 same hand (NLOS, corrected)".into(),
                path: PathKind::BodyBlocked { block_db: 11.0 },
                distance: Meters(0.12),
                max_ber: 0.1,
                nlos_relax: Some(0.25),
            },
            Participant {
                name: "P4 normal use".into(),
                path: PathKind::LineOfSight,
                distance: Meters(0.3),
                max_ber: 0.1,
                nlos_relax: None,
            },
        ]
    }
}

/// Result of one participant's trial block.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticipantResult {
    /// The participant.
    pub name: String,
    /// Attempts whose unlock succeeded *or* whose measured phase-2 BER
    /// met the participant's target — the paper's accounting ("success
    /// rate of 8/10 when BER=0.1" counts runs under the BER bound).
    pub successes: usize,
    /// Attempts where the HOTP token actually verified (stricter than
    /// the paper's BER criterion).
    pub token_unlocks: usize,
    /// Total trials.
    pub trials: usize,
    /// Attempts the NLOS screen flagged.
    pub nlos_flags: usize,
    /// Attempts denied specifically as NLOS.
    pub nlos_denials: usize,
}

impl ParticipantResult {
    /// Success rate in `[0, 1]` (paper accounting).
    pub fn success_rate(&self) -> f64 {
        self.successes as f64 / self.trials.max(1) as f64
    }
}

/// The whole case-study report.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudy {
    /// Per-participant results.
    pub participants: Vec<ParticipantResult>,
}

impl CaseStudy {
    /// Mean of the participants' success rates.
    pub fn average_success_rate(&self) -> f64 {
        if self.participants.is_empty() {
            return 0.0;
        }
        self.participants
            .iter()
            .map(|p| p.success_rate())
            .sum::<f64>()
            / self.participants.len() as f64
    }
}

/// Runs the case study (`trials` unlocks per participant, paper uses
/// 10) in a classroom environment. Every attempt reports its spans and
/// outcome to `sink` (pass [`NullSink`] for none).
///
/// # Errors
///
/// Propagates configuration/session failures.
///
/// [`NullSink`]: wearlock_telemetry::NullSink
pub fn run_case_study<R: Rng + ?Sized>(
    trials: usize,
    sink: &dyn wearlock_telemetry::EventSink,
    rng: &mut R,
) -> Result<CaseStudy, WearLockError> {
    let mut participants = Vec::new();
    for p in Participant::roster() {
        let config = WearLockConfig::builder()
            .max_ber(p.max_ber)
            .nlos_relax_max_ber(p.nlos_relax)
            .build()?;
        let mut session = UnlockSession::new(config)?;
        let env = Environment::builder()
            .location(Location::ClassRoom)
            .distance(p.distance)
            .path(p.path)
            .build();
        let mut successes = 0;
        let mut token_unlocks = 0;
        let mut nlos_flags = 0;
        let mut nlos_denials = 0;
        for _ in 0..trials {
            let series = session.run(&env, &AttemptOptions::new().sink(sink), rng);
            let report = series.final_attempt();
            if report.outcome.unlocked() {
                token_unlocks += 1;
            }
            // Paper accounting: a run counts as a success when the
            // unlock went through or the phase-2 BER met the target
            // (relaxed target when the NLOS screen flagged the path).
            let target = if report.nlos_flagged {
                p.nlos_relax.unwrap_or(p.max_ber)
            } else {
                p.max_ber
            };
            let ber_ok = report.measured_ber.map(|b| b <= target).unwrap_or(false);
            if report.outcome.unlocked() || ber_ok {
                successes += 1;
            }
            if report.nlos_flagged {
                nlos_flags += 1;
            }
            if report.outcome == Outcome::Denied(DenyReason::NlosDetected) {
                nlos_denials += 1;
            }
            // Participants retry freely; the observer resets lockout.
            session.enter_pin();
        }
        participants.push(ParticipantResult {
            name: p.name,
            successes,
            token_unlocks,
            trials,
            nlos_flags,
            nlos_denials,
        });
    }
    Ok(CaseStudy { participants })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_telemetry::NullSink;

    #[test]
    fn roster_matches_paper_structure() {
        let roster = Participant::roster();
        assert_eq!(roster.len(), 5);
        assert!(matches!(roster[0].path, PathKind::BodyBlocked { block_db } if block_db > 20.0));
        assert_eq!(roster[3].nlos_relax, Some(0.25));
    }

    #[test]
    fn tight_grip_fails_often_loose_grip_recovers() {
        let mut rng = StdRng::seed_from_u64(60);
        let cs = run_case_study(10, &NullSink, &mut rng).unwrap();
        let tight = &cs.participants[0];
        let loose = &cs.participants[1];
        assert!(
            tight.success_rate() < 0.6,
            "tight grip rate {}",
            tight.success_rate()
        );
        assert!(
            loose.success_rate() > tight.success_rate(),
            "loose {} vs tight {}",
            loose.success_rate(),
            tight.success_rate()
        );
    }

    #[test]
    fn normal_participants_mostly_succeed() {
        let mut rng = StdRng::seed_from_u64(61);
        let cs = run_case_study(10, &NullSink, &mut rng).unwrap();
        for idx in [2usize, 4] {
            let p = &cs.participants[idx];
            assert!(
                p.success_rate() >= 0.7,
                "{} rate {}",
                p.name,
                p.success_rate()
            );
        }
    }

    #[test]
    fn average_success_is_high() {
        let mut rng = StdRng::seed_from_u64(62);
        let cs = run_case_study(10, &NullSink, &mut rng).unwrap();
        let avg = cs.average_success_rate();
        // Paper reports ≈90%; the tight-grip block drags our average.
        assert!(avg > 0.55, "average success {avg}");
    }

    #[test]
    fn same_hand_triggers_nlos_machinery() {
        // The NLOS screen fires on roughly 10% of the same-hand
        // participant's attempts (the paper reports 3/10), so a
        // 10-trial block has a ~35% chance of zero flags on any given
        // seed. Probe that participant alone over enough attempts that
        // a zero count means the machinery is broken rather than an
        // unlucky draw.
        let mut rng = StdRng::seed_from_u64(63);
        let p = Participant::roster().remove(3);
        let config = WearLockConfig::builder()
            .max_ber(p.max_ber)
            .nlos_relax_max_ber(p.nlos_relax)
            .build()
            .unwrap();
        let mut session = UnlockSession::new(config).unwrap();
        let env = Environment::builder()
            .location(Location::ClassRoom)
            .distance(p.distance)
            .path(p.path)
            .build();
        let mut flags = 0;
        for _ in 0..40 {
            if session
                .run(&env, &AttemptOptions::new(), &mut rng)
                .final_attempt()
                .nlos_flagged
            {
                flags += 1;
            }
            session.enter_pin();
        }
        assert!(
            flags > 0,
            "expected NLOS flags for the same-hand participant (0/40)"
        );
    }
}
