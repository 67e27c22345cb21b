//! A day with WearLock: the same phone/watch pair walks through the
//! scenarios the paper's introduction motivates — quiet desk work, a
//! walk between meetings, a noisy cafe, handing the phone to a
//! colleague, leaving the watch at home — and shows which filter or
//! phase decides each time.
//!
//! Also demonstrates the *live* two-thread mode where the phone and
//! watch controllers run concurrently and exchange messages.
//!
//! ```text
//! cargo run -p wearlock-examples --bin unlock_walkthrough
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use wearlock::config::WearLockConfig;
use wearlock::environment::{Environment, MotionScenario};
use wearlock::live::run_live_session;
use wearlock::session::{AttemptOptions, Outcome, UnlockPath, UnlockSession};
use wearlock_acoustics::channel::PathKind;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;
use wearlock_sensors::Activity;

fn main() -> Result<(), wearlock::WearLockError> {
    let mut session = UnlockSession::new(WearLockConfig::default())?;
    let mut rng = StdRng::seed_from_u64(99);

    let scenarios: Vec<(&str, Environment)> = vec![
        (
            "at the desk (office, 30 cm, sitting)",
            Environment::default(),
        ),
        (
            "walking to a meeting (watch and phone on the same body)",
            Environment::builder()
                .motion(MotionScenario::CoLocated {
                    activity: Activity::Walking,
                })
                .build(),
        ),
        (
            "in a cafe (50 dB babble, 40 cm)",
            Environment::builder()
                .location(Location::Cafe)
                .distance(Meters(0.4))
                .build(),
        ),
        (
            "phone handed to a colleague walking away (victim runs)",
            Environment::builder()
                .motion(MotionScenario::Different {
                    phone: Activity::Walking,
                    watch: Activity::Running,
                })
                .distance(Meters(2.5))
                .build(),
        ),
        (
            "phone left on a table 3 m away",
            Environment::builder().distance(Meters(3.0)).build(),
        ),
        (
            "gripping the phone over its speaker",
            Environment::builder()
                .path(PathKind::BodyBlocked { block_db: 28.0 })
                .build(),
        ),
        (
            "watch left at home (no wireless link)",
            Environment::builder().wireless_in_range(false).build(),
        ),
    ];

    for (label, env) in &scenarios {
        let series = session.run(env, &AttemptOptions::new(), &mut rng);
        let report = series.final_attempt();
        let verdict = match report.outcome {
            Outcome::Unlocked(UnlockPath::Acoustic(mode)) => {
                format!("UNLOCKED  (acoustic token, {mode})")
            }
            Outcome::Unlocked(UnlockPath::MotionSkip) => {
                "UNLOCKED  (motion match, acoustics skipped)".to_string()
            }
            Outcome::Denied(reason) => format!("locked    ({reason:?})"),
        };
        println!(
            "{label:58} -> {verdict}   [{:.0} ms]",
            report.total_delay.value() * 1e3
        );
        session.enter_pin(); // observer resets policy state between scenes
    }

    println!("\n--- live two-thread session (crossbeam channels) ---");
    let out = run_live_session(&WearLockConfig::default(), &Environment::default(), 4242)?;
    println!(
        "live session: outcome = {:?}, keyguard = {:?}",
        out.outcome, out.final_state
    );
    Ok(())
}
