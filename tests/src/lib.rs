//! Shared helpers for the WearLock cross-crate integration tests.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use wearlock::config::WearLockConfig;
use wearlock::environment::Environment;
use wearlock::session::{AttemptOptions, UnlockSession};
use wearlock_runtime::SweepRunner;

/// A seeded RNG for reproducible scenarios.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A default session, panicking on configuration errors (test-only).
pub fn default_session() -> UnlockSession {
    UnlockSession::new(WearLockConfig::default()).expect("default config is valid")
}

/// Runs `n` independent attempts in `env` and returns the unlock rate.
///
/// Attempts fan out over `runner`; attempt `i` runs on a fresh default
/// session with the RNG derived from `(seed, i)`, so the rate is
/// identical for any worker count.
pub fn unlock_rate_on(env: &Environment, n: usize, seed: u64, runner: &SweepRunner) -> f64 {
    let unlocks = runner.run(n, seed, |_, r| {
        let mut session = default_session();
        usize::from(
            session
                .run(env, &AttemptOptions::new(), r)
                .outcome
                .unlocked(),
        )
    });
    unlocks.iter().sum::<usize>() as f64 / n as f64
}

/// [`unlock_rate_on`] with one worker per CPU.
pub fn unlock_rate(env: &Environment, n: usize, seed: u64) -> f64 {
    unlock_rate_on(env, n, seed, &SweepRunner::default())
}
