//! Quickstart: one automatic unlock, start to finish.
//!
//! Runs the full WearLock protocol — wireless gate, motion filter,
//! acoustic channel probing, adaptive modulation, OFDM token exchange,
//! HOTP verification — in a simulated office with the phone and watch
//! 30 cm apart, and prints the decision with its delay breakdown.
//!
//! ```text
//! cargo run -p wearlock-examples --bin quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use wearlock::config::WearLockConfig;
use wearlock::environment::Environment;
use wearlock::session::{AttemptOptions, Outcome, UnlockPath, UnlockSession};

fn main() -> Result<(), wearlock::WearLockError> {
    let config = WearLockConfig::default();
    let mut session = UnlockSession::new(config)?;
    let env = Environment::default();
    let mut rng = StdRng::seed_from_u64(2017);

    println!("WearLock quickstart — office, 0.3 m, line of sight\n");
    let series = session.run(&env, &AttemptOptions::new(), &mut rng);
    let report = series.final_attempt();

    match report.outcome {
        Outcome::Unlocked(UnlockPath::Acoustic(mode)) => {
            println!("UNLOCKED via acoustic token ({mode})");
        }
        Outcome::Unlocked(UnlockPath::MotionSkip) => {
            println!("UNLOCKED via motion similarity (acoustics skipped)");
        }
        Outcome::Denied(reason) => println!("DENIED: {reason:?}"),
    }

    println!("\ntotal delay: {:.0} ms", report.total_delay.value() * 1e3);
    for &(label, t) in &report.delays {
        println!("  {label:<28} {:7.1} ms", t.value() * 1e3);
    }
    if let Some(v) = report.volume {
        println!("\ntransmit volume : {v}");
    }
    if let (Some(psnr), Some(ebn0)) = (report.psnr, report.ebn0) {
        println!("probed pilot SNR: {psnr}   ->  Eb/N0 {ebn0}");
    }
    if let Some(ber) = report.measured_ber {
        println!("raw channel BER : {ber:.4} (over the coded token bits)");
    }
    if let Some(dtw) = report.dtw_score {
        println!("motion DTW score: {dtw:.3}");
    }
    println!(
        "energy          : watch {:.1} mJ, phone {:.1} mJ",
        report.watch_energy_j * 1e3,
        report.phone_energy_j * 1e3
    );
    Ok(())
}
