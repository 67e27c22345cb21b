//! Regenerates every table and figure of the WearLock paper's
//! evaluation section, in text form.
//!
//! ```text
//! cargo run -p wearlock-bench --release --bin repro -- all
//! cargo run -p wearlock-bench --release --bin repro -- fig5 table1 ...
//! cargo run -p wearlock-bench --release --bin repro -- --threads 8 all
//! cargo run -p wearlock-bench --release --bin repro -- fig6 --metrics out.json
//! ```
//!
//! Sweeps fan out over a [`wearlock_runtime::SweepRunner`]; per-task
//! seed derivation makes the output bitwise identical for every
//! `--threads` value (default: one worker per CPU). Each experiment
//! prints the rows/series the paper reports; shape targets (who wins,
//! rough factors, crossovers) are documented in EXPERIMENTS.md.
//!
//! `--metrics <path>` writes the run's merged telemetry (attempt
//! funnel, mode usage, per-stage latency/energy histograms) as
//! deterministic JSON: instrumented experiments record every unlock
//! attempt and offload round into one [`MetricsRecorder`], and the
//! per-task recorder merge makes the file bitwise identical for every
//! `--threads` value too.

use std::str::FromStr;

use wearlock_bench::{fleet, report};
use wearlock_runtime::SweepRunner;
use wearlock_telemetry::MetricsRecorder;

const SEED: u64 = 20170605; // deterministic everywhere

/// Removes `flag` and the value after it from `args` and parses the
/// value; `None` when the flag is absent. A missing or malformed value
/// exits with status 2, saying what the flag takes.
fn take_flag<T: FromStr>(args: &mut Vec<String>, flag: &str, what: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).and_then(|v| v.parse().ok());
    let Some(value) = value else {
        eprintln!("{flag} takes {what}");
        std::process::exit(2);
    };
    args.drain(i..=i + 1);
    Some(value)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // 0 = one worker per CPU.
    let threads = take_flag(
        &mut args,
        "--threads",
        "a non-negative integer (0 = all CPUs)",
    )
    .unwrap_or(0usize);
    let metrics_path: Option<String> = take_flag(&mut args, "--metrics", "an output path");
    let fleet_users = take_flag(&mut args, "--users", "a positive integer").unwrap_or(2_000u64);
    let fleet_rate_hz = take_flag(&mut args, "--arrival-rate", "a rate in attempts per second")
        .unwrap_or(1.0 / 60.0);
    let fleet_out: String = take_flag(&mut args, "--fleet-out", "an output path")
        .unwrap_or_else(|| "BENCH_pr5.json".into());
    let runner = SweepRunner::new(threads);
    let metrics = MetricsRecorder::new();

    const KNOWN: &[&str] = &[
        "all",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "funnel",
        "resilience",
        "table1",
        "table2",
        "casestudy",
        "fleet",
    ];
    if let Some(bad) = args.iter().find(|a| !KNOWN.contains(&a.as_str())) {
        eprintln!("unknown experiment '{bad}'; known: {}", KNOWN.join(" "));
        std::process::exit(2);
    }

    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let print = |title: &str, rows: Vec<String>| {
        println!("\n================================================================");
        println!("{title}");
        println!("================================================================");
        for row in rows {
            println!("{row}");
        }
    };

    if want("fig4") {
        print(
            "Fig. 4 - Receiver SPL vs distance per volume setting (quiet room, LOS)",
            report::fig4(&runner, SEED),
        );
    }
    if want("fig5") {
        print(
            "Fig. 5 - BER of each modulation vs Eb/N0 (speaker chain + white noise)",
            report::fig5(&runner, SEED, 4_000),
        );
    }
    if want("fig6") {
        print(
            "Fig. 6 - Offloading vs local processing on the wearable (50 rounds)",
            report::fig6(&runner, SEED, 50, &metrics),
        );
    }
    if want("fig7") {
        print(
            "Fig. 7 - BER vs distance per transmission mode (near-ultrasound, office)",
            report::fig7(&runner, SEED, 6),
        );
    }
    if want("fig8") {
        print(
            "Fig. 8 - Adaptive modulation under MaxBER constraints (near-ultrasound)",
            report::fig8(&runner, SEED, 6),
        );
    }
    if want("fig9") {
        print(
            "Fig. 9 - BER under jamming, with/without sub-channel selection (QPSK)",
            report::fig9(&runner, SEED, 8),
        );
    }
    if want("fig10") {
        print(
            "Fig. 10 - Computation delay of each phase on each device",
            report::fig10(),
        );
    }
    if want("fig11") {
        print(
            "Fig. 11 - Communication delay (message / audio clip, BT / WiFi)",
            report::fig11(&runner, SEED, 20),
        );
    }
    if want("fig12") {
        print(
            "Fig. 12 - Total unlock delay per configuration vs manual PIN entry",
            report::fig12(SEED, &metrics),
        );
    }
    if want("funnel") {
        print(
            "Funnel - unlock outcomes and per-stage costs over the scenario mix",
            report::funnel(&runner, SEED, 10, &metrics),
        );
    }
    if want("table1") {
        print(
            "Table I - Field test: BER per location / hand config / band",
            report::table1(SEED, 6, &metrics),
        );
    }
    if want("table2") {
        print(
            "Table II - Sensor-based filtering: DTW scores and cost",
            report::table2(&runner, SEED, 30),
        );
    }
    if want("casestudy") {
        print(
            "Case study - five participants, classroom, 10 trials each",
            report::casestudy(SEED, 10, &metrics),
        );
    }
    if want("resilience") {
        print(
            "Resilience - unlock rate and delay vs injected fault intensity",
            report::resilience(&runner, SEED, 8, &metrics),
        );
    }
    // `fleet` is opt-in (never part of `all`): its sweep runs tens of
    // thousands of full unlock attempts, so it should not ride along
    // with every `all`. Its output is fully deterministic (virtual time
    // only) and is diffed across `--threads` values in CI.
    if args.iter().any(|a| a == "fleet") {
        let cells = fleet::sweep(&runner, SEED, fleet_users, fleet_rate_hz, &metrics);
        print(
            &format!("Fleet - {fleet_users} users x arrival-rate sweep (sharded, virtual time)"),
            fleet::rows(&cells),
        );
        let json = fleet::to_json(&cells);
        if let Err(e) = std::fs::write(&fleet_out, &json) {
            eprintln!("failed to write {fleet_out}: {e}");
            std::process::exit(1);
        }
        println!("\nfleet: wrote {fleet_out}");
    }

    if let Some(path) = metrics_path {
        if let Err(e) = std::fs::write(&path, metrics.to_json()) {
            eprintln!("failed to write metrics to {path}: {e}");
            std::process::exit(1);
        }
        let snap = metrics.snapshot();
        println!(
            "\nmetrics: {} attempts, {} stages -> {path}",
            snap.attempts,
            snap.stages.len()
        );
    }
}
