//! Text renderings of every figure/table, shared between the `repro`
//! binary and the reproducibility test suite.
//!
//! Each function runs its experiment on the given [`SweepRunner`] and
//! returns the report as lines. Everything that reaches these strings
//! is derived from the seed (never from wall time or scheduling), so
//! for a fixed seed the lines are bitwise identical across runs,
//! machines, and worker counts — which `tests/tests/determinism.rs`
//! asserts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wearlock_runtime::SweepRunner;
use wearlock_telemetry::{AttemptOutcome, EventSink, MetricsRecorder};

use crate::{fig1011, fig4, fig5, fig6, fig789, funnel, resilience, table2};

/// Fig. 4 rows: receiver SPL vs distance per volume setting.
pub fn fig4(runner: &SweepRunner, seed: u64) -> Vec<String> {
    let volumes = [50.0, 57.0, 64.0, 70.0];
    let distances = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0];
    let pts = fig4::sweep(&volumes, &distances, seed, runner);
    let mut out = Vec::new();
    let mut head = format!("{:>10}", "d (m)");
    for v in volumes {
        head.push_str(&format!("  tx {v:.0} dB"));
    }
    out.push(head);
    for &d in &distances {
        let mut line = format!("{d:>10.3}");
        for &v in &volumes {
            let p = pts
                .iter()
                .find(|p| p.volume.value() == v && p.distance.value() == d)
                .expect("point measured");
            line.push_str(&format!("  {:8.1}", p.received.value()));
        }
        out.push(line);
    }
    out.push(String::new());
    out.push(format!(
        "attenuation per distance doubling: {:.2} dB (paper/theory: ~6 dB)",
        fig4::attenuation_per_doubling(&pts)
    ));
    out
}

/// Fig. 5 rows: BER of each modulation vs Eb/N0.
pub fn fig5(runner: &SweepRunner, seed: u64, bits_per_point: usize) -> Vec<String> {
    let grid: Vec<f64> = (0..=14).map(|i| i as f64 * 5.0).collect();
    let pts = fig5::sweep(&grid, bits_per_point, seed, runner);
    let mut out = Vec::new();
    let mut head = format!("{:>8}", "Eb/N0");
    for m in wearlock_modem::Modulation::ALL {
        head.push_str(&format!("  {m:>7}"));
    }
    out.push(head);
    for &e in &grid {
        let mut line = format!("{e:>8.1}");
        for m in wearlock_modem::Modulation::ALL {
            let p = pts
                .iter()
                .find(|p| p.modulation == m && p.ebn0.value() == e)
                .expect("point measured");
            line.push_str(&format!("  {:7.4}", p.ber));
        }
        out.push(line);
    }
    out.push(String::new());
    out.push("shape: BASK/BPSK waterfall clean; ASK has no phase-error floor;".into());
    out.push("8PSK/16QAM floor above 1e-2 (unusable at MaxBER 0.01), as in the paper.".into());
    out
}

/// Fig. 6 rows: offloading vs local processing on the wearable, with
/// per-round cost spans recorded into `metrics`.
pub fn fig6(
    runner: &SweepRunner,
    seed: u64,
    rounds: usize,
    metrics: &MetricsRecorder,
) -> Vec<String> {
    let (local, offload) = fig6::run(rounds, seed, runner, metrics);
    vec![
        format!(
            "local on watch   : {:7.1} ms/round, {:7.2} J total, {:.4}% of battery",
            local.mean_time_s * 1e3,
            local.watch_energy_j,
            local.watch_battery_fraction * 100.0
        ),
        format!(
            "offload to phone : {:7.1} ms/round, {:7.2} J total, {:.4}% of battery",
            offload.mean_time_s * 1e3,
            offload.watch_energy_j,
            offload.watch_battery_fraction * 100.0
        ),
        String::new(),
        format!(
            "offloading speedup {:.1}x, watch energy saving {:.1}x (paper: offloading wins both)",
            local.mean_time_s / offload.mean_time_s,
            local.watch_energy_j / offload.watch_energy_j
        ),
    ]
}

/// Fig. 7 rows: BER vs distance per transmission mode.
pub fn fig7(runner: &SweepRunner, seed: u64, trials: usize) -> Vec<String> {
    let distances = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
    let pts = fig789::fig7(&distances, trials, seed, runner);
    let mut out = Vec::new();
    let mut head = format!("{:>8}", "d (m)");
    for m in wearlock_modem::TransmissionMode::ALL {
        head.push_str(&format!("  {m:>7}"));
    }
    out.push(head);
    for &d in &distances {
        let mut line = format!("{d:>8.2}");
        for m in wearlock_modem::TransmissionMode::ALL {
            let p = pts
                .iter()
                .find(|p| p.mode == m && p.distance == d)
                .expect("point measured");
            line.push_str(&format!("  {:7.4}", p.ber));
        }
        out.push(line);
    }
    out.push(String::new());
    out.push("shape: BER rises steeply past ~1 m; higher-order modes degrade first.".into());
    out
}

/// Fig. 8 rows: adaptive modulation under MaxBER constraints.
pub fn fig8(runner: &SweepRunner, seed: u64, trials: usize) -> Vec<String> {
    let distances = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
    let pts = fig789::fig8(&[0.01, 0.1], &distances, trials, seed, runner);
    let mut out = vec![format!(
        "{:>8} {:>8} {:>9} {:>8} {:>10}",
        "MaxBER", "d (m)", "BER", "mode", "abort rate"
    )];
    for p in &pts {
        out.push(format!(
            "{:>8} {:>8.2} {:>9} {:>8} {:>9.0}%",
            p.max_ber,
            p.distance,
            if p.ber.is_nan() {
                "-".to_string()
            } else {
                format!("{:.4}", p.ber)
            },
            p.mode.map(|m| m.to_string()).unwrap_or_else(|| "-".into()),
            p.abort_rate * 100.0
        ));
    }
    out.push(String::new());
    out.push("shape: the constraint holds while a mode is available; tighter MaxBER".into());
    out.push("forces lower-order modes and earlier aborts as distance grows.".into());
    out
}

/// Fig. 9 rows: BER under jamming with/without sub-channel selection.
pub fn fig9(runner: &SweepRunner, seed: u64, trials: usize) -> Vec<String> {
    let pts = fig789::fig9(6, trials, seed, runner);
    let mut out = vec![format!(
        "{:>13} {:>12} {:>14}",
        "jammed tones", "fixed BER", "selected BER"
    )];
    for p in &pts {
        out.push(format!(
            "{:>13} {:>12.4} {:>14.4}",
            p.jammed, p.ber_fixed, p.ber_selected
        ));
    }
    out.push(String::new());
    out.push("shape: fixed assignment degrades with each jammed tone; selection".into());
    out.push("hops to clean sub-channels and holds a stable BER.".into());
    out
}

/// Fig. 10 rows: per-phase computation delay on each device.
pub fn fig10() -> Vec<String> {
    let mut out = vec![format!(
        "{:>14} {:>16} {:>18} {:>14}",
        "device", "phase1 probing", "phase2 preprocess", "phase2 demod"
    )];
    for d in fig1011::fig10() {
        out.push(format!(
            "{:>14} {:>13.1} ms {:>15.1} ms {:>11.1} ms",
            d.device,
            d.phase1_probing_s * 1e3,
            d.phase2_preprocess_s * 1e3,
            d.phase2_demod_s * 1e3
        ));
    }
    out.push(String::new());
    out.push("shape: watch >> low-end phone > high-end phone, per phase.".into());
    out
}

/// Fig. 11 rows: communication delay per transport and payload.
pub fn fig11(runner: &SweepRunner, seed: u64, reps: usize) -> Vec<String> {
    let mut out = vec![format!(
        "{:>10} {:>12} {:>10} {:>10} {:>10}",
        "transport", "payload", "mean", "min", "max"
    )];
    for l in fig1011::fig11(reps, seed, runner) {
        out.push(format!(
            "{:>10} {:>12} {:>7.1} ms {:>7.1} ms {:>7.1} ms",
            l.transport.to_string(),
            l.payload,
            l.mean_s * 1e3,
            l.min_s * 1e3,
            l.max_s * 1e3
        ));
    }
    out
}

/// Funnel rows: outcome mix per scenario, the merged deny-reason
/// funnel, and per-stage latency/energy aggregates from telemetry.
pub fn funnel(
    runner: &SweepRunner,
    seed: u64,
    trials: usize,
    metrics: &MetricsRecorder,
) -> Vec<String> {
    let outcomes = funnel::run(trials, seed, runner, metrics);
    let scenarios = funnel::scenarios();
    let trials = trials.max(1);
    let mut out = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        let slice = &outcomes[i * trials..(i + 1) * trials];
        let mut line = format!("{:>24}:", s.label);
        for o in AttemptOutcome::ALL {
            let n = slice.iter().filter(|&&x| x == o).count();
            if n > 0 {
                line.push_str(&format!("  {} {n}", o.name()));
            }
        }
        out.push(line);
    }
    let snap = metrics.snapshot();
    out.push(String::new());
    out.push(format!("funnel over {} attempts:", snap.attempts));
    for &(name, n) in &snap.outcomes {
        out.push(format!("{name:>28} {n:>4}"));
    }
    out.push(String::new());
    out.push(format!(
        "{:>26} {:>6} {:>10} {:>12} {:>12}",
        "stage", "count", "mean ms", "watch mJ", "phone mJ"
    ));
    for (name, s) in &snap.stages {
        out.push(format!(
            "{:>26} {:>6} {:>10.2} {:>12.3} {:>12.3}",
            name,
            s.latency_s.count,
            s.latency_s.mean() * 1e3,
            s.watch_energy_j.mean() * 1e3,
            s.phone_energy_j.mean() * 1e3,
        ));
    }
    out
}

/// Resilience rows: unlock rate and delay vs injected fault intensity.
pub fn resilience(
    runner: &SweepRunner,
    seed: u64,
    trials: usize,
    metrics: &MetricsRecorder,
) -> Vec<String> {
    let pts = resilience::run(trials, seed, runner, metrics);
    let mut out = vec![format!(
        "{:>10} {:>9} {:>9} {:>8} {:>11} {:>12} {:>13}",
        "intensity", "unlock %", "pin %", "denied", "mean tries", "escalations", "mean delay"
    )];
    for p in &pts {
        out.push(format!(
            "{:>10.2} {:>8.0}% {:>8.0}% {:>8} {:>11.2} {:>12} {:>10.0} ms",
            p.intensity,
            p.unlock_rate() * 100.0,
            p.surrenders as f64 / p.trials as f64 * 100.0,
            p.denials,
            p.mean_tries,
            p.escalations,
            p.mean_delay_s * 1e3
        ));
    }
    out.push(String::new());
    out.push("shape: unlock rate decays and tries/delay grow with intensity; the".into());
    out.push("retry ladder converts residual failures into PIN fallbacks, not lockouts.".into());
    out
}

/// Fig. 12 rows: total unlock delay per configuration vs manual PIN,
/// with every attempt's telemetry reported to `sink`.
pub fn fig12(seed: u64, sink: &dyn EventSink) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let env = wearlock::environment::Environment::default();
    match wearlock::delay::compare_with_pin(&env, 5, sink, &mut rng) {
        Ok(report) => {
            let mut out = Vec::new();
            for (i, c) in report.configs.iter().enumerate() {
                out.push(format!(
                    "{}: total {:6.0} ms (probe {:3.0} + pre {:3.0} + demod {:3.0} + comm {:4.0} + audio {:4.0} ms)  speedup vs 4-PIN: {:4.1}%",
                    c.config,
                    c.total.value() * 1e3,
                    c.phase1_processing.value() * 1e3,
                    c.phase2_preprocessing.value() * 1e3,
                    c.phase2_demodulation.value() * 1e3,
                    c.communication.value() * 1e3,
                    c.audio.value() * 1e3,
                    report.speedup_vs_pin4(i) * 100.0
                ));
            }
            out.push(format!(
                "manual PIN: 4-digit {:.0} ms, 6-digit {:.0} ms (medians aligned to [2])",
                report.pin4.value() * 1e3,
                report.pin6.value() * 1e3
            ));
            out.push(String::new());
            out.push("paper: >=58.6% speedup for Config1, >=17.7% for Config2.".into());
            out
        }
        Err(e) => vec![format!("fig12 failed: {e}")],
    }
}

/// Table I rows: field-test BER per location / hand config / band,
/// with every attempt's telemetry reported to `sink`.
pub fn table1(seed: u64, trials: usize, sink: &dyn EventSink) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    match wearlock::fieldtest::run_field_test(trials, sink, &mut rng) {
        Ok(ft) => {
            use wearlock_acoustics::noise::Location;
            use wearlock_modem::config::FrequencyBand;
            let mut out = Vec::new();
            let mut head = format!("{:>34}", "BER vs Locations");
            for loc in Location::FIELD_TEST {
                head.push_str(&format!(" {:>16}", loc.to_string()));
            }
            out.push(head);
            for band in [FrequencyBand::Audible, FrequencyBand::NearUltrasound] {
                for hands in wearlock::fieldtest::HandConfig::ALL {
                    let mut line = format!("{:>34}", format!("{hands} ({band})"));
                    for loc in Location::FIELD_TEST {
                        let cell = ft.cell(loc, hands, band).expect("full grid");
                        let mode = cell
                            .mode
                            .map(|m| m.to_string())
                            .unwrap_or_else(|| "-".into());
                        line.push_str(&format!(
                            " {:>16}",
                            if cell.ber.is_finite() {
                                format!("{:.4}({mode})", cell.ber)
                            } else {
                                "-".to_string()
                            }
                        ));
                    }
                    out.push(line);
                }
            }
            out.push(String::new());
            out.push(format!(
                "average BER {:.4} (paper: ~0.08)",
                ft.average_ber()
            ));
            out
        }
        Err(e) => vec![format!("table1 failed: {e}")],
    }
}

/// Table II rows: DTW scores per scenario and the model-derived cost.
pub fn table2(runner: &SweepRunner, seed: u64, trials: usize) -> Vec<String> {
    let t2 = table2::run(trials, seed, runner);
    let mut head = format!("{:>12}", "Activities");
    for r in &t2.rows {
        head.push_str(&format!(" {:>10}", r.scenario));
    }
    head.push_str(&format!(" {:>10}", "Cost(ms)"));
    let mut scores = format!("{:>12}", "DTW Scores");
    for r in &t2.rows {
        scores.push_str(&format!(" {:>10.3}", r.dtw_score));
    }
    scores.push_str(&format!(" {:>10.1}", t2.watch_cost_ms));
    vec![
        head,
        scores,
        String::new(),
        "(cost column: DTW on the Moto 360 per the platform compute model; paper: 45.9 ms)".into(),
        "paper scores: Sitting 0.05, Walking 0.02, Running 0.06, Different 0.20".into(),
    ]
}

/// Case-study rows: five participants, classroom, `trials` each, with
/// every attempt's telemetry reported to `sink`.
pub fn casestudy(seed: u64, trials: usize, sink: &dyn EventSink) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    match wearlock::casestudy::run_case_study(trials, sink, &mut rng) {
        Ok(cs) => {
            let mut out = Vec::new();
            for p in &cs.participants {
                out.push(format!(
                    "{:40} success {:2}/{:2}  (token unlocks {:2}, NLOS flags {}, NLOS denials {})",
                    p.name, p.successes, p.trials, p.token_unlocks, p.nlos_flags, p.nlos_denials
                ));
            }
            out.push(String::new());
            out.push(format!(
                "average success rate {:.0}% (paper: ~90%)",
                cs.average_success_rate() * 100.0
            ));
            out
        }
        Err(e) => vec![format!("casestudy failed: {e}")],
    }
}
