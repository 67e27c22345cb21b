//! The `repro perf` experiment: steady-state wall time and heap
//! allocation counts for each modem pipeline stage, emitted as
//! `BENCH_pr4.json`.
//!
//! Wall times are host-dependent and therefore **not** part of any
//! deterministic experiment (`perf` is deliberately excluded from
//! `repro all`); the allocation counts, however, are exact and gated in
//! CI — the `demodulate` stage must allocate nothing per frame after
//! warmup.
//!
//! Allocation counting needs a `#[global_allocator]`, which requires
//! `unsafe`; this library forbids unsafe code, so the `repro` binary
//! installs the counting allocator and passes a snapshot hook in via
//! [`AllocSnapshot`]. Without a hook the counts are reported as `null`.

use std::time::Instant;

use wearlock_modem::config::OfdmConfig;
use wearlock_modem::constellation::Modulation;
use wearlock_modem::{DemodFrame, DemodScratch, OfdmDemodulator, OfdmModulator, TxScratch};

/// Returns cumulative `(allocation_count, allocated_bytes)` since
/// process start. Provided by the binary's counting global allocator.
pub type AllocSnapshot = fn() -> (u64, u64);

/// One stage's steady-state measurement.
#[derive(Debug, Clone)]
pub struct StageMeasurement {
    /// Stage name (`modulate`, `detect`, `demodulate`, `probe`).
    pub name: &'static str,
    /// Measured iterations (after warmup).
    pub iters: u64,
    /// Mean wall-clock seconds per iteration.
    pub wall_s_per_iter: f64,
    /// Mean heap allocations per iteration (`None` without a hook).
    pub allocs_per_iter: Option<f64>,
    /// Mean heap bytes per iteration (`None` without a hook).
    pub bytes_per_iter: Option<f64>,
}

fn measure_stage(
    name: &'static str,
    iters: u64,
    snapshot: Option<AllocSnapshot>,
    mut f: impl FnMut(),
) -> StageMeasurement {
    // Warmup grows every reusable buffer and populates the plan cache,
    // so the measured window sees only steady-state behavior.
    for _ in 0..8 {
        f();
    }
    let before = snapshot.map(|s| s());
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = snapshot.map(|s| s());
    let (allocs, bytes) = match (before, after) {
        (Some((a0, b0)), Some((a1, b1))) => (
            Some((a1 - a0) as f64 / iters as f64),
            Some((b1 - b0) as f64 / iters as f64),
        ),
        _ => (None, None),
    };
    StageMeasurement {
        name,
        iters,
        wall_s_per_iter: wall / iters as f64,
        allocs_per_iter: allocs,
        bytes_per_iter: bytes,
    }
}

/// Measures every pipeline stage in its steady state (every entry point
/// on warmed caller-owned scratch and output buffers).
pub fn measure(iters: u64, snapshot: Option<AllocSnapshot>) -> Vec<StageMeasurement> {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).expect("default config");
    let rx = OfdmDemodulator::new(cfg).expect("default config");
    let bits: Vec<bool> = (0..240).map(|i| (i * 13 + 1) % 7 < 3).collect();

    let mut tx_scratch = TxScratch::new();
    let mut wave = Vec::new();
    tx.modulate(&bits, Modulation::Qpsk, &mut tx_scratch, &mut wave)
        .expect("payload is valid");
    let mut probe = Vec::new();
    tx.probe(2, &mut tx_scratch, &mut probe)
        .expect("probe is valid");
    let mut scratch = DemodScratch::new();
    let mut frame = DemodFrame::new();
    let sync = rx.detect(&wave, &mut scratch).expect("clean frame");

    let mut out = Vec::new();
    out.push(measure_stage("modulate", iters, snapshot, || {
        tx.modulate(&bits, Modulation::Qpsk, &mut tx_scratch, &mut wave)
            .expect("payload is valid");
    }));
    out.push(measure_stage("detect", iters, snapshot, || {
        rx.detect(&wave, &mut scratch).expect("clean frame");
    }));
    out.push(measure_stage("demodulate", iters, snapshot, || {
        rx.demodulate_synced(
            &wave,
            Modulation::Qpsk,
            bits.len(),
            sync,
            &mut scratch,
            &mut frame,
        )
        .expect("clean frame");
    }));
    out.push(measure_stage("probe", iters, snapshot, || {
        rx.analyze_probe(&probe, &mut scratch).expect("clean probe");
    }));
    out
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x}"),
        None => "null".to_string(),
    }
}

/// Renders the measurements as the `BENCH_pr4.json` document.
pub fn to_json(stages: &[StageMeasurement]) -> String {
    let mut s = String::from("{\n  \"schema\": \"wearlock.bench.pr4.v1\",\n  \"stages\": {\n");
    for (i, m) in stages.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {{\"iters\": {}, \"wall_s_per_iter\": {}, \
             \"allocs_per_iter\": {}, \"bytes_per_iter\": {}}}{}\n",
            m.name,
            m.iters,
            m.wall_s_per_iter,
            json_opt(m.allocs_per_iter),
            json_opt(m.bytes_per_iter),
            if i + 1 < stages.len() { "," } else { "" },
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Human-readable rows for the repro printout.
pub fn rows(stages: &[StageMeasurement]) -> Vec<String> {
    let mut out = vec![format!(
        "{:<12} {:>10} {:>16} {:>16} {:>16}",
        "stage", "iters", "wall/iter", "allocs/iter", "bytes/iter"
    )];
    for m in stages {
        out.push(format!(
            "{:<12} {:>10} {:>13.3} us {:>16} {:>16}",
            m.name,
            m.iters,
            m.wall_s_per_iter * 1e6,
            m.allocs_per_iter
                .map(|a| format!("{a:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            m.bytes_per_iter
                .map(|b| format!("{b:.0}"))
                .unwrap_or_else(|| "n/a".into()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_all_stages() {
        let stages = measure(2, None);
        let names: Vec<&str> = stages.iter().map(|m| m.name).collect();
        assert_eq!(names, ["modulate", "detect", "demodulate", "probe"]);
        for m in &stages {
            assert!(m.wall_s_per_iter > 0.0, "{}", m.name);
            assert!(m.allocs_per_iter.is_none());
        }
    }

    #[test]
    fn json_has_schema_and_stages() {
        let stages = measure(1, None);
        let json = to_json(&stages);
        assert!(json.contains("\"schema\": \"wearlock.bench.pr4.v1\""));
        assert!(json.contains("\"demodulate\""));
        assert!(json.contains("\"allocs_per_iter\": null"));
    }
}
