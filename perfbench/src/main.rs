//! Host-time benchmark of the WearLock unlock pipeline.
//!
//! One binary runs one workload per process:
//!
//! ```text
//! wearlock-perfbench --workload <fleet_steady|fleet_churn|session_direct>
//!                    --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! With `--trace 0` it times the workload through the public APIs
//! (`FleetEngine::run`, `UnlockSession::run`) and prints the end-to-end
//! metrics; with `--trace 1` it runs the same inputs again with
//! wall-stamping sinks and direct layer timings and prints the
//! per-layer metrics. Every output is checked; the last stdout line is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`).
//! `--tiny` shrinks every input for the self-tests. See `METRICS.md`
//! for the workload parameters and the layer → end-to-end mapping.

mod trace;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Counting global allocator: the library crates forbid unsafe code, so
// allocation counts are taken here in the benchmark's own binary.
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation unchanged to the system allocator;
// the counter is a relaxed atomic with no allocator interaction.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (including reallocations) made by the process so far.
pub fn allocations() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline fleet run, every user fits the session stores.
    FleetSteady,
    /// Offline fleet run over a population far larger than the stores.
    FleetChurn,
    /// Closed loop of `UnlockSession::run` calls, one client per core.
    SessionDirect,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FleetSteady,
        Workload::FleetChurn,
        Workload::SessionDirect,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetChurn => "fleet_churn",
            Workload::SessionDirect => "session_direct",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        tiny,
    })
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark process reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (unlock attempts / run calls).
    pub attempted: u64,
    /// Operations that panicked or failed an output check.
    pub failed: u64,
    /// Whether every whole-run check (determinism, accounting) held.
    pub checks_ok: bool,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn correct(&self) -> bool {
        self.checks_ok
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile over an ascending slice (the fleet engine's
/// definition); 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(((n - 1) as f64) * q).round() as usize],
    }
}

/// Median of unsorted values (the mean of the middle two for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// FNV-1a, for outcome digests that compare across runs and builds.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed timespec that
    // clock_gettime only writes; both clock ids exist on Linux.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + 1e-9 * ts.tv_nsec as f64
}

/// CPU seconds the whole process has used, every thread included
/// (finished ones too). Unlike wall time, this leaves out the time the
/// cores were taken away by other processes or the hypervisor.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("wearlock-perfbench: {msg}");
            eprintln!(
                "usage: wearlock-perfbench --workload <fleet_steady|fleet_churn|session_direct> \
                 --seed <n> --seconds <s> --trace <0|1> [--tiny]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} tiny={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny
    );
    let result = if args.trace {
        trace::run(&args)
    } else {
        workloads::run(&args)
    };
    println!("{}", result.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "fleet_churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::FleetChurn);
        assert_eq!(a.seed, 7);
        assert!(a.trace && !a.tiny);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fleet_steady",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fleet_steady",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fleet_steady",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = RunResult {
            attempted: 3,
            checks_ok: true,
            ..RunResult::default()
        };
        r.push("setup_s", 0.25, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (process, thread) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_s() > thread);
        assert!(process_cpu_s() - process >= thread_cpu_s() - thread - 1e-3);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
