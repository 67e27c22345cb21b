//! Deterministic parallel execution engine.
//!
//! Every evaluation in this reproduction is a *sweep*: a grid of
//! independent measurements (figure points, unlock attempts, BER
//! trials) that used to run serially, threading one RNG through the
//! whole grid. That coupling made parallelism impossible without
//! changing results. [`SweepRunner`] breaks it with a simple contract:
//!
//! **Determinism contract.** Task `i` of a sweep with base seed `s`
//! draws from `StdRng::seed_from_u64(s ^ i as u64)` and must not share
//! mutable state with other tasks. Results are returned in task-index
//! order. Under that contract the output is *bitwise identical* for
//! every worker count — serial and parallel runs agree exactly, which
//! the `wearlock-tests` determinism suite locks down.
//!
//! Work distribution is dynamic (a shared atomic cursor), so stragglers
//! like far-distance BER points don't serialize the sweep, while the
//! index-keyed seeding keeps scheduling invisible in the results.
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wearlock_telemetry::MetricsRecorder;

/// Derives the RNG for task `index` of a sweep seeded with
/// `base_seed`, per the crate's determinism contract.
pub fn task_rng(base_seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(base_seed ^ index as u64)
}

/// A worker pool fanning independent tasks across threads with
/// bitwise-reproducible results.
///
/// # Examples
///
/// ```
/// use wearlock_runtime::SweepRunner;
/// use rand::Rng;
///
/// let serial = SweepRunner::serial();
/// let parallel = SweepRunner::new(4);
/// let f = |i: usize, rng: &mut rand::rngs::StdRng| i as f64 + rng.gen::<f64>();
/// assert_eq!(serial.run(100, 7, f), parallel.run(100, 7, f));
/// ```
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    /// One worker per available CPU.
    fn default() -> Self {
        SweepRunner::new(0)
    }
}

impl SweepRunner {
    /// A runner with `threads` workers; `0` means one per available
    /// CPU.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        SweepRunner { threads }
    }

    /// A single-threaded runner (the reference execution).
    pub fn serial() -> Self {
        SweepRunner::new(1)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `tasks` independent tasks, handing task `i` the RNG
    /// [`task_rng`]`(base_seed, i)`, and returns results in task order.
    ///
    /// `f` must derive all randomness from the provided RNG and must
    /// not mutate state shared across tasks; under that contract the
    /// result is identical for every worker count.
    pub fn run<T, F>(&self, tasks: usize, base_seed: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        self.run_with_scratch(tasks, base_seed, || (), |i, rng, _| f(i, rng))
    }

    /// [`SweepRunner::run`] with per-worker scratch: every worker calls
    /// `init` once at startup and hands the same mutable scratch to
    /// each of its tasks. Sweeps over allocation-heavy pipelines (e.g.
    /// demodulation with a `DemodScratch`) warm their buffers on the
    /// first task and run allocation-free afterwards.
    ///
    /// Scratch must not carry task results across tasks — it is working
    /// memory, fully overwritten by each use. Because which worker runs
    /// which task is scheduling-dependent, any result smuggled through
    /// scratch would break the determinism contract; results must flow
    /// only through `f`'s return value.
    pub fn run_with_scratch<S, T, Init, F>(
        &self,
        tasks: usize,
        base_seed: u64,
        init: Init,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        Init: Fn() -> S + Sync,
        F: Fn(usize, &mut StdRng, &mut S) -> T + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(tasks);
        if workers <= 1 {
            let mut scratch = init();
            return (0..tasks)
                .map(|i| f(i, &mut task_rng(base_seed, i), &mut scratch))
                .collect();
        }

        // Dynamic scheduling: workers pull the next index from a shared
        // cursor, so an expensive task never strands the rest of the
        // grid behind it. Each finished task is slotted by index, which
        // erases scheduling order from the output.
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..tasks).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = init();
                    // Batch completed results locally and flush under one
                    // lock per worker lifetime-chunk to keep contention
                    // negligible even for micro-tasks.
                    let mut done: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        done.push((i, f(i, &mut task_rng(base_seed, i), &mut scratch)));
                        if done.len() >= 32 {
                            let mut slots = slots.lock().expect("no poisoned workers");
                            for (j, v) in done.drain(..) {
                                slots[j] = Some(v);
                            }
                        }
                    }
                    let mut slots = slots.lock().expect("no poisoned workers");
                    for (j, v) in done {
                        slots[j] = Some(v);
                    }
                });
            }
        });
        slots
            .into_inner()
            .expect("no poisoned workers")
            .into_iter()
            .map(|v| v.expect("every task completed"))
            .collect()
    }

    /// [`SweepRunner::run`] with per-task telemetry: task `i` records
    /// into a private [`MetricsRecorder`] passed to `f`, and the
    /// per-task recorders are folded into `metrics` in task-index order
    /// after the sweep.
    ///
    /// The fold order is the determinism contract's extension to
    /// telemetry: float accumulation is not associative, so merging in
    /// scheduling order would make histogram sums drift between runs.
    /// Merging the same per-task partials in the same (index) order —
    /// including for serial runs, which use the exact same path —
    /// makes the merged metrics bitwise identical for every worker
    /// count, just like the results themselves.
    pub fn run_with_metrics<T, F>(
        &self,
        tasks: usize,
        base_seed: u64,
        metrics: &MetricsRecorder,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng, &MetricsRecorder) -> T + Sync,
    {
        let mut out = Vec::with_capacity(tasks);
        for (value, local) in self.run(tasks, base_seed, |i, rng| {
            let local = MetricsRecorder::new();
            let value = f(i, rng, &local);
            (value, local)
        }) {
            metrics.merge_from(&local);
            out.push(value);
        }
        out
    }

    /// Maps `f` over `items` in parallel: item `i` gets
    /// [`task_rng`]`(base_seed, i)`. Results keep the input order.
    pub fn map<I, T, F>(&self, items: &[I], base_seed: u64, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I, &mut StdRng) -> T + Sync,
    {
        self.run(items.len(), base_seed, |i, rng| f(&items[i], rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn workload(i: usize, rng: &mut StdRng) -> (usize, f64, u64) {
        // A task with data-dependent cost, to exercise dynamic
        // scheduling.
        let rounds = 1 + (i % 7) * 50;
        let mut acc = 0.0;
        for _ in 0..rounds {
            acc += rng.gen::<f64>();
        }
        (i, acc, rng.gen::<u64>())
    }

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let reference = SweepRunner::serial().run(97, 0xfeed, workload);
        for threads in [2, 3, 8] {
            let got = SweepRunner::new(threads).run(97, 0xfeed, workload);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn results_are_in_task_order() {
        let out = SweepRunner::new(4).run(50, 1, |i, _| i);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_differ_per_task() {
        let out = SweepRunner::new(4).run(16, 3, |_, rng| rng.gen::<u64>());
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), out.len());
    }

    #[test]
    fn base_seed_changes_results() {
        let a = SweepRunner::serial().run(8, 1, |_, rng| rng.gen::<u64>());
        let b = SweepRunner::serial().run(8, 2, |_, rng| rng.gen::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..40).rev().collect();
        let out = SweepRunner::new(4).map(&items, 9, |&x, _| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_empty() {
        let out: Vec<u8> = SweepRunner::new(4).run(0, 5, |_, _| 0);
        assert!(out.is_empty());
    }

    fn metrics_workload(i: usize, rng: &mut StdRng, metrics: &MetricsRecorder) -> f64 {
        use wearlock_telemetry::{EventSink, StageSpan};
        let mut acc = 0.0;
        for _ in 0..1 + (i % 5) * 20 {
            let d = rng.gen::<f64>();
            acc += d;
            metrics.record_span(&StageSpan {
                stage: "compute",
                duration_s: d,
                watch_energy_j: d * 0.1,
                phone_energy_j: d * 0.2,
            });
        }
        acc
    }

    #[test]
    fn metrics_merge_is_bitwise_deterministic_across_thread_counts() {
        let reference = MetricsRecorder::new();
        let ref_out =
            SweepRunner::serial().run_with_metrics(61, 0xabcd, &reference, metrics_workload);
        let ref_json = reference.to_json();
        assert!(reference.snapshot().stages["compute"].latency_s.count > 0);
        for threads in [2, 3, 8] {
            let metrics = MetricsRecorder::new();
            let out =
                SweepRunner::new(threads).run_with_metrics(61, 0xabcd, &metrics, metrics_workload);
            assert_eq!(out, ref_out, "results differ at threads={threads}");
            assert_eq!(
                metrics.to_json(),
                ref_json,
                "metrics differ at threads={threads}"
            );
        }
    }

    #[test]
    fn run_with_metrics_preserves_run_results() {
        // The metrics variant must not perturb the RNG stream or the
        // task ordering of the plain runner.
        let plain = SweepRunner::new(4).run(40, 0x51, workload);
        let metrics = MetricsRecorder::new();
        let observed =
            SweepRunner::new(4).run_with_metrics(40, 0x51, &metrics, |i, rng, _| workload(i, rng));
        assert_eq!(plain, observed);
    }

    #[test]
    fn scratch_runs_agree_bitwise_across_thread_counts() {
        // Scratch-backed workload: accumulate into a reused buffer that
        // is fully overwritten per task, mimicking a demod scratch.
        let scratch_workload = |i: usize, rng: &mut StdRng, buf: &mut Vec<f64>| {
            buf.clear();
            buf.extend((0..1 + (i % 7) * 30).map(|_| rng.gen::<f64>()));
            buf.iter().sum::<f64>().to_bits()
        };
        let reference =
            SweepRunner::serial().run_with_scratch(97, 0xfeed, Vec::new, scratch_workload);
        for threads in [2, 3, 8] {
            let got =
                SweepRunner::new(threads).run_with_scratch(97, 0xfeed, Vec::new, scratch_workload);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn scratch_matches_plain_run() {
        let plain = SweepRunner::new(4).run(40, 0x51, workload);
        let with_scratch =
            SweepRunner::new(4).run_with_scratch(40, 0x51, || (), |i, rng, _| workload(i, rng));
        assert_eq!(plain, with_scratch);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = SweepRunner::new(64).run(3, 11, |i, rng| (i, rng.gen::<u64>()));
        assert_eq!(
            out,
            SweepRunner::serial().run(3, 11, |i, rng| (i, rng.gen::<u64>()))
        );
    }
}
