//! Process-wide FFT plan cache.
//!
//! Planning an [`Fft`] computes a bit-reversal table and a twiddle
//! table; doing that inside every correlation call (as the seed
//! implementation did) dominates short-transform cost and allocates on
//! the hot path. The cache hands out `Arc`-shared plans keyed by size,
//! so each size is planned exactly once per process and every worker
//! thread, modulator and demodulator borrows the same immutable tables.
//!
//! Every plan the cache makes reads the same twiddle table: a shorter
//! plan's table is exactly a prefix of a longer one's (see
//! [`Fft`]'s layout), so the cache builds one table for the longest
//! size asked for, at least 4 096 points, and hands each
//! plan a share of it. Only the bit-reversal tables are per size.
//!
//! The cache is behind a `Mutex`, but the lock is only touched when a
//! component *acquires* a plan (construction time, or the first
//! correlation at a new size) — never per transform. Plans themselves
//! are immutable and `Send + Sync`, so sharing one `Arc<Fft>` across
//! the sweep runner's workers is free.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft::{twiddle_table, Fft};

/// A size-keyed cache of FFT plans.
///
/// Most callers want the process-global cache via [`planned`]; a
/// private cache is useful in tests or when plan lifetime must be
/// scoped.
///
/// # Examples
///
/// ```
/// use wearlock_dsp::FftCache;
///
/// let mut cache = FftCache::new();
/// let a = cache.get(256)?;
/// let b = cache.get(256)?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // planned once
/// # Ok::<(), wearlock_dsp::DspError>(())
/// ```
#[derive(Debug, Default)]
pub struct FftCache {
    plans: HashMap<usize, Arc<Fft>>,
    /// The twiddle table new plans share: the longest built so far.
    twiddles: Option<Arc<[Complex]>>,
}

/// The fewest points a shared twiddle table is built for: the longest
/// transform the acoustic channel runs, so a process's plans of 256 to
/// 4 096 points share one table in whatever order they are first asked
/// for. A longer plan builds a longer table, which the plans made after
/// it share.
const SHARED_TWIDDLE_POINTS: usize = 4_096;

impl FftCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the plan for `size`, planning it on first use.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidFftSize`] for invalid sizes (nothing
    /// is cached in that case).
    pub fn get(&mut self, size: usize) -> Result<Arc<Fft>, DspError> {
        if let Some(plan) = self.plans.get(&size) {
            return Ok(Arc::clone(plan));
        }
        Fft::check_size(size)?;
        let twiddles = match &self.twiddles {
            Some(table) if table.len() >= size - 1 => Arc::clone(table),
            _ => {
                let table = twiddle_table(size.max(SHARED_TWIDDLE_POINTS));
                self.twiddles = Some(Arc::clone(&table));
                table
            }
        };
        let plan = Arc::new(Fft::with_twiddles(size, twiddles));
        self.plans.insert(size, Arc::clone(&plan));
        Ok(plan)
    }

    /// Number of distinct plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

fn global() -> &'static Mutex<FftCache> {
    static CACHE: OnceLock<Mutex<FftCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(FftCache::new()))
}

/// Returns the process-global plan for `size`.
///
/// # Errors
///
/// Returns [`DspError::InvalidFftSize`] for invalid sizes.
///
/// # Panics
///
/// Panics if the global cache mutex was poisoned (a planner panicked),
/// which cannot happen through this API.
pub fn planned(size: usize) -> Result<Arc<Fft>, DspError> {
    global().lock().expect("fft cache poisoned").get(size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_by_size() {
        let mut cache = FftCache::new();
        assert!(cache.is_empty());
        let a = cache.get(64).unwrap();
        let b = cache.get(64).unwrap();
        let c = cache.get(128).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalid_sizes_are_not_cached() {
        let mut cache = FftCache::new();
        assert!(cache.get(12).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn global_cache_shares_plans() {
        let a = planned(512).unwrap();
        let b = planned(512).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn plans_share_one_twiddle_table() {
        let mut cache = FftCache::new();
        let sizes = [1_024, 256, 4_096, 2, 2_048, 512];
        let plans: Vec<Arc<Fft>> = sizes.iter().map(|&n| cache.get(n).unwrap()).collect();
        for plan in &plans {
            assert!(Arc::ptr_eq(plan.twiddles(), plans[0].twiddles()));
        }
        assert_eq!(plans[0].twiddles().len(), SHARED_TWIDDLE_POINTS - 1);
        // A longer plan builds a longer table; later plans share it.
        let long = cache.get(16_384).unwrap();
        assert_eq!(long.twiddles().len(), 16_383);
        let after = cache.get(128).unwrap();
        assert!(Arc::ptr_eq(after.twiddles(), long.twiddles()));
        assert!(Arc::ptr_eq(&cache.get(1_024).unwrap(), &plans[0]));
    }

    #[test]
    fn plans_on_a_shared_table_transform_like_fresh_ones() {
        let mut cache = FftCache::new();
        cache.get(8_192).unwrap();
        for bits in 1..=13 {
            let n = 1usize << bits;
            let shared = cache.get(n).unwrap();
            let fresh = Fft::new(n).unwrap();
            let x: Vec<crate::Complex> = (0..n)
                .map(|i| crate::Complex::new((i as f64 * 0.37).sin(), (i as f64 * 1.3).cos()))
                .collect();
            for (a, b) in [
                (shared.forward(&x).unwrap(), fresh.forward(&x).unwrap()),
                (shared.inverse(&x).unwrap(), fresh.inverse(&x).unwrap()),
            ] {
                for (u, v) in a.iter().zip(&b) {
                    assert_eq!(u.re.to_bits(), v.re.to_bits(), "{n}-point");
                    assert_eq!(u.im.to_bits(), v.im.to_bits(), "{n}-point");
                }
            }
        }
    }

    #[test]
    fn global_plans_transform_like_fresh_ones() {
        let plan = planned(32).unwrap();
        let fresh = Fft::new(32).unwrap();
        let x: Vec<crate::Complex> = (0..32)
            .map(|i| crate::Complex::new(i as f64, -(i as f64)))
            .collect();
        let a = plan.forward(&x).unwrap();
        let b = fresh.forward(&x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.re.to_bits(), v.re.to_bits());
            assert_eq!(u.im.to_bits(), v.im.to_bits());
        }
    }
}
