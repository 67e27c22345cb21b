//! Process-wide FFT plan cache.
//!
//! Planning an [`Fft`] computes a bit-reversal table and a twiddle
//! table; doing that inside every correlation call (as the seed
//! implementation did) dominates short-transform cost and allocates on
//! the hot path. The cache hands out `Arc`-shared plans keyed by size,
//! so each size is planned exactly once per process and every worker
//! thread, modulator and demodulator borrows the same immutable tables.
//!
//! The cache is behind a `Mutex`, but the lock is only touched when a
//! component *acquires* a plan (construction time, or the first
//! correlation at a new size) — never per transform. Plans themselves
//! are immutable and `Send + Sync`, so sharing one `Arc<Fft>` across
//! the sweep runner's workers is free.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::DspError;
use crate::fft::Fft;

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
}

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
        let plan = Arc::new(Fft::new(size)?);
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
