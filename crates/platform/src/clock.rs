//! Virtual wall-clock for delay accounting.
//!
//! Protocol runs accumulate simulated time (computation delays from the
//! device model, communication delays from the link model, acoustic
//! play-out durations) on a [`VirtualClock`], producing the per-phase
//! breakdowns of Figs. 10–12.

use std::collections::BTreeMap;

use wearlock_dsp::units::Seconds;

/// An accumulating virtual clock with labelled spans.
///
/// # Examples
///
/// ```
/// use wearlock_dsp::units::Seconds;
/// use wearlock_platform::clock::VirtualClock;
///
/// let mut clock = VirtualClock::new();
/// clock.advance("probe", Seconds(0.12));
/// clock.advance("demod", Seconds(0.30));
/// assert!((clock.now().value() - 0.42).abs() < 1e-12);
/// assert!((clock.span("demod").value() - 0.30).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VirtualClock {
    now: f64,
    spans: BTreeMap<&'static str, f64>,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> Seconds {
        Seconds(self.now)
    }

    /// Advances the clock by `dt`, attributing it to `label`.
    ///
    /// Negative durations are clamped to zero.
    pub fn advance(&mut self, label: &'static str, dt: Seconds) {
        let dt = dt.value().max(0.0);
        self.now += dt;
        *self.spans.entry(label).or_insert(0.0) += dt;
    }

    /// Total time attributed to `label` (zero if never used).
    pub fn span(&self, label: &str) -> Seconds {
        Seconds(self.spans.get(label).copied().unwrap_or(0.0))
    }

    /// All labelled spans in insertion-independent (sorted) order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, Seconds)> + '_ {
        self.spans.iter().map(|(&k, &v)| (k, Seconds(v)))
    }

    /// Resets to time zero, clearing spans.
    pub fn reset(&mut self) {
        self.now = 0.0;
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_labels() {
        let mut c = VirtualClock::new();
        c.advance("a", Seconds(1.0));
        c.advance("b", Seconds(0.5));
        c.advance("a", Seconds(0.25));
        assert!((c.now().value() - 1.75).abs() < 1e-12);
        assert!((c.span("a").value() - 1.25).abs() < 1e-12);
        assert_eq!(c.span("missing").value(), 0.0);
        assert_eq!(c.spans().count(), 2);
    }

    #[test]
    fn negative_advance_clamped() {
        let mut c = VirtualClock::new();
        c.advance("x", Seconds(-5.0));
        assert_eq!(c.now().value(), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = VirtualClock::new();
        c.advance("x", Seconds(2.0));
        c.reset();
        assert_eq!(c.now().value(), 0.0);
        assert_eq!(c.spans().count(), 0);
    }
}
