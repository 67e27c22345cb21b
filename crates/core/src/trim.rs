//! Recording trim: cheap energy detection that cuts a watch recording
//! down to the active segment before any heavy DSP or radio transfer.
//!
//! Part of the paper's computation-reduction theme (§V): the watch's
//! recording is mostly ambient — a long lead-in before the signal plus
//! trailing padding — and both the preamble correlator and the
//! Bluetooth file transfer are priced per sample. One level-measurement
//! pass (priced as the session's `LevelMeasure` over the full buffer)
//! anchors the signal, and everything the downstream DSP needs is a
//! bounded window around that anchor:
//!
//! * a **noise lead-in** before the signal, kept for the ambient noise
//!   spectrum / ambient-similarity checks (phase 1) and the detector's
//!   noise-floor estimate;
//! * the **expected signal length** (the sender knows exactly what it
//!   played);
//! * a small **tail pad** for multipath spread and fine-sync slack.
//!
//! The anchor is the recording's *loudest* window — playback volume is
//! controlled to sit well above ambient, so the peak window is all but
//! guaranteed to be inside the signal even when the ambient has
//! impulsive transients (keyboard clicks, dishes) that would fool a
//! first-above-the-floor edge detector. The signal onset is then the
//! earliest window near the peak that stays within `ONSET_DROP_DB` of
//! it; precise localisation stays the correlator's job, bounded to the
//! onset→peak span plus [`SEARCH_PAD_S`] of slack on each side.
//!
//! Margins are set in seconds and converted at the modem's sample rate.

use wearlock_dsp::level::spl;
use wearlock_modem::config::{PREAMBLE_LEN, SAMPLE_RATE};

/// Noise lead-in kept before the phase-1 probe, seconds. Long enough
/// for ~30 FFT windows of ambient-noise spectrum estimation and the
/// ambient-similarity check.
pub const PROBE_NOISE_LEAD_S: f64 = 0.2;

/// Noise lead-in kept before the phase-2 token signal, seconds. Phase 2
/// only needs a noise floor, not an ambient spectrum.
pub const TOKEN_NOISE_LEAD_S: f64 = 0.1;

/// Slack added on each side of the onset→peak span when bounding the
/// preamble search, seconds. The wireless start message bounds when the
/// signal can arrive, so ±50 ms is generous.
pub const SEARCH_PAD_S: f64 = 0.05;

/// [`SEARCH_PAD_S`] in samples: the session passes this to
/// [`TrimWindow::search_bounds`].
pub const SEARCH_PAD: usize = samples(SEARCH_PAD_S);

/// Nominal length of a trim-bounded preamble search: the onset→peak
/// span of a clean anchor (zero) widened by [`SEARCH_PAD`] on each side,
/// plus one preamble template. Workload models (the delay model, the
/// bench harnesses) price each phase's correlation with it.
pub const NOMINAL_SEARCH_LEN: usize = 2 * SEARCH_PAD + PREAMBLE_LEN;

/// Tail kept after the expected signal end, samples (50 ms) — covers
/// multipath spread and the demodulator's fine-sync range.
const TAIL_PAD: usize = samples(0.05);

/// Samples over which the trim estimates its noise floor.
const NOISE_FLOOR_HEAD: usize = 2_048;

/// Energy-detector window length, samples (matches the demodulator's
/// silence detector).
const DETECTOR_WINDOW: usize = 256;

/// How far (dB) below the peak window a window may sit and still count
/// as part of the signal when searching for its onset. The preamble
/// chirp plays at constant amplitude, so the true onset is well within
/// this; ambient transients loud enough to qualify would have been the
/// peak themselves.
const ONSET_DROP_DB: f64 = 6.0;

/// The keep-window a trim pass selected on a recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrimWindow {
    /// First kept sample (inclusive).
    pub start: usize,
    /// One past the last kept sample.
    pub end: usize,
    /// Estimated signal onset, relative to `start`: the earliest window
    /// near the peak whose level stays within `ONSET_DROP_DB` of it.
    pub onset_offset: usize,
    /// Loudest window, relative to `start` — the anchor the keep-window
    /// was built around. Always `>= onset_offset`.
    pub peak_offset: usize,
    /// Whether the energy detector actually found a signal. When
    /// `false` the window keeps the whole recording and the offsets are
    /// meaningless — callers must fall back to an unbounded search.
    pub detected: bool,
}

impl TrimWindow {
    /// Number of samples kept.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty (only for zero-length recordings).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The kept slice of `recording`.
    ///
    /// # Panics
    ///
    /// Panics if `recording` is shorter than the recording the window
    /// was planned on.
    pub fn slice<'a>(&self, recording: &'a [f64]) -> &'a [f64] {
        &recording[self.start..self.end]
    }

    /// Preamble-search bounds (relative to `start`, suitable for the
    /// demodulator's search window): the onset→peak span widened by
    /// `pad` on each side plus `preamble_len` so a correlation starting
    /// anywhere in the span fits. The true signal start can trail the
    /// detected onset by at most the onset→peak distance, which the
    /// span covers by construction.
    pub fn search_bounds(&self, pad: usize, preamble_len: usize) -> (usize, usize) {
        (
            self.onset_offset.saturating_sub(pad),
            self.peak_offset + pad + preamble_len,
        )
    }
}

/// `seconds` in whole samples at the modem's rate, rounded to the
/// nearest (`+ 0.5` then truncation: `f64::round` is not `const`).
const fn samples(seconds: f64) -> usize {
    (seconds * SAMPLE_RATE.value() + 0.5) as usize
}

/// Plans the keep-window for a recording expected to contain
/// `expected_signal_len` samples of signal: `noise_lead_s` seconds of
/// ambient before the estimated onset, the signal, and a small tail
/// pad after the latest place it can end. Falls back to keeping
/// everything when no window rises above the noise floor (downstream
/// detection then reports the failure with full context).
pub fn plan_trim(recording: &[f64], expected_signal_len: usize, noise_lead_s: f64) -> TrimWindow {
    let noise_lead = samples(noise_lead_s);

    let keep_all = TrimWindow {
        start: 0,
        end: recording.len(),
        onset_offset: 0,
        peak_offset: 0,
        detected: false,
    };
    let head = &recording[..recording.len().min(NOISE_FLOOR_HEAD)];
    if head.is_empty() {
        return keep_all;
    }
    let noise_spl = spl(head).value();

    // One pass of half-overlapped window levels.
    let hop = (DETECTOR_WINDOW / 2).max(1);
    let mut levels: Vec<(usize, f64)> = Vec::with_capacity(recording.len() / hop + 1);
    let mut at = 0;
    while at < recording.len() {
        let end = (at + DETECTOR_WINDOW).min(recording.len());
        levels.push((at, spl(&recording[at..end]).value()));
        at += hop;
    }
    let (peak_idx, peak_spl) =
        levels
            .iter()
            .enumerate()
            .fold((0usize, f64::NEG_INFINITY), |(bi, bv), (i, &(_, v))| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            });
    // `noise_spl + 3.0` is still −∞ for digital silence, so an
    // all-silent recording must fail the finiteness check, not the
    // comparison.
    if !peak_spl.is_finite() || peak_spl < noise_spl + 3.0 {
        return keep_all;
    }
    let peak = levels[peak_idx].0;

    // The signal start is at most `expected_signal_len` before the peak
    // window; within that range, take the earliest window that is
    // nearly as loud as the peak as the onset estimate.
    let earliest = peak.saturating_sub(expected_signal_len);
    let onset = levels
        .iter()
        .find(|&&(a, v)| a >= earliest && v >= peak_spl - ONSET_DROP_DB)
        .map(|&(a, _)| a)
        .unwrap_or(peak);

    let start = onset.saturating_sub(noise_lead);
    let end = (peak + expected_signal_len + TAIL_PAD).min(recording.len());
    TrimWindow {
        start,
        end: end.max(start),
        onset_offset: onset - start,
        peak_offset: peak - start,
        detected: true,
    }
}

/// Nominal length in samples of the keep-window [`plan_trim`] produces
/// when the detector anchors cleanly on the signal: the noise lead-in,
/// the expected signal, and the tail pad. The actual window can run
/// longer by up to the onset→peak distance (the peak window need not
/// sit at the signal onset). Workload models (the bench harnesses) size
/// their transfer and correlation costs with this so they track the
/// trim constants instead of hardcoding sample counts.
pub fn planned_len(expected_signal_len: usize, noise_lead_s: f64) -> usize {
    samples(noise_lead_s) + expected_signal_len + TAIL_PAD
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording(lead: usize, signal: usize, tail: usize) -> Vec<f64> {
        let mut rec = Vec::with_capacity(lead + signal + tail);
        for i in 0..lead + signal + tail {
            // Quiet deterministic ambient everywhere…
            rec.push(1e-4 * ((i * 2654435761) as f64 % 17.0 - 8.0) / 8.0);
        }
        for r in rec.iter_mut().skip(lead).take(signal) {
            // …with a loud signal in the middle.
            *r += 0.5;
        }
        rec
    }

    #[test]
    fn trim_keeps_lead_signal_and_tail() {
        let (lead, signal) = (12_288, 2_000);
        let rec = recording(lead, signal, 6_000);
        let w = plan_trim(&rec, signal, PROBE_NOISE_LEAD_S);
        assert!(w.detected, "{w:?}");
        // The onset estimate lands near `lead` (within one detector
        // window) and the kept range brackets the signal.
        let onset_abs = w.start + w.onset_offset;
        assert!(onset_abs.abs_diff(lead) <= DETECTOR_WINDOW, "{w:?}");
        assert!(w.peak_offset >= w.onset_offset, "{w:?}");
        assert!(w.end >= lead + signal, "{w:?}");
        assert!(w.len() < rec.len(), "trim kept everything");
        assert_eq!(w.slice(&rec).len(), w.len());
        // The search bounds cover the signal start with slack.
        let (lo, hi) = w.search_bounds(SEARCH_PAD, 256);
        assert!(w.start + lo <= lead && lead < w.start + hi, "{w:?}");
    }

    #[test]
    fn trim_near_start_clamps_lead() {
        let rec = recording(100, 1_000, 500);
        let w = plan_trim(&rec, 1_000, PROBE_NOISE_LEAD_S);
        assert_eq!(w.start, 0, "{w:?}");
        assert!(w.onset_offset <= 100 + DETECTOR_WINDOW);
    }

    #[test]
    fn all_silence_keeps_everything() {
        let rec = vec![0.0; 5_000];
        let w = plan_trim(&rec, 1_000, PROBE_NOISE_LEAD_S);
        assert_eq!((w.start, w.end), (0, 5_000));
        assert_eq!(w.onset_offset, 0);
        assert!(!w.detected);
    }

    #[test]
    fn empty_recording_is_empty_window() {
        let w = plan_trim(&[], 1_000, PROBE_NOISE_LEAD_S);
        assert!(w.is_empty());
        assert!(!w.detected);
        assert_eq!(w.slice(&[]).len(), 0);
    }

    #[test]
    fn ambient_transient_does_not_fool_the_detector() {
        // A short pop well above the ambient floor but below the
        // signal, placed long before the signal: a first-above-floor
        // edge detector would lock onto it; the peak-anchored onset
        // must not.
        let lead = 12_288;
        let signal = 2_000;
        let mut rec = recording(lead, signal, 4_000);
        for r in rec.iter_mut().skip(2_000).take(300) {
            *r += 0.02; // ~46 dB above ambient, ~28 dB below the signal.
        }
        let w = plan_trim(&rec, signal, PROBE_NOISE_LEAD_S);
        assert!(w.detected);
        let onset_abs = w.start + w.onset_offset;
        assert!(
            onset_abs.abs_diff(lead) <= DETECTOR_WINDOW,
            "locked onto the transient: {w:?}"
        );
        // And the pop is outside the kept window entirely.
        assert!(w.start > 2_300, "{w:?}");
    }

    #[test]
    fn planned_len_brackets_a_clean_trim() {
        // On a recording with ample lead-in, the kept window is at
        // least the planned length (up to one detector window of
        // onset-estimation jitter) and exceeds it by at most the
        // onset→peak distance — the peak can sit anywhere in-signal.
        let (lead, signal) = (12_288, 2_000);
        let rec = recording(lead, signal, 6_000);
        let w = plan_trim(&rec, signal, PROBE_NOISE_LEAD_S);
        let planned = planned_len(signal, PROBE_NOISE_LEAD_S);
        assert!(w.len() + DETECTOR_WINDOW >= planned, "{w:?} vs {planned}");
        assert!(w.len() <= planned + signal, "{w:?} vs {planned}");
    }

    #[test]
    fn margins_are_fixed_in_samples() {
        // The constant conversion rounds as `f64::round` does.
        for seconds in [PROBE_NOISE_LEAD_S, TOKEN_NOISE_LEAD_S, SEARCH_PAD_S, 0.05] {
            let rounded = (seconds * SAMPLE_RATE.value()).round() as usize;
            assert_eq!(samples(seconds), rounded, "{seconds} s");
        }
        assert_eq!(
            [samples(PROBE_NOISE_LEAD_S), samples(TOKEN_NOISE_LEAD_S)],
            [8_820, 4_410]
        );
        assert_eq!([SEARCH_PAD, TAIL_PAD], [2_205, 2_205]);
        assert_eq!(NOMINAL_SEARCH_LEN, 4_666);
        assert_eq!(
            planned_len(1_000, TOKEN_NOISE_LEAD_S),
            4_410 + 1_000 + 2_205
        );
    }
}
