//! Multipath impulse responses: reverberation, ringing, and body
//! blocking (NLOS).
//!
//! Indoor acoustic channels exhibit delay spreading from wall/desk
//! reflections; the paper's modem counters it with a cyclic prefix and
//! pilot equalization, and *exploits* it for security: covering the
//! speaker or routing around a body blocks the direct path, the RMS
//! delay spread `τ_rms` of the received preamble balloons, and WearLock
//! aborts (NLOS filtering, §III).

use rand::distributions::StandardNormal;
use rand::Rng;

use wearlock_dsp::units::{SampleRate, Seconds};

use crate::error::AcousticsError;

/// A sampled channel impulse response.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpulseResponse {
    taps: Vec<f64>,
}

impl ImpulseResponse {
    /// The identity channel (single unit tap).
    pub fn identity() -> Self {
        ImpulseResponse { taps: vec![1.0] }
    }

    /// Builds an IR from raw taps.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticsError::InvalidParameter`] if `taps` is empty.
    pub fn from_taps(taps: Vec<f64>) -> Result<Self, AcousticsError> {
        if taps.is_empty() {
            return Err(AcousticsError::InvalidParameter(
                "impulse response needs at least one tap".into(),
            ));
        }
        Ok(ImpulseResponse { taps })
    }

    /// A line-of-sight room response: a dominant direct tap followed by
    /// an exponentially decaying sparse reflection tail.
    ///
    /// `tail` is the length of the reverberation tail; `decay_db` is the
    /// total decay over that tail (e.g. 60 dB); `density` is the
    /// fraction of tail taps carrying a reflection.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticsError::InvalidParameter`] for a non-positive
    /// decay or `density` outside `[0, 1]`.
    pub fn line_of_sight<R: Rng + ?Sized>(
        tail: Seconds,
        decay_db: f64,
        density: f64,
        rng: &mut R,
    ) -> Result<Self, AcousticsError> {
        if decay_db <= 0.0 {
            return Err(AcousticsError::InvalidParameter(
                "decay must be positive dB".into(),
            ));
        }
        if !(0.0..=1.0).contains(&density) {
            return Err(AcousticsError::InvalidParameter(
                "reflection density must be in [0, 1]".into(),
            ));
        }
        let tail_len = tail.to_samples(SampleRate::CD);
        let mut taps = vec![0.0; tail_len + 1];
        taps[0] = 1.0;
        for (i, t) in taps.iter_mut().enumerate().skip(1) {
            if rng.gen::<f64>() < density {
                let env = 10f64.powf(-decay_db * (i as f64 / tail_len.max(1) as f64) / 20.0);
                // Reflections ~20 dB below the direct path on average.
                *t = 0.1 * env * rng.sample(StandardNormal);
            }
        }
        // Normalize to unit total energy so the link's distance
        // attenuation is governed purely by the propagation model.
        let e: f64 = taps.iter().map(|t| t * t).sum();
        let k = 1.0 / e.sqrt();
        for t in &mut taps {
            *t *= k;
        }
        Ok(ImpulseResponse { taps })
    }

    /// A body-blocked (NLOS) response: the direct tap is attenuated by
    /// `block_db` and the surviving energy arrives via dense late
    /// reflections, inflating the RMS delay spread.
    ///
    /// # Errors
    ///
    /// Same as [`ImpulseResponse::line_of_sight`], plus `block_db` must
    /// be positive.
    pub fn body_blocked<R: Rng + ?Sized>(
        tail: Seconds,
        block_db: f64,
        rng: &mut R,
    ) -> Result<Self, AcousticsError> {
        if block_db <= 0.0 {
            return Err(AcousticsError::InvalidParameter(
                "blocking attenuation must be positive dB".into(),
            ));
        }
        let tail_len = tail.to_samples(SampleRate::CD).max(8);
        let mut taps = vec![0.0; tail_len + 1];
        // The grip/body attenuates the direct path by block_db; a fixed
        // amount of energy (~ -17 dB re the unblocked direct path)
        // always arrives via diffuse reflections around the obstacle.
        // Mild blocking therefore stays direct-dominated (decodable),
        // severe blocking becomes diffuse-dominated (large RMS delay
        // spread — the NLOS signature).
        taps[0] = 10f64.powf(-block_db / 20.0);
        let diffuse_energy = 0.02;
        let mut tail_raw = vec![0.0; tail_len];
        for t in tail_raw.iter_mut() {
            if rng.gen::<f64>() < 0.6 {
                *t = rng.sample(StandardNormal);
            }
        }
        // Mild decay over the tail.
        for (i, t) in tail_raw.iter_mut().enumerate() {
            *t *= 10f64.powf(-12.0 * (i as f64 / tail_len as f64) / 20.0);
        }
        let e_tail: f64 = tail_raw.iter().map(|t| t * t).sum();
        if e_tail > 0.0 {
            let k = (diffuse_energy / e_tail).sqrt();
            for (i, t) in tail_raw.into_iter().enumerate() {
                taps[i + 1] = k * t;
            }
        }
        Ok(ImpulseResponse { taps })
    }

    /// The taps of this response.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Length of the response in samples.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True when the response has no taps (cannot occur for constructed
    /// values).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Convolves a signal with this response (`full` convolution,
    /// output length `signal.len() + taps.len() - 1`), scattering each
    /// non-zero input sample over the taps in ascending order.
    pub fn apply(&self, signal: &[f64]) -> Vec<f64> {
        if signal.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0.0; signal.len() + self.taps.len() - 1];
        for (i, &x) in signal.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (o, &h) in out[i..].iter_mut().zip(&self.taps) {
                *o += x * h;
            }
        }
        out
    }

    /// Ratio of direct-tap energy to total energy, a LOS-ness measure.
    pub fn direct_energy_ratio(&self) -> f64 {
        let total: f64 = self.taps.iter().map(|t| t * t).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.taps[0] * self.taps[0] / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn identity_passes_signal_through() {
        let ir = ImpulseResponse::identity();
        let s = vec![1.0, -0.5, 0.25];
        assert_eq!(ir.apply(&s), s);
        assert_eq!(ir.direct_energy_ratio(), 1.0);
    }

    #[test]
    fn from_taps_rejects_empty() {
        assert!(ImpulseResponse::from_taps(vec![]).is_err());
    }

    #[test]
    fn convolution_length_and_linearity() {
        let ir = ImpulseResponse::from_taps(vec![1.0, 0.5]).unwrap();
        let out = ir.apply(&[1.0, 0.0, 0.0]);
        assert_eq!(out, vec![1.0, 0.5, 0.0, 0.0]);
        assert!(ir.apply(&[]).is_empty());
    }

    #[test]
    fn los_response_is_direct_dominated() {
        let ir = ImpulseResponse::line_of_sight(Seconds(0.005), 60.0, 0.3, &mut rng()).unwrap();
        assert!(
            ir.direct_energy_ratio() > 0.5,
            "{}",
            ir.direct_energy_ratio()
        );
    }

    #[test]
    fn nlos_response_is_diffuse() {
        let los = ImpulseResponse::line_of_sight(Seconds(0.005), 60.0, 0.3, &mut rng()).unwrap();
        let nlos = ImpulseResponse::body_blocked(Seconds(0.005), 30.0, &mut rng()).unwrap();
        assert!(nlos.direct_energy_ratio() < 0.2 * los.direct_energy_ratio());
    }

    #[test]
    fn nlos_attenuates_total_energy() {
        let s = vec![1.0; 256];
        let nlos = ImpulseResponse::body_blocked(Seconds(0.003), 25.0, &mut rng()).unwrap();
        let out = nlos.apply(&s);
        let e_in: f64 = s.iter().map(|x| x * x).sum();
        let e_out: f64 = out.iter().map(|x| x * x).sum();
        assert!(e_out < e_in, "e_out {e_out} e_in {e_in}");
    }

    #[test]
    fn parameter_validation() {
        assert!(ImpulseResponse::line_of_sight(Seconds(0.01), 0.0, 0.5, &mut rng()).is_err());
        assert!(ImpulseResponse::line_of_sight(Seconds(0.01), 60.0, 1.5, &mut rng()).is_err());
        assert!(ImpulseResponse::body_blocked(Seconds(0.01), -1.0, &mut rng()).is_err());
    }
}
