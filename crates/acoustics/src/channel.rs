//! End-to-end acoustic channel: speaker → air → microphone.
//!
//! [`AcousticLink`] chains every impairment the paper's modem must
//! survive — speaker rise/ringing and band limit, spherical spreading
//! loss and propagation delay, multipath (LOS or body-blocked NLOS),
//! ambient noise at a calibrated SPL, microphone band limit, clock
//! jitter, self-noise and ADC quantization. [`AwgnChannel`] is the
//! controlled additive-white-Gaussian-noise channel used for the
//! Eb/N0-sweep experiments (Fig. 5).

use rand::Rng;

use wearlock_dsp::level::power;
use wearlock_dsp::resample::fractional_delay;
use wearlock_dsp::units::{Db, Meters, SampleRate, Seconds, Spl};

use crate::error::AcousticsError;
use crate::hardware::{MicrophoneModel, SpeakerModel};
use crate::multipath::ImpulseResponse;
use crate::noise::{randn, NoiseModel};
use crate::propagation::Propagation;

/// Speed of sound in air at room temperature, m/s.
pub const SPEED_OF_SOUND: f64 = 343.0;

/// Default ambient lead padding recorded before the transmitted clip,
/// samples (the receiver starts listening before the sender plays).
pub const DEFAULT_LEAD_PAD: usize = 12_288;

/// Default ambient tail padding recorded after the transmitted clip,
/// samples.
pub const DEFAULT_TAIL_PAD: usize = 1_024;

/// The propagation-path geometry between the two devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathKind {
    /// Direct line of sight with light room reverberation.
    LineOfSight,
    /// Direct path blocked by a hand/body; energy arrives via diffuse
    /// reflections attenuated by `block_db`.
    BodyBlocked {
        /// Attenuation of the direct tap in dB.
        block_db: f64,
    },
}

/// A one-way acoustic link from a speaker to a microphone.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use wearlock_acoustics::channel::AcousticLink;
/// use wearlock_acoustics::noise::Location;
/// use wearlock_dsp::units::{Meters, Spl};
///
/// let link = AcousticLink::builder()
///     .distance(Meters(0.5))
///     .noise(Location::Office.noise_model())
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let tone: Vec<f64> = (0..4410)
///     .map(|i| (std::f64::consts::TAU * 3_000.0 * i as f64 / 44_100.0).sin())
///     .collect();
/// let received = link.transmit(&tone, Spl(72.0), &mut rng);
/// assert!(received.len() > tone.len()); // delay + padding + tails
/// # Ok::<(), wearlock_acoustics::AcousticsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcousticLink {
    sample_rate: SampleRate,
    propagation: Propagation,
    distance: Meters,
    speaker: SpeakerModel,
    microphone: MicrophoneModel,
    noise: NoiseModel,
    path: PathKind,
    lead_pad: usize,
    tail_pad: usize,
}

impl AcousticLink {
    /// Starts building a link with quiet-room defaults.
    pub fn builder() -> AcousticLinkBuilder {
        AcousticLinkBuilder::default()
    }

    /// The configured transmitter–receiver distance.
    pub fn distance(&self) -> Meters {
        self.distance
    }

    /// The configured ambient noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The propagation model in use.
    pub fn propagation(&self) -> Propagation {
        self.propagation
    }

    /// The sample rate of the link.
    pub fn sample_rate(&self) -> SampleRate {
        self.sample_rate
    }

    /// The path geometry.
    pub fn path(&self) -> PathKind {
        self.path
    }

    /// Predicted SPL at the receiver for a given transmit volume
    /// (spreading loss only; multipath/blocking excluded).
    pub fn predicted_rx_spl(&self, volume: Spl) -> Spl {
        self.propagation.received_spl(volume, self.distance)
    }

    /// Predicted receiver SNR for a given transmit volume against the
    /// configured ambient noise.
    pub fn predicted_rx_snr(&self, volume: Spl) -> Db {
        self.predicted_rx_spl(volume).snr_against(self.noise.spl())
    }

    /// Sends `signal` through the channel at speaker volume `volume`,
    /// returning what the microphone records (lead/tail ambient padding
    /// included, so receivers must locate the signal themselves).
    pub fn transmit<R: Rng + ?Sized>(&self, signal: &[f64], volume: Spl, rng: &mut R) -> Vec<f64> {
        // 1. Speaker: volume calibration, rise, ringing, band limit.
        let emitted = self.speaker.emit(signal, volume, self.sample_rate);

        // 2. Propagation: spreading loss + fractional delay.
        let gain = self.propagation.amplitude_gain(self.distance);
        let delay_samples = self.distance.value() / SPEED_OF_SOUND * self.sample_rate.value();
        let mut travelled = fractional_delay(&emitted, delay_samples)
            .expect("build() checked the distance is finite");
        for s in travelled.iter_mut() {
            *s *= gain;
        }

        // 3. Multipath.
        let ir = match self.path {
            PathKind::LineOfSight => {
                ImpulseResponse::line_of_sight(Seconds(0.004), 60.0, 0.25, self.sample_rate, rng)
            }
            PathKind::BodyBlocked { block_db } => ImpulseResponse::body_blocked(
                // Diffuse tail within the modem's 128-sample cyclic
                // prefix (2.9 ms at 44.1 kHz).
                Seconds(0.0025),
                block_db,
                self.sample_rate,
                rng,
            ),
        }
        .expect("static multipath parameters are valid");
        let faded = ir.apply(&travelled);

        // 4. Ambient padding + noise across the whole recording.
        let total = self.lead_pad + faded.len() + self.tail_pad;
        let mut recording = self.noise.generate(total, self.sample_rate, rng);
        for (i, &v) in faded.iter().enumerate() {
            recording[self.lead_pad + i] += v;
        }

        // 5. Microphone: band limit, jitter, self-noise, quantization.
        self.microphone.record(&recording, self.sample_rate, rng)
    }

    /// Records ambient noise only (no transmission) for `len` samples —
    /// what each device hears before the preamble, used for noise-level
    /// estimation and the ambient-similarity co-location filter.
    pub fn record_ambient<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Vec<f64> {
        let ambient = self.noise.generate(len, self.sample_rate, rng);
        self.microphone.record(&ambient, self.sample_rate, rng)
    }
}

/// Builder for [`AcousticLink`].
#[derive(Debug, Clone)]
pub struct AcousticLinkBuilder {
    sample_rate: SampleRate,
    propagation: Option<Propagation>,
    distance: Meters,
    speaker: SpeakerModel,
    microphone: MicrophoneModel,
    noise: NoiseModel,
    path: PathKind,
    lead_pad: usize,
    tail_pad: usize,
}

impl Default for AcousticLinkBuilder {
    fn default() -> Self {
        AcousticLinkBuilder {
            sample_rate: SampleRate::CD,
            propagation: None,
            distance: Meters(0.5),
            speaker: SpeakerModel::smartphone(),
            microphone: MicrophoneModel::moto360(),
            noise: NoiseModel::White { spl: Spl(17.5) },
            path: PathKind::LineOfSight,
            // ~0.28 s of ambient lead-in: the watch starts recording on
            // the wireless start message well before the probe plays,
            // and noise estimation needs to average over at least one
            // syllable of speech-like noise.
            lead_pad: DEFAULT_LEAD_PAD,
            tail_pad: DEFAULT_TAIL_PAD,
        }
    }
}

impl AcousticLinkBuilder {
    /// Sets the sample rate (default 44.1 kHz).
    pub fn sample_rate(mut self, sample_rate: SampleRate) -> Self {
        self.sample_rate = sample_rate;
        self
    }

    /// Sets the propagation model (default spherical, `d0 = 5 cm`).
    pub fn propagation(mut self, propagation: Propagation) -> Self {
        self.propagation = Some(propagation);
        self
    }

    /// Sets the transmitter–receiver distance (default 0.5 m).
    pub fn distance(mut self, distance: Meters) -> Self {
        self.distance = distance;
        self
    }

    /// Sets the speaker model (default smartphone speaker).
    pub fn speaker(mut self, speaker: SpeakerModel) -> Self {
        self.speaker = speaker;
        self
    }

    /// Sets the microphone model (default Moto 360 watch microphone).
    pub fn microphone(mut self, microphone: MicrophoneModel) -> Self {
        self.microphone = microphone;
        self
    }

    /// Sets the ambient noise model (default quiet room, 17.5 dB SPL).
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the path geometry (default line of sight).
    pub fn path(mut self, path: PathKind) -> Self {
        self.path = path;
        self
    }

    /// Sets lead/tail ambient padding in samples (defaults 12288/1024).
    pub fn padding(mut self, lead: usize, tail: usize) -> Self {
        self.lead_pad = lead;
        self.tail_pad = tail;
        self
    }

    /// Builds the link.
    ///
    /// # Errors
    ///
    /// Returns [`AcousticsError::InvalidParameter`] if the distance is
    /// not positive and finite.
    pub fn build(self) -> Result<AcousticLink, AcousticsError> {
        let d = self.distance.value();
        if !(d > 0.0 && d.is_finite()) {
            return Err(AcousticsError::InvalidParameter(
                "link distance must be positive and finite".into(),
            ));
        }
        let propagation = match self.propagation {
            Some(p) => p,
            None => Propagation::spherical(Meters(0.05))?,
        };
        Ok(AcousticLink {
            sample_rate: self.sample_rate,
            propagation,
            distance: self.distance,
            speaker: self.speaker,
            microphone: self.microphone,
            noise: self.noise,
            path: self.path,
            lead_pad: self.lead_pad,
            tail_pad: self.tail_pad,
        })
    }
}

/// A memoryless AWGN channel for controlled BER-vs-SNR sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AwgnChannel {
    snr: Db,
}

impl AwgnChannel {
    /// Creates a channel that adds white Gaussian noise `snr` dB below
    /// the measured signal power.
    pub fn new(snr: Db) -> Self {
        AwgnChannel { snr }
    }

    /// The configured SNR.
    pub fn snr(&self) -> Db {
        self.snr
    }

    /// Adds noise to `signal` so that `P_signal / P_noise` equals the
    /// configured SNR. Silent inputs are returned unchanged.
    pub fn transmit<R: Rng + ?Sized>(&self, signal: &[f64], rng: &mut R) -> Vec<f64> {
        let p = power(signal);
        if p <= 0.0 {
            return signal.to_vec();
        }
        let noise_std = (p / self.snr.to_linear_power()).sqrt();
        signal.iter().map(|&s| s + noise_std * randn(rng)).collect()
    }
}

/// Measures the empirical SNR between a clean reference and a noisy
/// version of it (power of reference over power of difference).
pub fn empirical_snr(reference: &[f64], noisy: &[f64]) -> Db {
    let n = reference.len().min(noisy.len());
    let err: Vec<f64> = reference[..n]
        .iter()
        .zip(&noisy[..n])
        .map(|(a, b)| a - b)
        .collect();
    let ps = power(&reference[..n]);
    let pe = power(&err);
    Db::from_linear_power(ps / pe.max(1e-300))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::Location;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_dsp::level::spl;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    fn tone(f: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * f * i as f64 / 44_100.0).sin())
            .collect()
    }

    #[test]
    fn builder_rejects_nonpositive_distance() {
        assert!(AcousticLink::builder()
            .distance(Meters(0.0))
            .build()
            .is_err());
        assert!(AcousticLink::builder()
            .distance(Meters(-1.0))
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_non_finite_distance() {
        for d in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(matches!(
                AcousticLink::builder().distance(Meters(d)).build(),
                Err(AcousticsError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn farther_is_quieter() {
        let mut levels = Vec::new();
        for d in [0.25, 0.5, 1.0, 2.0] {
            let link = AcousticLink::builder()
                .distance(Meters(d))
                .noise(NoiseModel::silence())
                .microphone(MicrophoneModel::ideal())
                .path(PathKind::LineOfSight)
                .build()
                .unwrap();
            let out = link.transmit(&tone(3_000.0, 8_192), Spl(70.0), &mut rng());
            levels.push(spl(&out).value());
        }
        for w in levels.windows(2) {
            assert!(w[0] > w[1], "levels {levels:?}");
        }
        // ~6 dB per doubling (reverb adds slight variance).
        assert!((levels[0] - levels[1] - 6.0).abs() < 1.5, "{levels:?}");
    }

    #[test]
    fn predicted_snr_matches_propagation_math() {
        let link = AcousticLink::builder()
            .distance(Meters(1.0))
            .noise(NoiseModel::White { spl: Spl(20.0) })
            .build()
            .unwrap();
        // tx 72 dB, attenuation 20·log10(1/0.05) = 26.02 dB → rx 45.98.
        let snr = link.predicted_rx_snr(Spl(72.0));
        assert!((snr.value() - 25.98).abs() < 0.1, "{snr}");
    }

    #[test]
    fn recording_contains_lead_noise_then_signal() {
        let link = AcousticLink::builder()
            .distance(Meters(0.3))
            .noise(Location::Office.noise_model())
            .padding(4_096, 512)
            .build()
            .unwrap();
        let out = link.transmit(&tone(3_000.0, 4_410), Spl(75.0), &mut rng());
        let lead = spl(&out[..2_000]).value();
        let body = spl(&out[5_000..9_000]).value();
        assert!(body > lead + 10.0, "lead {lead} body {body}");
    }

    #[test]
    fn body_block_attenuates_far_more_than_los() {
        let base = AcousticLink::builder()
            .distance(Meters(0.3))
            .noise(NoiseModel::silence())
            .microphone(MicrophoneModel::ideal());
        let los = base.clone().build().unwrap();
        let nlos = base
            .path(PathKind::BodyBlocked { block_db: 25.0 })
            .build()
            .unwrap();
        let sig = tone(3_000.0, 8_192);
        let a = spl(&los.transmit(&sig, Spl(70.0), &mut rng())).value();
        let b = spl(&nlos.transmit(&sig, Spl(70.0), &mut rng())).value();
        assert!(a > b + 6.0, "los {a} nlos {b}");
    }

    #[test]
    fn ambient_recording_matches_location_level() {
        let link = AcousticLink::builder()
            .noise(Location::Cafe.noise_model())
            .microphone(MicrophoneModel::ideal())
            .build()
            .unwrap();
        let amb = link.record_ambient(44_100, &mut rng());
        assert!((spl(&amb).value() - 50.0).abs() < 3.0, "{}", spl(&amb));
    }

    #[test]
    fn awgn_hits_requested_snr() {
        let sig = tone(2_000.0, 44_100);
        for target in [0.0, 10.0, 30.0] {
            let ch = AwgnChannel::new(Db(target));
            let noisy = ch.transmit(&sig, &mut rng());
            let got = empirical_snr(&sig, &noisy).value();
            assert!((got - target).abs() < 0.5, "target {target} got {got}");
        }
    }

    #[test]
    fn awgn_silent_input_passthrough() {
        let ch = AwgnChannel::new(Db(10.0));
        assert_eq!(ch.transmit(&[0.0; 8], &mut rng()), vec![0.0; 8]);
    }

    #[test]
    fn transmit_empty_signal_yields_padding_only() {
        let link = AcousticLink::builder().padding(100, 50).build().unwrap();
        let out = link.transmit(&[], Spl(70.0), &mut rng());
        // Empty emission -> only ambient padding is produced.
        assert!(out.len() >= 150);
    }

    /// The pinned digests depend on the platform's libm (`sin`, `cos`,
    /// `ln`, `exp`), so they are checked where they were recorded.
    #[cfg(all(target_os = "linux", target_env = "gnu", target_arch = "x86_64"))]
    mod direct_form_digests {
        use super::*;

        /// FNV-1a over the bit patterns of `samples`.
        fn bits_digest(samples: &[f64]) -> u64 {
            samples.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
                x.to_bits()
                    .to_le_bytes()
                    .iter()
                    .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
            })
        }

        /// Digests of `transmit` and `record_ambient` for every location ×
        /// {LOS, body-blocked} × {Moto 360, smartphone} microphone, as the
        /// direct-form channel kernels (the `*_reference` loops in the
        /// filter, resample and multipath tests) compute them with glibc's
        /// libm on x86-64. The blocked kernels must reproduce every bit.
        const CHANNEL_DIGESTS: [(u64, u64); 20] = [
            (0xdf934c5581174ade, 0xb734803e5b59cf9f),
            (0xb743d2be22a5ea96, 0x43bdd917843ea0f8),
            (0x0ab6b9cfb3357272, 0x3dbab7de9172461a),
            (0xbaabca11c0deb4fd, 0xfc45d0521f2e5a33),
            (0x7c01c2035689dce5, 0x25581723c904a71a),
            (0x9a934d77ccf51b93, 0x317807bfe18c5884),
            (0x725ecae58c1aa90d, 0xaa0dc49ab072dbd6),
            (0x0725d8e3557afe82, 0xbed35ec0fc667826),
            (0x3098b86c09df48dd, 0xbadc769ad025676d),
            (0x3de7c1be8df18ad7, 0x8aa55f6c8012d1ea),
            (0xe2795497c1c86165, 0x49b8a69a5b5ca376),
            (0x9bdcfba5988dbe98, 0x5ab964fda63cca1c),
            (0xf48e48f9826ff538, 0x987b3de3f7cdbd76),
            (0xe0f3084c9962f3b6, 0x634d829ccec7278a),
            (0xe08161088fe4e3b6, 0x51d5f07c029bcd7b),
            (0x7949dca944ce8498, 0x992bd1b939efe606),
            (0x4dd789c55bc56e17, 0xa9011c7919797ca6),
            (0xa5e02588a9b9c105, 0x97abf86df9790036),
            (0x09a8c6a57e6f49fe, 0x692529f6da9e6ff0),
            (0x8c914c61eb4916ed, 0xc3b943a33bb9077c),
        ];

        #[test]
        fn transmit_and_ambient_match_the_direct_form_kernels() {
            let signal: Vec<f64> = (0..3_000)
                .map(|i| {
                    let t = i as f64 / 44_100.0;
                    (std::f64::consts::TAU * 3_000.0 * t).sin()
                        + 0.5 * (std::f64::consts::TAU * 5_300.0 * t).cos()
                        - 0.25 * (std::f64::consts::TAU * 18_000.0 * t).sin()
                })
                .collect();
            let mut got = Vec::new();
            for location in [
                Location::QuietRoom,
                Location::Office,
                Location::ClassRoom,
                Location::Cafe,
                Location::GroceryStore,
            ] {
                for path in [
                    PathKind::LineOfSight,
                    PathKind::BodyBlocked { block_db: 20.0 },
                ] {
                    for mic in [MicrophoneModel::moto360(), MicrophoneModel::smartphone()] {
                        let link = AcousticLink::builder()
                            .distance(Meters(0.37))
                            .noise(location.noise_model())
                            .path(path)
                            .microphone(mic)
                            .padding(1_500, 300)
                            .build()
                            .unwrap();
                        let mut rng = StdRng::seed_from_u64(got.len() as u64);
                        let rx = link.transmit(&signal, Spl(68.0), &mut rng);
                        let ambient = link.record_ambient(2_000, &mut rng);
                        got.push((bits_digest(&rx), bits_digest(&ambient)));
                    }
                }
            }
            let table: Vec<String> = got
                .iter()
                .map(|(t, a)| format!("({t:#018x}, {a:#018x}),"))
                .collect();
            assert_eq!(got, CHANNEL_DIGESTS, "digests:\n{}", table.join("\n"));
        }
    }
}
