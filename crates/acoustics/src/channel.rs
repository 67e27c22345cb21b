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
use crate::noise::NoiseModel;
use crate::propagation;

#[cfg(test)]
mod reference;
#[cfg(test)]
mod statistics;

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

    /// The path geometry.
    pub fn path(&self) -> PathKind {
        self.path
    }

    /// Predicted SPL at the receiver for a given transmit volume
    /// (spreading loss only; multipath/blocking excluded).
    pub fn predicted_rx_spl(&self, volume: Spl) -> Spl {
        propagation::received_spl(volume, self.distance)
    }

    /// Predicted receiver SNR for a given transmit volume against the
    /// configured ambient noise.
    pub fn predicted_rx_snr(&self, volume: Spl) -> Db {
        self.predicted_rx_spl(volume).snr_against(self.noise.spl())
    }

    /// Sends `signal` through the channel at speaker volume `volume`,
    /// returning what the microphone records (lead/tail ambient padding
    /// included, so receivers must locate the signal themselves).
    ///
    /// The speaker's drive waveform, spreading loss and propagation
    /// delay are computed sample by sample. The band-pass, phase ripple,
    /// multipath and microphone low-pass run as one FFT-domain filter
    /// ([`crate::fused::add_received_signal`]), and the ambient noise is
    /// synthesized already band-limited ([`NoiseModel::received`]).
    /// Clock jitter, self-noise and quantization then act on the whole
    /// recording.
    pub fn transmit<R: Rng + ?Sized>(&self, signal: &[f64], volume: Spl, rng: &mut R) -> Vec<f64> {
        // 1. Speaker: volume calibration, rise, ringing. 2. Propagation:
        // spreading loss + fractional delay.
        let travelled = self.propagate(&self.speaker.drive(signal, volume));

        // 3. Multipath.
        let ir = self.impulse_response(rng);

        // 4. Ambient padding + noise across the whole recording, through
        // the microphone's band limit.
        let total = self.lead_pad + travelled.len() + ir.len() - 1 + self.tail_pad;
        let mut recording = self.noise.received(total, &self.microphone, rng);

        // 5. The signal through the speaker's band limit and ripple, the
        // multipath and the microphone's band limit.
        crate::fused::add_received_signal(
            &self.speaker,
            &self.microphone,
            &travelled,
            &ir,
            &mut recording,
            self.lead_pad,
        );

        // 6. Microphone: jitter, self-noise, quantization.
        self.microphone.capture(&mut recording, rng);
        recording
    }

    /// Records ambient noise only (no transmission) for `len` samples —
    /// what each device hears before the preamble, used for noise-level
    /// estimation and the ambient-similarity co-location filter.
    pub fn record_ambient<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Vec<f64> {
        let mut ambient = self.noise.received(len, &self.microphone, rng);
        self.microphone.capture(&mut ambient, rng);
        ambient
    }

    /// Spreading loss and propagation delay applied to the speaker's
    /// output.
    fn propagate(&self, emitted: &[f64]) -> Vec<f64> {
        let gain = propagation::amplitude_gain(self.distance);
        let delay_samples = self.distance.value() / SPEED_OF_SOUND * SampleRate::CD.value();
        let mut travelled = fractional_delay(emitted, delay_samples)
            .expect("build() checked the distance is finite");
        for s in travelled.iter_mut() {
            *s *= gain;
        }
        travelled
    }

    /// Draws this transmission's multipath response.
    fn impulse_response<R: Rng + ?Sized>(&self, rng: &mut R) -> ImpulseResponse {
        match self.path {
            PathKind::LineOfSight => {
                ImpulseResponse::line_of_sight(Seconds(0.004), 60.0, 0.25, rng)
            }
            // Diffuse tail within the modem's 128-sample cyclic prefix
            // (2.9 ms at 44.1 kHz).
            PathKind::BodyBlocked { block_db } => {
                ImpulseResponse::body_blocked(Seconds(0.0025), block_db, rng)
            }
        }
        .expect("static multipath parameters are valid")
    }
}

/// Builder for [`AcousticLink`].
#[derive(Debug, Clone)]
pub struct AcousticLinkBuilder {
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
    /// Returns [`AcousticsError::InvalidParameter`] if the distance or
    /// the microphone's cutoff is not positive and finite.
    pub fn build(self) -> Result<AcousticLink, AcousticsError> {
        let d = self.distance.value();
        if !(d > 0.0 && d.is_finite()) {
            return Err(AcousticsError::InvalidParameter(
                "link distance must be positive and finite".into(),
            ));
        }
        if let Some(cutoff) = self.microphone.cutoff() {
            if !(cutoff.value() > 0.0 && cutoff.value().is_finite()) {
                return Err(AcousticsError::InvalidParameter(format!(
                    "microphone cutoff {cutoff} must be positive and finite"
                )));
            }
        }
        Ok(AcousticLink {
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
        let mut out = vec![0.0; signal.len()];
        rng.fill_standard_normal(&mut out);
        for (o, &s) in out.iter_mut().zip(signal) {
            *o = s + noise_std * *o;
        }
        out
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
    use wearlock_dsp::units::Hz;

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

    #[test]
    fn builder_rejects_invalid_microphone_cutoff() {
        for cutoff in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mic = MicrophoneModel::moto360().with_cutoff(Some(Hz(cutoff)));
            assert!(
                matches!(
                    AcousticLink::builder().microphone(mic).build(),
                    Err(AcousticsError::InvalidParameter(_))
                ),
                "cutoff {cutoff}"
            );
        }
        // No cutoff, or one above Nyquist, is a valid unlimited band.
        for cutoff in [None, Some(Hz(30_000.0))] {
            let mic = MicrophoneModel::moto360().with_cutoff(cutoff);
            let link = AcousticLink::builder().microphone(mic).build().unwrap();
            assert_eq!(link.record_ambient(256, &mut rng()).len(), 256);
        }
    }

    /// A test signal with energy across the audible and near-ultrasound
    /// bands.
    fn multitone(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / 44_100.0;
                (std::f64::consts::TAU * 3_000.0 * t).sin()
                    + 0.5 * (std::f64::consts::TAU * 5_300.0 * t).cos()
                    - 0.25 * (std::f64::consts::TAU * 18_000.0 * t).sin()
            })
            .collect()
    }

    #[test]
    fn fused_signal_path_matches_the_direct_form_chain() {
        // Silent room; no jitter, self-noise or quantization: what is
        // left is the signal path, which is linear.
        let signal = multitone(4_096);
        let composite = 101 + 1_024 + 101 - 1;
        for path in [
            PathKind::LineOfSight,
            PathKind::BodyBlocked { block_db: 20.0 },
        ] {
            for mic in [MicrophoneModel::moto360(), MicrophoneModel::smartphone()] {
                let mic = mic
                    .with_jitter(0.0)
                    .with_noise_floor(Spl(f64::NEG_INFINITY))
                    .with_adc_bits(0);
                for d in [0.1, 0.6, 2.5] {
                    let link = AcousticLink::builder()
                        .distance(Meters(d))
                        .noise(NoiseModel::silence())
                        .path(path)
                        .microphone(mic.clone())
                        .build()
                        .unwrap();
                    let seed = (d * 10.0) as u64;
                    let fused = link.transmit(&signal, Spl(68.0), &mut StdRng::seed_from_u64(seed));
                    let direct = reference::transmit(
                        &link,
                        &signal,
                        Spl(68.0),
                        &mut StdRng::seed_from_u64(seed),
                    );
                    assert_eq!(fused.len(), direct.len());
                    let start = DEFAULT_LEAD_PAD + composite;
                    let end = direct.len() - DEFAULT_TAIL_PAD - composite;
                    let (mut err, mut energy) = (0.0, 0.0);
                    for (f, r) in fused[start..end].iter().zip(&direct[start..end]) {
                        err += (f - r) * (f - r);
                        energy += r * r;
                    }
                    let rel = (err / energy).sqrt();
                    assert!(
                        rel <= 1e-9,
                        "{path:?} {mic:?} {d} m: relative RMS error {rel:e}"
                    );
                }
            }
        }
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

        /// Digests of `transmit` and `record_ambient` for every location
        /// × {LOS, body-blocked} × {Moto 360, smartphone} microphone.
        fn digests(
            transmit: fn(&AcousticLink, &[f64], Spl, &mut StdRng) -> Vec<f64>,
            record_ambient: fn(&AcousticLink, usize, &mut StdRng) -> Vec<f64>,
        ) -> Vec<(u64, u64)> {
            let signal = multitone(3_000);
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
                        let rx = transmit(&link, &signal, Spl(68.0), &mut rng);
                        let ambient = record_ambient(&link, 2_000, &mut rng);
                        got.push((bits_digest(&rx), bits_digest(&ambient)));
                    }
                }
            }
            got
        }

        fn table(got: &[(u64, u64)]) -> String {
            let rows: Vec<String> = got
                .iter()
                .map(|(t, a)| format!("({t:#018x}, {a:#018x}),"))
                .collect();
            rows.join("\n")
        }

        /// Digests of the direct-form chain from the ziggurat
        /// `StandardNormal` stream with glibc's libm on x86-64, as first
        /// recorded with the blocked FIR and multipath kernels and now
        /// reproduced by the plain loops of `Fir::apply` and
        /// `ImpulseResponse::apply` (and the blocked `fractional_delay`,
        /// pinned to its own direct loop in its tests).
        const CHANNEL_DIGESTS: [(u64, u64); 20] = [
            (0x6ad3b3bdcf107e37, 0xe7b5a9fbbc5e7cf3),
            (0xc5a12f976b2ab20e, 0x950da4c5d6174c32),
            (0xdc9ab850402e88ba, 0xd861f425a422a27e),
            (0x35f41f5fd3f659e4, 0xb492753965d9ca09),
            (0xc43a91097511012e, 0xd13afdec19bb1c33),
            (0x3e3decdc0ee2a80e, 0x45237a6145876b11),
            (0x7bf44cb396d40b81, 0xfd04a9f588ba4e9b),
            (0xfa051d823474805e, 0x13c53c728aaa33bf),
            (0x1cf4c68f10be1b93, 0xe05acd4a82148123),
            (0x40b8d02d438a7c40, 0x828709e364e334f7),
            (0x979496a7c6b3347a, 0x5e004e6c9f1aacf2),
            (0x50a819db5ce59e26, 0x707fe556d9956533),
            (0x707055de47c9200c, 0x27ed73df61d0b825),
            (0xf608e6846746158d, 0x77145ced902e0544),
            (0x674fa9713469ac12, 0x785ca71e060d4f56),
            (0xb52367cc487a5f6e, 0xebe5b926ee3ab990),
            (0x9e87033299cc7d1a, 0x88f56103df5982a9),
            (0xfe0e0e4ed9038ce5, 0x4d40fa909a76edf5),
            (0x8c0539708da65c1a, 0xd095f4efec45e897),
            (0xa9a151364fe58e9d, 0xa4d6086362fd268c),
        ];

        /// Digests of the fused `transmit` and `record_ambient`, from the
        /// same stream and libm. The radix-2 FFT's operation order is
        /// fixed, so any change to the fused operators shows here.
        const FUSED_DIGESTS: [(u64, u64); 20] = [
            (0xb8ad9ac11577ee9a, 0x9d5a8cac8200d039),
            (0x54eac87738aca95d, 0xab0a99a80b843bb4),
            (0x160bb86517309a48, 0xdf75c9d6f8f58fbe),
            (0x0a970cf82214ea65, 0x7173ca107d9ad67e),
            (0xfd9399a8961abeea, 0xfb32cd375f74b3fd),
            (0x5d85c83346bfea9d, 0x7cb8303de8352aa2),
            (0x4f4be2e8b4793e3a, 0x545b64a855e5c9ea),
            (0x90d21b919172e6a5, 0x09983a07a6e5a58e),
            (0x0c0daa47a2348d0f, 0x83af9578f7127e03),
            (0xe6a09abd493bf221, 0x392e27a32a3eee19),
            (0x3de4575fd204fa15, 0x1701ab0dbd8c6a32),
            (0xee05a863d07b31de, 0x8c2ff256fecfcb68),
            (0xf3e60dbac58a7137, 0x1b9016bf71558871),
            (0xec471b5020ea13da, 0x782525d7f51f3ae6),
            (0xe74b5f44061a365e, 0x1192994e4ac9c661),
            (0x8247182534eea823, 0x45d45dbb51f8bf11),
            (0x8ddd4b0e5df22c6f, 0xac66ca54cef52675),
            (0x93d17d9407385a5d, 0xb6db0c6b9a7c2caa),
            (0x71c1b33de97e9fce, 0x41dab5e49973e628),
            (0x443df50da65bdd5e, 0x98cb690b58068db0),
        ];

        #[test]
        fn transmit_and_ambient_match_the_direct_form_kernels() {
            let got = digests(reference::transmit, reference::record_ambient);
            assert_eq!(got, CHANNEL_DIGESTS, "digests:\n{}", table(&got));
        }

        #[test]
        fn fused_transmit_and_ambient_match_their_pinned_digests() {
            let got = digests(AcousticLink::transmit, AcousticLink::record_ambient);
            assert_eq!(got, FUSED_DIGESTS, "digests:\n{}", table(&got));
        }
    }
}
