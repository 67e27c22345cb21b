//! System configuration.

use wearlock_acoustics::hardware::{MicrophoneModel, SpeakerModel};
use wearlock_auth::token::DEFAULT_REPETITION;
use wearlock_dsp::units::{Db, Meters, Spl};
use wearlock_modem::coding::TokenCoding;
use wearlock_modem::config::{FrequencyBand, OfdmConfig};
use wearlock_modem::ModePolicy;
use wearlock_platform::device::DeviceModel;
use wearlock_platform::link::Transport;

use crate::error::{ConfigError, WearLockError};

/// HOTP look-ahead window: the verifier accepts a token up to this many
/// counter steps ahead of its own, so a few tokens the watch never heard
/// do not desynchronise the pair (paper §IV; larger gaps are resynced
/// over the control channel after a rejection).
pub const OTP_WINDOW: u64 = 3;

/// Consecutive token rejections after which acoustic unlocking is
/// disabled until the PIN is entered (paper §IV's three-strike
/// lockout, which bounds a brute-force attacker to three guesses).
pub const MAX_FAILURES: u32 = 3;

/// The secure range the volume control targets (paper §III): the
/// phone plays just loud enough for a receiver this far away to clear
/// the mode policy's minimal Eb/N0 over the measured ambient noise.
pub const SECURE_RANGE: Meters = Meters(1.0);

/// Quietest transmit volume the volume control picks, dB SPL — the
/// floor under the noise-derived requirement in a very quiet room.
pub const MIN_VOLUME: Spl = Spl(42.0);

/// NLOS screen threshold `τ*` on the probe preamble's RMS delay spread,
/// seconds (paper §III): a path blocked by the body arrives as
/// scattered echoes whose spread exceeds it.
pub const NLOS_SPREAD_THRESHOLD_S: f64 = 6e-4;

/// Minimum similarity in `[0, 1]` between the phone's ambient reading
/// and the noise lead-in of the watch's probe recording: below it the
/// devices are judged to hear different rooms (the Sound-Proof-style
/// co-location check).
pub const AMBIENT_SIMILARITY_THRESHOLD: f64 = 0.35;

/// Pilot blocks in the RTS probe.
pub const PROBE_BLOCKS: usize = 2;

/// Timing window of the interactive protocol, seconds (paper §IV): a
/// token arriving later than this after its RTS — a replay or a relay
/// — is discarded before verification.
pub const REPLAY_WINDOW_S: f64 = 0.25;

/// Where the heavy DSP of an unlock attempt runs (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionPlan {
    /// Everything runs on the watch; only the verdict crosses the link.
    LocalOnWatch,
    /// The watch ships its recordings to the phone, which computes.
    OffloadToPhone,
}

/// The paper's three evaluation configurations (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedConfig {
    /// Config1: offload over WiFi to a Nexus 6 (fastest).
    Config1,
    /// Config2: offload over Bluetooth to a Galaxy Nexus (slowest
    /// offloaded).
    Config2,
    /// Config3: local processing on the Moto 360.
    Config3,
}

impl NamedConfig {
    /// All three named configurations.
    pub const ALL: [NamedConfig; 3] = [
        NamedConfig::Config1,
        NamedConfig::Config2,
        NamedConfig::Config3,
    ];

    /// The (phone, transport, plan) triple of this configuration.
    pub fn parts(self) -> (DeviceModel, Transport, ExecutionPlan) {
        match self {
            NamedConfig::Config1 => (
                DeviceModel::nexus6(),
                Transport::Wifi,
                ExecutionPlan::OffloadToPhone,
            ),
            NamedConfig::Config2 => (
                DeviceModel::galaxy_nexus(),
                Transport::Bluetooth,
                ExecutionPlan::OffloadToPhone,
            ),
            NamedConfig::Config3 => (
                DeviceModel::nexus6(),
                Transport::Bluetooth,
                ExecutionPlan::LocalOnWatch,
            ),
        }
    }
}

impl std::fmt::Display for NamedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NamedConfig::Config1 => f.write_str("Config1 (WiFi + Nexus 6)"),
            NamedConfig::Config2 => f.write_str("Config2 (BT + Galaxy Nexus)"),
            NamedConfig::Config3 => f.write_str("Config3 (local on Moto 360)"),
        }
    }
}

/// Full WearLock system configuration.
#[derive(Debug, Clone)]
pub struct WearLockConfig {
    pub(crate) modem: OfdmConfig,
    pub(crate) policy: ModePolicy,
    pub(crate) otp_key: Vec<u8>,
    pub(crate) otp_counter: u64,
    pub(crate) token_coding: TokenCoding,
    pub(crate) nlos_relax_max_ber: Option<f64>,
    pub(crate) phone: DeviceModel,
    pub(crate) watch: DeviceModel,
    pub(crate) transport: Transport,
    pub(crate) plan: ExecutionPlan,
}

impl WearLockConfig {
    /// Starts building a configuration from the paper defaults.
    pub fn builder() -> WearLockConfigBuilder {
        WearLockConfigBuilder::default()
    }

    /// The OFDM modem configuration.
    pub fn modem(&self) -> &OfdmConfig {
        &self.modem
    }

    /// The adaptive modulation policy.
    pub fn policy(&self) -> ModePolicy {
        self.policy
    }

    /// The execution plan.
    pub fn plan(&self) -> ExecutionPlan {
        self.plan
    }

    /// The wireless transport.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Phone device model.
    pub fn phone(&self) -> &DeviceModel {
        &self.phone
    }

    /// Watch device model.
    pub fn watch(&self) -> &DeviceModel {
        &self.watch
    }

    /// The token channel-coding scheme.
    pub fn token_coding(&self) -> TokenCoding {
        self.token_coding
    }

    /// The shared OTP secret.
    pub fn otp_key(&self) -> &[u8] {
        &self.otp_key
    }

    /// The microphone the receiving device uses: the watch's band-
    /// limited microphone in the audible phone→watch pairing, a phone
    /// microphone for the near-ultrasound phone→phone pairing.
    pub fn receiver_microphone(&self) -> MicrophoneModel {
        match self.modem.band() {
            FrequencyBand::Audible => MicrophoneModel::moto360(),
            FrequencyBand::NearUltrasound => MicrophoneModel::smartphone(),
        }
    }

    /// The transmit volume needed so a receiver at the secure range
    /// clears the policy's minimal Eb/N0 over `noise` (the paper's
    /// volume-control rule), clamped to the speaker's ceiling and the
    /// configured minimum.
    pub fn required_volume(&self, noise: Spl) -> Spl {
        // Calibrated gap between the total-SPL noise reading and the
        // effective per-sub-channel noise plus front-end losses on this
        // simulator, measured with the `repro` harness: an Eb/N0 of
        // `volume − noise − 13 dB` arrives at 1 m, while the physical
        // spreading-loss formula alone predicts 8 dB more.
        const CALIBRATION_DB: f64 = 8.0;
        let min_ebn0 = Db(self.policy.min_ebn0().value() + 2.5); // small head-room
                                                                 // Eb/N0 → required C/N via B/R of the deciding mode.
        let mode = wearlock_modem::TransmissionMode::Qpsk;
        let b = self.modem.occupied_bandwidth().value();
        let r = self.modem.data_rate(mode.bits_per_symbol());
        let min_snr = Db(min_ebn0.value() - 10.0 * (b / r).log10() - CALIBRATION_DB);
        let req = wearlock_acoustics::propagation::required_tx_spl(SECURE_RANGE, noise, min_snr);
        let clamped = req
            .value()
            .max(MIN_VOLUME.value())
            .min(SpeakerModel::smartphone().max_spl().value());
        Spl(clamped)
    }
}

impl Default for WearLockConfig {
    fn default() -> Self {
        WearLockConfig::builder()
            .build()
            .expect("default config is valid")
    }
}

/// Builder for [`WearLockConfig`].
#[derive(Debug, Clone)]
pub struct WearLockConfigBuilder {
    band: FrequencyBand,
    max_ber: f64,
    otp_key: Vec<u8>,
    otp_counter: u64,
    token_coding: Option<TokenCoding>,
    nlos_relax_max_ber: Option<f64>,
    named: NamedConfig,
}

impl Default for WearLockConfigBuilder {
    fn default() -> Self {
        WearLockConfigBuilder {
            band: FrequencyBand::Audible,
            max_ber: 0.1,
            otp_key: b"wearlock-shared-secret".to_vec(),
            otp_counter: 0,
            token_coding: None,
            nlos_relax_max_ber: None,
            named: NamedConfig::Config1,
        }
    }
}

impl WearLockConfigBuilder {
    /// Sets the acoustic band (default audible 1–6 kHz).
    pub fn band(mut self, band: FrequencyBand) -> Self {
        self.band = band;
        self
    }

    /// Sets the BER ceiling for adaptive modulation (default 0.1).
    pub fn max_ber(mut self, max_ber: f64) -> Self {
        self.max_ber = max_ber;
        self
    }

    /// Sets the shared OTP secret.
    pub fn otp_key(mut self, key: impl Into<Vec<u8>>) -> Self {
        self.otp_key = key.into();
        self
    }

    /// Sets the initial OTP counter (default 0).
    pub fn otp_counter(mut self, counter: u64) -> Self {
        self.otp_counter = counter;
        self
    }

    /// Sets the token channel coding explicitly (default: repetition
    /// with [`DEFAULT_REPETITION`] copies).
    ///
    /// [`DEFAULT_REPETITION`]: wearlock_auth::token::DEFAULT_REPETITION
    pub fn token_coding(mut self, coding: TokenCoding) -> Self {
        self.token_coding = Some(coding);
        self
    }

    /// Instead of aborting on an NLOS flag, relax the BER target to
    /// this value and continue (the case study's corrected protocol).
    pub fn nlos_relax_max_ber(mut self, max_ber: Option<f64>) -> Self {
        self.nlos_relax_max_ber = max_ber;
        self
    }

    /// Applies one of the paper's named configurations (phone,
    /// transport, plan; default [`NamedConfig::Config1`]).
    pub fn named(mut self, named: NamedConfig) -> Self {
        self.named = named;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// Validation is eager: every field is checked here, up front, so a
    /// value that would have failed or been silently ignored deep inside
    /// an unlock attempt (an unusable NLOS BER relaxation) is rejected
    /// at build time with a typed [`ConfigError`].
    ///
    /// # Errors
    ///
    /// Returns [`WearLockError::Config`] naming the offending field, or
    /// a sub-component error for invalid policy parameters.
    pub fn build(self) -> Result<WearLockConfig, WearLockError> {
        if self.otp_key.is_empty() {
            return Err(ConfigError::EmptyOtpKey.into());
        }
        if matches!(self.token_coding, Some(TokenCoding::Repetition(0))) {
            return Err(ConfigError::ZeroRepetition.into());
        }
        if let Some(relaxed) = self.nlos_relax_max_ber {
            // The session applies this through `ModePolicy::new`, which
            // accepts targets in (0, 0.5]; catch unusable values here
            // instead of silently ignoring them mid-attempt.
            if !(relaxed > 0.0 && relaxed <= 0.5) {
                return Err(ConfigError::InvalidNlosRelaxMaxBer { value: relaxed }.into());
            }
        }
        let policy = ModePolicy::new(self.max_ber)?;
        let (phone, transport, plan) = self.named.parts();
        Ok(WearLockConfig {
            modem: OfdmConfig::new(self.band),
            policy,
            otp_key: self.otp_key,
            otp_counter: self.otp_counter,
            token_coding: self
                .token_coding
                .unwrap_or(TokenCoding::Repetition(DEFAULT_REPETITION)),
            nlos_relax_max_ber: self.nlos_relax_max_ber,
            phone,
            watch: DeviceModel::moto360(),
            transport,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paper_setup() {
        let cfg = WearLockConfig::default();
        assert_eq!(cfg.policy().max_ber(), 0.1);
        assert_eq!(cfg.plan(), ExecutionPlan::OffloadToPhone);
        assert_eq!(cfg.transport(), Transport::Wifi);
    }

    /// Unwraps the typed variant a failing build must produce.
    fn config_err(result: Result<WearLockConfig, WearLockError>) -> ConfigError {
        match result {
            Err(WearLockError::Config(e)) => e,
            other => panic!("expected a typed ConfigError, got {other:?}"),
        }
    }

    #[test]
    fn builder_validation() {
        assert!(WearLockConfig::builder()
            .otp_key(Vec::new())
            .build()
            .is_err());
        assert!(WearLockConfig::builder()
            .token_coding(TokenCoding::Repetition(0))
            .build()
            .is_err());
        assert!(WearLockConfig::builder().max_ber(0.9).build().is_err());
    }

    #[test]
    fn rejects_empty_otp_key() {
        let e = config_err(WearLockConfig::builder().otp_key(Vec::new()).build());
        assert_eq!(e, ConfigError::EmptyOtpKey);
    }

    #[test]
    fn rejects_zero_repetition() {
        let e = config_err(
            WearLockConfig::builder()
                .token_coding(TokenCoding::Repetition(0))
                .build(),
        );
        assert_eq!(e, ConfigError::ZeroRepetition);
    }

    #[test]
    fn rejects_unusable_nlos_relaxation() {
        // Would be silently ignored mid-attempt before eager validation.
        for bad in [0.0, -0.1, 0.6, f64::NAN] {
            let e = config_err(
                WearLockConfig::builder()
                    .nlos_relax_max_ber(Some(bad))
                    .build(),
            );
            assert!(
                matches!(e, ConfigError::InvalidNlosRelaxMaxBer { .. }),
                "{bad}"
            );
        }
        // The in-range relaxation the field test uses still builds.
        assert!(WearLockConfig::builder()
            .nlos_relax_max_ber(Some(0.25))
            .build()
            .is_ok());
    }

    #[test]
    fn config_error_display_names_the_field() {
        let e = config_err(
            WearLockConfig::builder()
                .nlos_relax_max_ber(Some(0.6))
                .build(),
        );
        assert_eq!(
            e.to_string(),
            "NLOS relaxed MaxBER must be in (0, 0.5], got 0.6"
        );
        let top = WearLockError::from(e);
        assert!(top.to_string().starts_with("invalid configuration:"));
        assert!(std::error::Error::source(&top).is_some());
    }

    /// The one frame every session runs, per band: the modem's fixed
    /// geometry and detection threshold, its channel sets, and the
    /// session's probe length.
    #[test]
    fn fixed_frame_is_pinned() {
        use wearlock_dsp::units::SampleRate;
        use wearlock_modem::config::{
            CP_LEN, FFT_SIZE, FINE_SYNC_RANGE, POST_PREAMBLE_GUARD, PREAMBLE_LEN, SAMPLE_RATE,
            SYMBOL_LEN,
        };
        use wearlock_modem::demodulator::DETECTION_THRESHOLD;
        use wearlock_modem::{OfdmModulator, TxScratch};

        assert_eq!(FFT_SIZE, 256);
        assert_eq!(SAMPLE_RATE, SampleRate::CD);
        assert_eq!(SAMPLE_RATE.value(), 44_100.0);
        assert_eq!(CP_LEN, 128);
        assert_eq!(PREAMBLE_LEN, 256);
        assert_eq!(POST_PREAMBLE_GUARD, 1_024);
        assert_eq!(FINE_SYNC_RANGE, 8);
        assert_eq!(SYMBOL_LEN, 384);
        assert_eq!(DETECTION_THRESHOLD, 0.3);
        assert_eq!(PROBE_BLOCKS, 2);

        let bands = [
            (
                FrequencyBand::Audible,
                [7, 11, 15, 19, 23, 27, 31, 35],
                [16, 17, 18, 20, 21, 22, 24, 25, 26, 28, 29, 30],
            ),
            (
                FrequencyBand::NearUltrasound,
                [78, 82, 86, 90, 94, 98, 102, 106],
                [87, 88, 89, 91, 92, 93, 95, 96, 97, 99, 100, 101],
            ),
        ];
        for (band, pilots, data) in bands {
            let cfg = WearLockConfig::builder().band(band).build().unwrap();
            let modem = cfg.modem();
            assert_eq!(modem.pilot_channels(), &pilots, "{band}");
            assert_eq!(modem.data_channels(), &data, "{band}");
            // 29 bins from the first pilot to the last, at fs / N each.
            assert_eq!(modem.occupied_bandwidth().value(), 29.0 * 44_100.0 / 256.0);
            let mut probe = Vec::new();
            OfdmModulator::new(modem.clone())
                .unwrap()
                .probe(PROBE_BLOCKS, &mut TxScratch::new(), &mut probe)
                .unwrap();
            assert_eq!(
                probe.len(),
                PREAMBLE_LEN + POST_PREAMBLE_GUARD + PROBE_BLOCKS * SYMBOL_LEN
            );
        }
    }

    #[test]
    fn named_configs_map_to_parts() {
        let (d1, t1, p1) = NamedConfig::Config1.parts();
        assert_eq!(d1.name(), "Nexus 6");
        assert_eq!(t1, Transport::Wifi);
        assert_eq!(p1, ExecutionPlan::OffloadToPhone);
        let (_, t3, p3) = NamedConfig::Config3.parts();
        assert_eq!(t3, Transport::Bluetooth);
        assert_eq!(p3, ExecutionPlan::LocalOnWatch);
    }

    #[test]
    fn receiver_microphone_tracks_band() {
        let audible = WearLockConfig::default();
        assert!(audible.receiver_microphone().cutoff().unwrap().value() < 10_000.0);
        let ultra = WearLockConfig::builder()
            .band(FrequencyBand::NearUltrasound)
            .build()
            .unwrap();
        assert!(ultra.receiver_microphone().cutoff().unwrap().value() > 20_000.0);
    }

    #[test]
    fn required_volume_rises_with_noise() {
        let cfg = WearLockConfig::default();
        let quiet = cfg.required_volume(Spl(18.0));
        let loud = cfg.required_volume(Spl(55.0));
        assert!(loud > quiet, "quiet {quiet} loud {loud}");
        // Never above the speaker ceiling.
        assert!(loud.value() <= 85.0 + 1e-9);
    }

    #[test]
    fn band_shortcut_builds_shifted_modem() {
        let cfg = WearLockConfig::builder()
            .band(FrequencyBand::NearUltrasound)
            .build()
            .unwrap();
        assert!(cfg.modem().data_channels()[0] > 80);
    }
}
