//! The WearLock unlocking session: the smartwatch-assisted two-phase
//! protocol of paper §II (Fig. 2), §III and §V, end to end over the
//! simulated acoustic channel.
//!
//! Pipeline per unlock attempt (power-button press):
//!
//! 1. **Wireless link check** — no Bluetooth/WiFi link, no protocol.
//! 2. **Sensor transfer + motion filter** (Alg. 1): abort on mismatch,
//!    skip the acoustic phases on a strong match.
//! 3. **Phase 1 (RTS/CTS)** — the phone plays a chirp+pilot probe, the
//!    watch records; processing (local or offloaded) detects the
//!    preamble, screens NLOS via RMS delay spread, checks ambient-noise
//!    similarity, estimates the pilot SNR and selects sub-channels and
//!    a transmission mode under the MaxBER policy.
//! 4. **Phase 2 (data)** — the phone sends the repetition-coded HOTP
//!    token over OFDM; the watch's recording is demodulated and the
//!    token verified (counter window, replay detection, lockout).
//!
//! The phone's and the watch's steps live in their protocol roles, shared
//! with the [`live`](crate::live) two-thread runner. The session drives
//! them in order and supplies the world around them: wireless delays,
//! sensor traces, the acoustic link and fault plans. Every stage
//! advances a virtual clock and an energy ledger, producing the
//! per-phase breakdowns behind Figs. 6 and 10–12.

use rand::Rng;

use wearlock_auth::LockoutPolicy;
use wearlock_dsp::units::{Db, Seconds, Spl};
use wearlock_faults::{FaultConfig, FaultPlan};
use wearlock_modem::config::{CP_LEN, FFT_SIZE, PREAMBLE_LEN, SAMPLE_RATE};
use wearlock_modem::demodulator::bit_error_rate;
use wearlock_modem::TransmissionMode;
use wearlock_platform::device::Workload;
use wearlock_platform::keyguard::{Keyguard, KeyguardEvent};
use wearlock_platform::link::WirelessLink;
use wearlock_platform::pin::PinEntryModel;
use wearlock_platform::VirtualClock;
use wearlock_telemetry::{
    AttemptEvent, AttemptOutcome, EventSink, NullSink, RetryAction, RetryEvent, StageSpan,
};

use crate::config::{ExecutionPlan, WearLockConfig};
use crate::environment::Environment;
use crate::error::WearLockError;
use crate::offload::{step_cost, StepCost};
use crate::protocol::{PhoneRole, WatchRole};
use crate::trim;

/// Why an unlock attempt was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// No wireless link to the watch.
    NoWirelessLink,
    /// Acoustic unlocking disabled after repeated failures.
    LockedOut,
    /// Motion filter: devices moving differently.
    MotionMismatch,
    /// Probe preamble not detected at the watch.
    ProbeNotDetected,
    /// RMS delay spread indicates a blocked (NLOS) path.
    NlosDetected,
    /// Ambient noise fingerprints disagree.
    AmbientMismatch,
    /// No transmission mode meets the BER target at the probed SNR.
    SnrTooLow,
    /// The wireless link dropped between phase 1 and phase 2, so the
    /// CTS reply and verdict could not be exchanged.
    LinkDropped,
    /// The received token failed verification.
    TokenRejected,
}

/// How an unlock was granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnlockPath {
    /// Motion similarity alone (second phase skipped).
    MotionSkip,
    /// Full acoustic token exchange at the given mode.
    Acoustic(TransmissionMode),
}

/// Outcome of one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Phone unlocked.
    Unlocked(UnlockPath),
    /// Phone stays locked.
    Denied(DenyReason),
}

impl Outcome {
    /// Whether the phone ended up unlocked.
    pub fn unlocked(&self) -> bool {
        matches!(self, Outcome::Unlocked(_))
    }
}

/// Maps a session [`Outcome`] to the telemetry funnel bucket — the
/// single translation point between the session's rich outcome type and
/// the counter the metrics layer aggregates.
pub fn outcome_event(outcome: Outcome) -> AttemptOutcome {
    match outcome {
        Outcome::Unlocked(UnlockPath::MotionSkip) => AttemptOutcome::UnlockedMotionSkip,
        Outcome::Unlocked(UnlockPath::Acoustic(_)) => AttemptOutcome::UnlockedAcoustic,
        Outcome::Denied(DenyReason::NoWirelessLink) => AttemptOutcome::DeniedNoWirelessLink,
        Outcome::Denied(DenyReason::LockedOut) => AttemptOutcome::DeniedLockedOut,
        Outcome::Denied(DenyReason::MotionMismatch) => AttemptOutcome::DeniedMotionMismatch,
        Outcome::Denied(DenyReason::ProbeNotDetected) => AttemptOutcome::DeniedProbeNotDetected,
        Outcome::Denied(DenyReason::NlosDetected) => AttemptOutcome::DeniedNlosDetected,
        Outcome::Denied(DenyReason::AmbientMismatch) => AttemptOutcome::DeniedAmbientMismatch,
        Outcome::Denied(DenyReason::SnrTooLow) => AttemptOutcome::DeniedSnrTooLow,
        Outcome::Denied(DenyReason::LinkDropped) => AttemptOutcome::DeniedLinkDropped,
        Outcome::Denied(DenyReason::TokenRejected) => AttemptOutcome::DeniedTokenRejected,
    }
}

/// Couples the virtual clock, the energy ledger and the telemetry sink:
/// every pipeline stage goes through one [`StageLedger::step`] call, so
/// the clock, the per-battery energies and the emitted [`StageSpan`]s
/// can never drift apart.
struct StageLedger<'s> {
    clock: VirtualClock,
    energy: StepCost,
    sink: &'s dyn EventSink,
}

impl StageLedger<'_> {
    fn step(&mut self, stage: &'static str, time: Seconds, watch_j: f64, phone_j: f64) {
        self.clock.advance(stage, time);
        self.energy.watch_energy_j += watch_j;
        self.energy.phone_energy_j += phone_j;
        if self.sink.enabled() {
            self.sink.record_span(&StageSpan {
                stage,
                // The clock clamps negative durations; the span must
                // report the same figure it accounted.
                duration_s: time.value().max(0.0),
                watch_energy_j: watch_j,
                phone_energy_j: phone_j,
            });
        }
    }

    fn step_cost(&mut self, stage: &'static str, cost: StepCost) {
        self.step(stage, cost.time, cost.watch_energy_j, cost.phone_energy_j);
    }

    /// Copies the final clock/energy state into the report.
    fn finish(&self, report: &mut AttemptReport) {
        report.total_delay = self.clock.now();
        report.delays = self.clock.spans().collect();
        report.watch_energy_j = self.energy.watch_energy_j;
        report.phone_energy_j = self.energy.phone_energy_j;
    }
}

/// Full diagnostics of one unlock attempt.
#[derive(Debug, Clone)]
pub struct AttemptReport {
    /// The decision.
    pub outcome: Outcome,
    /// Total wall-clock delay from button press to decision.
    pub total_delay: Seconds,
    /// Labelled delay spans.
    pub delays: Vec<(&'static str, Seconds)>,
    /// Transmission mode chosen in phase 1 (if reached).
    pub mode: Option<TransmissionMode>,
    /// Raw channel BER measured on the phase-2 coded bits (diagnostic;
    /// uses ground-truth knowledge the real system doesn't have).
    pub measured_ber: Option<f64>,
    /// Pilot SNR from the probe.
    pub psnr: Option<Db>,
    /// Eb/N0 the mode decision was based on.
    pub ebn0: Option<Db>,
    /// DTW motion score.
    pub dtw_score: Option<f64>,
    /// Ambient similarity score.
    pub ambient_similarity: Option<f64>,
    /// Transmit volume used.
    pub volume: Option<Spl>,
    /// Whether the NLOS screen flagged the path.
    pub nlos_flagged: bool,
    /// RMS delay spread of the probe preamble, seconds.
    pub rms_delay_spread: Option<f64>,
    /// Data channels used for phase 2. Empty when the attempt never
    /// reached sub-channel selection (early denial or motion skip).
    pub data_channels: Vec<usize>,
    /// Energy drawn from the watch battery, joules.
    pub watch_energy_j: f64,
    /// Energy drawn from the phone battery, joules.
    pub phone_energy_j: f64,
}

impl AttemptReport {
    /// An empty report; its outcome is a placeholder until the attempt
    /// decides one.
    pub(crate) fn new() -> Self {
        AttemptReport {
            outcome: Outcome::Denied(DenyReason::NoWirelessLink),
            total_delay: Seconds(0.0),
            delays: Vec::new(),
            mode: None,
            measured_ber: None,
            psnr: None,
            ebn0: None,
            dtw_score: None,
            ambient_similarity: None,
            volume: None,
            nlos_flagged: false,
            rms_delay_spread: None,
            // Filled in at sub-channel selection; an attempt denied
            // before phase 2 reports no data channels rather than the
            // configured default it never used.
            data_channels: Vec::new(),
            watch_energy_j: 0.0,
            phone_energy_j: 0.0,
        }
    }
}

/// A long-lived unlocking session between one phone and one watch.
///
/// Holds the shared OTP state, lockout policy and keyguard across
/// attempts.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use wearlock::config::WearLockConfig;
/// use wearlock::environment::Environment;
/// use wearlock::session::{AttemptOptions, UnlockSession};
///
/// let mut session = UnlockSession::new(WearLockConfig::default())?;
/// let mut rng = StdRng::seed_from_u64(7);
/// let series = session.run(&Environment::default(), &AttemptOptions::new(), &mut rng);
/// assert!(series.final_attempt().outcome.unlocked());
/// # Ok::<(), wearlock::WearLockError>(())
/// ```
#[derive(Debug)]
pub struct UnlockSession {
    config: WearLockConfig,
    /// The phone's protocol state: OTP, lockout, keyguard, transmitter.
    phone: PhoneRole,
    /// The watch's receive-side working memory, reused across attempts
    /// so repeated unlocks (retry ladders, funnels) demodulate
    /// allocation-free.
    watch: WatchRole,
    link: WirelessLink,
}

impl UnlockSession {
    /// Creates a session from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`WearLockError::Modem`] if the modem cannot be built
    /// from the configured parameters.
    pub fn new(config: WearLockConfig) -> Result<Self, WearLockError> {
        Ok(UnlockSession {
            phone: PhoneRole::new(&config)?,
            watch: WatchRole::default(),
            link: WirelessLink::new(config.transport),
            config,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &WearLockConfig {
        &self.config
    }

    /// The keyguard state machine.
    pub fn keyguard(&self) -> &Keyguard {
        &self.phone.keyguard
    }

    /// The lockout policy state.
    pub fn lockout(&self) -> &LockoutPolicy {
        &self.phone.lockout
    }

    /// Simulates a successful manual PIN entry: clears lockout and
    /// unlocks.
    pub fn enter_pin(&mut self) {
        self.phone.lockout.reset();
        self.phone.keyguard.handle(KeyguardEvent::PinEntered);
    }

    /// The unlock entry point: one attempt, or a budgeted retry series,
    /// with optional telemetry and fault injection — all selected by
    /// `options`.
    ///
    /// With no retry policy set, `run` executes exactly one attempt
    /// under a degenerate policy (no backoff, so no jitter draw, and no
    /// PIN surrender); read it with [`ResilienceReport::final_attempt`].
    /// With [`AttemptOptions::retry_policy`] it is the budgeted retry ladder
    /// documented on [`RetryPolicy`]: retry until unlocked, the channel
    /// proves unfixable (`NoWirelessLink`), or the budget runs out —
    /// then (policy permitting) surrender to manual PIN entry.
    ///
    /// Ladder rules per failed attempt:
    ///
    /// * `NoWirelessLink` — nothing to retry against; hard denial.
    /// * Channel-quality denials (probe lost, NLOS, SNR too low, token
    ///   rejected) — **escalate**: the next attempt re-runs the full
    ///   RTS/CTS probe with a boosted volume and a relaxed BER target.
    /// * Other denials — plain backoff retry.
    /// * Budget exhausted (attempts, wall clock) or locked out —
    ///   **surrender** to PIN when the policy allows, else deny.
    ///
    /// Backoff is exponential with a deterministic jitter drawn from
    /// `rng` (the session's seeded stream), so the whole series is
    /// reproducible. Every pipeline stage emits a [`StageSpan`], every
    /// attempt an [`AttemptEvent`] and every ladder decision a
    /// [`RetryEvent`] to the options' sink; with a disabled sink (the
    /// default [`NullSink`]) the instrumentation is a dead branch.
    /// Fault randomness comes from plan-owned seeds, never from `rng`,
    /// so [`FaultPlan::none()`] makes byte-identical draws to no faults
    /// at all (the null-fault contract).
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        env: &Environment,
        options: &AttemptOptions<'_>,
        rng: &mut R,
    ) -> ResilienceReport {
        let sink = options.sink;
        let policy = options.retry.unwrap_or_else(RetryPolicy::single_attempt);
        let mut attempts: Vec<AttemptReport> = Vec::new();
        let mut tuning = AttemptTuning::default();
        let mut attempt_total = 0.0;
        let mut backoff_total = 0.0;
        let mut escalations = 0u32;
        let (outcome, pin_delay) = loop {
            let faults = match options.faults {
                FaultSource::Plan(plan) => plan,
                FaultSource::Config(config) => FaultPlan::derive(&config, attempts.len() as u64),
            };
            let report = self.run_attempt(env, &faults, tuning, sink, rng);
            Self::emit_attempt(&report, sink);
            if let Some(v) = report.volume {
                tuning.volume_floor = tuning.volume_floor.max(v.value());
            }
            attempt_total += report.total_delay.value();
            let outcome = report.outcome;
            attempts.push(report);
            let tries = attempts.len() as u32;

            let reason = match outcome {
                Outcome::Unlocked(path) => break (ResilientOutcome::Unlocked(path), None),
                // Without the watch link there is no protocol to retry
                // and no trusted channel to re-arm; this is the one
                // denial even PIN surrender doesn't model.
                Outcome::Denied(DenyReason::NoWirelessLink) => {
                    break (ResilientOutcome::Denied(DenyReason::NoWirelessLink), None)
                }
                Outcome::Denied(reason) => reason,
            };

            let exhausted = tries >= policy.max_attempts
                || attempt_total + backoff_total >= policy.total_budget.value()
                || reason == DenyReason::LockedOut;
            if exhausted && policy.surrender_to_pin {
                if sink.enabled() {
                    sink.record_retry(&RetryEvent {
                        attempt: tries,
                        outcome: outcome_event(outcome),
                        action: RetryAction::Surrender,
                        backoff_s: 0.0,
                    });
                }
                let pin = PinEntryModel::four_digit().sample(rng);
                self.enter_pin();
                break (ResilientOutcome::PinFallback, Some(pin));
            }
            if exhausted {
                break (ResilientOutcome::Denied(reason), None);
            }

            let escalate = matches!(
                reason,
                DenyReason::ProbeNotDetected
                    | DenyReason::NlosDetected
                    | DenyReason::SnrTooLow
                    | DenyReason::TokenRejected
            );
            if escalate {
                tuning.volume_boost_db += policy.volume_boost_db;
                tuning.relax_max_ber = policy.relax_max_ber;
                escalations += 1;
            }
            let backoff = if policy.base_backoff.value() > 0.0 {
                let exp = policy.base_backoff.value()
                    * policy.backoff_factor.max(1.0).powi(tries as i32 - 1);
                // Deterministic jitter in [0.5, 1.5)× from the seeded
                // session stream (only drawn when backoff is enabled,
                // so zero-backoff callers keep their draw sequence).
                exp.min(policy.max_backoff.value()) * (0.5 + rng.gen::<f64>())
            } else {
                0.0
            };
            backoff_total += backoff;
            if sink.enabled() {
                sink.record_retry(&RetryEvent {
                    attempt: tries,
                    outcome: outcome_event(outcome),
                    action: if escalate {
                        RetryAction::Escalate
                    } else {
                        RetryAction::Backoff
                    },
                    backoff_s: backoff,
                });
            }
        };
        let total = attempt_total + backoff_total;
        ResilienceReport {
            outcome,
            attempts,
            total_delay: Seconds(pin_delay.map_or(total, |pin: Seconds| total + pin.value())),
            backoff_delay: Seconds(backoff_total),
            pin_delay,
            escalations,
        }
    }

    fn emit_attempt(report: &AttemptReport, sink: &dyn EventSink) {
        if sink.enabled() {
            sink.record_attempt(&AttemptEvent {
                outcome: outcome_event(report.outcome),
                mode: report.mode.map(|m| m.to_string()),
                psnr_db: report.psnr.map(Db::value),
                ebn0_db: report.ebn0.map(Db::value),
            });
        }
    }

    fn run_attempt<R: Rng + ?Sized>(
        &mut self,
        env: &Environment,
        faults: &FaultPlan,
        tuning: AttemptTuning,
        sink: &dyn EventSink,
        rng: &mut R,
    ) -> AttemptReport {
        let mut ledger = StageLedger {
            clock: VirtualClock::new(),
            energy: StepCost::default(),
            sink,
        };
        let mut report = AttemptReport::new();
        report.outcome = self.attempt(env, faults, tuning, &mut ledger, &mut report, rng);
        ledger.finish(&mut report);
        report
    }

    /// One attempt of the protocol: the phone and watch steps in order,
    /// with the world (wireless delays, sensor traces, the acoustic
    /// link, faults) and the pricing of every stage in between. Each
    /// stage span is recorded after the work it prices and before the
    /// work that follows, so a wall-stamping sink can attribute host
    /// time to pipeline layers.
    fn attempt<R: Rng + ?Sized>(
        &mut self,
        env: &Environment,
        faults: &FaultPlan,
        tuning: AttemptTuning,
        ledger: &mut StageLedger<'_>,
        report: &mut AttemptReport,
        rng: &mut R,
    ) -> Outcome {
        let config = &self.config;
        if self.phone.locked_out() {
            return Outcome::Denied(DenyReason::LockedOut);
        }
        // The wireless link is the cheapest filter.
        if !env.wireless_in_range {
            return Outcome::Denied(DenyReason::NoWirelessLink);
        }
        // Link fault: congestion stretches every wireless operation of
        // this attempt (latency and throughput both degrade).
        let link = match faults.link.latency_factor {
            Some(f) => self.link.with_latency_factor(f),
            None => self.link,
        };
        ledger.step("wireless:handshake", link.round_trip(rng), 0.0, 0.0);
        if faults.link.probe_loss {
            // Link fault: the RTS control message is lost; the watch
            // re-requests it after a one-round-trip timeout.
            ledger.step("wireless:retransmit", link.round_trip(rng), 0.0, 0.0);
        }
        if faults.clock.drift_s > 0.0 {
            // Clock fault: the devices disagree on time, so the watch
            // starts recording late and the phone waits out the skew.
            ledger.step("fault:clock-drift", Seconds(faults.clock.drift_s), 0.0, 0.0);
        }

        // Sensor traces (buffered in the background on both devices;
        // the watch ships ~2 kB) and the motion filter on the phone.
        let (phone_trace, watch_trace) = env.sensor_traces(rng);
        let sensor_delay = link.file_delay(env.sensor_samples * 12, rng);
        ledger.step("wireless:sensor-transfer", sensor_delay, 0.0, 0.0);
        let dtw_work = Workload::Dtw {
            n: env.sensor_samples,
            m: env.sensor_samples,
        };
        ledger.step(
            "compute:motion-filter",
            config.phone.execute(&dtw_work),
            0.0,
            config.phone.energy_for(&dtw_work),
        );
        if let Some(outcome) = self.phone.motion_filter(&phone_trace, &watch_trace, report) {
            return outcome;
        }

        // Phase 1: volume from the phone's ambient reading, the RTS
        // probe over the air, then the watch's trim and probe analysis.
        let acoustic = env
            .acoustic_link(config)
            .expect("environment distances are validated positive");
        let ambient = acoustic.record_ambient(4_096, rng);
        let volume = PhoneRole::volume(config, &ambient, tuning);
        report.volume = Some(volume);
        let mut probe = Vec::new();
        self.phone.probe(&mut probe);
        let mut probe_rec = acoustic.transmit(&probe, volume, rng);
        // Acoustic faults draw from plan-owned seeds, never from `rng`;
        // a null plan leaves the recording untouched.
        faults.phase1.apply(&mut probe_rec);
        ledger.step(
            "audio:phase1",
            Seconds(probe.len() as f64 / SAMPLE_RATE.value() + 0.08),
            0.0,
            0.0,
        );

        let rx = WatchRole::receive(
            &config.modem,
            &probe_rec,
            probe.len(),
            trim::PROBE_NOISE_LEAD_S,
        );
        // The trim is priced as a level measure over the full buffer.
        let probe_work = Workload::combined(&[
            Workload::CrossCorrelation {
                signal_len: rx.searched,
                template_len: PREAMBLE_LEN,
            },
            Workload::Fft {
                size: FFT_SIZE,
                count: 10,
            },
            Workload::LevelMeasure {
                samples: probe_rec.len(),
            },
        ]);
        let c1 = step_cost(
            config.plan,
            &probe_work,
            rx.samples.len(),
            &config.phone,
            &config.watch,
            &link,
            rng,
        );
        ledger.step_cost("compute:phase1-probing", c1);

        let analysis =
            self.watch
                .analyze_probe(config, &rx, &ambient, tuning.relax_max_ber, report);
        let cts = match (analysis, faults.link.drop_after_phase1) {
            // Link fault: the control channel died after the probe was
            // analyzed — no CTS can be sent, no verdict returned.
            (Ok(_) | Err(DenyReason::SnrTooLow), true) => {
                return Outcome::Denied(DenyReason::LinkDropped)
            }
            (Err(reason), _) => return Outcome::Denied(reason),
            (Ok(cts), false) => cts,
        };
        report.mode = Some(cts.mode);
        ledger.step("wireless:cts", link.message_delay(rng), 0.0, 0.0);

        // Phase 2: token transmission, the watch's trim and demodulation,
        // and verification on the phone.
        // Clock fault: the generator ticked while the devices disagreed
        // on time, so its counter runs ahead of the verifier's. Small
        // skews land inside the verify window; larger ones force a
        // rejection followed by a counter resync.
        self.phone.skip_tokens(faults.clock.counter_skew);
        let mut wave = Vec::new();
        let (coded, blocks) = self.phone.token(config, &cts, &mut wave);
        let mut token_rec = acoustic.transmit(&wave, volume, rng);
        faults.phase2.apply(&mut token_rec);
        ledger.step(
            "audio:phase2",
            Seconds(wave.len() as f64 / SAMPLE_RATE.value() + 0.08),
            0.0,
            0.0,
        );

        let rx2 = WatchRole::receive(
            &cts.data_cfg,
            &token_rec,
            wave.len(),
            trim::TOKEN_NOISE_LEAD_S,
        );
        let demod_work = Workload::combined(&[
            Workload::CrossCorrelation {
                signal_len: rx2.searched,
                template_len: PREAMBLE_LEN,
            },
            Workload::LevelMeasure {
                samples: token_rec.len(),
            },
        ]);
        let c2 = step_cost(
            config.plan,
            &demod_work,
            rx2.samples.len(),
            &config.phone,
            &config.watch,
            &link,
            rng,
        );
        ledger.step_cost("compute:phase2-preprocess", c2);

        let demod_only = Workload::OfdmDemod {
            blocks,
            fft_size: FFT_SIZE,
            cp_len: CP_LEN,
        };
        // The audio already crossed the link with the preprocess step;
        // demodulation is pure compute on the chosen device.
        let c3 = match config.plan {
            ExecutionPlan::LocalOnWatch => StepCost {
                time: config.watch.execute(&demod_only),
                watch_energy_j: config.watch.energy_for(&demod_only),
                phone_energy_j: 0.0,
            },
            ExecutionPlan::OffloadToPhone => StepCost {
                time: config.phone.execute(&demod_only),
                watch_energy_j: 0.0,
                phone_energy_j: config.phone.energy_for(&demod_only),
            },
        };
        ledger.step_cost("compute:phase2-demod", c3);
        ledger.step("wireless:verdict", link.message_delay(rng), 0.0, 0.0);

        let bits = self.watch.demodulate_token(config, &rx2, cts.mode);
        // Ground truth the real system does not have: the raw BER.
        report.measured_ber = bits.map(|b| bit_error_rate(&coded, b));
        self.phone.verify(config, bits, cts.mode)
    }

    /// The OTP generator's current counter. Advances once per phase-2
    /// token issued; harnesses use it to track token consumption across
    /// a trial series.
    pub fn last_counter(&self) -> u64 {
        self.phone.generator.counter()
    }
}

/// Where [`UnlockSession::run`] gets the fault plan for each attempt of
/// a series: one fixed plan for every attempt, or a config deriving a
/// fresh plan per attempt index. Both are `Copy`, so the options
/// stay a plain value with a single sink lifetime. The size imbalance
/// between the variants is deliberate: boxing the plan would cost
/// `Copy` and a heap allocation per options value, and options only
/// ever live transiently on the stack of an attempt.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
enum FaultSource {
    Plan(FaultPlan),
    Config(FaultConfig),
}

/// Builder-style options for [`UnlockSession::run`], the single unlock
/// entry point.
///
/// The default options run one attempt with no telemetry
/// ([`NullSink`]), no faults and no retries.
/// Each builder method switches on one dimension independently:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use wearlock::config::WearLockConfig;
/// use wearlock::environment::Environment;
/// use wearlock::session::{AttemptOptions, AttemptSummary, UnlockSession};
///
/// let mut session = UnlockSession::new(WearLockConfig::default())?;
/// let mut rng = StdRng::seed_from_u64(7);
/// let options = AttemptOptions::new().retry_budget(3);
/// let report = session.run(&Environment::default(), &options, &mut rng);
/// assert!(report.unlocked());
/// # Ok::<(), wearlock::WearLockError>(())
/// ```
#[derive(Clone, Copy)]
pub struct AttemptOptions<'a> {
    sink: &'a dyn EventSink,
    faults: FaultSource,
    retry: Option<RetryPolicy>,
}

impl std::fmt::Debug for AttemptOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttemptOptions")
            .field("sink_enabled", &self.sink.enabled())
            .field("faults", &self.faults)
            .field("retry", &self.retry)
            .finish()
    }
}

impl Default for AttemptOptions<'_> {
    fn default() -> Self {
        AttemptOptions {
            sink: &NullSink,
            faults: FaultSource::Plan(FaultPlan::none()),
            retry: None,
        }
    }
}

impl<'a> AttemptOptions<'a> {
    /// The defaults: one attempt, no telemetry, no faults, no retries.
    pub fn new() -> Self {
        AttemptOptions::default()
    }

    /// Emits every stage span, attempt event and retry decision to
    /// `sink` (default: [`NullSink`], whose disabled flag compiles the
    /// instrumentation down to a dead branch).
    pub fn sink(mut self, sink: &'a dyn EventSink) -> Self {
        self.sink = sink;
        self
    }

    /// Applies one fixed [`FaultPlan`] to every attempt of the series
    /// (default: [`FaultPlan::none()`], a strict no-op). Replaces any
    /// fault config set earlier.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultSource::Plan(plan);
        self
    }

    /// Derives a fresh [`FaultPlan`] from `config` for each attempt
    /// index of the series ([`FaultPlan::derive`]). Replaces any fixed
    /// plan set earlier.
    pub fn fault_config(mut self, config: FaultConfig) -> Self {
        self.faults = FaultSource::Config(config);
        self
    }

    /// Enables the retry ladder under `policy` (default: none — a
    /// single attempt).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Shorthand: enable retries with the default [`RetryPolicy`]
    /// capped at `max_attempts` total attempts (floored at one). Keeps
    /// an already-set policy's other knobs.
    pub fn retry_budget(mut self, max_attempts: u32) -> Self {
        let mut policy = self.retry.unwrap_or_default();
        policy.max_attempts = max_attempts.max(1);
        self.retry = Some(policy);
        self
    }
}

/// Per-attempt protocol adjustments the retry ladder accumulates:
/// escalation turns the knobs the paper's adaptive layer exposes
/// (transmit volume, BER target) instead of blindly repeating.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct AttemptTuning {
    /// Extra transmit volume on top of the noise-derived requirement,
    /// dB (clamped to the speaker ceiling).
    pub(crate) volume_boost_db: f64,
    /// Replacement MaxBER target for mode selection, if relaxed.
    pub(crate) relax_max_ber: Option<f64>,
    /// Loudest volume an earlier attempt of the series played, dB SPL
    /// (0 before any did): a boosted attempt never plays quieter, so a
    /// quieter ambient reading cannot undo an escalation.
    pub(crate) volume_floor: f64,
}

/// Budget and escalation knobs for the retry ladder of
/// [`UnlockSession::run`], set with [`AttemptOptions::retry_policy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum acoustic attempts before the ladder gives up.
    pub max_attempts: u32,
    /// First backoff duration; `0` disables backoff (and its jitter
    /// draw) entirely.
    pub base_backoff: Seconds,
    /// Multiplier applied to the backoff per further retry (≥ 1).
    pub backoff_factor: f64,
    /// Ceiling on a single backoff, pre-jitter.
    pub max_backoff: Seconds,
    /// Wall-clock budget (attempts + backoffs) after which the ladder
    /// stops retrying.
    pub total_budget: Seconds,
    /// Volume escalation step after a channel-quality denial, dB.
    pub volume_boost_db: f64,
    /// Relaxed MaxBER target escalation switches to (must satisfy
    /// `ModePolicy::new`, i.e. within (0, 0.5]).
    pub relax_max_ber: Option<f64>,
    /// Whether exhaustion falls back to manual PIN entry (which clears
    /// the lockout) rather than a plain denial.
    pub surrender_to_pin: bool,
}

impl RetryPolicy {
    /// The degenerate policy [`UnlockSession::run`] uses when no retry
    /// policy is set: exactly one attempt, no backoff (so no jitter
    /// draw), no PIN surrender.
    fn single_attempt() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Seconds(0.0),
            total_budget: Seconds(f64::INFINITY),
            surrender_to_pin: false,
            ..RetryPolicy::default()
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Seconds(0.25),
            backoff_factor: 2.0,
            max_backoff: Seconds(2.0),
            total_budget: Seconds(20.0),
            volume_boost_db: 6.0,
            relax_max_ber: Some(0.2),
            surrender_to_pin: true,
        }
    }
}

/// How a resilient unlock series ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResilientOutcome {
    /// An acoustic (or motion-skip) attempt unlocked the phone.
    Unlocked(UnlockPath),
    /// The ladder surrendered and the user entered their PIN. The
    /// phone is unlocked, but not by WearLock — degradation curves
    /// count this as an acoustic failure.
    PinFallback,
    /// Locked: denied with no PIN fallback.
    Denied(DenyReason),
}

impl ResilientOutcome {
    /// Whether *WearLock* unlocked the phone (PIN fallback is the
    /// system failing gracefully, not succeeding).
    pub fn unlocked(&self) -> bool {
        matches!(self, ResilientOutcome::Unlocked(_))
    }
}

/// Result of one [`UnlockSession::run`] series.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// How the series ended.
    pub outcome: ResilientOutcome,
    /// Every attempt's full report, in order.
    pub attempts: Vec<AttemptReport>,
    /// Wall-clock across attempts, backoffs and any PIN entry.
    pub total_delay: Seconds,
    /// Portion of `total_delay` spent backing off.
    pub backoff_delay: Seconds,
    /// Time spent on manual PIN entry, when the ladder surrendered.
    pub pin_delay: Option<Seconds>,
    /// Number of retries that escalated (volume boost / relaxed BER).
    pub escalations: u32,
}

impl ResilienceReport {
    /// The last attempt of the series — the one whose outcome decided
    /// it. Single-attempt runs (default [`AttemptOptions`]) have
    /// exactly one.
    pub fn final_attempt(&self) -> &AttemptReport {
        self.attempts
            .last()
            .expect("a series holds at least one attempt")
    }
}

/// Uniform summary view over a single attempt ([`AttemptReport`]) and
/// a whole series ([`ResilienceReport`]), so aggregation layers — the
/// fleet engine, the bench harnesses — can fold either without
/// special-casing.
pub trait AttemptSummary {
    /// Whether the series ended with WearLock unlocking the phone
    /// (acoustically or via motion skip). PIN fallback counts as
    /// `false`: it is the system failing gracefully, not succeeding.
    fn unlocked(&self) -> bool;
    /// Number of acoustic attempts made.
    fn tries(&self) -> usize;
    /// Total wall-clock from first button press to the final decision,
    /// including backoffs and any PIN entry.
    fn total_delay(&self) -> Seconds;
}

impl AttemptSummary for AttemptReport {
    fn unlocked(&self) -> bool {
        self.outcome.unlocked()
    }

    fn tries(&self) -> usize {
        1
    }

    fn total_delay(&self) -> Seconds {
        self.total_delay
    }
}

impl AttemptSummary for ResilienceReport {
    fn unlocked(&self) -> bool {
        self.outcome.unlocked()
    }

    fn tries(&self) -> usize {
        self.attempts.len()
    }

    fn total_delay(&self) -> Seconds {
        self.total_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::{Environment, MotionScenario};
    use crate::protocol::{decode_token, encode_token};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wearlock_acoustics::channel::PathKind;
    use wearlock_acoustics::noise::Location;
    use wearlock_auth::token::TokenVerifier;
    use wearlock_auth::TOKEN_BITS;
    use wearlock_dsp::units::Meters;
    use wearlock_modem::TokenCoding;
    use wearlock_sensors::Activity;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn session() -> UnlockSession {
        UnlockSession::new(WearLockConfig::default()).unwrap()
    }

    #[test]
    fn token_coding_roundtrips_at_its_coded_length() {
        for coding in [TokenCoding::Repetition(5), TokenCoding::Convolutional] {
            for token in [0, 1, 0x7fff_ffff, 0x1234_5678] {
                let coded = encode_token(coding, token);
                assert_eq!(coded.len(), coding.coded_len(TOKEN_BITS), "{coding}");
                assert_eq!(decode_token(coding, &coded), Some(token), "{coding}");
            }
            assert_eq!(decode_token(coding, &[]), None, "{coding}");
        }
    }

    /// Up to `max_attempts` escalating attempts with no faults, no
    /// backoff and no PIN surrender.
    fn flat_retries(max_attempts: u32) -> AttemptOptions<'static> {
        AttemptOptions::new().retry_policy(RetryPolicy {
            max_attempts,
            ..RetryPolicy::single_attempt()
        })
    }

    #[test]
    fn benign_close_range_unlocks() {
        let mut s = session();
        let series = s.run(&Environment::default(), &AttemptOptions::new(), &mut rng(1));
        let report = series.final_attempt();
        assert!(report.outcome.unlocked(), "{report:?}");
        assert!(report.total_delay.value() > 0.0);
    }

    #[test]
    fn no_wireless_link_denies_immediately() {
        let mut s = session();
        let env = Environment::builder().wireless_in_range(false).build();
        let series = s.run(&env, &AttemptOptions::new(), &mut rng(2));
        let report = series.final_attempt();
        assert_eq!(report.outcome, Outcome::Denied(DenyReason::NoWirelessLink));
        assert_eq!(report.total_delay.value(), 0.0);
    }

    #[test]
    fn different_motion_aborts_without_acoustics() {
        let mut s = session();
        let env = Environment::builder()
            .motion(MotionScenario::Different {
                phone: Activity::Walking,
                watch: Activity::Running,
            })
            .build();
        let series = s.run(&env, &AttemptOptions::new(), &mut rng(3));
        let report = series.final_attempt();
        assert_eq!(report.outcome, Outcome::Denied(DenyReason::MotionMismatch));
        // No acoustic phases ran.
        assert!(report.mode.is_none());
        assert!(report.psnr.is_none());
    }

    #[test]
    fn matched_walking_unlocks_via_motion_skip() {
        let mut s = session();
        let env = Environment::builder()
            .motion(MotionScenario::CoLocated {
                activity: Activity::Walking,
            })
            .build();
        let mut skips = 0;
        let mut r = rng(4);
        for _ in 0..10 {
            let series = s.run(&env, &AttemptOptions::new(), &mut r);
            let report = series.final_attempt();
            if report.outcome == Outcome::Unlocked(UnlockPath::MotionSkip) {
                skips += 1;
            }
        }
        assert!(skips >= 6, "only {skips}/10 motion skips");
    }

    #[test]
    fn far_away_phone_stays_locked() {
        let mut s = session();
        let env = Environment::builder()
            .distance(Meters(4.0))
            .location(Location::Cafe)
            .build();
        let mut r = rng(5);
        let mut unlocked = 0;
        for _ in 0..5 {
            if s.run(&env, &AttemptOptions::new(), &mut r).unlocked() {
                unlocked += 1;
            }
            // Reset lockout between trials: we measure PHY, not policy.
            s.phone.lockout.reset();
        }
        assert!(unlocked <= 1, "{unlocked}/5 unlocks at 4 m");
    }

    #[test]
    fn body_blocked_path_is_flagged_or_denied() {
        let mut s = session();
        let env = Environment::builder()
            .path(PathKind::BodyBlocked { block_db: 30.0 })
            .build();
        let mut r = rng(6);
        let mut denied = 0;
        for _ in 0..5 {
            let series = s.run(&env, &AttemptOptions::new(), &mut r);
            let report = series.final_attempt();
            if !report.outcome.unlocked() {
                denied += 1;
            }
            s.phone.lockout.reset();
        }
        assert!(denied >= 4, "only {denied}/5 denials when blocked");
    }

    #[test]
    fn lockout_after_repeated_failures() {
        let mut s = session();
        // Sabotage: make verification impossible by desyncing the keys.
        s.phone.verifier = TokenVerifier::new(&b"wrong-key"[..], 0, 3);
        let env = Environment::default();
        let mut r = rng(7);
        let mut reasons = Vec::new();
        for _ in 0..5 {
            let series = s.run(&env, &AttemptOptions::new(), &mut r);
            let rep = series.final_attempt();
            // Ignore motion skips which bypass verification.
            if rep.outcome == Outcome::Unlocked(UnlockPath::MotionSkip) {
                continue;
            }
            reasons.push(rep.outcome);
            // The resync after a rejection replaces the verifier; re-sabotage.
            s.phone.verifier = TokenVerifier::new(&b"wrong-key"[..], 0, 3);
        }
        assert!(
            reasons.contains(&Outcome::Denied(DenyReason::LockedOut)),
            "{reasons:?}"
        );
        // PIN recovers.
        s.enter_pin();
        assert!(!s.lockout().is_locked_out());
    }

    #[test]
    fn report_contains_diagnostics_on_success() {
        let mut s = session();
        let env = Environment::builder()
            .location(Location::QuietRoom)
            .distance(Meters(0.2))
            .build();
        let series = s.run(&env, &AttemptOptions::new(), &mut rng(8));
        let report = series.final_attempt();
        if let Outcome::Unlocked(UnlockPath::Acoustic(mode)) = report.outcome {
            assert!(report.psnr.is_some());
            assert!(report.ebn0.is_some());
            assert!(report.volume.is_some());
            assert!(report.measured_ber.is_some());
            assert!(!report.delays.is_empty());
            assert!(report.phone_energy_j > 0.0);
            assert_eq!(report.mode, Some(mode));
        } else {
            panic!("expected acoustic unlock, got {:?}", report.outcome);
        }
    }

    #[test]
    fn retry_series_unlocks_reliably_in_benign_env() {
        // Per-attempt success in the benign environment is high but not
        // certain; a short retry budget makes the series all but sure.
        let mut s = session();
        let env = Environment::default();
        let mut r = rng(11);
        let mut series_ok = 0;
        let mut used_extra_tries = false;
        for _ in 0..6 {
            let rep = s.run(&env, &flat_retries(4), &mut r);
            if rep.unlocked() {
                series_ok += 1;
            }
            if rep.tries() > 1 {
                used_extra_tries = true;
            }
            s.enter_pin();
        }
        assert!(series_ok >= 5, "retry series unlocked {series_ok}/6");
        // Not asserting used_extra_tries: benign attempts may all
        // succeed first try; the variable documents intent.
        let _ = used_extra_tries;
    }

    #[test]
    fn retries_stop_immediately_on_unfixable_denials() {
        let mut s = session();
        let env = Environment::builder().wireless_in_range(false).build();
        let rep = s.run(&env, &flat_retries(6), &mut rng(12));
        assert_eq!(rep.tries(), 1);
        assert!(!rep.unlocked());
    }

    #[test]
    fn retry_report_accumulates_delay() {
        let mut s = session();
        let env = Environment::default();
        let rep = s.run(&env, &flat_retries(3), &mut rng(13));
        let sum: f64 = rep.attempts.iter().map(|a| a.total_delay.value()).sum();
        assert!((rep.total_delay.value() - sum).abs() < 1e-12);
    }

    #[test]
    fn default_options_run_exactly_one_attempt() {
        let mut s = session();
        let series = s.run(
            &Environment::default(),
            &AttemptOptions::new(),
            &mut rng(14),
        );
        assert_eq!(series.attempts.len(), 1);
        assert_eq!(series.escalations, 0);
        assert_eq!(series.pin_delay, None);
        assert_eq!(
            series.total_delay.value().to_bits(),
            series.final_attempt().total_delay.value().to_bits()
        );
    }

    #[test]
    fn phase2_demodulator_threshold_matches_phase1() {
        // Both phases must detect at the same bar, or a weak-but-passing
        // phase-1 preamble could be rejected in phase 2: the receiver has
        // one threshold, a constant, for every channel set.
        assert_eq!(wearlock_modem::demodulator::DETECTION_THRESHOLD, 0.3);
    }

    #[test]
    fn early_denial_reports_no_data_channels() {
        let mut s = session();
        let env = Environment::builder()
            .motion(MotionScenario::Different {
                phone: Activity::Walking,
                watch: Activity::Running,
            })
            .build();
        let series = s.run(&env, &AttemptOptions::new(), &mut rng(3));
        let report = series.final_attempt();
        assert_eq!(report.outcome, Outcome::Denied(DenyReason::MotionMismatch));
        // Phase 2 never ran: no data channels to report.
        assert!(report.data_channels.is_empty(), "{report:?}");
        // A full acoustic unlock does report them.
        let series = s.run(&Environment::default(), &AttemptOptions::new(), &mut rng(1));
        let ok = series.final_attempt();
        assert!(ok.outcome.unlocked(), "{ok:?}");
        assert!(!ok.data_channels.is_empty());
    }

    #[test]
    fn null_faults_match_plain_attempt() {
        // The null-fault contract at the unit level: a plan with every
        // fault disabled makes the identical random draws, so the full
        // diagnostic report of the series is byte-for-byte the same.
        let mut plain = session();
        let mut faulted = session();
        let env = Environment::default();
        let a = plain.run(&env, &AttemptOptions::new(), &mut rng(21));
        let b = faulted.run(
            &env,
            &AttemptOptions::new().fault_plan(FaultPlan::none()),
            &mut rng(21),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn link_drop_fault_denies_between_phases() {
        let mut s = session();
        let faults = FaultPlan {
            link: wearlock_faults::LinkFaults {
                drop_after_phase1: true,
                ..wearlock_faults::LinkFaults::none()
            },
            ..FaultPlan::none()
        };
        // The drop can only bite when the attempt reaches phase 2, so
        // skip motion-skip unlocks and early denials.
        let mut r = rng(22);
        for _ in 0..6 {
            let options = AttemptOptions::new().fault_plan(faults);
            let series = s.run(&Environment::default(), &options, &mut r);
            let rep = series.final_attempt();
            s.phone.lockout.reset();
            if rep.psnr.is_some() && !rep.outcome.unlocked() {
                assert_eq!(rep.outcome, Outcome::Denied(DenyReason::LinkDropped));
                // Phase 1 diagnostics survive; no mode was ever chosen.
                assert!(rep.ebn0.is_some());
                assert!(rep.mode.is_none());
                return;
            }
        }
        panic!("no attempt reached the phase boundary");
    }

    #[test]
    fn resilient_hard_denial_stops_without_pin() {
        let mut s = session();
        let env = Environment::builder().wireless_in_range(false).build();
        let rep = s.run(
            &env,
            &AttemptOptions::new()
                .fault_config(FaultConfig::none())
                .retry_policy(RetryPolicy::default()),
            &mut rng(23),
        );
        assert_eq!(rep.tries(), 1);
        assert_eq!(
            rep.outcome,
            ResilientOutcome::Denied(DenyReason::NoWirelessLink)
        );
        assert!(rep.pin_delay.is_none());
        assert!(!rep.unlocked());
    }

    #[test]
    fn resilient_exhaustion_surrenders_to_pin() {
        use wearlock_faults::{FaultConfig, FaultIntensity};
        // Full-intensity faults over an already-marginal channel (4 m
        // in a cafe, same as `far_away_phone_stays_locked`): the series
        // should regularly exhaust its budget and fall back to PIN;
        // whenever it does, the PIN entry must appear in the total
        // delay and the lockout must be cleared.
        let env = Environment::builder()
            .distance(Meters(4.0))
            .location(Location::Cafe)
            .build();
        let mut surrendered = 0;
        for seed in 0..8u64 {
            let mut s = session();
            let faults = FaultConfig::new(seed, FaultIntensity::uniform(1.0));
            let rep = s.run(
                &env,
                &AttemptOptions::new()
                    .fault_config(faults)
                    .retry_policy(RetryPolicy::default()),
                &mut rng(100 + seed),
            );
            if rep.outcome == ResilientOutcome::PinFallback {
                surrendered += 1;
                let pin = rep.pin_delay.expect("surrender records pin time").value();
                assert!(pin > 0.0);
                let parts: f64 = rep.attempts.iter().map(|a| a.total_delay.value()).sum();
                assert!(
                    (rep.total_delay.value() - (parts + rep.backoff_delay.value() + pin)).abs()
                        < 1e-9,
                    "{rep:?}"
                );
                assert!(!s.lockout().is_locked_out());
            }
            assert!(rep.tries() <= RetryPolicy::default().max_attempts as usize);
        }
        assert!(surrendered >= 2, "only {surrendered}/8 series surrendered");
    }

    #[test]
    fn resilient_retries_escalate_after_channel_denials() {
        use wearlock_faults::{FaultConfig, FaultIntensity};
        // Acoustic-only faults produce channel-quality denials; any
        // retry after one must run at a boosted volume (visible in the
        // per-attempt reports — later attempts are never quieter).
        let mut saw_escalation = false;
        for seed in 0..10u64 {
            let mut s = session();
            let faults = FaultConfig::new(seed, FaultIntensity::new(1.0, 0.0, 0.0));
            let rep = s.run(
                &Environment::default(),
                &AttemptOptions::new()
                    .fault_config(faults)
                    .retry_policy(RetryPolicy::default()),
                &mut rng(200 + seed),
            );
            if rep.escalations > 0 {
                saw_escalation = true;
                let vols: Vec<f64> = rep
                    .attempts
                    .iter()
                    .filter_map(|a| a.volume.map(|v| v.value()))
                    .collect();
                for w in vols.windows(2) {
                    assert!(w[1] >= w[0] - 1e-9, "volume decreased: {vols:?}");
                }
            }
        }
        assert!(saw_escalation, "no series ever escalated");
    }

    #[test]
    fn backoff_jitter_stays_in_envelope() {
        use std::sync::Mutex;
        use wearlock_faults::{FaultConfig, FaultIntensity};

        #[derive(Default)]
        struct RetryLog(Mutex<Vec<RetryEvent>>);
        impl EventSink for RetryLog {
            fn record_span(&self, _: &StageSpan<'_>) {}
            fn record_attempt(&self, _: &AttemptEvent) {}
            fn record_retry(&self, e: &RetryEvent) {
                self.0.lock().unwrap().push(*e);
            }
        }

        let policy = RetryPolicy::default();
        let log = RetryLog::default();
        let mut events = Vec::new();
        for seed in 0..6u64 {
            let mut s = session();
            let faults = FaultConfig::new(seed, FaultIntensity::uniform(0.8));
            s.run(
                &Environment::default(),
                &AttemptOptions::new()
                    .fault_config(faults)
                    .retry_policy(policy)
                    .sink(&log),
                &mut rng(seed),
            );
            events.append(&mut log.0.lock().unwrap());
        }
        assert!(!events.is_empty(), "stressed series produced no retries");
        for e in &events {
            match e.action {
                RetryAction::Surrender => assert_eq!(e.backoff_s, 0.0),
                _ => {
                    // capped·[0.5, 1.5) with base 0.25 and cap 2.0.
                    assert!(
                        e.backoff_s >= policy.base_backoff.value() * 0.5
                            && e.backoff_s < policy.max_backoff.value() * 1.5,
                        "backoff {e:?} outside envelope"
                    );
                }
            }
            assert!(e.attempt >= 1 && e.attempt <= policy.max_attempts);
        }
    }

    #[test]
    fn quiet_room_uses_higher_order_than_grocery() {
        // Adaptive modulation: more SNR headroom → higher order mode.
        let mut r = rng(9);
        let mode_at = |loc: Location, r: &mut StdRng| -> Option<TransmissionMode> {
            let mut s = session();
            let env = Environment::builder()
                .location(loc)
                .distance(Meters(0.3))
                .build();
            s.run(&env, &AttemptOptions::new(), r).final_attempt().mode
        };
        let quiet = mode_at(Location::QuietRoom, &mut r);
        assert_eq!(quiet, Some(TransmissionMode::Psk8), "quiet: {quiet:?}");
    }
}
