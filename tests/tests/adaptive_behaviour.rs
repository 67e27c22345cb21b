//! Cross-crate behaviour of the adaptive machinery: modulation choice,
//! sub-channel agility, offloading and the live mode.

use wearlock::config::{ExecutionPlan, NamedConfig, WearLockConfig};
use wearlock::environment::{Environment, MotionScenario};
use wearlock::live::run_live_session;
use wearlock::session::{AttemptOptions, DenyReason, Outcome, UnlockPath, UnlockSession};
use wearlock_acoustics::channel::PathKind;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;
use wearlock_modem::TransmissionMode;
use wearlock_sensors::Activity;
use wearlock_tests::rng;

#[test]
fn quiet_close_range_prefers_high_order() {
    let mut session = UnlockSession::new(WearLockConfig::default()).unwrap();
    let mut r = rng(200);
    let env = Environment::builder()
        .location(Location::QuietRoom)
        .distance(Meters(0.2))
        .build();
    let mut psk8 = 0;
    let mut trials = 0;
    for _ in 0..6 {
        let series = session.run(&env, &AttemptOptions::new(), &mut r);
        let rep = series.final_attempt();
        if let Some(mode) = rep.mode {
            trials += 1;
            if mode == TransmissionMode::Psk8 {
                psk8 += 1;
            }
        }
        session.enter_pin();
    }
    assert!(trials > 0);
    assert!(psk8 * 2 > trials, "8PSK chosen {psk8}/{trials}");
}

#[test]
fn tighter_ber_target_downgrades_modulation() {
    let mut r = rng(201);
    let env = Environment::builder()
        .location(Location::QuietRoom)
        .distance(Meters(0.3))
        .build();

    let mode_with_target = |max_ber: f64, r: &mut rand::rngs::StdRng| {
        let config = WearLockConfig::builder().max_ber(max_ber).build().unwrap();
        let mut session = UnlockSession::new(config).unwrap();
        let mut modes = Vec::new();
        for _ in 0..4 {
            if let Some(m) = session
                .run(&env, &AttemptOptions::new(), r)
                .final_attempt()
                .mode
            {
                modes.push(m);
            }
            session.enter_pin();
        }
        modes
    };

    let loose = mode_with_target(0.1, &mut r);
    let tight = mode_with_target(0.01, &mut r);
    assert!(loose.contains(&TransmissionMode::Psk8), "{loose:?}");
    // 8PSK's error floor exceeds 0.01: never selectable at the tight
    // target.
    assert!(
        tight.iter().all(|m| *m != TransmissionMode::Psk8),
        "{tight:?}"
    );
}

#[test]
fn all_named_configs_unlock() {
    let mut r = rng(202);
    for named in NamedConfig::ALL {
        let config = WearLockConfig::builder().named(named).build().unwrap();
        let mut session = UnlockSession::new(config).unwrap();
        let mut ok = 0;
        for _ in 0..4 {
            if session
                .run(&Environment::default(), &AttemptOptions::new(), &mut r)
                .outcome
                .unlocked()
            {
                ok += 1;
            }
            session.enter_pin();
        }
        assert!(ok >= 2, "{named}: {ok}/4 unlocks");
    }
}

#[test]
fn local_plan_charges_watch_offload_charges_phone() {
    let mut r = rng(203);
    let local_cfg = WearLockConfig::builder()
        .named(NamedConfig::Config3)
        .build()
        .unwrap();
    assert_eq!(local_cfg.plan(), ExecutionPlan::LocalOnWatch);
    let mut session = UnlockSession::new(local_cfg).unwrap();
    let series = session.run(&Environment::default(), &AttemptOptions::new(), &mut r);
    let rep = series.final_attempt();
    if rep.mode.is_some() {
        assert!(
            rep.watch_energy_j > rep.phone_energy_j,
            "local plan: watch {} phone {}",
            rep.watch_energy_j,
            rep.phone_energy_j
        );
    }

    let off_cfg = WearLockConfig::builder()
        .named(NamedConfig::Config1)
        .build()
        .unwrap();
    assert_eq!(off_cfg.plan(), ExecutionPlan::OffloadToPhone);
    let mut session = UnlockSession::new(off_cfg).unwrap();
    let series = session.run(&Environment::default(), &AttemptOptions::new(), &mut r);
    let rep = series.final_attempt();
    if rep.mode.is_some() {
        assert!(
            rep.phone_energy_j > rep.watch_energy_j,
            "offload plan: watch {} phone {}",
            rep.watch_energy_j,
            rep.phone_energy_j
        );
    }
}

#[test]
fn live_two_thread_session_agrees_with_simulated() {
    // Both drivers run the same phone and watch steps, so environments
    // whose outcome is clear-cut must end the same way in each: a
    // benign unlock, a motion mismatch, no wireless link, and a body-
    // blocked path the acoustic checks deny.
    let config = WearLockConfig::default();
    let cases = [
        Environment::default(),
        Environment::builder()
            .motion(MotionScenario::Different {
                phone: Activity::Walking,
                watch: Activity::Running,
            })
            .build(),
        Environment::builder().wireless_in_range(false).build(),
        Environment::builder()
            .path(PathKind::BodyBlocked { block_db: 30.0 })
            .build(),
    ];
    for (seed, env) in (777..).zip(&cases) {
        let live = run_live_session(&config, env, seed).unwrap().outcome;
        let mut session = UnlockSession::new(config.clone()).unwrap();
        let simulated = session
            .run(env, &AttemptOptions::new(), &mut rng(seed))
            .final_attempt()
            .outcome;
        // Each driver draws its own channel, so the mode may differ,
        // and so may which acoustic check denies a blocked path (the
        // NLOS screen on most draws, preamble detection or the mode
        // decision on the rest).
        let acoustic = |reason| {
            matches!(
                reason,
                DenyReason::ProbeNotDetected | DenyReason::NlosDetected | DenyReason::SnrTooLow
            )
        };
        let agree = match (live, simulated) {
            (
                Outcome::Unlocked(UnlockPath::Acoustic(_)),
                Outcome::Unlocked(UnlockPath::Acoustic(_)),
            ) => true,
            (Outcome::Denied(a), Outcome::Denied(b)) if acoustic(a) && acoustic(b) => true,
            (live, simulated) => live == simulated,
        };
        assert!(agree, "{env:?}: live {live:?}, simulated {simulated:?}");
    }
}

#[test]
fn subchannel_selection_changes_channels_under_jamming() {
    use rand::Rng;
    use wearlock_acoustics::noise::NoiseModel;
    use wearlock_dsp::units::Spl;

    // Modem-level check: jam three default data channels, and noise-
    // driven selection over the probe's noise spectrum must move off
    // them. The session's gain-weighted selection is covered by the
    // watch role's own test.
    let cfg = WearLockConfig::default();
    let modem = cfg.modem().clone();
    let jammed: Vec<usize> = vec![16, 20, 24];
    let noise = NoiseModel::Mixture(vec![
        NoiseModel::White { spl: Spl(20.0) },
        NoiseModel::Tones {
            freqs: jammed.iter().map(|&k| modem.channel_frequency(k)).collect(),
            spl: Spl(55.0),
        },
    ]);
    let mut r = rng(204);
    let link = wearlock_acoustics::channel::AcousticLink::builder()
        .distance(Meters(0.15))
        .noise(noise)
        .build()
        .unwrap();
    let tx = wearlock_modem::OfdmModulator::new(modem.clone()).unwrap();
    let rx = wearlock_modem::OfdmDemodulator::new(modem.clone()).unwrap();
    let mut probe = Vec::new();
    tx.probe(2, &mut wearlock_modem::TxScratch::new(), &mut probe)
        .unwrap();
    let probe_rec = link.transmit(&probe, Spl(68.0), &mut r);
    let report = rx
        .analyze_probe(&probe_rec, &mut wearlock_modem::DemodScratch::new())
        .unwrap();
    let sel = wearlock_modem::subchannel::select_data_channels(&modem, &report.noise_spectrum, 12)
        .unwrap();
    for j in jammed {
        assert!(
            !sel.data_channels.contains(&j),
            "jammed channel {j} still selected: {:?}",
            sel.data_channels
        );
    }
    let _ = r.gen::<u8>();
}
