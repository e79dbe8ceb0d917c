//! End-to-end tests of the streaming flight runtime: trigger → alert on
//! an injected burst, kill + restore mid-burst, forced degradation, and
//! stream/batch localization equivalence.

use adapt_core::pipeline::{Pipeline, PipelineMode};
use adapt_core::training::{TrainedModels, TrainingCampaignConfig};
use adapt_math::{angular_separation, deg_to_rad, UnitVec3};
use adapt_onboard::runtime::{DegradationLevel, FlightRuntime, RuntimeConfig};
use adapt_onboard::Checkpoint;
use adapt_recon::can_sequence;
use adapt_sim::{FlightProfile, GrbConfig, PerturbationConfig, StreamConfig, StreamingSource};
use adapt_telemetry::{Counter, FlightRecorder, LiveObserver, SloConfig};
use std::sync::OnceLock;

fn models() -> &'static TrainedModels {
    static MODELS: OnceLock<TrainedModels> = OnceLock::new();
    // Disk-cached (debug-mode training is minutes): delete
    // target/adapt-onboard-test-models.json to force a retrain.
    MODELS.get_or_init(|| {
        TrainedModels::load_or_train(
            std::path::Path::new("../../target/adapt-onboard-test-models.json"),
            &TrainingCampaignConfig::fast(),
            17,
        )
    })
}

/// A flat-rate stream at float altitude (late in the checkout profile)
/// with a bright zenith burst injected at `t_onset_s`.
fn burst_stream(duration_s: f64, t_onset_s: f64, fluence: f64) -> StreamConfig {
    let mut config = StreamConfig::new(FlightProfile::checkout_2h(), duration_s)
        .with_burst(t_onset_s, GrbConfig::new(fluence, 0.0));
    config.start_h = 1.9; // float: multiplier ~1, flat over a short stream
    config.background.particle_fluence = adapt_onboard::FLIGHT_NOMINAL_FLUENCE;
    config
}

#[test]
fn injected_burst_emits_exactly_one_alert() {
    let config = burst_stream(8.0, 4.0, 1.0);
    let source = StreamingSource::new(config, 0xA1E7);
    let runtime = FlightRuntime::new(models(), RuntimeConfig::default());
    let report = runtime.run(source);

    assert_eq!(
        report.alerts.len(),
        1,
        "one injected burst must produce exactly one alert, got {:?}",
        report.alerts
    );
    let alert = &report.alerts[0];
    assert!(
        (alert.t_trigger_s - 4.0).abs() < 1.0,
        "trigger time {} should sit on the onset",
        alert.t_trigger_s
    );
    assert!(alert.significance_sigma >= 7.0);
    assert!(alert.rings > 0);
    assert!(alert.containment_radius_deg > 0.0 && alert.containment_radius_deg <= 180.0);
    assert!(report.ingest_stats.pushed > 0);
    assert_eq!(
        report.ingest_stats.dropped, 0,
        "no shedding at nominal rate"
    );
    assert!(!report.killed);
}

#[test]
fn steady_background_stays_silent() {
    let mut config = burst_stream(6.0, 3.0, 1.0);
    config.bursts.clear();
    let source = StreamingSource::new(config, 0xA1E8);
    let runtime = FlightRuntime::new(models(), RuntimeConfig::default());
    let report = runtime.run(source);
    assert!(
        report.alerts.is_empty(),
        "no burst, no alert: got {:?}",
        report.alerts
    );
}

#[test]
fn kill_and_restore_mid_burst_still_alerts() {
    let dir = std::env::temp_dir().join("adapt-onboard-restore-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_path = dir.join("flight.ckpt.json");
    std::fs::remove_file(&ckpt_path).ok();

    let seed = 0xA1E9;
    let config = burst_stream(8.0, 4.0, 1.0);
    // pinned to full-ml, so the alert is a pure function of the seeds
    let deterministic = RuntimeConfig {
        deterministic: true,
        ..RuntimeConfig::default()
    };

    // First process: killed right after the burst onset, before the
    // epoch's post-window can close — the alert cannot have been emitted.
    let rc = RuntimeConfig {
        checkpoint_path: Some(ckpt_path.clone()),
        kill_at_s: Some(4.3),
        ..deterministic.clone()
    };
    let runtime = FlightRuntime::new(models(), rc);
    let report = runtime.run(StreamingSource::new(config.clone(), seed));
    assert!(report.killed);
    assert!(report.checkpoint_written, "kill must leave a checkpoint");
    assert!(
        report.alerts.is_empty(),
        "killed before the epoch closed: {:?}",
        report.alerts
    );

    // Second process: same stream config + seed, restored from the
    // checkpoint. The epoch survives the restart and the alert lands.
    let ckpt = Checkpoint::load(&ckpt_path).unwrap();
    assert!(ckpt.t_s >= 4.0, "checkpoint covers the onset");
    let open = ckpt
        .trigger
        .open_epoch()
        .expect("the checkpoint carries the open epoch");
    assert!(!open.events.is_empty());
    assert!(
        open.events.iter().all(|e| can_sequence(e.hits.len())),
        "the open epoch buffers only sequenceable events"
    );
    let runtime = FlightRuntime::new(models(), deterministic.clone());
    let report = runtime.resume(StreamingSource::new(config.clone(), seed), ckpt);
    assert_eq!(
        report.alerts.len(),
        1,
        "restored runtime must still produce the burst alert: {:?}",
        report.alerts
    );
    std::fs::remove_file(&ckpt_path).ok();

    // ...and it is the alert of a run that was never interrupted
    let uninterrupted =
        FlightRuntime::new(models(), deterministic).run(StreamingSource::new(config, seed));
    assert_eq!(uninterrupted.alerts.len(), 1);
    let (got, want) = (&report.alerts[0], &uninterrupted.alerts[0]);
    assert!((got.t_trigger_s - 4.0).abs() < 1.0);
    assert_eq!(got.t_trigger_s.to_bits(), want.t_trigger_s.to_bits());
    assert_eq!(got.polar_deg.to_bits(), want.polar_deg.to_bits());
    assert_eq!(got.azimuth_deg.to_bits(), want.azimuth_deg.to_bits());
    assert_eq!(
        got.containment_radius_deg.to_bits(),
        want.containment_radius_deg.to_bits()
    );
    assert_eq!(got.rings, want.rings);
    assert_eq!(got.surviving_rings, want.surviving_rings);
    assert_eq!(got.mode, want.mode);
}

#[test]
fn impossible_deadline_degrades_to_classical() {
    let config = burst_stream(8.0, 4.0, 1.0);
    let source = StreamingSource::new(config, 0xA1EA);
    // No level's cost estimate fits a fraction of a millisecond: the
    // scheduler must fall to the classical floor rather than miss.
    let rc = RuntimeConfig {
        deadline_ms: 0.01,
        ..RuntimeConfig::default()
    };
    let recorder = FlightRecorder::new();
    let live = LiveObserver::new(1.0, SloConfig::default());
    let runtime = FlightRuntime::new(models(), rc)
        .with_recorder(&recorder)
        .with_live(&live);
    let report = runtime.run(source);

    assert_eq!(report.alerts.len(), 1);
    assert_eq!(report.alerts[0].mode, DegradationLevel::Classical);
    assert!(
        !report.transitions.is_empty(),
        "falling from the initial full-ml level is a recorded transition"
    );
    let t = &report.transitions[0];
    assert_eq!(t.from, "full-ml");
    assert_eq!(t.to, "classical");
    assert_eq!(t.reason, "deadline-budget");
    assert_live_matches_recorder(&recorder, &live, report.alerts.len(), 1);
}

/// The live registry is a projection of the recorder: every counter
/// agrees under its derived name, alerts are counted once per alerting
/// stream, and the alert-latency histogram saw every alert.
fn assert_live_matches_recorder(
    recorder: &FlightRecorder,
    live: &LiveObserver,
    alerts: usize,
    alerting_streams: usize,
) {
    let snap = live.registry().snapshot();
    for c in Counter::ALL {
        let name = format!("adapt_{}_total", c.name());
        assert_eq!(
            snap.counter_total(&name),
            recorder.counter(c) as f64,
            "{name} disagrees with the recorder"
        );
    }
    let per_stream: Vec<_> = snap
        .samples
        .iter()
        .filter(|s| s.name == "adapt_alerts_emitted_total")
        .collect();
    assert_eq!(per_stream.len(), alerting_streams, "one series per stream");
    assert!(per_stream
        .iter()
        .all(|s| s.labels.iter().any(|(k, _)| k == "stream")));
    let emitted: f64 = per_stream.iter().map(|s| s.value).sum();
    assert_eq!(emitted, alerts as f64);
    let latency = snap
        .find("adapt_alert_latency_ms")
        .and_then(|s| s.hist.as_ref())
        .expect("alert latency histogram");
    assert_eq!(latency.count, alerts as u64);
}

/// Satellite 3: with no deadline pressure the streaming runtime's
/// localization of an injected burst must agree with the batched
/// pipeline on the same physics — both land within a loose containment
/// of the true direction, and within tolerance of each other.
#[test]
fn stream_localization_matches_batched_pipeline() {
    let fluence = 1.0;
    let config = burst_stream(8.0, 4.0, fluence);
    let source = StreamingSource::new(config, 0xA1EB);
    let rc = RuntimeConfig {
        deadline_ms: 60_000.0, // no pressure: the full ML loop runs
        ..RuntimeConfig::default()
    };
    let runtime = FlightRuntime::new(models(), rc);
    let report = runtime.run(source);

    assert_eq!(report.alerts.len(), 1);
    let alert = &report.alerts[0];
    assert_eq!(alert.mode, DegradationLevel::FullMl);
    let stream_dir =
        UnitVec3::from_spherical(deg_to_rad(alert.polar_deg), deg_to_rad(alert.azimuth_deg));
    let true_dir = UnitVec3::from_spherical(0.0, 0.0);
    let stream_err = angular_separation(stream_dir, true_dir);

    let pipeline = Pipeline::new(models());
    let grb = GrbConfig::new(fluence, 0.0);
    let batch = pipeline.run_trial(
        PipelineMode::Ml,
        &grb,
        PerturbationConfig::default(),
        0xA1EB,
    );
    assert!(batch.localized);

    assert!(
        stream_err < 12.0,
        "stream localization off by {stream_err:.2}° (batch: {:.2}°)",
        batch.error_deg
    );
    assert!(
        (stream_err - batch.error_deg).abs() < 10.0,
        "stream ({stream_err:.2}°) and batch ({:.2}°) disagree beyond tolerance",
        batch.error_deg
    );
}

/// PR 10: the containment radius is tagged with its estimator. Only the
/// coarse-skymap rung rasterizes a posterior (on either pixelization);
/// every other rung falls back to the pointwise heuristic.
#[test]
fn containment_source_tracks_the_degradation_rung() {
    use adapt_localize::{InferenceWorkspace, SkyPixelization};
    use adapt_onboard::runtime::{ContainmentSource, EpochLocalizer};
    use adapt_onboard::OpenEpoch;
    use rand::SeedableRng;

    // Harvest a burst window's events straight off the stream so the
    // epoch is the same physics the runtime would localize.
    let config = burst_stream(8.0, 4.0, 1.0);
    let source = StreamingSource::new(config, 0xA1EC);
    let events: Vec<_> = source
        .filter(|e| (3.9..6.0).contains(&e.t_s))
        .map(|e| e.event)
        .collect();
    assert!(
        events.len() > 100,
        "burst window too thin: {}",
        events.len()
    );
    let epoch = OpenEpoch {
        t_trigger_s: 4.0,
        significance_sigma: 9.0,
        width_s: 1.0,
        collect_until_s: 6.0,
        events,
    };

    let m = models();
    let compiled = adapt_nn::CompiledMlp::compile(&m.background);
    let mut ws = InferenceWorkspace::new();
    for pixelization in SkyPixelization::ALL {
        let localizer =
            EpochLocalizer::new(m, &compiled, 2, 256, pixelization, adapt_telemetry::noop());

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC0FF);
        let out = localizer
            .localize_epoch(&epoch, DegradationLevel::CoarseSkymap, &mut rng, &mut ws)
            .expect("sky-map rung localizes a non-empty epoch");
        assert_eq!(out.level, DegradationLevel::CoarseSkymap);
        assert_eq!(out.containment_source, ContainmentSource::Skymap);
        assert!(out.containment_radius_deg > 0.0 && out.containment_radius_deg <= 180.0);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC0FF);
        let out = localizer
            .localize_epoch(&epoch, DegradationLevel::FullMl, &mut rng, &mut ws)
            .expect("full-ml rung localizes");
        assert_eq!(out.containment_source, ContainmentSource::Heuristic);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC0FF);
        let out = localizer
            .localize_epoch(&epoch, DegradationLevel::Classical, &mut rng, &mut ws)
            .expect("classical rung localizes");
        assert_eq!(out.containment_source, ContainmentSource::Heuristic);
    }
}
