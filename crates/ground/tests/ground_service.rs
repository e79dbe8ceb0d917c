//! End-to-end tests of the multi-tenant ground service: deterministic
//! replay across pool geometries, bit-identity against the single-stream
//! flight runtime, forced degradation through the shared ladder, and
//! alert fan-out through the service, watched live.

use adapt_core::training::{TrainedModels, TrainingCampaignConfig};
use adapt_ground::{
    GroundConfig, GroundService, StreamSpec, SubscriberFilter, SubscriberPopulation,
};
use adapt_onboard::runtime::{DegradationLevel, FlightRuntime, RuntimeConfig};
use adapt_sim::{FlightProfile, GrbConfig, StreamConfig, StreamingSource};
use adapt_telemetry::{Counter, FlightRecorder, LiveObserver, SloConfig};
use std::sync::OnceLock;

fn models() -> &'static TrainedModels {
    static MODELS: OnceLock<TrainedModels> = OnceLock::new();
    // Shares the onboard test cache: delete
    // target/adapt-onboard-test-models.json to force a retrain.
    MODELS.get_or_init(|| {
        TrainedModels::load_or_train(
            std::path::Path::new("../../target/adapt-onboard-test-models.json"),
            &TrainingCampaignConfig::fast(),
            17,
        )
    })
}

/// A flat-rate float-altitude stream with one bright burst, matching the
/// single-stream runtime tests.
fn burst_stream(duration_s: f64, t_onset_s: f64, polar_deg: f64) -> StreamConfig {
    let mut config = StreamConfig::new(FlightProfile::checkout_2h(), duration_s)
        .with_burst(t_onset_s, GrbConfig::new(1.0, polar_deg));
    config.start_h = 1.9;
    config.background.particle_fluence = adapt_onboard::FLIGHT_NOMINAL_FLUENCE;
    config
}

fn small_fleet() -> Vec<StreamSpec> {
    (0..3)
        .map(|i| StreamSpec {
            id: i,
            config: burst_stream(8.0, 3.0 + i as f64, (i as f64) * 20.0),
            source_seed: 0xA1E7 + i as u64,
            localizer_seed: 0x0B0A_4D5E ^ (i as u64) << 7,
        })
        .collect()
}

fn deterministic_config(workers: usize, shards: usize) -> GroundConfig {
    GroundConfig {
        workers,
        ingest_shards: shards,
        deterministic: true,
        deadline_ms: 60_000.0,
        ..GroundConfig::default()
    }
}

/// Satellite: the same per-stream seeds must produce a bit-identical
/// alert set regardless of pool worker count, ingest sharding, or steal
/// order. Pull-based ingest is structurally lossless, so every geometry
/// (sharded ingest included) must also report zero dropped events.
#[test]
fn replay_is_bit_identical_across_pool_geometries() {
    let service = |workers, shards| {
        GroundService::new(models(), deterministic_config(workers, shards)).run(small_fleet(), None)
    };
    let baseline = service(1, 1);
    assert!(
        baseline.alerts.len() >= 3,
        "each of the 3 burst streams must alert: got {}",
        baseline.alerts.len()
    );
    assert_eq!(baseline.events_dropped, 0);
    let baseline_keys: Vec<_> = baseline
        .alerts
        .iter()
        .map(|a| a.deterministic_key())
        .collect();
    for (workers, shards) in [(4, 2), (3, 3), (2, 1)] {
        let report = service(workers, shards);
        assert_eq!(
            report.events_dropped, 0,
            "{workers} workers x {shards} shards dropped events"
        );
        let keys: Vec<_> = report
            .alerts
            .iter()
            .map(|a| a.deterministic_key())
            .collect();
        assert_eq!(
            keys, baseline_keys,
            "{workers} workers x {shards} shards diverged from the 1x1 replay"
        );
    }
}

/// Tentpole acceptance: a stream served by the pool produces alerts
/// bit-identical to the same stream run alone through the single-stream
/// flight runtime with the same seeds.
#[test]
fn pool_localizations_match_single_stream_flight_runtime() {
    let config = burst_stream(8.0, 4.0, 0.0);
    let source_seed = 0xA1E7;
    let localizer_seed = 0x0B0A_4D5E;

    let rc = RuntimeConfig {
        deadline_ms: 60_000.0, // no pressure: full-ml, like deterministic mode
        seed: localizer_seed,
        ..RuntimeConfig::default()
    };
    let flight =
        FlightRuntime::new(models(), rc).run(StreamingSource::new(config.clone(), source_seed));
    assert!(!flight.alerts.is_empty());

    let spec = StreamSpec {
        id: 0,
        config,
        source_seed,
        localizer_seed,
    };
    let ground = GroundService::new(models(), deterministic_config(2, 1)).run(vec![spec], None);

    assert_eq!(ground.alerts.len(), flight.alerts.len());
    for (g, f) in ground.alerts.iter().zip(&flight.alerts) {
        assert_eq!(g.alert.t_trigger_s.to_bits(), f.t_trigger_s.to_bits());
        assert_eq!(
            g.alert.significance_sigma.to_bits(),
            f.significance_sigma.to_bits()
        );
        assert_eq!(g.alert.polar_deg.to_bits(), f.polar_deg.to_bits());
        assert_eq!(g.alert.azimuth_deg.to_bits(), f.azimuth_deg.to_bits());
        assert_eq!(
            g.alert.containment_radius_deg.to_bits(),
            f.containment_radius_deg.to_bits()
        );
        assert_eq!(g.alert.mode, f.mode);
        assert_eq!(g.alert.rings, f.rings);
        assert_eq!(g.alert.surviving_rings, f.surviving_rings);
    }
}

/// Alerts flow through the fan-out layer: an all-sky subscriber hears
/// every alert, a disjoint-sky subscriber hears none.
#[test]
fn service_fans_alerts_out_to_matching_subscribers() {
    let all_sky = SubscriberFilter {
        polar_deg: 45.0,
        azimuth_deg: 0.0,
        radius_deg: 180.0,
        max_containment_deg: 180.0,
        min_significance_sigma: 0.0,
        require_skymap_containment: false,
    };
    let nobody = SubscriberFilter {
        min_significance_sigma: 1e9,
        ..all_sky.clone()
    };
    let population = SubscriberPopulation::new(vec![all_sky, nobody], 64);
    let recorder = FlightRecorder::new();
    let live = LiveObserver::new(1.0, SloConfig::default());
    let report = GroundService::new(models(), deterministic_config(2, 2))
        .with_recorder(&recorder)
        .with_live(&live)
        .run(small_fleet(), Some(&population));

    assert!(!report.alerts.is_empty());
    assert_eq!(
        population.stats().delivered,
        report.alerts.len() as u64,
        "the all-sky subscriber hears every alert exactly once"
    );
    assert_eq!(population.stats().shed, 0);
    assert_eq!(population.drain(0).len(), report.alerts.len());
    assert!(population.drain(1).is_empty());

    let mut streams: Vec<usize> = report.alerts.iter().map(|a| a.stream_id).collect();
    streams.dedup(); // alerts are sorted by stream
    assert_live_matches_recorder(&recorder, &live, report.alerts.len(), streams.len());
    let fanned = live
        .registry()
        .snapshot()
        .counter_total("adapt_alerts_fanned_out_total");
    assert_eq!(fanned, report.alerts.len() as f64);
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

/// The pool runs the same degradation ladder as the flight runtime: an
/// impossible deadline degrades every epoch to the classical floor, and
/// the fall from the initial full-ml rung is a logged, counted
/// transition — exactly as `impossible_deadline_degrades_to_classical`
/// pins for the single-stream runtime.
#[test]
fn impossible_deadline_degrades_pool_to_classical() {
    let recorder = FlightRecorder::new();
    let spec = StreamSpec {
        id: 0,
        config: burst_stream(8.0, 4.0, 0.0),
        source_seed: 0xA1EA,
        localizer_seed: 0x0B0A_4D5E,
    };
    let config = GroundConfig {
        workers: 1,
        ingest_shards: 1,
        deadline_ms: 0.01,
        ..GroundConfig::default()
    };
    let report = GroundService::new(models(), config)
        .with_recorder(&recorder)
        .run(vec![spec], None);

    assert!(!report.alerts.is_empty(), "the burst must alert");
    for a in &report.alerts {
        assert_eq!(a.alert.mode, DegradationLevel::Classical);
    }
    let transitions = recorder.degradation_records();
    assert!(
        !transitions.is_empty(),
        "falling from the initial full-ml level is a recorded transition"
    );
    let t = &transitions[0];
    assert_eq!(t.from, "full-ml");
    assert_eq!(t.to, "classical");
    assert_eq!(t.reason, "deadline-budget");
    assert!(recorder.counter(Counter::DegradationTransitions) >= 1);
}
