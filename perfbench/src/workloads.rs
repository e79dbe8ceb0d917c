//! The three workloads. Each builds its inputs from the seed, measures
//! for the requested time, checks its outputs, and fills a [`Report`].

use crate::epochs::{
    burst_direction, deck_epochs, localize_timed, outcome_key, replay_stream, score, DeckEpoch,
    IngestTiming, LayerProbe, Tracer, COARSE_PIXELS, REDUCED_ITERATIONS, TRUTH_WINDOW_S,
};
use crate::fixture;
use crate::stats::{mean, median, percentile, self_times_ns};
use adapt_core::training::TrainedModels;
use adapt_ground::{GroundConfig, GroundService, StreamSpec, SubscriberPopulation};
use adapt_localize::{InferenceWorkspace, SkyPixelization};
use adapt_math::UnitVec3;
use adapt_nn::CompiledMlp;
use adapt_onboard::{
    match_alerts_to_truth, DegradationLevel, EpochLocalizer, EpochOutcome, FlightRuntime, GrbAlert,
    OnlineTriggerConfig, RuntimeConfig, FLIGHT_NOMINAL_FLUENCE,
};
use adapt_sim::{FlightProfile, GrbConfig, Scenario, StreamConfig, StreamingSource};
use adapt_telemetry::{FlightRecorder, LiveObserver, Recorder, SloConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["storm", "flight-hostile", "epoch-deck"];

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Subscribers of the fan-out population.
const SUBSCRIBERS: usize = 10_000;
const MAILBOX_CAPACITY: usize = 16;

/// What a run measured, checked and traced.
#[derive(Default)]
pub struct Report {
    /// Alert-latency p50 and p90 of each group of alerts (a storm round,
    /// the flight's burst slices, the deck).
    pub alert_p50_ms: Vec<f64>,
    pub alert_p90_ms: Vec<f64>,
    pub alert_samples: usize,
    pub realtime_x: Vec<f64>,
    /// Per-epoch `localize_epoch` wall time at each rung (ladder order),
    /// the fastest of the passes over that epoch.
    pub rung_ms: [Vec<f64>; 4],
    pub loc_err_deg: Vec<f64>,
    pub contain_hits: usize,
    pub contain_total: usize,
    pub n_truth: usize,
    pub detected: usize,
    pub n_alerts: usize,
    pub false_alerts: usize,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub errors: Vec<String>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Traced runs only: the per-layer metrics.
    pub layers: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn alert_group(&mut self, latencies_ms: &[f64]) {
        self.alert_p50_ms.push(median(latencies_ms));
        self.alert_p90_ms.push(percentile(latencies_ms, 0.9));
        self.alert_samples = self.alert_samples.max(latencies_ms.len());
    }

    fn truth_match(&mut self, alerts: &[GrbAlert], bursts: &[(f64, UnitVec3)]) {
        let onsets: Vec<f64> = bursts.iter().map(|b| b.0).collect();
        let m = match_alerts_to_truth(alerts, &onsets, TRUTH_WINDOW_S);
        self.n_truth += m.n_truth;
        self.detected += m.detected;
        self.n_alerts += m.n_alerts;
        self.false_alerts += m.false_alerts;
    }

    /// Score localizations against the truth: containment always, the
    /// error when `errors` is set.
    fn score<'o>(
        &mut self,
        outcomes: impl IntoIterator<Item = &'o Option<EpochOutcome>>,
        epochs: &[DeckEpoch],
        errors: bool,
    ) {
        for (out, e) in outcomes.into_iter().zip(epochs) {
            if let (Some(out), Some(truth)) = (out, e.truth) {
                let (err, hit) = score(out, truth);
                if errors {
                    self.loc_err_deg.push(err);
                }
                self.contain_total += 1;
                self.contain_hits += hit as usize;
            }
        }
    }

    /// The end-to-end metrics, by name, with units.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let frac = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            ("alert_p50_ms", least(&self.alert_p50_ms), "ms"),
            ("alert_p90_ms", least(&self.alert_p90_ms), "ms"),
            (
                "realtime_x",
                -least(&self.realtime_x.iter().map(|x| -x).collect::<Vec<_>>()),
                "x",
            ),
            ("epoch_ms_p50", median(&self.rung_ms[0]), "ms"),
            ("epoch_ms_p90", percentile(&self.rung_ms[0], 0.9), "ms"),
            ("reduced_ms_p50", median(&self.rung_ms[1]), "ms"),
            ("coarse_ms_p50", median(&self.rung_ms[2]), "ms"),
            ("classical_ms_p50", median(&self.rung_ms[3]), "ms"),
            ("loc_err_p50_deg", median(&self.loc_err_deg), "deg"),
            (
                "contain_hit_frac",
                frac(self.contain_hits, self.contain_total),
                "fraction",
            ),
            ("detect_frac", frac(self.detected, self.n_truth), "fraction"),
            (
                "alert_purity",
                frac(self.n_alerts - self.false_alerts, self.n_alerts),
                "fraction",
            ),
            (
                "served_frac",
                1.0 - self.failed as f64 / self.attempted.max(1) as f64,
                "fraction",
            ),
            ("setup_s", median(&self.setup_s), "s"),
            ("peak_rss_mb", fixture::peak_rss_mb(), "MB"),
        ]
    }
}

/// The least-disturbed of a run's rounds: interference from other
/// tenants of a shared host only ever adds time.
fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Load the fixture and build the shared plans, one localizer and (for
/// the ground service) the subscriber population, as a service does
/// before its first epoch; `SETUP_REPS` times. Returns the models.
fn set_up(
    fixture_path: &Path,
    report: &mut Report,
    with_population: bool,
) -> Result<TrainedModels, String> {
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (models, _) = fixture::load(fixture_path)?;
        let compiled = CompiledMlp::compile(&models.background);
        let localizer = localizer(&models, &compiled, adapt_telemetry::noop());
        let population = with_population
            .then(|| SubscriberPopulation::synth(SUBSCRIBERS, 0xFA0, MAILBOX_CAPACITY));
        std::hint::black_box((&localizer, &population));
        report.setup_s.push(t0.elapsed().as_secs_f64());
    }
    Ok(fixture::load(fixture_path)?.0)
}

/// An epoch localizer configured as both runtimes configure theirs.
fn localizer<'a>(
    models: &'a TrainedModels,
    compiled: &'a CompiledMlp,
    recorder: &'a dyn Recorder,
) -> EpochLocalizer<'a> {
    EpochLocalizer::new(
        models,
        compiled,
        REDUCED_ITERATIONS,
        COARSE_PIXELS,
        SkyPixelization::default(),
        recorder,
    )
}

/// The four-rung ladder over a set of epochs, run pass after pass. Each
/// (rung, epoch) keeps its fastest time, since interference from other
/// tenants of a shared host only ever adds time, and every pass must
/// reproduce the first bit for bit.
struct Ladder {
    ms: [Vec<f64>; 4],
    outcomes: [Vec<Option<EpochOutcome>>; 4],
    passes: usize,
}

impl Ladder {
    fn new() -> Self {
        Ladder {
            ms: Default::default(),
            outcomes: Default::default(),
            passes: 0,
        }
    }

    /// One pass: every epoch at each rung in ladder order.
    fn pass(
        &mut self,
        localizer: &EpochLocalizer,
        epochs: &[DeckEpoch],
        ws: &mut InferenceWorkspace,
        report: &mut Report,
    ) {
        let mut same = true;
        for (i, e) in epochs.iter().enumerate() {
            for level in DegradationLevel::ALL {
                let r = localize_timed(localizer, e, level, ws);
                let slot = level.slot();
                if self.passes == 0 {
                    self.ms[slot].push(r.ms);
                    self.outcomes[slot].push(r.outcome);
                } else {
                    self.ms[slot][i] = self.ms[slot][i].min(r.ms);
                    same &= outcome_key(&r.outcome) == outcome_key(&self.outcomes[slot][i]);
                }
            }
        }
        let pass = self.passes;
        report.check(same, || {
            format!("ladder pass {pass} differs from the first pass")
        });
        self.passes += 1;
    }
}

/// Localize every epoch at one rung, untimed.
fn outcomes(
    localizer: &EpochLocalizer,
    epochs: &[DeckEpoch],
    level: DegradationLevel,
    ws: &mut InferenceWorkspace,
) -> Vec<Option<EpochOutcome>> {
    epochs
        .iter()
        .map(|e| localize_timed(localizer, e, level, ws).outcome)
        .collect()
}

/// Replay a workload's epochs single-threaded: every `subsample`-th
/// epoch through `passes` passes of the timed ladder, and every other
/// epoch at full-ml (returned: emitted alerts are checked against these)
/// and at the cheap coarse-skymap rung. Sets the rung timings and scores
/// the localizations.
fn replay_ladder(
    localizer: &EpochLocalizer,
    epochs: &[DeckEpoch],
    subsample: usize,
    passes: usize,
    ws: &mut InferenceWorkspace,
    report: &mut Report,
) -> Vec<Option<EpochOutcome>> {
    let sample: Vec<DeckEpoch> = epochs.iter().step_by(subsample).cloned().collect();
    let mut ladder = Ladder::new();
    for _ in 0..passes {
        ladder.pass(localizer, &sample, ws, report);
    }
    let (full, coarse) = if subsample == 1 {
        (ladder.outcomes[0].clone(), ladder.outcomes[2].clone())
    } else {
        (
            outcomes(localizer, epochs, DegradationLevel::FullMl, ws),
            outcomes(localizer, epochs, DegradationLevel::CoarseSkymap, ws),
        )
    };
    report.score(&full, epochs, true);
    report.score(&coarse, epochs, false);
    for level in [DegradationLevel::ReducedMl, DegradationLevel::Classical] {
        report.score(&ladder.outcomes[level.slot()], &sample, false);
    }
    report.rung_ms = ladder.ms;
    full
}

/// Deterministic per-input seed: the run seed mixed with an input index.
fn sub_seed(seed: u64, salt: u64, index: u64) -> u64 {
    ChaCha8Rng::seed_from_u64(
        seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
    )
    .gen()
}

/// The deterministic fields of an alert, bit-exact (the single-stream
/// counterpart of `GroundAlert::deterministic_key`).
fn alert_key(a: &GrbAlert) -> ([u64; 5], usize, usize) {
    (
        [
            a.t_trigger_s.to_bits(),
            a.significance_sigma.to_bits(),
            a.polar_deg.to_bits(),
            a.azimuth_deg.to_bits(),
            a.containment_radius_deg.to_bits(),
        ],
        a.rings,
        a.surviving_rings,
    )
}

/// Whether an emitted alert carries exactly a replayed full-ml outcome.
fn alert_matches(a: &GrbAlert, e: &DeckEpoch, outcome: &Option<EpochOutcome>) -> bool {
    outcome
        .as_ref()
        .is_some_and(|out| alert_key(a) == alert_key(&crate::epochs::ground_alert(0, e, out).alert))
}

fn uniform(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// A burst from `polar_deg` and a seeded azimuth, with its direction.
fn burst(rng: &mut ChaCha8Rng, fluence: f64, polar_deg: f64) -> (GrbConfig, UnitVec3) {
    let azimuth = uniform(rng, -180.0, 180.0);
    let grb = GrbConfig {
        azimuth_deg: azimuth,
        ..GrbConfig::new(fluence, polar_deg)
    };
    (grb, burst_direction(polar_deg, azimuth))
}

// ───────────────────────────── storm ─────────────────────────────

const STORM_STREAMS: usize = 128;
const STORM_DURATION_S: f64 = 8.0;
const STORM_ONSET_S: f64 = 6.0;
const STORM_FLUENCE: f64 = 2.0;
const STORM_MAX_POLAR_DEG: f64 = 72.0;
/// Service runs per run (the fleet is served identically each time).
const STORM_MIN_ROUNDS: usize = 3;
/// Every this-many-th epoch of a replay runs the timed ladder and the
/// layer probe.
const STORM_SUBSAMPLE: usize = 8;

/// 128 tenants that all see one GRB at the same stream time, each from
/// its own direction (polar stratified over 0–72°, azimuth uniform).
fn storm_fleet(seed: u64) -> (Vec<StreamSpec>, Vec<UnitVec3>) {
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 0x5708, 0));
    (0..STORM_STREAMS)
        .map(|i| {
            let polar = STORM_MAX_POLAR_DEG * (i as f64 + rng.gen::<f64>()) / STORM_STREAMS as f64;
            let (grb, truth) = burst(&mut rng, STORM_FLUENCE, polar);
            let mut config = StreamConfig::new(FlightProfile::antarctic_ldb(), STORM_DURATION_S)
                .with_burst(STORM_ONSET_S, grb);
            config.start_h = 1.9 + (i as f64 * 0.37) % 18.0;
            config.background.particle_fluence = FLIGHT_NOMINAL_FLUENCE;
            let spec = StreamSpec {
                id: i,
                config,
                source_seed: rng.gen(),
                localizer_seed: rng.gen(),
            };
            (spec, truth)
        })
        .unzip()
}

pub fn storm(fixture_path: &Path, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let models = set_up(fixture_path, &mut report, true)?;
    let config = GroundConfig {
        workers: 1,
        ingest_shards: 1,
        deterministic: true,
        ..GroundConfig::default()
    };
    let (specs, truth) = storm_fleet(seed);
    let mut first_alerts: Option<Vec<adapt_ground::GroundAlert>> = None;
    let mut walls = [Vec::new(), Vec::new()];
    let mut queue_wait_ms = Vec::new();
    let mut localize_busy_ms = 0.0;
    let mut max_pending = 0usize;

    let t_start = Instant::now();
    let mut round = 0usize;
    while round < STORM_MIN_ROUNDS || t_start.elapsed().as_secs_f64() < seconds {
        // traced runs alternate the production telemetry with the no-op
        // recorder to measure its overhead
        let production = !trace || round.is_multiple_of(2);
        let population = SubscriberPopulation::synth(SUBSCRIBERS, 0xFA0, MAILBOX_CAPACITY);
        let recorder = FlightRecorder::new();
        recorder.begin_trial("storm", seed);
        let live = LiveObserver::new(
            5.0,
            SloConfig {
                deadline_ms: config.deadline_ms,
                ..SloConfig::default()
            },
        );
        let mut service = GroundService::new(&models, config.clone());
        if production {
            service = service.with_recorder(&recorder).with_live(&live);
        }
        let out = service.run(specs.clone(), Some(&population));
        live.finish(STORM_DURATION_S);
        walls[production as usize].push(out.wall_s);
        report.attempted += out.epochs_dispatched + out.events_ingested;
        report.failed += out.epochs_dispatched - out.alerts.len() as u64 + out.events_dropped;
        if production {
            report.alert_group(&out.epoch_latencies_ms);
            report.realtime_x.push(out.aggregate_realtime_factor);
            for s in recorder.trace_records() {
                match s.span.as_str() {
                    "queue-wait" => queue_wait_ms.push(s.duration_ms),
                    "localize" => localize_busy_ms += s.duration_ms,
                    _ => {}
                }
            }
            max_pending = max_pending.max(out.pool.max_pending);
        }
        match &first_alerts {
            None => first_alerts = Some(out.alerts),
            Some(first) => {
                let same = first.len() == out.alerts.len()
                    && first
                        .iter()
                        .zip(&out.alerts)
                        .all(|(a, b)| a.deterministic_key() == b.deterministic_key());
                report.check(same, || {
                    format!("storm round {round}: alert keys differ from the first round")
                });
            }
        }
        round += 1;
    }
    let main_wall = t_start.elapsed().as_secs_f64();
    report.lines.push(format!(
        "storm: {round} service runs of {STORM_STREAMS} streams x {STORM_DURATION_S} s in {main_wall:.1} s"
    ));
    let alerts = first_alerts.unwrap_or_default();
    for (i, dir) in truth.iter().enumerate() {
        let mine: Vec<GrbAlert> = alerts
            .iter()
            .filter(|a| a.stream_id == i)
            .map(|a| a.alert.clone())
            .collect();
        report.truth_match(&mine, &[(STORM_ONSET_S, *dir)]);
    }

    // replay the fleet single-threaded: the service's alerts must be the
    // full-ml localize_epoch outcomes of the same epochs
    let t_replay = Instant::now();
    let compiled = CompiledMlp::compile(&models.background);
    let localizer = localizer(&models, &compiled, adapt_telemetry::noop());
    let mut ws = InferenceWorkspace::new();
    let mut ingest = IngestTiming::default();
    let mut epochs: Vec<DeckEpoch> = Vec::new();
    let mut origin: Vec<(usize, u64)> = Vec::new();
    for (spec, dir) in specs.iter().zip(&truth) {
        let (raw, timing) = replay_stream(
            spec.config.clone(),
            spec.source_seed,
            &config.trigger,
            trace,
        );
        ingest.add(timing);
        for (index, e) in deck_epochs(raw, spec.localizer_seed, &[(STORM_ONSET_S, *dir)])
            .into_iter()
            .enumerate()
        {
            origin.push((spec.id, index as u64));
            epochs.push(e);
        }
    }
    let full = replay_ladder(
        &localizer,
        &epochs,
        STORM_SUBSAMPLE,
        2,
        &mut ws,
        &mut report,
    );
    report.lines.push(format!(
        "storm: replayed {} epochs, every {STORM_SUBSAMPLE}th through the timed ladder, in {:.1} s",
        epochs.len(),
        t_replay.elapsed().as_secs_f64()
    ));

    // the service emits an alert for every epoch that localizes
    let localized: Vec<_> = origin
        .iter()
        .zip(epochs.iter().zip(&full))
        .filter(|(_, (_, out))| out.is_some())
        .collect();
    let same = alerts.len() == localized.len()
        && alerts
            .iter()
            .zip(&localized)
            .all(|(a, (&(stream, index), (e, out)))| {
                a.stream_id == stream && a.epoch_index == index && alert_matches(&a.alert, e, out)
            });
    report.check(same, || {
        "storm: service alerts differ from the full-ml localize_epoch replay".into()
    });

    if trace {
        let population = SubscriberPopulation::synth(SUBSCRIBERS, 0xFA1, MAILBOX_CAPACITY);
        let mut probe = LayerProbe::new(&models, &compiled, &population);
        let mut tr = Tracer::new();
        for (k, e) in epochs.iter().enumerate().step_by(STORM_SUBSAMPLE) {
            if let Some(m) = probe.probe(&mut tr, e, &full[k]) {
                report.errors.push(format!("storm epoch {k}: {m}"));
            }
        }
        let true_epochs = epochs.iter().filter(|e| e.truth.is_some()).count();
        let overhead = median(&walls[1]) / median(&walls[0]).max(1e-12) - 1.0;
        layer_report(
            &mut report,
            &tr,
            ingest,
            (true_epochs, epochs.len()),
            overhead,
        );
        let busy_frac = localize_busy_ms / 1e3 / walls[1].iter().sum::<f64>().max(1e-12);
        report.lines.push(format!(
            "  ground.pool           queue-wait spans {}: p50 {:.1} ms, p90 {:.1} ms; max pending {max_pending}; busy_frac {busy_frac:.2}",
            queue_wait_ms.len(),
            median(&queue_wait_ms),
            percentile(&queue_wait_ms, 0.9),
        ));
        dump_spans(&tr, "storm", seed);
    }
    Ok(report)
}

// ───────────────────────── flight-hostile ─────────────────────────

const FLIGHT_DURATION_S: f64 = 1800.0;
const FLIGHT_START_H: f64 = 4.0;
const FLIGHT_BACKGROUND_SCALE: f64 = 8.0;
const FLIGHT_BURSTS: usize = 6;
const FLIGHT_FLUENCE: f64 = 2.0;
const FLIGHT_MAX_POLAR_DEG: f64 = 60.0;
/// Segment flights per run; the segment is flown identically each time.
const FLIGHT_MIN_ROUNDS: usize = 3;
/// Share of `--seconds` spent flying the long segment; the rest goes to
/// the burst slices.
const FLIGHT_SEGMENT_SHARE: f64 = 0.5;
/// Short flight-condition streams, one burst each.
const FLIGHT_SLICES: usize = 64;
const SLICE_S: f64 = 6.0;
const SLICE_ONSET_S: f64 = 4.0;
/// Deep enough that `DropNewest` never engages, so the alert set is a
/// pure function of the seed.
const FLIGHT_INGEST_CAPACITY: usize = 1 << 22;
/// Detection floor recorded for this workload: a lower `detect_frac`
/// fails the run.
const FLIGHT_MIN_DETECT_FRAC: f64 = 0.8;

struct Flight {
    config: StreamConfig,
    source_seed: u64,
    localizer_seed: u64,
    bursts: Vec<(f64, UnitVec3)>,
}

impl Flight {
    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            deterministic: true,
            ingest_capacity: FLIGHT_INGEST_CAPACITY,
            seed: self.localizer_seed,
            ..RuntimeConfig::default()
        }
    }
}

/// The rate-transition scenario: the SAA spike and solar-flare ramp of
/// the robustness catalog.
fn flight_scenario() -> Scenario {
    adapt_bench::scenario_catalog(FLIGHT_DURATION_S)
        .into_iter()
        .filter(|s| s.name == "saa-spike" || s.name == "solar-flare-ramp")
        .flat_map(|s| s.scenario.components)
        .fold(Scenario::quiet(), Scenario::with)
}

fn flight_stream(duration_s: f64, start_h: f64, background_scale: f64) -> StreamConfig {
    let mut config = StreamConfig::new(FlightProfile::antarctic_ldb(), duration_s);
    config.start_h = start_h;
    config.background.particle_fluence = FLIGHT_NOMINAL_FLUENCE;
    config.background_scale = background_scale;
    config
}

/// A long float segment at high background under the scenario, with a
/// handful of bursts (polar stratified over 0–60°).
fn flight_segment(seed: u64) -> Flight {
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 0xF117, 0));
    let mut config = flight_stream(FLIGHT_DURATION_S, FLIGHT_START_H, FLIGHT_BACKGROUND_SCALE)
        .with_scenario(flight_scenario());
    let spacing = FLIGHT_DURATION_S / FLIGHT_BURSTS as f64;
    let mut bursts = Vec::new();
    for b in 0..FLIGHT_BURSTS {
        let onset = spacing * (b as f64 + uniform(&mut rng, 0.2, 0.4));
        let polar = FLIGHT_MAX_POLAR_DEG * (b as f64 + rng.gen::<f64>()) / FLIGHT_BURSTS as f64;
        let (grb, dir) = burst(&mut rng, FLIGHT_FLUENCE, polar);
        config = config.with_burst(onset, grb);
        bursts.push((onset, dir));
    }
    Flight {
        config,
        source_seed: rng.gen(),
        localizer_seed: rng.gen(),
        bursts,
    }
}

/// Six-second streams at the conditions of evenly spread points of the
/// segment (altitude, 8x background times the scenario's rate there),
/// one burst each: enough flight-condition alerts for steady per-alert
/// statistics without making the segment localization-heavy.
fn flight_slices(seed: u64) -> Vec<Flight> {
    let scenario = flight_scenario();
    (0..FLIGHT_SLICES)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 0x511CE, i as u64));
            let t = FLIGHT_DURATION_S * (i as f64 + rng.gen::<f64>()) / FLIGHT_SLICES as f64;
            let polar =
                FLIGHT_MAX_POLAR_DEG * ((i as f64 * 0.618_034 + rng.gen::<f64>() * 0.1) % 1.0);
            let (grb, dir) = burst(&mut rng, FLIGHT_FLUENCE, polar);
            let config = flight_stream(
                SLICE_S,
                FLIGHT_START_H + t / 3600.0,
                FLIGHT_BACKGROUND_SCALE * scenario.rate_multiplier_at(t),
            )
            .with_burst(SLICE_ONSET_S, grb);
            Flight {
                config,
                source_seed: rng.gen(),
                localizer_seed: rng.gen(),
                bursts: vec![(SLICE_ONSET_S, dir)],
            }
        })
        .collect()
}

pub fn flight_hostile(
    fixture_path: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let mut report = Report::default();
    let models = set_up(fixture_path, &mut report, false)?;
    let segment = flight_segment(seed);
    let mut first_alerts: Option<Vec<GrbAlert>> = None;
    let mut walls = [Vec::new(), Vec::new()];
    let mut max_depth = 0usize;
    let mut dropped = 0u64;

    let t_start = Instant::now();
    let mut round = 0usize;
    while round < FLIGHT_MIN_ROUNDS
        || t_start.elapsed().as_secs_f64() < seconds * FLIGHT_SEGMENT_SHARE
    {
        let production = !trace || round.is_multiple_of(2);
        let recorder = FlightRecorder::new();
        recorder.begin_trial("fly", seed);
        let mut runtime = FlightRuntime::new(&models, segment.runtime_config());
        if production {
            runtime = runtime.with_recorder(&recorder);
        }
        let out = runtime.run(StreamingSource::new(
            segment.config.clone(),
            segment.source_seed,
        ));
        walls[production as usize].push(out.wall_s);
        report.attempted +=
            out.epochs_dispatched + out.ingest_stats.pushed + out.ingest_stats.dropped;
        report.failed += out.epochs_dispatched - out.alerts.len() as u64 + out.ingest_stats.dropped;
        max_depth = max_depth.max(out.ingest_stats.max_depth);
        dropped += out.ingest_stats.dropped;
        if production {
            report.realtime_x.push(FLIGHT_DURATION_S / out.wall_s);
        }
        report.lines.push(format!(
            "  segment flight {round}: {:.2} s wall, {} events",
            out.wall_s, out.ingest_stats.pushed
        ));
        match &first_alerts {
            None => first_alerts = Some(out.alerts),
            Some(first) => {
                let same = first.len() == out.alerts.len()
                    && first
                        .iter()
                        .zip(&out.alerts)
                        .all(|(a, b)| alert_key(a) == alert_key(b));
                report.check(same, || {
                    format!("flight round {round}: alert set differs from the first round")
                });
            }
        }
        round += 1;
    }
    let segment_alerts = first_alerts.unwrap_or_default();
    report.truth_match(&segment_alerts, &segment.bursts);
    let main_wall = t_start.elapsed().as_secs_f64();
    report.lines.push(format!(
        "flight-hostile: {round} segment flights of {FLIGHT_DURATION_S} s at {FLIGHT_BACKGROUND_SCALE}x background in {main_wall:.1} s; \
         {} alerts, {} false",
        segment_alerts.len(),
        report.false_alerts
    ));

    // the burst slices, each through its own runtime; every alert must be
    // the full-ml localize_epoch outcome of the same epoch
    let compiled = CompiledMlp::compile(&models.background);
    let localizer = localizer(&models, &compiled, adapt_telemetry::noop());
    let mut ws = InferenceWorkspace::new();
    let trigger = OnlineTriggerConfig::default();
    let mut latencies = Vec::new();
    let mut epochs = Vec::new();
    // per slice: its first epoch, its epoch count, its alerts
    let mut slice_alerts: Vec<(usize, usize, Vec<GrbAlert>)> = Vec::new();
    for slice in flight_slices(seed) {
        let recorder = FlightRecorder::new();
        let out = FlightRuntime::new(&models, slice.runtime_config())
            .with_recorder(&recorder)
            .run(StreamingSource::new(
                slice.config.clone(),
                slice.source_seed,
            ));
        report.attempted +=
            out.epochs_dispatched + out.ingest_stats.pushed + out.ingest_stats.dropped;
        report.failed += out.epochs_dispatched - out.alerts.len() as u64 + out.ingest_stats.dropped;
        report.truth_match(&out.alerts, &slice.bursts);
        latencies.extend(out.alerts.iter().map(|a| a.latency_ms));
        let (raw, _) = replay_stream(slice.config, slice.source_seed, &trigger, false);
        slice_alerts.push((epochs.len(), raw.len(), out.alerts));
        epochs.extend(deck_epochs(raw, slice.localizer_seed, &slice.bursts));
    }
    report.alert_group(&latencies);
    let full = replay_ladder(&localizer, &epochs, 2, 3, &mut ws, &mut report);
    // a runtime emits one alert per epoch that localizes, in order
    let same = slice_alerts.iter().all(|(first, n, alerts)| {
        let range = *first..first + n;
        let localized: Vec<_> = epochs[range.clone()]
            .iter()
            .zip(&full[range])
            .filter(|(_, out)| out.is_some())
            .collect();
        alerts.len() == localized.len()
            && alerts
                .iter()
                .zip(localized)
                .all(|(a, (e, out))| alert_matches(a, e, out))
    });
    report.check(same, || {
        "flight slices: runtime alerts differ from the full-ml localize_epoch replay".into()
    });
    report.lines.push(format!(
        "flight-hostile: {FLIGHT_SLICES} burst slices ({} epochs, every 2nd through the timed ladder) in {:.1} s",
        epochs.len(),
        t_start.elapsed().as_secs_f64() - main_wall
    ));
    let detect = report.detected as f64 / report.n_truth.max(1) as f64;
    report.check(detect >= FLIGHT_MIN_DETECT_FRAC, || {
        format!(
            "flight-hostile: detect_frac {detect:.3} below the recorded {FLIGHT_MIN_DETECT_FRAC}"
        )
    });

    if trace {
        let population = SubscriberPopulation::synth(SUBSCRIBERS, 0xFA1, MAILBOX_CAPACITY);
        let mut probe = LayerProbe::new(&models, &compiled, &population);
        let mut tr = Tracer::new();
        for (k, e) in epochs.iter().enumerate() {
            if let Some(m) = probe.probe(&mut tr, e, &full[k]) {
                report.errors.push(format!("flight epoch {k}: {m}"));
            }
        }
        // the segment's sim and trigger work, single-threaded: what is left
        // of a flight's wall time is queue hand-off and contention
        let (seg_epochs, ingest) =
            replay_stream(segment.config.clone(), segment.source_seed, &trigger, true);
        let true_epochs = seg_epochs
            .iter()
            .filter(|e| crate::epochs::truth_for(e.t_trigger_s, &segment.bursts).is_some())
            .count();
        let overhead = median(&walls[1]) / median(&walls[0]).max(1e-12) - 1.0;
        layer_report(
            &mut report,
            &tr,
            ingest,
            (true_epochs, seg_epochs.len()),
            overhead,
        );
        let busy_s = (ingest.sim_ns + ingest.trigger_ns) as f64 / 1e9;
        let handoff = 1.0 - busy_s / median(&walls[1]).max(1e-12);
        report.lines.push(format!(
            "  onboard.runtime       handoff_frac {handoff:.2}; ingest_max_depth {max_depth}; dropped {dropped}"
        ));
        dump_spans(&tr, "flight-hostile", seed);
    }
    Ok(report)
}

// ─────────────────────────── epoch-deck ───────────────────────────

const DECK_SIZE: usize = 96;
const DECK_STREAM_S: f64 = 10.0;
const DECK_ONSET_S: f64 = 7.0;
const DECK_START_H: f64 = 5.0;

/// A deck of burst epochs spanning fluence 0.5–4 MeV/cm²
/// (log-stratified), polar 0–80° and background 1–4x (low-discrepancy
/// strata jittered by the seed), generated through the source and the
/// trigger. Only the epoch each burst triggered enters the deck; returns
/// the deck, the ingest timing and the number of epochs triggered.
fn deck(seed: u64, timed: bool) -> (Vec<DeckEpoch>, IngestTiming, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 0xDEC, 0));
    let trigger = OnlineTriggerConfig::default();
    let mut ingest = IngestTiming::default();
    let mut deck = Vec::new();
    let mut n_epochs = 0;
    for i in 0..DECK_SIZE {
        let fluence = 0.5 * 8f64.powf((i as f64 + rng.gen::<f64>()) / DECK_SIZE as f64);
        let polar = 80.0 * ((i as f64 * 0.618_034 + rng.gen::<f64>() * 0.1) % 1.0);
        let background = 1.0 + 3.0 * ((i as f64 * 0.754_878 + rng.gen::<f64>() * 0.1) % 1.0);
        let (grb, dir) = burst(&mut rng, fluence, polar);
        let config = flight_stream(DECK_STREAM_S, DECK_START_H + i as f64 * 0.1, background)
            .with_burst(DECK_ONSET_S, grb);
        let (raw, timing) = replay_stream(config, rng.gen(), &trigger, timed);
        ingest.add(timing);
        n_epochs += raw.len();
        deck.extend(
            deck_epochs(raw, rng.gen(), &[(DECK_ONSET_S, dir)])
                .into_iter()
                .find(|e| e.truth.is_some()),
        );
    }
    (deck, ingest, n_epochs)
}

pub fn epoch_deck(
    fixture_path: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let mut report = Report::default();
    let models = set_up(fixture_path, &mut report, false)?;
    let (deck, ingest, n_epochs) = deck(seed, trace);
    report.n_truth = DECK_SIZE;
    report.detected = deck.len();
    report.n_alerts = n_epochs;
    report.false_alerts = n_epochs - deck.len();

    let compiled = CompiledMlp::compile(&models.background);
    let plain = localizer(&models, &compiled, adapt_telemetry::noop());
    let mut ws = InferenceWorkspace::new();
    let mut ladder = Ladder::new();
    let t_start = Instant::now();
    while ladder.passes < 2 || t_start.elapsed().as_secs_f64() < seconds {
        ladder.pass(&plain, &deck, &mut ws, &mut report);
    }
    for (slot, outcomes) in ladder.outcomes.iter().enumerate() {
        report.score(outcomes, &deck, slot == 0);
        let failed = outcomes.iter().filter(|o| o.is_none()).count();
        report.attempted += (outcomes.len() * ladder.passes) as u64;
        report.failed += (failed * ladder.passes) as u64;
    }
    let rings: Vec<usize> = ladder.outcomes[0]
        .iter()
        .flatten()
        .map(|o| o.rings)
        .collect();
    report.lines.push(format!(
        "epoch-deck: {} epochs ({}–{} rings), {} passes of the 4-rung ladder in {:.1} s",
        deck.len(),
        rings.iter().min().unwrap_or(&0),
        rings.iter().max().unwrap_or(&0),
        ladder.passes,
        t_start.elapsed().as_secs_f64()
    ));
    // closed loop: an epoch's alert is out when its full-ml localization
    // returns
    report.alert_group(&ladder.ms[0]);
    let pre_window_s = OnlineTriggerConfig::default().pre_window_s;
    let stream_s: f64 = deck
        .iter()
        .map(|e| e.epoch.collect_until_s - e.epoch.t_trigger_s + pre_window_s)
        .sum();
    report
        .realtime_x
        .push(stream_s / (ladder.ms[0].iter().sum::<f64>() / 1e3));
    report.rung_ms = ladder.ms.clone();

    if trace {
        let population = SubscriberPopulation::synth(SUBSCRIBERS, 0xFA1, MAILBOX_CAPACITY);
        let mut probe = LayerProbe::new(&models, &compiled, &population);
        let mut tr = Tracer::new();
        let recorder = FlightRecorder::new();
        let recorded = localizer(&models, &compiled, &recorder);
        let mut walls = [0.0, 0.0];
        for (k, e) in deck.iter().enumerate() {
            if let Some(m) = probe.probe(&mut tr, e, &ladder.outcomes[0][k]) {
                report.errors.push(format!("deck epoch {k}: {m}"));
            }
            // the same epoch with the flight recorder attached and without
            for (slot, l) in [&plain, &recorded].into_iter().enumerate() {
                walls[slot] += localize_timed(l, e, DegradationLevel::FullMl, &mut ws).ms;
            }
        }
        let overhead = walls[1] / walls[0].max(1e-12) - 1.0;
        layer_report(&mut report, &tr, ingest, (deck.len(), n_epochs), overhead);
        dump_spans(&tr, "epoch-deck", seed);
    }
    Ok(report)
}

// ───────────────────────── per-layer table ─────────────────────────

fn dump_spans(tr: &Tracer, workload: &str, seed: u64) {
    let path = Path::new("perfbench/out").join(format!("spans-{workload}-{seed}.ndjson"));
    if let Err(e) = tr.write_ndjson(&path) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Per-layer metrics and the per-layer table from one traced replay.
fn layer_report(
    report: &mut Report,
    tr: &Tracer,
    ingest: IngestTiming,
    (true_epochs, epochs): (usize, usize),
    overhead_frac: f64,
) {
    let self_ns = self_times_ns(&tr.spans);
    let sum = |key: &str| tr.series(key).iter().sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ms = |layer: &str| tr.durations_ms(layer);
    let epoch_busy: f64 = ms("localize.epoch").iter().sum();
    let approx_busy: f64 = ms("localize.approx").iter().sum();
    // loop self time of the ML localizer: everything localize_with does
    // beyond the classical approximate + refine it starts with
    let ml_loop: Vec<f64> = ms("localize.ml")
        .iter()
        .zip(ms("localize.classical"))
        .map(|(ml, classical)| ml - classical)
        .collect();
    let us = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<f64>>();

    let useful: [(&str, f64); 7] = [
        (
            "recon",
            ratio(sum("recon.reconstructed"), sum("recon.attempted")),
        ),
        ("localize.ml", mean(tr.series("ml.survivor_frac"))),
        ("localize.refine", mean(tr.series("refine.inlier_frac"))),
        (
            "localize.approx",
            ratio(sum("approx.kept"), sum("approx.generated")),
        ),
        (
            "ground.fanout",
            ratio(sum("fanout.delivered"), sum("fanout.matched")),
        ),
        ("onboard.trigger", ratio(true_epochs as f64, epochs as f64)),
        (
            "sim.stream",
            ratio(ingest.events as f64, ingest.incident as f64),
        ),
    ];
    report.lines.push(format!(
        "  {:<22}{:>8}{:>11}{:>11}{:>10}{:>10}{:>8}",
        "layer", "count", "busy ms", "self ms", "p50 ms", "p90 ms", "useful"
    ));
    let mut layers: Vec<&'static str> = Vec::new();
    for s in &tr.spans {
        if !layers.contains(&s.layer) {
            layers.push(s.layer);
        }
    }
    for layer in layers {
        let d = ms(layer);
        let own: f64 = tr
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, &n)| n as f64 / 1e6)
            .sum();
        let ratio = useful
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or("-".to_string(), |(_, r)| format!("{r:.2}"));
        report.lines.push(format!(
            "  {layer:<22}{:>8}{:>11.1}{:>11.1}{:>10.3}{:>10.3}{ratio:>8}",
            d.len(),
            d.iter().sum::<f64>(),
            own,
            median(&d),
            percentile(&d, 0.9)
        ));
    }
    for (layer, ns, useful) in [
        ("sim.stream", ingest.sim_ns, useful[6].1),
        ("onboard.trigger", ingest.trigger_ns, useful[5].1),
    ] {
        report.lines.push(format!(
            "  {layer:<22}{:>8}{:>11.1}{:>11.1}{:>10}{:>10}{useful:>8.2}",
            ingest.events,
            ns as f64 / 1e6,
            ns as f64 / 1e6,
            "-",
            "-"
        ));
    }
    report.lines.push(format!(
        "  localize.ml loop self p50 {:.3} ms (localize_with - classical); approx share of a full-ml epoch {:.2}",
        median(&ml_loop),
        ratio(approx_busy, epoch_busy)
    ));

    let per_event = |ns: u64| ratio(ns as f64, ingest.events as f64);
    report.layers = vec![
        (
            "localize.approx.ms_p50".into(),
            median(&ms("localize.approx")),
            "ms",
        ),
        (
            "localize.approx.ms_p90".into(),
            percentile(&ms("localize.approx"), 0.9),
            "ms",
        ),
        (
            "localize.approx.pair_evals".into(),
            median(tr.series("approx.pair_evals")),
            "count",
        ),
        (
            "localize.approx.share".into(),
            ratio(approx_busy, epoch_busy),
            "fraction",
        ),
        (
            "localize.refine.ms_p50".into(),
            median(&ms("localize.refine")),
            "ms",
        ),
        (
            "localize.refine.iterations_mean".into(),
            mean(tr.series("refine.iterations")),
            "count",
        ),
        (
            "localize.refine.inlier_frac".into(),
            mean(tr.series("refine.inlier_frac")),
            "fraction",
        ),
        ("localize.ml.ms_p50".into(), median(&ml_loop), "ms"),
        (
            "localize.ml.survivor_frac".into(),
            mean(tr.series("ml.survivor_frac")),
            "fraction",
        ),
        ("nn.f32_us_p50".into(), median(&us(ms("nn.f32"))), "us"),
        ("nn.int8_us_p50".into(), median(&us(ms("nn.int8"))), "us"),
        ("nn.rows_p50".into(), median(tr.series("nn.rows")), "count"),
        ("recon.ms_p50".into(), median(&ms("recon")), "ms"),
        ("recon.rings_per_event".into(), useful[0].1, "fraction"),
        ("recon.degenerate".into(), sum("recon.degenerate"), "count"),
        (
            "localize.skymap.raster_ms_p50".into(),
            median(&ms("localize.skymap")),
            "ms",
        ),
        (
            "healpix.healpix_ms_p50".into(),
            median(&ms("healpix")),
            "ms",
        ),
        (
            "localize.uncertainty.us_p50".into(),
            median(&us(ms("localize.uncertainty"))),
            "us",
        ),
        (
            "onboard.trigger.ns_per_event".into(),
            per_event(ingest.trigger_ns),
            "ns",
        ),
        ("onboard.trigger.epochs".into(), epochs as f64, "count"),
        (
            "onboard.trigger.true_epoch_frac".into(),
            useful[5].1,
            "fraction",
        ),
        (
            "sim.stream.ns_per_event".into(),
            per_event(ingest.sim_ns),
            "ns",
        ),
        ("sim.stream.events".into(), ingest.events as f64, "count"),
        (
            "ground.fanout.publish_us_p50".into(),
            median(&us(ms("ground.fanout"))),
            "us",
        ),
        (
            "ground.fanout.publish_us_p90".into(),
            percentile(&us(ms("ground.fanout")), 0.9),
            "us",
        ),
        (
            "ground.fanout.delivered_frac".into(),
            useful[4].1,
            "fraction",
        ),
        ("telemetry.overhead_frac".into(), overhead_frac, "fraction"),
    ];
}
