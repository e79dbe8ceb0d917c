//! The streaming flight runtime: ingest → trigger → localize under a
//! deadline, with graceful degradation.
//!
//! Three pipeline threads connected by [`BoundedQueue`]s:
//!
//! ```text
//!   StreamingSource ──ingest──▶ [ingest queue, DropNewest]
//!        ──trigger thread (OnlineTrigger)──▶ [epoch queue, Block]
//!        ──localizer worker──▶ GrbAlert
//! ```
//!
//! The ingest queue is lossy by policy (a shed event is counted, a
//! stalled runtime is not an option); the epoch queue blocks, which
//! backpressures the trigger thread and in turn fills — and sheds from —
//! the ingest queue, so overload is always visible in the drop counters.
//!
//! The worker hands each epoch to the [`EpochScheduler`], which walks the
//! degradation ladder under the deadline; the runtime keeps what is its
//! own: lossy ingest, checkpoint/kill/resume, and truth matching.

use crate::checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
use crate::queue::{BoundedQueue, DropPolicy, QueueStats};
use crate::scheduler::{EpochScheduler, ScheduledEpoch, COST_PRIORS_MS};
use crate::trigger::{OnlineTrigger, OnlineTriggerConfig, OpenEpoch};
use adapt_core::training::TrainedModels;
use adapt_localize::{
    default_temperature, estimate_uncertainty, BaselineLocalizer, InferenceWorkspace,
    LocalizerConfig, MlLocalizer, MlPipelineConfig, SkyGrid, SkyPixelization, SkyPosterior,
};
use adapt_math::stats::quantile_ceil_rank;
use adapt_math::vec3::UnitVec3;
use adapt_nn::CompiledMlp;
use adapt_recon::Reconstructor;
use adapt_sim::{StreamStats, StreamingSource};
use adapt_telemetry::{Counter, DegradationRecord, FanOut, LiveObserver, Recorder, Stage};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The degradation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// Full ML loop on the float compiled plan.
    FullMl,
    /// INT8 plan with fewer loop iterations.
    ReducedMl,
    /// Coarse adaptive sky map (mode + credible radius).
    CoarseSkymap,
    /// Classical approximate + refine, no ML.
    Classical,
}

impl DegradationLevel {
    /// Ladder order, best first.
    pub const ALL: [DegradationLevel; 4] = [
        DegradationLevel::FullMl,
        DegradationLevel::ReducedMl,
        DegradationLevel::CoarseSkymap,
        DegradationLevel::Classical,
    ];

    /// Stable machine name (telemetry `mode` field).
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::FullMl => "full-ml",
            DegradationLevel::ReducedMl => "reduced-ml",
            DegradationLevel::CoarseSkymap => "coarse-skymap",
            DegradationLevel::Classical => "classical",
        }
    }

    /// Index into [`ALL`](Self::ALL).
    pub fn slot(self) -> usize {
        self as usize
    }
}

/// Loop-iteration cap at the `reduced-ml` level.
pub const REDUCED_ITERATIONS: usize = 2;

/// Sky-map pixel budget at the `coarse-skymap` level.
pub const COARSE_PIXELS: usize = 256;

/// Epoch queue capacity (lossless `Block`).
const EPOCH_CAPACITY: usize = 4;

/// Runtime tuning.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Alert deadline: epoch-ready to alert-emitted wall budget (ms).
    pub deadline_ms: f64,
    /// Online trigger tuning.
    pub trigger: OnlineTriggerConfig,
    /// Ingest queue capacity (lossy `DropNewest`).
    pub ingest_capacity: usize,
    /// Checkpoint destination (`None` disables checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Periodic checkpoint cadence in *stream* seconds (0 = only on
    /// kill).
    pub checkpoint_every_s: f64,
    /// Simulated process kill: stop ingest after this stream time, write
    /// a checkpoint, and exit without flushing open epochs.
    pub kill_at_s: Option<f64>,
    /// Seed for the per-epoch localizer RNG streams.
    pub seed: u64,
    /// Ground-truth burst onsets (stream s). When non-empty, every
    /// trigger decision near an onset emits a
    /// [`TriggerDecisionRecord`](adapt_telemetry::TriggerDecisionRecord)
    /// through the recorder, and the run ends with alert↔truth matching
    /// ([`Counter::FalseAlerts`] / [`Counter::MissedBursts`]).
    pub truth_onsets_s: Vec<f64>,
    /// Truth neighbourhood (s): an alert within this long after an onset
    /// counts as detecting it, and decisions this close to an onset are
    /// recorded for forensics.
    pub truth_window_s: f64,
    /// Pin every localization to `full-ml` instead of consulting the
    /// wall-clock deadline ladder (mirrors the ground service's flag):
    /// with a lossless-sized ingest queue the whole alert set becomes a
    /// pure function of the seeds, which is what seed-replayable
    /// campaigns (the robustness matrix) require.
    pub deterministic: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            deadline_ms: 500.0,
            trigger: OnlineTriggerConfig::default(),
            ingest_capacity: 8192,
            checkpoint_path: None,
            checkpoint_every_s: 0.0,
            kill_at_s: None,
            seed: 0x0B0A_4D5E,
            truth_onsets_s: Vec::new(),
            truth_window_s: 10.0,
            deterministic: false,
        }
    }
}

/// How an alert's containment radius was computed. Ground consumers
/// weigh the two very differently: a sky-map radius is a true credible
/// region backed by the coverage-calibration campaign, while the
/// heuristic is a point-estimate circular error with no coverage
/// guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ContainmentSource {
    /// 90 % credible radius of a rasterized posterior sky map (the
    /// `coarse-skymap` rung).
    Skymap,
    /// 1σ circular-error estimate from the pointwise uncertainty
    /// propagator — the fallback on rungs that never rasterize a map.
    /// The default so pre-PR-10 checkpoints deserialize faithfully:
    /// every alert they hold was heuristic unless sky-map mode.
    #[default]
    Heuristic,
}

impl ContainmentSource {
    /// Stable lowercase name (matches the serde encoding and NDJSON).
    pub fn name(&self) -> &'static str {
        match self {
            ContainmentSource::Skymap => "skymap",
            ContainmentSource::Heuristic => "heuristic",
        }
    }

    /// Parse the stable name (NDJSON validation).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "skymap" => Some(ContainmentSource::Skymap),
            "heuristic" => Some(ContainmentSource::Heuristic),
            _ => None,
        }
    }
}

/// An emitted GRB alert.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrbAlert {
    /// Stream time the trigger fired (s).
    pub t_trigger_s: f64,
    /// Trigger significance (sigmas).
    pub significance_sigma: f64,
    /// Best-estimate polar angle (degrees).
    pub polar_deg: f64,
    /// Best-estimate azimuth (degrees).
    pub azimuth_deg: f64,
    /// Containment radius: 1σ circular error for ML/classical modes, the
    /// 90 % credible radius for the sky-map mode (degrees).
    pub containment_radius_deg: f64,
    /// Which estimator produced `containment_radius_deg`. Defaulted on
    /// deserialization so pre-existing checkpoints resume cleanly.
    #[serde(default)]
    pub containment_source: ContainmentSource,
    /// Degradation level that produced the localization.
    pub mode: DegradationLevel,
    /// Rings entering localization.
    pub rings: usize,
    /// Rings surviving background rejection (equals `rings` for modes
    /// without rejection).
    pub surviving_rings: usize,
    /// Epoch-ready to alert-emitted wall latency (ms).
    pub latency_ms: f64,
    /// Configured deadline at emission time (ms).
    pub deadline_ms: f64,
    /// Ingest-queue depth at emission.
    pub ingest_depth: usize,
    /// Epoch-queue depth at emission.
    pub epoch_depth: usize,
}

/// What one runtime run did.
#[derive(Debug, Clone)]
pub struct FlightRunReport {
    /// Alerts emitted, including any restored from a checkpoint.
    pub alerts: Vec<GrbAlert>,
    /// Degradation transitions, in order.
    pub transitions: Vec<DegradationRecord>,
    /// Ingest-queue lifetime counters.
    pub ingest_stats: QueueStats,
    /// Epoch-queue lifetime counters.
    pub epoch_stats: QueueStats,
    /// Localization epochs dispatched to the worker.
    pub epochs_dispatched: u64,
    /// Source generation counters.
    pub stream_stats: StreamStats,
    /// Wall time of the run (s).
    pub wall_s: f64,
    /// Measured events accepted per wall second.
    pub sustained_events_per_s: f64,
    /// Whether the simulated kill fired.
    pub killed: bool,
    /// Whether a checkpoint was written.
    pub checkpoint_written: bool,
}

impl FlightRunReport {
    /// Latency percentile over the emitted alerts (`q` in `[0, 1]`);
    /// `None` with no alerts.
    pub fn latency_percentile_ms(&self, q: f64) -> Option<f64> {
        let lat: Vec<f64> = self.alerts.iter().map(|a| a.latency_ms).collect();
        quantile_ceil_rank(&lat, q)
    }
}

/// Alert ↔ ground-truth matching over one run: which injected onsets an
/// alert detected (and how fast), which fired with no onset nearby.
/// Shared by the runtime's end-of-run accounting and the robustness
/// matrix in `adapt-bench`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TruthMatchReport {
    /// Ground-truth onsets considered.
    pub n_truth: usize,
    /// Alerts emitted by the run.
    pub n_alerts: usize,
    /// Onsets with at least one alert inside their window.
    pub detected: usize,
    /// Onsets no alert detected.
    pub missed: usize,
    /// Alerts matching no onset window.
    pub false_alerts: usize,
    /// Trigger latency of each detected onset (s from onset to the first
    /// matching alert's trigger time), in onset order.
    pub latencies_s: Vec<f64>,
}

impl TruthMatchReport {
    /// Detected fraction of the truth onsets (1.0 when there were none).
    pub fn detection_efficiency(&self) -> f64 {
        if self.n_truth == 0 {
            1.0
        } else {
            self.detected as f64 / self.n_truth as f64
        }
    }
}

/// Match alerts against ground-truth onsets: an alert whose trigger time
/// falls in `[onset − 0.5 s, onset + window_s]` detects that onset (the
/// small pre-margin tolerates pre-window leakage); an alert matching no
/// onset is a false alert.
pub fn match_alerts_to_truth(
    alerts: &[GrbAlert],
    onsets_s: &[f64],
    window_s: f64,
) -> TruthMatchReport {
    let matches = |t: f64, onset: f64| t >= onset - 0.5 && t <= onset + window_s;
    let mut report = TruthMatchReport {
        n_truth: onsets_s.len(),
        n_alerts: alerts.len(),
        ..TruthMatchReport::default()
    };
    for &onset in onsets_s {
        let first = alerts
            .iter()
            .filter(|a| matches(a.t_trigger_s, onset))
            .map(|a| a.t_trigger_s)
            .fold(f64::INFINITY, f64::min);
        if first.is_finite() {
            report.detected += 1;
            report.latencies_s.push((first - onset).max(0.0));
        } else {
            report.missed += 1;
        }
    }
    report.false_alerts = alerts
        .iter()
        .filter(|a| !onsets_s.iter().any(|&o| matches(a.t_trigger_s, o)))
        .count();
    report
}

/// What localizing one epoch through the degradation cascade produced.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Best-estimate source direction.
    pub direction: UnitVec3,
    /// Ladder level that actually produced the localization (may sit
    /// below the requested level after fall-through).
    pub level: DegradationLevel,
    /// Rings entering localization.
    pub rings: usize,
    /// Rings surviving background rejection (equals `rings` for modes
    /// without rejection).
    pub surviving_rings: usize,
    /// Containment radius: 1σ circular error for ML/classical modes, the
    /// 90 % credible radius for the sky-map mode (degrees).
    pub containment_radius_deg: f64,
    /// Which estimator produced the containment radius.
    pub containment_source: ContainmentSource,
    /// Whether a level failed and the cascade fell through.
    pub fell_through: bool,
}

/// The epoch → localization engine behind the [`EpochScheduler`] (and
/// so behind both the flight worker and the ground pool):
/// reconstruction, the four-rung degradation cascade, and containment
/// estimation. Holds the *shared* compiled plans by reference (build
/// once, execute from N workers); callers bring a per-worker
/// [`InferenceWorkspace`] and RNG, so the struct itself is immutable and
/// usable from many threads.
pub struct EpochLocalizer<'a> {
    recon: Reconstructor,
    full_ml: MlLocalizer<'a>,
    reduced_ml: MlLocalizer<'a>,
    baseline: BaselineLocalizer,
    /// The coarse-skymap rung's pixel grid.
    coarse_grid: SkyGrid,
    pub(crate) recorder: &'a dyn Recorder,
}

impl<'a> EpochLocalizer<'a> {
    /// Assemble from the trained models and the pre-compiled float plan.
    /// The INT8 plan is taken from the model set's shared plan cache
    /// (`QuantizedMlp::plan`), so N workers constructed this way execute
    /// the same flat buffers without duplicating them.
    pub fn new(
        models: &'a TrainedModels,
        compiled_background: &'a CompiledMlp,
        reduced_iterations: usize,
        coarse_pixels: usize,
        pixelization: SkyPixelization,
        recorder: &'a dyn Recorder,
    ) -> Self {
        let full_ml = MlLocalizer::new(
            compiled_background,
            &models.thresholds,
            &models.d_eta,
            MlPipelineConfig::default(),
        )
        .with_recorder(recorder);
        let reduced_cfg = MlPipelineConfig {
            max_ml_iterations: reduced_iterations,
            ..MlPipelineConfig::default()
        };
        let reduced_ml = MlLocalizer::new(
            models.quantized_background.plan(),
            &models.thresholds,
            &models.d_eta,
            reduced_cfg,
        )
        .with_recorder(recorder);
        EpochLocalizer {
            recon: Reconstructor::default(),
            full_ml,
            reduced_ml,
            baseline: BaselineLocalizer::new(LocalizerConfig::default()),
            coarse_grid: SkyGrid::new(pixelization, coarse_pixels),
            recorder,
        }
    }

    /// Reconstruct and localize one epoch starting at `level`, falling
    /// through the ladder on localization failure. Returns `None` when
    /// no rings reconstruct or every rung fails.
    pub fn localize_epoch<R: rand::Rng + ?Sized>(
        &self,
        epoch: &OpenEpoch,
        level: DegradationLevel,
        rng: &mut R,
        ws: &mut InferenceWorkspace,
    ) -> Option<EpochOutcome> {
        let recorder = self.recorder;
        let mut level = level;
        let t_recon = Instant::now();
        let (rings, _counts) = self.recon.reconstruct_all_counted(&epoch.events, recorder);
        recorder.duration(Stage::Reconstruction, t_recon.elapsed());
        if rings.is_empty() {
            // nothing to localize; the epoch is spent
            return None;
        }

        // degradation cascade: a failed localization falls through to
        // the next rung
        let mut fell_through = false;
        let outcome = loop {
            let attempt = match level {
                DegradationLevel::FullMl => self
                    .full_ml
                    .localize_with(&rings, rng, ws)
                    .map(|r| (r.direction, r.surviving_rings, None)),
                DegradationLevel::ReducedMl => self
                    .reduced_ml
                    .localize_with(&rings, rng, ws)
                    .map(|r| (r.direction, r.surviving_rings, None)),
                DegradationLevel::CoarseSkymap => {
                    let map = SkyPosterior::adaptive(
                        self.coarse_grid.clone(),
                        &rings,
                        3.0,
                        default_temperature(rings.len()),
                        recorder,
                    );
                    Some((map.mode(), rings.len(), Some(map.credible_radius_deg(0.9))))
                }
                DegradationLevel::Classical => self
                    .baseline
                    .localize(&rings, rng)
                    .map(|r| (r.direction, rings.len(), None)),
            };
            match attempt {
                Some(out) => break Some(out),
                None => {
                    let next = match level {
                        DegradationLevel::FullMl => DegradationLevel::ReducedMl,
                        DegradationLevel::ReducedMl => DegradationLevel::CoarseSkymap,
                        // the sky map cannot fail on non-empty rings;
                        // classical can — fall back to the sky map and
                        // stop
                        DegradationLevel::Classical => DegradationLevel::CoarseSkymap,
                        DegradationLevel::CoarseSkymap => break None,
                    };
                    level = next;
                    fell_through = true;
                }
            }
        };
        let (direction, surviving, skymap_radius) = outcome?;

        let containment_source = if skymap_radius.is_some() {
            ContainmentSource::Skymap
        } else {
            ContainmentSource::Heuristic
        };
        let containment = skymap_radius.unwrap_or_else(|| {
            estimate_uncertainty(&rings, direction, 3.0)
                .map(|u| u.sigma_circular_deg())
                .unwrap_or(60.0)
                .min(180.0)
        });
        Some(EpochOutcome {
            direction,
            level,
            rings: rings.len(),
            surviving_rings: surviving,
            containment_radius_deg: containment,
            containment_source,
            fell_through,
        })
    }
}

/// The streaming flight runtime. Borrows the trained models; construct
/// once, run one stream per call.
pub struct FlightRuntime<'a> {
    models: &'a TrainedModels,
    config: RuntimeConfig,
    recorder: &'a dyn Recorder,
    live: Option<&'a LiveObserver>,
}

impl<'a> FlightRuntime<'a> {
    /// A runtime with the default no-op recorder.
    pub fn new(models: &'a TrainedModels, config: RuntimeConfig) -> Self {
        FlightRuntime {
            models,
            config,
            recorder: adapt_telemetry::noop(),
            live: None,
        }
    }

    /// Attach a telemetry recorder (queue gauges, stage histograms,
    /// degradation transitions, alert records).
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach a live observer: every recorder fact is projected into its
    /// registry, the queue capacities are set on it once, and stream
    /// time drives its periodic snapshot clock.
    pub fn with_live(mut self, live: &'a LiveObserver) -> Self {
        self.live = Some(live);
        self
    }

    /// Run a fresh stream to completion (or to the simulated kill).
    pub fn run(&self, source: StreamingSource) -> FlightRunReport {
        let trigger = OnlineTrigger::new(self.config.trigger.clone());
        let ladder = (&COST_PRIORS_MS[..], DegradationLevel::FullMl);
        self.run_inner(source, trigger, ladder, 0, Vec::new())
    }

    /// Resume from a checkpoint: the source is deterministically skipped
    /// past the checkpointed position, the trigger (including any open
    /// epoch) and the scheduler's learned state pick up where they were.
    pub fn resume(&self, mut source: StreamingSource, ckpt: Checkpoint) -> FlightRunReport {
        source.skip_until(ckpt.t_s);
        let ladder = (&ckpt.cost_model_ms[..], ckpt.level);
        self.run_inner(source, ckpt.trigger, ladder, ckpt.epoch_index, ckpt.alerts)
    }

    /// `ladder` seeds the scheduler's cost model and rung.
    fn run_inner(
        &self,
        source: StreamingSource,
        trigger: OnlineTrigger,
        ladder: (&[f64], DegradationLevel),
        epoch_index: u64,
        prior_alerts: Vec<GrbAlert>,
    ) -> FlightRunReport {
        let config = &self.config;
        let models = self.models;
        let live = self.live;
        let fan_out = FanOut::new(self.recorder, live);
        let recorder = fan_out.recorder();
        if let Some(obs) = live {
            let reg = obs.registry();
            reg.gauge("adapt_ingest_queue_capacity", &[("queue", "ingest")])
                .set(config.ingest_capacity as f64);
            reg.gauge("adapt_epoch_queue_capacity", &[("queue", "epoch")])
                .set(EPOCH_CAPACITY as f64);
        }
        // surface the hostile-sky injection set: how many scenario
        // components shape this stream (0 on a quiet sky)
        let n_components = source.scenario().components.len();
        if n_components > 0 {
            recorder.add(Counter::ScenarioComponentsActive, n_components as u64);
        }
        // compile both shared plans on this thread, before workers race
        models.quantized_background.plan();
        let compiled_background = CompiledMlp::compile(&models.background);
        let scheduler = EpochScheduler::new(
            EpochLocalizer::new(
                models,
                &compiled_background,
                REDUCED_ITERATIONS,
                COARSE_PIXELS,
                SkyPixelization::default(),
                recorder,
            ),
            config.deadline_ms,
            config.deterministic,
        )
        .with_state(ladder.0, ladder.1);

        let ingest_q: BoundedQueue<adapt_sim::StreamedEvent> =
            BoundedQueue::new("ingest", config.ingest_capacity, DropPolicy::DropNewest);
        let epoch_q: BoundedQueue<ScheduledEpoch> =
            BoundedQueue::new("epoch", EPOCH_CAPACITY, DropPolicy::Block);
        let killed = AtomicBool::new(false);
        let alerts: Mutex<Vec<GrbAlert>> = Mutex::new(prior_alerts);
        let checkpoint_written = AtomicBool::new(false);

        let t_start = Instant::now();
        let stream_stats = std::thread::scope(|scope| {
            // ── ingest: source → ingest queue, shedding under pressure ──
            let ingest = scope.spawn(|| {
                let mut source = source;
                let kill_at = config.kill_at_s;
                for se in &mut source {
                    if let Some(k) = kill_at {
                        if se.t_s > k {
                            killed.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    let t_s = se.t_s;
                    if ingest_q.push(se) {
                        recorder.add(Counter::EventsIngested, 1);
                    } else {
                        recorder.add(Counter::EventsDropped, 1);
                    }
                    recorder.queue_depth("ingest", ingest_q.len() as u64);
                    if let Some(obs) = live {
                        obs.tick(t_s);
                    }
                }
                ingest_q.close();
                source.stats()
            });

            // ── trigger: ingest queue → epochs, plus checkpointing ──
            scope.spawn(|| {
                let mut trigger = trigger;
                let mut next_index = epoch_index;
                let mut next_ckpt_s = if config.checkpoint_every_s > 0.0 {
                    trigger.last_t_s() + config.checkpoint_every_s
                } else {
                    f64::INFINITY
                };
                let write_ckpt = |trigger: &OnlineTrigger, next_index: u64| {
                    let Some(path) = &config.checkpoint_path else {
                        return;
                    };
                    let (cost_model_ms, level) = scheduler.snapshot();
                    let ck = Checkpoint {
                        schema: CHECKPOINT_SCHEMA,
                        t_s: trigger.last_t_s(),
                        trigger: trigger.clone(),
                        cost_model_ms: cost_model_ms.to_vec(),
                        level,
                        epoch_index: next_index,
                        alerts: alerts.lock().unwrap().clone(),
                    };
                    if ck.save(path).is_ok() {
                        recorder.add(Counter::CheckpointsWritten, 1);
                        checkpoint_written.store(true, Ordering::SeqCst);
                    }
                };
                let dispatch = |epoch: OpenEpoch, next_index: &mut u64| {
                    let job = scheduler.admit(0, *next_index, config.seed, epoch, ingest_q.len());
                    *next_index += 1;
                    epoch_q.push(job);
                    recorder.queue_depth("epoch", epoch_q.len() as u64);
                };
                let onsets = &config.truth_onsets_s;
                let near_truth = |t: f64| {
                    onsets
                        .iter()
                        .any(|&o| t >= o - 1.0 && t <= o + config.truth_window_s)
                };
                while let Some(se) = ingest_q.pop() {
                    let want_detail =
                        recorder.is_enabled() && !onsets.is_empty() && near_truth(se.t_s);
                    let (done, decision) = trigger.observe_explained(&se, want_detail);
                    if let Some(rec) = decision {
                        if recorder.is_enabled() {
                            recorder.trigger_decision(&rec);
                        }
                    }
                    if let Some(done) = done {
                        dispatch(done, &mut next_index);
                    }
                    if se.t_s >= next_ckpt_s {
                        write_ckpt(&trigger, next_index);
                        next_ckpt_s += config.checkpoint_every_s;
                    }
                }
                if killed.load(Ordering::SeqCst) {
                    // simulated process death: persist state, do NOT
                    // flush the open epoch — restore must recover it
                    write_ckpt(&trigger, next_index);
                } else if let Some(tail) = trigger.flush() {
                    dispatch(tail, &mut next_index);
                }
                epoch_q.close();
            });

            // ── worker: epochs → alerts, degrading to meet the deadline ──
            scope.spawn(|| {
                let mut ws = InferenceWorkspace::new();
                while let Some(job) = epoch_q.pop() {
                    let depths = || (ingest_q.len(), epoch_q.len());
                    let Some(alert) =
                        scheduler.localize(&job, epoch_q.len(), None, depths, &mut ws)
                    else {
                        continue;
                    };
                    recorder.queue_depth("epoch", alert.epoch_depth as u64);
                    alerts.lock().unwrap().push(alert);
                }
            });

            ingest.join().expect("ingest thread panicked")
        });

        let wall_s = t_start.elapsed().as_secs_f64();
        let ingest_stats = ingest_q.stats();
        let epoch_stats = epoch_q.stats();
        let alerts = alerts.into_inner().unwrap();
        if !config.truth_onsets_s.is_empty() {
            let truth =
                match_alerts_to_truth(&alerts, &config.truth_onsets_s, config.truth_window_s);
            recorder.add(Counter::FalseAlerts, truth.false_alerts as u64);
            recorder.add(Counter::MissedBursts, truth.missed as u64);
        }
        FlightRunReport {
            alerts,
            transitions: scheduler.into_transitions(),
            ingest_stats,
            epoch_stats,
            // the trigger closes the epoch queue only after its last
            // push, so every dispatched epoch was accepted
            epochs_dispatched: epoch_stats.pushed,
            stream_stats,
            wall_s,
            sustained_events_per_s: ingest_stats.pushed as f64 / wall_s.max(1e-9),
            killed: killed.load(Ordering::SeqCst),
            checkpoint_written: checkpoint_written.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::choose_level;

    #[test]
    fn containment_source_defaults_to_heuristic_on_old_alerts() {
        // Checkpoints written before the field existed must resume: a
        // GrbAlert without `containment_source` deserializes to the
        // heuristic estimator (which is what every old alert used
        // outside the sky-map rung, and conservative for it).
        let json = r#"{
            "t_trigger_s": 1.0, "significance_sigma": 9.0,
            "polar_deg": 10.0, "azimuth_deg": 20.0,
            "containment_radius_deg": 2.5, "mode": "FullMl",
            "rings": 50, "surviving_rings": 40, "latency_ms": 12.0,
            "deadline_ms": 500.0, "ingest_depth": 0, "epoch_depth": 0
        }"#;
        let alert: GrbAlert = serde_json::from_str(json).expect("legacy alert deserializes");
        assert_eq!(alert.containment_source, ContainmentSource::Heuristic);
        // And the new field round-trips through its stable names.
        for src in [ContainmentSource::Skymap, ContainmentSource::Heuristic] {
            assert_eq!(ContainmentSource::parse(src.name()), Some(src));
            let encoded = serde_json::to_string(&src).unwrap();
            assert_eq!(encoded, format!("\"{}\"", src.name()));
        }
        assert_eq!(ContainmentSource::parse("psychic"), None);
    }

    #[test]
    fn ladder_names_are_stable_and_ordered() {
        let names: Vec<&str> = DegradationLevel::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            ["full-ml", "reduced-ml", "coarse-skymap", "classical"]
        );
        for (i, l) in DegradationLevel::ALL.into_iter().enumerate() {
            assert_eq!(l.slot(), i);
        }
    }

    #[test]
    fn choose_level_degrades_with_budget_and_backlog() {
        let cost = [40.0, 20.0, 8.0, 4.0];
        assert_eq!(choose_level(&cost, 400.0, 0).0, DegradationLevel::FullMl);
        let (l, why) = choose_level(&cost, 25.0, 0);
        assert_eq!(l, DegradationLevel::ReducedMl);
        assert_eq!(why, "deadline-budget");
        let (l, why) = choose_level(&cost, 400.0, 2);
        assert_eq!(l, DegradationLevel::CoarseSkymap);
        assert_eq!(why, "queue-pressure");
        // nothing fits: classical, always
        let (l, why) = choose_level(&cost, 0.5, 0);
        assert_eq!(l, DegradationLevel::Classical);
        assert_eq!(why, "deadline-budget");
    }

    #[test]
    fn truth_matching_classifies_alerts_and_onsets() {
        let mk = |t: f64| GrbAlert {
            t_trigger_s: t,
            significance_sigma: 8.0,
            polar_deg: 0.0,
            azimuth_deg: 0.0,
            containment_radius_deg: 1.0,
            containment_source: ContainmentSource::Heuristic,
            mode: DegradationLevel::FullMl,
            rings: 1,
            surviving_rings: 1,
            latency_ms: 10.0,
            deadline_ms: 500.0,
            ingest_depth: 0,
            epoch_depth: 0,
        };
        // onset 100 detected (two alerts, first wins), onset 300 missed,
        // alert at 200 matches nothing
        let alerts = vec![mk(100.4), mk(104.0), mk(200.0)];
        let truth = match_alerts_to_truth(&alerts, &[100.0, 300.0], 10.0);
        assert_eq!(truth.n_truth, 2);
        assert_eq!(truth.n_alerts, 3);
        assert_eq!(truth.detected, 1);
        assert_eq!(truth.missed, 1);
        assert_eq!(truth.false_alerts, 1);
        assert_eq!(truth.latencies_s.len(), 1);
        assert!((truth.latencies_s[0] - 0.4).abs() < 1e-9);
        assert!((truth.detection_efficiency() - 0.5).abs() < 1e-12);
        // no truth: efficiency is vacuously 1, everything is false
        let truth = match_alerts_to_truth(&alerts, &[], 10.0);
        assert_eq!(truth.false_alerts, 3);
        assert!((truth.detection_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles() {
        let mk = |ms: f64| GrbAlert {
            t_trigger_s: 0.0,
            significance_sigma: 8.0,
            polar_deg: 0.0,
            azimuth_deg: 0.0,
            containment_radius_deg: 1.0,
            containment_source: ContainmentSource::Heuristic,
            mode: DegradationLevel::FullMl,
            rings: 1,
            surviving_rings: 1,
            latency_ms: ms,
            deadline_ms: 500.0,
            ingest_depth: 0,
            epoch_depth: 0,
        };
        let report = FlightRunReport {
            alerts: vec![mk(5.0), mk(1.0), mk(9.0)],
            transitions: vec![],
            ingest_stats: QueueStats::default(),
            epoch_stats: QueueStats::default(),
            epochs_dispatched: 3,
            stream_stats: StreamStats::default(),
            wall_s: 1.0,
            sustained_events_per_s: 0.0,
            killed: false,
            checkpoint_written: false,
        };
        assert_eq!(report.latency_percentile_ms(0.0), Some(1.0));
        assert_eq!(report.latency_percentile_ms(1.0), Some(9.0));
        assert_eq!(report.latency_percentile_ms(0.5), Some(5.0));
    }
}
