//! The span/counter recording API and the in-memory flight recorder.
//!
//! Instrumented code takes a `&dyn Recorder`; the default
//! [`NoopRecorder`] makes every call a no-inline-barrier empty body, so
//! instrumentation costs ~nothing when telemetry is disabled. The
//! [`FlightRecorder`] implementation routes stage durations into
//! lock-free [`LatencyHistogram`]s, counters into atomics, and loop
//! introspection records into an append-only event log (a mutex on the
//! cold, once-per-iteration path only).

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Pipeline stages with latency histograms (paper Tables I/II rows plus
/// the sky-map rasterizer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Event reconstruction (events → rings).
    Reconstruction,
    /// Localization setup (ring staging).
    Setup,
    /// dEta network inference.
    DEtaInference,
    /// Background network inference (all loop iterations).
    BackgroundInference,
    /// Approximation + all refinement solves.
    ApproxRefine,
    /// End-to-end trial (excluding physics simulation).
    Total,
    /// Posterior sky-map rasterization.
    SkymapRasterize,
    /// Onboard runtime: epoch-ready to alert-emitted wall time (includes
    /// queue wait, reconstruction, and localization).
    AlertLatency,
}

impl Stage {
    /// Every stage, in table (and declaration) order: `stage as usize`
    /// indexes it.
    pub const ALL: [Stage; 8] = [
        Stage::Reconstruction,
        Stage::Setup,
        Stage::DEtaInference,
        Stage::BackgroundInference,
        Stage::ApproxRefine,
        Stage::Total,
        Stage::SkymapRasterize,
        Stage::AlertLatency,
    ];

    /// Stable machine name (NDJSON field value).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Reconstruction => "reconstruction",
            Stage::Setup => "setup",
            Stage::DEtaInference => "d_eta_inference",
            Stage::BackgroundInference => "background_inference",
            Stage::ApproxRefine => "approx_refine",
            Stage::Total => "total",
            Stage::SkymapRasterize => "skymap_rasterize",
            Stage::AlertLatency => "alert_latency",
        }
    }

    /// Row label in the paper's Table-I format.
    pub fn table_label(self) -> &'static str {
        match self {
            Stage::Reconstruction => "Reconstruction",
            Stage::Setup => "Localization Setup",
            Stage::DEtaInference => "DEta NN Inference",
            Stage::BackgroundInference => "Bkg NN Inference",
            Stage::ApproxRefine => "Approx + Refine",
            Stage::Total => "Total (Max 5 iter)",
            Stage::SkymapRasterize => "Skymap Rasterize",
            Stage::AlertLatency => "Alert Latency",
        }
    }

    /// Parse a machine name back into a stage.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }
}

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Trials recorded.
    TrialsRun,
    /// Rings entering localization, summed over trials.
    RingsIn,
    /// Rings dropped by background rejection, summed over trials.
    RingsRejected,
    /// Background-rejection loop iterations executed.
    LoopIterations,
    /// Events discarded in reconstruction for non-physical η or
    /// zero-energy deposits. Flight and ground epochs carry only events
    /// with a sequenceable hit count, so there single-site events below
    /// the energy floor are never offered and never counted; the trial
    /// pipeline reconstructs every event and still counts them.
    DegenerateRings,
    /// Feature rows fed into the drift monitor.
    DriftRows,
    /// Mean PSI across monitored features, in milli-units (PSI 0.213 →
    /// 213) — counters are integers, and milli-PSI keeps three decimals.
    DriftMeanPsiMilli,
    /// Features whose PSI exceeded the 0.2 "significant shift" flag.
    DriftFeaturesFlagged,
    /// Onboard runtime: events accepted into the ingest queue.
    EventsIngested,
    /// Onboard runtime: events dropped by queue backpressure policy.
    EventsDropped,
    /// Onboard runtime: localization epochs opened by the rate trigger.
    EpochsOpened,
    /// Onboard runtime: GRB alerts emitted (one per [`Recorder::alert`]).
    AlertsEmitted,
    /// Onboard runtime: degradation-level transitions taken (one per
    /// [`Recorder::degradation`]).
    DegradationTransitions,
    /// Onboard runtime: checkpoints written.
    CheckpointsWritten,
    /// Ground segment: flight streams multiplexed by the service.
    StreamsServed,
    /// Ground segment: alert deliveries accepted into subscriber
    /// mailboxes.
    AlertsFannedOut,
    /// Ground segment: alert deliveries shed at full subscriber
    /// mailboxes (slow consumers).
    FanoutShed,
    /// Robustness matrix: alerts not matching any ground-truth injection
    /// (onset matching happens in the runtime when truth is supplied).
    FalseAlerts,
    /// Robustness matrix: ground-truth injections that never produced a
    /// matching alert.
    MissedBursts,
    /// Hostile-sky scenario components active on the evaluated stream.
    ScenarioComponentsActive,
}

impl Counter {
    /// Every counter, in export (and declaration) order: `counter as
    /// usize` indexes it.
    pub const ALL: [Counter; 20] = [
        Counter::TrialsRun,
        Counter::RingsIn,
        Counter::RingsRejected,
        Counter::LoopIterations,
        Counter::DegenerateRings,
        Counter::DriftRows,
        Counter::DriftMeanPsiMilli,
        Counter::DriftFeaturesFlagged,
        Counter::EventsIngested,
        Counter::EventsDropped,
        Counter::EpochsOpened,
        Counter::AlertsEmitted,
        Counter::DegradationTransitions,
        Counter::CheckpointsWritten,
        Counter::StreamsServed,
        Counter::AlertsFannedOut,
        Counter::FanoutShed,
        Counter::FalseAlerts,
        Counter::MissedBursts,
        Counter::ScenarioComponentsActive,
    ];

    /// Stable machine name (NDJSON field value).
    pub fn name(self) -> &'static str {
        match self {
            Counter::TrialsRun => "trials_run",
            Counter::RingsIn => "rings_in",
            Counter::RingsRejected => "rings_rejected",
            Counter::LoopIterations => "loop_iterations",
            Counter::DegenerateRings => "degenerate_rings",
            Counter::DriftRows => "drift_rows",
            Counter::DriftMeanPsiMilli => "drift_mean_psi_milli",
            Counter::DriftFeaturesFlagged => "drift_features_flagged",
            Counter::EventsIngested => "events_ingested",
            Counter::EventsDropped => "events_dropped",
            Counter::EpochsOpened => "epochs_opened",
            Counter::AlertsEmitted => "alerts_emitted",
            Counter::DegradationTransitions => "degradation_transitions",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::StreamsServed => "streams_served",
            Counter::AlertsFannedOut => "alerts_fanned_out",
            Counter::FanoutShed => "fanout_shed",
            Counter::FalseAlerts => "false_alerts",
            Counter::MissedBursts => "missed_bursts",
            Counter::ScenarioComponentsActive => "scenario_components_active",
        }
    }
}

/// Number of probability bins in the per-iteration background-score
/// histogram (uniform over `[0, 1]`).
pub const SCORE_BINS: usize = 10;

/// One background-rejection iteration of the Fig.-6 loop.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoopIterationRecord {
    /// 1-based iteration index within this localization.
    pub iteration: usize,
    /// Rings entering the iteration.
    pub rings_in: usize,
    /// Rings surviving this iteration's rejection.
    pub rings_kept: usize,
    /// Histogram of background scores (sigmoid probabilities) over the
    /// rings entering the iteration, [`SCORE_BINS`] uniform bins.
    pub score_hist: [u32; SCORE_BINS],
    /// Angular movement of the estimate ŝ this iteration (degrees); NaN
    /// when the iteration broke before re-refining (serialized as null).
    pub step_deg: f64,
}

/// End-of-loop summary of one localization.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoopSummaryRecord {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether ŝ converged below tolerance before the iteration cap.
    pub converged: bool,
    /// Rings surviving into the final refinement.
    pub surviving_rings: usize,
    /// Mean |dη_network − dη_analytic| over surviving rings (0 when the
    /// dEta update is disabled).
    pub mean_abs_d_eta_correction: f64,
}

/// One degradation-level transition of the onboard scheduler. Levels are
/// plain strings so the telemetry crate stays decoupled from the onboard
/// runtime's ladder definition.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DegradationRecord {
    /// Stream time of the epoch that caused the transition (s).
    pub t_s: f64,
    /// Level before the transition (machine name, e.g. `full-ml`).
    pub from: String,
    /// Level after the transition.
    pub to: String,
    /// Why the scheduler moved (e.g. `deadline-budget`, `queue-pressure`).
    pub reason: String,
}

/// One span of a causal alert trace. A trace id is minted when the
/// trigger opens an epoch (`s{stream}.e{epoch}` — the flight runtime is
/// stream 0) and carried through queueing, scheduling, localization, and
/// fan-out, so one alert's full photon→mailbox path can be reconstructed
/// as a span tree from the NDJSON capture (`telemetry-report --trace`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceSpanRecord {
    /// Trace id shared by every span of one epoch (`s{stream}.e{epoch}`).
    pub trace_id: String,
    /// Span name (`trigger`, `queue-wait`, `schedule`, `localize`,
    /// `fanout`).
    pub span: String,
    /// Parent span name within the same trace; `None` for the root.
    pub parent: Option<String>,
    /// Stream time at which the epoch opened (s).
    pub t_s: f64,
    /// Span start, wall milliseconds after the epoch became ready.
    pub start_ms: f64,
    /// Span wall duration (ms).
    pub duration_ms: f64,
    /// Queue depth observed at this hop (ingest/epoch/pool backlog).
    pub queue_depth: u64,
    /// Free-form detail (degradation level, rejection reason, fan-out
    /// delivered/shed counts, ...).
    pub detail: String,
}

/// One trigger window's evidence inside a [`TriggerDecisionRecord`]: the
/// counts/expectation/σ the trigger computed for a single sliding-window
/// width at the decision instant.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowDecision {
    /// Sliding-window width (s).
    pub width_s: f64,
    /// Events observed inside the window.
    pub counts: u64,
    /// Expected background counts from the calibration baseline.
    pub expected: f64,
    /// Gaussian excess significance `(counts − expected)/√expected`.
    pub sigma: f64,
}

/// One fire/no-fire decision of the online rate trigger, captured with
/// everything the trigger looked at: the calibration baseline, the σ
/// excess per window width, and the refractory/calibration state. The
/// runtime emits these near ground-truth onsets (and for every fire), so
/// `telemetry-report --forensics` can reconstruct *why* a burst was
/// missed or a background ramp fired.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TriggerDecisionRecord {
    /// Stream time of the evaluated event (s).
    pub t_s: f64,
    /// Whether the trigger opened an epoch at this decision.
    pub fired: bool,
    /// Whether the decision lies inside a ground-truth onset window.
    pub near_truth: bool,
    /// Machine-readable outcome: `fired`, `below-threshold`,
    /// `refractory`, `calibrating`, or `epoch-open`.
    pub reason: String,
    /// Background rate baseline the expectations were derived from (Hz).
    pub background_rate_hz: f64,
    /// Calibration time accumulated when the decision was made (s).
    pub calibration_elapsed_s: f64,
    /// Significance threshold the σ excesses were compared against.
    pub threshold_sigma: f64,
    /// Whether the trigger was inside its post-epoch refractory hold.
    pub frozen: bool,
    /// Per-width evidence (empty when the trigger bailed before
    /// evaluating windows, e.g. while calibrating or refractory).
    pub windows: Vec<WindowDecision>,
}

/// One emitted GRB alert, as seen by telemetry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AlertRecord {
    /// Tenant stream that triggered (`0` for the single-stream flight
    /// runtime).
    pub stream_id: u64,
    /// Trigger time in stream seconds.
    pub t_s: f64,
    /// Degradation level that produced the localization (machine name).
    pub mode: String,
    /// Best-estimate polar angle (degrees).
    pub polar_deg: f64,
    /// Best-estimate azimuth (degrees).
    pub azimuth_deg: f64,
    /// Containment radius around the estimate (degrees).
    pub containment_radius_deg: f64,
    /// How the containment radius was computed: `"skymap"` (credible
    /// region of a rasterized posterior) or `"heuristic"` (pointwise 1σ
    /// circular-error estimate).
    pub containment_source: String,
    /// Epoch-ready to emission wall latency (ms).
    pub latency_ms: f64,
    /// Rings entering localization for this epoch.
    pub rings: u64,
    /// Ingest-queue depth at emission.
    pub ingest_depth: u64,
    /// Epoch-queue depth at emission.
    pub epoch_depth: u64,
}

/// The recording interface instrumented code talks to. Every method has
/// an empty default body, so a no-op recorder costs one virtual call per
/// span — negligible against the microseconds-to-milliseconds stages it
/// wraps.
pub trait Recorder: Sync {
    /// Whether recording is live. Instrumented code may consult this
    /// before computing anything *extra* for telemetry (e.g. score
    /// histograms); plain `duration`/`add` calls are cheap enough to
    /// make unconditionally. Defaults to `false` (disabled).
    fn is_enabled(&self) -> bool {
        false
    }

    /// Record one stage duration.
    fn duration(&self, stage: Stage, d: Duration) {
        let _ = (stage, d);
    }

    /// Bump a counter.
    fn add(&self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// Record one background-rejection iteration.
    fn loop_iteration(&self, record: &LoopIterationRecord) {
        let _ = record;
    }

    /// Record the end-of-loop summary.
    fn loop_summary(&self, record: &LoopSummaryRecord) {
        let _ = record;
    }

    /// Record (and count) a degradation-level transition of the onboard
    /// scheduler.
    fn degradation(&self, record: &DegradationRecord) {
        let _ = record;
    }

    /// Record (and count) an emitted GRB alert.
    fn alert(&self, record: &AlertRecord) {
        let _ = record;
    }

    /// Sample a stage queue's depth (a gauge: the recorder keeps the
    /// maximum and the sample count per queue name).
    fn queue_depth(&self, queue: &str, depth: u64) {
        let _ = (queue, depth);
    }

    /// Record one span of a causal alert trace.
    fn trace_span(&self, record: &TraceSpanRecord) {
        let _ = record;
    }

    /// Record one fire/no-fire decision of the online rate trigger.
    fn trigger_decision(&self, record: &TriggerDecisionRecord) {
        let _ = record;
    }
}

/// The disabled recorder: every hook is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// The shared disabled recorder instrumented types default to.
pub fn noop() -> &'static NoopRecorder {
    static NOOP: NoopRecorder = NoopRecorder;
    &NOOP
}

/// One completed trial, as recorded by a driver (not part of the hot-path
/// [`Recorder`] trait — drivers push it once per trial).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Pipeline mode machine name (e.g. `ml`, `baseline`).
    pub mode: String,
    /// Trial seed.
    pub seed: u64,
    /// Localization error (degrees).
    pub error_deg: f64,
    /// Rings entering localization.
    pub rings_in: usize,
    /// Rings surviving background rejection.
    pub rings_surviving: usize,
    /// Events discarded in reconstruction as degenerate.
    pub degenerate_rings: usize,
    /// End-to-end latency (ms).
    pub total_ms: f64,
}

/// A loop event tagged with the trial context active when it was emitted.
#[derive(Debug, Clone)]
pub enum LoopEvent {
    /// One rejection iteration.
    Iteration {
        /// Mode machine name of the enclosing trial.
        mode: String,
        /// Seed of the enclosing trial.
        seed: u64,
        /// The iteration record.
        record: LoopIterationRecord,
    },
    /// One end-of-loop summary.
    Summary {
        /// Mode machine name of the enclosing trial.
        mode: String,
        /// Seed of the enclosing trial.
        seed: u64,
        /// The summary record.
        record: LoopSummaryRecord,
    },
}

/// The in-memory flight recorder: per-stage lock-free histograms, atomic
/// counters, and an event log of loop introspection records and trials.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    stages: [LatencyHistogram; Stage::ALL.len()],
    counters: [AtomicU64; Counter::ALL.len()],
    events: Mutex<Vec<LoopEvent>>,
    trials: Mutex<Vec<TrialRecord>>,
    context: Mutex<(String, u64)>,
    degradations: Mutex<Vec<DegradationRecord>>,
    alerts: Mutex<Vec<AlertRecord>>,
    queues: Mutex<BTreeMap<String, QueueGauge>>,
    traces: Mutex<Vec<TraceSpanRecord>>,
    trigger_decisions: Mutex<Vec<TriggerDecisionRecord>>,
}

/// Aggregated queue-depth gauge: maximum observed depth and how many
/// samples contributed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueGauge {
    /// Highest depth seen.
    pub max_depth: u64,
    /// Number of depth samples.
    pub samples: u64,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the trial context (mode, seed) attached to subsequent loop
    /// events. Drivers call this once before each trial.
    pub fn begin_trial(&self, mode: &str, seed: u64) {
        let mut ctx = self.context.lock().unwrap();
        *ctx = (mode.to_string(), seed);
    }

    /// Append one completed trial record.
    pub fn push_trial(&self, record: TrialRecord) {
        self.trials.lock().unwrap().push(record);
    }

    /// The histogram backing a stage.
    pub fn stage_histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage as usize]
    }

    /// A percentile snapshot of a stage.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stage_histogram(stage).snapshot()
    }

    /// Current value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// The loop-event log (iteration + summary records, in emission order).
    pub fn loop_events(&self) -> Vec<LoopEvent> {
        self.events.lock().unwrap().clone()
    }

    /// The trial log.
    pub fn trial_records(&self) -> Vec<TrialRecord> {
        self.trials.lock().unwrap().clone()
    }

    /// The degradation-transition log (emission order).
    pub fn degradation_records(&self) -> Vec<DegradationRecord> {
        self.degradations.lock().unwrap().clone()
    }

    /// The alert log (emission order).
    pub fn alert_records(&self) -> Vec<AlertRecord> {
        self.alerts.lock().unwrap().clone()
    }

    /// The trace-span log (emission order).
    pub fn trace_records(&self) -> Vec<TraceSpanRecord> {
        self.traces.lock().unwrap().clone()
    }

    /// The trigger-decision log (emission order).
    pub fn trigger_decision_records(&self) -> Vec<TriggerDecisionRecord> {
        self.trigger_decisions.lock().unwrap().clone()
    }

    /// Aggregated queue gauges, sorted by queue name.
    pub fn queue_gauges(&self) -> Vec<(String, QueueGauge)> {
        self.queues
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Fold another recorder's histograms, counters, and event logs into
    /// this one (per-thread recording → reduction).
    pub fn merge(&self, other: &FlightRecorder) {
        for (a, b) in self.stages.iter().zip(other.stages.iter()) {
            a.merge(b);
        }
        for (a, b) in self.counters.iter().zip(other.counters.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.events
            .lock()
            .unwrap()
            .extend(other.events.lock().unwrap().iter().cloned());
        self.trials
            .lock()
            .unwrap()
            .extend(other.trials.lock().unwrap().iter().cloned());
        self.degradations
            .lock()
            .unwrap()
            .extend(other.degradations.lock().unwrap().iter().cloned());
        self.alerts
            .lock()
            .unwrap()
            .extend(other.alerts.lock().unwrap().iter().cloned());
        self.traces
            .lock()
            .unwrap()
            .extend(other.traces.lock().unwrap().iter().cloned());
        self.trigger_decisions
            .lock()
            .unwrap()
            .extend(other.trigger_decisions.lock().unwrap().iter().cloned());
        let mut mine = self.queues.lock().unwrap();
        for (name, g) in other.queues.lock().unwrap().iter() {
            let entry = mine.entry(name.clone()).or_default();
            entry.max_depth = entry.max_depth.max(g.max_depth);
            entry.samples += g.samples;
        }
    }

    fn current_context(&self) -> (String, u64) {
        self.context.lock().unwrap().clone()
    }
}

impl Recorder for FlightRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn duration(&self, stage: Stage, d: Duration) {
        self.stage_histogram(stage).record(d);
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn loop_iteration(&self, record: &LoopIterationRecord) {
        let (mode, seed) = self.current_context();
        self.events.lock().unwrap().push(LoopEvent::Iteration {
            mode,
            seed,
            record: record.clone(),
        });
    }

    fn loop_summary(&self, record: &LoopSummaryRecord) {
        let (mode, seed) = self.current_context();
        self.events.lock().unwrap().push(LoopEvent::Summary {
            mode,
            seed,
            record: record.clone(),
        });
    }

    fn degradation(&self, record: &DegradationRecord) {
        self.add(Counter::DegradationTransitions, 1);
        self.degradations.lock().unwrap().push(record.clone());
    }

    fn alert(&self, record: &AlertRecord) {
        self.add(Counter::AlertsEmitted, 1);
        self.alerts.lock().unwrap().push(record.clone());
    }

    fn queue_depth(&self, queue: &str, depth: u64) {
        let mut queues = self.queues.lock().unwrap();
        let entry = queues.entry(queue.to_string()).or_default();
        entry.max_depth = entry.max_depth.max(depth);
        entry.samples += 1;
    }

    fn trace_span(&self, record: &TraceSpanRecord) {
        self.traces.lock().unwrap().push(record.clone());
    }

    fn trigger_decision(&self, record: &TriggerDecisionRecord) {
        self.trigger_decisions.lock().unwrap().push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_accepts_everything() {
        let r = NoopRecorder;
        r.duration(Stage::Total, Duration::from_millis(1));
        r.add(Counter::RingsIn, 5);
        r.loop_iteration(&LoopIterationRecord {
            iteration: 1,
            rings_in: 10,
            rings_kept: 8,
            score_hist: [0; SCORE_BINS],
            step_deg: 0.1,
        });
        r.loop_summary(&LoopSummaryRecord {
            iterations: 1,
            converged: true,
            surviving_rings: 8,
            mean_abs_d_eta_correction: 0.0,
        });
    }

    #[test]
    fn flight_recorder_routes_by_stage_and_counter() {
        let r = FlightRecorder::new();
        r.duration(Stage::Reconstruction, Duration::from_micros(100));
        r.duration(Stage::Reconstruction, Duration::from_micros(200));
        r.duration(Stage::Total, Duration::from_millis(5));
        r.add(Counter::RingsIn, 100);
        r.add(Counter::RingsIn, 50);
        assert_eq!(r.stage_histogram(Stage::Reconstruction).count(), 2);
        assert_eq!(r.stage_histogram(Stage::Total).count(), 1);
        assert_eq!(r.stage_histogram(Stage::Setup).count(), 0);
        assert_eq!(r.counter(Counter::RingsIn), 150);
        assert_eq!(r.counter(Counter::RingsRejected), 0);
    }

    #[test]
    fn loop_events_carry_trial_context() {
        let r = FlightRecorder::new();
        r.begin_trial("ml", 42);
        r.loop_iteration(&LoopIterationRecord {
            iteration: 1,
            rings_in: 20,
            rings_kept: 15,
            score_hist: [0; SCORE_BINS],
            step_deg: 1.0,
        });
        r.begin_trial("quantized", 43);
        r.loop_summary(&LoopSummaryRecord {
            iterations: 3,
            converged: false,
            surviving_rings: 15,
            mean_abs_d_eta_correction: 0.01,
        });
        let ev = r.loop_events();
        assert_eq!(ev.len(), 2);
        match &ev[0] {
            LoopEvent::Iteration { mode, seed, record } => {
                assert_eq!(mode, "ml");
                assert_eq!(*seed, 42);
                assert_eq!(record.rings_kept, 15);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &ev[1] {
            LoopEvent::Summary { mode, seed, .. } => {
                assert_eq!(mode, "quantized");
                assert_eq!(*seed, 43);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_folds_everything() {
        let a = FlightRecorder::new();
        let b = FlightRecorder::new();
        a.duration(Stage::Setup, Duration::from_micros(10));
        b.duration(Stage::Setup, Duration::from_micros(30));
        b.add(Counter::TrialsRun, 2);
        b.begin_trial("ml", 1);
        b.loop_summary(&LoopSummaryRecord {
            iterations: 2,
            converged: true,
            surviving_rings: 4,
            mean_abs_d_eta_correction: 0.0,
        });
        a.merge(&b);
        assert_eq!(a.stage_histogram(Stage::Setup).count(), 2);
        assert_eq!(a.counter(Counter::TrialsRun), 2);
        assert_eq!(a.loop_events().len(), 1);
    }

    #[test]
    fn onboard_records_route_and_merge() {
        let a = FlightRecorder::new();
        let b = FlightRecorder::new();
        a.queue_depth("ingest", 3);
        a.queue_depth("ingest", 7);
        b.queue_depth("ingest", 5);
        b.queue_depth("epoch", 1);
        b.degradation(&DegradationRecord {
            t_s: 12.5,
            from: "full-ml".into(),
            to: "classical".into(),
            reason: "deadline-budget".into(),
        });
        b.alert(&AlertRecord {
            stream_id: 3,
            t_s: 12.5,
            mode: "classical".into(),
            polar_deg: 20.0,
            azimuth_deg: 1.0,
            containment_radius_deg: 5.0,
            containment_source: "heuristic".into(),
            latency_ms: 8.0,
            rings: 40,
            ingest_depth: 2,
            epoch_depth: 0,
        });
        b.trigger_decision(&TriggerDecisionRecord {
            t_s: 12.4,
            fired: true,
            near_truth: true,
            reason: "fired".into(),
            background_rate_hz: 150.0,
            calibration_elapsed_s: 12.0,
            threshold_sigma: 7.0,
            frozen: false,
            windows: vec![WindowDecision {
                width_s: 0.256,
                counts: 90,
                expected: 38.4,
                sigma: 8.3,
            }],
        });
        a.merge(&b);
        let gauges = a.queue_gauges();
        assert_eq!(gauges.len(), 2);
        let ingest = gauges.iter().find(|(n, _)| n == "ingest").unwrap();
        assert_eq!(ingest.1.max_depth, 7);
        assert_eq!(ingest.1.samples, 3);
        assert_eq!(a.degradation_records().len(), 1);
        assert_eq!(a.alert_records()[0].mode, "classical");
        // records derive their own counters
        assert_eq!(a.counter(Counter::AlertsEmitted), 1);
        assert_eq!(a.counter(Counter::DegradationTransitions), 1);
        let decisions = a.trigger_decision_records();
        assert_eq!(decisions.len(), 1);
        assert!(decisions[0].fired);
        assert_eq!(decisions[0].windows.len(), 1);
    }

    #[test]
    fn slots_are_discriminants() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{}", c.name());
        }
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i, "{}", s.name());
        }
    }

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s));
        }
        assert_eq!(Stage::parse("warp_drive"), None);
    }
}
