//! NDJSON export of a [`FlightRecorder`] and the matching schema
//! validator.
//!
//! One JSON object per line. Line types (`"type"` field):
//!
//! * `meta` — first line: `schema`, `tool`, `repetitions`;
//! * `trial` — one per recorded trial: mode, seed, outcome, latency;
//! * `loop_iteration` — one per background-rejection iteration: rings
//!   in/kept, background-score histogram, angular step;
//! * `loop_summary` — one per ML localization: iterations, convergence,
//!   mean |dη correction|;
//! * `stage` — one per instrumented stage with samples: count, mean,
//!   p50/p90/p99, min/max (ms);
//! * `counter` — one per non-zero counter;
//! * `degradation` — one per onboard scheduler level transition: stream
//!   time, from/to level, reason;
//! * `alert` — one per emitted GRB alert: tenant stream, trigger time,
//!   mode, direction, containment radius, latency;
//! * `queue` — one per stage queue: max observed depth, sample count;
//! * `trace` — one per causal trace span: trace id, span name, parent,
//!   start offset and duration (ms), queue depth at the hop, detail;
//! * `trigger_decision` — one per captured fire/no-fire decision of the
//!   online rate trigger: outcome, calibration baseline, refractory
//!   state, and the per-width counts/expectation/σ evidence.
//!
//! Each line is its record's serde derive written through the crate's
//! one line codec: `type`, any prefix fields (`mode`/`seed` on loop
//! lines, `stage` on stage lines, `name` on queue and counter lines),
//! then the record's fields in declaration order. [`validate`] decodes
//! the same types back, checks each line's semantics and returns a
//! [`NdjsonSummary`] the `telemetry-report` renderer (and the CI schema
//! gate) consume.

use crate::codec;
use crate::histogram::HistogramSnapshot;
use crate::recorder::{
    AlertRecord, Counter, DegradationRecord, FlightRecorder, LoopEvent, LoopIterationRecord,
    LoopSummaryRecord, QueueGauge, Stage, TraceSpanRecord, TrialRecord, TriggerDecisionRecord,
    WindowDecision,
};
use serde::{Deserialize, Serialize, Value};

/// Current NDJSON schema version (the `meta` line's `schema` field).
/// Version 6 added per-decision trigger forensics: `trigger_decision`
/// lines (fire/no-fire outcome, calibration baseline, refractory state,
/// per-width σ evidence) rendered by `telemetry-report --forensics`, and
/// the robustness-matrix counters (`false_alerts`, `missed_bursts`,
/// `scenario_components_active`).
/// Version 5 added causal-trace `trace` lines (one per span: trace id
/// minted at trigger open, span name/parent, start offset + duration,
/// queue depth at the hop) rendered by `telemetry-report --trace`.
/// Version 4 added the ground-segment counters (`streams_served`,
/// `pool_steals`, `alerts_fanned_out`, `fanout_shed`); pool and
/// per-stream gauges reuse the `queue` line type with dynamic names.
/// Version 3 added the onboard-runtime lines (`degradation`, `alert`,
/// `queue`), the `alert_latency` stage, and the runtime counters
/// (`events_ingested`, `events_dropped`, `epochs_opened`,
/// `alerts_emitted`, `degradation_transitions`, `checkpoints_written`).
/// Version 2 added the drift counters (`drift_rows`,
/// `drift_mean_psi_milli`, `drift_features_flagged`). Older captures
/// still validate.
///
/// Version 7 added `containment_source` (`skymap` | `heuristic`) to
/// `alert` lines; absent in older captures, it defaults to `heuristic`.
///
/// Version 8 added `stream_id` (the alerting tenant) to `alert` lines;
/// absent in older captures, it defaults to `0`.
pub const NDJSON_SCHEMA: u32 = 8;

/// Counter names older captures may hold but export no longer writes.
/// `pool_steals` counted the ground pool's work stealing (schemas 4–8);
/// the pool is now one FIFO that every worker pops, so nothing steals.
const RETIRED_COUNTERS: &[&str] = &["pool_steals"];

/// The `meta` line.
#[derive(Default, Serialize, Deserialize)]
struct Meta {
    schema: u64,
    #[serde(default)]
    tool: String,
    repetitions: u64,
}

/// Prefix of loop lines: the trial they belong to.
#[derive(Default, Serialize, Deserialize)]
struct TrialContext {
    mode: String,
    seed: u64,
}

/// Prefix of stage lines.
#[derive(Default, Serialize, Deserialize)]
struct StageName {
    stage: String,
}

/// Prefix of queue and counter lines.
#[derive(Default, Serialize, Deserialize)]
struct Name {
    name: String,
}

/// Body of counter lines.
#[derive(Default, Serialize, Deserialize)]
struct CounterValue {
    value: u64,
}

/// Render a recorder as NDJSON text (trailing newline included).
pub fn export(recorder: &FlightRecorder, repetitions: usize) -> String {
    let mut out = String::new();
    let mut push = |ty: &str, parts: &[&dyn Serialize]| {
        out.push_str(&codec::line(ty, parts));
        out.push('\n');
    };
    let meta = Meta {
        schema: NDJSON_SCHEMA as u64,
        tool: "adapt-telemetry".into(),
        repetitions: repetitions as u64,
    };
    push("meta", &[&meta]);
    for t in recorder.trial_records() {
        push("trial", &[&t]);
    }
    for ev in recorder.loop_events() {
        match ev {
            // NaN `step_deg` (no refine step this iteration) writes null
            LoopEvent::Iteration { mode, seed, record } => {
                push("loop_iteration", &[&TrialContext { mode, seed }, &record])
            }
            LoopEvent::Summary { mode, seed, record } => {
                push("loop_summary", &[&TrialContext { mode, seed }, &record])
            }
        }
    }
    for stage in Stage::ALL {
        let s = recorder.stage_snapshot(stage);
        if s.count > 0 {
            push(
                "stage",
                &[
                    &StageName {
                        stage: stage.name().into(),
                    },
                    &s,
                ],
            );
        }
    }
    for counter in Counter::ALL {
        let value = recorder.counter(counter);
        if value > 0 {
            push(
                "counter",
                &[
                    &Name {
                        name: counter.name().into(),
                    },
                    &CounterValue { value },
                ],
            );
        }
    }
    for d in recorder.degradation_records() {
        push("degradation", &[&d]);
    }
    for a in recorder.alert_records() {
        push("alert", &[&a]);
    }
    for d in recorder.trigger_decision_records() {
        push("trigger_decision", &[&d]);
    }
    for t in recorder.trace_records() {
        push("trace", &[&t]);
    }
    for (name, gauge) in recorder.queue_gauges() {
        push("queue", &[&Name { name }, &gauge]);
    }
    out
}

/// What a validated NDJSON capture contains, ready for rendering.
#[derive(Debug, Clone, Default)]
pub struct NdjsonSummary {
    /// Schema version from the `meta` line.
    pub schema: u64,
    /// Repetitions from the `meta` line.
    pub repetitions: u64,
    /// Stage rows in export order: `(machine name, snapshot)`.
    pub stages: Vec<(String, HistogramSnapshot)>,
    /// Counter rows: `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Trial count.
    pub n_trials: usize,
    /// Loop-iteration record count.
    pub n_loop_iterations: usize,
    /// Loop-summary record count.
    pub n_loop_summaries: usize,
    /// Distinct modes seen on trial lines, in first-seen order.
    pub modes: Vec<String>,
    /// Mean of `mean_abs_d_eta_correction` over loop summaries.
    pub mean_abs_d_eta_correction: f64,
    /// Onboard degradation transitions, in capture order.
    pub degradations: Vec<DegradationRecord>,
    /// Onboard GRB alerts, in capture order.
    pub alerts: Vec<AlertRecord>,
    /// Onboard queue gauges: `(name, max depth, samples)`.
    pub queues: Vec<(String, u64, u64)>,
    /// Causal trace spans, in capture order (schema ≥ 5).
    pub traces: Vec<TraceSpanRecord>,
    /// Trigger fire/no-fire decisions, in capture order (schema ≥ 6).
    pub decisions: Vec<TriggerDecisionRecord>,
}

/// Validate NDJSON text against the schema. Returns a summary on
/// success, a line-located error message on the first violation.
pub fn validate(text: &str) -> Result<NdjsonSummary, String> {
    let mut summary = NdjsonSummary::default();
    let mut saw_meta = false;
    let mut d_eta_sum = 0.0;
    for line in codec::lines(text) {
        let mut line = line?;
        let lineno = line.lineno;
        if !saw_meta {
            if line.ty != "meta" {
                return Err(format!(
                    "line {lineno}: first line must be `meta`, got `{}`",
                    line.ty
                ));
            }
            let meta: Meta = line.read()?;
            if meta.schema == 0 || meta.schema > NDJSON_SCHEMA as u64 {
                return Err(format!(
                    "line {lineno}: unsupported schema {} (this build reads <= {NDJSON_SCHEMA})",
                    meta.schema
                ));
            }
            summary.schema = meta.schema;
            summary.repetitions = meta.repetitions;
            saw_meta = true;
            continue;
        }
        match line.ty.as_str() {
            "meta" => return Err(format!("line {lineno}: duplicate `meta` line")),
            "trial" => {
                let t: TrialRecord = line.read()?;
                if !(0.0..=180.0).contains(&t.error_deg) {
                    return Err(format!(
                        "line {lineno}: error_deg {} outside [0, 180]",
                        t.error_deg
                    ));
                }
                if t.rings_surviving > t.rings_in {
                    return Err(format!(
                        "line {lineno}: rings_surviving {} > rings_in {}",
                        t.rings_surviving, t.rings_in
                    ));
                }
                if !summary.modes.contains(&t.mode) {
                    summary.modes.push(t.mode);
                }
                summary.n_trials += 1;
            }
            "loop_iteration" => {
                line.read::<TrialContext>()?;
                // step_deg is null when the iteration made no refine step
                let r: LoopIterationRecord = line.read_nullable(&["step_deg"])?;
                if r.iteration == 0 {
                    return Err(format!("line {lineno}: iteration must be >= 1"));
                }
                if r.rings_kept > r.rings_in {
                    return Err(format!(
                        "line {lineno}: rings_kept {} > rings_in {}",
                        r.rings_kept, r.rings_in
                    ));
                }
                let total: u64 = r.score_hist.iter().map(|&c| c as u64).sum();
                if total != r.rings_in as u64 {
                    return Err(format!(
                        "line {lineno}: score_hist totals {total}, expected rings_in {}",
                        r.rings_in
                    ));
                }
                summary.n_loop_iterations += 1;
            }
            "loop_summary" => {
                line.read::<TrialContext>()?;
                let r: LoopSummaryRecord = line.read()?;
                d_eta_sum += r.mean_abs_d_eta_correction;
                summary.n_loop_summaries += 1;
            }
            "stage" => {
                let name = line.read::<StageName>()?.stage;
                if Stage::parse(&name).is_none() {
                    return Err(format!("line {lineno}: unknown stage `{name}`"));
                }
                let snap: HistogramSnapshot = line.read()?;
                if snap.count == 0 {
                    return Err(format!("line {lineno}: stage `{name}` has count 0"));
                }
                if !(snap.min_ms <= snap.p50_ms
                    && snap.p50_ms <= snap.p90_ms
                    && snap.p90_ms <= snap.p99_ms
                    && snap.p99_ms <= snap.max_ms + 1e-9)
                {
                    return Err(format!(
                        "line {lineno}: stage `{name}` percentiles not monotone: {snap:?}"
                    ));
                }
                summary.stages.push((name, snap));
            }
            "counter" => {
                let name = line.read::<Name>()?.name;
                if !Counter::ALL.iter().any(|c| c.name() == name)
                    && !RETIRED_COUNTERS.contains(&name.as_str())
                {
                    return Err(format!("line {lineno}: unknown counter `{name}`"));
                }
                let value = line.read::<CounterValue>()?.value;
                summary.counters.push((name, value));
            }
            "degradation" => {
                let d: DegradationRecord = line.read()?;
                if d.from == d.to {
                    return Err(format!(
                        "line {lineno}: degradation transition from `{}` to itself",
                        d.from
                    ));
                }
                summary.degradations.push(d);
            }
            "alert" => {
                // added in schema 8; older captures were single-stream
                line.or_insert("stream_id", Value::UInt(0));
                // added in schema 7; older captures all used the heuristic
                line.or_insert("containment_source", Value::Str("heuristic".into()));
                let a: AlertRecord = line.read()?;
                if a.mode.is_empty() {
                    return Err(format!("line {lineno}: alert mode must be non-empty"));
                }
                if !(0.0..=180.0).contains(&a.polar_deg) {
                    return Err(format!(
                        "line {lineno}: alert polar_deg {} outside [0, 180]",
                        a.polar_deg
                    ));
                }
                if !(0.0..=180.0).contains(&a.containment_radius_deg) {
                    return Err(format!(
                        "line {lineno}: containment_radius_deg {} outside [0, 180]",
                        a.containment_radius_deg
                    ));
                }
                if !a.latency_ms.is_finite() || a.latency_ms < 0.0 {
                    return Err(format!(
                        "line {lineno}: latency_ms {} must be finite and >= 0",
                        a.latency_ms
                    ));
                }
                if a.containment_source != "skymap" && a.containment_source != "heuristic" {
                    return Err(format!(
                        "line {lineno}: containment_source `{}` is not one of skymap|heuristic",
                        a.containment_source
                    ));
                }
                summary.alerts.push(a);
            }
            "queue" => {
                let name = line.read::<Name>()?.name;
                let gauge: QueueGauge = line.read()?;
                if gauge.samples == 0 {
                    return Err(format!("line {lineno}: queue `{name}` has 0 samples"));
                }
                summary.queues.push((name, gauge.max_depth, gauge.samples));
            }
            "trace" => {
                let t: TraceSpanRecord = line.read()?;
                if t.trace_id.is_empty() {
                    return Err(format!("line {lineno}: trace_id must be non-empty"));
                }
                if t.span.is_empty() {
                    return Err(format!("line {lineno}: span must be non-empty"));
                }
                if t.parent.as_deref() == Some("") {
                    return Err(format!(
                        "line {lineno}: parent must be null or a non-empty string"
                    ));
                }
                if t.parent.as_deref() == Some(t.span.as_str()) {
                    return Err(format!(
                        "line {lineno}: span `{}` is its own parent",
                        t.span
                    ));
                }
                for (field, ms) in [("start_ms", t.start_ms), ("duration_ms", t.duration_ms)] {
                    if !ms.is_finite() || ms < 0.0 {
                        return Err(format!(
                            "line {lineno}: {field} {ms} must be finite and >= 0"
                        ));
                    }
                }
                summary.traces.push(t);
            }
            "trigger_decision" => {
                // first the windows alone, so an error names their field
                line.read_items::<WindowDecision>("windows")?;
                let d: TriggerDecisionRecord = line.read()?;
                if d.reason.is_empty() {
                    return Err(format!("line {lineno}: decision reason must be non-empty"));
                }
                if !d.background_rate_hz.is_finite() || d.background_rate_hz < 0.0 {
                    return Err(format!(
                        "line {lineno}: background_rate_hz {} must be finite and >= 0",
                        d.background_rate_hz
                    ));
                }
                if let Some(w) = d.windows.iter().find(|w| w.width_s <= 0.0) {
                    return Err(format!(
                        "line {lineno}: window width_s {} must be > 0",
                        w.width_s
                    ));
                }
                if d.fired && d.reason != "fired" {
                    return Err(format!(
                        "line {lineno}: fired decision must carry reason `fired`, got `{}`",
                        d.reason
                    ));
                }
                summary.decisions.push(d);
            }
            other => return Err(format!("line {lineno}: unknown line type `{other}`")),
        }
    }
    if !saw_meta {
        return Err("empty capture: no `meta` line".into());
    }
    if summary.n_loop_summaries > 0 {
        summary.mean_abs_d_eta_correction = d_eta_sum / summary.n_loop_summaries as f64;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{
        LoopIterationRecord, LoopSummaryRecord, Recorder, TrialRecord, SCORE_BINS,
    };
    use std::time::Duration;

    fn sample_recorder() -> FlightRecorder {
        let r = FlightRecorder::new();
        r.begin_trial("ml", 42);
        r.duration(Stage::Reconstruction, Duration::from_micros(900));
        r.duration(Stage::Setup, Duration::from_micros(12));
        r.duration(Stage::BackgroundInference, Duration::from_micros(300));
        r.duration(Stage::DEtaInference, Duration::from_micros(150));
        r.duration(Stage::ApproxRefine, Duration::from_millis(3));
        r.duration(Stage::Total, Duration::from_millis(5));
        r.add(Counter::TrialsRun, 1);
        r.add(Counter::RingsIn, 200);
        r.add(Counter::RingsRejected, 60);
        let mut hist = [0u32; SCORE_BINS];
        hist[0] = 140;
        hist[9] = 60;
        r.loop_iteration(&LoopIterationRecord {
            iteration: 1,
            rings_in: 200,
            rings_kept: 140,
            score_hist: hist,
            step_deg: 1.5,
        });
        r.loop_summary(&LoopSummaryRecord {
            iterations: 1,
            converged: true,
            surviving_rings: 140,
            mean_abs_d_eta_correction: 0.013,
        });
        r.push_trial(TrialRecord {
            mode: "ml".into(),
            seed: 42,
            error_deg: 3.2,
            rings_in: 200,
            rings_surviving: 140,
            degenerate_rings: 7,
            total_ms: 5.0,
        });
        r
    }

    #[test]
    fn export_validates_round_trip() {
        let r = sample_recorder();
        let text = export(&r, 3);
        let summary = validate(&text).expect("export must validate");
        assert_eq!(summary.schema, NDJSON_SCHEMA as u64);
        assert_eq!(summary.repetitions, 3);
        assert_eq!(summary.n_trials, 1);
        assert_eq!(summary.n_loop_iterations, 1);
        assert_eq!(summary.n_loop_summaries, 1);
        assert_eq!(summary.modes, vec!["ml".to_string()]);
        assert_eq!(summary.stages.len(), 6); // all but skymap recorded
        assert!(summary
            .stages
            .iter()
            .any(|(n, s)| n == "total" && s.count == 1));
        assert!(summary
            .counters
            .iter()
            .any(|(n, v)| n == "rings_in" && *v == 200));
        assert!((summary.mean_abs_d_eta_correction - 0.013).abs() < 1e-12);
    }

    #[test]
    fn nan_step_serializes_as_null_and_validates() {
        let r = FlightRecorder::new();
        r.begin_trial("ml", 1);
        let mut hist = [0u32; SCORE_BINS];
        hist[3] = 4;
        r.loop_iteration(&LoopIterationRecord {
            iteration: 1,
            rings_in: 4,
            rings_kept: 4,
            score_hist: hist,
            step_deg: f64::NAN,
        });
        let text = export(&r, 1);
        assert!(text.contains("\"step_deg\":null"), "{text}");
        validate(&text).expect("null step must validate");
    }

    #[test]
    fn onboard_lines_round_trip() {
        let r = FlightRecorder::new();
        r.duration(Stage::AlertLatency, Duration::from_millis(12));
        r.add(Counter::EventsIngested, 5000);
        r.add(Counter::EventsDropped, 3);
        r.add(Counter::EpochsOpened, 1);
        r.queue_depth("ingest", 41);
        r.queue_depth("epoch", 1);
        r.degradation(&crate::recorder::DegradationRecord {
            t_s: 3601.2,
            from: "full-ml".into(),
            to: "coarse-skymap".into(),
            reason: "deadline-budget".into(),
        });
        r.alert(&crate::recorder::AlertRecord {
            stream_id: 5,
            t_s: 3601.2,
            mode: "coarse-skymap".into(),
            polar_deg: 21.0,
            azimuth_deg: 3.0,
            containment_radius_deg: 9.5,
            containment_source: "skymap".into(),
            latency_ms: 42.0,
            rings: 180,
            ingest_depth: 12,
            epoch_depth: 0,
        });
        let text = export(&r, 1);
        let summary = validate(&text).expect("onboard capture must validate");
        assert_eq!(summary.alerts.len(), 1);
        assert_eq!(summary.alerts[0].mode, "coarse-skymap");
        assert_eq!(summary.alerts[0].containment_source, "skymap");
        assert_eq!(summary.alerts[0].stream_id, 5);
        assert!((summary.alerts[0].latency_ms - 42.0).abs() < 1e-9);
        assert_eq!(summary.degradations.len(), 1);
        assert_eq!(summary.degradations[0].to, "coarse-skymap");
        // the alert and degradation records derived their counters
        for name in ["alerts_emitted", "degradation_transitions"] {
            assert!(summary.counters.contains(&(name.to_string(), 1)), "{name}");
        }
    }

    #[test]
    fn alert_containment_source_defaults_and_validates() {
        // A pre-schema-7 alert line (no containment_source) defaults to
        // the heuristic estimator.
        let meta = format!("{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"repetitions\":1}}");
        let alert = "{\"type\":\"alert\",\"t_s\":1.0,\"mode\":\"full-ml\",\"polar_deg\":10.0,\
                     \"azimuth_deg\":0.0,\"containment_radius_deg\":2.0,\"latency_ms\":5.0,\
                     \"rings\":10,\"ingest_depth\":0,\"epoch_depth\":0}";
        let summary = validate(&format!("{meta}\n{alert}\n")).expect("legacy alert validates");
        assert_eq!(summary.alerts[0].containment_source, "heuristic");

        // An unknown estimator name is rejected.
        let bad = alert.replace(
            "\"latency_ms\"",
            "\"containment_source\":\"psychic\",\"latency_ms\"",
        );
        let err = validate(&format!("{meta}\n{bad}\n")).unwrap_err();
        assert!(err.contains("containment_source"), "{err}");
    }

    #[test]
    fn alert_stream_id_defaults_and_validates() {
        // A schema-8 alert line carries its tenant; a pre-schema-8 line
        // (no stream_id) came from a single-stream capture: stream 0.
        let meta = format!("{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"repetitions\":1}}");
        let legacy = "{\"type\":\"alert\",\"t_s\":1.0,\"mode\":\"full-ml\",\"polar_deg\":10.0,\
                      \"azimuth_deg\":0.0,\"containment_radius_deg\":2.0,\"latency_ms\":5.0,\
                      \"rings\":10,\"ingest_depth\":0,\"epoch_depth\":0}";
        let tagged = legacy.replace("\"t_s\"", "\"stream_id\":42,\"t_s\"");
        let summary = validate(&format!("{meta}\n{legacy}\n{tagged}\n")).expect("both validate");
        assert_eq!(summary.alerts[0].stream_id, 0);
        assert_eq!(summary.alerts[1].stream_id, 42);

        let negative = legacy.replace("\"t_s\"", "\"stream_id\":-1,\"t_s\"");
        let err = validate(&format!("{meta}\n{negative}\n")).unwrap_err();
        assert!(err.contains("stream_id"), "{err}");
    }

    #[test]
    fn retired_counter_validates_but_unknown_counter_is_rejected() {
        // A schema-8 serve capture written while the ground pool still
        // stole work holds a `pool_steals` line; it must keep reading.
        let meta = format!("{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"repetitions\":1}}");
        let retired = "{\"type\":\"counter\",\"name\":\"pool_steals\",\"value\":3}";
        let summary = validate(&format!("{meta}\n{retired}\n")).expect("retired name validates");
        assert_eq!(summary.counters, vec![("pool_steals".to_string(), 3)]);

        let unknown = retired.replace("pool_steals", "pool_stolen");
        let err = validate(&format!("{meta}\n{unknown}\n")).unwrap_err();
        assert!(err.contains("unknown counter `pool_stolen`"), "{err}");
    }

    #[test]
    fn onboard_lines_reject_bad_values() {
        let meta = format!("{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"repetitions\":1}}");
        let self_loop = format!(
            "{meta}\n{{\"type\":\"degradation\",\"t_s\":1.0,\"from\":\"full-ml\",\
             \"to\":\"full-ml\",\"reason\":\"x\"}}"
        );
        assert!(validate(&self_loop).is_err(), "self transition");
        let bad_latency = format!(
            "{meta}\n{{\"type\":\"alert\",\"t_s\":1.0,\"mode\":\"full-ml\",\"polar_deg\":10.0,\
             \"azimuth_deg\":0.0,\"containment_radius_deg\":5.0,\"latency_ms\":-3.0,\
             \"rings\":10,\"ingest_depth\":0,\"epoch_depth\":0}}"
        );
        assert!(validate(&bad_latency).is_err(), "negative latency");
        let empty_queue = format!(
            "{meta}\n{{\"type\":\"queue\",\"name\":\"ingest\",\"max_depth\":4,\"samples\":0}}"
        );
        assert!(validate(&empty_queue).is_err(), "zero samples");
    }

    #[test]
    fn trace_lines_round_trip_and_reject_bad_spans() {
        let r = FlightRecorder::new();
        r.trace_span(&TraceSpanRecord {
            trace_id: "s3.e0".into(),
            span: "trigger".into(),
            parent: None,
            t_s: 12.5,
            start_ms: 0.0,
            duration_ms: 0.0,
            queue_depth: 2,
            detail: "sigma=8.1".into(),
        });
        r.trace_span(&TraceSpanRecord {
            trace_id: "s3.e0".into(),
            span: "localize".into(),
            parent: Some("trigger".into()),
            t_s: 12.5,
            start_ms: 3.0,
            duration_ms: 40.0,
            queue_depth: 0,
            detail: "level=full-ml".into(),
        });
        let text = export(&r, 1);
        let summary = validate(&text).expect("trace capture must validate");
        assert_eq!(summary.traces.len(), 2);
        assert_eq!(summary.traces[0].parent, None);
        assert_eq!(summary.traces[1].parent.as_deref(), Some("trigger"));
        assert_eq!(summary.traces[1].detail, "level=full-ml");

        let meta = format!("{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"repetitions\":1}}");
        let self_parent = format!(
            "{meta}\n{{\"type\":\"trace\",\"trace_id\":\"s0.e0\",\"span\":\"x\",\
             \"parent\":\"x\",\"t_s\":1.0,\"start_ms\":0.0,\"duration_ms\":1.0,\
             \"queue_depth\":0,\"detail\":\"\"}}"
        );
        assert!(validate(&self_parent).is_err(), "self-parent span");
        let negative = format!(
            "{meta}\n{{\"type\":\"trace\",\"trace_id\":\"s0.e0\",\"span\":\"x\",\
             \"parent\":null,\"t_s\":1.0,\"start_ms\":-1.0,\"duration_ms\":1.0,\
             \"queue_depth\":0,\"detail\":\"\"}}"
        );
        assert!(validate(&negative).is_err(), "negative start");
    }

    #[test]
    fn trigger_decision_lines_round_trip_and_reject_bad_values() {
        let r = FlightRecorder::new();
        r.trigger_decision(&TriggerDecisionRecord {
            t_s: 40.1,
            fired: false,
            near_truth: true,
            reason: "below-threshold".into(),
            background_rate_hz: 161.8,
            calibration_elapsed_s: 38.0,
            threshold_sigma: 7.0,
            frozen: false,
            windows: vec![
                WindowDecision {
                    width_s: 0.064,
                    counts: 14,
                    expected: 10.4,
                    sigma: 1.1,
                },
                WindowDecision {
                    width_s: 1.024,
                    counts: 201,
                    expected: 165.7,
                    sigma: 2.7,
                },
            ],
        });
        let text = export(&r, 1);
        let summary = validate(&text).expect("decision capture must validate");
        assert_eq!(summary.decisions.len(), 1);
        let d = &summary.decisions[0];
        assert!(!d.fired);
        assert!(d.near_truth);
        assert_eq!(d.reason, "below-threshold");
        assert_eq!(d.windows.len(), 2);
        assert!((d.windows[1].sigma - 2.7).abs() < 1e-9);

        let meta = format!("{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"repetitions\":1}}");
        let bad_reason = format!(
            "{meta}\n{{\"type\":\"trigger_decision\",\"t_s\":1.0,\"fired\":true,\
             \"near_truth\":false,\"reason\":\"below-threshold\",\
             \"background_rate_hz\":100.0,\"calibration_elapsed_s\":10.0,\
             \"threshold_sigma\":7.0,\"frozen\":false,\"windows\":[]}}"
        );
        assert!(validate(&bad_reason).is_err(), "fired with wrong reason");
        let bad_rate = format!(
            "{meta}\n{{\"type\":\"trigger_decision\",\"t_s\":1.0,\"fired\":false,\
             \"near_truth\":false,\"reason\":\"calibrating\",\
             \"background_rate_hz\":-5.0,\"calibration_elapsed_s\":10.0,\
             \"threshold_sigma\":7.0,\"frozen\":false,\"windows\":[]}}"
        );
        assert!(validate(&bad_rate).is_err(), "negative rate");
        let bad_width = format!(
            "{meta}\n{{\"type\":\"trigger_decision\",\"t_s\":1.0,\"fired\":false,\
             \"near_truth\":false,\"reason\":\"below-threshold\",\
             \"background_rate_hz\":5.0,\"calibration_elapsed_s\":10.0,\
             \"threshold_sigma\":7.0,\"frozen\":false,\
             \"windows\":[{{\"width_s\":0.0,\"counts\":1,\"expected\":1.0,\"sigma\":0.0}}]}}"
        );
        assert!(validate(&bad_width).is_err(), "zero window width");
    }

    #[test]
    fn validation_rejects_bad_captures() {
        assert!(validate("").is_err(), "empty");
        assert!(validate("{\"type\":\"trial\"}").is_err(), "no meta first");
        assert!(
            validate("{\"type\":\"meta\",\"schema\":99,\"repetitions\":1}").is_err(),
            "future schema"
        );
        let meta = format!("{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"repetitions\":1}}");
        assert!(validate(&meta).is_ok(), "meta alone is a valid capture");
        let bad_stage = format!(
            "{meta}\n{{\"type\":\"stage\",\"stage\":\"warp\",\"count\":1,\"mean_ms\":1,\
             \"p50_ms\":1,\"p90_ms\":1,\"p99_ms\":1,\"min_ms\":1,\"max_ms\":1}}"
        );
        assert!(validate(&bad_stage).is_err(), "unknown stage");
        let bad_counts = format!(
            "{meta}\n{{\"type\":\"trial\",\"mode\":\"ml\",\"seed\":1,\"error_deg\":2.0,\
             \"rings_in\":5,\"rings_surviving\":9,\"degenerate_rings\":0,\"total_ms\":1.0}}"
        );
        assert!(validate(&bad_counts).is_err(), "surviving > in");
        assert!(validate("not json").is_err(), "garbage");
    }
}
