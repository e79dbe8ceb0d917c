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
//! [`validate`] checks structure and field types line by line and
//! returns a [`NdjsonSummary`] the `telemetry-report` renderer (and the
//! CI schema gate) consume.

use crate::histogram::HistogramSnapshot;
use crate::recorder::{
    AlertRecord, Counter, DegradationRecord, FlightRecorder, LoopEvent, Stage, TraceSpanRecord,
    TriggerDecisionRecord, WindowDecision,
};
use serde::Value;

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

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn line(v: &Value) -> String {
    serde_json::to_string(v).expect("NDJSON serialization is infallible")
}

/// Render a recorder as NDJSON text (trailing newline included).
pub fn export(recorder: &FlightRecorder, repetitions: usize) -> String {
    let mut out = String::new();
    out.push_str(&line(&obj(vec![
        ("type", Value::Str("meta".into())),
        ("schema", Value::UInt(NDJSON_SCHEMA as u64)),
        ("tool", Value::Str("adapt-telemetry".into())),
        ("repetitions", Value::UInt(repetitions as u64)),
    ])));
    out.push('\n');

    for t in recorder.trial_records() {
        out.push_str(&line(&obj(vec![
            ("type", Value::Str("trial".into())),
            ("mode", Value::Str(t.mode.clone())),
            ("seed", Value::UInt(t.seed)),
            ("error_deg", Value::Float(t.error_deg)),
            ("rings_in", Value::UInt(t.rings_in as u64)),
            ("rings_surviving", Value::UInt(t.rings_surviving as u64)),
            ("degenerate_rings", Value::UInt(t.degenerate_rings as u64)),
            ("total_ms", Value::Float(t.total_ms)),
        ])));
        out.push('\n');
    }

    for ev in recorder.loop_events() {
        let v = match &ev {
            LoopEvent::Iteration { mode, seed, record } => obj(vec![
                ("type", Value::Str("loop_iteration".into())),
                ("mode", Value::Str(mode.clone())),
                ("seed", Value::UInt(*seed)),
                ("iteration", Value::UInt(record.iteration as u64)),
                ("rings_in", Value::UInt(record.rings_in as u64)),
                ("rings_kept", Value::UInt(record.rings_kept as u64)),
                (
                    "score_hist",
                    Value::Arr(
                        record
                            .score_hist
                            .iter()
                            .map(|&c| Value::UInt(c as u64))
                            .collect(),
                    ),
                ),
                // NaN (no refine step this iteration) serializes as null
                ("step_deg", Value::Float(record.step_deg)),
            ]),
            LoopEvent::Summary { mode, seed, record } => obj(vec![
                ("type", Value::Str("loop_summary".into())),
                ("mode", Value::Str(mode.clone())),
                ("seed", Value::UInt(*seed)),
                ("iterations", Value::UInt(record.iterations as u64)),
                ("converged", Value::Bool(record.converged)),
                (
                    "surviving_rings",
                    Value::UInt(record.surviving_rings as u64),
                ),
                (
                    "mean_abs_d_eta_correction",
                    Value::Float(record.mean_abs_d_eta_correction),
                ),
            ]),
        };
        out.push_str(&line(&v));
        out.push('\n');
    }

    for stage in Stage::ALL {
        let s = recorder.stage_snapshot(stage);
        if s.count == 0 {
            continue;
        }
        out.push_str(&line(&obj(vec![
            ("type", Value::Str("stage".into())),
            ("stage", Value::Str(stage.name().into())),
            ("count", Value::UInt(s.count)),
            ("mean_ms", Value::Float(s.mean_ms)),
            ("p50_ms", Value::Float(s.p50_ms)),
            ("p90_ms", Value::Float(s.p90_ms)),
            ("p99_ms", Value::Float(s.p99_ms)),
            ("min_ms", Value::Float(s.min_ms)),
            ("max_ms", Value::Float(s.max_ms)),
        ])));
        out.push('\n');
    }

    for counter in Counter::ALL {
        let v = recorder.counter(counter);
        if v == 0 {
            continue;
        }
        out.push_str(&line(&obj(vec![
            ("type", Value::Str("counter".into())),
            ("name", Value::Str(counter.name().into())),
            ("value", Value::UInt(v)),
        ])));
        out.push('\n');
    }

    for d in recorder.degradation_records() {
        out.push_str(&line(&obj(vec![
            ("type", Value::Str("degradation".into())),
            ("t_s", Value::Float(d.t_s)),
            ("from", Value::Str(d.from.clone())),
            ("to", Value::Str(d.to.clone())),
            ("reason", Value::Str(d.reason.clone())),
        ])));
        out.push('\n');
    }

    for a in recorder.alert_records() {
        out.push_str(&line(&obj(vec![
            ("type", Value::Str("alert".into())),
            ("stream_id", Value::UInt(a.stream_id)),
            ("t_s", Value::Float(a.t_s)),
            ("mode", Value::Str(a.mode.clone())),
            ("polar_deg", Value::Float(a.polar_deg)),
            ("azimuth_deg", Value::Float(a.azimuth_deg)),
            (
                "containment_radius_deg",
                Value::Float(a.containment_radius_deg),
            ),
            (
                "containment_source",
                Value::Str(a.containment_source.clone()),
            ),
            ("latency_ms", Value::Float(a.latency_ms)),
            ("rings", Value::UInt(a.rings)),
            ("ingest_depth", Value::UInt(a.ingest_depth)),
            ("epoch_depth", Value::UInt(a.epoch_depth)),
        ])));
        out.push('\n');
    }

    for d in recorder.trigger_decision_records() {
        out.push_str(&line(&obj(vec![
            ("type", Value::Str("trigger_decision".into())),
            ("t_s", Value::Float(d.t_s)),
            ("fired", Value::Bool(d.fired)),
            ("near_truth", Value::Bool(d.near_truth)),
            ("reason", Value::Str(d.reason.clone())),
            ("background_rate_hz", Value::Float(d.background_rate_hz)),
            (
                "calibration_elapsed_s",
                Value::Float(d.calibration_elapsed_s),
            ),
            ("threshold_sigma", Value::Float(d.threshold_sigma)),
            ("frozen", Value::Bool(d.frozen)),
            (
                "windows",
                Value::Arr(
                    d.windows
                        .iter()
                        .map(|w| {
                            obj(vec![
                                ("width_s", Value::Float(w.width_s)),
                                ("counts", Value::UInt(w.counts)),
                                ("expected", Value::Float(w.expected)),
                                ("sigma", Value::Float(w.sigma)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])));
        out.push('\n');
    }

    for t in recorder.trace_records() {
        out.push_str(&line(&obj(vec![
            ("type", Value::Str("trace".into())),
            ("trace_id", Value::Str(t.trace_id.clone())),
            ("span", Value::Str(t.span.clone())),
            (
                "parent",
                match &t.parent {
                    Some(p) => Value::Str(p.clone()),
                    None => Value::Null,
                },
            ),
            ("t_s", Value::Float(t.t_s)),
            ("start_ms", Value::Float(t.start_ms)),
            ("duration_ms", Value::Float(t.duration_ms)),
            ("queue_depth", Value::UInt(t.queue_depth)),
            ("detail", Value::Str(t.detail.clone())),
        ])));
        out.push('\n');
    }

    for (name, gauge) in recorder.queue_gauges() {
        out.push_str(&line(&obj(vec![
            ("type", Value::Str("queue".into())),
            ("name", Value::Str(name)),
            ("max_depth", Value::UInt(gauge.max_depth)),
            ("samples", Value::UInt(gauge.samples)),
        ])));
        out.push('\n');
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

fn need<'a>(v: &'a Value, key: &str, lineno: usize) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("line {lineno}: missing field `{key}`"))
}

fn need_num(v: &Value, key: &str, lineno: usize) -> Result<f64, String> {
    match need(v, key, lineno)? {
        Value::Int(n) => Ok(*n as f64),
        Value::UInt(n) => Ok(*n as f64),
        Value::Float(x) => Ok(*x),
        other => Err(format!(
            "line {lineno}: field `{key}` must be a number, got {other:?}"
        )),
    }
}

fn need_uint(v: &Value, key: &str, lineno: usize) -> Result<u64, String> {
    match need(v, key, lineno)? {
        Value::UInt(n) => Ok(*n),
        Value::Int(n) if *n >= 0 => Ok(*n as u64),
        other => Err(format!(
            "line {lineno}: field `{key}` must be a non-negative integer, got {other:?}"
        )),
    }
}

fn need_str(v: &Value, key: &str, lineno: usize) -> Result<String, String> {
    need(v, key, lineno)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("line {lineno}: field `{key}` must be a string"))
}

/// A string field that older schemas did not write: absent yields
/// `default`, present must be a string.
fn opt_str(v: &Value, key: &str, default: &str, lineno: usize) -> Result<String, String> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(val) => val
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("line {lineno}: field `{key}` must be a string")),
    }
}

/// Validate NDJSON text against the schema. Returns a summary on
/// success, a line-located error message on the first violation.
pub fn validate(text: &str) -> Result<NdjsonSummary, String> {
    let mut summary = NdjsonSummary::default();
    let mut saw_meta = false;
    let mut d_eta_sum = 0.0;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(raw).map_err(|e| format!("line {lineno}: invalid JSON: {e}"))?;
        if v.as_obj().is_none() {
            return Err(format!("line {lineno}: expected a JSON object"));
        }
        let ty = need_str(&v, "type", lineno)?;
        if !saw_meta {
            if ty != "meta" {
                return Err(format!(
                    "line {lineno}: first line must be `meta`, got `{ty}`"
                ));
            }
            summary.schema = need_uint(&v, "schema", lineno)?;
            if summary.schema == 0 || summary.schema > NDJSON_SCHEMA as u64 {
                return Err(format!(
                    "line {lineno}: unsupported schema {} (this build reads <= {NDJSON_SCHEMA})",
                    summary.schema
                ));
            }
            summary.repetitions = need_uint(&v, "repetitions", lineno)?;
            saw_meta = true;
            continue;
        }
        match ty.as_str() {
            "meta" => return Err(format!("line {lineno}: duplicate `meta` line")),
            "trial" => {
                let mode = need_str(&v, "mode", lineno)?;
                need_uint(&v, "seed", lineno)?;
                let err = need_num(&v, "error_deg", lineno)?;
                if !(0.0..=180.0).contains(&err) {
                    return Err(format!("line {lineno}: error_deg {err} outside [0, 180]"));
                }
                let rings_in = need_uint(&v, "rings_in", lineno)?;
                let surviving = need_uint(&v, "rings_surviving", lineno)?;
                if surviving > rings_in {
                    return Err(format!(
                        "line {lineno}: rings_surviving {surviving} > rings_in {rings_in}"
                    ));
                }
                need_uint(&v, "degenerate_rings", lineno)?;
                need_num(&v, "total_ms", lineno)?;
                if !summary.modes.contains(&mode) {
                    summary.modes.push(mode);
                }
                summary.n_trials += 1;
            }
            "loop_iteration" => {
                need_str(&v, "mode", lineno)?;
                need_uint(&v, "seed", lineno)?;
                let iter = need_uint(&v, "iteration", lineno)?;
                if iter == 0 {
                    return Err(format!("line {lineno}: iteration must be >= 1"));
                }
                let rings_in = need_uint(&v, "rings_in", lineno)?;
                let kept = need_uint(&v, "rings_kept", lineno)?;
                if kept > rings_in {
                    return Err(format!(
                        "line {lineno}: rings_kept {kept} > rings_in {rings_in}"
                    ));
                }
                let hist = need(&v, "score_hist", lineno)?
                    .as_arr()
                    .ok_or_else(|| format!("line {lineno}: score_hist must be an array"))?;
                if hist.len() != crate::recorder::SCORE_BINS {
                    return Err(format!(
                        "line {lineno}: score_hist has {} bins, expected {}",
                        hist.len(),
                        crate::recorder::SCORE_BINS
                    ));
                }
                let total: u64 = hist
                    .iter()
                    .map(|b| match b {
                        Value::UInt(n) => Ok(*n),
                        Value::Int(n) if *n >= 0 => Ok(*n as u64),
                        _ => Err(format!("line {lineno}: score_hist bins must be counts")),
                    })
                    .sum::<Result<u64, String>>()?;
                if total != rings_in {
                    return Err(format!(
                        "line {lineno}: score_hist totals {total}, expected rings_in {rings_in}"
                    ));
                }
                // step_deg must be present; null (no refine step) is legal
                match need(&v, "step_deg", lineno)? {
                    Value::Null | Value::Float(_) | Value::Int(_) | Value::UInt(_) => {}
                    _ => return Err(format!("line {lineno}: step_deg must be a number or null")),
                }
                summary.n_loop_iterations += 1;
            }
            "loop_summary" => {
                need_str(&v, "mode", lineno)?;
                need_uint(&v, "seed", lineno)?;
                need_uint(&v, "iterations", lineno)?;
                match need(&v, "converged", lineno)? {
                    Value::Bool(_) => {}
                    _ => return Err(format!("line {lineno}: converged must be a bool")),
                }
                need_uint(&v, "surviving_rings", lineno)?;
                d_eta_sum += need_num(&v, "mean_abs_d_eta_correction", lineno)?;
                summary.n_loop_summaries += 1;
            }
            "stage" => {
                let name = need_str(&v, "stage", lineno)?;
                if Stage::parse(&name).is_none() {
                    return Err(format!("line {lineno}: unknown stage `{name}`"));
                }
                let snap = HistogramSnapshot {
                    count: need_uint(&v, "count", lineno)?,
                    mean_ms: need_num(&v, "mean_ms", lineno)?,
                    p50_ms: need_num(&v, "p50_ms", lineno)?,
                    p90_ms: need_num(&v, "p90_ms", lineno)?,
                    p99_ms: need_num(&v, "p99_ms", lineno)?,
                    min_ms: need_num(&v, "min_ms", lineno)?,
                    max_ms: need_num(&v, "max_ms", lineno)?,
                };
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
                let name = need_str(&v, "name", lineno)?;
                if !Counter::ALL.iter().any(|c| c.name() == name) {
                    return Err(format!("line {lineno}: unknown counter `{name}`"));
                }
                let value = need_uint(&v, "value", lineno)?;
                summary.counters.push((name, value));
            }
            "degradation" => {
                let t_s = need_num(&v, "t_s", lineno)?;
                let from = need_str(&v, "from", lineno)?;
                let to = need_str(&v, "to", lineno)?;
                if from == to {
                    return Err(format!(
                        "line {lineno}: degradation transition from `{from}` to itself"
                    ));
                }
                let reason = need_str(&v, "reason", lineno)?;
                summary.degradations.push(DegradationRecord {
                    t_s,
                    from,
                    to,
                    reason,
                });
            }
            "alert" => {
                let t_s = need_num(&v, "t_s", lineno)?;
                let mode = need_str(&v, "mode", lineno)?;
                if mode.is_empty() {
                    return Err(format!("line {lineno}: alert mode must be non-empty"));
                }
                let polar_deg = need_num(&v, "polar_deg", lineno)?;
                if !(0.0..=180.0).contains(&polar_deg) {
                    return Err(format!(
                        "line {lineno}: alert polar_deg {polar_deg} outside [0, 180]"
                    ));
                }
                let azimuth_deg = need_num(&v, "azimuth_deg", lineno)?;
                let containment_radius_deg = need_num(&v, "containment_radius_deg", lineno)?;
                if !(0.0..=180.0).contains(&containment_radius_deg) {
                    return Err(format!(
                        "line {lineno}: containment_radius_deg {containment_radius_deg} \
                         outside [0, 180]"
                    ));
                }
                let latency_ms = need_num(&v, "latency_ms", lineno)?;
                if !latency_ms.is_finite() || latency_ms < 0.0 {
                    return Err(format!(
                        "line {lineno}: latency_ms {latency_ms} must be finite and >= 0"
                    ));
                }
                // Added in schema 7; older captures default to the
                // heuristic estimator, which is what they all used.
                let containment_source = opt_str(&v, "containment_source", "heuristic", lineno)?;
                if containment_source != "skymap" && containment_source != "heuristic" {
                    return Err(format!(
                        "line {lineno}: containment_source `{containment_source}` is not \
                         one of skymap|heuristic"
                    ));
                }
                summary.alerts.push(AlertRecord {
                    // added in schema 8; older captures were single-stream
                    stream_id: match v.get("stream_id") {
                        None => 0,
                        Some(_) => need_uint(&v, "stream_id", lineno)?,
                    },
                    t_s,
                    mode,
                    polar_deg,
                    azimuth_deg,
                    containment_radius_deg,
                    containment_source,
                    latency_ms,
                    rings: need_uint(&v, "rings", lineno)?,
                    ingest_depth: need_uint(&v, "ingest_depth", lineno)?,
                    epoch_depth: need_uint(&v, "epoch_depth", lineno)?,
                });
            }
            "queue" => {
                let name = need_str(&v, "name", lineno)?;
                let max_depth = need_uint(&v, "max_depth", lineno)?;
                let samples = need_uint(&v, "samples", lineno)?;
                if samples == 0 {
                    return Err(format!("line {lineno}: queue `{name}` has 0 samples"));
                }
                summary.queues.push((name, max_depth, samples));
            }
            "trace" => {
                let trace_id = need_str(&v, "trace_id", lineno)?;
                if trace_id.is_empty() {
                    return Err(format!("line {lineno}: trace_id must be non-empty"));
                }
                let span = need_str(&v, "span", lineno)?;
                if span.is_empty() {
                    return Err(format!("line {lineno}: span must be non-empty"));
                }
                let parent = match need(&v, "parent", lineno)? {
                    Value::Null => None,
                    Value::Str(p) if !p.is_empty() => Some(p.clone()),
                    other => {
                        return Err(format!(
                            "line {lineno}: parent must be null or a non-empty string, \
                             got {other:?}"
                        ))
                    }
                };
                if parent.as_deref() == Some(span.as_str()) {
                    return Err(format!("line {lineno}: span `{span}` is its own parent"));
                }
                let t_s = need_num(&v, "t_s", lineno)?;
                let start_ms = need_num(&v, "start_ms", lineno)?;
                let duration_ms = need_num(&v, "duration_ms", lineno)?;
                if !start_ms.is_finite() || start_ms < 0.0 {
                    return Err(format!(
                        "line {lineno}: start_ms {start_ms} must be finite and >= 0"
                    ));
                }
                if !duration_ms.is_finite() || duration_ms < 0.0 {
                    return Err(format!(
                        "line {lineno}: duration_ms {duration_ms} must be finite and >= 0"
                    ));
                }
                summary.traces.push(TraceSpanRecord {
                    trace_id,
                    span,
                    parent,
                    t_s,
                    start_ms,
                    duration_ms,
                    queue_depth: need_uint(&v, "queue_depth", lineno)?,
                    detail: need_str(&v, "detail", lineno)?,
                });
            }
            "trigger_decision" => {
                let t_s = need_num(&v, "t_s", lineno)?;
                let fired = match need(&v, "fired", lineno)? {
                    Value::Bool(b) => *b,
                    _ => return Err(format!("line {lineno}: fired must be a bool")),
                };
                let near_truth = match need(&v, "near_truth", lineno)? {
                    Value::Bool(b) => *b,
                    _ => return Err(format!("line {lineno}: near_truth must be a bool")),
                };
                let reason = need_str(&v, "reason", lineno)?;
                if reason.is_empty() {
                    return Err(format!("line {lineno}: decision reason must be non-empty"));
                }
                let background_rate_hz = need_num(&v, "background_rate_hz", lineno)?;
                if !background_rate_hz.is_finite() || background_rate_hz < 0.0 {
                    return Err(format!(
                        "line {lineno}: background_rate_hz {background_rate_hz} must be \
                         finite and >= 0"
                    ));
                }
                let calibration_elapsed_s = need_num(&v, "calibration_elapsed_s", lineno)?;
                let threshold_sigma = need_num(&v, "threshold_sigma", lineno)?;
                let frozen = match need(&v, "frozen", lineno)? {
                    Value::Bool(b) => *b,
                    _ => return Err(format!("line {lineno}: frozen must be a bool")),
                };
                let raw_windows = need(&v, "windows", lineno)?
                    .as_arr()
                    .ok_or_else(|| format!("line {lineno}: windows must be an array"))?;
                let mut windows = Vec::with_capacity(raw_windows.len());
                for w in raw_windows {
                    let width_s = need_num(w, "width_s", lineno)?;
                    if width_s <= 0.0 {
                        return Err(format!(
                            "line {lineno}: window width_s {width_s} must be > 0"
                        ));
                    }
                    windows.push(WindowDecision {
                        width_s,
                        counts: need_uint(w, "counts", lineno)?,
                        expected: need_num(w, "expected", lineno)?,
                        sigma: need_num(w, "sigma", lineno)?,
                    });
                }
                if fired && reason != "fired" {
                    return Err(format!(
                        "line {lineno}: fired decision must carry reason `fired`, got `{reason}`"
                    ));
                }
                summary.decisions.push(TriggerDecisionRecord {
                    t_s,
                    fired,
                    near_truth,
                    reason,
                    background_rate_hz,
                    calibration_elapsed_s,
                    threshold_sigma,
                    frozen,
                    windows,
                });
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
