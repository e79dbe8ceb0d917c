//! Byte-level golden tests of the three telemetry line formats (flight
//! capture, run stream, live snapshot stream) and rejection tables for
//! their readers. The goldens pin the exact bytes each writer emits; the
//! tables pin that every capture and run-stream line type rejects a
//! `null` in a required number, a string in a number, a negative unsigned
//! value and a missing required field, and that the live reader rejects
//! a present field of the wrong type, each with an error that names the
//! field.

use adapt_telemetry::{
    export, parse_live_stream, validate_ndjson, validate_run, AlertRecord, Counter,
    DegradationRecord, EpochRecord, FlightRecorder, LiveObserver, LoopIterationRecord,
    LoopSummaryRecord, Recorder, RunTracker, SloConfig, Stage, TraceSpanRecord, TrialRecord,
    TriggerDecisionRecord, WindowDecision, NDJSON_SCHEMA, RUN_SCHEMA, SCORE_BINS,
};
use serde::Value;
use std::time::Duration;

/// A recorder holding every flight-capture line type.
fn full_recorder() -> FlightRecorder {
    let r = FlightRecorder::new();
    r.begin_trial("ml", 42);
    r.duration(Stage::Reconstruction, Duration::from_micros(900));
    r.duration(Stage::Total, Duration::from_millis(5));
    r.duration(Stage::Total, Duration::from_millis(7));
    r.add(Counter::TrialsRun, 1);
    r.add(Counter::RingsIn, 200);
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
    r.loop_iteration(&LoopIterationRecord {
        iteration: 2,
        rings_in: 200,
        rings_kept: 140,
        score_hist: hist,
        step_deg: f64::NAN,
    });
    r.loop_summary(&LoopSummaryRecord {
        iterations: 2,
        converged: true,
        surviving_rings: 140,
        mean_abs_d_eta_correction: 0.013,
    });
    r.push_trial(TrialRecord {
        mode: "ml".into(),
        seed: 42,
        error_deg: 3.25,
        rings_in: 200,
        rings_surviving: 140,
        degenerate_rings: 7,
        total_ms: 5.5,
    });
    r.degradation(&DegradationRecord {
        t_s: 3601.2,
        from: "full-ml".into(),
        to: "coarse-skymap".into(),
        reason: "deadline-budget".into(),
    });
    r.alert(&AlertRecord {
        stream_id: 5,
        t_s: 3601.2,
        mode: "coarse-skymap".into(),
        polar_deg: 21.0,
        azimuth_deg: 3.5,
        containment_radius_deg: 9.5,
        containment_source: "skymap".into(),
        latency_ms: 42.0,
        rings: 180,
        ingest_depth: 12,
        epoch_depth: 0,
    });
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
    r.trace_span(&TraceSpanRecord {
        trace_id: "s5.e0".into(),
        span: "trigger".into(),
        parent: None,
        t_s: 3601.2,
        start_ms: 0.0,
        duration_ms: 0.0,
        queue_depth: 2,
        detail: "sigma=8.1".into(),
    });
    r.trace_span(&TraceSpanRecord {
        trace_id: "s5.e0".into(),
        span: "localize".into(),
        parent: Some("trigger".into()),
        t_s: 3601.2,
        start_ms: 3.0,
        duration_ms: 40.25,
        queue_depth: 0,
        detail: "level=coarse-skymap".into(),
    });
    r.queue_depth("ingest", 41);
    r.queue_depth("ingest", 7);
    r
}

const EXPORT_GOLDEN: &str = concat!(
    r#"{"type":"meta","schema":8,"tool":"adapt-telemetry","repetitions":3}"#,
    "\n",
    r#"{"type":"trial","mode":"ml","seed":42,"error_deg":3.25,"rings_in":200,"rings_surviving":140,"degenerate_rings":7,"total_ms":5.5}"#,
    "\n",
    r#"{"type":"loop_iteration","mode":"ml","seed":42,"iteration":1,"rings_in":200,"rings_kept":140,"score_hist":[140,0,0,0,0,0,0,0,0,60],"step_deg":1.5}"#,
    "\n",
    r#"{"type":"loop_iteration","mode":"ml","seed":42,"iteration":2,"rings_in":200,"rings_kept":140,"score_hist":[140,0,0,0,0,0,0,0,0,60],"step_deg":null}"#,
    "\n",
    r#"{"type":"loop_summary","mode":"ml","seed":42,"iterations":2,"converged":true,"surviving_rings":140,"mean_abs_d_eta_correction":0.013}"#,
    "\n",
    r#"{"type":"stage","stage":"reconstruction","count":1,"mean_ms":0.9,"p50_ms":0.9,"p90_ms":0.9,"p99_ms":0.9,"min_ms":0.9,"max_ms":0.9}"#,
    "\n",
    r#"{"type":"stage","stage":"total","count":2,"mean_ms":6,"p50_ms":5.24288,"p90_ms":7,"p99_ms":7,"min_ms":5,"max_ms":7}"#,
    "\n",
    r#"{"type":"counter","name":"trials_run","value":1}"#,
    "\n",
    r#"{"type":"counter","name":"rings_in","value":200}"#,
    "\n",
    r#"{"type":"counter","name":"alerts_emitted","value":1}"#,
    "\n",
    r#"{"type":"counter","name":"degradation_transitions","value":1}"#,
    "\n",
    r#"{"type":"degradation","t_s":3601.2,"from":"full-ml","to":"coarse-skymap","reason":"deadline-budget"}"#,
    "\n",
    r#"{"type":"alert","stream_id":5,"t_s":3601.2,"mode":"coarse-skymap","polar_deg":21,"azimuth_deg":3.5,"containment_radius_deg":9.5,"containment_source":"skymap","latency_ms":42,"rings":180,"ingest_depth":12,"epoch_depth":0}"#,
    "\n",
    r#"{"type":"trigger_decision","t_s":40.1,"fired":false,"near_truth":true,"reason":"below-threshold","background_rate_hz":161.8,"calibration_elapsed_s":38,"threshold_sigma":7,"frozen":false,"windows":[{"width_s":0.064,"counts":14,"expected":10.4,"sigma":1.1},{"width_s":1.024,"counts":201,"expected":165.7,"sigma":2.7}]}"#,
    "\n",
    r#"{"type":"trace","trace_id":"s5.e0","span":"trigger","parent":null,"t_s":3601.2,"start_ms":0,"duration_ms":0,"queue_depth":2,"detail":"sigma=8.1"}"#,
    "\n",
    r#"{"type":"trace","trace_id":"s5.e0","span":"localize","parent":"trigger","t_s":3601.2,"start_ms":3,"duration_ms":40.25,"queue_depth":0,"detail":"level=coarse-skymap"}"#,
    "\n",
    r#"{"type":"queue","name":"ingest","max_depth":41,"samples":2}"#,
    "\n",
);

#[test]
fn export_bytes_are_pinned() {
    let text = export(&full_recorder(), 3);
    assert_eq!(text, EXPORT_GOLDEN);
    let summary = validate_ndjson(&text).expect("golden capture validates");
    assert_eq!(summary.n_loop_iterations, 2);
    assert_eq!(summary.decisions[0].windows.len(), 2);
}

const RUN_GOLDEN: &str = concat!(
    r#"{"type":"meta","schema":1,"tool":"adapt-run-tracker","run_id":"train-0007-1","kind":"train","data_seed":7}"#,
    "\n",
    r#"{"type":"epoch","model":"background","epoch":0,"train_loss":0.5,"val_loss":0.75,"metric":0.75,"grad_norm":1.5,"learning_rate":0.001,"wall_ms":12.5}"#,
    "\n",
    r#"{"type":"search_trial","trial":0,"config":{"lr":0.01,"layers":[64,32]},"val_loss":0.25}"#,
    "\n",
    r#"{"type":"epoch","model":"background","epoch":1,"train_loss":null,"val_loss":0.75,"metric":0.75,"grad_norm":1.5,"learning_rate":0.001,"wall_ms":12.5}"#,
    "\n",
    r#"{"type":"abort","model":"background","epoch":1,"reason":"non-finite train_loss at epoch 1"}"#,
    "\n",
);

#[test]
fn run_stream_bytes_are_pinned() {
    let root = std::env::temp_dir().join(format!("adapt_golden_run_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let tracker = RunTracker::create_named(&root, "train", 7, "train-0007-1").unwrap();
    tracker.begin_model("background");
    let epoch = |e: usize, train_loss: f64| EpochRecord {
        epoch: e,
        train_loss,
        val_loss: 0.75,
        metric: 0.75,
        grad_norm: 1.5,
        learning_rate: 0.001,
        wall_ms: 12.5,
    };
    assert!(tracker.log_epoch(&epoch(0, 0.5)).is_none());
    tracker.log_search_trial(0, "{\"lr\":0.01,\"layers\":[64,32]}", 0.25);
    assert!(tracker.log_epoch(&epoch(1, f64::NAN)).is_some());
    tracker.finish(Default::default()).unwrap();
    let text = std::fs::read_to_string(tracker.dir().join("epochs.ndjson")).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(text, RUN_GOLDEN);
    let summary = validate_run(&text).expect("golden run stream validates");
    assert_eq!(summary.n_epochs, 2);
    assert_eq!(summary.n_search_trials, 1);
    assert!(summary.aborted.is_some());
}

const LIVE_GOLDEN: &str = concat!(
    r#"{"type":"live_meta","schema":1,"every_s":10}"#,
    "\n",
    r#"{"type":"live_snapshot","t_s":12.5,"final":true,"metrics":[{"name":"adapt_alerts_emitted_total","labels":{},"kind":"counter","value":3},{"name":"adapt_workers","labels":{},"kind":"gauge","value":2.5},{"name":"adapt_ingest_queue_depth","labels":{"queue":"in\"g\\est"},"kind":"gauge","value":5},{"name":"adapt_ingest_queue_capacity","labels":{"queue":"in\"g\\est"},"kind":"gauge","value":8},{"name":"adapt_alert_latency_ms","labels":{},"kind":"histogram","count":3,"mean_ms":85.16666666666667,"p50_ms":4.194304,"p90_ms":250,"p99_ms":250,"min_ms":1.5,"max_ms":250}],"health":[{"check":"deadline-burn","ok":true,"detail":"adapt_alert_latency_ms p99 250.0 ms of 500 ms budget (burn 0.50, limit 1.00)"},{"check":"queue-saturation","ok":true,"detail":"worst fill 0.62 at adapt_ingest_queue_depth{queue=\"in\\\"g\\\\est\"} (limit 0.90)"},{"check":"alert-rate","ok":true,"detail":"0.0 alerts/sim-h over last 12 s (budget 30.0/h)"}]}"#,
    "\n",
);

#[test]
fn live_snapshot_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("adapt_golden_live_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.ndjson");
    let obs = LiveObserver::new(10.0, SloConfig::default())
        .with_output(&path)
        .unwrap();
    let reg = obs.registry();
    reg.counter("adapt_alerts_emitted_total", &[]).add(3);
    reg.gauge("adapt_workers", &[]).set(2.5);
    // a label value holding `"` and `\`: the queue-saturation detail
    // quotes the series, so the health detail holds both as well
    let label = "in\"g\\est";
    reg.gauge("adapt_ingest_queue_depth", &[("queue", label)])
        .set(5.0);
    reg.gauge("adapt_ingest_queue_capacity", &[("queue", label)])
        .set(8.0);
    let h = reg.histogram("adapt_alert_latency_ms", &[]);
    h.record_ms(1.5);
    h.record_ms(4.0);
    h.record_ms(250.0);
    obs.finish(12.5);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(text, LIVE_GOLDEN);
    let snaps = parse_live_stream(&text).unwrap();
    assert_eq!(snaps.len(), 1);
    let depth = snaps[0]
        .samples
        .iter()
        .find(|s| s.name == "adapt_ingest_queue_depth")
        .unwrap();
    assert_eq!(depth.labels, vec![("queue".to_string(), label.to_string())]);
    assert!(snaps[0]
        .health
        .iter()
        .any(|h| h.detail.contains('"') && h.detail.contains('\\')));
}

/// Valid lines of every flight-capture type, after a meta line.
fn capture_lines() -> Vec<String> {
    export(&full_recorder(), 1)
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect()
}

/// Valid lines of every run-stream type, after a meta line.
fn run_lines() -> Vec<String> {
    vec![
        "{\"type\":\"epoch\",\"model\":\"m\",\"epoch\":0,\"train_loss\":0.5,\"val_loss\":0.5,\
         \"metric\":0.5,\"grad_norm\":1.0,\"learning_rate\":0.001,\"wall_ms\":1.0}"
            .into(),
        "{\"type\":\"abort\",\"model\":\"m\",\"epoch\":0,\"reason\":\"x\"}".into(),
        "{\"type\":\"search_trial\",\"trial\":0,\"config\":{\"lr\":0.1},\"val_loss\":0.5}".into(),
    ]
}

/// `line` with `path` (a key, or `key.index.key` into nested arrays)
/// set to `to`, or removed when `to` is `None`.
fn edit(line: &str, path: &str, to: Option<Value>) -> String {
    fn walk(v: &mut Value, keys: &[&str], to: Option<Value>) {
        match v {
            Value::Obj(pairs) => {
                let at = pairs.iter().position(|(k, _)| k == keys[0]);
                let at = at.unwrap_or_else(|| panic!("no key `{}`", keys[0]));
                if keys.len() > 1 {
                    walk(&mut pairs[at].1, &keys[1..], to);
                } else if let Some(to) = to {
                    pairs[at].1 = to;
                } else {
                    pairs.remove(at);
                }
            }
            Value::Arr(items) => {
                let i: usize = keys[0].parse().unwrap();
                walk(&mut items[i], &keys[1..], to);
            }
            other => panic!("cannot descend into {other:?}"),
        }
    }
    let mut v: Value = serde_json::from_str(line).unwrap();
    let keys: Vec<&str> = path.split('.').collect();
    walk(&mut v, &keys, to);
    serde_json::to_string(&v).unwrap()
}

/// The first line of `lines` whose `type` is `ty`.
fn line_of(lines: &[String], ty: &str) -> String {
    let tag = format!("{{\"type\":\"{ty}\"");
    lines
        .iter()
        .find(|l| l.starts_with(&tag))
        .unwrap_or_else(|| panic!("no `{ty}` line"))
        .clone()
}

/// What one table row does to its field.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Null,
    Text,
    Negative,
    Missing,
}

impl Fault {
    fn value(self) -> Option<Value> {
        match self {
            Fault::Null => Some(Value::Null),
            Fault::Text => Some(Value::Str("7".into())),
            Fault::Negative => Some(Value::Int(-1)),
            Fault::Missing => None,
        }
    }
}

/// `(line type, field path, fault)` rows for the flight capture.
const CAPTURE_TABLE: &[(&str, &str, Fault)] = &[
    ("meta", "schema", Fault::Null),
    ("meta", "schema", Fault::Text),
    ("meta", "repetitions", Fault::Negative),
    ("meta", "repetitions", Fault::Missing),
    ("trial", "error_deg", Fault::Null),
    ("trial", "total_ms", Fault::Text),
    ("trial", "degenerate_rings", Fault::Negative),
    ("trial", "seed", Fault::Negative),
    ("trial", "mode", Fault::Missing),
    ("trial", "total_ms", Fault::Missing),
    ("loop_iteration", "iteration", Fault::Null),
    ("loop_iteration", "step_deg", Fault::Text),
    ("loop_iteration", "rings_kept", Fault::Negative),
    ("loop_iteration", "seed", Fault::Negative),
    ("loop_iteration", "step_deg", Fault::Missing),
    ("loop_iteration", "mode", Fault::Missing),
    ("loop_summary", "mean_abs_d_eta_correction", Fault::Null),
    ("loop_summary", "mean_abs_d_eta_correction", Fault::Text),
    ("loop_summary", "surviving_rings", Fault::Negative),
    ("loop_summary", "iterations", Fault::Missing),
    ("stage", "p90_ms", Fault::Null),
    ("stage", "mean_ms", Fault::Text),
    ("stage", "count", Fault::Negative),
    ("stage", "max_ms", Fault::Missing),
    ("counter", "value", Fault::Null),
    ("counter", "value", Fault::Text),
    ("counter", "value", Fault::Negative),
    ("counter", "value", Fault::Missing),
    ("degradation", "t_s", Fault::Null),
    ("degradation", "t_s", Fault::Text),
    ("degradation", "reason", Fault::Missing),
    ("alert", "latency_ms", Fault::Null),
    ("alert", "azimuth_deg", Fault::Text),
    ("alert", "rings", Fault::Negative),
    ("alert", "stream_id", Fault::Negative),
    ("alert", "epoch_depth", Fault::Missing),
    ("alert", "polar_deg", Fault::Missing),
    ("trigger_decision", "threshold_sigma", Fault::Null),
    ("trigger_decision", "windows.1.sigma", Fault::Null),
    ("trigger_decision", "calibration_elapsed_s", Fault::Text),
    ("trigger_decision", "windows.0.expected", Fault::Text),
    ("trigger_decision", "windows.1.counts", Fault::Negative),
    ("trigger_decision", "background_rate_hz", Fault::Missing),
    ("trigger_decision", "windows.0.width_s", Fault::Missing),
    ("trace", "duration_ms", Fault::Null),
    ("trace", "t_s", Fault::Text),
    ("trace", "queue_depth", Fault::Negative),
    ("trace", "parent", Fault::Missing),
    ("trace", "detail", Fault::Missing),
    ("queue", "max_depth", Fault::Null),
    ("queue", "samples", Fault::Text),
    ("queue", "max_depth", Fault::Negative),
    ("queue", "name", Fault::Missing),
];

/// `(line type, field path, fault)` rows for the run stream.
const RUN_TABLE: &[(&str, &str, Fault)] = &[
    ("meta", "data_seed", Fault::Null),
    ("meta", "schema", Fault::Text),
    ("meta", "data_seed", Fault::Negative),
    ("meta", "run_id", Fault::Missing),
    ("epoch", "epoch", Fault::Null),
    ("epoch", "val_loss", Fault::Text),
    ("epoch", "epoch", Fault::Negative),
    ("epoch", "wall_ms", Fault::Missing),
    ("epoch", "model", Fault::Missing),
    ("abort", "epoch", Fault::Null),
    ("abort", "epoch", Fault::Text),
    ("abort", "epoch", Fault::Negative),
    ("abort", "reason", Fault::Missing),
    ("search_trial", "trial", Fault::Null),
    ("search_trial", "val_loss", Fault::Text),
    ("search_trial", "trial", Fault::Negative),
    ("search_trial", "config", Fault::Missing),
];

/// Run every row of `table` against `validate`, each on a capture of
/// `meta` plus the faulted line of its type.
fn check_table(
    table: &[(&str, &str, Fault)],
    meta: &str,
    lines: &[String],
    validate: impl Fn(&str) -> Result<(), String>,
) {
    for &(ty, path, fault) in table {
        let field = path.rsplit('.').next().unwrap();
        let text = if ty == "meta" {
            edit(meta, path, fault.value())
        } else {
            format!("{meta}\n{}", edit(&line_of(lines, ty), path, fault.value()))
        };
        match validate(&text) {
            Ok(()) => panic!("{ty}.{path} {fault:?} was accepted: {text}"),
            Err(e) => assert!(
                e.contains(field),
                "{ty}.{path} {fault:?}: error does not name `{field}`: {e}"
            ),
        }
    }
}

#[test]
fn capture_reader_rejects_and_names_the_field() {
    let meta = format!(
        "{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"tool\":\"t\",\"repetitions\":1}}"
    );
    let lines = capture_lines();
    // every unfaulted line validates, so each rejection is the fault's
    for line in &lines {
        validate_ndjson(&format!("{meta}\n{line}")).expect(line);
    }
    check_table(CAPTURE_TABLE, &meta, &lines, |t| {
        validate_ndjson(t).map(|_| ())
    });
}

#[test]
fn run_reader_rejects_and_names_the_field() {
    let meta = format!(
        "{{\"type\":\"meta\",\"schema\":{RUN_SCHEMA},\"tool\":\"t\",\"run_id\":\"r\",\
         \"kind\":\"train\",\"data_seed\":1}}"
    );
    let lines = run_lines();
    for line in &lines {
        validate_run(&format!("{meta}\n{line}")).expect(line);
    }
    check_table(RUN_TABLE, &meta, &lines, |t| validate_run(t).map(|_| ()));
}

#[test]
fn nullable_fields_stay_nullable() {
    let meta = format!("{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"repetitions\":1}}");
    let lines = capture_lines();
    let iteration = edit(
        &line_of(&lines, "loop_iteration"),
        "step_deg",
        Some(Value::Null),
    );
    validate_ndjson(&format!("{meta}\n{iteration}")).expect("null step_deg");
    let root = edit(&line_of(&lines, "trace"), "parent", Some(Value::Null));
    validate_ndjson(&format!("{meta}\n{root}")).expect("null parent");
    let run_meta = format!(
        "{{\"type\":\"meta\",\"schema\":{RUN_SCHEMA},\"run_id\":\"r\",\"kind\":\"train\",\
         \"data_seed\":1}}"
    );
    let epoch = run_lines()[0].clone();
    for field in [
        "train_loss",
        "val_loss",
        "metric",
        "grad_norm",
        "learning_rate",
        "wall_ms",
    ] {
        let line = edit(&epoch, field, Some(Value::Null));
        validate_run(&format!("{run_meta}\n{line}")).expect(field);
    }
    let trial = edit(&run_lines()[2], "val_loss", Some(Value::Null));
    validate_run(&format!("{run_meta}\n{trial}")).expect("null search val_loss");
}

#[test]
fn legacy_alert_fields_default_but_reject_bad_values() {
    let meta = format!("{{\"type\":\"meta\",\"schema\":{NDJSON_SCHEMA},\"repetitions\":1}}");
    let alert = line_of(&capture_lines(), "alert");
    let legacy = edit(&edit(&alert, "stream_id", None), "containment_source", None);
    let summary = validate_ndjson(&format!("{meta}\n{legacy}")).expect("legacy alert");
    assert_eq!(summary.alerts[0].stream_id, 0);
    assert_eq!(summary.alerts[0].containment_source, "heuristic");
    for bad in [
        Value::Str(String::new()),
        Value::Str("psychic".into()),
        Value::Null,
        Value::UInt(1),
    ] {
        let line = edit(&alert, "containment_source", Some(bad.clone()));
        let err = validate_ndjson(&format!("{meta}\n{line}")).unwrap_err();
        assert!(err.contains("containment_source"), "{bad:?}: {err}");
    }
    for bad in [Value::Null, Value::Str("5".into()), Value::Float(1.5)] {
        let line = edit(&alert, "stream_id", Some(bad.clone()));
        let err = validate_ndjson(&format!("{meta}\n{line}")).unwrap_err();
        assert!(err.contains("stream_id"), "{bad:?}: {err}");
    }
}

/// `(field path into the golden snapshot line, wrong-typed value, the
/// metric or health entry the error must name)` rows for the live reader.
const LIVE_TABLE: &[(&str, Fault, &str)] = &[
    (
        "metrics.0.value",
        Fault::Text,
        "metric adapt_alerts_emitted_total",
    ),
    (
        "metrics.4.p50_ms",
        Fault::Text,
        "metric adapt_alert_latency_ms",
    ),
    ("health.0.check", Fault::Negative, "health entry 0"),
    ("health.1.ok", Fault::Text, "health entry 1"),
];

#[test]
fn live_reader_rejects_wrong_types_and_names_the_field() {
    let (meta, snapshot) = LIVE_GOLDEN.trim_end().split_once('\n').unwrap();
    for &(path, fault, entry) in LIVE_TABLE {
        let field = path.rsplit('.').next().unwrap();
        let text = format!("{meta}\n{}\n", edit(snapshot, path, fault.value()));
        let err = parse_live_stream(&text)
            .err()
            .unwrap_or_else(|| panic!("{path} {fault:?} was accepted: {text}"));
        for part in ["line 2", entry, &format!("`{field}`")] {
            assert!(
                err.contains(part),
                "{path} {fault:?}: `{part}` not in: {err}"
            );
        }
    }
    // absent and null numbers still read as 0, as for a NaN gauge or an
    // empty histogram's percentiles
    for to in [None, Some(Value::Null)] {
        let snapshot = edit(
            &edit(snapshot, "metrics.0.value", to.clone()),
            "metrics.4.p50_ms",
            to,
        );
        let snaps = parse_live_stream(&format!("{meta}\n{snapshot}\n")).unwrap();
        assert_eq!(snaps[0].samples[0].value, 0.0);
        assert_eq!(snaps[0].samples[4].hist.unwrap().p50_ms, 0.0);
    }
}
