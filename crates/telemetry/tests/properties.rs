//! Property-based tests of the flight-recorder histogram: merged
//! per-thread recordings must report exactly the quantiles of a
//! single-threaded recording, and every reported quantile must be
//! within one bucket width of the true order statistic.

use adapt_telemetry::histogram::{bucket_hi, bucket_index, bucket_lo, SUB_BITS};
use adapt_telemetry::{
    AlertRecord, Counter, DegradationRecord, FlightRecorder, LatencyHistogram, Recorder, Stage,
    TraceSpanRecord, TrialRecord, TriggerDecisionRecord, WindowDecision,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

/// A small but fully-populated capture: one trial with stage durations
/// and counters, exported through the real writer.
fn sample_capture() -> String {
    let r = FlightRecorder::new();
    r.begin_trial("ml", 1);
    r.duration(Stage::Total, Duration::from_millis(3));
    r.duration(Stage::Reconstruction, Duration::from_millis(1));
    r.add(Counter::TrialsRun, 1);
    r.add(Counter::RingsIn, 12);
    r.push_trial(TrialRecord {
        mode: "ml".into(),
        seed: 1,
        error_deg: 2.0,
        rings_in: 12,
        rings_surviving: 9,
        degenerate_rings: 0,
        total_ms: 3.0,
    });
    adapt_telemetry::export(&r, 1)
}

/// A minimal valid tracked-run stream with `epochs` strictly increasing.
fn sample_run_stream(epochs: &[u64]) -> String {
    let mut text = String::from(
        "{\"type\":\"meta\",\"schema\":1,\"tool\":\"adapt-run-tracker\",\
         \"run_id\":\"r\",\"kind\":\"train\",\"data_seed\":1}\n",
    );
    for &e in epochs {
        text.push_str(&format!(
            "{{\"type\":\"epoch\",\"model\":\"background\",\"epoch\":{e},\
             \"train_loss\":0.5,\"val_loss\":0.4,\"metric\":0.4,\
             \"grad_norm\":1.0,\"learning_rate\":0.001,\"wall_ms\":5.0}}\n"
        ));
    }
    text
}

/// Characters the round-trip strings are drawn from: JSON escapes,
/// multi-byte UTF-8 and a control character included.
const ALPHABET: &[char] = &[
    'a', 'Z', '9', '-', ' ', '"', '\\', '/', '\n', '\u{1}', 'é', '∑', '😀',
];

/// Draws records from raw random numbers: `unit` values in [0, 1),
/// full-range integers and alphabet indices, consumed in order.
struct Draw {
    unit: std::vec::IntoIter<f64>,
    ints: std::vec::IntoIter<u64>,
    chars: std::vec::IntoIter<usize>,
}

impl Draw {
    /// A finite float in `[lo, hi)`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit.next().unwrap()
    }

    fn int(&mut self) -> u64 {
        self.ints.next().unwrap()
    }

    fn coin(&mut self) -> bool {
        self.int() & 1 == 0
    }

    /// A non-empty string of up to four alphabet characters.
    fn text(&mut self) -> String {
        let n = 1 + (self.int() % 4) as usize;
        (0..n)
            .map(|_| ALPHABET[self.chars.next().unwrap()])
            .collect()
    }

    fn alert(&mut self) -> AlertRecord {
        AlertRecord {
            stream_id: self.int(),
            t_s: self.float(0.0, 1e5),
            mode: self.text(),
            polar_deg: self.float(0.0, 180.0),
            azimuth_deg: self.float(-180.0, 360.0),
            containment_radius_deg: self.float(0.0, 180.0),
            containment_source: if self.coin() { "skymap" } else { "heuristic" }.into(),
            latency_ms: self.float(0.0, 1e4),
            rings: self.int(),
            ingest_depth: self.int(),
            epoch_depth: self.int(),
        }
    }

    fn trace(&mut self) -> TraceSpanRecord {
        let span = self.text();
        let parent = match self.int() % 2 {
            0 => None,
            _ => Some(format!("{span}~")),
        };
        TraceSpanRecord {
            trace_id: self.text(),
            span,
            parent,
            t_s: self.float(-1e3, 1e5),
            start_ms: self.float(0.0, 1e3),
            duration_ms: self.float(0.0, 1e3),
            queue_depth: self.int(),
            detail: self.text(),
        }
    }

    fn decision(&mut self) -> TriggerDecisionRecord {
        let fired = self.coin();
        let windows = (0..self.int() % 3)
            .map(|_| WindowDecision {
                width_s: self.float(1e-3, 10.0),
                counts: self.int(),
                expected: self.float(0.0, 1e4),
                sigma: self.float(-50.0, 50.0),
            })
            .collect();
        TriggerDecisionRecord {
            t_s: self.float(0.0, 1e5),
            fired,
            near_truth: self.coin(),
            reason: if fired { "fired".into() } else { self.text() },
            background_rate_hz: self.float(0.0, 1e4),
            calibration_elapsed_s: self.float(0.0, 1e3),
            threshold_sigma: self.float(0.0, 20.0),
            frozen: self.coin(),
            windows,
        }
    }

    fn degradation(&mut self) -> DegradationRecord {
        let from = self.text();
        DegradationRecord {
            t_s: self.float(0.0, 1e5),
            to: format!("{from}>"),
            from,
            reason: self.text(),
        }
    }
}

/// The true order statistic the histogram's quantile approximates: the
/// value at rank `ceil(q·n)` of the sorted sample.
fn order_statistic(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn merged_shards_equal_single_threaded(
        values in vec(1u64..10_000_000_000, 1..400),
        shards in 2usize..6,
    ) {
        let whole = LatencyHistogram::new();
        let parts: Vec<LatencyHistogram> =
            (0..shards).map(|_| LatencyHistogram::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            whole.record_ns(v);
            parts[i % shards].record_ns(v);
        }
        let merged = LatencyHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min_ns(), whole.min_ns());
        prop_assert_eq!(merged.max_ns(), whole.max_ns());
        prop_assert!((merged.mean_ns() - whole.mean_ns()).abs() <= 1e-6 * whole.mean_ns());
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile_ns(q), whole.quantile_ns(q));
        }
    }

    #[test]
    fn quantile_error_bounded_by_bucket_width(
        values in vec(1u64..10_000_000_000, 1..400),
        q in 0.0f64..1.0,
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record_ns(v);
        }
        let reported = h.quantile_ns(q);
        let truth = order_statistic(&values, q);
        // the reported quantile is the upper edge of the bucket holding
        // the order statistic (clamped to the recorded max): it never
        // underestimates, and overestimates by at most the bucket width
        prop_assert!(reported >= truth,
            "reported {} < true {}", reported, truth);
        let bucket = bucket_index(truth);
        let width = bucket_hi(bucket) - bucket_lo(bucket);
        prop_assert!(reported - truth <= width,
            "reported {} vs true {}: off by more than bucket width {}",
            reported, truth, width);
        // and the relative form of the same bound: ≤ 1/8 + 1 ns
        let max_err = truth / (1 << SUB_BITS) as u64 + 1;
        prop_assert!(reported - truth <= max_err);
    }

    #[test]
    fn every_value_lands_in_its_bucket(v in 1u64..u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(bucket_lo(i) <= v);
        prop_assert!(v < bucket_hi(i) || bucket_hi(i) == u64::MAX);
    }

    #[test]
    fn merge_is_commutative(
        a in vec(1u64..1_000_000_000, 0..200),
        b in vec(1u64..1_000_000_000, 0..200),
    ) {
        let ha = LatencyHistogram::new();
        let hb = LatencyHistogram::new();
        for &v in &a { ha.record_ns(v); }
        for &v in &b { hb.record_ns(v); }
        let ab = LatencyHistogram::new();
        ab.merge(&ha);
        ab.merge(&hb);
        let ba = LatencyHistogram::new();
        ba.merge(&hb);
        ba.merge(&ha);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.min_ns(), ba.min_ns());
        prop_assert_eq!(ab.max_ns(), ba.max_ns());
        prop_assert!((ab.mean_ns() - ba.mean_ns()).abs() <= 1e-9 * ab.mean_ns().max(1.0));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(ab.quantile_ns(q), ba.quantile_ns(q));
        }
    }

    #[test]
    fn merge_preserves_count_and_mean(
        a in vec(1u64..1_000_000_000, 1..200),
        b in vec(1u64..1_000_000_000, 1..200),
    ) {
        let ha = LatencyHistogram::new();
        let hb = LatencyHistogram::new();
        for &v in &a { ha.record_ns(v); }
        for &v in &b { hb.record_ns(v); }
        let merged = LatencyHistogram::new();
        merged.merge(&ha);
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        let expected_mean = (ha.mean_ns() * a.len() as f64 + hb.mean_ns() * b.len() as f64)
            / (a.len() + b.len()) as f64;
        prop_assert!((merged.mean_ns() - expected_mean).abs() <= 1e-6 * expected_mean,
            "merged mean {} vs weighted mean {}", merged.mean_ns(), expected_mean);
    }

    #[test]
    fn truncated_capture_line_is_rejected(cut_fraction in 0.01f64..0.999) {
        let text = sample_capture();
        // cut strictly inside a line: the trailing fragment is a strict
        // prefix of a JSON object and can never parse
        let mut cut = ((text.len() as f64) * cut_fraction) as usize;
        while cut > 0 && !text.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assume!(cut > 0 && cut < text.len());
        // a cut at a line boundary (or right at a line's closing brace)
        // leaves only complete records; anywhere else the tail is a
        // strict prefix of a JSON object and can never parse
        prop_assume!(!text[..cut].ends_with('\n') && !text[..cut].ends_with('}'));
        let truncated = &text[..cut];
        prop_assert!(adapt_telemetry::validate_ndjson(truncated).is_err(),
            "truncated capture validated at cut {}", cut);
    }

    #[test]
    fn unknown_capture_schema_is_rejected(bump in 1u64..1000) {
        let text = sample_capture();
        let from = format!("\"schema\":{}", adapt_telemetry::NDJSON_SCHEMA);
        let to = format!("\"schema\":{}", adapt_telemetry::NDJSON_SCHEMA as u64 + bump);
        let future = text.replacen(&from, &to, 1);
        prop_assert!(future != text, "schema marker not found in capture");
        let err = adapt_telemetry::validate_ndjson(&future).unwrap_err();
        prop_assert!(err.contains("schema"), "error should name the schema: {}", err);
    }

    #[test]
    fn unknown_run_schema_is_rejected(bump in 1u64..1000) {
        let text = sample_run_stream(&[0, 1, 2]);
        let from = "\"schema\":1".to_string();
        let to = format!("\"schema\":{}", adapt_telemetry::RUN_SCHEMA as u64 + bump);
        let future = text.replacen(&from, &to, 1);
        let err = adapt_telemetry::validate_run(&future).unwrap_err();
        prop_assert!(err.contains("schema"), "error should name the schema: {}", err);
    }

    #[test]
    fn out_of_order_epochs_are_rejected(
        n in 3usize..12,
        swap in 0usize..10,
    ) {
        let mut epochs: Vec<u64> = (0..n as u64).collect();
        let i = swap % (n - 1);
        epochs.swap(i, i + 1); // adjacent swap breaks strict monotonicity
        let text = sample_run_stream(&epochs);
        prop_assert!(adapt_telemetry::validate_run(&text).is_err(),
            "epoch order {:?} validated", epochs);
        // and the sorted stream is accepted
        epochs.swap(i, i + 1);
        let text = sample_run_stream(&epochs);
        prop_assert!(adapt_telemetry::validate_run(&text).is_ok());
    }

    #[test]
    fn truncated_run_stream_is_rejected(cut_fraction in 0.01f64..0.999) {
        let text = sample_run_stream(&[0, 1, 2, 3]);
        let mut cut = ((text.len() as f64) * cut_fraction) as usize;
        while cut > 0 && !text.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assume!(cut > 0 && cut < text.len());
        prop_assume!(!text[..cut].ends_with('\n') && !text[..cut].ends_with('}'));
        prop_assert!(adapt_telemetry::validate_run(&text[..cut]).is_err());
    }

    #[test]
    fn records_round_trip_through_export_and_validate(
        unit in vec(0.0f64..1.0, 160..161),
        ints in vec(0u64..u64::MAX, 200..201),
        chars in vec(0usize..ALPHABET.len(), 240..241),
    ) {
        let mut draw = Draw { unit: unit.into_iter(), ints: ints.into_iter(), chars: chars.into_iter() };
        let alerts: Vec<AlertRecord> = (0..3).map(|_| draw.alert()).collect();
        let traces: Vec<TraceSpanRecord> = (0..3).map(|_| draw.trace()).collect();
        let decisions: Vec<TriggerDecisionRecord> = (0..3).map(|_| draw.decision()).collect();
        let degradations: Vec<DegradationRecord> = (0..2).map(|_| draw.degradation()).collect();
        let r = FlightRecorder::new();
        alerts.iter().for_each(|a| r.alert(a));
        traces.iter().for_each(|t| r.trace_span(t));
        decisions.iter().for_each(|d| r.trigger_decision(d));
        degradations.iter().for_each(|d| r.degradation(d));
        let text = adapt_telemetry::export(&r, 1);
        let summary = adapt_telemetry::validate_ndjson(&text)
            .map_err(|e| TestCaseError::Fail(format!("{e}\n{text}")))?;
        // Debug prints each float's shortest round-trip form, so equal
        // renderings mean bit-equal records
        prop_assert_eq!(format!("{:?}", summary.alerts), format!("{alerts:?}"));
        prop_assert_eq!(format!("{:?}", summary.traces), format!("{traces:?}"));
        prop_assert_eq!(format!("{:?}", summary.decisions), format!("{decisions:?}"));
        prop_assert_eq!(format!("{:?}", summary.degradations), format!("{degradations:?}"));
    }

    #[test]
    fn quantiles_monotone_in_q(values in vec(1u64..1_000_000_000, 1..200)) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record_ns(v);
        }
        let mut last = 0u64;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let cur = h.quantile_ns(q);
            prop_assert!(cur >= last, "quantile not monotone at q={}", q);
            last = cur;
        }
        prop_assert_eq!(h.quantile_ns(1.0), *values.iter().max().unwrap());
    }
}
