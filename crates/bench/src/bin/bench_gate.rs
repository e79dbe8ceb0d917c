//! CI regression gate over the checked-in deterministic benchmark
//! reports: `BENCH_matrix.json` and `BENCH_calibration.json`.
//!
//! Compares a freshly measured candidate report against the committed
//! baseline and fails (exit 1) when any gated metric regressed by more
//! than the tolerance. The report kind is auto-detected from its shape,
//! and each kind gates what is portable for it:
//!
//! * **matrix** — the trigger robustness matrix. Per-cell detection
//!   efficiency may *never* drop below the baseline (cells are
//!   seed-deterministic, so any drop is a real behavior change — the
//!   override does not apply), the quiet cells must stay free of false
//!   alerts and the clean-burst cells must stay detected (candidate-only
//!   contracts), and per-cell false-alert rates gate at the wall
//!   tolerance.
//! * **calibration** — the coverage-calibration campaign. The localized
//!   fraction and the inverse mean 90% credible radius gate at the wall
//!   tolerance; additionally the candidate's worst coverage pull
//!   (`coverage_abs_z`) must stay within the hard band — credible
//!   regions whose stated probability is wrong are a correctness bug,
//!   not a performance number, so the override does not apply.
//!
//! Timing is not gated here: `perfbench/` compares every change against
//! its parent on bounded end-to-end metrics.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json>   # compare two reports
//! bench_gate --self-test <baseline.json>        # prove the gate works
//! ```
//!
//! `--self-test` checks both gate arms with synthetic candidates derived
//! from the baseline: every gated metric slowed beyond its tolerance
//! must FAIL, and the baseline compared against itself must PASS.
//!
//! Overrides, for intentional re-baselines only:
//!
//! * `ADAPT_BENCH_ALLOW_REGRESSION=1` — report regressions but exit 0.
//!   Use when landing a change that knowingly trades a gated metric for
//!   something else; commit the regenerated baseline in the same PR.
//! * `ADAPT_BENCH_WALL_TOLERANCE` — gated-metric tolerance as a
//!   fraction (default `0.50`).

use serde::Value;

/// A gated metric: JSON path through the report plus the values found.
struct Gated {
    path: String,
    baseline: f64,
    candidate: f64,
}

/// Which benchmark report a JSON file is, detected from its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Matrix,
    Calibration,
}

impl Kind {
    fn detect(report: &Value) -> Option<Kind> {
        if report.get("coverage_cells").is_some() {
            Some(Kind::Calibration)
        } else if report.get("cells").is_some() {
            Some(Kind::Matrix)
        } else {
            None
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Matrix => "matrix",
            Kind::Calibration => "calibration",
        }
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn load(path: &str) -> (Value, Kind) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read benchmark report {path}: {e}"));
    let report: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    let Some(kind) = Kind::detect(&report) else {
        eprintln!("bench gate: {path} is neither a matrix nor a calibration report");
        std::process::exit(2);
    };
    (report, kind)
}

/// Calibration metrics: the key and whether higher is better (`false`
/// means the gate inverts the value, so a growing radius reads as a
/// shrinking gated metric).
const CALIBRATION_METRICS: &[(&str, bool)] = &[
    ("localized_fraction", true),
    ("mean_credible_radius_90_deg", false),
];

/// Collect the gated metrics of a calibration report. Lower-is-better
/// values are inverted so every gated value is higher-is-better and one
/// regression rule covers both kinds.
fn gated_calibration_metrics(report: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (key, higher_better) in CALIBRATION_METRICS {
        if let Some(x) = report.get(key).and_then(num) {
            let (path, value) = if *higher_better {
                (key.to_string(), x)
            } else {
                (format!("1/{key}"), 1.0 / x.max(1e-12))
            };
            out.push((path, value));
        }
    }
    out
}

/// Per-cell matrix metrics, keyed by the stable cell id. False-alert
/// rates are mapped to the higher-is-better `1/(1+rate)` so the shared
/// regression rule applies; detection efficiency is gated here *and*
/// re-checked as a non-overridable contract in [`run_gate`].
fn gated_matrix_metrics(report: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(cells) = report.get("cells").and_then(|c| c.as_arr()) else {
        return out;
    };
    for cell in cells {
        let id = cell.get("id").and_then(|v| v.as_str()).unwrap_or("<cell>");
        if let Some(eff) = cell.get("detection_efficiency").and_then(num) {
            out.push((format!("cells[{id}].detection_efficiency"), eff));
        }
        if let Some(fa) = cell.get("false_alerts_per_hour").and_then(num) {
            out.push((
                format!("cells[{id}].1/(1+false_alerts_per_hour)"),
                1.0 / (1.0 + fa),
            ));
        }
    }
    out
}

/// Every gated metric of a report, dispatched on its kind.
fn gated_metrics(report: &Value, kind: Kind) -> Vec<(String, f64)> {
    match kind {
        Kind::Matrix => gated_matrix_metrics(report),
        Kind::Calibration => gated_calibration_metrics(report),
    }
}

/// Compare candidate against baseline; returns the regressions found.
fn regressions(baseline: &Value, candidate: &Value, kind: Kind, tolerance: f64) -> Vec<Gated> {
    let base: Vec<(String, f64)> = gated_metrics(baseline, kind);
    let cand: Vec<(String, f64)> = gated_metrics(candidate, kind);
    let mut out = Vec::new();
    for (path, b) in &base {
        let Some((_, c)) = cand.iter().find(|(p, _)| p == path) else {
            // a metric that vanished from the candidate is a regression
            // of the report itself — surface it as one
            out.push(Gated {
                path: format!("{path} (missing from candidate)"),
                baseline: *b,
                candidate: f64::NAN,
            });
            continue;
        };
        if !b.is_finite() || *b <= 0.0 {
            continue; // nothing meaningful to gate against
        }
        // a NaN candidate (unparseable number) must also count as a
        // regression, hence the explicit is_nan arm
        if *c < b / (1.0 + tolerance) || c.is_nan() {
            out.push(Gated {
                path: path.clone(),
                baseline: *b,
                candidate: *c,
            });
        }
    }
    out
}

/// The matrix's candidate-only invariants, mirroring the smoke gate: a
/// quiet sky never fires, a clean on-axis burst is never missed.
fn matrix_invariant_violation(candidate: &Value) -> Option<String> {
    let cells = candidate.get("cells").and_then(|c| c.as_arr())?;
    for cell in cells {
        let scenario = cell.get("scenario").and_then(|v| v.as_str()).unwrap_or("");
        let id = cell.get("id").and_then(|v| v.as_str()).unwrap_or("<cell>");
        let fa = cell.get("false_alerts").and_then(num).unwrap_or(0.0);
        let missed = cell.get("missed").and_then(num).unwrap_or(0.0);
        if scenario == "quiet" && fa != 0.0 {
            return Some(format!("{id}: {fa:.0} false alerts on a quiet sky"));
        }
        if scenario == "clean-burst" && missed != 0.0 {
            return Some(format!("{id}: clean burst missed"));
        }
    }
    None
}

/// Detection efficiency may never drop below baseline: cells are
/// seed-deterministic, so any drop is a real behavioral change in the
/// trigger or scenario layer, not measurement noise.
fn matrix_detection_violation(baseline: &Value, candidate: &Value) -> Option<String> {
    let base_cells = baseline.get("cells").and_then(|c| c.as_arr())?;
    let cand_cells = candidate.get("cells").and_then(|c| c.as_arr())?;
    for cell in base_cells {
        let id = cell.get("id").and_then(|v| v.as_str())?;
        let b = cell.get("detection_efficiency").and_then(num)?;
        let cand = cand_cells
            .iter()
            .find(|c| c.get("id").and_then(|v| v.as_str()) == Some(id));
        let Some(cand) = cand else {
            return Some(format!("cell {id} vanished from the candidate matrix"));
        };
        let c = cand.get("detection_efficiency").and_then(num)?;
        if c < b - 1e-9 {
            return Some(format!("cell {id}: detection efficiency {b:.3} -> {c:.3}"));
        }
    }
    None
}

/// The hard coverage band: a candidate whose worst calibration pull
/// exceeds this many binomial standard errors states credible regions
/// that are not credible. Matches `CalibrationConfig::default().band_z`
/// plus headroom for the checked-in baseline's larger burst count.
const CALIBRATION_MAX_ABS_Z: f64 = 4.0;

/// The calibration campaign's candidate-only invariant: every stated
/// credibility level must keep its empirical coverage inside the band.
fn calibration_coverage_violation(candidate: &Value) -> Option<String> {
    let z = candidate.get("coverage_abs_z").and_then(num)?;
    (z > CALIBRATION_MAX_ABS_Z).then(|| {
        format!(
            "worst coverage pull {z:.2}σ exceeds the ±{CALIBRATION_MAX_ABS_Z:.1}σ band — \
             the posterior's credible regions are miscalibrated"
        )
    })
}

/// Non-overridable correctness contracts per report kind.
fn contract_violation(candidate: &Value, kind: Kind) -> Option<String> {
    match kind {
        Kind::Matrix => matrix_invariant_violation(candidate),
        Kind::Calibration => calibration_coverage_violation(candidate)
            .map(|v| format!("coverage contract broken — {v}")),
    }
}

/// Run one gate comparison, printing the verdict. Returns pass/fail.
fn run_gate(baseline: &Value, candidate: &Value, kind: Kind, tolerance: f64, allow: bool) -> bool {
    if let Some(violation) = contract_violation(candidate, kind) {
        // correctness, not performance: the override does not apply
        eprintln!("GATE FAIL (not overridable): {violation}");
        return false;
    }
    if kind == Kind::Matrix {
        if let Some(violation) = matrix_detection_violation(baseline, candidate) {
            eprintln!("GATE FAIL (not overridable): detection-efficiency regression — {violation}");
            return false;
        }
    }
    let found = regressions(baseline, candidate, kind, tolerance);
    if found.is_empty() {
        println!(
            "bench gate PASS ({}): {} gated metrics within {:.0}% of baseline",
            kind.name(),
            gated_metrics(baseline, kind).len(),
            tolerance * 100.0
        );
        return true;
    }
    for r in &found {
        eprintln!(
            "REGRESSION {}: baseline {:.4} -> candidate {:.4} (floor {:.4})",
            r.path,
            r.baseline,
            r.candidate,
            r.baseline / (1.0 + tolerance)
        );
    }
    if allow {
        eprintln!(
            "bench gate OVERRIDDEN: {} regression(s) allowed by \
             ADAPT_BENCH_ALLOW_REGRESSION=1 — commit a regenerated baseline",
            found.len()
        );
        return true;
    }
    eprintln!(
        "bench gate FAIL ({}): {} of {} gated metrics regressed >{:.0}%. If \
         intentional, regenerate the baseline report on the baseline host and commit \
         it (or set ADAPT_BENCH_ALLOW_REGRESSION=1 for this run).",
        kind.name(),
        found.len(),
        gated_metrics(baseline, kind).len(),
        tolerance * 100.0
    );
    false
}

/// Keys `slowed` scales: efficiency-like keys are divided by the
/// factor, rate- and radius-like keys multiplied, mimicking a uniformly
/// worse run.
const SLOWED_EFFICIENCY_KEYS: &[&str] = &["detection_efficiency", "localized_fraction"];
const SLOWED_LOWER_BETTER_KEYS: &[&str] = &["false_alerts_per_hour", "mean_credible_radius_90_deg"];

/// Deep-copy a report with every gated metric worsened by `factor` —
/// the injected-slowdown candidate for `--self-test`.
fn slowed(v: &Value, factor: f64) -> Value {
    match v {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .iter()
                .map(|(k, val)| {
                    if let Some(x) = num(val) {
                        if SLOWED_EFFICIENCY_KEYS.contains(&k.as_str()) {
                            return (k.clone(), Value::Float(x / factor));
                        }
                        if SLOWED_LOWER_BETTER_KEYS.contains(&k.as_str()) {
                            return (k.clone(), Value::Float(x * factor));
                        }
                    }
                    (k.clone(), slowed(val, factor))
                })
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.iter().map(|i| slowed(i, factor)).collect()),
        other => other.clone(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tolerance: f64 = std::env::var("ADAPT_BENCH_WALL_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.50);
    let allow = std::env::var("ADAPT_BENCH_ALLOW_REGRESSION").as_deref() == Ok("1");

    match args.as_slice() {
        [flag, baseline_path] if flag == "--self-test" => {
            let (baseline, kind) = load(baseline_path);
            // an injected slowdown safely beyond the tolerance
            let factor = (1.0 + tolerance) * 1.1;
            // arm 1: baseline vs itself must pass
            println!(
                "self-test 1/2 ({}): baseline vs itself (must pass)",
                kind.name()
            );
            assert!(
                run_gate(&baseline, &baseline, kind, tolerance, false),
                "self-test failed: gate rejected a baseline identical to itself"
            );
            // arm 2: the injected slowdown on every gated metric must fail
            println!(
                "self-test 2/2 ({}): injected /{factor:.2} slowdown (must fail)",
                kind.name()
            );
            let injected = slowed(&baseline, factor);
            assert!(
                !run_gate(&baseline, &injected, kind, tolerance, false),
                "self-test failed: gate accepted an injected regression beyond tolerance"
            );
            println!("bench gate self-test PASS ({})", kind.name());
        }
        [baseline_path, candidate_path] => {
            let (baseline, kind) = load(baseline_path);
            let (candidate, candidate_kind) = load(candidate_path);
            if kind != candidate_kind {
                eprintln!(
                    "bench gate FAIL: baseline is a {} report but candidate is a {} report",
                    kind.name(),
                    candidate_kind.name()
                );
                std::process::exit(1);
            }
            if !run_gate(&baseline, &candidate, kind, tolerance, allow) {
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!(
                "usage: bench_gate <baseline.json> <candidate.json>\n       \
                 bench_gate --self-test <baseline.json>"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOLERANCE: f64 = 0.5;

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).expect("test report parses")
    }

    /// The gate's verdict on `candidate`, with the kind detected from
    /// the baseline as `main` does.
    fn passes(baseline: &Value, candidate: &Value, allow: bool) -> bool {
        let kind = Kind::detect(baseline).expect("a matrix or calibration report");
        run_gate(baseline, candidate, kind, TOLERANCE, allow)
    }

    /// One matrix cell; the false-alert rate is 18/h per alert (200 s).
    fn cell(id: &str, missed: u32, false_alerts: u32, efficiency: f64) -> String {
        let scenario = id.split('/').next().unwrap();
        let rate = false_alerts as f64 * 18.0;
        format!(
            r#"{{"id": "{id}", "scenario": "{scenario}", "missed": {missed},
                "false_alerts": {false_alerts}, "detection_efficiency": {efficiency},
                "false_alerts_per_hour": {rate}}}"#
        )
    }

    fn matrix(cells: &[String]) -> Value {
        parse(&format!(r#"{{"cells": [{}]}}"#, cells.join(",")))
    }

    /// A three-cell matrix in the committed report's shape, with the
    /// solar-flare cell replaced by `flare`.
    fn matrix_with(quiet: String, clean: String, flare: Option<String>) -> Value {
        let mut cells = vec![quiet, clean];
        cells.extend(flare);
        matrix(&cells)
    }

    /// The baseline: a silent quiet sky, a detected clean burst, and a
    /// solar flare with one miss and one false alert.
    fn baseline_matrix() -> Value {
        matrix_with(
            cell("quiet/x1/t7", 0, 0, 1.0),
            cell("clean-burst/x1/t7", 0, 0, 1.0),
            Some(cell("solar-flare/x1/t7", 1, 1, 0.5)),
        )
    }

    fn calibration(coverage_abs_z: f64, radius_deg: f64) -> Value {
        parse(&format!(
            r#"{{"coverage_cells": [], "localized_fraction": 1.0,
                "mean_credible_radius_90_deg": {radius_deg},
                "coverage_abs_z": {coverage_abs_z}}}"#
        ))
    }

    #[test]
    fn kinds_are_detected_from_the_report_shape() {
        assert_eq!(Kind::detect(&baseline_matrix()), Some(Kind::Matrix));
        let calibration = calibration(1.0, 5.0);
        assert_eq!(Kind::detect(&calibration), Some(Kind::Calibration));
        assert_eq!(Kind::detect(&parse(r#"{"kernels": []}"#)), None);
    }

    #[test]
    fn identical_reports_pass() {
        let m = baseline_matrix();
        assert!(passes(&m, &m, false));
        let c = calibration(1.9, 5.6);
        assert!(passes(&c, &c, false));
    }

    #[test]
    fn quiet_cell_false_alert_fails_even_when_allowed() {
        let candidate = matrix_with(
            cell("quiet/x1/t7", 0, 1, 1.0),
            cell("clean-burst/x1/t7", 0, 0, 1.0),
            Some(cell("solar-flare/x1/t7", 1, 1, 0.5)),
        );
        assert!(!passes(&baseline_matrix(), &candidate, true));
    }

    #[test]
    fn clean_burst_miss_fails_even_when_allowed() {
        let candidate = matrix_with(
            cell("quiet/x1/t7", 0, 0, 1.0),
            cell("clean-burst/x1/t7", 1, 0, 1.0),
            Some(cell("solar-flare/x1/t7", 1, 1, 0.5)),
        );
        assert!(!passes(&baseline_matrix(), &candidate, true));
    }

    #[test]
    fn detection_efficiency_drop_fails_even_when_allowed() {
        // 0.5 -> 0.45 is inside the 50% tolerance: only the
        // non-overridable contract can catch it
        let candidate = matrix_with(
            cell("quiet/x1/t7", 0, 0, 1.0),
            cell("clean-burst/x1/t7", 0, 0, 1.0),
            Some(cell("solar-flare/x1/t7", 1, 1, 0.45)),
        );
        assert!(!passes(&baseline_matrix(), &candidate, true));
    }

    #[test]
    fn vanished_cell_fails_even_when_allowed() {
        let candidate = matrix_with(
            cell("quiet/x1/t7", 0, 0, 1.0),
            cell("clean-burst/x1/t7", 0, 0, 1.0),
            None,
        );
        assert!(!passes(&baseline_matrix(), &candidate, true));
    }

    #[test]
    fn coverage_band_is_four_sigma_inclusive() {
        let baseline = calibration(1.9, 5.6);
        assert!(passes(&baseline, &calibration(4.0, 5.6), false));
        assert!(!passes(&baseline, &calibration(4.01, 5.6), true));
    }

    #[test]
    fn wall_regression_past_tolerance_fails_unless_allowed() {
        // a 90% credible radius 1.6x the baseline's is past the 50%
        // band, but it is a metric, not a contract; 1.4x is inside
        let baseline = calibration(1.9, 5.0);
        let wider = calibration(1.9, 8.0);
        assert!(!passes(&baseline, &wider, false));
        assert!(passes(&baseline, &wider, true));
        assert!(passes(&baseline, &calibration(1.9, 7.0), false));

        // the same rule on a matrix cell's false-alert rate
        let noisier = matrix_with(
            cell("quiet/x1/t7", 0, 0, 1.0),
            cell("clean-burst/x1/t7", 0, 0, 1.0),
            Some(cell("solar-flare/x1/t7", 1, 3, 0.5)),
        );
        assert!(!passes(&baseline_matrix(), &noisier, false));
        assert!(passes(&baseline_matrix(), &noisier, true));
    }

    #[test]
    fn self_test_slowdown_fails_both_kinds() {
        let factor = (1.0 + TOLERANCE) * 1.1;
        for report in [baseline_matrix(), calibration(1.9, 5.6)] {
            assert!(!passes(&report, &slowed(&report, factor), false));
        }
    }
}
