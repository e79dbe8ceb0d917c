//! End-to-end tests of the `adapt` binary's exit-code contract: corrupt
//! telemetry captures must fail loudly (nonzero exit), `adapt simulate`
//! must report the flight trigger's verdict, the tracked-run
//! inspection subcommands must round-trip a run written by the tracker,
//! and the live-observability surface (crash hook, SLO breaches, `adapt
//! top`, causal traces) must hold its contracts end to end.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn adapt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adapt"))
        .args(args)
        .output()
        .expect("spawn adapt binary")
}

/// Fast-campaign models trained once per checkout through the binary
/// itself, cached in target/ like the library test fixtures.
fn models_path() -> &'static str {
    static PATH: OnceLock<String> = OnceLock::new();
    PATH.get_or_init(|| {
        let cache = "../../target/adapt-cli-test-models.json";
        if !std::path::Path::new(cache).exists() {
            let out = adapt(&["train", "--scale", "fast", "--out", cache, "--seed", "7"]);
            assert!(
                out.status.success(),
                "training the test models failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        cache.to_string()
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adapt_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn telemetry_report_rejects_corrupt_capture_with_nonzero_exit() {
    let dir = temp_dir("corrupt");
    let path = dir.join("capture.ndjson");
    // truncated mid-line: a capture a crashed writer might leave behind
    std::fs::write(&path, "{\"type\":\"meta\",\"schema\":1,\"repetiti").unwrap();
    let out = adapt(&["telemetry-report", "--input", path.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "corrupt capture must exit nonzero, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed schema validation"),
        "stderr should name the validation failure, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_report_rejects_missing_file_with_nonzero_exit() {
    let out = adapt(&["telemetry-report", "--input", "/nonexistent/capture.ndjson"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn telemetry_report_renders_a_retired_counter() {
    // a schema-8 `serve --telemetry` capture from before the ground pool
    // stopped stealing work still renders, steal count included
    let dir = temp_dir("retired");
    let path = dir.join("capture.ndjson");
    std::fs::write(
        &path,
        "{\"type\":\"meta\",\"schema\":8,\"tool\":\"adapt-telemetry\",\"repetitions\":0}\n\
         {\"type\":\"counter\",\"name\":\"streams_served\",\"value\":2}\n\
         {\"type\":\"counter\",\"name\":\"pool_steals\",\"value\":1}\n",
    )
    .unwrap();
    let out = adapt(&["telemetry-report", "--input", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("pool_steals") && l.ends_with(" 1")),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runs_subcommands_round_trip_a_tracked_run() {
    let root = temp_dir("runs");
    // fabricate two runs through the real tracker
    for (id, seed) in [("train-0001-a", 1u64), ("train-0002-b", 2u64)] {
        let tracker = adapt_telemetry::RunTracker::create_named(&root, "train", seed, id).unwrap();
        tracker.begin_model("background");
        tracker.log_epoch(&adapt_telemetry::EpochRecord {
            epoch: 0,
            train_loss: 0.5,
            val_loss: 0.4 + seed as f64 * 0.01,
            metric: 0.4,
            grad_norm: 1.0,
            learning_rate: 1e-3,
            wall_ms: 5.0,
        });
        tracker
            .finish(adapt_telemetry::ManifestDraft {
                config: format!("{{\"seed\":{seed}}}"),
                data_seed: seed,
                ..Default::default()
            })
            .unwrap();
    }
    let root_s = root.to_str().unwrap();

    let list = adapt(&["runs", "list", "--runs-dir", root_s]);
    assert!(list.status.success());
    let stdout = String::from_utf8_lossy(&list.stdout);
    assert!(stdout.contains("train-0001-a") && stdout.contains("train-0002-b"));

    let show = adapt(&["runs", "show", "train-0001-a", "--runs-dir", root_s]);
    assert!(show.status.success());
    let stdout = String::from_utf8_lossy(&show.stdout);
    assert!(stdout.contains("completed"), "show output: {stdout}");
    assert!(stdout.contains("background"), "show output: {stdout}");

    let diff = adapt(&[
        "runs",
        "diff",
        "train-0001-a",
        "train-0002-b",
        "--runs-dir",
        root_s,
    ]);
    assert!(diff.status.success());
    let stdout = String::from_utf8_lossy(&diff.stdout);
    assert!(
        stdout.contains("data_seed"),
        "diff should report the seed delta: {stdout}"
    );

    let missing = adapt(&["runs", "show", "no-such-run", "--runs-dir", root_s]);
    assert!(!missing.status.success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_subcommand_exits_nonzero() {
    let out = adapt(&["frobnicate"]);
    assert!(!out.status.success());
}

/// Satellite: a panicking runtime must exit nonzero, leave a greppable
/// `health: crashed` verdict on stderr, and flush the flight recorder so
/// the capture up to the crash still validates.
#[test]
fn simulate_reports_the_flight_trigger_verdict() {
    for (fluence, verdict) in [
        ("1.0", "trigger: DETECTED"),
        ("0.000001", "trigger: no detection"),
    ] {
        let out = adapt(&["simulate", "--fluence", fluence]);
        assert!(out.status.success(), "simulate --fluence {fluence} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.lines().any(|l| l.starts_with(verdict)),
            "--fluence {fluence} should print '{verdict}', got: {stdout}"
        );
    }
}

#[test]
fn crash_hook_flushes_telemetry_and_reports_health() {
    let dir = temp_dir("crash");
    let capture = dir.join("crash.ndjson");
    let out = Command::new(env!("CARGO_BIN_EXE_adapt"))
        .args([
            "serve",
            "--models",
            models_path(),
            "--streams",
            "1",
            "--duration-s",
            "10",
            "--telemetry",
            capture.to_str().unwrap(),
        ])
        .env("ADAPT_TEST_PANIC", "1")
        .output()
        .expect("spawn adapt binary");
    assert!(!out.status.success(), "a panicked serve must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("health: crashed BREACH"),
        "stderr must carry the last-breath health verdict, got: {stderr}"
    );
    let report = adapt(&["telemetry-report", "--input", capture.to_str().unwrap()]);
    assert!(
        report.status.success(),
        "the crash capture must still validate: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live stream whose counter value is a string must fail `adapt top`
/// with an error naming the field, not render the counter as 0.
#[test]
fn top_rejects_a_mistyped_live_number_with_nonzero_exit() {
    let dir = temp_dir("top_corrupt");
    let path = dir.join("live.ndjson");
    std::fs::write(
        &path,
        "{\"type\":\"live_meta\",\"schema\":1,\"every_s\":10}\n\
         {\"type\":\"live_snapshot\",\"t_s\":5,\"final\":true,\"metrics\":[{\"name\":\
         \"adapt_streams_served_total\",\"labels\":{},\"kind\":\"counter\",\"value\":\"8\"}],\
         \"health\":[]}\n",
    )
    .unwrap();
    let out = adapt(&["top", "--input", path.to_str().unwrap(), "--once"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a mistyped value must exit nonzero, got {:?}; stdout: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    for part in ["line 2", "adapt_streams_served_total", "`value`"] {
        assert!(stderr.contains(part), "stderr should name {part}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: `--fail-on-slo-breach` turns health breaches into a
/// nonzero exit, and the `--live-out` stream it leaves behind renders
/// through `adapt top --once`.
#[test]
fn slo_breach_fails_serve_and_top_renders_the_live_stream() {
    let dir = temp_dir("slo");
    let live = dir.join("live.ndjson");
    // 2 bursts in 30 simulated seconds is 240 alerts/sim-hour — far
    // past the default 30/h budget, so the alert-rate check must breach
    let out = adapt(&[
        "serve",
        "--models",
        models_path(),
        "--streams",
        "2",
        "--duration-s",
        "30",
        "--seed",
        "42",
        "--live-out",
        live.to_str().unwrap(),
        "--fail-on-slo-breach",
    ]);
    assert!(
        !out.status.success(),
        "an alert-rate breach must fail --fail-on-slo-breach"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("health: alert-rate BREACH"),
        "the breached check must be printed: {stdout}"
    );
    assert!(stderr.contains("SLO health check"), "stderr: {stderr}");

    // the same fleet under a raised --slo-* budget: the flag must reach
    // the watchdog, so the alert-rate check holds
    let relaxed = dir.join("relaxed.ndjson");
    let out = adapt(&[
        "serve",
        "--models",
        models_path(),
        "--streams",
        "2",
        "--duration-s",
        "30",
        "--seed",
        "42",
        "--live-out",
        relaxed.to_str().unwrap(),
        "--fail-on-slo-breach",
        "--slo-max-alerts-per-hour",
        "1000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("health: alert-rate OK"),
        "a 1000/h budget must hold: {stdout}"
    );
    assert!(
        !stdout.contains("health: alert-rate BREACH"),
        "a 1000/h budget must not breach: {stdout}"
    );

    let top = adapt(&["top", "--input", live.to_str().unwrap(), "--once"]);
    assert!(
        top.status.success(),
        "top --once failed: {}",
        String::from_utf8_lossy(&top.stderr)
    );
    let rendered = String::from_utf8_lossy(&top.stdout);
    assert!(rendered.contains("adapt top"), "top output: {rendered}");
    assert!(
        rendered.contains("adapt_alerts_emitted_total"),
        "per-stream alert counters must render: {rendered}"
    );
    assert!(
        rendered.contains("(final)"),
        "the last snapshot is the closing one: {rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole acceptance: one alert out of a multi-stream serve is
/// reconstructable as a complete causal span tree — trigger, queue
/// wait, scheduling decision, localization, and fan-out publish.
#[test]
fn serve_alert_reconstructs_as_a_complete_span_tree() {
    let dir = temp_dir("trace");
    let capture = dir.join("serve.ndjson");
    let out = adapt(&[
        "serve",
        "--models",
        models_path(),
        "--streams",
        "2",
        "--duration-s",
        "30",
        "--seed",
        "42",
        "--deterministic",
        "--subscribers",
        "25",
        "--telemetry",
        capture.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let capture_s = capture.to_str().unwrap();

    // the default report lists the trace ids
    let report = adapt(&["telemetry-report", "--input", capture_s]);
    assert!(report.status.success());
    let listing = String::from_utf8_lossy(&report.stdout);
    assert!(
        listing.contains("causal traces:") && listing.contains("s0.e0"),
        "report must list trace ids: {listing}"
    );

    let trace = adapt(&["telemetry-report", "--input", capture_s, "--trace", "s0.e0"]);
    assert!(
        trace.status.success(),
        "trace rendering failed: {}",
        String::from_utf8_lossy(&trace.stderr)
    );
    let tree = String::from_utf8_lossy(&trace.stdout);
    for span in ["trigger", "queue-wait", "schedule", "localize", "fanout"] {
        assert!(
            tree.contains(span),
            "span '{span}' missing from tree: {tree}"
        );
    }
    assert!(tree.contains("end-to-end"), "tree header: {tree}");

    let missing = adapt(&["telemetry-report", "--input", capture_s, "--trace", "s9.e9"]);
    assert!(!missing.status.success(), "unknown trace ids must fail");
    assert!(String::from_utf8_lossy(&missing.stderr).contains("available:"));
    let _ = std::fs::remove_dir_all(&dir);
}
