//! Subcommand implementations.

use crate::args::Args;
use adapt_core::prelude::*;
use adapt_localize::{SkyPixelization, SkyPosterior};
use adapt_onboard::{OnlineTriggerConfig, TriggerReplay};
use adapt_recon::Reconstructor;
use adapt_sim::{BurstSimulation, ParticleOrigin};
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
adapt — the ADAPT gamma-ray telescope ML pipeline

USAGE:
    adapt <subcommand> [--flag value]...

SUBCOMMANDS:
    simulate   simulate one burst window and summarize events/rings
               --fluence <MeV/cm^2=1.0> --angle <deg=0> --seed <u64=42>
    train      train the networks and write them to disk
               --scale <fast|default=fast> --out <path=models.json> --seed <u64=7>
               --track (stream a tracked run: per-epoch NDJSON + manifest)
               --runs-dir <path=artifacts/runs> (tracked-run root)
    localize   localize a simulated burst
               --models <path=models.json> --fluence <=1.0> --angle <=0>
               --seed <=42> --reps <trials per mode=1>
               --mode <ml|baseline|quantized|no-polar|oracle-no-background|
                       oracle-true-deta|all=ml>
               --telemetry <path> (capture a flight-recorder NDJSON file,
               including feature-drift PSI counters for ML modes)
    telemetry-report
               validate an NDJSON capture and render its percentile table
               --input <path=telemetry.ndjson>
               --trace <alert-id> (render one alert's causal span tree,
               e.g. --trace s3.e0; ids are listed in the default report)
               --traces (one-line-per-trace summary table: id, stream,
               span count, end-to-end latency, final level)
               --forensics (reconstruct why each trigger decision near a
               ground-truth onset fired or stayed quiet)
    fly        run the streaming flight runtime over a simulated profile
               --models <path=models.json> --profile <checkout|antarctic=checkout>
               --start-h <hours into profile=0> --duration-s <stream seconds=rest of profile>
               --bursts <onset:fluence:angle[,...]> (GRB injection schedule)
               --background-scale <rate multiplier=1> --fluence-per-s <=0.625>
               --deadline-ms <alert latency budget=500> --seed <u64=42>
               --telemetry <path> (flight-recorder NDJSON capture)
               --checkpoint <path> --checkpoint-every-s <stream s=0 (off)>
               --resume (restore from --checkpoint before streaming)
               --kill-at-s <stream s> (simulated process kill: checkpoint + exit)
               --enforce-deadline (exit nonzero if p99 alert latency misses)
               --deterministic (pin full-ml so the alert set is seed-pure)
               --metrics-addr <host:port> (live Prometheus-style endpoint)
               --live-out <path> (stream live snapshots as NDJSON, for adapt top)
               --snapshot-every-s <sim s between snapshots=5>
               --fail-on-slo-breach (exit nonzero if any health check breached)
               --slo-max-deadline-burn / --slo-max-queue-fill /
               --slo-stall-factor / --slo-max-alerts-per-hour /
               --slo-alert-window-s / --slo-max-drift-flagged
               (override SLO watchdog thresholds; the defaults are built in)
    serve      run the multi-tenant ground service over a synthesized fleet
               --models <path=models.json> --streams <tenant count=8>
               --duration-s <stream seconds per tenant=60>
               --workers <localization pool workers=4> --shards <ingest shards=2>
               --deadline-ms <per-alert budget=500> --seed <u64=42>
               --subscribers <fan-out population=0 (off)>
               --mailbox-capacity <per-subscriber queue=16>
               --deterministic (pin full-ml so the alert set is seed-pure)
               --telemetry <path> (flight-recorder NDJSON capture)
               --metrics-addr <host:port> (live Prometheus-style endpoint)
               --live-out <path> (stream live snapshots as NDJSON, for adapt top)
               --snapshot-every-s <sim s between snapshots=5>
               --linger-s <wall s to keep the metrics endpoint up after the
               fleet drains=0>
               --fail-on-slo-breach (exit nonzero if any health check breached)
               --slo-* (same watchdog threshold overrides as fly)
    matrix     sweep hostile-sky scenarios x background x threshold through
               the flight runtime and score every cell against ground truth
               --models <path=models.json> --duration-s <per-cell stream s=200>
               --scales <csv=1.0,3.0> --sigmas <csv=7.0,9.0>
               --scenarios <csv of scenario names=all>
               --seed <campaign seed=0x0ADA97B1 (cells derive their own)>
               --out <path=BENCH_matrix.json>
               --ndjson-dir <dir> (per-cell forensics NDJSON captures)
               --smoke (CI grid: quiet/clean-burst/occultation-dip; exit
               nonzero on a quiet false alert or a missed clean burst)
    calibrate  score the posterior's credible regions by empirical coverage
               over simulated bursts at random sky positions
               --models <path=models.json> --bursts <per background scale=200>
               --scales <csv of background scales=1.0,3.0>
               --fluence <MeV/cm^2 at scale 1, x scale per cell=1.0>
               --temperature <fixed likelihood T; default: deployed
               ring-count-adaptive>
               --pixelization <raster|healpix=healpix> --seed <u64=0x0C0BE44A>
               --out <path=BENCH_calibration.json>
               --smoke (CI campaign: fewer bursts; exit nonzero when any
               credibility level leaves its binomial coverage band)
    top        render the latest live snapshot from a --live-out stream
               --input <path=live.ndjson> --refresh-ms <poll interval=500>
               --once (print the latest snapshot and exit)
    skymap     produce a credible-region summary of the posterior sky map
               --models <path=models.json> --fluence <=1.0> --angle <=0>
               --seed <=42> --credibility <=0.9> --pixels <=3000>
               --pixelization <raster|healpix=healpix>
    report     evaluate stored models on fresh bursts
               --models <path=models.json>
    runs       inspect tracked training runs
               list            all runs under the runs root
               show <run-id>   manifest + stream summary of one run
               diff <a> <b>    config and metric deltas between two runs
               --runs-dir <path=artifacts/runs>
    help       print this text";

/// Stable machine name for a mode (NDJSON `mode` field; also the
/// `--mode` flag value).
fn mode_name(mode: PipelineMode) -> &'static str {
    match mode {
        PipelineMode::Baseline => "baseline",
        PipelineMode::Ml => "ml",
        PipelineMode::MlQuantized => "quantized",
        PipelineMode::MlNoPolar => "no-polar",
        PipelineMode::OracleNoBackground => "oracle-no-background",
        PipelineMode::OracleTrueDeta => "oracle-true-deta",
    }
}

const ALL_MODES: [PipelineMode; 6] = [
    PipelineMode::Baseline,
    PipelineMode::Ml,
    PipelineMode::MlQuantized,
    PipelineMode::MlNoPolar,
    PipelineMode::OracleNoBackground,
    PipelineMode::OracleTrueDeta,
];

fn load_models(path: &str) -> Result<TrainedModels, String> {
    TrainedModels::load(Path::new(path))
        .map_err(|e| format!("cannot load models from {path}: {e} (run `adapt train` first)"))
}

/// Parse a `--pixelization` flag, defaulting when absent.
fn parse_pixelization(args: &Args, default: SkyPixelization) -> Result<SkyPixelization, String> {
    match args.get("pixelization") {
        None => Ok(default),
        Some(text) => SkyPixelization::parse(text)
            .ok_or_else(|| format!("unknown pixelization '{text}' (raster|healpix)")),
    }
}

/// `adapt simulate`
pub fn simulate(args: &Args) -> Result<(), String> {
    args.assert_known(&["fluence", "angle", "seed"])?;
    args.assert_no_positionals()?;
    let fluence: f64 = args.get_parse_or("fluence", 1.0)?;
    let angle: f64 = args.get_parse_or("angle", 0.0)?;
    let seed: u64 = args.get_parse_or("seed", 42)?;
    let sim = BurstSimulation::with_defaults(GrbConfig::new(fluence, angle));
    let data = sim.simulate(seed);
    let (grb, bkg) = data.counts_by_origin();
    println!(
        "burst window: fluence {fluence} MeV/cm^2, polar {angle} deg, seed {seed}\n\
         incident photons: {} GRB, {} background\n\
         measured events:  {} GRB, {} background",
        data.n_grb_incident, data.n_background_incident, grb, bkg
    );
    let rings = Reconstructor::default().reconstruct_all(&data.events);
    let grb_rings = rings
        .iter()
        .filter(|r| {
            r.truth
                .map(|t| t.origin == ParticleOrigin::Grb)
                .unwrap_or(false)
        })
        .count();
    println!(
        "reconstructed rings: {} ({} GRB / {} background)",
        rings.len(),
        grb_rings,
        rings.len() - grb_rings
    );
    // the flight trigger, calibrated on quiet windows ahead of this one
    let config = OnlineTriggerConfig::default();
    let threshold = config.threshold_sigma;
    let quiet = BurstSimulation::with_defaults(GrbConfig::new(1e-9, 0.0));
    let lead = (0..TriggerReplay::lead_windows(&config, sim.duration_s()))
        .map(|i| {
            quiet
                .simulate((seed ^ 0xBEEF).wrapping_add(i as u64))
                .events
        })
        .collect();
    let verdict = TriggerReplay::new(config, sim.duration_s(), lead).judge(data.events);
    println!(
        "trigger: {} (max significance {:.1} sigma at t = {:.3} s, threshold {threshold:.1} sigma)",
        if verdict.fired {
            "DETECTED"
        } else {
            "no detection"
        },
        verdict.sigma,
        verdict.t_s
    );
    Ok(())
}

/// `adapt train`
pub fn train(args: &Args) -> Result<(), String> {
    args.assert_known(&["scale", "out", "seed", "track", "runs-dir"])?;
    args.assert_no_positionals()?;
    let scale = args.get_or("scale", "fast");
    let out = args.get_or("out", "models.json");
    let seed: u64 = args.get_parse_or("seed", 7)?;
    let runs_dir = args.get_or("runs-dir", "artifacts/runs");
    let config = match scale.as_str() {
        "fast" => TrainingCampaignConfig::fast(),
        "default" => TrainingCampaignConfig::default(),
        other => return Err(format!("unknown scale '{other}' (fast|default)")),
    };
    let tracker = if args.switch("track") {
        let t = adapt_telemetry::RunTracker::create(Path::new(&runs_dir), "train", seed)
            .map_err(|e| format!("cannot create run directory under {runs_dir}: {e}"))?;
        println!("tracking run {} under {runs_dir}", t.run_id());
        Some(t)
    } else {
        None
    };
    println!("training ({scale} campaign, seed {seed})...");
    let models = adapt_core::train_models_tracked(&config, seed, tracker.as_ref());
    println!(
        "validation losses: background BCE {:.4}, dEta MSE {:.4}",
        models.val_losses.0, models.val_losses.1
    );
    if let Some(t) = &tracker {
        if let Some(reason) = t.abort_reason() {
            return Err(format!(
                "training aborted by run watchdog: {reason} \
                 (stream preserved in {})",
                t.dir().display()
            ));
        }
        let text = std::fs::read_to_string(t.dir().join("epochs.ndjson"))
            .map_err(|e| format!("cannot read back run stream: {e}"))?;
        let summary = adapt_telemetry::validate_run(&text)
            .map_err(|e| format!("internal error: run stream fails its own schema: {e}"))?;
        println!(
            "run {}: {} models, {} epoch records, manifest written to {}",
            t.run_id(),
            summary.models.len(),
            summary.n_epochs,
            t.dir().join("manifest.json").display()
        );
    }
    models
        .save(Path::new(&out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("models written to {out}");
    Ok(())
}

/// `adapt localize`
pub fn localize(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "models",
        "fluence",
        "angle",
        "seed",
        "mode",
        "telemetry",
        "reps",
    ])?;
    args.assert_no_positionals()?;
    let models = load_models(&args.get_or("models", "models.json"))?;
    let fluence: f64 = args.get_parse_or("fluence", 1.0)?;
    let angle: f64 = args.get_parse_or("angle", 0.0)?;
    let seed: u64 = args.get_parse_or("seed", 42)?;
    let reps: u64 = args.get_parse_or("reps", 1)?;
    if reps == 0 {
        return Err("--reps must be >= 1".into());
    }
    let mode_flag = args.get_or("mode", "ml");
    let modes: Vec<PipelineMode> = if mode_flag == "all" {
        ALL_MODES.to_vec()
    } else {
        vec![ALL_MODES
            .into_iter()
            .find(|&m| mode_name(m) == mode_flag)
            .ok_or_else(|| {
                format!(
                    "unknown mode '{mode_flag}' \
                     (ml|baseline|quantized|no-polar|oracle-no-background|oracle-true-deta|all)"
                )
            })?]
    };
    let telemetry_path = args.get("telemetry");

    let recorder = adapt_telemetry::FlightRecorder::new();
    let drift_monitor = adapt_telemetry::DriftMonitor::new(models.drift_reference.clone());
    let mut pipeline = Pipeline::new(&models);
    if telemetry_path.is_some() {
        pipeline = pipeline
            .with_recorder(&recorder)
            .with_drift_monitor(&drift_monitor);
    }
    let grb = GrbConfig::new(fluence, angle);
    for &mode in &modes {
        for rep in 0..reps {
            let trial_seed = seed.wrapping_add(rep);
            recorder.begin_trial(mode_name(mode), trial_seed);
            let out = pipeline.run_trial(mode, &grb, PerturbationConfig::default(), trial_seed);
            recorder.push_trial(adapt_telemetry::TrialRecord {
                mode: mode_name(mode).to_string(),
                seed: trial_seed,
                error_deg: out.error_deg,
                rings_in: out.rings_in,
                rings_surviving: out.rings_surviving,
                degenerate_rings: out.degenerate_rings,
                total_ms: out.total.as_secs_f64() * 1e3,
            });
            println!(
                "{}: error {:.2} deg | {} rings in, {} surviving, \
                 {} degenerate | total {:.1} ms",
                mode.label(),
                out.error_deg,
                out.rings_in,
                out.rings_surviving,
                out.degenerate_rings,
                out.total.as_secs_f64() * 1e3
            );
        }
    }

    if let Some(path) = telemetry_path {
        if let Some(drift) = pipeline.record_drift() {
            if drift.rows_observed > 0 {
                println!(
                    "feature drift: mean PSI {:.3}, max {:.3}, {} of {} features flagged \
                     over {} rows{}",
                    drift.mean_psi,
                    drift.max_psi,
                    drift.features_flagged,
                    drift.per_feature_psi.len(),
                    drift.rows_observed,
                    if drift.features_flagged > 0 {
                        " — WARNING: inference features have drifted from the training reference"
                    } else {
                        ""
                    }
                );
            }
        }
        let text = adapt_telemetry::export(&recorder, reps as usize);
        adapt_telemetry::validate_ndjson(&text)
            .map_err(|e| format!("internal error: capture fails its own schema: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "telemetry: {} lines written to {path} (schema {})",
            text.lines().count(),
            adapt_telemetry::NDJSON_SCHEMA
        );
    }
    Ok(())
}

/// Parse a `--bursts` schedule: `onset:fluence:angle[,onset:fluence:angle...]`.
fn parse_bursts(spec: &str) -> Result<Vec<(f64, GrbConfig)>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let fields: Vec<&str> = part.split(':').collect();
        if fields.len() != 3 {
            return Err(format!(
                "burst '{part}' must be onset:fluence:angle (e.g. 3600:2.0:30)"
            ));
        }
        let onset: f64 = fields[0]
            .parse()
            .map_err(|_| format!("bad burst onset '{}'", fields[0]))?;
        let fluence: f64 = fields[1]
            .parse()
            .map_err(|_| format!("bad burst fluence '{}'", fields[1]))?;
        let angle: f64 = fields[2]
            .parse()
            .map_err(|_| format!("bad burst angle '{}'", fields[2]))?;
        out.push((onset, GrbConfig::new(fluence, angle)));
    }
    Ok(out)
}

/// Last-breath handler for the long-running runtimes: on panic, emit a
/// final greppable `health: crashed` verdict and flush the flight
/// recorder to the `--telemetry` path (if one was given) so the capture
/// up to the crash survives for postmortem. Chains the default hook, so
/// the usual panic message and nonzero exit are preserved.
fn install_crash_hook(
    recorder: std::sync::Arc<adapt_telemetry::FlightRecorder>,
    telemetry_path: Option<String>,
) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let detail = info.to_string().replace('\n', " ");
        eprintln!("health: crashed BREACH {detail}");
        if let Some(path) = &telemetry_path {
            let text = adapt_telemetry::export(&recorder, 1);
            match std::fs::write(path, &text) {
                Ok(()) => eprintln!("telemetry: crash capture flushed to {path}"),
                Err(e) => eprintln!("telemetry: cannot flush crash capture to {path}: {e}"),
            }
        }
        prev(info);
    }));
}

/// Hidden test hook: `ADAPT_TEST_PANIC=1 adapt fly|serve ...` panics
/// right after startup so the crash hook's last-breath path can be
/// exercised end to end from the integration tests.
fn test_panic_requested() -> bool {
    std::env::var_os("ADAPT_TEST_PANIC").is_some_and(|v| v == "1")
}

/// Shared `--metrics-addr`/`--live-out`/`--snapshot-every-s` setup for
/// the two long-running runtimes. Returns `None` (zero overhead) when
/// no live flag was given.
#[allow(clippy::type_complexity)]
fn build_live(
    args: &Args,
    deadline_ms: f64,
) -> Result<
    Option<(
        std::sync::Arc<adapt_telemetry::LiveObserver>,
        Option<adapt_telemetry::MetricsServer>,
    )>,
    String,
> {
    let metrics_addr = args.get("metrics-addr");
    let live_out = args.get("live-out");
    let fail_on_breach = args.switch("fail-on-slo-breach");
    if metrics_addr.is_none() && live_out.is_none() && !fail_on_breach {
        return Ok(None);
    }
    let every_s: f64 = args.get_parse_or("snapshot-every-s", 5.0)?;
    if every_s <= 0.0 {
        return Err("--snapshot-every-s must be > 0".into());
    }
    // Thresholds: built-in defaults, overridden by explicit --slo-* flags.
    // `deadline_ms` always tracks the runtime's own deadline flag so the
    // watchdog and the scheduler agree.
    let mut slo = adapt_telemetry::SloConfig::default();
    slo.deadline_ms = deadline_ms;
    slo.max_deadline_burn = args.get_parse_or("slo-max-deadline-burn", slo.max_deadline_burn)?;
    slo.max_queue_fill = args.get_parse_or("slo-max-queue-fill", slo.max_queue_fill)?;
    slo.stall_factor = args.get_parse_or("slo-stall-factor", slo.stall_factor)?;
    slo.max_alerts_per_sim_hour =
        args.get_parse_or("slo-max-alerts-per-hour", slo.max_alerts_per_sim_hour)?;
    slo.alert_window_s = args.get_parse_or("slo-alert-window-s", slo.alert_window_s)?;
    slo.max_drift_features_flagged =
        args.get_parse_or("slo-max-drift-flagged", slo.max_drift_features_flagged)?;
    let mut obs = adapt_telemetry::LiveObserver::new(every_s, slo);
    if let Some(path) = live_out {
        obs = obs
            .with_output(Path::new(path))
            .map_err(|e| format!("cannot open --live-out {path}: {e}"))?;
        println!(
            "live: streaming snapshots to {path} every {every_s} sim-s (watch with `adapt top --input {path}`)"
        );
    }
    obs.print_health
        .store(true, std::sync::atomic::Ordering::Relaxed);
    let obs = std::sync::Arc::new(obs);
    let server = match metrics_addr {
        Some(addr) => {
            let s = adapt_telemetry::MetricsServer::start(addr, obs.clone())
                .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
            println!(
                "live: metrics endpoint on http://{}/metrics",
                s.local_addr()
            );
            Some(s)
        }
        None => None,
    };
    Ok(Some((obs, server)))
}

/// Final live accounting shared by `fly` and `serve`: take the closing
/// snapshot, report totals, and turn breaches into a nonzero exit when
/// `--fail-on-slo-breach` was given.
fn finish_live(
    args: &Args,
    live: Option<(
        std::sync::Arc<adapt_telemetry::LiveObserver>,
        Option<adapt_telemetry::MetricsServer>,
    )>,
    end_t_s: f64,
) -> Result<(), String> {
    let Some((obs, server)) = live else {
        return Ok(());
    };
    obs.finish(end_t_s);
    let linger_s: f64 = args.get_parse_or("linger-s", 0.0)?;
    if linger_s > 0.0 {
        println!("live: lingering {linger_s:.0} s with the metrics endpoint up");
        std::thread::sleep(std::time::Duration::from_secs_f64(linger_s));
    }
    if let Some(s) = server {
        s.shutdown();
    }
    let breaches = obs.breaches();
    println!(
        "live: {} snapshot(s), {} SLO breach(es)",
        obs.snapshots_taken(),
        breaches
    );
    if breaches > 0 && args.switch("fail-on-slo-breach") {
        return Err(format!(
            "{breaches} SLO health check(s) breached (--fail-on-slo-breach)"
        ));
    }
    Ok(())
}

/// `adapt fly` — the streaming flight runtime.
pub fn fly(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "models",
        "profile",
        "start-h",
        "duration-s",
        "bursts",
        "background-scale",
        "fluence-per-s",
        "deadline-ms",
        "seed",
        "telemetry",
        "checkpoint",
        "checkpoint-every-s",
        "resume",
        "kill-at-s",
        "enforce-deadline",
        "deterministic",
        "metrics-addr",
        "live-out",
        "snapshot-every-s",
        "fail-on-slo-breach",
        "slo-max-deadline-burn",
        "slo-max-queue-fill",
        "slo-stall-factor",
        "slo-max-alerts-per-hour",
        "slo-alert-window-s",
        "slo-max-drift-flagged",
    ])?;
    args.assert_no_positionals()?;
    let models = load_models(&args.get_or("models", "models.json"))?;
    let profile_flag = args.get_or("profile", "checkout");
    let profile = match profile_flag.as_str() {
        "checkout" => adapt_sim::FlightProfile::checkout_2h(),
        "antarctic" => adapt_sim::FlightProfile::antarctic_ldb(),
        other => return Err(format!("unknown profile '{other}' (checkout|antarctic)")),
    };
    let start_h: f64 = args.get_parse_or("start-h", 0.0)?;
    let rest_s = ((profile.duration_h() - start_h) * 3600.0).max(0.0);
    let duration_s: f64 = args.get_parse_or("duration-s", rest_s)?;
    if duration_s <= 0.0 {
        return Err("nothing to stream: --duration-s must be > 0".into());
    }
    let seed: u64 = args.get_parse_or("seed", 42)?;

    let mut stream = adapt_sim::StreamConfig::new(profile, duration_s);
    stream.start_h = start_h;
    stream.background_scale = args.get_parse_or("background-scale", 1.0)?;
    stream.background.particle_fluence =
        args.get_parse_or("fluence-per-s", adapt_onboard::FLIGHT_NOMINAL_FLUENCE)?;
    for (onset, grb) in parse_bursts(&args.get_or("bursts", ""))? {
        stream = stream.with_burst(onset, grb);
    }
    let n_bursts = stream.bursts.len();

    let mut rc = adapt_onboard::RuntimeConfig::default();
    rc.deadline_ms = args.get_parse_or("deadline-ms", rc.deadline_ms)?;
    rc.deterministic = args.switch("deterministic");
    rc.seed = seed;
    rc.checkpoint_path = args.get("checkpoint").map(std::path::PathBuf::from);
    rc.checkpoint_every_s = args.get_parse_or("checkpoint-every-s", 0.0)?;
    rc.kill_at_s = match args.get("kill-at-s") {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --kill-at-s '{v}'"))?),
        None => None,
    };
    if rc.checkpoint_every_s > 0.0 && rc.checkpoint_path.is_none() {
        return Err("--checkpoint-every-s needs --checkpoint <path>".into());
    }
    let deadline_ms = rc.deadline_ms;
    let telemetry_path = args.get("telemetry");

    let recorder = std::sync::Arc::new(adapt_telemetry::FlightRecorder::new());
    install_crash_hook(recorder.clone(), telemetry_path.map(str::to_string));
    let live = build_live(args, deadline_ms)?;
    let mut runtime = adapt_onboard::FlightRuntime::new(&models, rc).with_recorder(&*recorder);
    if let Some((obs, _)) = &live {
        runtime = runtime.with_live(obs);
    }
    recorder.begin_trial("fly", seed);
    if test_panic_requested() {
        panic!("panic injected by ADAPT_TEST_PANIC");
    }

    println!(
        "flying {profile_flag} profile: start {start_h} h, {duration_s:.0} s of stream, \
         {n_bursts} scheduled burst(s), {:.0} ms deadline",
        deadline_ms
    );
    let report = if args.switch("resume") {
        let path = rc_checkpoint_path(args)?;
        let ckpt = adapt_onboard::Checkpoint::load(Path::new(&path))?;
        println!(
            "resuming from checkpoint {path} (stream t = {:.2} s, {} alert(s) already emitted)",
            ckpt.t_s,
            ckpt.alerts.len()
        );
        runtime.resume(adapt_sim::StreamingSource::new(stream, seed), ckpt)
    } else {
        runtime.run(adapt_sim::StreamingSource::new(stream, seed))
    };

    let stats = report.stream_stats;
    println!(
        "stream done in {:.1} s wall: {} measured events ingested \
         ({:.0} events/s sustained), {} shed, {} incident background, {} incident GRB photons",
        report.wall_s,
        report.ingest_stats.pushed,
        report.sustained_events_per_s,
        report.ingest_stats.dropped,
        stats.n_background_incident,
        stats.n_grb_incident
    );
    if report.killed {
        println!(
            "simulated kill fired{}",
            if report.checkpoint_written {
                " — checkpoint written"
            } else {
                ""
            }
        );
    }
    for t in &report.transitions {
        println!(
            "degradation: t={:.2}s {} -> {} ({})",
            t.t_s, t.from, t.to, t.reason
        );
    }
    println!("alerts emitted: {}", report.alerts.len());
    for a in &report.alerts {
        println!(
            "  GRB ALERT t={:.3}s {:.1}σ | polar {:.1}° azimuth {:.1}° ± {:.1}° ({}) \
             | mode {} | {} rings ({} surviving) | latency {:.1} ms \
             | queues ingest={} epoch={}",
            a.t_trigger_s,
            a.significance_sigma,
            a.polar_deg,
            a.azimuth_deg,
            a.containment_radius_deg,
            a.containment_source.name(),
            a.mode.name(),
            a.rings,
            a.surviving_rings,
            a.latency_ms,
            a.ingest_depth,
            a.epoch_depth
        );
    }
    if let Some(p99) = report.latency_percentile_ms(0.99) {
        let met = p99 <= deadline_ms;
        println!(
            "alert latency p50 {:.1} ms, p99 {:.1} ms vs {:.0} ms deadline: {}",
            report.latency_percentile_ms(0.5).unwrap_or(p99),
            p99,
            deadline_ms,
            if met { "MET" } else { "MISSED" }
        );
        if !met && args.switch("enforce-deadline") {
            return Err(format!(
                "p99 alert latency {p99:.1} ms exceeds the {deadline_ms:.0} ms deadline"
            ));
        }
    }

    if let Some(path) = telemetry_path {
        let text = adapt_telemetry::export(&recorder, 1);
        adapt_telemetry::validate_ndjson(&text)
            .map_err(|e| format!("internal error: capture fails its own schema: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "telemetry: {} lines written to {path} (schema {})",
            text.lines().count(),
            adapt_telemetry::NDJSON_SCHEMA
        );
    }
    finish_live(args, live, duration_s)?;
    Ok(())
}

/// `adapt serve` — the multi-tenant ground-segment alert service.
pub fn serve(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "models",
        "streams",
        "duration-s",
        "workers",
        "shards",
        "deadline-ms",
        "seed",
        "subscribers",
        "mailbox-capacity",
        "deterministic",
        "telemetry",
        "metrics-addr",
        "live-out",
        "snapshot-every-s",
        "linger-s",
        "fail-on-slo-breach",
        "slo-max-deadline-burn",
        "slo-max-queue-fill",
        "slo-stall-factor",
        "slo-max-alerts-per-hour",
        "slo-alert-window-s",
        "slo-max-drift-flagged",
    ])?;
    args.assert_no_positionals()?;
    let models = load_models(&args.get_or("models", "models.json"))?;
    let streams: usize = args.get_parse_or("streams", 8)?;
    let duration_s: f64 = args.get_parse_or("duration-s", 60.0)?;
    if streams == 0 || duration_s <= 0.0 {
        return Err("nothing to serve: need --streams >= 1 and --duration-s > 0".into());
    }
    let seed: u64 = args.get_parse_or("seed", 42)?;
    let subscribers: usize = args.get_parse_or("subscribers", 0)?;
    let mailbox_capacity: usize = args.get_parse_or("mailbox-capacity", 16)?;
    let telemetry_path = args.get("telemetry");

    let mut gc = adapt_ground::GroundConfig::default();
    gc.workers = args.get_parse_or("workers", gc.workers)?;
    gc.ingest_shards = args.get_parse_or("shards", gc.ingest_shards)?;
    gc.deadline_ms = args.get_parse_or("deadline-ms", gc.deadline_ms)?;
    gc.deterministic = args.switch("deterministic");
    if gc.workers == 0 || gc.ingest_shards == 0 {
        return Err("--workers and --shards must be >= 1".into());
    }

    let population = if subscribers > 0 {
        Some(adapt_ground::SubscriberPopulation::synth(
            subscribers,
            seed ^ 0xFA0u64,
            mailbox_capacity,
        ))
    } else {
        None
    };

    let recorder = std::sync::Arc::new(adapt_telemetry::FlightRecorder::new());
    install_crash_hook(recorder.clone(), telemetry_path.map(str::to_string));
    let live = build_live(args, gc.deadline_ms)?;
    let mut service =
        adapt_ground::GroundService::new(&models, gc.clone()).with_recorder(&*recorder);
    if let Some((obs, _)) = &live {
        service = service.with_live(obs);
    }
    recorder.begin_trial("serve", seed);
    if test_panic_requested() {
        panic!("panic injected by ADAPT_TEST_PANIC");
    }

    println!(
        "serving {streams} tenant stream(s) x {duration_s:.0} s over {} pool worker(s), \
         {} ingest shard(s), {:.0} ms deadline{}{}",
        gc.workers,
        gc.ingest_shards,
        gc.deadline_ms,
        if subscribers > 0 {
            format!(", {subscribers} subscriber(s)")
        } else {
            String::new()
        },
        if gc.deterministic {
            " [deterministic]"
        } else {
            ""
        }
    );
    let fleet = adapt_ground::synth_fleet(streams, duration_s, seed);
    let report = service.run(fleet, population.as_ref());

    println!(
        "fleet done in {:.1} s wall: {} events ingested across {} stream(s), \
         aggregate realtime factor {:.1}x",
        report.wall_s, report.events_ingested, report.streams, report.aggregate_realtime_factor
    );
    println!(
        "pool: {} epoch(s) dispatched, max backlog {}",
        report.pool.pushed, report.pool.max_pending
    );
    let levels = adapt_onboard::DegradationLevel::ALL;
    let level_summary: Vec<String> = levels
        .iter()
        .zip(report.per_level.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(l, n)| format!("{} x{}", l.name(), n))
        .collect();
    println!("alerts emitted: {}", report.alerts.len());
    println!("events dropped: {}", report.events_dropped);
    if !level_summary.is_empty() {
        println!("modes: {}", level_summary.join(", "));
    }
    for a in report.alerts.iter().take(16) {
        println!(
            "  GRB ALERT stream {} epoch {} t={:.3}s {:.1}σ | polar {:.1}° azimuth {:.1}° \
             ± {:.1}° ({}) | mode {} | latency {:.1} ms",
            a.stream_id,
            a.epoch_index,
            a.alert.t_trigger_s,
            a.alert.significance_sigma,
            a.alert.polar_deg,
            a.alert.azimuth_deg,
            a.alert.containment_radius_deg,
            a.alert.containment_source.name(),
            a.alert.mode.name(),
            a.alert.latency_ms
        );
    }
    if report.alerts.len() > 16 {
        println!("  ... and {} more", report.alerts.len() - 16);
    }
    if let Some(p99) = report.latency_percentile_ms(0.99) {
        println!(
            "epoch latency p50 {:.1} ms, p99 {:.1} ms vs {:.0} ms deadline: {}",
            report.latency_percentile_ms(0.5).unwrap_or(p99),
            p99,
            gc.deadline_ms,
            if p99 <= gc.deadline_ms {
                "MET"
            } else {
                "MISSED"
            }
        );
    }
    if let Some(pop) = &population {
        let fs = pop.stats();
        println!(
            "fan-out: {} delivered, {} shed across {} subscriber(s)",
            fs.delivered,
            fs.shed,
            pop.len()
        );
    }

    if let Some(path) = telemetry_path {
        let text = adapt_telemetry::export(&recorder, 1);
        adapt_telemetry::validate_ndjson(&text)
            .map_err(|e| format!("internal error: capture fails its own schema: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "telemetry: {} lines written to {path} (schema {})",
            text.lines().count(),
            adapt_telemetry::NDJSON_SCHEMA
        );
    }
    finish_live(args, live, duration_s)?;
    Ok(())
}

/// `adapt top` — render the latest live snapshot from a `--live-out`
/// NDJSON stream, either once or following the file like `top(1)`.
pub fn top(args: &Args) -> Result<(), String> {
    args.assert_known(&["input", "refresh-ms", "once"])?;
    args.assert_no_positionals()?;
    let path = args.get_or("input", "live.ndjson");
    let refresh_ms: u64 = args.get_parse_or("refresh-ms", 500)?;
    let once = args.switch("once");
    let mut last_rendered = 0usize;
    loop {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let snaps = adapt_telemetry::parse_live_stream(&text)
                    .map_err(|e| format!("{path} is not a live snapshot stream: {e}"))?;
                if let Some(snap) = snaps.last() {
                    if once {
                        print!("{}", adapt_telemetry::render_top(snap));
                        return Ok(());
                    }
                    if snaps.len() != last_rendered {
                        last_rendered = snaps.len();
                        // clear + home, like top(1), then the snapshot
                        print!("\x1b[2J\x1b[H{}", adapt_telemetry::render_top(snap));
                        use std::io::Write;
                        let _ = std::io::stdout().flush();
                    }
                    if snap.is_final {
                        return Ok(());
                    }
                } else if once {
                    return Err(format!("{path} holds no snapshots yet"));
                }
            }
            Err(e) if once => return Err(format!("cannot read {path}: {e}")),
            // follow mode: the producer may not have created the file yet
            Err(_) => {}
        }
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms.max(50)));
    }
}

fn rc_checkpoint_path(args: &Args) -> Result<String, String> {
    args.get("checkpoint")
        .map(str::to_string)
        .ok_or_else(|| "--resume needs --checkpoint <path>".into())
}

/// `adapt telemetry-report`
pub fn telemetry_report(args: &Args) -> Result<(), String> {
    args.assert_known(&["input", "trace", "traces", "forensics"])?;
    args.assert_no_positionals()?;
    let path = args.get_or("input", "telemetry.ndjson");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = adapt_telemetry::validate_ndjson(&text)
        .map_err(|e| format!("{path} failed schema validation: {e}"))?;

    if args.switch("traces") {
        if summary.traces.is_empty() {
            return Err(format!(
                "{path} holds no trace spans (schema {} capture?)",
                summary.schema
            ));
        }
        print!("{}", adapt_telemetry::render_trace_table(&summary.traces));
        return Ok(());
    }

    if args.switch("forensics") {
        if summary.decisions.is_empty() {
            return Err(format!(
                "{path} holds no trigger decision records — capture one with \
                 truth onsets configured (e.g. `adapt matrix --ndjson-dir ...`)"
            ));
        }
        print!("{}", adapt_telemetry::render_forensics(&summary.decisions));
        return Ok(());
    }

    if let Some(id) = args.get("trace") {
        let tree = adapt_telemetry::render_trace(&summary.traces, id).ok_or_else(|| {
            let ids = adapt_telemetry::trace_ids(&summary.traces);
            if ids.is_empty() {
                format!(
                    "{path} holds no trace spans (schema {} capture?)",
                    summary.schema
                )
            } else {
                format!("no trace '{id}' in {path} (available: {})", ids.join(", "))
            }
        })?;
        print!("{tree}");
        return Ok(());
    }

    println!(
        "telemetry capture {path}: schema {}, {} repetitions/mode, {} trials ({})",
        summary.schema,
        summary.repetitions,
        summary.n_trials,
        if summary.modes.is_empty() {
            "no modes".to_string()
        } else {
            summary.modes.join(", ")
        }
    );
    println!();
    println!(
        "{:<22} {:>7} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "Stage", "Count", "Mean (ms)", "p50 (ms)", "p90 (ms)", "p99 (ms)", "Range (ms)"
    );
    for (name, s) in &summary.stages {
        let label = adapt_telemetry::Stage::parse(name)
            .map(|st| st.table_label())
            .unwrap_or(name.as_str());
        println!(
            "{:<22} {:>7} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>6.1}-{:<7.1}",
            label, s.count, s.mean_ms, s.p50_ms, s.p90_ms, s.p99_ms, s.min_ms, s.max_ms
        );
    }
    if !summary.counters.is_empty() {
        println!();
        for (name, value) in &summary.counters {
            println!("{name:<22} {value}");
        }
        let counter = |key: &str| {
            summary
                .counters
                .iter()
                .find(|(name, _)| name == key)
                .map(|&(_, value)| value)
        };
        if let Some(rows) = counter("drift_rows").filter(|&r| r > 0) {
            let psi = counter("drift_mean_psi_milli").unwrap_or(0) as f64 / 1000.0;
            let flagged = counter("drift_features_flagged").unwrap_or(0);
            println!();
            println!(
                "feature drift vs training reference: mean PSI {psi:.3} over {rows} rows{}",
                if flagged > 0 {
                    format!(
                        " — WARNING: {flagged} feature(s) above the {} PSI flag threshold",
                        adapt_telemetry::PSI_FLAG
                    )
                } else {
                    " (in distribution)".to_string()
                }
            );
        }
    }
    if summary.n_loop_summaries > 0 {
        println!();
        println!(
            "loop introspection: {} iteration records, {} summaries, \
             mean |d-eta correction| {:.4}",
            summary.n_loop_iterations, summary.n_loop_summaries, summary.mean_abs_d_eta_correction
        );
    }
    if !summary.alerts.is_empty() {
        println!();
        println!("GRB alerts ({}):", summary.alerts.len());
        for a in &summary.alerts {
            println!(
                "  t={:<9.3}s mode {:<13} polar {:>6.1}° ± {:>5.1}° ({:<9}) latency {:>7.1} ms \
                 | {} rings | queues ingest={} epoch={}",
                a.t_s,
                a.mode,
                a.polar_deg,
                a.containment_radius_deg,
                a.containment_source,
                a.latency_ms,
                a.rings,
                a.ingest_depth,
                a.epoch_depth
            );
        }
        let mut lat: Vec<f64> = summary.alerts.iter().map(|a| a.latency_ms).collect();
        lat.sort_by(f64::total_cmp);
        let pct = |q: f64| lat[(((lat.len() - 1) as f64 * q).ceil() as usize).min(lat.len() - 1)];
        println!(
            "  alert latency: p50 {:.1} ms, p99 {:.1} ms over {} alert(s)",
            pct(0.5),
            pct(0.99),
            lat.len()
        );
    }
    if !summary.degradations.is_empty() {
        println!();
        println!(
            "degradation timeline ({} transitions):",
            summary.degradations.len()
        );
        for d in &summary.degradations {
            println!("  t={:<9.3}s {} -> {} ({})", d.t_s, d.from, d.to, d.reason);
        }
    }
    if !summary.queues.is_empty() {
        println!();
        println!("{:<10} {:>10} {:>12}", "Queue", "Max depth", "Samples");
        for (name, max_depth, samples) in &summary.queues {
            println!("{name:<10} {max_depth:>10} {samples:>12}");
        }
    }
    if !summary.traces.is_empty() {
        let ids = adapt_telemetry::trace_ids(&summary.traces);
        let shown: Vec<&str> = ids.iter().take(8).map(String::as_str).collect();
        println!();
        println!(
            "causal traces: {} span(s) across {} alert(s) — render one with \
             --trace <id> (e.g. {}{})",
            summary.traces.len(),
            ids.len(),
            shown.join(", "),
            if ids.len() > shown.len() { ", ..." } else { "" }
        );
    }
    Ok(())
}

/// Parse a comma-separated `--scales`/`--sigmas` style flag into floats.
fn parse_f64_list(flag: &str, text: &str) -> Result<Vec<f64>, String> {
    let values: Vec<f64> = text
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| format!("flag --{flag}: cannot parse '{s}'"))
        })
        .collect::<Result<_, _>>()?;
    if values.is_empty() {
        return Err(format!("flag --{flag}: needs at least one value"));
    }
    Ok(values)
}

/// `adapt matrix` — the trigger robustness campaign runner.
pub fn matrix(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "models",
        "duration-s",
        "scales",
        "sigmas",
        "scenarios",
        "seed",
        "out",
        "ndjson-dir",
        "smoke",
    ])?;
    args.assert_no_positionals()?;
    let models = load_models(&args.get_or("models", "models.json"))?;
    let smoke = args.switch("smoke");
    let mut config = if smoke {
        adapt_bench::MatrixConfig::smoke()
    } else {
        adapt_bench::MatrixConfig::default()
    };
    config.duration_s = args.get_parse_or("duration-s", config.duration_s)?;
    if config.duration_s <= 0.0 {
        return Err("--duration-s must be > 0".into());
    }
    if let Some(text) = args.get("scales") {
        config.background_scales = parse_f64_list("scales", text)?;
    }
    if let Some(text) = args.get("sigmas") {
        config.threshold_sigmas = parse_f64_list("sigmas", text)?;
    }
    if let Some(text) = args.get("scenarios") {
        config.scenarios = text
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
    }
    config.seed = args.get_parse_or("seed", config.seed)?;
    config.ndjson_dir = args.get("ndjson-dir").map(std::path::PathBuf::from);

    let (report, forensics) = adapt_bench::run_matrix(&models, &config);

    let out = args.get_or("out", "BENCH_matrix.json");
    if let Some(found) = adapt_bench::existing_schema(&out) {
        if found > adapt_bench::MATRIX_SCHEMA {
            return Err(format!(
                "{out} was written by schema {found} but this binary writes schema {}; \
                 rebuild from the current tree instead of overwriting",
                adapt_bench::MATRIX_SCHEMA
            ));
        }
    }
    let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&out, text).map_err(|e| format!("cannot write {out}: {e}"))?;

    println!("{}", report.render_tables());
    if !forensics.is_empty() {
        println!("{forensics}");
    }
    println!(
        "{} cells ({} scenarios x {:?} background x {:?} sigma); report written to {out}",
        report.cells.len(),
        report.scenario_kinds,
        report.background_scales,
        report.threshold_sigmas
    );

    if smoke {
        let verdict = adapt_bench::smoke_verdict(&report);
        if !verdict.violations.is_empty() {
            return Err(format!(
                "smoke violations:\n  {}",
                verdict.violations.join("\n  ")
            ));
        }
        println!("smoke grid clean: quiet sky silent, clean burst detected");
    }
    Ok(())
}

/// `adapt calibrate` — the coverage-calibration campaign.
pub fn calibrate(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "models",
        "bursts",
        "scales",
        "fluence",
        "temperature",
        "pixelization",
        "seed",
        "out",
        "smoke",
    ])?;
    args.assert_no_positionals()?;
    let models = load_models(&args.get_or("models", "models.json"))?;
    let smoke = args.switch("smoke");
    let mut config = if smoke {
        adapt_bench::CalibrationConfig::smoke()
    } else {
        adapt_bench::CalibrationConfig::default()
    };
    config.bursts = args.get_parse_or("bursts", config.bursts)?;
    if config.bursts == 0 {
        return Err("--bursts must be >= 1".into());
    }
    if let Some(text) = args.get("scales") {
        config.background_scales = parse_f64_list("scales", text)?;
    }
    config.fluence = args.get_parse_or("fluence", config.fluence)?;
    if args.get("temperature").is_some() {
        let t: f64 = args.get_parse_or("temperature", 0.0)?;
        if t <= 0.0 {
            return Err("--temperature must be > 0".into());
        }
        config.temperature = Some(t);
    }
    config.pixelization = parse_pixelization(args, config.pixelization)?;
    config.seed = args.get_parse_or("seed", config.seed)?;

    let report = adapt_bench::run_calibration(&models, &config);

    let out = args.get_or("out", "BENCH_calibration.json");
    if let Some(found) = adapt_bench::existing_schema(&out) {
        if found > adapt_bench::CALIBRATION_SCHEMA {
            return Err(format!(
                "{out} was written by schema {found} but this binary writes schema {}; \
                 rebuild from the current tree instead of overwriting",
                adapt_bench::CALIBRATION_SCHEMA
            ));
        }
    }
    let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&out, text).map_err(|e| format!("cannot write {out}: {e}"))?;

    println!("{}", report.render_curves());
    println!(
        "{} coverage cells over {} bursts/scale ({} pixelization, mean temperature {:.1}); \
         report written to {out}",
        report.coverage_cells.len(),
        report.bursts_per_scale,
        report.pixelization,
        report.mean_temperature
    );

    if smoke {
        let verdict = adapt_bench::coverage_verdict(&report, config.band_z);
        if !verdict.violations.is_empty() {
            return Err(format!(
                "coverage violations:\n  {}",
                verdict.violations.join("\n  ")
            ));
        }
        println!(
            "coverage smoke clean: every credibility level within ±{:.1}σ of its band",
            config.band_z
        );
    }
    Ok(())
}

/// `adapt skymap`
pub fn skymap(args: &Args) -> Result<(), String> {
    args.assert_known(&[
        "models",
        "fluence",
        "angle",
        "seed",
        "credibility",
        "pixels",
        "pixelization",
    ])?;
    args.assert_no_positionals()?;
    let models = load_models(&args.get_or("models", "models.json"))?;
    let fluence: f64 = args.get_parse_or("fluence", 1.0)?;
    let angle: f64 = args.get_parse_or("angle", 0.0)?;
    let seed: u64 = args.get_parse_or("seed", 42)?;
    let credibility: f64 = args.get_parse_or("credibility", 0.9)?;
    let pixels: usize = args.get_parse_or("pixels", 3000)?;
    if !(0.0..=1.0).contains(&credibility) {
        return Err("credibility must be in [0, 1]".into());
    }
    let grb = GrbConfig::new(fluence, angle);
    let pipeline = Pipeline::new(&models);
    let (rings, _) = pipeline.simulate_rings(&grb, PerturbationConfig::default(), seed);
    if rings.is_empty() {
        return Err("no rings reconstructed from this burst".into());
    }
    let pixelization = parse_pixelization(args, SkyPixelization::Healpix)?;
    let map = SkyPosterior::from_rings_adaptive(pixelization, &rings, pixels, 3.0);
    let mode_dir = map.mode();
    println!(
        "{} sky map over {} pixels from {} rings",
        map.pixelization().name(),
        map.len(),
        rings.len()
    );
    println!(
        "posterior mode: polar {:.1} deg, azimuth {:.1} deg (truth: polar {angle} deg, azimuth 0)",
        adapt_math::angles::polar_angle_deg(mode_dir),
        mode_dir.azimuth().to_degrees()
    );
    println!(
        "{:.0}% credible region: {:.4} sr (disc-equivalent radius {:.2} deg)",
        credibility * 100.0,
        map.credible_region_sr(credibility),
        map.credible_radius_deg(credibility)
    );
    Ok(())
}

/// `adapt runs` — list/show/diff tracked training runs.
pub fn runs(args: &Args) -> Result<(), String> {
    args.assert_known(&["runs-dir"])?;
    let root = args.get_or("runs-dir", "artifacts/runs");
    match args.positional(0) {
        Some("list") | None => runs_list(Path::new(&root)),
        Some("show") => {
            let id = args
                .positional(1)
                .ok_or("usage: adapt runs show <run-id>")?;
            runs_show(Path::new(&root), id)
        }
        Some("diff") => {
            let (a, b) = match (args.positional(1), args.positional(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err("usage: adapt runs diff <run-id-a> <run-id-b>".into()),
            };
            runs_diff(Path::new(&root), a, b)
        }
        Some(other) => Err(format!("unknown runs action '{other}' (list|show|diff)")),
    }
}

fn runs_list(root: &Path) -> Result<(), String> {
    let manifests = adapt_telemetry::list_runs(root);
    if manifests.is_empty() {
        println!("no tracked runs under {}", root.display());
        return Ok(());
    }
    println!(
        "{:<34} {:<8} {:<10} {:>7} {:>14} {:>10}",
        "Run", "Kind", "Outcome", "Epochs", "Best val loss", "Wall (ms)"
    );
    for m in &manifests {
        println!(
            "{:<34} {:<8} {:<10} {:>7} {:>14.5} {:>10.0}",
            m.run_id,
            m.kind,
            if m.completed() {
                "completed"
            } else {
                "aborted"
            },
            m.epochs,
            m.best_val_loss,
            m.wall_ms
        );
    }
    Ok(())
}

fn runs_show(root: &Path, id: &str) -> Result<(), String> {
    let dir = root.join(id);
    let manifest = adapt_telemetry::load_manifest(&dir)
        .map_err(|e| format!("cannot load run '{id}' from {}: {e}", root.display()))?;
    println!("run {} ({})", manifest.run_id, manifest.kind);
    println!("  outcome:             {}", manifest.outcome);
    println!("  data seed:           {}", manifest.data_seed);
    println!("  epochs:              {}", manifest.epochs);
    println!("  best val loss:       {:.6}", manifest.best_val_loss);
    println!("  wall time:           {:.0} ms", manifest.wall_ms);
    println!("  feature schema hash: {}", manifest.feature_schema_hash);
    println!("  weight checksum:     {}", manifest.weight_checksum);
    println!(
        "  host:                {} / {} ({} threads)",
        manifest.host.os, manifest.host.arch, manifest.host.threads
    );
    println!("  config:              {}", manifest.config);
    let text = std::fs::read_to_string(dir.join("epochs.ndjson"))
        .map_err(|e| format!("cannot read run stream: {e}"))?;
    let summary = adapt_telemetry::validate_run(&text)
        .map_err(|e| format!("run stream fails schema validation: {e}"))?;
    println!(
        "  stream:              {} epoch records across {} model(s), {} search trial(s)",
        summary.n_epochs,
        summary.models.len(),
        summary.n_search_trials
    );
    for (model, loss) in summary.models.iter().zip(&summary.final_val_losses) {
        println!("    {model}: final val loss {loss:.6}");
    }
    if let Some(reason) = &summary.aborted {
        println!("  aborted:             {reason}");
    }
    Ok(())
}

fn runs_diff(root: &Path, a: &str, b: &str) -> Result<(), String> {
    let ma = adapt_telemetry::load_manifest(&root.join(a))
        .map_err(|e| format!("cannot load run '{a}': {e}"))?;
    let mb = adapt_telemetry::load_manifest(&root.join(b))
        .map_err(|e| format!("cannot load run '{b}': {e}"))?;
    print!("{}", adapt_telemetry::diff_manifests(&ma, &mb));
    Ok(())
}

/// `adapt report`
pub fn report(args: &Args) -> Result<(), String> {
    args.assert_known(&["models"])?;
    args.assert_no_positionals()?;
    let models = load_models(&args.get_or("models", "models.json"))?;
    println!(
        "validation losses: background BCE {:.4}, dEta MSE {:.4}",
        models.val_losses.0, models.val_losses.1
    );
    print!("per-polar-bin thresholds:");
    for t in models.thresholds.as_slice() {
        print!(" {t:.2}");
    }
    println!();
    for angle in [0.0, 40.0, 80.0] {
        let acc = adapt_core::training::background_accuracy_at(&models, angle, 0xC11);
        println!("background accuracy on fresh burst @ {angle:>2.0} deg: {acc:.3}");
    }
    println!(
        "quantized model: {} bytes, {} MACs/inference",
        models.quantized_background.model_bytes(),
        models.quantized_background.total_macs()
    );
    Ok(())
}
