//! Training-run tracking: the WandB substitute.
//!
//! The paper trained its networks under WandB sweeps; the reproduction's
//! DESIGN substitution replaced that with nothing, so training ran blind
//! and a saved model could never be traced back to the run that produced
//! it. [`RunTracker`] closes both gaps:
//!
//! * **per-epoch streaming** — schema-versioned NDJSON
//!   (`epochs.ndjson`) with train/val loss, the objective metric,
//!   gradient norm, learning rate, and wall time per epoch, one run
//!   directory per run under `artifacts/runs/<run-id>/`;
//! * **watchdogs** — NaN/inf and loss-divergence detection that aborts
//!   a run early and records *why* (the abort reason lands in both the
//!   NDJSON stream and the manifest);
//! * **provenance** — a [`RunManifest`] (hyperparameter config, data
//!   seed, feature-schema hash, weight checksum, host info, outcome)
//!   written atomically at the end of the run, whose FNV-1a hash can be
//!   embedded into saved model artifacts;
//! * **search leaderboards** — random-search trials stream one record
//!   per trial plus a final `leaderboard.json`.
//!
//! [`validate_run`] is the schema validator consumed by `adapt runs
//! show` and the CI gate; [`diff_manifests`] renders the config and
//! metric deltas between two runs.

use crate::codec;
use serde::{Deserialize, Serialize, Value};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Current run-NDJSON and manifest schema version.
pub const RUN_SCHEMA: u32 = 1;

/// One epoch of one model's training, as streamed into `epochs.ndjson`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index, 0-based.
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Validation loss at epoch end.
    pub val_loss: f64,
    /// The objective metric the run optimizes (equals `val_loss` for
    /// plain loss objectives; accuracy-like metrics go here when a
    /// caller computes them).
    pub metric: f64,
    /// Mean L2 norm of the parameter gradient over the epoch's batches
    /// (0 when the caller does not compute it).
    pub grad_norm: f64,
    /// Learning rate in effect this epoch.
    pub learning_rate: f64,
    /// Wall-clock time of the epoch (ms).
    pub wall_ms: f64,
}

/// Why a watchdog aborted a run.
#[derive(Debug, Clone, PartialEq)]
pub enum AbortReason {
    /// A streamed value was NaN or infinite.
    NonFinite {
        /// Epoch at which the value appeared.
        epoch: usize,
        /// Which field was non-finite (`train_loss`, `val_loss`,
        /// `grad_norm`).
        field: &'static str,
    },
    /// Validation loss diverged: it exceeded `factor` x the best loss
    /// seen so far.
    Divergence {
        /// Epoch at which divergence was detected.
        epoch: usize,
        /// The diverged validation loss.
        val_loss: f64,
        /// The best validation loss seen before divergence.
        best_val_loss: f64,
    },
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::NonFinite { epoch, field } => {
                write!(f, "non-finite {field} at epoch {epoch}")
            }
            AbortReason::Divergence {
                epoch,
                val_loss,
                best_val_loss,
            } => write!(
                f,
                "loss divergence at epoch {epoch}: val loss {val_loss:.4e} vs best {best_val_loss:.4e}"
            ),
        }
    }
}

/// Watchdog thresholds.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Abort when validation loss exceeds this multiple of the best
    /// validation loss seen so far.
    pub divergence_factor: f64,
    /// Epochs to wait before the divergence rule arms (the first epochs
    /// of a cold-started model are legitimately noisy).
    pub grace_epochs: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            divergence_factor: 10.0,
            grace_epochs: 3,
        }
    }
}

/// The NaN/inf and loss-divergence watchdog. Feed it every epoch; it
/// answers with the first reason to abort, if any.
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    best_val: f64,
    epochs_seen: usize,
}

impl Watchdog {
    /// A fresh watchdog.
    pub fn new(config: WatchdogConfig) -> Self {
        Watchdog {
            config,
            best_val: f64::INFINITY,
            epochs_seen: 0,
        }
    }

    /// Reset per-model state (best loss, grace counter) while keeping
    /// the thresholds — call between models of a multi-model run.
    pub fn reset(&mut self) {
        self.best_val = f64::INFINITY;
        self.epochs_seen = 0;
    }

    /// Observe one epoch; `Some` means the run must abort.
    pub fn observe(&mut self, r: &EpochRecord) -> Option<AbortReason> {
        for (field, v) in [
            ("train_loss", r.train_loss),
            ("val_loss", r.val_loss),
            ("grad_norm", r.grad_norm),
        ] {
            if !v.is_finite() {
                return Some(AbortReason::NonFinite {
                    epoch: r.epoch,
                    field,
                });
            }
        }
        self.epochs_seen += 1;
        if r.val_loss < self.best_val {
            self.best_val = r.val_loss;
        } else if self.epochs_seen > self.config.grace_epochs
            && self.best_val.is_finite()
            && r.val_loss > self.config.divergence_factor * self.best_val.abs().max(1e-12)
        {
            return Some(AbortReason::Divergence {
                epoch: r.epoch,
                val_loss: r.val_loss,
                best_val_loss: self.best_val,
            });
        }
        None
    }
}

/// Host fingerprint recorded in every manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism (0 when unknown).
    pub threads: u64,
}

impl HostInfo {
    /// The current host.
    pub fn current() -> Self {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
        }
    }
}

/// The provenance record of one run, written atomically as
/// `manifest.json` when the run finishes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest schema version ([`RUN_SCHEMA`]).
    pub schema: u32,
    /// The run's unique id (also its directory name).
    pub run_id: String,
    /// Run kind: `train` or `search`.
    pub kind: String,
    /// Hyperparameter configuration, as JSON text.
    pub config: String,
    /// Seed of the data-generation campaign.
    pub data_seed: u64,
    /// FNV-1a hash of the feature schema the model was trained against.
    pub feature_schema_hash: String,
    /// FNV-1a hash of the final serialized weights.
    pub weight_checksum: String,
    /// Host the run executed on.
    pub host: HostInfo,
    /// `completed`, or `aborted: <reason>` when a watchdog fired.
    pub outcome: String,
    /// Total epochs streamed (across all models of the run).
    pub epochs: u64,
    /// Best validation loss seen across the run.
    pub best_val_loss: f64,
    /// Run wall time (ms).
    pub wall_ms: f64,
}

impl RunManifest {
    /// Whether the run completed without a watchdog abort.
    pub fn completed(&self) -> bool {
        self.outcome == "completed"
    }
}

/// Caller-supplied provenance for [`RunTracker::finish`]: the fields the
/// tracker cannot derive itself.
#[derive(Debug, Clone, Default)]
pub struct ManifestDraft {
    /// Hyperparameter configuration as JSON text.
    pub config: String,
    /// Data-campaign seed.
    pub data_seed: u64,
    /// Feature-schema hash (see [`fnv1a_hex`]).
    pub feature_schema_hash: String,
    /// Weight checksum (see [`fnv1a_hex`]).
    pub weight_checksum: String,
}

/// FNV-1a (64-bit) of a byte string, as fixed-width hex — the checksum
/// used for feature schemas, weights, and manifests.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

struct TrackerInner {
    writer: BufWriter<File>,
    watchdog: Watchdog,
    model: String,
    epochs: u64,
    best_val: f64,
    abort: Option<String>,
    leaderboard: Vec<(String, f64)>,
}

/// The streaming run tracker: one instance per training or search run.
///
/// All methods take `&self` (the writer sits behind a mutex), so one
/// tracker can be threaded through training code that only holds shared
/// references. Epoch records are written as they arrive — a crashed run
/// still leaves its full epoch history on disk.
pub struct RunTracker {
    dir: PathBuf,
    run_id: String,
    kind: String,
    started: Instant,
    inner: Mutex<TrackerInner>,
}

/// The stream's `meta` line.
#[derive(Default, Serialize, Deserialize)]
struct RunMeta {
    schema: u64,
    #[serde(default)]
    tool: String,
    run_id: String,
    kind: String,
    data_seed: u64,
}

/// Prefix of epoch and abort lines: the model being trained.
#[derive(Default, Serialize, Deserialize)]
struct Model {
    model: String,
}

/// Body of an `abort` line.
#[derive(Default, Serialize, Deserialize)]
struct Abort {
    epoch: u64,
    reason: String,
}

/// A `search_trial` line.
#[derive(Default, Serialize, Deserialize)]
struct SearchTrial {
    trial: u64,
    /// The trial's configuration as JSON (a string when it was not JSON).
    config: Option<Value>,
    val_loss: f64,
}

/// Run-stream fields that may be `null`: a non-finite value is legal
/// only because the watchdog abort line that follows records why.
const NULLABLE_LOSSES: &[&str] = &[
    "train_loss",
    "val_loss",
    "metric",
    "grad_norm",
    "learning_rate",
    "wall_ms",
];

/// One row of `leaderboard.json`.
#[derive(Serialize)]
struct LeaderboardRow {
    rank: u64,
    config: Value,
    val_loss: f64,
}

/// `text` parsed as JSON, or kept as a JSON string when it is not JSON.
fn config_value(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|_| Value::Str(text.to_string()))
}

impl RunTracker {
    /// Create `root/<run-id>/` and open its epoch stream. The run id is
    /// `<kind>-<seed hex>-<unix millis>`: collision-free in practice and
    /// sortable by start time.
    pub fn create(root: &Path, kind: &str, data_seed: u64) -> io::Result<RunTracker> {
        let millis = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let run_id = format!("{kind}-{data_seed:04x}-{millis}");
        Self::create_named(root, kind, data_seed, &run_id)
    }

    /// As [`create`](Self::create) with an explicit run id (tests and
    /// deterministic drivers).
    pub fn create_named(
        root: &Path,
        kind: &str,
        data_seed: u64,
        run_id: &str,
    ) -> io::Result<RunTracker> {
        let dir = root.join(run_id);
        fs::create_dir_all(&dir)?;
        let file = File::create(dir.join("epochs.ndjson"))?;
        let mut writer = BufWriter::new(file);
        let meta = RunMeta {
            schema: RUN_SCHEMA as u64,
            tool: "adapt-run-tracker".into(),
            run_id: run_id.into(),
            kind: kind.into(),
            data_seed,
        };
        writeln!(writer, "{}", codec::line("meta", &[&meta]))?;
        writer.flush()?;
        Ok(RunTracker {
            dir,
            run_id: run_id.to_string(),
            kind: kind.to_string(),
            started: Instant::now(),
            inner: Mutex::new(TrackerInner {
                writer,
                watchdog: Watchdog::new(WatchdogConfig::default()),
                model: String::new(),
                epochs: 0,
                best_val: f64::INFINITY,
                abort: None,
                leaderboard: Vec::new(),
            }),
        })
    }

    /// This run's id.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// This run's directory (`root/<run-id>/`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Set the model label attached to subsequent epoch records, and
    /// reset the watchdog's per-model state.
    pub fn begin_model(&self, name: &str) {
        let mut inner = self.inner.lock().unwrap();
        inner.model = name.to_string();
        inner.watchdog.reset();
    }

    /// Stream one epoch record. Returns the abort reason when a watchdog
    /// fired — the caller must stop training the current model.
    pub fn log_epoch(&self, r: &EpochRecord) -> Option<String> {
        let mut inner = self.inner.lock().unwrap();
        let model = Model {
            model: inner.model.clone(),
        };
        let _ = writeln!(inner.writer, "{}", codec::line("epoch", &[&model, r]));
        inner.epochs += 1;
        if r.val_loss.is_finite() && r.val_loss < inner.best_val {
            inner.best_val = r.val_loss;
        }
        if let Some(reason) = inner.watchdog.observe(r) {
            let reason_text = reason.to_string();
            let abort = Abort {
                epoch: r.epoch as u64,
                reason: reason_text.clone(),
            };
            let _ = writeln!(inner.writer, "{}", codec::line("abort", &[&model, &abort]));
            let _ = inner.writer.flush();
            inner.abort = Some(reason_text.clone());
            return Some(reason_text);
        }
        None
    }

    /// Stream one hyperparameter-search trial (config as JSON text).
    pub fn log_search_trial(&self, index: usize, config_json: &str, val_loss: f64) {
        let mut inner = self.inner.lock().unwrap();
        let config = config_value(config_json);
        let config_text = serde_json::to_string(&config).unwrap();
        let trial = SearchTrial {
            trial: index as u64,
            config: Some(config),
            val_loss,
        };
        let _ = writeln!(inner.writer, "{}", codec::line("search_trial", &[&trial]));
        if val_loss.is_finite() && val_loss < inner.best_val {
            inner.best_val = val_loss;
        }
        inner.leaderboard.push((config_text, val_loss));
    }

    /// Whether a watchdog has aborted this run, and why.
    pub fn abort_reason(&self) -> Option<String> {
        self.inner.lock().unwrap().abort.clone()
    }

    /// Finish the run: write `leaderboard.json` (when trials were
    /// streamed) and the atomic `manifest.json`. Returns the manifest and
    /// the FNV-1a hash of its serialized form — the handle model
    /// artifacts embed.
    pub fn finish(&self, draft: ManifestDraft) -> io::Result<(RunManifest, String)> {
        let mut inner = self.inner.lock().unwrap();
        inner.writer.flush()?;
        if !inner.leaderboard.is_empty() {
            let mut board = inner.leaderboard.clone();
            board.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let rows: Vec<LeaderboardRow> = board
                .iter()
                .enumerate()
                .map(|(rank, (cfg, loss))| LeaderboardRow {
                    rank: rank as u64 + 1,
                    config: config_value(cfg),
                    val_loss: *loss,
                })
                .collect();
            write_atomic(
                &self.dir.join("leaderboard.json"),
                &serde_json::to_string(&rows).unwrap(),
            )?;
        }
        let manifest = RunManifest {
            schema: RUN_SCHEMA,
            run_id: self.run_id.clone(),
            kind: self.kind.clone(),
            config: draft.config,
            data_seed: draft.data_seed,
            feature_schema_hash: draft.feature_schema_hash,
            weight_checksum: draft.weight_checksum,
            host: HostInfo::current(),
            outcome: match &inner.abort {
                Some(reason) => format!("aborted: {reason}"),
                None => "completed".to_string(),
            },
            epochs: inner.epochs,
            best_val_loss: inner.best_val,
            wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
        };
        let text = serde_json::to_string(&manifest).expect("manifest serialization");
        write_atomic(&self.dir.join("manifest.json"), &text)?;
        let hash = fnv1a_hex(text.as_bytes());
        Ok((manifest, hash))
    }
}

/// Write `text` to `path` atomically: write a sibling temp file, flush,
/// then rename over the target. A crash mid-write leaves either the old
/// file or nothing — never a torn manifest.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// What a validated run capture contains.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Schema version from the meta line.
    pub schema: u64,
    /// Run id from the meta line.
    pub run_id: String,
    /// Run kind from the meta line.
    pub kind: String,
    /// Epoch records seen.
    pub n_epochs: usize,
    /// Search-trial records seen.
    pub n_search_trials: usize,
    /// Distinct model labels, in first-seen order.
    pub models: Vec<String>,
    /// Last validation loss per model, in [`models`](Self::models) order.
    pub final_val_losses: Vec<f64>,
    /// Abort reason, when a watchdog fired.
    pub aborted: Option<String>,
}

/// Validate a run's `epochs.ndjson` text. Checks the meta line, field
/// types, per-model epoch ordering, and abort-line structure; returns a
/// [`RunSummary`] on success, a line-located error on the first
/// violation.
pub fn validate_run(text: &str) -> Result<RunSummary, String> {
    let mut summary = RunSummary::default();
    let mut saw_meta = false;
    // (model, last epoch) pairs for ordering checks
    let mut last_epoch: Vec<(String, usize)> = Vec::new();
    for line in codec::lines(text) {
        let line = line?;
        let lineno = line.lineno;
        if !saw_meta {
            if line.ty != "meta" {
                return Err(format!(
                    "line {lineno}: first line must be `meta`, got `{}`",
                    line.ty
                ));
            }
            let meta: RunMeta = line.read()?;
            if meta.schema == 0 || meta.schema > RUN_SCHEMA as u64 {
                return Err(format!(
                    "line {lineno}: unsupported run schema {} (this build reads <= {RUN_SCHEMA})",
                    meta.schema
                ));
            }
            summary.schema = meta.schema;
            summary.run_id = meta.run_id;
            summary.kind = meta.kind;
            saw_meta = true;
            continue;
        }
        match line.ty.as_str() {
            "meta" => return Err(format!("line {lineno}: duplicate `meta` line")),
            "epoch" => {
                let model = line.read::<Model>()?.model;
                let r: EpochRecord = line.read_nullable(NULLABLE_LOSSES)?;
                let lr = r.learning_rate;
                if lr.is_finite() && lr <= 0.0 {
                    return Err(format!("line {lineno}: learning_rate {lr} must be > 0"));
                }
                match last_epoch.iter_mut().find(|(m, _)| *m == model) {
                    Some((_, last)) => {
                        if r.epoch <= *last {
                            return Err(format!(
                                "line {lineno}: out-of-order epoch {} for model `{model}` \
                                 (previous {last})",
                                r.epoch
                            ));
                        }
                        *last = r.epoch;
                    }
                    None => last_epoch.push((model.clone(), r.epoch)),
                }
                match summary.models.iter().position(|m| *m == model) {
                    Some(idx) => summary.final_val_losses[idx] = r.val_loss,
                    None => {
                        summary.models.push(model);
                        summary.final_val_losses.push(r.val_loss);
                    }
                }
                summary.n_epochs += 1;
            }
            "abort" => {
                line.read::<Model>()?;
                let abort: Abort = line.read()?;
                if summary.aborted.is_some() {
                    return Err(format!("line {lineno}: duplicate `abort` line"));
                }
                summary.aborted = Some(abort.reason);
            }
            "search_trial" => {
                line.read_nullable::<SearchTrial>(&["val_loss"])?;
                summary.n_search_trials += 1;
            }
            other => return Err(format!("line {lineno}: unknown line type `{other}`")),
        }
    }
    if !saw_meta {
        return Err("empty run capture: no `meta` line".into());
    }
    Ok(summary)
}

/// Load a run's manifest from its directory.
pub fn load_manifest(run_dir: &Path) -> Result<RunManifest, String> {
    let path = run_dir.join("manifest.json");
    let text = fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let manifest: RunManifest =
        serde_json::from_str(&text).map_err(|e| format!("corrupt manifest {path:?}: {e}"))?;
    if manifest.schema == 0 || manifest.schema > RUN_SCHEMA {
        return Err(format!(
            "unsupported manifest schema {} in {path:?} (this build reads <= {RUN_SCHEMA})",
            manifest.schema
        ));
    }
    Ok(manifest)
}

/// All manifests under a runs root, sorted by run id (run ids embed the
/// start time, so this is chronological). Directories without a readable
/// manifest (e.g. in-flight runs) are skipped.
pub fn list_runs(root: &Path) -> Vec<RunManifest> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(root) else {
        return out;
    };
    for entry in entries.flatten() {
        if entry.path().is_dir() {
            if let Ok(m) = load_manifest(&entry.path()) {
                out.push(m);
            }
        }
    }
    out.sort_by(|a, b| a.run_id.cmp(&b.run_id));
    out
}

fn flatten_config(prefix: &str, v: &Value, out: &mut Vec<(String, String)>) {
    match v {
        Value::Obj(pairs) => {
            for (k, inner) in pairs {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_config(&key, inner, out);
            }
        }
        other => out.push((
            prefix.to_string(),
            serde_json::to_string(other).unwrap_or_default(),
        )),
    }
}

/// Render the differences between two manifests: every config key whose
/// value differs, plus metric deltas — the `adapt runs diff` output.
pub fn diff_manifests(a: &RunManifest, b: &RunManifest) -> String {
    let mut out = String::new();
    out.push_str(&format!("--- {}\n+++ {}\n", a.run_id, b.run_id));
    let parse = |m: &RunManifest| -> Vec<(String, String)> {
        let mut flat = Vec::new();
        if let Ok(v) = serde_json::from_str::<Value>(&m.config) {
            flatten_config("", &v, &mut flat);
        } else {
            flat.push(("config".to_string(), m.config.clone()));
        }
        flat
    };
    let fa = parse(a);
    let fb = parse(b);
    let mut keys: Vec<&String> = fa.iter().chain(fb.iter()).map(|(k, _)| k).collect();
    keys.sort();
    keys.dedup();
    let mut config_diffs = 0;
    for key in keys {
        let va = fa.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        let vb = fb.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        if va != vb {
            out.push_str(&format!(
                "config {key}: {} -> {}\n",
                va.unwrap_or("(absent)"),
                vb.unwrap_or("(absent)")
            ));
            config_diffs += 1;
        }
    }
    if config_diffs == 0 {
        out.push_str("config: identical\n");
    }
    for (label, x, y) in [
        ("data_seed", a.data_seed as f64, b.data_seed as f64),
        ("epochs", a.epochs as f64, b.epochs as f64),
        ("best_val_loss", a.best_val_loss, b.best_val_loss),
        ("wall_ms", a.wall_ms, b.wall_ms),
    ] {
        if x == y {
            out.push_str(&format!("{label}: {x:.6} (unchanged)\n"));
        } else {
            out.push_str(&format!("{label}: {x:.6} -> {y:.6} ({:+.6})\n", y - x));
        }
    }
    if a.outcome != b.outcome {
        out.push_str(&format!("outcome: {} -> {}\n", a.outcome, b.outcome));
    }
    if a.feature_schema_hash != b.feature_schema_hash {
        out.push_str(&format!(
            "feature_schema_hash: {} -> {} (feature schema changed!)\n",
            a.feature_schema_hash, b.feature_schema_hash
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adapt_run_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn epoch(e: usize, train: f64, val: f64) -> EpochRecord {
        EpochRecord {
            epoch: e,
            train_loss: train,
            val_loss: val,
            metric: val,
            grad_norm: 1.0,
            learning_rate: 1e-3,
            wall_ms: 5.0,
        }
    }

    #[test]
    fn tracked_run_round_trips_and_validates() {
        let root = tmp_root("round_trip");
        let tracker = RunTracker::create_named(&root, "train", 7, "train-0007-1").unwrap();
        tracker.begin_model("background");
        for e in 0..4 {
            assert!(tracker
                .log_epoch(&epoch(e, 0.7 - e as f64 * 0.1, 0.8 - e as f64 * 0.1))
                .is_none());
        }
        tracker.begin_model("d_eta");
        assert!(tracker.log_epoch(&epoch(0, 0.5, 0.6)).is_none());
        let (manifest, hash) = tracker
            .finish(ManifestDraft {
                config: "{\"lr\":0.001}".into(),
                data_seed: 7,
                feature_schema_hash: fnv1a_hex(b"features"),
                weight_checksum: fnv1a_hex(b"weights"),
            })
            .unwrap();
        assert!(manifest.completed());
        assert_eq!(manifest.epochs, 5);
        assert!((manifest.best_val_loss - 0.5).abs() < 1e-12);
        assert_eq!(hash.len(), 16);

        let text = fs::read_to_string(tracker.dir().join("epochs.ndjson")).unwrap();
        let summary = validate_run(&text).expect("stream must validate");
        assert_eq!(summary.run_id, "train-0007-1");
        assert_eq!(summary.n_epochs, 5);
        assert_eq!(
            summary.models,
            vec!["background".to_string(), "d_eta".to_string()]
        );
        assert!(summary.aborted.is_none());

        let loaded = load_manifest(tracker.dir()).unwrap();
        assert_eq!(loaded.run_id, manifest.run_id);
        assert_eq!(loaded.weight_checksum, manifest.weight_checksum);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_nan_aborts_with_recorded_reason() {
        let root = tmp_root("nan");
        let tracker = RunTracker::create_named(&root, "train", 1, "train-0001-1").unwrap();
        tracker.begin_model("background");
        assert!(tracker.log_epoch(&epoch(0, 0.7, 0.8)).is_none());
        let verdict = tracker.log_epoch(&epoch(1, f64::NAN, 0.7));
        let reason = verdict.expect("NaN must abort");
        assert!(
            reason.contains("non-finite train_loss at epoch 1"),
            "{reason}"
        );
        let (manifest, _) = tracker.finish(ManifestDraft::default()).unwrap();
        assert!(!manifest.completed());
        assert!(
            manifest.outcome.contains("non-finite"),
            "{}",
            manifest.outcome
        );
        // the abort reason also lands in the NDJSON stream
        let text = fs::read_to_string(tracker.dir().join("epochs.ndjson")).unwrap();
        let summary = validate_run(&text).unwrap();
        assert!(summary.aborted.unwrap().contains("non-finite"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn divergence_watchdog_fires_after_grace() {
        let mut wd = Watchdog::new(WatchdogConfig {
            divergence_factor: 10.0,
            grace_epochs: 2,
        });
        assert!(wd.observe(&epoch(0, 0.5, 0.5)).is_none());
        assert!(wd.observe(&epoch(1, 0.4, 0.4)).is_none());
        // within grace: a spike is tolerated
        assert!(wd.observe(&epoch(2, 0.4, 3.0)).is_none());
        let fired = wd.observe(&epoch(3, 0.4, 50.0));
        match fired {
            Some(AbortReason::Divergence { epoch, .. }) => assert_eq!(epoch, 3),
            other => panic!("expected divergence, got {other:?}"),
        }
        // reset clears per-model state
        wd.reset();
        assert!(wd.observe(&epoch(0, 1.0, 1.0)).is_none());
    }

    #[test]
    fn search_trials_stream_and_build_a_leaderboard() {
        let root = tmp_root("search");
        let tracker = RunTracker::create_named(&root, "search", 3, "search-0003-1").unwrap();
        tracker.log_search_trial(0, "{\"lr\":0.1}", 0.9);
        tracker.log_search_trial(1, "{\"lr\":0.01}", 0.3);
        tracker.log_search_trial(2, "{\"lr\":0.001}", 0.5);
        let (manifest, _) = tracker.finish(ManifestDraft::default()).unwrap();
        assert!((manifest.best_val_loss - 0.3).abs() < 1e-12);
        let text = fs::read_to_string(tracker.dir().join("epochs.ndjson")).unwrap();
        let summary = validate_run(&text).unwrap();
        assert_eq!(summary.n_search_trials, 3);
        // leaderboard sorted best-first
        let board = fs::read_to_string(tracker.dir().join("leaderboard.json")).unwrap();
        let v: Value = serde_json::from_str(&board).unwrap();
        let rows = v.as_arr().unwrap();
        assert_eq!(rows.len(), 3);
        let first_loss = match rows[0].get("val_loss").unwrap() {
            Value::Float(x) => *x,
            other => panic!("{other:?}"),
        };
        assert!((first_loss - 0.3).abs() < 1e-12);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        assert!(validate_run("").is_err(), "empty");
        let meta = format!(
            "{{\"type\":\"meta\",\"schema\":{RUN_SCHEMA},\"run_id\":\"r\",\"kind\":\"train\",\"data_seed\":1}}"
        );
        assert!(validate_run(&meta).is_ok(), "meta alone");
        // future schema
        assert!(validate_run(
            "{\"type\":\"meta\",\"schema\":99,\"run_id\":\"r\",\"kind\":\"t\",\"data_seed\":1}"
        )
        .is_err());
        // out-of-order epoch
        let epoch_line = |e: u64| {
            format!(
                "{{\"type\":\"epoch\",\"model\":\"m\",\"epoch\":{e},\"train_loss\":0.5,\
                 \"val_loss\":0.5,\"metric\":0.5,\"grad_norm\":1.0,\"learning_rate\":0.001,\
                 \"wall_ms\":1.0}}"
            )
        };
        let ordered = format!("{meta}\n{}\n{}", epoch_line(0), epoch_line(1));
        assert!(validate_run(&ordered).is_ok());
        let unordered = format!("{meta}\n{}\n{}", epoch_line(1), epoch_line(1));
        assert!(validate_run(&unordered).is_err(), "repeated epoch");
        // truncated line
        let truncated = format!("{meta}\n{}", &epoch_line(0)[..40]);
        assert!(validate_run(&truncated).is_err(), "truncated JSON");
    }

    #[test]
    fn diff_reports_config_and_metric_deltas() {
        let mk = |run_id: &str, lr: f64, best: f64| RunManifest {
            schema: RUN_SCHEMA,
            run_id: run_id.into(),
            kind: "train".into(),
            config: format!("{{\"lr\":{lr},\"batch\":64}}"),
            data_seed: 7,
            feature_schema_hash: "abc".into(),
            weight_checksum: "def".into(),
            host: HostInfo::current(),
            outcome: "completed".into(),
            epochs: 10,
            best_val_loss: best,
            wall_ms: 100.0,
        };
        let d = diff_manifests(&mk("a", 0.01, 0.5), &mk("b", 0.02, 0.4));
        assert!(d.contains("config lr"), "{d}");
        assert!(!d.contains("config batch"), "{d}");
        assert!(d.contains("best_val_loss"), "{d}");
        let same = diff_manifests(&mk("a", 0.01, 0.5), &mk("b", 0.01, 0.5));
        assert!(same.contains("config: identical"), "{same}");
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let root = tmp_root("atomic");
        fs::create_dir_all(&root).unwrap();
        let path = root.join("manifest.json");
        write_atomic(&path, "{\"a\":1}").unwrap();
        write_atomic(&path, "{\"a\":2}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"a\":2}");
        assert!(!path.with_extension("json.tmp").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fnv_hash_is_stable_and_distinguishes() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_ne!(fnv1a_hex(b"a"), fnv1a_hex(b"b"));
        assert_eq!(fnv1a_hex(b"adapt"), fnv1a_hex(b"adapt"));
    }
}
