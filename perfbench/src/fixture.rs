//! The pinned model fixture and the environment stamp every result
//! carries.

use adapt_core::training::{TrainedModels, TrainingCampaignConfig};
use std::path::Path;

/// Training seed of the fixture: both commits of a comparison train the
/// same fast-scale weights from it.
pub const FIXTURE_SEED: u64 = 0xADA7;

/// Run id the fixture's training run is tracked under.
const FIXTURE_RUN_ID: &str = "perfbench-fixture";

/// FNV-1a checksum over the serialized weights, computed exactly as
/// training computes the one it embeds in `ModelProvenance`.
pub fn weight_checksum(models: &TrainedModels) -> String {
    let mut bytes = String::new();
    bytes.push_str(&models.background.to_json());
    bytes.push_str(&models.background_no_polar.to_json());
    bytes.push_str(&models.d_eta.to_json());
    bytes.push_str(&models.d_eta_no_polar.to_json());
    bytes.push_str(&models.background_linear_first.to_json());
    adapt_telemetry::fnv1a_hex(bytes.as_bytes())
}

/// Train the fast-scale fixture with provenance tracking and save it.
pub fn train(out: &Path) -> Result<String, String> {
    let dir = out
        .parent()
        .ok_or_else(|| format!("{} has no parent directory", out.display()))?;
    let tracker = adapt_telemetry::RunTracker::create_named(
        &dir.join("runs"),
        "train",
        FIXTURE_SEED,
        FIXTURE_RUN_ID,
    )
    .map_err(|e| format!("cannot create the fixture's run directory: {e}"))?;
    let models = adapt_core::train_models_tracked(
        &TrainingCampaignConfig::fast(),
        FIXTURE_SEED,
        Some(&tracker),
    );
    models
        .save(out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    verify(&models)
}

/// Load the cached fixture and check its weights against the checksum
/// its provenance records.
pub fn load(path: &Path) -> Result<(TrainedModels, String), String> {
    let models = TrainedModels::load(path).map_err(|e| e.to_string())?;
    let checksum = verify(&models)?;
    Ok((models, checksum))
}

fn verify(models: &TrainedModels) -> Result<String, String> {
    let provenance = models
        .provenance
        .as_ref()
        .ok_or("the model fixture carries no provenance; delete it to retrain")?;
    let actual = weight_checksum(models);
    if actual != provenance.weight_checksum || provenance.data_seed != FIXTURE_SEED {
        return Err(format!(
            "model fixture weights {actual} (seed {:#x}) do not match provenance {} \
             (seed {FIXTURE_SEED:#x}); delete the fixture to retrain",
            provenance.data_seed, provenance.weight_checksum
        ));
    }
    Ok(actual)
}

/// One line naming what was measured on what: weights, tree, CPU, the
/// kernel ISA the dispatcher picked, and the usable core count.
pub fn env_stamp(checksum: &str) -> String {
    let env = adapt_bench::EnvReport::capture();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "weights {checksum} | git {} | cpu {} | isa {} | nproc {nproc}",
        env.git_rev, env.cpu_model, env.kernel_isa
    )
}

/// The process's resident-set high-water mark (MB), from procfs.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
