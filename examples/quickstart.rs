//! Quickstart: train the two networks on a small simulated campaign, then
//! localize one gamma-ray burst with and without ML.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use adapt_core::prelude::*;

fn main() {
    // 1. Train the background and dEta networks on a simulated campaign.
    //    `fast()` keeps this to a few seconds; use `default()` for the
    //    full-scale campaign the benchmarks use.
    println!("training models on a fast simulated campaign...");
    let models = train_models(&TrainingCampaignConfig::fast(), 7);
    println!(
        "  background val loss {:.3}, dEta val loss {:.3}",
        models.val_losses.0, models.val_losses.1
    );

    // 2. A 1 MeV/cm^2 short GRB arriving 20 degrees off zenith.
    let grb = GrbConfig::new(1.0, 20.0);
    let pipeline = Pipeline::new(&models);

    // 3. Localize the same burst with the prior pipeline and with ML.
    for mode in [PipelineMode::Baseline, PipelineMode::Ml] {
        let outcome = pipeline.run_trial(mode, &grb, PerturbationConfig::default(), 42);
        println!(
            "{:<28} error {:>6.2} deg | {:>4} rings in, {:>4} surviving | {:>6.1} ms",
            mode.label(),
            outcome.error_deg,
            outcome.rings_in,
            outcome.rings_surviving,
            outcome.total.as_secs_f64() * 1e3,
        );
    }
}
