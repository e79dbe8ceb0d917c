//! On-board operation: a stream of candidate bursts must each be detected,
//! reconstructed, and localized within a real-time budget, with the option
//! of offloading background classification to the FPGA fabric.
//!
//! This example mirrors the mission scenario of the paper's introduction:
//! short GRBs are visible for seconds, the light-speed delay to the ground
//! exceeds the burst duration, so everything must finish on the platform.
//!
//! ```text
//! cargo run --release --example onboard_stream
//! ```

use adapt_core::prelude::*;
use adapt_fpga::{FpgaKernel, SynthesisConfig};
use adapt_localize::estimate_uncertainty;
use std::time::Instant;

fn main() {
    println!("training models (fast campaign)...");
    let models = train_models(&TrainingCampaignConfig::fast(), 5);
    let pipeline = Pipeline::new(&models);

    // FPGA kernel for the quantized background net (10 ns clock as in the
    // paper's conservative co-simulation)
    let kernel = FpgaKernel::new(&models.quantized_background, &SynthesisConfig::default());
    let report = kernel.report();
    println!(
        "FPGA kernel: II {} cycles, latency {} cycles, {:.2} ms per 597 rings @ 10 ns\n",
        report.ii_cycles,
        report.latency_cycles,
        report.batch_latency_ms(597, 10.0)
    );

    // a night's worth of triggers: bursts of varying brightness and angle
    let triggers = [
        (0.8, 10.0),
        (1.5, 45.0),
        (0.5, 70.0),
        (2.5, 0.0),
        (1.0, 30.0),
    ];
    let budget_ms = 1000.0; // the paper's "localize in under a second"

    let mut met = 0;
    for (i, &(fluence, angle)) in triggers.iter().enumerate() {
        let grb = GrbConfig::new(fluence, angle);
        let t0 = Instant::now();
        let outcome = pipeline.run_trial(
            PipelineMode::MlQuantized,
            &grb,
            PerturbationConfig::default(),
            1000 + i as u64,
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        // what the FPGA would charge for the background inferences instead
        let fpga_ms = report.batch_latency_ms(outcome.rings_in, 10.0);
        let ok = outcome.total.as_secs_f64() * 1e3 <= budget_ms;
        if ok {
            met += 1;
        }
        // the alert a real mission would downlink includes an on-board
        // error estimate alongside the direction
        let (rings, _) =
            pipeline.simulate_rings(&grb, PerturbationConfig::default(), 1000 + i as u64);
        let source = adapt_sim::GrbSource::new(&grb).direction;
        let onboard_sigma = estimate_uncertainty(&rings, source, 3.0)
            .map(|u| u.sigma_circular_deg())
            .unwrap_or(f64::NAN);
        println!(
            "trigger {i}: {fluence:.1} MeV/cm^2 @ {angle:>2.0} deg -> {:>6.2} deg error \
             (on-board 1-sigma estimate {onboard_sigma:.2} deg), pipeline {:>6.1} ms \
             (budget {}: {}), fpga bkg pass would cost {:.2} ms, wall {:.0} ms",
            outcome.error_deg,
            outcome.total.as_secs_f64() * 1e3,
            budget_ms,
            if ok { "met" } else { "MISSED" },
            fpga_ms,
            wall_ms,
        );
    }
    println!(
        "\n{met}/{} triggers localized within the {budget_ms} ms budget",
        triggers.len()
    );
}
