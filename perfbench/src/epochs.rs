//! Epochs and the calls into each layer: stream replay through the
//! trigger, the four-rung ladder through `EpochLocalizer::localize_epoch`,
//! and the traced layer probe that times each layer's public function on
//! one epoch's inputs.

use crate::stats::{self, Span};
use adapt_ground::{GroundAlert, SubscriberPopulation};
use adapt_localize::{
    approximate, estimate_uncertainty, refine, ApproxConfig, BaselineLocalizer, InferenceWorkspace,
    LocalizerConfig, MlLocalizer, MlPipelineConfig, SkyPixelization, SkyPosterior,
};
use adapt_math::{angular_separation, deg_to_rad, polar_angle_deg, rad_to_deg, UnitVec3};
use adapt_nn::{CompiledMlp, CompiledQuantMlp, InferenceScratch, Matrix, QuantScratch};
use adapt_onboard::{
    epoch_rng_seed, DegradationLevel, EpochLocalizer, EpochOutcome, GrbAlert, OnlineTrigger,
    OnlineTriggerConfig, OpenEpoch,
};
use adapt_recon::{ComptonRing, Reconstructor, N_FEATURES_WITH_POLAR};
use adapt_sim::{StreamConfig, StreamingSource};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Containment probed by the sky-map rung and the uncertainty layer, as
/// `EpochLocalizer` uses them.
pub const COARSE_PIXELS: usize = 256;
pub const FLOOR_Z: f64 = 3.0;
/// Loop-iteration cap of the reduced-ml rung (the runtimes' default).
pub const REDUCED_ITERATIONS: usize = 2;

/// An alert matches an injected onset when its trigger time falls in
/// `[onset - 0.5 s, onset + TRUTH_WINDOW_S]` (`match_alerts_to_truth`).
pub const TRUTH_WINDOW_S: f64 = 10.0;

/// Direction of a burst injected at `polar_deg`, `azimuth_deg`.
pub fn burst_direction(polar_deg: f64, azimuth_deg: f64) -> UnitVec3 {
    UnitVec3::from_spherical(deg_to_rad(polar_deg), deg_to_rad(azimuth_deg))
}

/// The injected burst an epoch triggered on, if any.
pub fn truth_for(t_trigger_s: f64, bursts: &[(f64, UnitVec3)]) -> Option<UnitVec3> {
    bursts
        .iter()
        .find(|(onset, _)| t_trigger_s >= onset - 0.5 && t_trigger_s <= onset + TRUTH_WINDOW_S)
        .map(|&(_, dir)| dir)
}

/// An epoch ready for localization, with what is known about it.
#[derive(Clone)]
pub struct DeckEpoch {
    pub epoch: OpenEpoch,
    /// Per-epoch localizer RNG seed (`epoch_rng_seed`).
    pub rng_seed: u64,
    /// Injected direction, when the epoch triggered on a burst.
    pub truth: Option<UnitVec3>,
}

/// Per-event time spent in the source and the trigger during a replay.
#[derive(Default, Clone, Copy)]
pub struct IngestTiming {
    pub events: u64,
    pub sim_ns: u64,
    pub trigger_ns: u64,
    pub incident: u64,
}

impl IngestTiming {
    pub fn add(&mut self, other: IngestTiming) {
        self.events += other.events;
        self.sim_ns += other.sim_ns;
        self.trigger_ns += other.trigger_ns;
        self.incident += other.incident;
    }
}

/// Replay one stream through `StreamingSource::next` and
/// `OnlineTrigger::observe` on this thread, the way a ground lane and
/// the flight trigger thread feed it, and collect every epoch in trigger
/// order. With `timed`, each call is timed.
pub fn replay_stream(
    config: StreamConfig,
    source_seed: u64,
    trigger: &OnlineTriggerConfig,
    timed: bool,
) -> (Vec<OpenEpoch>, IngestTiming) {
    let mut source = StreamingSource::new(config, source_seed);
    let mut trigger = OnlineTrigger::new(trigger.clone());
    let mut epochs = Vec::new();
    let mut timing = IngestTiming::default();
    loop {
        let t0 = timed.then(Instant::now);
        let Some(ev) = source.next() else { break };
        let t1 = timed.then(Instant::now);
        let done = trigger.observe(&ev);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            timing.sim_ns += (t1 - t0).as_nanos() as u64;
            timing.trigger_ns += t1.elapsed().as_nanos() as u64;
        }
        timing.events += 1;
        if let Some(epoch) = done {
            epochs.push(epoch);
        }
    }
    if let Some(tail) = trigger.flush() {
        epochs.push(tail);
    }
    let stats = source.stats();
    timing.incident = stats.n_background_incident + stats.n_grb_incident;
    (epochs, timing)
}

/// Attach RNG seeds and truth to one stream's epochs.
pub fn deck_epochs(
    epochs: Vec<OpenEpoch>,
    localizer_seed: u64,
    bursts: &[(f64, UnitVec3)],
) -> Vec<DeckEpoch> {
    epochs
        .into_iter()
        .enumerate()
        .map(|(i, epoch)| DeckEpoch {
            truth: truth_for(epoch.t_trigger_s, bursts),
            rng_seed: epoch_rng_seed(localizer_seed, i as u64),
            epoch,
        })
        .collect()
}

/// The bit-exact content of an outcome, for run-to-run comparison.
pub type OutcomeKey = Option<(usize, [u64; 4], usize, usize)>;

pub fn outcome_key(outcome: &Option<EpochOutcome>) -> OutcomeKey {
    outcome.as_ref().map(|o| {
        let v = o.direction.as_vec();
        (
            o.level.slot(),
            [
                v.x.to_bits(),
                v.y.to_bits(),
                v.z.to_bits(),
                o.containment_radius_deg.to_bits(),
            ],
            o.rings,
            o.surviving_rings,
        )
    })
}

/// One timed `localize_epoch` call.
pub struct RungResult {
    pub ms: f64,
    pub outcome: Option<EpochOutcome>,
}

pub fn localize_timed(
    localizer: &EpochLocalizer,
    e: &DeckEpoch,
    level: DegradationLevel,
    ws: &mut InferenceWorkspace,
) -> RungResult {
    let mut rng = ChaCha8Rng::seed_from_u64(e.rng_seed);
    let t0 = Instant::now();
    let outcome = localizer.localize_epoch(&e.epoch, level, &mut rng, ws);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    RungResult {
        ms,
        outcome: std::hint::black_box(outcome),
    }
}

/// Angle from an outcome to the truth, and whether the truth lies
/// inside its containment radius.
pub fn score(outcome: &EpochOutcome, truth: UnitVec3) -> (f64, bool) {
    let err = angular_separation(outcome.direction, truth);
    (err, err <= outcome.containment_radius_deg)
}

/// The alert a ground worker would publish for an outcome.
pub fn ground_alert(stream_id: usize, e: &DeckEpoch, out: &EpochOutcome) -> GroundAlert {
    GroundAlert {
        stream_id,
        epoch_index: 0,
        alert: GrbAlert {
            t_trigger_s: e.epoch.t_trigger_s,
            significance_sigma: e.epoch.significance_sigma,
            polar_deg: polar_angle_deg(out.direction),
            azimuth_deg: rad_to_deg(out.direction.azimuth()),
            containment_radius_deg: out.containment_radius_deg,
            containment_source: out.containment_source,
            mode: out.level,
            rings: out.rings,
            surviving_rings: out.surviving_rings,
            latency_ms: 0.0,
            deadline_ms: 500.0,
            ingest_depth: 0,
            epoch_depth: 0,
        },
    }
}

/// Spans kept in memory for the whole traced run, plus per-layer value
/// series (sizes, counts, ratios) recorded at the same boundaries.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, layer: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time one call as a root span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, None);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    pub fn record(&mut self, key: &'static str, value: f64) {
        self.values.entry(key).or_default().push(value);
    }

    /// Durations (ms) of every span of `layer`, in order.
    pub fn durations_ms(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    pub fn series(&self, key: &str) -> &[f64] {
        self.values.get(key).map_or(&[], Vec::as_slice)
    }

    /// Write every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = stats::self_times_ns(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Candidates `approximate` keeps (upper hemisphere) for these rings,
/// drawn in its RNG order from a clone of the RNG it is given.
fn kept_candidates(rings: &[ComptonRing], config: &ApproxConfig, mut rng: ChaCha8Rng) -> usize {
    let mut indices: Vec<usize> = (0..rings.len()).collect();
    indices.shuffle(&mut rng);
    indices.truncate(config.sample_rings.max(1));
    let mut kept = 0;
    for &i in &indices {
        let ring = &rings[i];
        let cone_theta = ring.eta.clamp(-1.0, 1.0).acos();
        for k in 0..config.candidates_per_ring {
            let phi = std::f64::consts::TAU * (k as f64 + rng.gen_range(0.0..1.0))
                / config.candidates_per_ring as f64;
            let candidate = adapt_math::rotation::deflect(ring.axis, cone_theta, phi);
            if !config.upper_hemisphere_only || candidate.as_vec().z >= 0.0 {
                kept += 1;
            }
        }
    }
    kept
}

/// The layers of one epoch, each reachable through its public function.
pub struct LayerProbe<'a> {
    recon: Reconstructor,
    full_ml: MlLocalizer<'a>,
    baseline: BaselineLocalizer,
    f32_plan: &'a CompiledMlp,
    int8_plan: &'a CompiledQuantMlp,
    population: &'a SubscriberPopulation,
    ws: InferenceWorkspace,
    scratch: InferenceScratch,
    qscratch: QuantScratch,
}

impl<'a> LayerProbe<'a> {
    pub fn new(
        models: &'a adapt_core::training::TrainedModels,
        f32_plan: &'a CompiledMlp,
        population: &'a SubscriberPopulation,
    ) -> Self {
        LayerProbe {
            recon: Reconstructor::default(),
            full_ml: MlLocalizer::new(
                f32_plan,
                &models.thresholds,
                &models.d_eta,
                MlPipelineConfig::default(),
            ),
            baseline: BaselineLocalizer::new(LocalizerConfig::default()),
            f32_plan,
            int8_plan: models.quantized_background.plan(),
            population,
            ws: InferenceWorkspace::new(),
            scratch: InferenceScratch::default(),
            qscratch: QuantScratch::default(),
        }
    }

    /// Trace one epoch. The full-ml epoch is rebuilt from its layers
    /// under one root span (recon → `localize_with` → uncertainty, the
    /// order `localize_epoch` runs them) and must reproduce `expected`,
    /// the `localize_epoch` outcome at the full-ml rung, bit for bit.
    /// Each inner layer is then timed on its own on the same rings.
    /// Returns a description of any mismatch.
    pub fn probe(
        &mut self,
        tr: &mut Tracer,
        e: &DeckEpoch,
        expected: &Option<EpochOutcome>,
    ) -> Option<String> {
        let rng = || ChaCha8Rng::seed_from_u64(e.rng_seed);
        let noop = adapt_telemetry::noop();

        let root = tr.open("localize.epoch", None);
        let span = tr.open("recon", Some(root));
        let (rings, counts) = self.recon.reconstruct_all_counted(&e.epoch.events, noop);
        tr.close(span);
        tr.record("recon.attempted", counts.attempted as f64);
        tr.record("recon.reconstructed", counts.reconstructed as f64);
        tr.record("recon.degenerate", counts.degenerate_rings as f64);
        if rings.is_empty() {
            tr.close(root);
            return expected
                .is_some()
                .then(|| "probe reconstructed no rings where localize_epoch did".into());
        }
        let span = tr.open("localize.ml", Some(root));
        let ml = self.full_ml.localize_with(&rings, &mut rng(), &mut self.ws);
        tr.close(span);
        let mirrored = ml.as_ref().map(|ml| {
            let span = tr.open("localize.uncertainty", Some(root));
            let containment = estimate_uncertainty(&rings, ml.direction, FLOOR_Z)
                .map(|u| u.sigma_circular_deg())
                .unwrap_or(60.0)
                .min(180.0);
            tr.close(span);
            (ml.direction, ml.surviving_rings, containment)
        });
        tr.close(root);

        let mismatch = match (&mirrored, expected) {
            (Some((dir, surviving, containment)), Some(out))
                if out.level == DegradationLevel::FullMl =>
            {
                let same = dir.as_vec() == out.direction.as_vec()
                    && *surviving == out.surviving_rings
                    && containment.to_bits() == out.containment_radius_deg.to_bits()
                    && rings.len() == out.rings;
                (!same).then(|| "layer probe disagrees with localize_epoch at full-ml".into())
            }
            // full-ml failed and the ladder fell through: nothing to mirror
            (None, Some(out)) if out.level != DegradationLevel::FullMl => None,
            _ => Some("layer probe and localize_epoch disagree on success".into()),
        };
        if let Some(ml) = &ml {
            tr.record(
                "ml.survivor_frac",
                ml.surviving_rings as f64 / rings.len() as f64,
            );
        }

        let n = rings.len();
        let config = LocalizerConfig::default();
        tr.time("localize.classical", || {
            self.baseline.localize(&rings, &mut rng())
        });
        let kept = kept_candidates(&rings, &config.approx, rng());
        tr.record("approx.kept", kept as f64);
        tr.record(
            "approx.generated",
            (config.approx.sample_rings.min(n) * config.approx.candidates_per_ring) as f64,
        );
        tr.record("approx.pair_evals", (kept * n) as f64);
        let initial = tr.time("localize.approx", || {
            approximate(&rings, &config.approx, &mut rng())
        });
        if let Some((initial, _)) = initial {
            if let Some(refined) = tr.time("localize.refine", || {
                refine(&rings, initial, &config.refine)
            }) {
                tr.record("refine.iterations", refined.iterations as f64);
                tr.record("refine.inlier_frac", refined.inlier_count as f64 / n as f64);
            }
            // the first background pass: every ring at the first estimate
            let polar = polar_angle_deg(initial);
            let mut x = Matrix::zeros(n, N_FEATURES_WITH_POLAR);
            for (i, r) in rings.iter().enumerate() {
                x.row_mut(i)
                    .copy_from_slice(&r.features.to_model_input(polar));
            }
            tr.record("nn.rows", n as f64);
            let (plan, scratch) = (self.f32_plan, &mut self.scratch);
            tr.time("nn.f32", || plan.forward_batch(&x, scratch).len());
            let (plan, qscratch) = (self.int8_plan, &mut self.qscratch);
            tr.time("nn.int8", || plan.forward_batch(&x, qscratch).len());
        }
        tr.time("localize.skymap", || {
            SkyPosterior::from_rings_adaptive(
                SkyPixelization::Raster,
                &rings,
                COARSE_PIXELS,
                FLOOR_Z,
            )
        });
        tr.time("healpix", || {
            SkyPosterior::from_rings_adaptive(
                SkyPixelization::Healpix,
                &rings,
                COARSE_PIXELS,
                FLOOR_Z,
            )
        });
        if let Some(out) = expected {
            let alert = Arc::new(ground_alert(0, e, out));
            let population = self.population;
            let published = tr.time("ground.fanout", || population.publish(&alert));
            tr.record("fanout.matched", published.matched as f64);
            tr.record("fanout.delivered", published.delivered as f64);
        }
        mismatch
    }
}
