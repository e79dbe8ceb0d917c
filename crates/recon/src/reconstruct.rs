//! The reconstruction driver: measured event → Compton ring.
//!
//! Applies sequencing, kinematic filters, η/dη computation, and feature
//! extraction. Mirrors the "pre-localization stages" of the paper's
//! pipeline; rings rejected here never reach localization (and never enter
//! the training set, matching the paper's data-selection procedure).

use crate::error_prop::{axis_angular_sigma, propagate_d_eta, EtaErrorInputs};
use crate::features::RingFeatures;
use crate::ring::{ComptonRing, RingTruth};
use crate::sequence::{ring_eta, sequence_order, SequenceError};
use adapt_sim::Event;
use serde::{Deserialize, Serialize};

/// Tunables of the reconstruction stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReconConfig {
    /// Tolerance beyond `[-1, 1]` for intermediate kinematic cosines
    /// during sequencing.
    pub eta_margin: f64,
    /// Minimum separation of the first two hits (cm): shorter lever arms
    /// give axes dominated by quantization error.
    pub min_axis_length: f64,
    /// Minimum total measured energy (MeV).
    pub min_total_energy: f64,
    /// Maximum total measured energy (MeV).
    pub max_total_energy: f64,
    /// Maximum redundancy score for 3+-hit events to be deemed correctly
    /// reconstructed.
    pub max_redundancy_score: f64,
}

impl Default for ReconConfig {
    fn default() -> Self {
        ReconConfig {
            eta_margin: 0.15,
            min_axis_length: 0.8,
            min_total_energy: 0.06,
            max_total_energy: 12.0,
            max_redundancy_score: 0.05,
        }
    }
}

/// Why an event failed reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconError {
    /// Not enough hits for a ring.
    TooFewHits,
    /// Too many hits for the sequencer.
    TooManyHits,
    /// No ordering passed the kinematic checks.
    NoValidOrdering,
    /// Total energy outside the accepted window.
    EnergyOutOfRange,
    /// First two hits too close together.
    AxisTooShort,
    /// Ring cosine unphysical even after sequencing.
    InvalidEta,
    /// Redundancy test failed: likely mis-reconstructed.
    PoorRedundancy,
}

impl From<SequenceError> for ReconError {
    fn from(e: SequenceError) -> Self {
        match e {
            SequenceError::TooFewHits => ReconError::TooFewHits,
            SequenceError::TooManyHits => ReconError::TooManyHits,
            SequenceError::NoValidOrdering => ReconError::NoValidOrdering,
        }
    }
}

/// Per-batch reconstruction bookkeeping: how many events survived, and
/// why the rest were discarded. `degenerate` counts the physically
/// nonsensical rejections (non-physical η, or energy deposits below the
/// acceptance window — including zero-energy events) separately from
/// ordinary selection cuts; the paper's trigger diagnostics treat those
/// as a detector-health signal rather than a rate fluctuation.
///
/// The counts cover the events offered. A flight or ground epoch offers
/// only events with a sequenceable hit count
/// ([`can_sequence`](crate::can_sequence)), so its counts leave out the
/// single-site majority of the stream, sub-threshold ones included; the
/// trial pipeline offers every event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconCounts {
    /// Events offered to the reconstructor.
    pub attempted: usize,
    /// Rings successfully built.
    pub reconstructed: usize,
    /// Events rejected as degenerate: non-physical η or zero/sub-window
    /// energy deposits.
    pub degenerate_rings: usize,
    /// Events rejected by every other cut (sequencing, redundancy, axis
    /// length, over-range energy).
    pub rejected_other: usize,
}

/// How many events ahead [`Reconstructor::reconstruct_all_counted`]
/// prefetches each event's heap `hits` buffer. Nine in ten events of a
/// flight background have one hit and are rejected by a range check, so a
/// scan over every event (the trial pipeline's) is bound by the cold load
/// of that buffer. At about 40 ns of work per one-hit event, 16 events
/// cover several memory latencies. Runtime epochs hold only multi-hit
/// events (the trigger drops the rest), so there the scan is smaller.
pub(crate) const PREFETCH_EVENTS: usize = 16;

/// Hint the cache to load the line at `ptr`. A hint only: it never
/// faults, so any address (dangling, or an empty `Vec`'s) is fine.
#[inline(always)]
fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is SSE, part of the x86_64 baseline, and a
    // prefetch does not access memory architecturally, so it cannot fault
    // or read out of bounds whatever `ptr` points at.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// The reconstruction stage.
#[derive(Debug, Clone, Default)]
pub struct Reconstructor {
    config: ReconConfig,
}

impl Reconstructor {
    /// With explicit configuration.
    pub fn new(config: ReconConfig) -> Self {
        Reconstructor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ReconConfig {
        &self.config
    }

    /// Reconstruct one event into a Compton ring.
    pub fn reconstruct(&self, event: &Event) -> Result<ComptonRing, ReconError> {
        let cfg = &self.config;
        let total = event.total_energy();
        if total < cfg.min_total_energy || total > cfg.max_total_energy {
            return Err(ReconError::EnergyOutOfRange);
        }
        let seq = sequence_order(&event.hits, cfg.eta_margin)?;
        self.ring_from_order(event, total, &seq.order, seq.redundancy_score)
    }

    /// The cuts and ring construction after sequencing: `order` starts with
    /// the first two interactions, `redundancy_score` is the sequencer's.
    fn ring_from_order(
        &self,
        event: &Event,
        total: f64,
        order: &[usize],
        redundancy_score: f64,
    ) -> Result<ComptonRing, ReconError> {
        let cfg = &self.config;
        if redundancy_score > cfg.max_redundancy_score {
            return Err(ReconError::PoorRedundancy);
        }
        let first = &event.hits[order[0]];
        let second = &event.hits[order[1]];
        let axis_vec = first.position - second.position;
        if axis_vec.norm() < cfg.min_axis_length {
            return Err(ReconError::AxisTooShort);
        }
        let axis = axis_vec.normalized();
        let eta = ring_eta(&event.hits, order).ok_or(ReconError::InvalidEta)?;
        if !(-1.0..=1.0).contains(&eta.clamp(-1.0 - cfg.eta_margin, 1.0 + cfg.eta_margin))
            || eta.is_nan()
        {
            return Err(ReconError::InvalidEta);
        }
        let eta = eta.clamp(-1.0, 1.0);

        let sigma_axis = axis_angular_sigma(first, second);
        let d_eta = propagate_d_eta(&EtaErrorInputs {
            total_energy: total,
            e1: first.energy,
            sigma_total: event.total_energy_sigma(),
            sigma_e1: first.sigma_energy,
            eta,
            sigma_axis,
        });

        let features = RingFeatures::from_hits(first, second, total, event.total_energy_sigma());
        let truth = Some(RingTruth {
            origin: event.truth.origin,
            source_dir: event.truth.source_dir,
            true_eta: event.truth.true_eta,
        });
        Ok(ComptonRing {
            axis,
            eta,
            d_eta,
            features,
            truth,
        })
    }

    /// Reconstruct a batch, keeping only successes.
    pub fn reconstruct_all(&self, events: &[Event]) -> Vec<ComptonRing> {
        self.reconstruct_all_counted(events, adapt_telemetry::noop())
            .0
    }

    /// As [`reconstruct_all`](Self::reconstruct_all), also tallying why
    /// events were discarded and bumping the recorder's
    /// `degenerate_rings` counter.
    pub fn reconstruct_all_counted(
        &self,
        events: &[Event],
        recorder: &dyn adapt_telemetry::Recorder,
    ) -> (Vec<ComptonRing>, ReconCounts) {
        let mut counts = ReconCounts {
            attempted: events.len(),
            ..Default::default()
        };
        let mut rings = Vec::new();
        for (i, event) in events.iter().enumerate() {
            if let Some(ahead) = events.get(i + PREFETCH_EVENTS) {
                prefetch(ahead.hits.as_ptr());
            }
            match self.reconstruct(event) {
                Ok(ring) => rings.push(ring),
                Err(err) if self.is_degenerate(event, err) => counts.degenerate_rings += 1,
                Err(_) => counts.rejected_other += 1,
            }
        }
        counts.reconstructed = rings.len();
        if counts.degenerate_rings > 0 {
            recorder.add(
                adapt_telemetry::Counter::DegenerateRings,
                counts.degenerate_rings as u64,
            );
        }
        (rings, counts)
    }

    /// Whether a rejection is *degenerate*: a non-physical ring cosine,
    /// or an energy deposit at/below the acceptance floor (zero-energy
    /// events included). Over-range energies are ordinary cuts.
    fn is_degenerate(&self, event: &Event, err: ReconError) -> bool {
        match err {
            ReconError::InvalidEta => true,
            ReconError::EnergyOutOfRange => event.total_energy() < self.config.min_total_energy,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_math::angles::rad_to_deg;
    use adapt_math::stats::containment_radius;
    use adapt_math::vec3::UnitVec3;
    use adapt_sim::{BurstSimulation, GrbConfig, ParticleOrigin};

    fn burst_rings(fluence: f64, seed: u64) -> Vec<ComptonRing> {
        let sim = BurstSimulation::with_defaults(GrbConfig::new(fluence, 0.0));
        let data = sim.simulate(seed);
        Reconstructor::default().reconstruct_all(&data.events)
    }

    #[test]
    fn reconstructs_a_usable_fraction() {
        let sim = BurstSimulation::with_defaults(GrbConfig::new(1.0, 0.0));
        let data = sim.simulate(21);
        let rings = Reconstructor::default().reconstruct_all(&data.events);
        assert!(
            rings.len() > data.events.len() / 60,
            "{} rings from {} events",
            rings.len(),
            data.events.len()
        );
        for r in &rings {
            assert!((-1.0..=1.0).contains(&r.eta));
            assert!(r.d_eta > 0.0);
            assert!(r.features.total_energy > 0.0);
        }
    }

    #[test]
    fn grb_rings_point_near_source_on_average() {
        // For a normally-incident burst the standardized residual of GRB
        // rings at the true source should be small for most rings.
        let rings = burst_rings(3.0, 5);
        let source = UnitVec3::PLUS_Z;
        let grb_resid: Vec<f64> = rings
            .iter()
            .filter(|r| !r.is_background_truth())
            .map(|r| r.residual(source).abs())
            .collect();
        assert!(grb_resid.len() > 50, "need rings, got {}", grb_resid.len());
        let med = containment_radius(&grb_resid, 0.5).unwrap();
        // the population includes mis-sequenced and escape-degraded rings;
        // what matters is clear contrast with the background population
        // (median ≈ 0.8), not absolute tightness
        assert!(med < 0.45, "median |residual| = {med}");
    }

    #[test]
    fn background_rings_do_not_cluster_at_grb() {
        let rings = burst_rings(3.0, 6);
        let source = UnitVec3::PLUS_Z;
        let bkg_resid: Vec<f64> = rings
            .iter()
            .filter(|r| r.is_background_truth())
            .map(|r| r.residual(source).abs())
            .collect();
        assert!(bkg_resid.len() > 50);
        let med = containment_radius(&bkg_resid, 0.5).unwrap();
        // background rings should sit far from the GRB cone on average
        assert!(med > 0.2, "median background |residual| = {med}");
    }

    #[test]
    fn d_eta_underestimates_true_error_in_tail() {
        // the paper's motivating observation: many rings have true eta
        // error far exceeding the propagated estimate.
        let rings = burst_rings(3.0, 7);
        let mut ratio_gt3 = 0usize;
        let mut n = 0usize;
        for r in &rings {
            let Some(t) = r.truth else { continue };
            if t.origin == ParticleOrigin::Background {
                continue;
            }
            let true_err = t.true_eta_error(r.axis, r.eta);
            n += 1;
            if true_err > 3.0 * r.d_eta {
                ratio_gt3 += 1;
            }
        }
        assert!(n > 50);
        let frac = ratio_gt3 as f64 / n as f64;
        assert!(
            frac > 0.05,
            "expected a heavy tail of underestimated errors, got {frac}"
        );
    }

    #[test]
    fn ring_cone_contains_source_within_scaled_width() {
        // for the *median* GRB ring the source should be within a few
        // (network-corrected, i.e. true) eta errors; sanity: angular
        // distance from cone should mostly be bounded by ~20 deg
        let rings = burst_rings(2.0, 8);
        let source = UnitVec3::PLUS_Z;
        let mut cone_gaps: Vec<f64> = Vec::new();
        for r in rings.iter().filter(|r| !r.is_background_truth()) {
            let angle_to_axis = rad_to_deg(r.axis.angle_to(source));
            let cone_angle = rad_to_deg(r.eta.acos());
            cone_gaps.push((angle_to_axis - cone_angle).abs());
        }
        assert!(cone_gaps.len() > 50);
        let med = containment_radius(&cone_gaps, 0.5).unwrap();
        assert!(med < 20.0, "median cone gap {med} deg");
    }

    #[test]
    fn energy_window_rejects() {
        let cfg = ReconConfig {
            min_total_energy: 100.0, // absurd: everything fails
            ..Default::default()
        };
        let sim = BurstSimulation::with_defaults(GrbConfig::new(1.0, 0.0));
        let data = sim.simulate(9);
        let rings = Reconstructor::new(cfg).reconstruct_all(&data.events);
        assert!(rings.is_empty());
    }

    #[test]
    fn counted_reconstruction_matches_plain_and_classifies_rejects() {
        let sim = BurstSimulation::with_defaults(GrbConfig::new(2.0, 0.0));
        let data = sim.simulate(33);
        let recon = Reconstructor::default();
        let plain = recon.reconstruct_all(&data.events);
        let recorder = adapt_telemetry::FlightRecorder::new();
        let (counted, counts) = recon.reconstruct_all_counted(&data.events, &recorder);
        assert_eq!(plain.len(), counted.len());
        assert_eq!(counts.attempted, data.events.len());
        assert_eq!(counts.reconstructed, counted.len());
        assert_eq!(
            counts.attempted,
            counts.reconstructed + counts.degenerate_rings + counts.rejected_other
        );
        assert_eq!(
            recorder.counter(adapt_telemetry::Counter::DegenerateRings),
            counts.degenerate_rings as u64
        );
        // a real burst always sheds some events below the energy floor
        assert!(counts.degenerate_rings > 0, "{counts:?}");
    }

    #[test]
    fn absurd_energy_floor_makes_every_reject_degenerate() {
        let cfg = ReconConfig {
            min_total_energy: 100.0,
            ..Default::default()
        };
        let sim = BurstSimulation::with_defaults(GrbConfig::new(1.0, 0.0));
        let data = sim.simulate(9);
        let (rings, counts) =
            Reconstructor::new(cfg).reconstruct_all_counted(&data.events, adapt_telemetry::noop());
        assert!(rings.is_empty());
        assert_eq!(counts.degenerate_rings, counts.attempted);
        assert_eq!(counts.rejected_other, 0);
    }

    #[test]
    fn only_sequenceable_hit_counts_reconstruct() {
        use crate::sequence::{can_sequence, MAX_SEQUENCED_HITS};
        assert!(!can_sequence(0) && !can_sequence(1));
        assert!((2..=MAX_SEQUENCED_HITS).all(can_sequence));
        assert!(!can_sequence(MAX_SEQUENCED_HITS + 1));

        let sim = BurstSimulation::with_defaults(GrbConfig::new(2.0, 0.0));
        let data = sim.simulate(21);
        let recon = Reconstructor::default();
        let mut checked = 0;
        for event in data.events.iter().filter(|e| recon.reconstruct(e).is_ok()) {
            // the event's deposit on one hit and spread over too many,
            // inside the energy window so the hit count is what rejects
            // it, and the event with no hits at all
            let total = event.total_energy();
            let mut one = event.clone();
            one.hits.truncate(1);
            one.hits[0].energy = total;
            let mut many = event.clone();
            while many.hits.len() <= MAX_SEQUENCED_HITS {
                let mut split = many.hits[0];
                split.energy /= 2.0;
                many.hits[0].energy -= split.energy;
                split.position.z += 1.0;
                many.hits.push(split);
            }
            let mut none = event.clone();
            none.hits.clear();
            for variant in [&none, &one, &many] {
                assert!(!can_sequence(variant.hits.len()));
                let err = recon.reconstruct(variant).unwrap_err();
                let want = if variant.hits.is_empty() {
                    ReconError::EnergyOutOfRange
                } else if variant.hits.len() == 1 {
                    ReconError::TooFewHits
                } else {
                    ReconError::TooManyHits
                };
                assert_eq!(err, want, "{} hits", variant.hits.len());
            }
            checked += 1;
        }
        assert!(checked > 100, "{checked} reconstructable events");

        // and every simulated event outside the range fails
        for event in &data.events {
            if !can_sequence(event.hits.len()) {
                assert!(recon.reconstruct(event).is_err());
            }
        }
    }

    /// The path `reconstruct_all_counted` replaced: per event, the
    /// allocating sequencer, no prefetch.
    fn reference_all_counted(
        recon: &Reconstructor,
        events: &[Event],
    ) -> (Vec<ComptonRing>, ReconCounts) {
        let cfg = recon.config();
        let mut counts = ReconCounts {
            attempted: events.len(),
            ..Default::default()
        };
        let mut rings = Vec::new();
        for event in events {
            let total = event.total_energy();
            let ring = if total < cfg.min_total_energy || total > cfg.max_total_energy {
                Err(ReconError::EnergyOutOfRange)
            } else {
                crate::sequence::reference::sequence_hits(&event.hits, cfg.eta_margin)
                    .map_err(ReconError::from)
                    .and_then(|seq| {
                        recon.ring_from_order(event, total, &seq.order, seq.redundancy_score)
                    })
            };
            match ring {
                Ok(ring) => rings.push(ring),
                Err(err) if recon.is_degenerate(event, err) => counts.degenerate_rings += 1,
                Err(_) => counts.rejected_other += 1,
            }
        }
        counts.reconstructed = rings.len();
        (rings, counts)
    }

    /// Every float of a ring, truth included, as bits.
    fn ring_bits(r: &ComptonRing) -> Vec<u64> {
        let axis = r.axis.as_vec();
        let mut floats = vec![axis.x, axis.y, axis.z, r.eta, r.d_eta];
        floats.extend(r.features.to_static_array());
        if let Some(t) = r.truth {
            let dir = t.source_dir.as_vec();
            floats.extend([dir.x, dir.y, dir.z, t.true_eta.unwrap_or(f64::NAN)]);
        }
        floats.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn counted_scan_matches_the_reference_path_bit_for_bit() {
        use adapt_sim::{FlightProfile, StreamConfig, StreamingSource};
        // two seconds of flight background at float altitude: nine in ten
        // events have one hit, and a few hundred have three to five
        let mut config = StreamConfig::new(FlightProfile::antarctic_ldb(), 2.0);
        config.start_h = 20.0;
        let events: Vec<Event> = StreamingSource::new(config, 0x5EC0)
            .map(|s| s.event)
            .collect();
        let multi_hit = events
            .iter()
            .filter(|e| (3..=5).contains(&e.hits.len()))
            .count();
        assert!(
            multi_hit > 100,
            "{multi_hit} of {} events have 3-5 hits",
            events.len()
        );

        let recon = Reconstructor::default();
        let d = PREFETCH_EVENTS;
        for len in [0, 1, d - 1, d, d + 1, events.len()] {
            let window = &events[..len];
            let recorder = adapt_telemetry::FlightRecorder::new();
            let (rings, counts) = recon.reconstruct_all_counted(window, &recorder);
            let (want_rings, want_counts) = reference_all_counted(&recon, window);
            assert_eq!(counts, want_counts, "window of {len}");
            assert_eq!(rings.len(), want_rings.len(), "window of {len}");
            for (i, (got, want)) in rings.iter().zip(&want_rings).enumerate() {
                assert_eq!(ring_bits(got), ring_bits(want), "ring {i} of window {len}");
                assert_eq!(
                    got.truth.map(|t| t.origin),
                    want.truth.map(|t| t.origin),
                    "ring {i} of window {len}"
                );
            }
            assert_eq!(
                recorder.counter(adapt_telemetry::Counter::DegenerateRings),
                counts.degenerate_rings as u64
            );
        }
    }

    #[test]
    fn truth_metadata_propagates() {
        let rings = burst_rings(1.0, 10);
        assert!(rings.iter().any(|r| r.truth.is_some()));
        assert!(rings.iter().any(|r| r.is_background_truth()));
        assert!(rings.iter().any(|r| !r.is_background_truth()));
    }
}
