//! Compton sequencing: recovering the interaction order of an event's hits.
//!
//! The detector reports an unordered set of hits; the ring axis needs the
//! *first two* interactions. For two-hit events the two candidate orders
//! are ranked by Klein–Nishina plausibility of the implied scattering
//! angle; for three or more hits the classic redundancy test is used — the
//! scattering angle at each interior hit can be computed both geometrically
//! (from the three positions) and kinematically (from the running energy),
//! and the ordering that makes the two best agree wins.
//!
//! Sequencing errors are a genuine error source: a mis-sequenced event
//! yields a plausible but wrong ring, whose true η error dwarfs the
//! propagated estimate. This is one of the mechanisms behind the paper's
//! observation that analytic dη is "frequently incorrect".

use adapt_math::vec3::UnitVec3;
use adapt_sim::physics::{compton_cos_theta, scattered_energy};
use adapt_sim::MeasuredHit;

/// Maximum number of hits we attempt to sequence (permutation search is
/// factorial; physical ADAPT events almost never exceed this).
pub const MAX_SEQUENCED_HITS: usize = 5;

/// Whether an event with `n_hits` measured hits can be sequenced: two to
/// [`MAX_SEQUENCED_HITS`]. Every other event fails reconstruction whatever
/// its hits hold, so a consumer that only wants rings can drop it unseen.
pub fn can_sequence(n_hits: usize) -> bool {
    (2..=MAX_SEQUENCED_HITS).contains(&n_hits)
}

/// Outcome of sequencing: the ordering (indices into the event's hit list)
/// and its redundancy score (lower is better; 0 for two-hit events).
#[derive(Debug, Clone)]
pub struct Sequencing {
    /// Hit indices in inferred chronological order.
    pub order: Vec<usize>,
    /// Mean squared cosine discrepancy over interior hits (0 when there is
    /// no interior hit to test).
    pub redundancy_score: f64,
}

/// [`Sequencing`] without the allocation: the order of an `n`-hit event
/// occupies `order[..n]`. This is what the reconstruction hot path uses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SequencedOrder {
    pub(crate) order: [usize; MAX_SEQUENCED_HITS],
    pub(crate) redundancy_score: f64,
}

/// Errors from sequencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceError {
    /// Fewer than two hits: no ring can be built.
    TooFewHits,
    /// More hits than the permutation search supports.
    TooManyHits,
    /// No ordering yields a kinematically valid scattering chain.
    NoValidOrdering,
}

/// The Klein–Nishina differential cross section (unnormalized) at
/// scattering-angle cosine `cos_theta` for incident energy `e` — used to
/// rank otherwise-valid orderings.
fn kn_weight(e: f64, cos_theta: f64) -> f64 {
    let e_prime = scattered_energy(e, cos_theta);
    let r = e_prime / e;
    let sin2 = 1.0 - cos_theta * cos_theta;
    r * r * (r + 1.0 / r - sin2)
}

/// Sequence an event's hits. `eta_margin` is the tolerance beyond `[-1,1]`
/// allowed for intermediate kinematic cosines before an ordering is
/// discarded (measurement noise makes small excursions legitimate).
pub fn sequence_hits(hits: &[MeasuredHit], eta_margin: f64) -> Result<Sequencing, SequenceError> {
    let seq = sequence_order(hits, eta_margin)?;
    Ok(Sequencing {
        order: seq.order[..hits.len()].to_vec(),
        redundancy_score: seq.redundancy_score,
    })
}

/// [`sequence_hits`] on stack arrays: one core per hit count.
pub(crate) fn sequence_order(
    hits: &[MeasuredHit],
    eta_margin: f64,
) -> Result<SequencedOrder, SequenceError> {
    const _: () = assert!(
        MAX_SEQUENCED_HITS == 5,
        "one core per hit count up to the maximum"
    );
    let n = hits.len();
    if !can_sequence(n) {
        return Err(if n < 2 {
            SequenceError::TooFewHits
        } else {
            SequenceError::TooManyHits
        });
    }
    match n {
        2 => sequence_two(hits, eta_margin),
        3 => sequence_many::<3>(hits, eta_margin),
        4 => sequence_many::<4>(hits, eta_margin),
        _ => sequence_many::<5>(hits, eta_margin),
    }
}

fn sequence_two(hits: &[MeasuredHit], eta_margin: f64) -> Result<SequencedOrder, SequenceError> {
    let total = hits[0].energy + hits[1].energy;
    let mut best: Option<(f64, [usize; 2])> = None;
    for order in [[0usize, 1], [1, 0]] {
        let first = &hits[order[0]];
        let e_out = total - first.energy;
        if e_out <= 0.0 {
            continue;
        }
        let eta = compton_cos_theta(total, e_out);
        if eta < -1.0 - eta_margin || eta > 1.0 + eta_margin {
            continue;
        }
        let w = kn_weight(total, eta.clamp(-1.0, 1.0));
        if best.map(|(bw, _)| w > bw).unwrap_or(true) {
            best = Some((w, order));
        }
    }
    let (_, best_order) = best.ok_or(SequenceError::NoValidOrdering)?;
    let mut order = [0; MAX_SEQUENCED_HITS];
    order[..2].copy_from_slice(&best_order);
    Ok(SequencedOrder {
        order,
        redundancy_score: 0.0,
    })
}

/// The redundancy search over all `N!` orderings of an `N`-hit event.
///
/// Per ordering the score is the mean squared difference between the
/// kinematic cosine (from the running energy) and the geometric cosine
/// (from the two segment directions) at each interior hit. The segment
/// directions depend only on the pair of hits, so they are normalized once
/// per event; each geometric cosine is then the same `cos_angle_to` of the
/// same operands as a per-ordering computation, bit for bit. The kinematic
/// chain depends on the whole ordering (its total energy is summed in
/// ordering order), so it stays per ordering.
fn sequence_many<const N: usize>(
    hits: &[MeasuredHit],
    eta_margin: f64,
) -> Result<SequencedOrder, SequenceError> {
    let hits: &[MeasuredHit; N] = hits.try_into().expect("dispatched on the hit count");
    // segment[i][j]: direction from hit i to hit j, `None` when they coincide
    let mut segment = [[None::<UnitVec3>; N]; N];
    for (i, row) in segment.iter_mut().enumerate() {
        for (j, dir) in row.iter_mut().enumerate() {
            if i != j {
                *dir = (hits[j].position - hits[i].position).try_normalize();
            }
        }
    }
    let mut indices: [usize; N] = std::array::from_fn(|i| i);
    let mut best: Option<(f64, [usize; N])> = None;
    permute(&mut indices, 0, &mut |perm| {
        let Some(score) = redundancy_score(hits, &segment, perm, eta_margin) else {
            return;
        };
        if best.map(|(bs, _)| score < bs).unwrap_or(true) {
            best = Some((score, *perm));
        }
    });
    let (score, best_order) = best.ok_or(SequenceError::NoValidOrdering)?;
    let mut order = [0; MAX_SEQUENCED_HITS];
    order[..N].copy_from_slice(&best_order);
    Ok(SequencedOrder {
        order,
        redundancy_score: score,
    })
}

/// The redundancy score of one ordering, or `None` when the ordering is
/// invalid: a kinematic cosine unphysical beyond `margin`, a non-positive
/// remaining energy, or a degenerate segment at an interior hit.
fn redundancy_score<const N: usize>(
    hits: &[MeasuredHit; N],
    segment: &[[Option<UnitVec3>; N]; N],
    perm: &[usize; N],
    margin: f64,
) -> Option<f64> {
    let total: f64 = perm.iter().map(|&i| hits[i].energy).sum();
    let mut e_in = total;
    // the kinematic chain: cosine at each hit but the last; kin[0] is the
    // ring eta, which has no geometric counterpart
    let mut kin = [0.0; N];
    for (k, &i) in perm[..N - 1].iter().enumerate() {
        let e_out = e_in - hits[i].energy;
        if e_out <= 0.0 {
            return None;
        }
        let c = compton_cos_theta(e_in, e_out);
        if c < -1.0 - margin || c > 1.0 + margin {
            return None;
        }
        kin[k] = c.clamp(-1.0, 1.0);
        e_in = e_out;
    }
    let mut score = 0.0;
    for k in 0..N - 2 {
        let a = segment[perm[k]][perm[k + 1]]?;
        let b = segment[perm[k + 1]][perm[k + 2]]?;
        let d = kin[k + 1] - a.cos_angle_to(b);
        score += d * d;
    }
    Some(score / (N - 2) as f64)
}

/// Calls `visit` on every permutation of `arr[k..]` by plain swap
/// recursion (not Heap's algorithm): slot `k` takes `arr[k]`, `arr[k + 1]`,
/// … in turn, each swapped in and back out, and for each the rest is
/// permuted the same way. From `[0, 1, 2]` the visits are 012, 021, 102,
/// 120, 210, 201.
///
/// This visit order is part of the sequencing contract: the redundancy
/// search keeps the first strict minimum, so on a tied score the ordering
/// visited first wins.
fn permute<const N: usize>(arr: &mut [usize; N], k: usize, visit: &mut impl FnMut(&[usize; N])) {
    if k == N {
        visit(arr);
        return;
    }
    for i in k..N {
        arr.swap(k, i);
        permute(arr, k + 1, visit);
        arr.swap(k, i);
    }
}

/// The ring cosine η implied by an ordering: from the total energy and the
/// energy remaining after the first hit.
pub fn ring_eta(hits: &[MeasuredHit], order: &[usize]) -> Option<f64> {
    let total: f64 = hits.iter().map(|h| h.energy).sum();
    let e_out = total - hits[order[0]].energy;
    (e_out > 0.0).then(|| compton_cos_theta(total, e_out))
}

/// Sanity helper used in tests: the maximum physically sensible deposit for
/// a first Compton hit of a photon with energy `e` (backscatter limit).
pub fn max_first_deposit(e: f64) -> f64 {
    e - scattered_energy(e, -1.0)
}

/// The allocating search this module replaced, kept verbatim as the
/// reference the stack-array cores must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{kn_weight, SequenceError, Sequencing, MAX_SEQUENCED_HITS};
    use adapt_sim::physics::compton_cos_theta;
    use adapt_sim::MeasuredHit;

    pub(crate) fn sequence_hits(
        hits: &[MeasuredHit],
        eta_margin: f64,
    ) -> Result<Sequencing, SequenceError> {
        match hits.len() {
            0 | 1 => Err(SequenceError::TooFewHits),
            2 => sequence_two(hits, eta_margin),
            n if n <= MAX_SEQUENCED_HITS => sequence_many(hits, eta_margin),
            _ => Err(SequenceError::TooManyHits),
        }
    }

    fn kinematic_chain(hits: &[&MeasuredHit], margin: f64) -> Option<Vec<f64>> {
        let total: f64 = hits.iter().map(|h| h.energy).sum();
        let mut e_in = total;
        let mut cosines = Vec::with_capacity(hits.len().saturating_sub(1));
        for h in &hits[..hits.len() - 1] {
            let e_out = e_in - h.energy;
            if e_out <= 0.0 {
                return None;
            }
            let c = compton_cos_theta(e_in, e_out);
            if c < -1.0 - margin || c > 1.0 + margin {
                return None;
            }
            cosines.push(c.clamp(-1.0, 1.0));
            e_in = e_out;
        }
        Some(cosines)
    }

    fn geometric_cosines(hits: &[&MeasuredHit]) -> Option<Vec<f64>> {
        let mut out = Vec::with_capacity(hits.len().saturating_sub(2));
        for w in hits.windows(3) {
            let a = (w[1].position - w[0].position).try_normalize()?;
            let b = (w[2].position - w[1].position).try_normalize()?;
            out.push(a.cos_angle_to(b));
        }
        Some(out)
    }

    fn sequence_two(hits: &[MeasuredHit], eta_margin: f64) -> Result<Sequencing, SequenceError> {
        let total = hits[0].energy + hits[1].energy;
        let mut best: Option<(f64, Vec<usize>)> = None;
        for order in [[0usize, 1], [1, 0]] {
            let first = &hits[order[0]];
            let e_out = total - first.energy;
            if e_out <= 0.0 {
                continue;
            }
            let eta = compton_cos_theta(total, e_out);
            if eta < -1.0 - eta_margin || eta > 1.0 + eta_margin {
                continue;
            }
            let w = kn_weight(total, eta.clamp(-1.0, 1.0));
            if best.as_ref().map(|(bw, _)| w > *bw).unwrap_or(true) {
                best = Some((w, order.to_vec()));
            }
        }
        best.map(|(_, order)| Sequencing {
            order,
            redundancy_score: 0.0,
        })
        .ok_or(SequenceError::NoValidOrdering)
    }

    fn sequence_many(hits: &[MeasuredHit], eta_margin: f64) -> Result<Sequencing, SequenceError> {
        let n = hits.len();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut best: Option<(f64, Vec<usize>)> = None;
        permute(&mut indices, 0, &mut |perm| {
            let ordered: Vec<&MeasuredHit> = perm.iter().map(|&i| &hits[i]).collect();
            let Some(kin) = kinematic_chain(&ordered, eta_margin) else {
                return;
            };
            let Some(geo) = geometric_cosines(&ordered) else {
                return;
            };
            let mut score = 0.0;
            for (k, g) in kin[1..].iter().zip(&geo) {
                let d = k - g;
                score += d * d;
            }
            let score = score / geo.len().max(1) as f64;
            if best.as_ref().map(|(bs, _)| score < *bs).unwrap_or(true) {
                best = Some((score, perm.to_vec()));
            }
        });
        best.map(|(score, order)| Sequencing {
            order,
            redundancy_score: score,
        })
        .ok_or(SequenceError::NoValidOrdering)
    }

    fn permute(arr: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
        let n = arr.len();
        if k == n {
            visit(arr);
            return;
        }
        for i in k..n {
            arr.swap(k, i);
            permute(arr, k + 1, visit);
            arr.swap(k, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_math::vec3::Vec3;

    fn hit(pos: Vec3, e: f64) -> MeasuredHit {
        MeasuredHit {
            position: pos,
            energy: e,
            sigma_position: Vec3::new(0.09, 0.09, 0.43),
            sigma_energy: 0.02,
            layer: 0,
        }
    }

    /// Build a synthetic, kinematically exact 3-hit chain:
    /// photon of energy `e0` coming from +z scatters at the origin through
    /// angle `theta1`, travels to a second point, scatters again, then is
    /// absorbed.
    fn exact_chain(e0: f64, theta1_deg: f64) -> Vec<MeasuredHit> {
        use adapt_math::rotation::deflect;
        use adapt_math::vec3::UnitVec3;
        let travel0 = UnitVec3::PLUS_Z.flipped();
        let p0 = Vec3::ZERO;
        let ct1 = theta1_deg.to_radians().cos();
        let e1 = scattered_energy(e0, ct1);
        let d0 = e0 - e1;
        let travel1 = deflect(travel0, theta1_deg.to_radians(), 0.7);
        let p1 = p0 + travel1.as_vec() * 3.0;
        // second scatter through 40 degrees
        let ct2 = (40f64).to_radians().cos();
        let e2 = scattered_energy(e1, ct2);
        let d1 = e1 - e2;
        let travel2 = deflect(travel1, (40f64).to_radians(), -1.9);
        let p2 = p1 + travel2.as_vec() * 2.5;
        vec![hit(p0, d0), hit(p1, d1), hit(p2, e2)]
    }

    #[test]
    fn exact_three_hit_chain_sequences_correctly() {
        let hits = exact_chain(1.2, 55.0);
        // shuffle: present in order (2, 0, 1)
        let shuffled = vec![hits[2], hits[0], hits[1]];
        let seq = sequence_hits(&shuffled, 0.1).unwrap();
        // recovered order must map back to (1, 2, 0) = original (0, 1, 2)
        assert_eq!(seq.order, vec![1, 2, 0], "score {}", seq.redundancy_score);
        assert!(seq.redundancy_score < 1e-9);
    }

    #[test]
    fn exact_chain_eta_matches_construction() {
        let hits = exact_chain(1.2, 55.0);
        let seq = sequence_hits(&hits, 0.1).unwrap();
        let eta = ring_eta(&hits, &seq.order).unwrap();
        assert!((eta - (55f64).to_radians().cos()).abs() < 1e-9);
    }

    #[test]
    fn two_hit_event_prefers_valid_ordering() {
        // Construct a 2-hit event where only one ordering gives |eta|<=1.
        // Total 1.0 MeV; first deposit 0.1 -> e_out 0.9 ->
        // eta = 1 - 0.511(1/0.9 - 1) = 0.943 (valid).
        // Reversed: first deposit 0.9 -> e_out 0.1 ->
        // eta = 1 - 0.511(10 - 1) = -3.6 (invalid).
        let hits = vec![
            hit(Vec3::new(0.0, 0.0, 5.0), 0.9),
            hit(Vec3::new(0.0, 0.0, 0.0), 0.1),
        ];
        let seq = sequence_hits(&hits, 0.05).unwrap();
        assert_eq!(seq.order, vec![1, 0]);
        let eta = ring_eta(&hits, &seq.order).unwrap();
        assert!((-1.0..=1.0).contains(&eta));
    }

    #[test]
    fn impossible_kinematics_rejected() {
        // two tiny deposits of a supposed 0.06 MeV photon: backscatter
        // limit makes a 0.05 deposit impossible as a first Compton hit
        let hits = vec![
            hit(Vec3::ZERO, 0.055),
            hit(Vec3::new(0.0, 0.0, -4.0), 0.055),
        ];
        // each ordering implies eta far below -1
        assert_eq!(
            sequence_hits(&hits, 0.01).unwrap_err(),
            SequenceError::NoValidOrdering
        );
    }

    #[test]
    fn hit_count_limits() {
        assert_eq!(
            sequence_hits(&[], 0.1).unwrap_err(),
            SequenceError::TooFewHits
        );
        let h = hit(Vec3::ZERO, 0.2);
        assert_eq!(
            sequence_hits(&[h], 0.1).unwrap_err(),
            SequenceError::TooFewHits
        );
        let many: Vec<MeasuredHit> = (0..7)
            .map(|i| hit(Vec3::new(i as f64, 0.0, 0.0), 0.1))
            .collect();
        assert_eq!(
            sequence_hits(&many, 0.1).unwrap_err(),
            SequenceError::TooManyHits
        );
    }

    #[test]
    fn max_first_deposit_is_backscatter_limit() {
        let e = 1.0;
        let lim = max_first_deposit(e);
        // at 1 MeV the Compton edge is ~0.796 MeV
        assert!((lim - 0.796).abs() < 5e-3, "got {lim}");
    }

    /// A random event that reaches every edge of the search: hits copied
    /// from a two-hit pool (exact duplicates, so tied scores and coincident
    /// positions), positions on a coarse grid (degenerate segments), and
    /// deposits that are zero or negative (`e_out ≤ 0`).
    fn edge_event(n: usize, rng: &mut rand_chacha::ChaCha8Rng) -> Vec<MeasuredHit> {
        use rand::Rng;
        fn fresh(rng: &mut rand_chacha::ChaCha8Rng) -> MeasuredHit {
            let position = if rng.gen_bool(0.5) {
                let mut cell = || rng.gen_range(-2i32..=2) as f64;
                Vec3::new(cell(), cell(), 4.0 * cell())
            } else {
                let mut coord = || rng.gen_range(-10.0..10.0);
                Vec3::new(coord(), coord(), coord())
            };
            let energy = match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -rng.gen_range(0.0..0.5),
                _ => rng.gen_range(0.01..2.0),
            };
            hit(position, energy)
        }
        let pool = [fresh(rng), fresh(rng)];
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.4) {
                    pool[rng.gen_range(0..2)]
                } else {
                    fresh(rng)
                }
            })
            .collect()
    }

    /// A margin that puts a kinematic cosine of the presented ordering
    /// exactly on the `±(1 + margin)` acceptance edge, when one lies in
    /// `[1, 2]` in magnitude (there `|c| − 1` and `±(1 + margin)` are exact).
    fn edge_margin(hits: &[MeasuredHit]) -> Option<f64> {
        let mut e_in: f64 = hits.iter().map(|h| h.energy).sum();
        for h in &hits[..hits.len().saturating_sub(1)] {
            let e_out = e_in - h.energy;
            if e_out <= 0.0 {
                return None;
            }
            let c = compton_cos_theta(e_in, e_out);
            if (-2.0..=-1.0).contains(&c) {
                return Some(-1.0 - c);
            }
            if (1.0..=2.0).contains(&c) {
                return Some(c - 1.0);
            }
            e_in = e_out;
        }
        None
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4000))]

        /// The stack-array cores give the allocating search's order, score
        /// bits and error variant on every input, including ties.
        #[test]
        fn cores_match_the_allocating_search(
            n in 0usize..8,
            seed in 0u64..u64::MAX,
            on_edge in proptest::bool::ANY,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let hits = edge_event(n, &mut rng);
            let margin = on_edge
                .then(|| edge_margin(&hits))
                .flatten()
                .unwrap_or_else(|| rng.gen_range(0.0..0.3));
            let got = sequence_hits(&hits, margin);
            let want = reference::sequence_hits(&hits, margin);
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    proptest::prop_assert_eq!(&g.order, &w.order);
                    proptest::prop_assert_eq!(
                        g.redundancy_score.to_bits(),
                        w.redundancy_score.to_bits()
                    );
                }
                (g, w) => proptest::prop_assert_eq!(g.err(), w.err()),
            }
        }
    }

    #[test]
    fn noisy_chain_still_mostly_sequenced() {
        use adapt_math::sampling::normal;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut correct = 0;
        let n = 200;
        for i in 0..n {
            let mut hits = exact_chain(0.8 + (i as f64) * 0.002, 30.0 + (i as f64) * 0.2);
            for h in &mut hits {
                h.energy = normal(&mut rng, h.energy, 0.01).max(0.02);
            }
            let shuffled = vec![hits[1], hits[0], hits[2]];
            if let Ok(seq) = sequence_hits(&shuffled, 0.2) {
                if seq.order == vec![1, 0, 2] {
                    correct += 1;
                }
            }
        }
        assert!(
            correct > n * 7 / 10,
            "only {correct}/{n} sequenced correctly"
        );
    }
}
