//! Lloyd-style local refinement for oracle k-center — a step toward the
//! paper's stated future work ("we believe our techniques can be useful
//! for other clustering tasks", Section 7).
//!
//! Alternates two oracle-only phases over an existing clustering:
//!
//! 1. **Re-center**: inside every cluster, replace the center with the
//!    member whose *eccentricity* (distance to its farthest co-member) is
//!    smallest — the cluster's approximate 1-center. Both halves use the
//!    Section 3 machinery: the farthest co-member of each candidate via
//!    [`farthest_adv_among`], then the minimum over the (candidate,
//!    witness) pairs via `min_adv` with a pair-distance comparator.
//!    To keep the round at `O(|C| * c)` queries per cluster, candidates
//!    are subsampled when clusters are large.
//! 2. **Re-assign**: the full MCount vote of Algorithm 6's Assign.
//!
//! Each phase can only (approximately) improve the max-radius objective;
//! iterating a couple of rounds after the greedy typically shaves the
//! constant — measured in the ablation bench.

use super::Clustering;
use crate::comparator::PairDistCmp;
use crate::maxfind::{min_adv, AdvParams};
use crate::neighbor::farthest_adv_among;
use nco_oracle::QuadrupletOracle;
use rand::seq::SliceRandom;
use rand::Rng;

/// Parameters for [`refine_kcenter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefineParams {
    /// Refinement rounds (each = re-center + re-assign).
    pub rounds: usize,
    /// Cap on re-center candidates per cluster (subsampled beyond this).
    pub center_candidates: usize,
    /// Max-Adv configuration for the inner searches.
    pub search: AdvParams,
}

impl RefineParams {
    /// Default rounds/candidates with the inner searches run at failure
    /// probability `delta` — the confidence constructor every `*Params`
    /// struct in this crate shares.
    ///
    /// # Panics
    /// Panics unless `0 < delta < 1`.
    pub fn with_confidence(delta: f64) -> Self {
        Self {
            search: AdvParams::with_confidence(delta),
            ..Self::default()
        }
    }
}

impl Default for RefineParams {
    fn default() -> Self {
        Self {
            rounds: 2,
            center_candidates: 24,
            search: AdvParams::experimental(),
        }
    }
}

/// Refines a clustering in place; returns the refined clustering.
///
/// # Panics
/// Panics if the clustering does not cover `oracle.n()` points.
pub fn refine_kcenter<O, R>(
    mut clustering: Clustering,
    params: &RefineParams,
    oracle: &mut O,
    rng: &mut R,
) -> Clustering
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = oracle.n();
    assert_eq!(clustering.n(), n, "clustering must cover all records");
    let k = clustering.k();

    for _ in 0..params.rounds {
        // Phase 1: re-center every cluster at its approximate 1-center.
        for c in 0..k {
            let members = clustering.members(c);
            if members.len() <= 2 {
                continue;
            }
            let mut candidates = members.clone();
            if candidates.len() > params.center_candidates {
                candidates.shuffle(rng);
                candidates.truncate(params.center_candidates);
                // The incumbent center always stays in the running.
                let incumbent = clustering.centers[c];
                if !candidates.contains(&incumbent) {
                    candidates[0] = incumbent;
                }
            }
            // Eccentricity witness for every candidate.
            let pairs: Vec<(usize, usize)> = candidates
                .iter()
                .filter_map(|&u| {
                    farthest_adv_among(oracle, u, &members, &params.search, rng).map(|w| (u, w))
                })
                .collect();
            if pairs.is_empty() {
                continue;
            }
            // Least-eccentric candidate = minimum pair distance.
            let mut cmp = PairDistCmp::new(oracle, |p| p);
            let best = min_adv(&pairs, &params.search, &mut cmp, rng).expect("non-empty pairs");
            clustering.centers[c] = best.0;
        }
        // Centers must map to themselves even if they changed cluster
        // membership semantics.
        for (pos, &center) in clustering.centers.iter().enumerate() {
            clustering.assignment[center] = pos;
        }

        // Phase 2: full MCount re-assignment against the new centers.
        let centers = clustering.centers.clone();
        for v in 0..n {
            if centers.contains(&v) {
                continue;
            }
            let mut wins = vec![0u32; k];
            for a in 0..k {
                for b in (a + 1)..k {
                    if oracle.le(centers[a], v, centers[b], v) {
                        wins[a] += 1;
                    } else {
                        wins[b] += 1;
                    }
                }
            }
            clustering.assignment[v] = wins
                .iter()
                .enumerate()
                .max_by(|x, y| x.1.cmp(y.1).then(y.0.cmp(&x.0)))
                .map(|(j, _)| j)
                .expect("k >= 1");
        }
    }
    clustering.validate();
    clustering
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcenter::{gonzalez, kcenter_adv, KCenterAdvParams};
    use nco_metric::stats::kcenter_objective;
    use nco_metric::EuclideanMetric;
    use nco_oracle::adversarial::{AdversarialQuadOracle, InvertAdversary};
    use nco_oracle::TrueQuadOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn blobs() -> EuclideanMetric {
        let centers = [(0.0, 0.0), (60.0, 0.0), (0.0, 60.0)];
        let mut pts = Vec::new();
        for &(cx, cy) in &centers {
            for p in 0..20 {
                let a = p as f64;
                pts.push(vec![cx + 3.0 * (a * 0.9).sin(), cy + 3.0 * (a * 1.7).cos()]);
            }
        }
        EuclideanMetric::from_points(&pts)
    }

    #[test]
    fn refinement_fixes_bad_assignment_and_off_center_choices() {
        let m = blobs();
        // One center per blob but all of them edge points, and every point
        // initially dumped into cluster 0 — the situation Lloyd-style
        // refinement is made for (it cannot relocate centers *across*
        // blobs, so each cluster must start with one).
        let start = Clustering {
            centers: vec![0, 20, 40],
            assignment: {
                let mut a = vec![0usize; 60];
                a[20] = 1;
                a[40] = 2;
                a
            },
        };
        let before = kcenter_objective(&m, &start.centers, &start.assignment);
        let mut o = TrueQuadOracle::new(m.clone());
        let refined = refine_kcenter(start, &RefineParams::default(), &mut o, &mut rng(1));
        let after = kcenter_objective(&m, &refined.centers, &refined.assignment);
        assert!(
            after <= before + 1e-9,
            "refinement must not worsen: {after} vs {before}"
        );
        // Re-assignment splits the blobs; the radius drops from the
        // cross-blob scale (~60+) to the intra-blob scale (<= ~7).
        assert!(after < 10.0, "expected intra-blob radius, got {after}");
    }

    #[test]
    fn refinement_after_noisy_greedy_helps_or_holds() {
        let m = blobs();
        let mut improvements = 0;
        let trials = 6;
        for seed in 0..trials {
            let mut o = AdversarialQuadOracle::new(m.clone(), 0.8, InvertAdversary);
            let g = kcenter_adv(&KCenterAdvParams::experimental(3), &mut o, &mut rng(seed));
            let before = kcenter_objective(&m, &g.centers, &g.assignment);
            let refined = refine_kcenter(g, &RefineParams::default(), &mut o, &mut rng(100 + seed));
            let after = kcenter_objective(&m, &refined.centers, &refined.assignment);
            if after <= before + 1e-9 {
                improvements += 1;
            }
        }
        assert!(
            improvements >= trials - 1,
            "refinement regressed in {} runs",
            trials - improvements
        );
    }

    #[test]
    fn refined_clustering_matches_gonzalez_quality_with_perfect_oracle() {
        let m = blobs();
        let g = gonzalez(&m, 3, Some(0));
        let g_obj = kcenter_objective(&m, &g.centers, &g.assignment);
        let mut o = TrueQuadOracle::new(m.clone());
        let noisy = kcenter_adv(
            &KCenterAdvParams {
                first_center: Some(0),
                ..KCenterAdvParams::experimental(3)
            },
            &mut o,
            &mut rng(4),
        );
        let refined = refine_kcenter(noisy, &RefineParams::default(), &mut o, &mut rng(5));
        let obj = kcenter_objective(&m, &refined.centers, &refined.assignment);
        assert!(obj <= g_obj + 1e-9, "refined {obj} vs greedy {g_obj}");
    }
}
