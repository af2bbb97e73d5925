//! Algorithm 6 — greedy k-center under adversarial noise (Theorem 4.2).
//!
//! Two robust subroutines replace the greedy's primitives:
//!
//! * **Approx-Farthest** — Max-Adv (Algorithm 4) over items "point `v` at
//!   distance `d(v, center(v))`", compared by quadruplet queries
//!   `O(v, s_v, w, s_w)`; a `(1+mu)^5` farthest approximation per
//!   Lemma 10.3 once assignment error is accounted.
//! * **Assign** — every point keeps an `MCount` score against each center
//!   (`MCount(u, s_j)` = how many centers `s_k` the oracle deems farther
//!   from `u` than `s_j`); the point joins its top scorer. This is
//!   Count-Max over the k centers, so the chosen center is within
//!   `(1+mu)^2` of the closest one (Lemma 10.2). Scores are built
//!   *incrementally*: adding a center costs one query per (point, existing
//!   center), the O(nk) accounting of Lemma 10.4.
//!
//! Total: `(2 + O(mu))`-approximation with `O(nk^2 + nk log^2(k/delta))`
//! queries for `mu < 1/18` (Theorem 4.2).

use super::Clustering;
use crate::comparator::{Committees, PairDistCmp};
use crate::maxfind::{max_adv, AdvParams};
use nco_oracle::QuadrupletOracle;
use rand::Rng;

/// Parameters of the adversarial greedy (Algorithm 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KCenterAdvParams {
    /// Number of clusters.
    pub k: usize,
    /// First center; `None` picks uniformly at random (the paper's
    /// "arbitrary point").
    pub first_center: Option<usize>,
    /// Max-Adv configuration for each Approx-Farthest call. The paper uses
    /// `t = log(2k/delta)` for the theorem and `t = 1` in experiments.
    pub farthest: AdvParams,
}

impl KCenterAdvParams {
    /// Experimental configuration (Section 6.1): `t = 1`.
    pub fn experimental(k: usize) -> Self {
        Self {
            k,
            first_center: None,
            farthest: AdvParams::experimental(),
        }
    }

    /// Theorem 4.2 configuration: per-iteration failure `delta / k`.
    ///
    /// # Panics
    /// Panics unless `0 < delta < 1`.
    pub fn with_confidence(k: usize, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0);
        let t = ((2.0 * k as f64 / delta).log2().ceil() as usize).max(1);
        Self {
            k,
            first_center: None,
            farthest: AdvParams {
                rounds: t,
                partitions: None,
                sample_size: None,
            },
        }
    }
}

/// `k = 2` with the experimental constants — a runnable placeholder for
/// API symmetry; real callers set `k` for their instance.
impl Default for KCenterAdvParams {
    fn default() -> Self {
        Self::experimental(2)
    }
}

/// Algorithm 6: greedy k-center under adversarial noise.
///
/// # Panics
/// Panics if `k == 0` or `k > oracle.n()`.
pub fn kcenter_adv<O, R>(params: &KCenterAdvParams, oracle: &mut O, rng: &mut R) -> Clustering
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    kcenter_adv_with_progress(params, oracle, rng, &mut 0)
}

/// [`kcenter_adv`] with a clean-progress watermark: `clean` is advanced to
/// the number of leading centers that were selected *and* fully assigned
/// while the oracle was still returning real answers (`!oracle.doomed()`).
/// Doom latches monotonically at query boundaries, so
/// `clustering.centers[..clean]` is always a committee prefix built from
/// real answers; the query and rng sequences are exactly those of
/// [`kcenter_adv`].
///
/// # Panics
/// Panics if `k == 0` or `k > oracle.n()`.
pub fn kcenter_adv_with_progress<O, R>(
    params: &KCenterAdvParams,
    oracle: &mut O,
    rng: &mut R,
    clean: &mut usize,
) -> Clustering
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = oracle.n();
    let k = params.k;
    assert!(k >= 1 && k <= n, "need 1 <= k <= n (k = {k}, n = {n})");

    let first = params
        .first_center
        .unwrap_or_else(|| rng.random_range(0..n));
    assert!(first < n, "first center out of range");

    let mut centers: Vec<usize> = vec![first];
    let mut assignment: Vec<usize> = vec![0; n];
    let mut is_center: Vec<bool> = vec![false; n];
    is_center[first] = true;
    if !oracle.doomed() {
        *clean = 1; // the first center needs no queries
    }
    // mcount[v * k + j]: how many centers v's MCount deems farther than
    // center j (rows of centers are unused).
    let mut mcount: Vec<u32> = vec![0; n * k];
    let mut waves: Committees<usize, [usize; 4]> = Committees::default();

    while centers.len() < k {
        // Approx-Farthest over all non-center points.
        let items: Vec<usize> = (0..n).filter(|&v| !is_center[v]).collect();
        let mut cmp = PairDistCmp::new(oracle, |v| (v, centers[assignment[v]]));
        let far = max_adv(&items, &params.farthest, &mut cmp, rng)
            .expect("non-empty candidate set while centers < k <= n");

        let new_pos = centers.len();
        centers.push(far);
        is_center[far] = true;
        assignment[far] = new_pos;

        // Assign: extend each point's MCount with the new center — one
        // query per (point, existing center) — and re-take the argmax.
        // The points' committee scans are independent, so the whole wave
        // goes out as rounds of whole scans (the oracle then evaluates
        // d(far, v) once per point, not once per query), and the argmax
        // is maintained *incrementally*: counts only ever grow, and the
        // rescan's tie-break (highest count, then oldest center) is
        // preserved by never replacing the incumbent on a tie with a
        // newer center — so the assignment is exactly the full rescan's.
        waves.ask(
            items.iter().copied().filter(|&v| v != far),
            // O((s_j, v), (far, v)) == Yes  <=>  d(s_j, v) <= d(far, v).
            |v, round| round.extend(centers[..new_pos].iter().map(|&sj| [sj, v, far, v])),
            |round, answers| oracle.le_batch(round, answers),
            |v, answers| {
                let row = &mut mcount[v * k..v * k + new_pos + 1];
                let mut new_wins = 0u32;
                let (mut best, mut best_count) = (assignment[v], row[assignment[v]]);
                for (j, &yes) in answers.iter().enumerate() {
                    if yes {
                        row[j] += 1;
                        let c = row[j];
                        if c > best_count || (c == best_count && j < best) {
                            best = j;
                            best_count = c;
                        }
                    } else {
                        new_wins += 1;
                    }
                }
                row[new_pos] = new_wins;
                if new_wins > best_count {
                    best = new_pos;
                }
                assignment[v] = best;
            },
        );
        if !oracle.doomed() {
            *clean = centers.len();
        }
    }

    let clustering = Clustering {
        centers,
        assignment,
    };
    clustering.validate();
    clustering
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::stats::kcenter_objective;
    use nco_metric::EuclideanMetric;
    use nco_oracle::adversarial::{AdversarialQuadOracle, InvertAdversary};
    use nco_oracle::counting::Counting;
    use nco_oracle::TrueQuadOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn blobs(per: usize, centers: &[(f64, f64)], spread: f64) -> EuclideanMetric {
        let mut pts = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for p in 0..per {
                let a = (ci * per + p) as f64;
                pts.push(vec![
                    cx + spread * ((a * 0.7).sin()),
                    cy + spread * ((a * 1.3).cos()),
                ]);
            }
        }
        EuclideanMetric::from_points(&pts)
    }

    #[test]
    fn perfect_oracle_matches_gonzalez_objective() {
        let m = blobs(
            10,
            &[(0.0, 0.0), (40.0, 0.0), (0.0, 40.0), (40.0, 40.0)],
            1.0,
        );
        let g = super::super::gonzalez(&m, 4, Some(0));
        let g_obj = kcenter_objective(&m, &g.centers, &g.assignment);
        let mut o = TrueQuadOracle::new(m.clone());
        let params = KCenterAdvParams {
            first_center: Some(0),
            ..KCenterAdvParams::with_confidence(4, 0.05)
        };
        let c = kcenter_adv(&params, &mut o, &mut rng(1));
        let obj = kcenter_objective(&m, &c.centers, &c.assignment);
        // With a perfect oracle the noisy greedy is the exact greedy up to
        // tie-breaking; objectives match.
        assert!((obj - g_obj).abs() < 1e-9, "noisy {obj} vs exact {g_obj}");
    }

    /// Example 4.1: k = 2, mu = 1 on the Figure 2 line starting from w.
    /// The adversarial greedy reaches a 3-approximation (optimal radius 51,
    /// achieved radius <= 151).
    #[test]
    fn paper_example_4_1_bound() {
        let m = EuclideanMetric::from_points(&[
            vec![0.0],   // s
            vec![51.0],  // u
            vec![101.0], // v
            vec![102.0], // w
            vec![202.0], // t
        ]);
        let mut o = AdversarialQuadOracle::new(m.clone(), 1.0, InvertAdversary);
        let params = KCenterAdvParams {
            first_center: Some(3),
            ..KCenterAdvParams::with_confidence(2, 0.05)
        };
        let c = kcenter_adv(&params, &mut o, &mut rng(2));
        let obj = kcenter_objective(&m, &c.centers, &c.assignment);
        assert!(
            obj <= 3.0 * 51.0 + 1e-9,
            "objective {obj} within 3x OPT of the example"
        );
    }

    /// Theorem 4.2's shape: for small mu, the objective stays within a
    /// small constant of the best assignment achievable with the returned
    /// centers, and within (2 + O(mu)) * OPT-ish of the exact greedy.
    #[test]
    fn small_mu_objective_close_to_exact_greedy() {
        let m = blobs(
            15,
            &[
                (0.0, 0.0),
                (60.0, 0.0),
                (0.0, 60.0),
                (60.0, 60.0),
                (30.0, 30.0),
            ],
            1.5,
        );
        let g = super::super::gonzalez(&m, 5, Some(0));
        let g_obj = kcenter_objective(&m, &g.centers, &g.assignment);
        let mu = 0.05; // < 1/18
        let trials = 10;
        let mut ok = 0;
        for seed in 0..trials {
            let mut o = AdversarialQuadOracle::new(m.clone(), mu, InvertAdversary);
            let params = KCenterAdvParams {
                first_center: Some(0),
                ..KCenterAdvParams::with_confidence(5, 0.1)
            };
            let c = kcenter_adv(&params, &mut o, &mut rng(30 + seed));
            let obj = kcenter_objective(&m, &c.centers, &c.assignment);
            // Exact greedy is a 2-approx; theorem gives 2 + O(mu) of OPT,
            // so ~ (1 + O(mu)) relative to the greedy reference. Allow 2x.
            if obj <= 2.0 * g_obj + 1e-9 {
                ok += 1;
            }
        }
        assert!(
            ok >= trials * 8 / 10,
            "{ok}/{trials} runs within 2x of greedy"
        );
    }

    #[test]
    fn query_complexity_scales_as_nk_squared() {
        let m = blobs(
            40,
            &[(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)],
            2.0,
        );
        let n = 160;
        let k = 8;
        let mut o = Counting::new(TrueQuadOracle::new(m));
        let params = KCenterAdvParams {
            first_center: Some(0),
            ..KCenterAdvParams::experimental(k)
        };
        let _ = kcenter_adv(&params, &mut o, &mut rng(9));
        // Assign: sum_i n*i ≈ n k^2 / 2; farthest with t=1: ~3n per round.
        let budget = (n * k * k / 2 + 6 * n * k) as u64;
        assert!(o.queries() <= budget, "{} queries > {budget}", o.queries());
        assert!(
            o.queries() >= (n * (k - 1) / 2) as u64,
            "suspiciously few queries"
        );
    }

    #[test]
    fn centers_are_distinct_and_assignment_valid() {
        let m = blobs(12, &[(0.0, 0.0), (30.0, 0.0), (15.0, 25.0)], 1.0);
        let mut o = AdversarialQuadOracle::new(m, 0.5, InvertAdversary);
        let c = kcenter_adv(&KCenterAdvParams::experimental(6), &mut o, &mut rng(4));
        c.validate();
        let mut cs = c.centers.clone();
        cs.sort_unstable();
        cs.dedup();
        assert_eq!(cs.len(), 6, "centers must be distinct");
    }

    #[test]
    fn k_equals_one_assigns_everything_to_first() {
        let m = blobs(5, &[(0.0, 0.0)], 1.0);
        let mut o = TrueQuadOracle::new(m);
        let params = KCenterAdvParams {
            first_center: Some(2),
            ..KCenterAdvParams::experimental(1)
        };
        let c = kcenter_adv(&params, &mut o, &mut rng(0));
        assert_eq!(c.centers, vec![2]);
        assert!(c.assignment.iter().all(|&a| a == 0));
    }
}
