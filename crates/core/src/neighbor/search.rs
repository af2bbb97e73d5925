//! Farthest / nearest neighbour searches (Algorithms 13–16, Theorems 3.6 &
//! 3.10 instantiated for distances from a query record).

use super::core_set::build_core;
use super::pairwise::PairwiseCmp;
use crate::comparator::{PairDistCmp, Rev};
use crate::maxfind::{max_adv, min_adv, AdvParams};
use nco_oracle::QuadrupletOracle;
use rand::Rng;

/// Farthest record from `q` under adversarial noise: Max-Adv over the
/// distance set `D(q)` with raw quadruplet comparisons. `(1+mu)^3`
/// guarantee by Theorem 3.6.
pub fn farthest_adv<O, R>(
    oracle: &mut O,
    q: usize,
    params: &AdvParams,
    rng: &mut R,
) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let cands = super::candidates_excluding(oracle.n(), q);
    farthest_adv_among(oracle, q, &cands, params, rng)
}

/// [`farthest_adv`] restricted to an explicit candidate set.
pub fn farthest_adv_among<O, R>(
    oracle: &mut O,
    q: usize,
    candidates: &[usize],
    params: &AdvParams,
    rng: &mut R,
) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let items: Vec<usize> = candidates.iter().copied().filter(|&v| v != q).collect();
    let mut cmp = PairDistCmp::new(oracle, |v| (q, v));
    max_adv(&items, params, &mut cmp, rng)
}

/// Nearest record to `q` under adversarial noise (reversed comparator).
pub fn nearest_adv<O, R>(oracle: &mut O, q: usize, params: &AdvParams, rng: &mut R) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let cands = super::candidates_excluding(oracle.n(), q);
    nearest_adv_among(oracle, q, &cands, params, rng)
}

/// [`nearest_adv`] restricted to an explicit candidate set.
pub fn nearest_adv_among<O, R>(
    oracle: &mut O,
    q: usize,
    candidates: &[usize],
    params: &AdvParams,
    rng: &mut R,
) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let items: Vec<usize> = candidates.iter().copied().filter(|&v| v != q).collect();
    let mut cmp = PairDistCmp::new(oracle, |v| (q, v));
    min_adv(&items, params, &mut cmp, rng)
}

/// Farthest record from `q` under probabilistic noise, given a core `S` of
/// records within `alpha` of `q` — Theorem 3.10: the result is within an
/// additive `6*alpha` of the optimum w.p. `1 - delta`, using
/// `O(n log^3(n/delta))` queries.
///
/// Every pairwise comparison of the Max-Adv engine is routed through
/// PairwiseComp (Algorithm 5) on `core`.
pub fn farthest_with_core<O, R>(
    oracle: &mut O,
    q: usize,
    core: &[usize],
    params: &AdvParams,
    rng: &mut R,
) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let items: Vec<usize> = super::candidates_excluding(oracle.n(), q);
    max_adv(&items, params, &mut PairwiseCmp::new(oracle, core), rng)
}

/// Nearest twin of [`farthest_with_core`].
pub fn nearest_with_core<O, R>(
    oracle: &mut O,
    q: usize,
    core: &[usize],
    params: &AdvParams,
    rng: &mut R,
) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let items: Vec<usize> = super::candidates_excluding(oracle.n(), q);
    max_adv(
        &items,
        params,
        &mut Rev(PairwiseCmp::new(oracle, core)),
        rng,
    )
}

/// Convenience pipeline for probabilistic farthest search: builds the core
/// with Count scores (Algorithm 9 style), then runs [`farthest_with_core`].
///
/// `delta` controls the core size `ceil(6 ln(n/delta))` per Lemma 3.9.
pub fn farthest_prob<O, R>(
    oracle: &mut O,
    q: usize,
    delta: f64,
    params: &AdvParams,
    rng: &mut R,
) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let core = default_core(oracle, q, delta, rng)?;
    farthest_with_core(oracle, q, &core, params, rng)
}

/// Convenience pipeline for probabilistic nearest search.
pub fn nearest_prob<O, R>(
    oracle: &mut O,
    q: usize,
    delta: f64,
    params: &AdvParams,
    rng: &mut R,
) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let core = default_core(oracle, q, delta, rng)?;
    nearest_with_core(oracle, q, &core, params, rng)
}

fn default_core<O, R>(oracle: &mut O, q: usize, delta: f64, rng: &mut R) -> Option<Vec<usize>>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    let n = oracle.n();
    if n < 2 {
        return None;
    }
    let cands = super::candidates_excluding(n, q);
    let ln_term = (n as f64 / delta).ln();
    let size = ((6.0 * ln_term).ceil() as usize).clamp(1, cands.len());
    let probes = ((4.0 * ln_term).ceil() as usize).clamp(1, cands.len());
    Some(build_core(oracle, q, &cands, size, probes, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::stats::{exact_farthest, exact_nearest, farthest_rank, nearest_rank};
    use nco_metric::{EuclideanMetric, Metric};
    use nco_oracle::adversarial::{AdversarialQuadOracle, InvertAdversary};
    use nco_oracle::probabilistic::ProbQuadOracle;
    use nco_oracle::TrueQuadOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn grid(n: usize) -> EuclideanMetric {
        EuclideanMetric::from_points(
            &(0..n)
                .map(|i| vec![(i % 17) as f64, (i / 17) as f64 * 1.37])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn perfect_oracle_exact_farthest_and_nearest() {
        let m = grid(120);
        let (tf, _) = exact_farthest(&m, 0, 0..120).unwrap();
        let (tn, _) = exact_nearest(&m, 0, 0..120).unwrap();
        let mut o = TrueQuadOracle::new(m);
        let p = AdvParams::with_confidence(0.05);
        assert_eq!(farthest_adv(&mut o, 0, &p, &mut rng(1)), Some(tf));
        assert_eq!(nearest_adv(&mut o, 0, &p, &mut rng(2)), Some(tn));
    }

    /// Example 3.8 / Figure 2 of the paper: the farthest-point worst case.
    /// Points s=0, u=51, v=101, w=102, t=202 with mu = 1: Count-Max's
    /// scores become (u,v,w,t) = (2,2,1,1) and the returned farthest is a
    /// ~3.96 < (1+mu)^2 approximation.
    #[test]
    fn paper_example_3_8_farthest_worst_case() {
        use crate::maxfind::{count_max, count_scores};
        let m = EuclideanMetric::from_points(&[
            vec![0.0],   // s (query)
            vec![51.0],  // u
            vec![101.0], // v
            vec![102.0], // w
            vec![202.0], // t
        ]);
        let mut o = AdversarialQuadOracle::new(m, 1.0, InvertAdversary);
        let items = [1usize, 2, 3, 4];
        let scores = count_scores(&items, &mut PairDistCmp::new(&mut o, |v| (0, v)));
        assert_eq!(scores, vec![2, 2, 1, 1]);
        let far = count_max(&items, &mut PairDistCmp::new(&mut o, |v| (0, v))).unwrap();
        let ratio = 202.0 / (far as f64 * 0.0 + [51.0, 101.0, 102.0, 202.0][far - 1]);
        assert!(ratio <= 4.0, "approximation ratio {ratio} within (1+mu)^2");
    }

    #[test]
    fn adversarial_farthest_within_cubed_band() {
        let m = grid(150);
        let (_, dmax) = exact_farthest(&m, 3, 0..150).unwrap();
        let mu = 0.4;
        let mut ok = 0;
        let trials = 25;
        for seed in 0..trials {
            let mut o = AdversarialQuadOracle::new(m.clone(), mu, InvertAdversary);
            let got = farthest_adv(
                &mut o,
                3,
                &AdvParams::with_confidence(0.1),
                &mut rng(40 + seed),
            )
            .unwrap();
            if m.dist(3, got) * (1.0 + mu).powi(3) >= dmax - 1e-9 {
                ok += 1;
            }
        }
        assert!(ok >= trials * 8 / 10, "{ok}/{trials} within bound");
    }

    #[test]
    fn probabilistic_farthest_lands_near_the_top() {
        let m = grid(200);
        let trials = 15;
        let mut good = 0;
        for seed in 0..trials {
            let mut o = ProbQuadOracle::new(m.clone(), 0.2, 900 + seed);
            let got = farthest_prob(
                &mut o,
                5,
                0.1,
                &AdvParams::with_confidence(0.1),
                &mut rng(700 + seed),
            )
            .unwrap();
            if farthest_rank(&m, 5, got) <= 20 {
                good += 1;
            }
        }
        assert!(
            good >= trials * 2 / 3,
            "only {good}/{trials} in the top 10%"
        );
    }

    /// The additive `6*alpha` guarantee is only meaningful when the
    /// query's neighbourhood is tight (small `alpha`): a dense cluster at
    /// the query plus a spread-out far field. The returned neighbour must
    /// come from the dense cluster.
    #[test]
    fn probabilistic_nearest_stays_in_the_dense_cluster() {
        let mut pts: Vec<Vec<f64>> = vec![vec![0.0]];
        for i in 0..60 {
            pts.push(vec![0.3 + 0.01 * i as f64]); // dense cluster, alpha < 1
        }
        for i in 0..140 {
            pts.push(vec![30.0 + 2.0 * i as f64]); // far field
        }
        let m = EuclideanMetric::from_points(&pts);
        let trials = 15;
        let mut good = 0;
        for seed in 0..trials {
            let mut o = ProbQuadOracle::new(m.clone(), 0.15, 300 + seed);
            let got = nearest_prob(
                &mut o,
                0,
                0.1,
                &AdvParams::with_confidence(0.1),
                &mut rng(800 + seed),
            )
            .unwrap();
            if m.dist(0, got) < 1.0 {
                good += 1;
            }
        }
        assert!(
            good >= trials * 4 / 5,
            "only {good}/{trials} inside the dense cluster"
        );
        // Even at p = 0, PairwiseComp cannot resolve pairs within 2*alpha
        // of each other (the additive blind spot of Lemma 3.9), so the
        // noiseless sanity check is cluster containment, not exact rank.
        let mut o = ProbQuadOracle::new(m.clone(), 0.0, 1);
        let got = nearest_prob(
            &mut o,
            0,
            0.1,
            &AdvParams::with_confidence(0.1),
            &mut rng(4),
        )
        .unwrap();
        assert!(m.dist(0, got) < 1.0, "rank {}", nearest_rank(&m, 0, got));
    }

    /// Theorem 3.10's additive guarantee on a line: with a tight core
    /// (alpha small vs. the diameter), the farthest is within 6*alpha.
    #[test]
    fn theorem_3_10_additive_guarantee() {
        let mut pts: Vec<Vec<f64>> = Vec::new();
        pts.push(vec![0.0]); // query
        for i in 0..20 {
            pts.push(vec![0.5 + 0.02 * i as f64]); // tight near-neighbourhood, alpha ~ 0.9
        }
        for i in 0..60 {
            pts.push(vec![10.0 + i as f64]); // spread-out far field, max = 69 + 10
        }
        let m = EuclideanMetric::from_points(&pts);
        let dmax = exact_farthest(&m, 0, 0..m.len()).unwrap().1;
        let alpha = 0.9;
        let core: Vec<usize> = (1..=15).collect();
        let mut ok = 0;
        let trials = 20;
        for seed in 0..trials {
            let mut o = ProbQuadOracle::new(m.clone(), 0.2, 40 + seed);
            let got = farthest_with_core(
                &mut o,
                0,
                &core,
                &AdvParams::with_confidence(0.1),
                &mut rng(seed),
            )
            .unwrap();
            if m.dist(0, got) >= dmax - 6.0 * alpha {
                ok += 1;
            }
        }
        assert!(
            ok >= trials * 8 / 10,
            "{ok}/{trials} within additive 6*alpha"
        );
    }

    #[test]
    fn candidate_restriction_is_respected() {
        let m = grid(50);
        let mut o = TrueQuadOracle::new(m);
        let cands = [4usize, 9, 14];
        let got = farthest_adv_among(
            &mut o,
            0,
            &cands,
            &AdvParams::with_confidence(0.05),
            &mut rng(6),
        )
        .unwrap();
        assert!(cands.contains(&got));
    }
}
