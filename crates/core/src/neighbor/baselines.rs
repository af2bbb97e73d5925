//! Farthest / nearest baselines of the paper's evaluation (Section 6.1):
//!
//! * **Tour2** — a binary tournament over all candidates (Algorithm 2 with
//!   `lambda = 2`), i.e. the classic noisy-max approach of Davidson et al.
//!   *without* query repetition. Strong when few records are confusable
//!   with the optimum, brittle otherwise — exactly the behaviour Figs. 8–9
//!   chart.
//! * **Samp** — Count-Max over a uniform sample of `sqrt(n)` records. Wins
//!   when many records are near-optimal (amazon/caltech), loses badly when
//!   the optimum is unique (cities), per Section 6.3's discussion.

use crate::comparator::{PairDistCmp, Rev};
use crate::maxfind::{count_max, count_min, tournament};
use nco_oracle::QuadrupletOracle;
use rand::seq::SliceRandom;
use rand::Rng;

/// `Tour2` farthest: binary tournament over all candidates.
pub fn farthest_tour2<O, R>(oracle: &mut O, q: usize, rng: &mut R) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let items = super::candidates_excluding(oracle.n(), q);
    tournament(&items, 2, &mut PairDistCmp::new(oracle, |v| (q, v)), rng)
}

/// `Tour2` nearest: binary tournament with the reversed comparator.
pub fn nearest_tour2<O, R>(oracle: &mut O, q: usize, rng: &mut R) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let items = super::candidates_excluding(oracle.n(), q);
    let mut cmp = Rev(PairDistCmp::new(oracle, |v| (q, v)));
    tournament(&items, 2, &mut cmp, rng)
}

/// `Samp` farthest: Count-Max over a uniform sample of `ceil(sqrt(n))`
/// candidates.
pub fn farthest_samp<O, R>(oracle: &mut O, q: usize, rng: &mut R) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let sample = sqrt_sample(oracle.n(), q, rng);
    count_max(&sample, &mut PairDistCmp::new(oracle, |v| (q, v)))
}

/// `Samp` nearest: Count-Max over a `sqrt(n)` sample, reversed comparator.
pub fn nearest_samp<O, R>(oracle: &mut O, q: usize, rng: &mut R) -> Option<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let sample = sqrt_sample(oracle.n(), q, rng);
    count_min(&sample, &mut PairDistCmp::new(oracle, |v| (q, v)))
}

fn sqrt_sample<R: Rng + ?Sized>(n: usize, q: usize, rng: &mut R) -> Vec<usize> {
    let mut cands = super::candidates_excluding(n, q);
    cands.shuffle(rng);
    let keep = ((n as f64).sqrt().ceil() as usize).clamp(1, cands.len());
    cands.truncate(keep);
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::stats::{exact_farthest, exact_nearest};
    use nco_metric::EuclideanMetric;
    use nco_oracle::counting::Counting;
    use nco_oracle::TrueQuadOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn cloud(n: usize) -> EuclideanMetric {
        EuclideanMetric::from_points(
            &(0..n)
                .map(|i| vec![((i * 29) % 101) as f64, ((i * 53) % 97) as f64])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn tour2_exact_oracle_is_exact() {
        let m = cloud(100);
        let (tf, _) = exact_farthest(&m, 0, 0..100).unwrap();
        let (tn, _) = exact_nearest(&m, 0, 0..100).unwrap();
        let mut o = TrueQuadOracle::new(m);
        assert_eq!(farthest_tour2(&mut o, 0, &mut rng(1)), Some(tf));
        assert_eq!(nearest_tour2(&mut o, 0, &mut rng(2)), Some(tn));
    }

    #[test]
    fn tour2_query_budget_is_linear() {
        let m = cloud(257);
        let mut o = Counting::new(TrueQuadOracle::new(m));
        let _ = farthest_tour2(&mut o, 0, &mut rng(3));
        assert_eq!(o.queries(), 255); // n-1 candidates, one query per duel
    }

    #[test]
    fn samp_uses_quadratic_queries_on_a_root_sample() {
        let m = cloud(256);
        let mut o = Counting::new(TrueQuadOracle::new(m));
        let _ = farthest_samp(&mut o, 0, &mut rng(4));
        // 16 sampled candidates -> C(16,2) = 120 queries.
        assert_eq!(o.queries(), 120);
    }

    #[test]
    fn samp_returns_some_candidate_not_the_query() {
        let m = cloud(64);
        let mut o = TrueQuadOracle::new(m);
        for seed in 0..10 {
            let f = farthest_samp(&mut o, 7, &mut rng(seed)).unwrap();
            assert_ne!(f, 7);
            let nn = nearest_samp(&mut o, 7, &mut rng(seed)).unwrap();
            assert_ne!(nn, 7);
        }
    }

    /// The skew story of Section 6.3: with a unique far outlier, Samp's
    /// sqrt(n) sample usually misses it while Tour2 (exact here) finds it.
    #[test]
    fn samp_misses_unique_outlier_most_of_the_time() {
        let mut pts: Vec<Vec<f64>> = (0..400).map(|i| vec![(i % 20) as f64]).collect();
        pts.push(vec![10_000.0]);
        let m = EuclideanMetric::from_points(&pts);
        let outlier = 400usize;
        let mut misses = 0;
        let trials = 30;
        for seed in 0..trials {
            let mut o = TrueQuadOracle::new(m.clone());
            if farthest_samp(&mut o, 0, &mut rng(seed)).unwrap() != outlier {
                misses += 1;
            }
        }
        // Sample of ~21 out of 400 candidates: miss probability ~95%.
        assert!(misses >= trials * 2 / 3, "only {misses}/{trials} misses");
    }
}
