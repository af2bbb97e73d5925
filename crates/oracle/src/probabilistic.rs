//! Probabilistic **persistent** noise model — Section 2.2.
//!
//! Every distinct query is answered incorrectly with probability `p < 1/2`,
//! and repeating the query returns the *same* answer, so the standard
//! repeat-and-majority-vote trick is useless (the crucial difficulty the
//! paper's probabilistic algorithms are designed around).
//!
//! We realise persistence without memoising a query table: the error coin of
//! a query is a seeded hash of its canonical form. Two consequences that
//! match a persistent human/classifier oracle:
//!
//! * asking the same question twice gives the same answer, bit for bit;
//! * asking the *mirrored* question (`le(j,i)` instead of `le(i,j)`) gives
//!   the complementary answer — the oracle holds one consistent (possibly
//!   wrong) belief about each unordered comparison.

use crate::persistent::PersistentNoise;
use crate::{ComparisonOracle, QuadrupletOracle};
use nco_metric::hashing;
use nco_metric::Metric;

fn validate_p(p: f64) {
    assert!(
        (0.0..0.5).contains(&p),
        "error probability p = {p} must lie in [0, 0.5)"
    );
}

/// Persistent probabilistic comparison oracle over hidden values.
#[derive(Debug, Clone)]
pub struct ProbValueOracle {
    values: Vec<f64>,
    p: f64,
    /// Precomputed seed-absorption round ([`hashing::mix_seed`]) — one
    /// splitmix round saved on every coin, digest-identical.
    seed_h: u64,
}

impl ProbValueOracle {
    /// Builds the oracle with per-query error probability `p in [0, 0.5)`.
    ///
    /// # Panics
    /// Panics if `p` is out of range or any value is non-finite.
    pub fn new(values: Vec<f64>, p: f64, seed: u64) -> Self {
        validate_p(p);
        assert!(values.iter().all(|v| v.is_finite()));
        Self {
            values,
            p,
            seed_h: hashing::mix_seed(seed),
        }
    }

    /// The error probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Ground-truth values (evaluation only).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl ComparisonOracle for ProbValueOracle {
    fn n(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn le(&mut self, i: usize, j: usize) -> bool {
        if i == j {
            return true; // degenerate self-comparison: trivially Yes
        }
        let swapped = i > j;
        let (a, b) = if swapped { (j, i) } else { (i, j) };
        let truth = self.values[a] <= self.values[b];
        // `mix2_from` is the unrolled, digest-identical form of
        // `bernoulli(seed, &[a, b], p)` — this is the hottest line in the
        // probabilistic workloads.
        let flip = hashing::unit_f64(hashing::mix2_from(self.seed_h, a as u64, b as u64)) < self.p;
        (truth ^ flip) ^ swapped
    }
}

impl PersistentNoise for ProbValueOracle {}

/// Persistent probabilistic quadruplet oracle over a hidden metric.
#[derive(Debug, Clone)]
pub struct ProbQuadOracle<M> {
    metric: M,
    p: f64,
    /// Precomputed seed-absorption round ([`hashing::mix_seed`]) — one
    /// splitmix round saved on every coin, digest-identical.
    seed_h: u64,
}

impl<M: Metric> ProbQuadOracle<M> {
    /// Builds the oracle with per-query error probability `p in [0, 0.5)`.
    pub fn new(metric: M, p: f64, seed: u64) -> Self {
        validate_p(p);
        Self {
            metric,
            p,
            seed_h: hashing::mix_seed(seed),
        }
    }

    /// The error probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The hidden metric (evaluation only).
    pub fn metric(&self) -> &M {
        &self.metric
    }
}

impl<M: Metric> QuadrupletOracle for ProbQuadOracle<M> {
    fn n(&self) -> usize {
        self.metric.len()
    }

    #[inline]
    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        self.answer(a, b, c, d)
    }

    /// Batched round: the split between distance evaluation and noise
    /// coins is architectural — truth bits come from `Metric::dist`, which
    /// is where batching/sharing lives (wrap the metric in
    /// `nco_metric::DistCache` and one evaluation serves every query of
    /// every round touching the pair, including the sequential tournament
    /// duels no round can batch), while the coins are derived here in
    /// serial query order, so the answer transcript is bit-identical to
    /// the scalar loop. A per-round dedup map was measured at this layer
    /// and rejected: over a cached metric a probe costs more than the
    /// lookup it saves, and over a lazy metric it cannot help the duels.
    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        out.reserve(queries.len());
        for &[a, b, c, d] in queries {
            let ans = self.answer(a, b, c, d);
            out.push(ans);
        }
    }
}

impl<M: Metric> ProbQuadOracle<M> {
    /// Canonicalise each unordered pair, order the two pairs, and answer —
    /// the pure-function core shared by `le` and `le_batch`.
    #[inline]
    fn answer(&self, a: usize, b: usize, c: usize, d: usize) -> bool {
        let p1 = if a <= b { (a, b) } else { (b, a) };
        let p2 = if c <= d { (c, d) } else { (d, c) };
        if p1 == p2 {
            return true; // identical pairs tie: trivially Yes
        }
        let swapped = p1 > p2;
        let (q1, q2) = if swapped { (p2, p1) } else { (p1, p2) };
        let truth = self.metric.dist(q1.0, q1.1) <= self.metric.dist(q2.0, q2.1);
        // Unrolled, digest-identical form of `bernoulli(seed, &[..4], p)`.
        let flip = hashing::unit_f64(hashing::mix4_from(
            self.seed_h,
            q1.0 as u64,
            q1.1 as u64,
            q2.0 as u64,
            q2.1 as u64,
        )) < self.p;
        (truth ^ flip) ^ swapped
    }
}

impl<M: Metric> PersistentNoise for ProbQuadOracle<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::EuclideanMetric;

    #[test]
    fn zero_noise_is_exact() {
        let mut o = ProbValueOracle::new(vec![1.0, 2.0, 3.0], 0.0, 9);
        assert!(o.le(0, 1));
        assert!(!o.le(2, 0));
        assert!(o.le(1, 1));
    }

    #[test]
    fn answers_are_persistent_and_complementary() {
        let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut o = ProbValueOracle::new(values, 0.3, 1234);
        for i in 0..50 {
            for j in (i + 1)..50 {
                let a = o.le(i, j);
                assert_eq!(o.le(i, j), a, "persistence violated at ({i},{j})");
                assert_eq!(o.le(j, i), !a, "complement violated at ({i},{j})");
            }
        }
    }

    #[test]
    fn error_rate_approximates_p() {
        let n = 400usize;
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut o = ProbValueOracle::new(values.clone(), 0.2, 777);
        let mut wrong = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                total += 1;
                if o.le(i, j) != (values[i] <= values[j]) {
                    wrong += 1;
                }
            }
        }
        let rate = wrong as f64 / total as f64;
        assert!((rate - 0.2).abs() < 0.01, "observed error rate {rate}");
    }

    #[test]
    fn quad_oracle_persistent_and_pair_symmetric() {
        let m = EuclideanMetric::from_points(&(0..20).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let mut o = ProbQuadOracle::new(m, 0.3, 5);
        let a = o.le(0, 3, 1, 5);
        // Pair-order within a pair must not matter (d is symmetric).
        assert_eq!(o.le(3, 0, 1, 5), a);
        assert_eq!(o.le(0, 3, 5, 1), a);
        assert_eq!(o.le(3, 0, 5, 1), a);
        // Mirrored query is complementary.
        assert_eq!(o.le(1, 5, 0, 3), !a);
        // Identical pairs tie.
        assert!(o.le(4, 7, 7, 4));
    }

    #[test]
    fn quad_error_rate_approximates_p() {
        let m = EuclideanMetric::from_points(
            &(0..40).map(|i| vec![(i * i) as f64]).collect::<Vec<_>>(),
        );
        let mut o = ProbQuadOracle::new(m, 0.25, 99);
        let mut wrong = 0usize;
        let mut total = 0usize;
        for a in 0..40usize {
            for c in 0..40usize {
                for delta in 1..4usize {
                    let b = (a + delta) % 40;
                    let d = (c + 2 * delta) % 40;
                    let p1 = (a.min(b), a.max(b));
                    let p2 = (c.min(d), c.max(d));
                    if p1 >= p2 {
                        continue;
                    }
                    total += 1;
                    let truth = o.metric().dist(a, b) <= o.metric().dist(c, d);
                    if o.le(a, b, c, d) != truth {
                        wrong += 1;
                    }
                }
            }
        }
        let rate = wrong as f64 / total as f64;
        assert!(
            (rate - 0.25).abs() < 0.03,
            "observed error rate {rate} over {total}"
        );
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 0.5)")]
    fn rejects_p_half() {
        let _ = ProbValueOracle::new(vec![0.0], 0.5, 0);
    }
}
