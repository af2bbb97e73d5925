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
use crate::source::{absorb, Distances, Operand, Query, Source, Values};
use nco_metric::hashing;

/// Persistent probabilistic oracle over hidden values or a hidden metric.
#[derive(Debug, Clone)]
pub struct ProbOracle<S> {
    source: S,
    p: f64,
    /// Precomputed seed-absorption round ([`hashing::mix_seed`]) — one
    /// splitmix round saved on every coin, digest-identical.
    seed_h: u64,
}

/// Persistent probabilistic comparison oracle over hidden values.
pub type ProbValueOracle = ProbOracle<Values>;

/// Persistent probabilistic quadruplet oracle over a hidden metric.
pub type ProbQuadOracle<M> = ProbOracle<Distances<M>>;

impl<S: Source> ProbOracle<S> {
    /// Builds the oracle with per-query error probability `p in [0, 0.5)`.
    ///
    /// # Panics
    /// Panics if `p` is out of range or any value is non-finite.
    pub fn new(hidden: S::Hidden, p: f64, seed: u64) -> Self {
        assert!(
            (0.0..0.5).contains(&p),
            "error probability p = {p} must lie in [0, 0.5)"
        );
        Self {
            source: S::new(hidden),
            p,
            seed_h: hashing::mix_seed(seed),
        }
    }

    /// The error probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Orders the two operands `a < b`, flips the truth between them with
    /// a coin over their words (`bernoulli(seed, &[a.., b..], p)`), and
    /// mirrors the answer back. Identical operands tie: trivially `Yes`.
    #[inline]
    fn answer(&self, q: S::Query, right: &mut S::Right) -> bool {
        let Some((l, r)) = q.split() else {
            return true;
        };
        let swapped = l > r;
        let (a, b) = if swapped { (r, l) } else { (l, r) };
        // Read in canonical order: on the value source, the hottest path,
        // reading in query order and swapping after measured ~15% slower.
        let (ma, mb) = self.source.magnitudes(a, b, right);
        let truth = ma <= mb;
        let h = absorb(absorb(self.seed_h, a.words().as_ref()), b.words().as_ref());
        (truth ^ (hashing::unit_f64(h) < self.p)) ^ swapped
    }
}

noise_traits!(ProbOracle[]);

impl<S> PersistentNoise for ProbOracle<S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComparisonOracle, QuadrupletOracle};
    use nco_metric::{EuclideanMetric, Metric};

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
