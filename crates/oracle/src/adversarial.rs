//! Adversarial (multiplicative-band) noise model — Section 2.2.
//!
//! A query comparing quantities `x` and `y` is answered **correctly** when
//! the values are well separated (`x < y/(1+mu)` or `x > (1+mu)·y`), and
//! **adversarially** when they fall inside the multiplicative band
//! `1/(1+mu) <= x/y <= 1+mu`. The paper allows the adversary to remember all
//! previous queries and coordinate its lies; we model its answers with the
//! [`Adversary`] strategy trait — a pure function of the query, so the
//! noise is persistent — whose implementations range from the
//! worst-case liar ([`InvertAdversary`]) that every approximation bound must
//! survive, to more realistic systematically-biased comparators
//! ([`ConsistentAdversary`]).

use crate::persistent::PersistentNoise;
use crate::{ComparisonOracle, QuadrupletOracle};
use nco_metric::hashing;
use nco_metric::Metric;

/// Is `x/y` inside the multiplicative `(1+mu)` noise band?
///
/// Edge cases: two zeros are a tie (in band); exactly one zero is an
/// unbounded ratio (out of band, the answer is unambiguous).
#[inline]
pub fn in_band(x: f64, y: f64, mu: f64) -> bool {
    debug_assert!(x >= 0.0 && y >= 0.0, "band test expects magnitudes");
    if x == 0.0 && y == 0.0 {
        return true;
    }
    if x == 0.0 || y == 0.0 {
        return false;
    }
    let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
    hi <= (1.0 + mu) * lo
}

/// How an in-band ("confusable") query gets answered.
///
/// `left_key` / `right_key` identify the two *operands* (a record index for
/// comparison oracles, a canonicalised record pair for quadruplet oracles),
/// so strategies can be persistent or target specific operands. `left` and
/// `right` are the true quantities being compared. Return `true` to answer
/// `Yes` ("left <= right").
///
/// `decide` takes `&self`: a decision is a pure function of the query, so
/// the wrapping oracles are persistent (and therefore memoisable).
pub trait Adversary {
    /// Decides an in-band query.
    fn decide(&self, left_key: &[u64], right_key: &[u64], left: f64, right: f64) -> bool;
}

/// The worst-case liar: always answers in-band queries **incorrectly**.
///
/// This is the strategy behind the paper's lower-bound discussions (the
/// running-max failure in Section 3.1, Examples 3.2 / 3.8): every
/// approximation guarantee in the paper must hold against it.
#[derive(Debug, Clone, Copy, Default)]
pub struct InvertAdversary;

impl Adversary for InvertAdversary {
    fn decide(&self, _l: &[u64], _r: &[u64], left: f64, right: f64) -> bool {
        // Values are validated finite, so this is exactly !(left <= right).
        left > right
    }
}

/// Answers in-band queries with a persistent fair coin (hash of the query),
/// i.e. a sloppy-but-unbiased worker. Reversed queries get complementary
/// answers, like a persistent human would give.
#[derive(Debug, Clone, Copy)]
pub struct PersistentRandomAdversary {
    seed: u64,
}

impl PersistentRandomAdversary {
    /// Creates the strategy with a hash seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Adversary for PersistentRandomAdversary {
    fn decide(&self, left_key: &[u64], right_key: &[u64], _l: f64, _r: f64) -> bool {
        let swapped = left_key > right_key;
        let (a, b) = if swapped {
            (right_key, left_key)
        } else {
            (left_key, right_key)
        };
        let mut words = Vec::with_capacity(a.len() + b.len());
        words.extend_from_slice(a);
        words.extend_from_slice(b);
        let ans = hashing::bernoulli(self.seed, &words, 0.5);
        ans ^ swapped
    }
}

/// A systematically biased comparator: each operand is distorted once by a
/// fixed hidden factor in `[1/(1+mu), 1+mu]`, and all queries are answered
/// truthfully *with respect to the distorted values*.
///
/// This is the most realistic adversary — a worker or embedding model with a
/// consistent misperception — and, unlike [`InvertAdversary`], it always
/// induces a valid total order, so it cannot be detected by consistency
/// checks.
#[derive(Debug, Clone, Copy)]
pub struct ConsistentAdversary {
    seed: u64,
    mu: f64,
}

impl ConsistentAdversary {
    /// Creates the strategy; `mu` should match the oracle's band so the
    /// distortion never causes an out-of-band lie.
    pub fn new(seed: u64, mu: f64) -> Self {
        assert!(mu >= 0.0 && mu.is_finite());
        Self { seed, mu }
    }

    fn factor(&self, key: &[u64]) -> f64 {
        // (1+mu)^(2u-1) for u ~ U[0,1): a fixed per-operand multiplicative
        // distortion spanning the entire band.
        let u = hashing::unit_from(self.seed ^ 0xc0a5_17e4_ad5e_11e5, key);
        (1.0 + self.mu).powf(2.0 * u - 1.0)
    }
}

impl Adversary for ConsistentAdversary {
    fn decide(&self, left_key: &[u64], right_key: &[u64], left: f64, right: f64) -> bool {
        left * self.factor(left_key) <= right * self.factor(right_key)
    }
}

/// Lobbies for one operand: whenever the target appears in an in-band query
/// it is declared the larger side; all other in-band queries are inverted.
///
/// Useful for failure injection: it is the strategy that realises the
/// `v_max/(1+mu)^{n-1}` running-max catastrophe of Section 3.1.
#[derive(Debug, Clone)]
pub struct PromoteTargetAdversary {
    target: Vec<u64>,
}

impl PromoteTargetAdversary {
    /// Promotes the record with the given index (comparison-oracle keys).
    pub fn record(i: usize) -> Self {
        Self {
            target: vec![i as u64],
        }
    }

    /// Promotes the (unordered) record pair (quadruplet-oracle keys).
    pub fn pair(a: usize, b: usize) -> Self {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        Self {
            target: vec![a as u64, b as u64],
        }
    }
}

impl Adversary for PromoteTargetAdversary {
    fn decide(&self, left_key: &[u64], right_key: &[u64], left: f64, right: f64) -> bool {
        if left_key == self.target.as_slice() {
            false // target is "larger": left <= right is No
        } else if right_key == self.target.as_slice() {
            true
        } else {
            // Values are validated finite: exactly !(left <= right).
            left > right
        }
    }
}

/// Adversarial-noise comparison oracle over hidden values (Section 2.2).
#[derive(Debug, Clone)]
pub struct AdversarialValueOracle<A> {
    values: Vec<f64>,
    mu: f64,
    adversary: A,
}

impl<A: Adversary> AdversarialValueOracle<A> {
    /// Builds the oracle with error parameter `mu >= 0` and an in-band
    /// strategy.
    ///
    /// # Panics
    /// Panics if `mu` is negative/non-finite or any value is negative or
    /// non-finite (the multiplicative band needs magnitudes).
    pub fn new(values: Vec<f64>, mu: f64, adversary: A) -> Self {
        assert!(
            mu >= 0.0 && mu.is_finite(),
            "mu must be a non-negative constant"
        );
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "values must be non-negative and finite for the multiplicative band"
        );
        Self {
            values,
            mu,
            adversary,
        }
    }

    /// The band parameter `mu`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Ground-truth values (evaluation only).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl<A: Adversary> ComparisonOracle for AdversarialValueOracle<A> {
    fn n(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn le(&mut self, i: usize, j: usize) -> bool {
        let (vi, vj) = (self.values[i], self.values[j]);
        if !in_band(vi, vj, self.mu) {
            vi <= vj
        } else {
            self.adversary.decide(&[i as u64], &[j as u64], vi, vj)
        }
    }
}

impl<A: Adversary> PersistentNoise for AdversarialValueOracle<A> {}

/// Adversarial-noise quadruplet oracle over a hidden metric (Section 2.2).
#[derive(Debug, Clone)]
pub struct AdversarialQuadOracle<M, A> {
    metric: M,
    mu: f64,
    adversary: A,
}

impl<M: Metric, A: Adversary> AdversarialQuadOracle<M, A> {
    /// Builds the oracle with error parameter `mu >= 0` and an in-band
    /// strategy.
    pub fn new(metric: M, mu: f64, adversary: A) -> Self {
        assert!(
            mu >= 0.0 && mu.is_finite(),
            "mu must be a non-negative constant"
        );
        Self {
            metric,
            mu,
            adversary,
        }
    }

    /// The band parameter `mu`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The hidden metric (evaluation only).
    pub fn metric(&self) -> &M {
        &self.metric
    }
}

impl<M: Metric, A: Adversary> QuadrupletOracle for AdversarialQuadOracle<M, A> {
    fn n(&self) -> usize {
        self.metric.len()
    }

    #[inline]
    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        // Distances are read through the canonicalised pairs — exactly
        // what `le_batch`'s memo reads — so the two paths agree even for
        // a metric whose `dist(i, j)` were not bit-symmetric.
        let p1 = if a <= b { (a, b) } else { (b, a) };
        let p2 = if c <= d { (c, d) } else { (d, c) };
        let d1 = self.metric.dist(p1.0, p1.1);
        let d2 = self.metric.dist(p2.0, p2.1);
        if !in_band(d1, d2, self.mu) {
            d1 <= d2
        } else {
            let k1 = [p1.0 as u64, p1.1 as u64];
            let k2 = [p2.0 as u64, p2.1 as u64];
            self.adversary.decide(&k1, &k2, d1, d2)
        }
    }

    /// Batched round with a one-entry memo for the *second* pair: the
    /// dominant round shape (k-center committee scoring, Count-Max scans
    /// against a fixed pivot) repeats one pair across the whole round, so
    /// its distance is fetched once per run instead of once per query.
    /// Both this path and [`Self::le`] read distances through the
    /// canonicalised pairs, and the adversary is consulted with the same
    /// canonical keys in the same serial order — answers are identical to
    /// the scalar loop by construction, not by metric bit-symmetry.
    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        out.reserve(queries.len());
        let mut memo: Option<((usize, usize), f64)> = None;
        for &[a, b, c, d] in queries {
            let p2 = if c <= d { (c, d) } else { (d, c) };
            let d2 = match memo {
                Some((p, v)) if p == p2 => v,
                _ => {
                    let v = self.metric.dist(p2.0, p2.1);
                    memo = Some((p2, v));
                    v
                }
            };
            let p1 = if a <= b { (a, b) } else { (b, a) };
            let d1 = self.metric.dist(p1.0, p1.1);
            let ans = if !in_band(d1, d2, self.mu) {
                d1 <= d2
            } else {
                let k1 = [p1.0 as u64, p1.1 as u64];
                let k2 = [p2.0 as u64, p2.1 as u64];
                self.adversary.decide(&k1, &k2, d1, d2)
            };
            out.push(ans);
        }
    }
}

impl<M: Metric, A: Adversary> PersistentNoise for AdversarialQuadOracle<M, A> {}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::EuclideanMetric;

    #[test]
    fn band_membership() {
        assert!(in_band(1.0, 1.0, 0.0));
        assert!(in_band(1.0, 1.5, 0.5));
        assert!(in_band(1.5, 1.0, 0.5));
        assert!(!in_band(1.0, 1.51, 0.5));
        assert!(in_band(0.0, 0.0, 0.1));
        assert!(!in_band(0.0, 1e-300, 0.1));
    }

    #[test]
    fn out_of_band_is_always_correct() {
        let mut o = AdversarialValueOracle::new(vec![1.0, 10.0], 1.0, InvertAdversary);
        assert!(o.le(0, 1));
        assert!(!o.le(1, 0));
    }

    #[test]
    fn invert_lies_inside_the_band() {
        let mut o = AdversarialValueOracle::new(vec![1.0, 1.5], 1.0, InvertAdversary);
        assert!(!o.le(0, 1)); // truth is Yes, adversary says No
        assert!(o.le(1, 0)); // truth is No, adversary says Yes
    }

    #[test]
    fn promote_target_wins_all_in_band_duels() {
        let values = vec![1.0, 1.2, 1.4, 1.1];
        let mut o = AdversarialValueOracle::new(values, 1.0, PromoteTargetAdversary::record(0));
        for j in 1..4 {
            assert!(!o.le(0, j), "target must be declared larger than {j}");
            assert!(o.le(j, 0));
        }
    }

    #[test]
    fn persistent_random_is_persistent_and_complement_consistent() {
        let mut o =
            AdversarialValueOracle::new(vec![1.0, 1.2], 1.0, PersistentRandomAdversary::new(3));
        let a1 = o.le(0, 1);
        for _ in 0..10 {
            assert_eq!(o.le(0, 1), a1);
            assert_eq!(o.le(1, 0), !a1);
        }
    }

    #[test]
    fn consistent_adversary_induces_total_order() {
        let values: Vec<f64> = (0..20).map(|i| 1.0 + 0.02 * i as f64).collect();
        let n = values.len();
        let mut o = AdversarialValueOracle::new(values, 1.0, ConsistentAdversary::new(5, 1.0));
        // Transitivity over all in-band triples of the induced relation.
        let mut wins = vec![0usize; n];
        for (i, w) in wins.iter_mut().enumerate() {
            for j in 0..n {
                if i != j && !o.le(i, j) {
                    *w += 1;
                }
            }
        }
        let mut sorted = wins.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "a total order has distinct win counts");
    }

    #[test]
    fn quad_oracle_band_and_truth() {
        let m = EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![10.0]]);
        let mut o = AdversarialQuadOracle::new(m, 0.5, InvertAdversary);
        // d(0,1) = 1 vs d(0,2) = 10: far outside the band -> truthful.
        assert!(o.le(0, 1, 0, 2));
        // d(0,2) = 10 vs d(1,2) = 9: ratio 1.11 inside band -> inverted.
        assert!(o.le(0, 2, 1, 2));
    }

    // Seeded-loop replacement for the original proptest property (the
    // offline build has no proptest; 128 random cases, fixed seed).
    #[test]
    fn separated_values_always_answered_correctly() {
        use nco_metric::hashing::splitmix64;
        let mut gen_state = 0xAD5E_0001u64;
        let mut next = move || {
            gen_state = gen_state.wrapping_add(1);
            splitmix64(gen_state)
        };
        for _ in 0..128 {
            let len = 2 + (next() % 28) as usize;
            let v: Vec<f64> = (0..len)
                .map(|_| 0.01 + (next() >> 11) as f64 / (1u64 << 53) as f64 * 1e6)
                .collect();
            let mu = (next() >> 11) as f64 / (1u64 << 53) as f64 * 3.0;
            let seed = next();
            let mut o =
                AdversarialValueOracle::new(v.clone(), mu, PersistentRandomAdversary::new(seed));
            for i in 0..v.len() {
                for j in 0..v.len() {
                    if !in_band(v[i], v[j], mu) {
                        assert_eq!(o.le(i, j), v[i] <= v[j], "v={v:?} mu={mu} i={i} j={j}");
                    }
                }
            }
        }
    }
}
