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
use crate::source::{absorb, Distances, Operand, Query, Sealed, Source, Values};
use nco_metric::hashing;

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
    /// A fair coin over both keys' words in canonical key order:
    /// `bernoulli(seed, &[a, b].concat(), 0.5)`, absorbed word by word.
    fn decide(&self, left_key: &[u64], right_key: &[u64], _l: f64, _r: f64) -> bool {
        let swapped = left_key > right_key;
        let (a, b) = if swapped {
            (right_key, left_key)
        } else {
            (left_key, right_key)
        };
        let h = absorb(absorb(hashing::mix_seed(self.seed), a), b);
        (hashing::unit_f64(h) < 0.5) ^ swapped
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

/// Which queries the adversary answers: those whose two magnitudes fall
/// inside the band.
pub trait Band: Sealed {
    /// Is the pair `(x, y)` inside the band?
    fn contains(&self, x: f64, y: f64) -> bool;
}

/// The multiplicative `(1 + mu)` band of Section 2.2 ([`in_band`]).
#[derive(Debug, Clone, Copy)]
pub struct Multiplicative {
    mu: f64,
}

impl Sealed for Multiplicative {}

impl Band for Multiplicative {
    #[inline]
    fn contains(&self, x: f64, y: f64) -> bool {
        in_band(x, y, self.mu)
    }
}

/// Adversarial-noise oracle over hidden values or a hidden metric
/// (Section 2.2): truthful outside the band `B`, the adversary `A`
/// inside it. Identical operands are always in band, so the adversary
/// answers them too.
#[derive(Debug, Clone)]
pub struct AdversarialOracle<S, A, B = Multiplicative> {
    pub(crate) source: S,
    pub(crate) band: B,
    pub(crate) adversary: A,
}

/// Adversarial-noise comparison oracle over hidden values.
pub type AdversarialValueOracle<A> = AdversarialOracle<Values, A>;

/// Adversarial-noise quadruplet oracle over a hidden metric.
pub type AdversarialQuadOracle<M, A> = AdversarialOracle<Distances<M>, A>;

impl<S: Source, A: Adversary> AdversarialOracle<S, A> {
    /// Builds the oracle with error parameter `mu >= 0` and an in-band
    /// strategy.
    ///
    /// # Panics
    /// Panics if `mu` is negative/non-finite or any value is negative or
    /// non-finite (the multiplicative band needs magnitudes).
    pub fn new(hidden: S::Hidden, mu: f64, adversary: A) -> Self {
        assert!(
            mu >= 0.0 && mu.is_finite(),
            "mu must be a non-negative constant"
        );
        let source = S::new(hidden);
        assert!(
            source.nonnegative(),
            "values must be non-negative and finite for the multiplicative band"
        );
        Self {
            source,
            band: Multiplicative { mu },
            adversary,
        }
    }

    /// The band parameter `mu`.
    pub fn mu(&self) -> f64 {
        self.band.mu
    }
}

impl<S: Source, A: Adversary, B: Band> AdversarialOracle<S, A, B> {
    #[inline]
    fn answer(&self, q: S::Query, right: &mut S::Right) -> bool {
        let (l, r) = q.operands();
        let (ml, mr) = self.source.magnitudes(l, r, right);
        if !self.band.contains(ml, mr) {
            ml <= mr
        } else {
            let (kl, kr) = (l.words(), r.words());
            self.adversary.decide(kl.as_ref(), kr.as_ref(), ml, mr)
        }
    }
}

noise_traits!(AdversarialOracle[A: Adversary, B: Band]);

/// An [`Adversary`] decides as a pure function of the query.
impl<S, A: Adversary, B> PersistentNoise for AdversarialOracle<S, A, B> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComparisonOracle, QuadrupletOracle};
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
