//! Simulated crowd workers and learned classifiers — Section 6.2.
//!
//! The paper's user study (Fig. 4) measures the accuracy of quadruplet
//! answers from Amazon Mechanical Turk as a function of the two compared
//! distances: near-coin-flip when both pairs are equally far apart, nearly
//! perfect once the ratio of distances exceeds a dataset-specific threshold
//! (≈1.45 for `caltech`), and persistently noisy at all ranges for `amazon`.
//! Each query was answered by three workers and decided by majority.
//!
//! [`AccuracyProfile`] captures exactly that accuracy-vs-ratio curve;
//! [`CrowdQuadOracle`] answers queries by majority over `workers` persistent
//! simulated annotators. With `workers = 1` it doubles as the actively
//! trained classifier the paper substitutes for the crowd at scale (the
//! classifier inherits the crowd's confusion behaviour, only noisier —
//! see [`AccuracyProfile::degraded`]).

use crate::persistent::PersistentNoise;
use crate::{ComparisonOracle, QuadrupletOracle};
use nco_metric::hashing;
use nco_metric::Metric;

/// Accuracy of a single annotator as a function of the distance ratio
/// `rho = max(d1, d2) / min(d1, d2) >= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccuracyProfile {
    /// Linear ramp from `tie_accuracy` at `rho = 1` up to `beyond_accuracy`
    /// at `rho = cliff_ratio`, constant afterwards. The shape observed for
    /// `caltech` / `cities` / `monuments` in Fig. 4(a).
    Cliff {
        /// Accuracy when the two distances are (nearly) equal.
        tie_accuracy: f64,
        /// Ratio at which the annotator becomes maximally reliable.
        cliff_ratio: f64,
        /// Accuracy beyond the cliff.
        beyond_accuracy: f64,
    },
    /// Constant accuracy at every ratio — the persistent-noise shape the
    /// paper reads off Fig. 4(b) for `amazon`.
    Flat {
        /// The constant per-query accuracy.
        accuracy: f64,
    },
}

impl AccuracyProfile {
    /// `caltech`-style profile: coin flip on ties, fully reliable past the
    /// ratio 1.45 observed in the paper's Fig. 4(a).
    pub fn caltech_like() -> Self {
        Self::Cliff {
            tie_accuracy: 0.5,
            cliff_ratio: 1.45,
            beyond_accuracy: 0.995,
        }
    }

    /// `cities`-style profile: a sharp cliff slightly further out.
    pub fn cities_like() -> Self {
        Self::Cliff {
            tie_accuracy: 0.55,
            cliff_ratio: 1.6,
            beyond_accuracy: 0.99,
        }
    }

    /// `monuments`-style profile: low noise everywhere (the paper observes
    /// all techniques do equally well there).
    pub fn monuments_like() -> Self {
        Self::Cliff {
            tie_accuracy: 0.65,
            cliff_ratio: 1.3,
            beyond_accuracy: 1.0,
        }
    }

    /// `amazon`-style profile: substantial noise across *all* distance
    /// ranges (Fig. 4(b)), i.e. the probabilistic model. Average accuracy
    /// ≈0.83 as reported in Section 6.2.1.
    pub fn amazon_like() -> Self {
        Self::Flat { accuracy: 0.83 }
    }

    /// Accuracy at distance ratio `rho` (callers should pass
    /// `max/min >= 1`; smaller values are clamped to a tie).
    pub fn accuracy(&self, rho: f64) -> f64 {
        match *self {
            Self::Flat { accuracy } => accuracy,
            Self::Cliff {
                tie_accuracy,
                cliff_ratio,
                beyond_accuracy,
            } => {
                if rho >= cliff_ratio {
                    beyond_accuracy
                } else if rho <= 1.0 {
                    tie_accuracy
                } else {
                    let t = (rho - 1.0) / (cliff_ratio - 1.0);
                    tie_accuracy + t * (beyond_accuracy - tie_accuracy)
                }
            }
        }
    }

    /// A uniformly degraded copy of this profile, modelling the
    /// active-learning classifier the paper trains on crowd answers ("the
    /// classifier generates noisier results", Section 6.3 footnote). Each
    /// accuracy `a` becomes `0.5 + (a - 0.5) * retention`.
    pub fn degraded(&self, retention: f64) -> Self {
        assert!((0.0..=1.0).contains(&retention));
        let shrink = |a: f64| 0.5 + (a - 0.5) * retention;
        match *self {
            Self::Flat { accuracy } => Self::Flat {
                accuracy: shrink(accuracy),
            },
            Self::Cliff {
                tie_accuracy,
                cliff_ratio,
                beyond_accuracy,
            } => Self::Cliff {
                tie_accuracy: shrink(tie_accuracy),
                cliff_ratio,
                beyond_accuracy: shrink(beyond_accuracy),
            },
        }
    }
}

/// A quadruplet oracle answered by a majority vote over `workers` persistent
/// simulated crowd annotators whose per-query accuracy follows an
/// [`AccuracyProfile`].
#[derive(Debug, Clone)]
pub struct CrowdQuadOracle<M> {
    metric: M,
    profile: AccuracyProfile,
    workers: u32,
    seed: u64,
}

impl<M: Metric> CrowdQuadOracle<M> {
    /// Builds the oracle; the paper's user study uses `workers = 3`.
    ///
    /// # Panics
    /// Panics if `workers` is even or zero (majority must be decisive).
    pub fn new(metric: M, profile: AccuracyProfile, workers: u32, seed: u64) -> Self {
        assert!(
            workers % 2 == 1,
            "need an odd number of workers, got {workers}"
        );
        Self {
            metric,
            profile,
            workers,
            seed,
        }
    }

    /// Single-annotator variant used to model the trained classifier.
    pub fn classifier(metric: M, profile: AccuracyProfile, seed: u64) -> Self {
        Self::new(metric, profile, 1, seed)
    }

    /// The accuracy profile in use.
    pub fn profile(&self) -> &AccuracyProfile {
        &self.profile
    }

    /// The hidden metric (evaluation only).
    pub fn metric(&self) -> &M {
        &self.metric
    }
}

impl<M: Metric> QuadrupletOracle for CrowdQuadOracle<M> {
    fn n(&self) -> usize {
        self.metric.len()
    }

    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        self.answer(a, b, c, d)
    }

    /// Batched committee round: worker draws are simulated across the
    /// whole batch in serial query order — each answer is a pure function
    /// of its canonical query, so the transcript is bit-identical to the
    /// scalar loop — while the round's distance work is amortised: each
    /// **distinct record pair**'s distance is evaluated once per round
    /// (the paper's rounds re-touch the same few rep pairs many times —
    /// a Count-Max pool of `p` contestants asks `p(p-1)/2` queries over
    /// only `p` distinct pairs). Keys are packed pair indices hashed with
    /// the splitmix mixer, so a cache probe stays far below one lazy
    /// distance evaluation.
    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        use nco_metric::hashing::MixBuildHasher;
        use std::collections::HashMap;
        debug_assert!(self.metric.len() <= u32::MAX as usize, "packed pair keys");
        let mut dists: HashMap<u64, f64, MixBuildHasher> =
            HashMap::with_capacity_and_hasher(64, MixBuildHasher);
        let metric = &self.metric;
        let mut dist_of = |p: (usize, usize)| -> f64 {
            *dists
                .entry(((p.0 as u64) << 32) | p.1 as u64)
                .or_insert_with(|| metric.dist(p.0, p.1))
        };
        out.reserve(queries.len());
        for &[a, b, c, d] in queries {
            let Some((q1, q2, swapped)) = Self::canonical(a, b, c, d) else {
                out.push(true);
                continue;
            };
            let d1 = dist_of(q1);
            let d2 = dist_of(q2);
            let ans = decide(&self.profile, self.workers, self.seed, q1, q2, d1, d2);
            out.push(ans ^ swapped);
        }
    }
}

/// Workers are seeded hashes of the canonical query — a pure function —
/// so the majority answer is persistent.
impl<M: Metric> PersistentNoise for CrowdQuadOracle<M> {}

impl<M: Metric> CrowdQuadOracle<M> {
    /// Canonicalises a query: ordered pairs, ordered pair-of-pairs, and
    /// whether the answer must be mirrored. `None` means the two pairs are
    /// identical (a truthful tie, answered `Yes`).
    #[inline]
    #[allow(clippy::type_complexity)]
    fn canonical(
        a: usize,
        b: usize,
        c: usize,
        d: usize,
    ) -> Option<((usize, usize), (usize, usize), bool)> {
        let p1 = if a <= b { (a, b) } else { (b, a) };
        let p2 = if c <= d { (c, d) } else { (d, c) };
        if p1 == p2 {
            return None;
        }
        let swapped = p1 > p2;
        let (q1, q2) = if swapped { (p2, p1) } else { (p1, p2) };
        Some((q1, q2, swapped))
    }

    fn answer(&self, a: usize, b: usize, c: usize, d: usize) -> bool {
        let Some((q1, q2, swapped)) = Self::canonical(a, b, c, d) else {
            return true;
        };
        let d1 = self.metric.dist(q1.0, q1.1);
        let d2 = self.metric.dist(q2.0, q2.1);
        decide(&self.profile, self.workers, self.seed, q1, q2, d1, d2) ^ swapped
    }
}

/// Majority vote of a `workers`-sized committee whose member `w` answers
/// correctly when `coin(w)` is `true`. Worker coins are independent
/// seeded hashes, so the vote may stop as soon as either side reaches a
/// majority — the outcome is identical to polling every worker. Shared
/// by the quadruplet and value committees so their vote semantics can
/// never drift apart.
fn majority_correct(workers: u32, mut coin: impl FnMut(u32) -> bool) -> bool {
    let majority = workers / 2 + 1;
    let mut correct_votes = 0u32;
    let mut wrong_votes = 0u32;
    for w in 0..workers {
        if coin(w) {
            correct_votes += 1;
            if correct_votes == majority {
                break;
            }
        } else {
            wrong_votes += 1;
            if wrong_votes == majority {
                break;
            }
        }
    }
    correct_votes >= majority
}

/// Majority decision of one committee over a canonical query: `true`
/// encodes `Yes` ("`d1 <= d2`").
fn decide(
    profile: &AccuracyProfile,
    workers: u32,
    seed: u64,
    q1: (usize, usize),
    q2: (usize, usize),
    d1: f64,
    d2: f64,
) -> bool {
    let truth = d1 <= d2;
    let rho = if d1.min(d2) <= 0.0 {
        f64::INFINITY
    } else {
        d1.max(d2) / d1.min(d2)
    };
    let acc = profile.accuracy(rho);
    truth
        == majority_correct(workers, |w| {
            hashing::bernoulli(
                seed,
                &[w as u64, q1.0 as u64, q1.1 as u64, q2.0 as u64, q2.1 as u64],
                acc,
            )
        })
}

/// A comparison oracle answered by the same simulated crowd: worker
/// accuracy is a function of the ratio between the two compared hidden
/// *values*, majority over `workers` persistent annotators.
///
/// The paper's crowd experiments are all quadruplet-based; this value
/// twin exists so the facade's `Session` can run maximum / top-k tasks
/// under the crowd noise model with the exact same worker simulation.
#[derive(Debug, Clone)]
pub struct CrowdValueOracle {
    values: Vec<f64>,
    profile: AccuracyProfile,
    workers: u32,
    seed: u64,
}

impl CrowdValueOracle {
    /// Builds the oracle; the paper's user study uses `workers = 3`.
    ///
    /// # Panics
    /// Panics if `workers` is even or zero, or any value is negative or
    /// non-finite (the accuracy curve needs magnitude ratios).
    pub fn new(values: Vec<f64>, profile: AccuracyProfile, workers: u32, seed: u64) -> Self {
        assert!(
            workers % 2 == 1,
            "need an odd number of workers, got {workers}"
        );
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "values must be non-negative and finite for the accuracy-ratio curve"
        );
        Self {
            values,
            profile,
            workers,
            seed,
        }
    }

    /// The accuracy profile in use.
    pub fn profile(&self) -> &AccuracyProfile {
        &self.profile
    }

    /// Ground-truth values (evaluation only).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Majority decision over the canonical pair `a < b` — the value twin
    /// of the quadruplet committee, through the same shared vote.
    fn decide(&self, a: usize, b: usize) -> bool {
        let (va, vb) = (self.values[a], self.values[b]);
        let truth = va <= vb;
        let (lo, hi) = if va <= vb { (va, vb) } else { (vb, va) };
        let rho = if lo <= 0.0 { f64::INFINITY } else { hi / lo };
        let acc = self.profile.accuracy(rho);
        truth
            == majority_correct(self.workers, |w| {
                hashing::bernoulli(self.seed, &[w as u64, a as u64, b as u64], acc)
            })
    }

    fn answer(&self, i: usize, j: usize) -> bool {
        if i == j {
            return true;
        }
        let swapped = i > j;
        let (a, b) = if swapped { (j, i) } else { (i, j) };
        self.decide(a, b) ^ swapped
    }
}

impl ComparisonOracle for CrowdValueOracle {
    fn n(&self) -> usize {
        self.values.len()
    }

    fn le(&mut self, i: usize, j: usize) -> bool {
        self.answer(i, j)
    }

    /// Batched committee round: each **distinct canonical pair**'s
    /// committee is simulated once per round and repeats are served from
    /// the round answer cache — answers are pure functions of the pair,
    /// so the transcript is bit-identical to the scalar loop in serial
    /// query order.
    fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
        use nco_metric::hashing::MixBuildHasher;
        use std::collections::HashMap;
        debug_assert!(self.values.len() <= u32::MAX as usize, "packed pair keys");
        let mut answers: HashMap<u64, bool, MixBuildHasher> =
            HashMap::with_capacity_and_hasher(64, MixBuildHasher);
        out.reserve(queries.len());
        for &(i, j) in queries {
            if i == j {
                out.push(true);
                continue;
            }
            let swapped = i > j;
            let (a, b) = if swapped { (j, i) } else { (i, j) };
            let ans = *answers
                .entry(((a as u64) << 32) | b as u64)
                .or_insert_with(|| self.decide(a, b));
            out.push(ans ^ swapped);
        }
    }
}

/// Workers are seeded hashes of the canonical query — a pure function —
/// so the majority answer is persistent.
impl PersistentNoise for CrowdValueOracle {}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::EuclideanMetric;

    #[test]
    fn cliff_profile_shape() {
        let p = AccuracyProfile::caltech_like();
        assert!((p.accuracy(1.0) - 0.5).abs() < 1e-12);
        assert!((p.accuracy(1.45) - 0.995).abs() < 1e-12);
        assert!((p.accuracy(10.0) - 0.995).abs() < 1e-12);
        let mid = p.accuracy(1.225);
        assert!(mid > 0.5 && mid < 0.995);
        assert_eq!(p.accuracy(0.5), 0.5); // clamped to tie
    }

    #[test]
    fn flat_profile_is_flat() {
        let p = AccuracyProfile::amazon_like();
        assert_eq!(p.accuracy(1.0), p.accuracy(100.0));
    }

    #[test]
    fn degraded_moves_toward_coin_flip() {
        let p = AccuracyProfile::caltech_like().degraded(0.8);
        match p {
            AccuracyProfile::Cliff {
                tie_accuracy,
                beyond_accuracy,
                ..
            } => {
                assert!((tie_accuracy - 0.5).abs() < 1e-12);
                assert!(beyond_accuracy < 0.995 && beyond_accuracy > 0.85);
            }
            _ => unreachable!(),
        }
    }

    fn line(n: usize) -> EuclideanMetric {
        EuclideanMetric::from_points(&(0..n).map(|i| vec![(i * i) as f64]).collect::<Vec<_>>())
    }

    #[test]
    fn crowd_is_persistent_and_complementary() {
        let mut o = CrowdQuadOracle::new(line(20), AccuracyProfile::amazon_like(), 3, 11);
        let a = o.le(0, 5, 2, 9);
        for _ in 0..5 {
            assert_eq!(o.le(0, 5, 2, 9), a);
            assert_eq!(o.le(5, 0, 9, 2), a);
            assert_eq!(o.le(2, 9, 0, 5), !a);
        }
    }

    #[test]
    fn majority_of_three_beats_single_worker() {
        // With flat accuracy 0.75, majority-of-3 accuracy is
        // 0.75^3 + 3 * 0.75^2 * 0.25 ≈ 0.844.
        let profile = AccuracyProfile::Flat { accuracy: 0.75 };
        let m = line(60);
        let mut single = CrowdQuadOracle::new(m.clone(), profile, 1, 42);
        let mut triple = CrowdQuadOracle::new(m.clone(), profile, 3, 42);
        let mut ok1 = 0usize;
        let mut ok3 = 0usize;
        let mut total = 0usize;
        for a in 0..59usize {
            for c in 0..59usize {
                let (b, d) = (a + 1, c + 1);
                if (a, b) >= (c, d) {
                    continue;
                }
                total += 1;
                let truth = m.dist(a, b) <= m.dist(c, d);
                ok1 += (single.le(a, b, c, d) == truth) as usize;
                ok3 += (triple.le(a, b, c, d) == truth) as usize;
            }
        }
        let acc1 = ok1 as f64 / total as f64;
        let acc3 = ok3 as f64 / total as f64;
        assert!((acc1 - 0.75).abs() < 0.03, "single accuracy {acc1}");
        assert!((acc3 - 0.844).abs() < 0.03, "majority accuracy {acc3}");
    }

    #[test]
    fn cliff_crowd_is_perfect_past_the_cliff() {
        let m = line(30);
        let mut o = CrowdQuadOracle::new(
            m.clone(),
            AccuracyProfile::Cliff {
                tie_accuracy: 0.5,
                cliff_ratio: 1.45,
                beyond_accuracy: 1.0,
            },
            3,
            7,
        );
        for a in 0..10usize {
            let (b, c, d) = (a + 1, a, a + 15);
            let (d1, d2) = (m.dist(a, b), m.dist(c, d));
            if d1.max(d2) / d1.min(d2) > 1.45 {
                assert_eq!(o.le(a, b, c, d), d1 <= d2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd number of workers")]
    fn rejects_even_worker_count() {
        let _ = CrowdQuadOracle::new(line(3), AccuracyProfile::amazon_like(), 2, 0);
    }

    #[test]
    fn value_crowd_is_persistent_complementary_and_ratio_accurate() {
        let values: Vec<f64> = (1..=40).map(|i| (i * i) as f64).collect();
        let mut o = CrowdValueOracle::new(values.clone(), AccuracyProfile::caltech_like(), 3, 9);
        assert_eq!(o.n(), 40);
        let a = o.le(3, 17);
        for _ in 0..5 {
            assert_eq!(o.le(3, 17), a);
            assert_eq!(o.le(17, 3), !a);
        }
        assert!(o.le(5, 5), "self-comparison is a truthful tie");
        // Past the accuracy cliff (ratio 1.45), caltech workers are near
        // perfect: well-separated values must be answered correctly.
        for i in 0..20usize {
            let j = i + 15;
            let rho = values[j] / values[i];
            if rho > 2.0 {
                assert!(o.le(i, j), "({i},{j}) rho = {rho}");
            }
        }
    }

    #[test]
    fn value_crowd_flat_profile_matches_accuracy() {
        let values: Vec<f64> = (1..=80).map(|i| i as f64).collect();
        let mut o = CrowdValueOracle::new(
            values.clone(),
            AccuracyProfile::Flat { accuracy: 0.8 },
            1,
            4,
        );
        let mut ok = 0usize;
        let mut total = 0usize;
        for i in 0..80usize {
            for j in (i + 1)..80usize {
                total += 1;
                ok += (o.le(i, j) == (values[i] <= values[j])) as usize;
            }
        }
        let acc = ok as f64 / total as f64;
        assert!((acc - 0.8).abs() < 0.03, "observed accuracy {acc}");
    }
}
