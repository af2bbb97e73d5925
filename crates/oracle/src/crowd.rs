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
use crate::source::{absorb, Distances, Operand, Query, Source, Values};
use nco_metric::hashing;

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

/// An oracle answered by a majority vote over `workers` persistent
/// simulated crowd annotators whose per-query accuracy follows an
/// [`AccuracyProfile`] of the ratio between the two compared quantities.
///
/// The paper's crowd experiments are all quadruplet-based; the value
/// shape exists so the facade's `Session` can run maximum / top-k tasks
/// under the crowd noise model with the exact same worker simulation.
#[derive(Debug, Clone)]
pub struct CrowdOracle<S> {
    source: S,
    profile: AccuracyProfile,
    workers: u32,
    /// Precomputed seed-absorption round ([`hashing::mix_seed`]).
    seed_h: u64,
}

/// A quadruplet oracle answered by the simulated crowd.
pub type CrowdQuadOracle<M> = CrowdOracle<Distances<M>>;

/// A comparison oracle answered by the simulated crowd.
pub type CrowdValueOracle = CrowdOracle<Values>;

impl<S: Source> CrowdOracle<S> {
    /// Builds the oracle; the paper's user study uses `workers = 3`.
    ///
    /// # Panics
    /// Panics if `workers` is even or zero (majority must be decisive), or
    /// any value is negative or non-finite (the accuracy curve needs
    /// magnitude ratios).
    pub fn new(hidden: S::Hidden, profile: AccuracyProfile, workers: u32, seed: u64) -> Self {
        assert!(
            workers % 2 == 1,
            "need an odd number of workers, got {workers}"
        );
        let source = S::new(hidden);
        assert!(
            source.nonnegative(),
            "values must be non-negative and finite for the accuracy-ratio curve"
        );
        Self {
            source,
            profile,
            workers,
            seed_h: hashing::mix_seed(seed),
        }
    }

    /// Single-annotator variant used to model the trained classifier.
    pub fn classifier(hidden: S::Hidden, profile: AccuracyProfile, seed: u64) -> Self {
        Self::new(hidden, profile, 1, seed)
    }

    /// The accuracy profile in use.
    pub fn profile(&self) -> &AccuracyProfile {
        &self.profile
    }

    /// The committee's majority over the ordered operands `a < b`,
    /// mirrored back. Worker `w` is correct on a seeded coin over
    /// `[w, a's words.., b's words..]`, so the answer is persistent;
    /// identical operands are a truthful tie, answered `Yes`.
    #[inline]
    fn answer(&self, q: S::Query, right: &mut S::Right) -> bool {
        let Some((l, r)) = q.split() else {
            return true;
        };
        // Read in query order, so the round's memo holds the query's
        // right-hand pair: committee rounds repeat it, and over lazy
        // distances every read saved is a full evaluation.
        let (ml, mr) = self.source.magnitudes(l, r, right);
        let swapped = l > r;
        let (a, b, d1, d2) = if swapped {
            (r, l, mr, ml)
        } else {
            (l, r, ml, mr)
        };
        let rho = if d1.min(d2) <= 0.0 {
            f64::INFINITY
        } else {
            d1.max(d2) / d1.min(d2)
        };
        let acc = self.profile.accuracy(rho);
        let (wa, wb) = (a.words(), b.words());
        let correct = majority(self.workers, |w| {
            let h = absorb(hashing::splitmix64(self.seed_h ^ u64::from(w)), wa.as_ref());
            hashing::unit_f64(absorb(h, wb.as_ref())) < acc
        });
        ((d1 <= d2) == correct) ^ swapped
    }
}

noise_traits!(CrowdOracle[]);

/// Workers are seeded hashes of the canonical query — a pure function —
/// so the majority answer is persistent.
impl<S> PersistentNoise for CrowdOracle<S> {}

/// Majority vote of a `workers`-sized committee whose member `w` answers
/// correctly when `coin(w)` is `true`. Worker coins are independent
/// seeded hashes, so the vote may stop as soon as either side reaches a
/// majority — the outcome is identical to polling every worker.
fn majority(workers: u32, mut coin: impl FnMut(u32) -> bool) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComparisonOracle, QuadrupletOracle};
    use nco_metric::{EuclideanMetric, Metric};

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
