//! Additive-band adversarial noise (the Ajtai et al. model).
//!
//! Section 3.1 of the paper contrasts its scale-invariant multiplicative
//! band with the *additive* model of Ajtai, Feldman, Hassidim and Nelson
//! ("Sorting and selection with imprecise comparisons"): a comparison of `x`
//! and `y` may be adversarial when `|x - y| <= theta`. The paper notes its
//! algorithms also apply under this model (Theorem 3.10's reduction turns
//! PairwiseComp answers into an additive-band oracle with `theta = 2*alpha`),
//! so we ship it for both oracle kinds.

use crate::adversarial::Adversary;
use crate::{ComparisonOracle, QuadrupletOracle};
use nco_metric::Metric;

/// Is `|x - y| <= theta` (the additive confusion band)?
#[inline]
pub fn in_additive_band(x: f64, y: f64, theta: f64) -> bool {
    (x - y).abs() <= theta
}

/// Additive-band adversarial comparison oracle over hidden values.
#[derive(Debug, Clone)]
pub struct AdditiveValueOracle<A> {
    values: Vec<f64>,
    theta: f64,
    adversary: A,
}

impl<A: Adversary> AdditiveValueOracle<A> {
    /// Builds the oracle with additive slack `theta >= 0`.
    ///
    /// # Panics
    /// Panics if `theta` is negative/non-finite or values are non-finite.
    pub fn new(values: Vec<f64>, theta: f64, adversary: A) -> Self {
        assert!(theta >= 0.0 && theta.is_finite());
        assert!(values.iter().all(|v| v.is_finite()));
        Self {
            values,
            theta,
            adversary,
        }
    }

    /// The band width `theta`.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Ground-truth values (evaluation only).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl<A: Adversary> ComparisonOracle for AdditiveValueOracle<A> {
    fn n(&self) -> usize {
        self.values.len()
    }

    fn le(&mut self, i: usize, j: usize) -> bool {
        let (vi, vj) = (self.values[i], self.values[j]);
        if !in_additive_band(vi, vj, self.theta) {
            vi <= vj
        } else {
            self.adversary.decide(&[i as u64], &[j as u64], vi, vj)
        }
    }
}

/// Additive-band adversarial quadruplet oracle over a hidden metric.
#[derive(Debug, Clone)]
pub struct AdditiveQuadOracle<M, A> {
    metric: M,
    theta: f64,
    adversary: A,
}

impl<M: Metric, A: Adversary> AdditiveQuadOracle<M, A> {
    /// Builds the oracle with additive slack `theta >= 0`.
    pub fn new(metric: M, theta: f64, adversary: A) -> Self {
        assert!(theta >= 0.0 && theta.is_finite());
        Self {
            metric,
            theta,
            adversary,
        }
    }

    /// The band width `theta`.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The hidden metric (evaluation only).
    pub fn metric(&self) -> &M {
        &self.metric
    }
}

impl<M: Metric, A: Adversary> QuadrupletOracle for AdditiveQuadOracle<M, A> {
    fn n(&self) -> usize {
        self.metric.len()
    }

    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        let d1 = self.metric.dist(a, b);
        let d2 = self.metric.dist(c, d);
        if !in_additive_band(d1, d2, self.theta) {
            d1 <= d2
        } else {
            let p1 = if a <= b {
                [a as u64, b as u64]
            } else {
                [b as u64, a as u64]
            };
            let p2 = if c <= d {
                [c as u64, d as u64]
            } else {
                [d as u64, c as u64]
            };
            self.adversary.decide(&p1, &p2, d1, d2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::InvertAdversary;
    use nco_metric::EuclideanMetric;

    #[test]
    fn additive_band_membership() {
        assert!(in_additive_band(1.0, 1.5, 0.5));
        assert!(!in_additive_band(1.0, 1.51, 0.5));
        assert!(in_additive_band(5.0, 5.0, 0.0));
    }

    #[test]
    fn value_oracle_lies_only_in_band() {
        let mut o = AdditiveValueOracle::new(vec![1.0, 1.4, 9.0], 0.5, InvertAdversary);
        assert!(!o.le(0, 1)); // |1.0 - 1.4| <= 0.5 -> inverted
        assert!(o.le(0, 2)); // far apart -> truthful
        assert_eq!(o.theta(), 0.5);
    }

    #[test]
    fn quad_oracle_lies_only_in_band() {
        let m = EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![1.3], vec![10.0]]);
        let mut o = AdditiveQuadOracle::new(m, 0.5, InvertAdversary);
        // d(0,1) = 1.0 vs d(0,2) = 1.3: in band -> inverted (says No).
        assert!(!o.le(0, 1, 0, 2));
        // d(0,1) = 1.0 vs d(0,3) = 10.0: out of band -> truthful.
        assert!(o.le(0, 1, 0, 3));
    }

    #[test]
    fn scale_dependence_contrast_with_multiplicative() {
        // The paper's point: the additive model treats (0.001, 0.002) as
        // confusable only if theta >= 0.001, while the multiplicative band
        // always confuses a fixed ratio. Document the difference in a test.
        assert!(!in_additive_band(0.001, 0.4, 0.3));
        assert!(crate::adversarial::in_band(0.3, 0.4, 0.5));
        assert!(in_additive_band(0.3, 0.4, 0.3));
    }
}
