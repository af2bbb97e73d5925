//! Additive-band adversarial noise (the Ajtai et al. model).
//!
//! Section 3.1 of the paper contrasts its scale-invariant multiplicative
//! band with the *additive* model of Ajtai, Feldman, Hassidim and Nelson
//! ("Sorting and selection with imprecise comparisons"): a comparison of `x`
//! and `y` may be adversarial when `|x - y| <= theta`. The paper notes its
//! algorithms also apply under this model (Theorem 3.10's reduction turns
//! PairwiseComp answers into an additive-band oracle with `theta = 2*alpha`),
//! so we ship it: as the [`Additive`] band of
//! [`AdversarialOracle`], for both query shapes.

use crate::adversarial::{AdversarialOracle, Adversary, Band};
use crate::source::{Distances, Sealed, Source, Values};

/// Is `|x - y| <= theta` (the additive confusion band)?
#[inline]
pub fn in_additive_band(x: f64, y: f64, theta: f64) -> bool {
    (x - y).abs() <= theta
}

/// The additive band `|x - y| <= theta` ([`in_additive_band`]).
#[derive(Debug, Clone, Copy)]
pub struct Additive {
    theta: f64,
}

impl Sealed for Additive {}

impl Band for Additive {
    #[inline]
    fn contains(&self, x: f64, y: f64) -> bool {
        in_additive_band(x, y, self.theta)
    }
}

/// Additive-band adversarial comparison oracle over hidden values.
pub type AdditiveValueOracle<A> = AdversarialOracle<Values, A, Additive>;

/// Additive-band adversarial quadruplet oracle over a hidden metric.
pub type AdditiveQuadOracle<M, A> = AdversarialOracle<Distances<M>, A, Additive>;

impl<S: Source, A: Adversary> AdversarialOracle<S, A, Additive> {
    /// Builds the oracle with additive slack `theta >= 0`.
    ///
    /// # Panics
    /// Panics if `theta` is negative/non-finite or values are non-finite.
    pub fn new(hidden: S::Hidden, theta: f64, adversary: A) -> Self {
        assert!(theta >= 0.0 && theta.is_finite());
        Self {
            source: S::new(hidden),
            band: Additive { theta },
            adversary,
        }
    }

    /// The band width `theta`.
    pub fn theta(&self) -> f64 {
        self.band.theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::InvertAdversary;
    use crate::{ComparisonOracle, QuadrupletOracle};
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
