//! The exact oracle, over hidden values or a hidden metric.

use crate::persistent::PersistentNoise;
use crate::source::{Distances, Query, Source, Values};
use nco_metric::Metric;

/// A perfect oracle: answers every query truthfully.
///
/// This is the `mu = 0` / `p = 0` case of the noise models and the ground
/// truth that every noisy oracle in this crate wraps.
#[derive(Debug, Clone)]
pub struct TrueOracle<S> {
    source: S,
}

/// The exact comparison oracle over hidden values.
pub type TrueValueOracle = TrueOracle<Values>;

impl<S: Source> TrueOracle<S> {
    /// Builds an oracle over hidden values or a hidden metric.
    ///
    /// # Panics
    /// Panics if any value is non-finite (the paper assumes a total order).
    pub fn new(hidden: S::Hidden) -> Self {
        Self {
            source: S::new(hidden),
        }
    }

    /// Identical operands tie, so they are answered `Yes` like any tie.
    #[inline]
    fn answer(&self, q: S::Query, right: &mut S::Right) -> bool {
        let Some((l, r)) = q.split() else {
            return true;
        };
        let (ml, mr) = self.source.magnitudes(l, r, right);
        ml <= mr
    }
}

impl TrueValueOracle {
    /// Ground-truth value of a single record.
    pub fn value(&self, i: usize) -> f64 {
        self.source.0[i]
    }
}

impl<M: Metric> TrueOracle<Distances<M>> {
    /// Consumes the oracle, returning the metric.
    pub fn into_metric(self) -> M {
        self.source.0
    }
}

noise_traits!(TrueOracle[]);

impl<S> PersistentNoise for TrueOracle<S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComparisonOracle;

    #[test]
    fn answers_truthfully() {
        let mut o = TrueValueOracle::new(vec![3.0, 1.0, 2.0]);
        assert!(!o.le(0, 1));
        assert!(o.le(1, 2));
        assert!(o.le(1, 1)); // <= on equal values is Yes
        assert_eq!(o.n(), 3);
        assert_eq!(o.value(2), 2.0);
        assert_eq!(o.values(), &[3.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_values() {
        let _ = TrueValueOracle::new(vec![0.0, f64::INFINITY]);
    }
}
