//! The exact comparison oracle over hidden scalar values.

use crate::persistent::PersistentNoise;
use crate::ComparisonOracle;

/// A perfect comparison oracle: answers every query truthfully.
///
/// This is the `mu = 0` / `p = 0` case of the noise models and the ground
/// truth that every noisy oracle in this crate wraps.
#[derive(Debug, Clone)]
pub struct TrueValueOracle {
    values: Vec<f64>,
}

impl TrueValueOracle {
    /// Builds an oracle over the given hidden values.
    ///
    /// # Panics
    /// Panics if any value is non-finite (the paper assumes a total order).
    pub fn new(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "hidden values must be finite"
        );
        Self { values }
    }

    /// Ground-truth values (for evaluators and tests only — algorithms must
    /// never read these).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Ground-truth value of a single record.
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }
}

impl ComparisonOracle for TrueValueOracle {
    fn n(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn le(&mut self, i: usize, j: usize) -> bool {
        self.values[i] <= self.values[j]
    }
}

impl PersistentNoise for TrueValueOracle {}

#[cfg(test)]
mod tests {
    use super::*;

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
