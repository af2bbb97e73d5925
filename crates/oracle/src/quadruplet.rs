//! The exact quadruplet oracle over a hidden metric space.

use crate::persistent::PersistentNoise;
use crate::QuadrupletOracle;
use nco_metric::Metric;

/// A perfect quadruplet oracle: compares true pairwise distances.
#[derive(Debug, Clone)]
pub struct TrueQuadOracle<M> {
    metric: M,
}

impl<M: Metric> TrueQuadOracle<M> {
    /// Builds an oracle over the given hidden metric.
    pub fn new(metric: M) -> Self {
        Self { metric }
    }

    /// The hidden metric (for evaluators and tests only).
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Consumes the oracle, returning the metric.
    pub fn into_metric(self) -> M {
        self.metric
    }
}

impl<M: Metric> QuadrupletOracle for TrueQuadOracle<M> {
    fn n(&self) -> usize {
        self.metric.len()
    }

    #[inline]
    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        self.metric.dist(a, b) <= self.metric.dist(c, d)
    }

    /// Batched round. Distance sharing lives one layer down (wrap the
    /// metric in `nco_metric::DistCache`); this loop keeps the answer
    /// sequence trivially identical to the scalar path.
    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        out.reserve(queries.len());
        for &[a, b, c, d] in queries {
            let ans = self.metric.dist(a, b) <= self.metric.dist(c, d);
            out.push(ans);
        }
    }
}

impl<M: Metric> PersistentNoise for TrueQuadOracle<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::EuclideanMetric;

    #[test]
    fn compares_true_distances() {
        let m = EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![5.0]]);
        let mut o = TrueQuadOracle::new(m);
        assert_eq!(o.n(), 3);
        assert!(o.le(0, 1, 0, 2)); // 1 <= 5
        assert!(!o.le(0, 2, 1, 2)); // 5 > 4
        assert!(o.le(1, 0, 0, 1)); // symmetric pairs tie -> Yes
        assert_eq!(o.metric().len(), 3);
    }
}
