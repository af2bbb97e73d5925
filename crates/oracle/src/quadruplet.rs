//! The exact quadruplet oracle over a hidden metric space.

use crate::source::Distances;
use crate::value::TrueOracle;

/// A perfect quadruplet oracle: compares true pairwise distances.
pub type TrueQuadOracle<M> = TrueOracle<Distances<M>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuadrupletOracle;
    use nco_metric::{EuclideanMetric, Metric};

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
