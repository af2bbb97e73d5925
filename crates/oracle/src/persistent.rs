//! The persistence marker.
//!
//! Section 2.2's noise models are **persistent**: the answer to a query is
//! a pure function of the (canonicalised) query, so repeating it returns
//! the same bit. Two pieces of infrastructure build on that property and
//! require it in the type system through [`PersistentNoise`]:
//!
//! * [`crate::memo::MemoOracle`] caches answers — exact only when the
//!   wrapped oracle would have answered the repeat identically;
//! * `nco-core`'s incremental hierarchy planes reuse cached contest
//!   outcomes instead of re-asking them.

/// Marker: the oracle's answers are a pure function of the canonical
/// query (the persistent-noise property of Section 2.2).
///
/// Implementing this for an oracle whose answers depend on query history
/// or other mutable state is a logic error: memoisation would silently
/// change its behaviour.
pub trait PersistentNoise {}

impl<O: PersistentNoise + ?Sized> PersistentNoise for &mut O {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::{
        AdversarialQuadOracle, AdversarialValueOracle, ConsistentAdversary, InvertAdversary,
        PersistentRandomAdversary,
    };
    use crate::crowd::{AccuracyProfile, CrowdQuadOracle};
    use crate::probabilistic::{ProbQuadOracle, ProbValueOracle};
    use crate::{ComparisonOracle, QuadrupletOracle, TrueQuadOracle, TrueValueOracle};
    use nco_metric::EuclideanMetric;

    fn assert_repeats_agree<O: ComparisonOracle + PersistentNoise>(mut o: O) {
        let n = o.n();
        for i in 0..n {
            for j in 0..n {
                let first = o.le(i, j);
                assert_eq!(o.le(i, j), first, "({i},{j})");
            }
        }
    }

    fn assert_quad_repeats_agree<O: QuadrupletOracle + PersistentNoise>(mut o: O) {
        let n = o.n();
        for a in 0..n {
            for c in 0..n {
                let (b, d) = ((a + 1) % n, (c + 2) % n);
                let first = o.le(a, b, c, d);
                assert_eq!(o.le(a, b, c, d), first, "({a},{b},{c},{d})");
                // Mirror and within-pair swaps too.
                let mirrored = o.le(b, a, d, c);
                assert_eq!(o.le(b, a, d, c), mirrored);
            }
        }
    }

    #[test]
    fn repeated_comparisons_return_the_same_bit() {
        assert_repeats_agree(TrueValueOracle::new(vec![3.0, 1.0, 2.0]));
        assert_repeats_agree(ProbValueOracle::new(
            (0..40).map(f64::from).collect(),
            0.3,
            99,
        ));
    }

    /// Every shipped in-band strategy decides as a pure function of the
    /// query, which is what the `PersistentNoise` impl of the adversarial
    /// oracles claims.
    #[test]
    fn adversarial_repeats_return_the_same_bit() {
        // Values inside one (1 + mu) band so the adversary decides often.
        let values: Vec<f64> = (0..30).map(|i| 10.0 + 0.1 * i as f64).collect();
        assert_repeats_agree(AdversarialValueOracle::new(
            values.clone(),
            0.5,
            InvertAdversary,
        ));
        assert_repeats_agree(AdversarialValueOracle::new(
            values.clone(),
            0.5,
            PersistentRandomAdversary::new(7),
        ));
        assert_repeats_agree(AdversarialValueOracle::new(
            values,
            0.5,
            ConsistentAdversary::new(3, 0.5),
        ));
    }

    #[test]
    fn repeated_quadruplets_return_the_same_bit() {
        let m = EuclideanMetric::from_points(
            &(0..20)
                .map(|i| vec![(i * 7 % 13) as f64, i as f64 * 0.6])
                .collect::<Vec<_>>(),
        );
        assert_quad_repeats_agree(TrueQuadOracle::new(m.clone()));
        assert_quad_repeats_agree(ProbQuadOracle::new(m.clone(), 0.25, 11));
        assert_quad_repeats_agree(AdversarialQuadOracle::new(m.clone(), 0.4, InvertAdversary));
        assert_quad_repeats_agree(AdversarialQuadOracle::new(
            m.clone(),
            0.4,
            PersistentRandomAdversary::new(5),
        ));
        assert_quad_repeats_agree(CrowdQuadOracle::new(
            m,
            AccuracyProfile::caltech_like(),
            3,
            21,
        ));
    }
}
