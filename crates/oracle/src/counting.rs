//! Query metering — every reported query complexity flows through here.
//!
//! [`Counting`] wraps any oracle and bills every query issued through it.

use crate::persistent::PersistentNoise;
use crate::{Layer, Oracle, Reply};

/// Wraps any oracle and counts the queries issued through it.
///
/// The paper's central cost measure is *query complexity* (each oracle call
/// is a human/classifier invocation); wrap the oracle once and read
/// [`Counting::queries`] after an algorithm finishes.
#[derive(Debug, Clone)]
pub struct Counting<O> {
    inner: O,
    count: u64,
}

impl<O> Counting<O> {
    /// Wraps an oracle with a zeroed counter.
    pub fn new(inner: O) -> Self {
        Self { inner, count: 0 }
    }

    /// Queries issued so far.
    pub fn queries(&self) -> u64 {
        self.count
    }

    /// Resets the counter (e.g. between experiment repetitions).
    pub fn reset(&mut self) {
        self.count = 0;
    }

    /// Immutable access to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Mutable access to the wrapped oracle (does not count as a query).
    pub fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }

    /// Unwraps the oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

/// Counting is transparent: it forwards queries unchanged, so it
/// preserves the wrapped oracle's persistence.
impl<O: PersistentNoise> PersistentNoise for Counting<O> {}

// A faulted ask still bills: the worker was asked, whether or not a
// usable answer came back — which is what makes retry accounting honest
// (every re-ask shows up in the meter).
impl<Q: Copy, O: Oracle<Q>> Layer<Q> for Counting<O> {
    type Below = O;

    fn below(&self) -> &O {
        &self.inner
    }

    #[inline]
    fn one<R: Reply>(&mut self, q: Q) -> R {
        self.count += 1;
        R::one(&mut self.inner, q)
    }

    #[inline]
    fn round<R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>) {
        // A batch of k queries is k queries — same bill as the scalar loop.
        self.count += queries.len() as u64;
        R::round(&mut self.inner, queries, out);
    }
}

shape_traits!(impl[O] Counting<O>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComparisonOracle, QuadrupletOracle, TrueQuadOracle, TrueValueOracle};
    use nco_metric::EuclideanMetric;

    #[test]
    fn counts_comparison_queries() {
        let mut o = Counting::new(TrueValueOracle::new(vec![1.0, 2.0, 3.0]));
        assert_eq!(o.queries(), 0);
        let _ = o.le(0, 1);
        let _ = o.le(1, 2);
        assert_eq!(o.queries(), 2);
        o.reset();
        assert_eq!(o.queries(), 0);
        assert_eq!(o.n(), 3);
    }

    #[test]
    fn counts_quadruplet_queries_and_unwraps() {
        let m = EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![2.0]]);
        let mut o = Counting::new(TrueQuadOracle::new(m));
        let _ = o.le(0, 1, 0, 2);
        assert_eq!(o.queries(), 1);
        assert_eq!(o.inner().n(), 3);
        let inner = o.into_inner();
        assert_eq!(inner.n(), 3);
    }

    #[test]
    fn batch_is_billed_per_query() {
        let m = EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![2.0]]);
        let mut o = Counting::new(TrueQuadOracle::new(m));
        let mut out = Vec::new();
        o.le_batch(&[[0, 1, 0, 2], [0, 2, 1, 2], [1, 2, 0, 1]], &mut out);
        assert_eq!(o.queries(), 3);
        assert_eq!(out, vec![true, false, true]);
    }
}
