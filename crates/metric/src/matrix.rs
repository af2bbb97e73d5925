//! Explicit distance matrices for tiny inputs and tests.
//!
//! The paper's Example 1.1 (six landmark photos with Google-Vision
//! similarities) and the worked adversarial examples (Example 3.2 / Fig. 2)
//! are point sets given directly by their pairwise distances; this type holds
//! them. Storage is the condensed upper triangle (`n*(n-1)/2` entries).

use crate::Metric;

/// A metric given by an explicit (condensed) distance matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixMetric {
    n: usize,
    // Condensed upper triangle, row-major: entry for (i, j) with i < j lives
    // at `i*n - i*(i+1)/2 + (j - i - 1)`.
    tri: Vec<f64>,
}

impl MatrixMetric {
    /// Builds a matrix metric by evaluating `f(i, j)` for every `i < j`.
    ///
    /// # Panics
    /// Panics if `f` returns a negative or non-finite distance.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut tri = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = f(i, j);
                assert!(
                    d.is_finite() && d >= 0.0,
                    "distance ({i},{j}) = {d} must be finite and non-negative"
                );
                tri.push(d);
            }
        }
        Self { n, tri }
    }

    /// Builds a matrix metric from a full `n x n` matrix (row-major).
    ///
    /// Validation (symmetry, zero diagonal, finite non-negative entries)
    /// and condensed-triangle construction happen in a single pass over
    /// the upper triangle — each entry is read once, not re-walked by a
    /// second builder loop.
    ///
    /// # Panics
    /// Panics if the matrix is not square/symmetric, has a non-zero diagonal,
    /// or contains negative or non-finite entries.
    pub fn from_full(full: &[f64], n: usize) -> Self {
        assert_eq!(full.len(), n * n, "matrix must be n x n");
        let mut tri = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            assert_eq!(full[i * n + i], 0.0, "diagonal must be zero");
            for j in (i + 1)..n {
                let d = full[i * n + j];
                assert_eq!(d, full[j * n + i], "matrix must be symmetric at ({i},{j})");
                assert!(
                    d.is_finite() && d >= 0.0,
                    "distance ({i},{j}) = {d} must be finite and non-negative"
                );
                tri.push(d);
            }
        }
        Self { n, tri }
    }

    /// Materialises any metric into an explicit matrix (O(n^2) memory).
    pub fn from_metric<M: Metric>(m: &M) -> Self {
        Self::from_fn(m.len(), |i, j| m.dist(i, j))
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Overwrites the distance between `i` and `j` (for hand-built examples).
    ///
    /// # Panics
    /// Panics if `i == j` or the value is negative/non-finite.
    pub fn set(&mut self, i: usize, j: usize, d: f64) {
        assert!(i != j, "cannot set the diagonal");
        assert!(d.is_finite() && d >= 0.0);
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let at = self.idx(a, b);
        self.tri[at] = d;
    }
}

impl Metric for MatrixMetric {
    #[inline]
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.tri[self.idx(a, b)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condensed_indexing_covers_all_pairs() {
        let n = 7;
        let m = MatrixMetric::from_fn(n, |i, j| (i * 10 + j) as f64);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    assert_eq!(m.dist(i, j), 0.0);
                } else {
                    let (a, b) = if i < j { (i, j) } else { (j, i) };
                    assert_eq!(m.dist(i, j), (a * 10 + b) as f64);
                }
            }
        }
    }

    #[test]
    fn from_full_round_trips() {
        #[rustfmt::skip]
        let full = [
            0.0, 1.0, 2.0,
            1.0, 0.0, 3.0,
            2.0, 3.0, 0.0,
        ];
        let m = MatrixMetric::from_full(&full, 3);
        assert_eq!(m.dist(0, 1), 1.0);
        assert_eq!(m.dist(2, 1), 3.0);
    }

    #[test]
    fn set_updates_both_orientations() {
        let mut m = MatrixMetric::from_fn(4, |_, _| 1.0);
        m.set(2, 0, 5.0);
        assert_eq!(m.dist(0, 2), 5.0);
        assert_eq!(m.dist(2, 0), 5.0);
    }

    #[test]
    fn from_metric_materialises() {
        let e = crate::EuclideanMetric::from_points(&[vec![0.0], vec![3.0], vec![7.0]]);
        let m = MatrixMetric::from_metric(&e);
        assert_eq!(m.dist(0, 2), 7.0);
        assert_eq!(m.dist(1, 2), 4.0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_full_rejects_asymmetry() {
        let full = [0.0, 1.0, 2.0, 0.0];
        let _ = MatrixMetric::from_full(&full, 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_full_rejects_negative_in_single_pass() {
        let full = [0.0, -1.0, -1.0, 0.0];
        let _ = MatrixMetric::from_full(&full, 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_fn_rejects_negative() {
        let _ = MatrixMetric::from_fn(2, |_, _| -1.0);
    }
}
