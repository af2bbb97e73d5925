//! # nco-metric — hidden metric-space substrate
//!
//! The algorithms of the VLDB'21 paper *How to Design Robust Algorithms using
//! Noisy Comparison Oracle* never see coordinates or distances: all access to
//! the ground truth goes through (noisy) comparison oracles. This crate holds
//! the ground truth itself — the metric spaces that oracles compare over and
//! that evaluators measure against.
//!
//! The central abstraction is the [`Metric`] trait: a finite point set
//! `0..len()` with a pairwise distance `dist(i, j)`. Three implementations
//! cover all of the paper's datasets:
//!
//! * [`EuclideanMetric`] — dense d-dimensional points (cities, monuments,
//!   dblp-embedding analogues);
//! * [`TreeMetric`] — leaves of a category hierarchy with a level-based
//!   (jittered ultrametric) distance, matching how the paper derives ground
//!   truth for `caltech` (Caltech-256 category tree) and `amazon` (catalog
//!   hierarchy);
//! * [`MatrixMetric`] — an explicit distance matrix for tiny inputs such as
//!   the six-image example of Section 1 (Example 1.1).
//!
//! [`stats`] provides exact (ground-truth) maximum / farthest / nearest
//! helpers and distance histograms used by evaluation and by the Figure 4
//! user-study harness. [`hashing`] hosts the deterministic splitmix64 mixer
//! that both the jittered metrics and the persistent-noise oracles rely on.

pub mod cache;
pub mod euclidean;
pub mod hashing;
pub mod matrix;
pub mod stats;
pub mod tree;

pub use cache::{CachedMetric, DistCache};
pub use euclidean::EuclideanMetric;
pub use matrix::MatrixMetric;
pub use tree::{TreeMetric, TreeMetricBuilder};

/// A finite metric space over points indexed `0..len()`.
///
/// Implementations must guarantee the metric axioms for distinct indices:
/// `dist(i, i) == 0`, symmetry `dist(i, j) == dist(j, i)`, non-negativity,
/// and the triangle inequality. The property tests in this crate check them
/// for every shipped implementation.
pub trait Metric {
    /// Number of points in the space.
    fn len(&self) -> usize;

    /// Ground-truth distance between points `i` and `j`.
    ///
    /// # Panics
    /// May panic if `i` or `j` is out of bounds.
    fn dist(&self, i: usize, j: usize) -> f64;

    /// Returns `true` if the space contains no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<M: Metric + ?Sized> Metric for &M {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn dist(&self, i: usize, j: usize) -> f64 {
        (**self).dist(i, j)
    }
}

impl<M: Metric + ?Sized> Metric for Box<M> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn dist(&self, i: usize, j: usize) -> f64 {
        (**self).dist(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_and_reference_forwarding() {
        let m = MatrixMetric::from_fn(3, |i, j| (i as f64 - j as f64).abs());
        let by_ref: &dyn Metric = &m;
        assert_eq!(by_ref.len(), 3);
        assert_eq!(by_ref.dist(0, 2), 2.0);
        let boxed: Box<dyn Metric> = Box::new(m);
        assert_eq!(boxed.len(), 3);
        assert_eq!(boxed.dist(2, 0), 2.0);
        assert!(!boxed.is_empty());
    }
}
