//! Agglomerative hierarchical clustering under noisy quadruplet oracles —
//! Section 5 of the paper.
//!
//! The algorithms maintain, for every pair of live clusters, a
//! *representative record pair* realising their linkage distance; merging
//! then costs **one** quadruplet query per other cluster
//! (`d_SL(C_j ∪ C_l, C_k) = min(d_SL(C_j, C_k), d_SL(C_l, C_k))`), the trick
//! that brings Algorithm 11 down to `O(n^2 log^2(n/delta))` queries from
//! the naive `O(n^3)`.
//!
//! * [`hier_oracle`] — Algorithm 11: nearest-neighbour pointers per
//!   cluster, closest-pair selection via the Section 3 minimum engine;
//!   every merge is a `(1+mu)^3`-approximation of the best available merge
//!   (Theorem 5.2). Handles single *and* complete linkage.
//! * [`hier_exact`] — Lance–Williams agglomeration on true distances, the
//!   `TDist` reference of Figure 7.
//! * [`baselines`] — `Tour2` (binary tournament over all cluster pairs per
//!   merge: the `O(n^3)` method that DNFs in Table 2) and `Samp` (sampled
//!   candidate pairs).
//!
//! The output [`Dendrogram`] records the merge sequence with representative
//! pairs; [`Dendrogram::cut`] extracts flat clusterings for evaluation.

pub mod baselines;
mod exact;
mod graph;
mod slink;

pub use exact::hier_exact;
pub use slink::{hier_oracle, hier_oracle_scratch, hier_oracle_stats, HierParams, MergePlaneStats};

/// Agglomeration objective: how the distance between two clusters is
/// defined (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// `d(C1, C2) = min` over cross pairs — single linkage.
    Single,
    /// `d(C1, C2) = max` over cross pairs — complete linkage.
    Complete,
}

/// One agglomeration step: clusters `a` and `b` became `merged`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Id of the new cluster (`n + step`).
    pub merged: usize,
    /// Representative record pair that realised (approximately) the
    /// linkage distance between `a` and `b` at merge time.
    pub rep: (usize, usize),
}

/// The full merge tree over `n` leaves (ids `0..n`; internal ids
/// `n..2n-1` in merge order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dendrogram {
    /// Number of leaves (records).
    pub n: usize,
    /// Merge sequence, `n - 1` entries for a complete agglomeration.
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// Flat clustering with `k` clusters: replay the first `n - k` merges
    /// and label the leaves by component, labels compacted to `0..k` in
    /// first-seen order.
    ///
    /// # Panics
    /// Panics unless `1 <= k <= n` and the dendrogram has enough merges.
    pub fn cut(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n, "need 1 <= k <= n");
        let steps = self.n - k;
        assert!(
            steps <= self.merges.len(),
            "dendrogram too shallow for k = {k}"
        );
        let mut parent: Vec<usize> = (0..self.n + steps).collect();
        for (s, m) in self.merges[..steps].iter().enumerate() {
            let new = self.n + s;
            assert_eq!(m.merged, new, "merge ids must be sequential");
            let ra = root(&mut parent, m.a);
            parent[ra] = new;
            let rb = root(&mut parent, m.b);
            parent[rb] = new;
        }
        let mut map = std::collections::HashMap::new();
        (0..self.n)
            .map(|v| {
                let r = root(&mut parent, v);
                let next = map.len();
                *map.entry(r).or_insert(next)
            })
            .collect()
    }

    /// Checks structural invariants: sequential ids, each cluster merged
    /// at most once, reps are valid records.
    pub fn validate(&self) {
        let mut used = vec![false; self.n + self.merges.len()];
        for (s, m) in self.merges.iter().enumerate() {
            assert_eq!(m.merged, self.n + s, "merge ids must be sequential");
            for c in [m.a, m.b] {
                assert!(c < m.merged, "cannot merge a future cluster");
                assert!(!used[c], "cluster {c} merged twice");
                used[c] = true;
            }
            assert!(m.rep.0 < self.n && m.rep.1 < self.n, "rep must be records");
        }
    }
}

fn root(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_dendrogram() -> Dendrogram {
        // 4 leaves: merge (0,1) -> 4, (2,3) -> 5, (4,5) -> 6.
        Dendrogram {
            n: 4,
            merges: vec![
                Merge {
                    a: 0,
                    b: 1,
                    merged: 4,
                    rep: (0, 1),
                },
                Merge {
                    a: 2,
                    b: 3,
                    merged: 5,
                    rep: (2, 3),
                },
                Merge {
                    a: 4,
                    b: 5,
                    merged: 6,
                    rep: (1, 2),
                },
            ],
        }
    }

    #[test]
    fn cut_produces_partitions_at_every_k() {
        let d = chain_dendrogram();
        d.validate();
        assert_eq!(d.cut(4), vec![0, 1, 2, 3]);
        assert_eq!(d.cut(2), vec![0, 0, 1, 1]);
        assert_eq!(d.cut(1), vec![0, 0, 0, 0]);
        let c3 = d.cut(3);
        assert_eq!(c3[0], c3[1]);
        assert_ne!(c3[2], c3[3]);
    }

    #[test]
    #[should_panic(expected = "merged twice")]
    fn validate_rejects_double_merge() {
        let d = Dendrogram {
            n: 3,
            merges: vec![
                Merge {
                    a: 0,
                    b: 1,
                    merged: 3,
                    rep: (0, 1),
                },
                Merge {
                    a: 0,
                    b: 2,
                    merged: 4,
                    rep: (0, 2),
                },
            ],
        };
        d.validate();
    }
}
