//! k-center baselines of the paper's evaluation (Section 6.1, Table 1,
//! Figure 6):
//!
//! * [`kcenter_tour2`] — greedy k-center where Approx-Farthest is a binary
//!   tournament and assignment is a naive running minimum (one query per
//!   point per new center). This is the strategy Section 3's worst-case
//!   example shows "can be arbitrarily worse even for small error".
//! * [`kcenter_samp`] — the `Samp` baseline: greedy over a sample of
//!   `k * log2(n)` points with quadratic Count-Max farthest searches, then
//!   every remaining point is assigned by querying it against every pair
//!   of centers (MCount).
//! * [`oq_clustering`] — the *optimal cluster query* strawman of
//!   Section 6.2.2: pairwise "same cluster?" answers, positive edges,
//!   connected components. High precision / low recall behaviour comes
//!   from the oracle model (`nco_oracle::cluster_query`).

use super::Clustering;
use crate::comparator::PairDistCmp;
use crate::maxfind::{count_max, tournament};
use nco_oracle::cluster_query::ClusterQueryOracle;
use nco_oracle::QuadrupletOracle;
use rand::seq::SliceRandom;
use rand::Rng;

/// `Tour2` k-center: binary-tournament farthest + running-minimum assign.
///
/// # Panics
/// Panics if `k == 0` or `k > oracle.n()`.
pub fn kcenter_tour2<O, R>(
    k: usize,
    first_center: Option<usize>,
    oracle: &mut O,
    rng: &mut R,
) -> Clustering
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = oracle.n();
    assert!(k >= 1 && k <= n, "need 1 <= k <= n (k = {k}, n = {n})");
    let first = first_center.unwrap_or_else(|| rng.random_range(0..n));

    let mut centers = vec![first];
    let mut assignment = vec![0usize; n];
    let mut is_center = vec![false; n];
    is_center[first] = true;

    while centers.len() < k {
        let items: Vec<usize> = (0..n).filter(|&v| !is_center[v]).collect();
        let mut cmp = PairDistCmp::new(oracle, |v| (v, centers[assignment[v]]));
        let far = tournament(&items, 2, &mut cmp, rng).expect("non-empty candidates");
        let pos = centers.len();
        centers.push(far);
        is_center[far] = true;
        assignment[far] = pos;
        // Naive reassignment: one query per point against the incumbent.
        for v in 0..n {
            if is_center[v] {
                continue;
            }
            let cur = centers[assignment[v]];
            if oracle.le(far, v, cur, v) {
                assignment[v] = pos;
            }
        }
    }
    let c = Clustering {
        centers,
        assignment,
    };
    c.validate();
    c
}

/// `Samp` k-center: greedy over a `k * log2(n)` sample, then MCount
/// assignment of every point against all center pairs.
///
/// # Panics
/// Panics if `k == 0` or `k > oracle.n()`.
pub fn kcenter_samp<O, R>(
    k: usize,
    first_center: Option<usize>,
    oracle: &mut O,
    rng: &mut R,
) -> Clustering
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = oracle.n();
    assert!(k >= 1 && k <= n, "need 1 <= k <= n (k = {k}, n = {n})");

    // Sample k * log2(n) points (always at least k).
    let target = (k * (n.max(2) as f64).log2().ceil() as usize).clamp(k, n);
    let mut sample: Vec<usize> = (0..n).collect();
    sample.shuffle(rng);
    sample.truncate(target);
    let first = match first_center {
        Some(f) => {
            if !sample.contains(&f) {
                sample[0] = f;
            }
            f
        }
        None => sample[0],
    };

    // Greedy over the sample: Count-Max farthest, MCount assign.
    let mut centers = vec![first];
    let mut s_assign: Vec<usize> = vec![0; n]; // positions for sampled points
    let mut is_center = vec![false; n];
    is_center[first] = true;

    while centers.len() < k {
        let items: Vec<usize> = sample.iter().copied().filter(|&v| !is_center[v]).collect();
        let mut cmp = PairDistCmp::new(oracle, |v| (v, centers[s_assign[v]]));
        let far = count_max(&items, &mut cmp).expect("sample larger than k");
        let pos = centers.len();
        centers.push(far);
        is_center[far] = true;
        s_assign[far] = pos;
        for &v in &sample {
            if is_center[v] {
                continue;
            }
            let cur = centers[s_assign[v]];
            if oracle.le(far, v, cur, v) {
                s_assign[v] = pos;
            }
        }
    }

    // Final MCount assignment of every point against every center pair.
    let mut assignment = vec![0usize; n];
    for v in 0..n {
        if is_center[v] {
            assignment[v] = centers.iter().position(|&c| c == v).expect("is a center");
            continue;
        }
        let kk = centers.len();
        let mut wins = vec![0u32; kk];
        for a in 0..kk {
            for b in (a + 1)..kk {
                if oracle.le(centers[a], v, centers[b], v) {
                    wins[a] += 1;
                } else {
                    wins[b] += 1;
                }
            }
        }
        assignment[v] = wins
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.cmp(y.1).then(y.0.cmp(&x.0)))
            .map(|(j, _)| j)
            .expect("k >= 1");
    }
    let c = Clustering {
        centers,
        assignment,
    };
    c.validate();
    c
}

/// Uniformly samples `count` distinct record pairs (for the `Oq` baseline's
/// query budget; the paper's user study labelled 150 pairs).
pub fn sample_pairs<R: Rng + ?Sized>(n: usize, count: usize, rng: &mut R) -> Vec<(usize, usize)> {
    assert!(n >= 2, "need at least two records");
    let total = n * (n - 1) / 2;
    if count >= total {
        let mut all = Vec::with_capacity(total);
        for i in 0..n {
            for j in (i + 1)..n {
                all.push((i, j));
            }
        }
        return all;
    }
    let mut seen = std::collections::HashSet::with_capacity(count * 2);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j {
            continue;
        }
        let p = (i.min(j), i.max(j));
        if seen.insert(p) {
            out.push(p);
        }
    }
    out
}

/// The `Oq` baseline: query the given pairs against the same-cluster
/// oracle and return connected components of the positive edges as cluster
/// labels (`0..c`).
pub fn oq_clustering(oracle: &mut ClusterQueryOracle, pairs: &[(usize, usize)]) -> Vec<usize> {
    let n = oracle.n();
    let mut uf = UnionFind::new(n);
    for &(i, j) in pairs {
        if oracle.same_cluster(i, j) {
            uf.union(i, j);
        }
    }
    uf.labels()
}

/// Minimal union-find with path compression (used by `Oq`).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }

    /// Component labels compacted to `0..c` in first-seen order.
    fn labels(&mut self) -> Vec<usize> {
        let n = self.parent.len();
        let mut map = std::collections::HashMap::new();
        let mut out = Vec::with_capacity(n);
        for v in 0..n {
            let r = self.find(v);
            let next = map.len();
            out.push(*map.entry(r).or_insert(next));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::stats::kcenter_objective;
    use nco_metric::EuclideanMetric;
    use nco_oracle::TrueQuadOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn blobs() -> EuclideanMetric {
        let centers = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)];
        let mut pts = Vec::new();
        for &(cx, cy) in &centers {
            for p in 0..20 {
                let a = p as f64;
                pts.push(vec![cx + (a * 0.9).sin(), cy + (a * 1.3).cos()]);
            }
        }
        EuclideanMetric::from_points(&pts)
    }

    #[test]
    fn tour2_perfect_oracle_matches_greedy_shape() {
        let m = blobs();
        let mut o = TrueQuadOracle::new(m.clone());
        let c = kcenter_tour2(3, Some(0), &mut o, &mut rng(1));
        c.validate();
        let obj = kcenter_objective(&m, &c.centers, &c.assignment);
        assert!(obj < 5.0, "objective {obj}: one center per blob expected");
    }

    #[test]
    fn samp_perfect_oracle_is_reasonable() {
        let m = blobs();
        let mut o = TrueQuadOracle::new(m.clone());
        let c = kcenter_samp(3, Some(0), &mut o, &mut rng(2));
        c.validate();
        let obj = kcenter_objective(&m, &c.centers, &c.assignment);
        assert!(obj < 60.0, "objective {obj}");
    }

    #[test]
    fn sample_pairs_distinct_and_complete() {
        let mut r = rng(3);
        let pairs = sample_pairs(10, 20, &mut r);
        assert_eq!(pairs.len(), 20);
        let mut dedup = pairs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
        let all = sample_pairs(5, 100, &mut r);
        assert_eq!(all.len(), 10); // C(5,2)
    }

    #[test]
    fn oq_with_perfect_answers_recovers_components() {
        let labels = vec![0, 0, 1, 1, 2, 2];
        let mut o = ClusterQueryOracle::new(labels.clone(), 0.0, 0.0, 7);
        let mut r = rng(5);
        let pairs = sample_pairs(6, 15, &mut r);
        let got = oq_clustering(&mut o, &pairs);
        // Same partition up to relabelling.
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(got[i] == got[j], labels[i] == labels[j], "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn oq_low_recall_splits_clusters() {
        // With heavy false negatives and few sampled pairs, ground-truth
        // clusters shatter — the Table 1 phenomenon.
        let n = 60;
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let mut o = ClusterQueryOracle::new(labels, 0.6, 0.0, 11);
        let mut r = rng(6);
        let pairs = sample_pairs(n, 150, &mut r);
        let got = oq_clustering(&mut o, &pairs);
        let clusters = got.iter().copied().max().unwrap() + 1;
        assert!(clusters > 3, "expected shattering, got {clusters} clusters");
    }
}
