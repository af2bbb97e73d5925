//! The adjacency substrate shared by every oracle-driven agglomeration:
//! for each unordered pair of live clusters, the representative record
//! pair realising (approximately) their linkage distance.
//!
//! Merging clusters `a` and `b` into `new` updates each surviving cluster
//! `c` with **one** quadruplet query comparing `rep(a, c)` against
//! `rep(b, c)` — the single-linkage identity
//! `d_SL(a ∪ b, c) = min(d_SL(a, c), d_SL(b, c))` (keep the closer rep) and
//! its complete-linkage mirror (keep the farther rep). This is what caps
//! Algorithm 11 at `O(n^2)` total adjacency work.
//!
//! Storage is a dense slot matrix, not a hash map: live clusters occupy
//! slots `0..m` of a fixed `n x n` rep matrix, every `rep` lookup is two
//! `Vec` indexings, and a merge frees its two slots by installing the new
//! cluster in one and swap-removing the other (copying one matrix
//! row/column). The seed implementation kept a `HashMap` keyed by packed
//! cluster-id pairs — four hashed lookups per oracle query on the
//! clustering hot path.

use super::Linkage;
use nco_oracle::QuadrupletOracle;

const DEAD: usize = usize::MAX;

/// Live clusters plus per-pair representative record pairs.
pub(crate) struct ClusterGraph {
    n0: usize,
    next_id: usize,
    /// `active[slot]` = id of the live cluster occupying that slot.
    active: Vec<usize>,
    /// `slot_of[id]` = slot of a live cluster, [`DEAD`] otherwise.
    slot_of: Vec<usize>,
    /// Dense `n0 x n0` rep matrix indexed by slot pairs (diagonal unused).
    reps: Vec<(u32, u32)>,
}

impl ClusterGraph {
    /// Singleton clusters `0..n`; the rep for `(i, j)` is the pair itself.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least two records");
        let mut reps = vec![(0u32, 0u32); n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    reps[i * n + j] = (i.min(j) as u32, i.max(j) as u32);
                }
            }
        }
        Self {
            n0: n,
            next_id: n,
            active: (0..n).collect(),
            slot_of: (0..n).collect(),
            reps,
        }
    }

    /// Currently live cluster ids (slot order; merges swap-remove).
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// The representative record pair between live clusters `a` and `b`.
    ///
    /// Liveness is checked in debug builds only — `rep` sits on the
    /// query-translation hot path (twice per quadruplet query), and a
    /// dead cluster's `DEAD` slot would fault the `reps` indexing below
    /// anyway rather than silently mis-read.
    ///
    /// # Panics
    /// Panics (in debug builds) if either cluster is not live.
    #[inline]
    pub fn rep(&self, a: usize, b: usize) -> (usize, usize) {
        let (sa, sb) = (self.slot_of[a], self.slot_of[b]);
        debug_assert!(sa != DEAD && sb != DEAD, "rep of a dead cluster");
        let r = self.reps[sa * self.n0 + sb];
        (r.0 as usize, r.1 as usize)
    }

    /// Merges live clusters `a` and `b`; returns the new cluster id.
    ///
    /// Issues one oracle query per surviving cluster to select the new
    /// representative pairs (min for single linkage, max for complete).
    pub fn merge<O: QuadrupletOracle>(
        &mut self,
        a: usize,
        b: usize,
        linkage: Linkage,
        oracle: &mut O,
    ) -> usize {
        self.merge_impl(a, b, linkage, oracle, None)
    }

    /// [`merge`](Self::merge), additionally recording, per survivor, which
    /// parent's representative the union kept: `kept` is cleared and filled
    /// with `(survivor id, kept from a)` in survivor-slot order. Queries and
    /// answers are bit-identical to `merge` — the provenance is read off
    /// the rep-refresh round the merge issues anyway. The shared-scaffold
    /// search plane uses it to decide which cached duel outcomes transfer
    /// verbatim to the union's row (see `maxfind::RowScaffold::note_merge`).
    pub fn merge_recording<O: QuadrupletOracle>(
        &mut self,
        a: usize,
        b: usize,
        linkage: Linkage,
        oracle: &mut O,
        kept: &mut Vec<(usize, bool)>,
    ) -> usize {
        self.merge_impl(a, b, linkage, oracle, Some(kept))
    }

    fn merge_impl<O: QuadrupletOracle>(
        &mut self,
        a: usize,
        b: usize,
        linkage: Linkage,
        oracle: &mut O,
        kept: Option<&mut Vec<(usize, bool)>>,
    ) -> usize {
        assert!(a != b, "cannot merge a cluster with itself");
        let new = self.next_id;
        self.next_id += 1;
        let n0 = self.n0;
        let (sa, sb) = (self.slot_of[a], self.slot_of[b]);
        assert!(sa != DEAD && sb != DEAD, "merge of a dead cluster");

        // One query per survivor, issued as a single batched round so
        // oracle-side amortisation (distance dedup) can
        // kick in — the `le_batch` contract keeps answers bit-identical
        // to the scalar loop. O(r1, r2) == Yes  <=>  d(r1) <= d(r2).
        let mut survivors: Vec<usize> = Vec::with_capacity(self.active.len());
        let mut queries: Vec<[usize; 4]> = Vec::with_capacity(self.active.len());
        for sc in 0..self.active.len() {
            if sc == sa || sc == sb {
                continue;
            }
            let r1 = self.reps[sa * n0 + sc];
            let r2 = self.reps[sb * n0 + sc];
            survivors.push(sc);
            queries.push([r1.0 as usize, r1.1 as usize, r2.0 as usize, r2.1 as usize]);
        }
        let mut answers: Vec<bool> = Vec::with_capacity(queries.len());
        oracle.le_batch(&queries, &mut answers);
        let mut kept = kept;
        if let Some(kept) = kept.as_deref_mut() {
            kept.clear();
        }
        for (&sc, &r1_closer) in survivors.iter().zip(answers.iter()) {
            let r1 = self.reps[sa * n0 + sc];
            let r2 = self.reps[sb * n0 + sc];
            let from_a = match linkage {
                // Single keeps the closer pair, complete the farther one.
                Linkage::Single => r1_closer,
                Linkage::Complete => !r1_closer,
            };
            let keep = if from_a { r1 } else { r2 };
            if let Some(kept) = kept.as_deref_mut() {
                kept.push((self.active[sc], from_a));
            }
            self.reps[sa * n0 + sc] = keep;
            self.reps[sc * n0 + sa] = keep;
        }

        self.active[sa] = new;
        debug_assert_eq!(self.slot_of.len(), new);
        self.slot_of.push(sa);
        self.slot_of[a] = DEAD;
        self.slot_of[b] = DEAD;

        // Swap-remove slot `sb`: the cluster in the last slot moves in,
        // bringing its matrix row and column along.
        let last = self.active.len() - 1;
        let moved = self.active[last];
        self.active.swap_remove(sb);
        if sb != last {
            for t in 0..self.active.len() {
                self.reps[sb * n0 + t] = self.reps[last * n0 + t];
                self.reps[t * n0 + sb] = self.reps[t * n0 + last];
            }
            self.slot_of[moved] = sb;
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::EuclideanMetric;
    use nco_oracle::counting::Counting;
    use nco_oracle::TrueQuadOracle;

    fn line_oracle() -> TrueQuadOracle<EuclideanMetric> {
        // Points at 0, 1, 5, 6.
        TrueQuadOracle::new(EuclideanMetric::from_points(&[
            vec![0.0],
            vec![1.0],
            vec![5.0],
            vec![6.0],
        ]))
    }

    #[test]
    fn initial_reps_are_the_pairs_themselves() {
        let g = ClusterGraph::new(4);
        assert_eq!(g.rep(0, 3), (0, 3));
        assert_eq!(g.rep(3, 0), (0, 3));
        assert_eq!(g.active().len(), 4);
    }

    #[test]
    fn single_linkage_merge_keeps_closer_rep() {
        let mut o = line_oracle();
        let mut g = ClusterGraph::new(4);
        // Merge {0} and {1} -> 4. Against cluster 2: reps (0,2) d=5 vs
        // (1,2) d=4 -> keep (1,2). Against 3: (1,3) d=5.
        let new = g.merge(0, 1, Linkage::Single, &mut o);
        assert_eq!(new, 4);
        assert_eq!(g.rep(4, 2), (1, 2));
        assert_eq!(g.rep(4, 3), (1, 3));
        // Slot order: 4 took slot 0, 3 swap-removed into slot 1.
        let mut live = g.active().to_vec();
        live.sort_unstable();
        assert_eq!(live, vec![2, 3, 4]);
    }

    #[test]
    fn complete_linkage_merge_keeps_farther_rep() {
        let mut o = line_oracle();
        let mut g = ClusterGraph::new(4);
        let new = g.merge(0, 1, Linkage::Complete, &mut o);
        assert_eq!(g.rep(new, 2), (0, 2)); // d=5 > d=4
        assert_eq!(g.rep(new, 3), (0, 3));
    }

    #[test]
    fn merge_costs_one_query_per_survivor() {
        let mut o = Counting::new(line_oracle());
        let mut g = ClusterGraph::new(4);
        let _ = g.merge(2, 3, Linkage::Single, &mut o);
        assert_eq!(o.queries(), 2); // survivors {0} and {1}
    }

    #[test]
    fn sequential_merges_compose() {
        let mut o = line_oracle();
        let mut g = ClusterGraph::new(4);
        let c01 = g.merge(0, 1, Linkage::Single, &mut o);
        let c23 = g.merge(2, 3, Linkage::Single, &mut o);
        assert_eq!(g.rep(c01, c23), (1, 2)); // closest cross pair d=4
        assert_eq!(g.rep(c23, c01), (1, 2));
        let top = g.merge(c01, c23, Linkage::Single, &mut o);
        assert_eq!(g.active(), &[top]);
    }

    #[test]
    fn swap_removed_rows_keep_their_reps() {
        // Exercise the row/column move: merge in the middle of the slot
        // range and check every surviving pair's rep is intact.
        let m =
            EuclideanMetric::from_points(&(0..6).map(|i| vec![i as f64 * 1.5]).collect::<Vec<_>>());
        let mut o = TrueQuadOracle::new(m);
        let mut g = ClusterGraph::new(6);
        let c = g.merge(1, 2, Linkage::Single, &mut o);
        // Survivors 0, 3, 4, 5 against the union {1, 2}.
        assert_eq!(g.rep(c, 0), (0, 1));
        assert_eq!(g.rep(c, 3), (2, 3));
        assert_eq!(g.rep(c, 4), (2, 4));
        assert_eq!(g.rep(c, 5), (2, 5));
        // Untouched pairs are still the identity reps.
        assert_eq!(g.rep(0, 5), (0, 5));
        assert_eq!(g.rep(4, 3), (3, 4));
        let c2 = g.merge(0, 5, Linkage::Single, &mut o);
        // d(rep(0, c)) = d(0, 1) = 1.5 beats d(rep(5, c)) = d(2, 5) = 4.5.
        assert_eq!(g.rep(c2, c), (0, 1));
        // 6 singletons minus two merges -> 4 live clusters.
        assert_eq!(g.active().len(), 4);
    }

    // The liveness guard is a debug assertion (see `rep`); release builds
    // still abort via the poisoned index, just without this message.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "dead cluster")]
    fn rep_of_merged_cluster_panics() {
        let mut o = line_oracle();
        let mut g = ClusterGraph::new(4);
        let _ = g.merge(0, 1, Linkage::Single, &mut o);
        let _ = g.rep(0, 2);
    }
}
