//! Hierarchical-clustering baselines of the paper's evaluation (Fig. 7,
//! Table 2):
//!
//! * [`hier_tour2`] — per merge, a binary tournament over **all** live
//!   cluster pairs. `Theta(r^2)` queries per merge, `O(n^3)` total — the
//!   method that "did not finish in 48 hrs" on `cities`/`dblp` in the
//!   paper. [`Tour2Outcome`] models that DNF behaviour with a query budget.
//! * [`hier_samp`] — per merge, Count-Max-minimum over a random sample of
//!   `ceil(sqrt(#active))` candidate cluster pairs (the `Samp` recipe of
//!   Section 6.1 adapted to merges, keeping the total at O(n^2); see
//!   DESIGN.md §6.5 for the interpretation).
//!
//! Both reuse the adjacency/representative-pair substrate of Algorithm 11,
//! so their merge bookkeeping is identical to the main algorithm — only
//! the closest-pair *search* differs.

use super::graph::ClusterGraph;
use super::{Dendrogram, Linkage, Merge};
use crate::comparator::{PairDistCmp, Rev};
use crate::maxfind::{count_scores, tournament};
use nco_oracle::QuadrupletOracle;
use rand::Rng;

/// Result of the budgeted `Tour2` agglomeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tour2Outcome {
    /// Finished within the query budget.
    Finished(Dendrogram),
    /// Ran out of budget after the given number of merges — the paper's
    /// "DNF" row in Table 2.
    DidNotFinish {
        /// Merges completed before the budget ran out.
        merges_done: usize,
        /// Queries spent.
        queries_spent: u64,
    },
}

/// `Tour2` agglomeration: binary tournament over all live cluster pairs at
/// every merge; `O(n^3)` queries overall. Stops early when `query_budget`
/// is exhausted (pass `u64::MAX` for unbounded).
pub fn hier_tour2<O, R>(
    linkage: Linkage,
    query_budget: u64,
    oracle: &mut O,
    rng: &mut R,
) -> Tour2Outcome
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = oracle.n();
    assert!(n >= 2, "agglomeration needs at least two records");
    let mut graph = ClusterGraph::new(n);
    let mut merges = Vec::with_capacity(n - 1);
    // Budget accounting: each tournament over P pairs costs P - 1 queries;
    // each merge refresh costs (#survivors) queries.
    let mut spent: u64 = 0;

    while graph.active().len() > 1 {
        let actives = graph.active().to_vec();
        let mut pairs = Vec::with_capacity(actives.len() * (actives.len() - 1) / 2);
        for i in 0..actives.len() {
            for j in (i + 1)..actives.len() {
                pairs.push((actives[i], actives[j]));
            }
        }
        let cost = pairs.len() as u64 + actives.len() as u64;
        if spent + cost > query_budget {
            return Tour2Outcome::DidNotFinish {
                merges_done: merges.len(),
                queries_spent: spent,
            };
        }
        spent += cost;
        let mut cmp = Rev(PairDistCmp::new(oracle, |(a, b)| graph.rep(a, b)));
        let (a, b) = tournament(&pairs, 2, &mut cmp, rng).expect("non-empty pair list");
        let rep = graph.rep(a, b);
        let new = graph.merge(a, b, linkage, oracle);
        merges.push(Merge {
            a,
            b,
            merged: new,
            rep,
        });
    }

    let d = Dendrogram { n, merges };
    d.validate();
    Tour2Outcome::Finished(d)
}

/// `Samp` agglomeration: per merge, Count-Max-minimum over
/// `ceil(sqrt(#active))` random candidate cluster pairs — the `Samp`
/// recipe (a sqrt-sized sample + quadratic Count-Max) applied to the merge
/// step, keeping its total cost at O(n^2) like the paper's Table 2 row.
pub fn hier_samp<O, R>(linkage: Linkage, oracle: &mut O, rng: &mut R) -> Dendrogram
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = oracle.n();
    assert!(n >= 2, "agglomeration needs at least two records");
    let mut graph = ClusterGraph::new(n);
    let mut merges = Vec::with_capacity(n - 1);

    while graph.active().len() > 1 {
        let actives = graph.active().to_vec();
        let r = actives.len();
        let total_pairs = r * (r - 1) / 2;
        let want = ((r as f64).sqrt().ceil() as usize).clamp(1, total_pairs);
        let mut chosen = std::collections::HashSet::with_capacity(want * 2);
        let mut sample: Vec<(usize, usize)> = Vec::with_capacity(want);
        while sample.len() < want {
            let i = rng.random_range(0..r);
            let j = rng.random_range(0..r);
            if i == j {
                continue;
            }
            let p = (actives[i.min(j)], actives[i.max(j)]);
            if chosen.insert(p) {
                sample.push(p);
            }
        }
        // Count-Min straight off the scoring triangle, so a two-pair sample
        // is a batched round too (`count_min` duels it as a scalar `le`);
        // the first top scorer wins, as in `count_min`.
        let mut cmp = Rev(PairDistCmp::new(oracle, |(a, b)| graph.rep(a, b)));
        let scores = count_scores(&sample, &mut cmp);
        let top = scores.iter().max().expect("non-empty sample");
        let (a, b) = sample[scores.iter().position(|s| s == top).expect("a top score")];
        let rep = graph.rep(a, b);
        let new = graph.merge(a, b, linkage, oracle);
        merges.push(Merge {
            a,
            b,
            merged: new,
            rep,
        });
    }

    let d = Dendrogram { n, merges };
    d.validate();
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::EuclideanMetric;
    use nco_oracle::counting::Counting;
    use nco_oracle::probabilistic::ProbQuadOracle;
    use nco_oracle::TrueQuadOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn pairs_metric() -> EuclideanMetric {
        EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![10.0], vec![11.5]])
    }

    #[test]
    fn tour2_perfect_oracle_recovers_pairs() {
        let mut o = TrueQuadOracle::new(pairs_metric());
        match hier_tour2(Linkage::Single, u64::MAX, &mut o, &mut rng(1)) {
            Tour2Outcome::Finished(d) => {
                let labels = d.cut(2);
                assert_eq!(labels[0], labels[1]);
                assert_eq!(labels[2], labels[3]);
                assert_ne!(labels[0], labels[2]);
            }
            Tour2Outcome::DidNotFinish { .. } => panic!("unbounded run must finish"),
        }
    }

    #[test]
    fn tour2_dnf_on_small_budget() {
        let n = 24;
        let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let mut o = TrueQuadOracle::new(EuclideanMetric::from_points(&pts));
        match hier_tour2(Linkage::Single, 50, &mut o, &mut rng(2)) {
            Tour2Outcome::Finished(_) => panic!("budget of 50 cannot finish n = 24"),
            Tour2Outcome::DidNotFinish {
                merges_done,
                queries_spent,
            } => {
                assert!(merges_done < n - 1);
                assert!(queries_spent <= 50);
            }
        }
    }

    #[test]
    fn tour2_query_cost_is_cubic_ish() {
        let n = 32usize;
        let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![(i * i) as f64]).collect();
        let mut o = Counting::new(TrueQuadOracle::new(EuclideanMetric::from_points(&pts)));
        let out = hier_tour2(Linkage::Single, u64::MAX, &mut o, &mut rng(3));
        assert!(matches!(out, Tour2Outcome::Finished(_)));
        // sum over r of C(r,2) ≈ n^3/6 ≈ 5456 for n = 32.
        assert!(o.queries() > (n * n) as u64, "{} queries", o.queries());
        assert!(o.queries() < (n * n * n) as u64, "{} queries", o.queries());
    }

    #[test]
    fn samp_runs_to_completion_and_is_cheaper() {
        let n = 32usize;
        let pts: Vec<Vec<f64>> = (0..n).map(|i| vec![(i * i) as f64]).collect();
        let mut o = Counting::new(TrueQuadOracle::new(EuclideanMetric::from_points(&pts)));
        let d = hier_samp(Linkage::Single, &mut o, &mut rng(4));
        assert_eq!(d.merges.len(), n - 1);
        // Per merge ~ sqrt(r)^2/2 = r/2 sample queries + r refresh queries:
        // O(n^2) total.
        assert!(o.queries() < (2 * n * n) as u64, "{} queries", o.queries());
    }

    /// Splits an oracle's traffic into scalar `le` calls and queries
    /// asked through `le_batch` rounds.
    struct SplitCount<O> {
        inner: O,
        scalar: u64,
        batched: u64,
    }

    impl<O: QuadrupletOracle> QuadrupletOracle for SplitCount<O> {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
            self.scalar += 1;
            self.inner.le(a, b, c, d)
        }
        fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
            self.batched += queries.len() as u64;
            self.inner.le_batch(queries, out);
        }
    }

    /// Forwards only `le`, so every round takes the trait's scalar loop.
    struct ScalarRounds<O>(O);

    impl<O: QuadrupletOracle> QuadrupletOracle for ScalarRounds<O> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
            self.0.le(a, b, c, d)
        }
    }

    /// Both baselines ask every tournament and Count-Min duel in batched
    /// rounds — no scalar `le` at all — and the batching changes neither
    /// the dendrogram nor the query count of the scalar-loop run.
    #[test]
    fn baselines_ask_every_duel_in_batched_rounds() {
        let pts: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![((i * 37) % 23) as f64, ((i * 11) % 7) as f64])
            .collect();
        let metric = EuclideanMetric::from_points(&pts);
        for linkage in [Linkage::Single, Linkage::Complete] {
            for seed in 0..4u64 {
                let noisy = || ProbQuadOracle::new(metric.clone(), 0.2, seed);
                let split = || SplitCount {
                    inner: noisy(),
                    scalar: 0,
                    batched: 0,
                };

                let mut o = split();
                let mut reference = Counting::new(ScalarRounds(noisy()));
                let got = hier_tour2(linkage, u64::MAX, &mut o, &mut rng(10 + seed));
                let want = hier_tour2(linkage, u64::MAX, &mut reference, &mut rng(10 + seed));
                assert_eq!(o.scalar, 0, "tour2 {linkage:?} seed {seed}");
                assert_eq!(got, want, "tour2 {linkage:?} seed {seed}");
                assert_eq!(
                    o.batched,
                    reference.queries(),
                    "tour2 {linkage:?} seed {seed}"
                );

                let mut o = split();
                let mut reference = Counting::new(ScalarRounds(noisy()));
                let got = hier_samp(linkage, &mut o, &mut rng(20 + seed));
                let want = hier_samp(linkage, &mut reference, &mut rng(20 + seed));
                assert_eq!(o.scalar, 0, "samp {linkage:?} seed {seed}");
                assert_eq!(got, want, "samp {linkage:?} seed {seed}");
                assert_eq!(
                    o.batched,
                    reference.queries(),
                    "samp {linkage:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn samp_complete_linkage_valid_dendrogram() {
        let mut o = TrueQuadOracle::new(pairs_metric());
        let d = hier_samp(Linkage::Complete, &mut o, &mut rng(5));
        d.validate();
        assert_eq!(d.merges.len(), 3);
    }
}
