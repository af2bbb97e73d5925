//! Robust maximum (and minimum) finding — Section 3 of the paper.
//!
//! * [`count_max`] — Algorithm 1: score every item by how many others it
//!   beats; `(1+mu)^2`-approximate under adversarial noise at O(n^2)
//!   queries (Lemma 3.1).
//! * [`tournament`] — Algorithm 2: a λ-ary tournament tree whose internal
//!   nodes run Count-Max; `(1+mu)^{2 log_λ n}` at O(nλ) queries (Lemma 3.3).
//! * [`tournament_partition`] — Algorithm 3: split into `l` random parts and
//!   return each part's binary-tournament winner.
//! * [`max_adv`] — Algorithm 4 (Max-Adv): a uniform sample (dense-confusion
//!   case) plus `t` rounds of Tournament-Partition (sparse-confusion case),
//!   combined by a final Count-Max; `(1+mu)^3` w.p. `1 - delta` at
//!   `O(n log^2(1/delta))` queries (Theorem 3.6).
//! * [`max_prob`] — Algorithm 12 (Count-Max-Prob): iterative sample-score-
//!   and-prune for the persistent probabilistic model; returns an item of
//!   rank `O(log^2(n/delta))` w.p. `1 - delta` at `O(n log^2(n/delta))`
//!   queries (Theorem 3.7).
//!
//! Minimum variants ([`min_adv`], [`min_prob`], [`count_min`]) reverse the
//! comparator ([`crate::comparator::Rev`]), exactly the paper's "count Yes
//! instead of No" remark in Section 3.2. [`topk`] extends the engines to
//! top-k selection and full Count-score ranking (the related problems of
//! the paper's §1.2).
//!
//! Two persistent-scaffold planes amortise Max-Adv's scaffolding across
//! *repeated* searches: [`MinContest`] across the merge-loop closest-pair
//! contests of one evolving candidate set (PR 5), and [`RowScaffold`]
//! across the many row-anchored nearest-neighbour searches of a hierarchy
//! run (PR 10) — see the [`scaffold`](self::RowScaffold) docs for why
//! persistent noise makes the reuse decision-identical.
//!
//! All four bracket engines — [`tournament`] (λ = 2),
//! [`tournament_partition`], [`MinContest`] and [`RowScaffold`] — play
//! their binary brackets through one crate-private level loop (one
//! batched comparator round per level), and the two planes share one
//! persistent bucket deal and top-up sample (the `bracket` module).

mod adversarial;
mod bracket;
mod count_max;
mod probabilistic;
mod scaffold;
pub mod topk;
mod tournament;

pub use adversarial::{
    max_adv, max_adv_with_progress, min_adv, AdvParams, ContestStats, MinContest,
};
pub use count_max::{count_max, count_min, count_scores, count_scores_into, duel};
pub use probabilistic::{max_prob, max_prob_with_progress, min_prob, ProbParams};
pub use scaffold::{RowScaffold, ScaffoldStats, SweepBuffers};
pub use topk::{
    rank_by_counts, top_k_adv, top_k_adv_with_progress, top_k_prob, top_k_prob_with_progress,
};
pub use tournament::{tournament, tournament_partition};

/// Deduplicates items preserving first-occurrence order (used by Max-Adv on
/// its multiset of sampled + partition-winner items).
pub(crate) fn dedup_keep_order<I: Copy + Eq + std::hash::Hash>(items: &[I]) -> Vec<I> {
    let mut seen = std::collections::HashSet::with_capacity(items.len());
    let mut out = Vec::with_capacity(items.len());
    for &it in items {
        if seen.insert(it) {
            out.push(it);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_preserves_first_occurrence_order() {
        assert_eq!(dedup_keep_order(&[3, 1, 3, 2, 1, 9]), vec![3, 1, 2, 9]);
        assert_eq!(dedup_keep_order::<usize>(&[]), Vec::<usize>::new());
    }
}
