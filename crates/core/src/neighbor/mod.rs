//! Farthest and nearest neighbour under noisy quadruplet oracles —
//! Section 3.3 of the paper.
//!
//! Finding the record farthest from (or nearest to) a query `q` is finding
//! the maximum (minimum) of the hidden value set `D(q) = { d(q, v) }`, so
//! the Section 3 engines apply directly with a
//! [`crate::comparator::PairDistCmp`] keyed by `|v| (q, v)`
//! ([`farthest_adv`], [`nearest_adv`] — Algorithms 14–16 with raw
//! quadruplet queries).
//!
//! Under **probabilistic** noise the raw engines only guarantee an
//! `O(log^2 n)`-rank result (Theorem 3.7). The paper sharpens this to an
//! *additive* `6*alpha` guarantee (Theorem 3.10) by routing every pairwise
//! comparison through [`pairwise::pairwise_closer`] (Algorithm 5): a robust
//! vote over a *core* `S` of `Theta(log(n/delta))` records within distance
//! `alpha` of `q`, correct w.h.p. whenever the compared distances differ by
//! more than `2*alpha` (Lemma 3.9). [`core_set::build_core`] constructs
//! such a core with Count scores, mirroring Algorithm 9.
//!
//! [`baselines`] carries the paper's evaluation comparators: `Tour2`
//! (binary tournament) and `Samp` (Count-Max over a `sqrt(n)` sample).

pub mod baselines;
pub mod core_set;
pub mod pairwise;
mod search;

pub use pairwise::{pairwise_closer, PairwiseCmp, MAJORITY_THRESHOLD, PAIRWISE_THRESHOLD};
pub use search::{
    farthest_adv, farthest_adv_among, farthest_prob, farthest_with_core, nearest_adv,
    nearest_adv_among, nearest_prob, nearest_with_core,
};

/// All records except the query — the candidate set of Problem 2.4.
pub(crate) fn candidates_excluding(n: usize, q: usize) -> Vec<usize> {
    (0..n).filter(|&v| v != q).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn candidates_exclude_query() {
        assert_eq!(super::candidates_excluding(4, 2), vec![0, 1, 3]);
        assert_eq!(super::candidates_excluding(1, 0), Vec::<usize>::new());
    }
}
