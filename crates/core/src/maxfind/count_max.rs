//! Algorithm 1 — Count-Max.
//!
//! `Count(v, S)` is the number of elements of `S` the oracle deems smaller
//! than `v`; the item with the highest count is returned. Lemma 3.1: under
//! adversarial noise the winner is always within `(1+mu)^2` of the true
//! maximum, because the true maximum beats everything below the band while
//! a pretender more than `(1+mu)^2` below it cannot out-score it.
//!
//! We issue **one query per unordered pair** and credit the winner — the
//! paper's ordered formulation asks both `O(u,v)` and `O(v,u)`, but every
//! proof only uses out-of-band correctness (adversarial) or per-pair
//! independence (probabilistic), both of which are preserved; the constant
//! in the query count halves (documented deviation, DESIGN.md §6.2).

use crate::comparator::{Comparator, Rev, ROUND_CAP};

/// One head-to-head comparison; returns the item the comparator deems
/// larger. A binary tournament match costs exactly this one query
/// (Claim 8.2's accounting).
#[inline]
pub fn duel<I: Copy, C: Comparator<I>>(a: I, b: I, cmp: &mut C) -> I {
    if cmp.le(a, b) {
        b
    } else {
        a
    }
}

/// `Count(v, S)` scores for every item: `scores[i]` is the number of pairs
/// item `i` won. Issues `|items| * (|items| - 1) / 2` queries.
pub fn count_scores<I: Copy, C: Comparator<I>>(items: &[I], cmp: &mut C) -> Vec<u32> {
    let mut scores = Vec::new();
    count_scores_into(items, cmp, &mut scores);
    scores
}

/// [`count_scores`] into a caller-provided buffer — the reusable-capacity
/// form for engines that score repeatedly.
///
/// The upper triangle is issued as batched comparator rounds
/// ([`Comparator::le_round`]) of at most `ROUND_CAP` pairs, in
/// the same `(i, j), i < j` order the scalar loops used, so oracle-backed
/// comparators amortise per-query dispatch across rounds while answers
/// (and query counts) stay bit-identical — and the round buffers stay
/// O(1) instead of O(n²).
pub fn count_scores_into<I: Copy, C: Comparator<I>>(
    items: &[I],
    cmp: &mut C,
    scores: &mut Vec<u32>,
) {
    let n = items.len();
    scores.clear();
    scores.resize(n, 0);
    if n < 2 {
        return;
    }
    let cap = ROUND_CAP.min(n * (n - 1) / 2);
    let mut round: Vec<(I, I)> = Vec::with_capacity(cap);
    let mut answers: Vec<bool> = Vec::with_capacity(cap);
    // The scoring walk re-derives each flushed pair's `(i, j)` by
    // replaying the same row-major triangle order the builder used, so no
    // per-pair index buffer is carried alongside the round.
    let (mut si, mut sj) = (0usize, 1usize);
    let mut flush = |round: &mut Vec<(I, I)>, answers: &mut Vec<bool>, cmp: &mut C| {
        answers.clear();
        cmp.le_round(round, answers);
        debug_assert_eq!(answers.len(), round.len());
        for &ans in answers.iter() {
            if ans {
                scores[sj] += 1;
            } else {
                scores[si] += 1;
            }
            sj += 1;
            if sj == n {
                si += 1;
                sj = si + 1;
            }
        }
        round.clear();
    };
    for i in 0..n {
        let vi = items[i];
        for &vj in items.iter().skip(i + 1) {
            round.push((vi, vj));
            if round.len() == ROUND_CAP {
                flush(&mut round, &mut answers, cmp);
            }
        }
    }
    if !round.is_empty() {
        flush(&mut round, &mut answers, cmp);
    }
}

/// Algorithm 1: returns the item with the highest `Count` score (first
/// maximal on ties — "breaking ties arbitrarily").
pub fn count_max<I: Copy, C: Comparator<I>>(items: &[I], cmp: &mut C) -> Option<I> {
    match items.len() {
        0 => None,
        1 => Some(items[0]),
        2 => Some(duel(items[0], items[1], cmp)),
        _ => {
            let scores = count_scores(items, cmp);
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?
                .0;
            Some(items[best])
        }
    }
}

/// Count-Max for the minimum: identical engine with the comparator
/// reversed (the Section 3.2 "count Yes answers" variant).
pub fn count_min<I: Copy, C: Comparator<I>>(items: &[I], cmp: &mut C) -> Option<I> {
    count_max(items, &mut Rev(cmp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::{ExactKeyCmp, ValueCmp};
    use nco_oracle::adversarial::{AdversarialValueOracle, InvertAdversary};
    use nco_oracle::counting::Counting;
    use nco_oracle::TrueValueOracle;

    #[test]
    fn exact_comparator_finds_true_extrema() {
        let keys = [3.0, 9.0, 1.0, 7.0];
        let items: Vec<usize> = (0..4).collect();
        assert_eq!(count_max(&items, &mut ExactKeyCmp::new(&keys)), Some(1));
        assert_eq!(count_min(&items, &mut ExactKeyCmp::new(&keys)), Some(2));
        assert_eq!(count_max(&[], &mut ExactKeyCmp::new(&keys)), None);
        assert_eq!(count_max(&[3], &mut ExactKeyCmp::new(&keys)), Some(3));
    }

    #[test]
    fn query_count_is_one_per_unordered_pair() {
        let mut oracle = Counting::new(TrueValueOracle::new((0..10).map(f64::from).collect()));
        let items: Vec<usize> = (0..10).collect();
        let _ = count_max(&items, &mut ValueCmp::new(&mut oracle));
        assert_eq!(oracle.queries(), 45);
    }

    /// Example 3.2 of the paper: values 51, 101, 102, 202 with mu = 1. The
    /// oracle must answer O(u, t) correctly; if it lies everywhere else, the
    /// Count scores become (u, v, w, t) = (2, 2, 1, 1) and Count-Max returns
    /// u or v — a ~3.96 approximation, witnessing the (1+mu)^2 bound.
    #[test]
    fn paper_example_3_2_worst_case() {
        let values = vec![51.0, 101.0, 102.0, 202.0]; // u, v, w, t
        let mut oracle = AdversarialValueOracle::new(values.clone(), 1.0, InvertAdversary);
        let items: Vec<usize> = (0..4).collect();
        let scores = count_scores(&items, &mut ValueCmp::new(&mut oracle));
        // Only (u, t) = (51, 202) is out of band: t gets that point.
        // All other pairs are answered adversarially (smaller side wins).
        assert_eq!(scores, vec![2, 2, 1, 1]);
        let winner = count_max(&items, &mut ValueCmp::new(&mut oracle)).unwrap();
        let ratio = 202.0 / values[winner];
        assert!(ratio <= (1.0 + 1.0) * (1.0 + 1.0) + 1e-12, "ratio {ratio}");
    }

    /// Lemma 3.1 as an exhaustive small-n property: against the always-lying
    /// adversary the winner is never below v_max / (1+mu)^2.
    #[test]
    fn lemma_3_1_bound_exhaustive() {
        for mu in [0.2, 0.5, 1.0] {
            for scale in 1..6 {
                let values: Vec<f64> = (0..12)
                    .map(|i| (1.0f64 + mu * 0.4).powi(i) * scale as f64)
                    .collect();
                let vmax = values.iter().cloned().fold(0.0, f64::max);
                let mut oracle = AdversarialValueOracle::new(values.clone(), mu, InvertAdversary);
                let items: Vec<usize> = (0..values.len()).collect();
                let w = count_max(&items, &mut ValueCmp::new(&mut oracle)).unwrap();
                assert!(
                    values[w] * (1.0 + mu).powi(2) >= vmax - 1e-9,
                    "mu={mu}: got {} vs max {vmax}",
                    values[w]
                );
            }
        }
    }

    #[test]
    fn duel_returns_larger_under_exact_comparator() {
        let keys = [1.0, 2.0];
        let mut cmp = ExactKeyCmp::new(&keys);
        assert_eq!(duel(0, 1, &mut cmp), 1);
        assert_eq!(duel(1, 0, &mut cmp), 1);
    }
}
