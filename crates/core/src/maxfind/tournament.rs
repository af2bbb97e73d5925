//! Algorithms 2 and 3 — Tournament and Tournament-Partition.
//!
//! A balanced λ-ary tournament assigns a random permutation of the items to
//! the leaves and promotes, at every internal node, the Count-Max winner of
//! its children. Each level loses at most a `(1+mu)^2` factor (Lemma 3.3),
//! so λ trades queries (`O(nλ)`) against approximation
//! (`(1+mu)^{2 log_λ n}`). The binary case (λ = 2, the paper's `Tour2`
//! baseline) plays one query per match — Claim 8.2's `<= 2|V|` accounting.
//!
//! Tournament-Partition (Algorithm 3) shuffles the items into `l` equal
//! parts and returns the binary-tournament winner of each part; Max-Adv
//! uses it to protect the true maximum from its confusion band (Lemma 8.6:
//! with `l = sqrt(n)` parts, the band members land in the max's part with
//! probability at most 1/2).

use super::count_max::{count_max, duel};
use crate::comparator::Comparator;
use rand::seq::SliceRandom;
use rand::Rng;

/// Algorithm 2: λ-ary tournament over `items`; returns the root.
///
/// `lambda >= 2`. `lambda = 2` plays single-query duels; larger arities run
/// Count-Max among each node's children.
pub fn tournament<I: Copy, C: Comparator<I>, R: Rng + ?Sized>(
    items: &[I],
    lambda: usize,
    cmp: &mut C,
    rng: &mut R,
) -> Option<I> {
    assert!(lambda >= 2, "tournament arity must be at least 2");
    if items.is_empty() {
        return None;
    }
    // One allocation for the whole tournament: each level compacts its
    // winners into the prefix of the same buffer (the write cursor never
    // overtakes the read cursor), so no per-round `Vec` is built.
    let mut round: Vec<I> = items.to_vec();
    round.shuffle(rng);
    if lambda == 2 {
        // Binary case: a level's duels are independent, so each level is
        // issued as ONE batched comparator round — the same queries in
        // the same left-to-right order as the scalar loop (bit-identical
        // answers and billing), but with the memory latency of the
        // lookups overlapped instead of serialised duel by duel.
        // NOTE: `tournament_partition` below, `MinContest`'s bucket
        // replay (min orientation) and `scaffold::sweep_row` (min
        // orientation, tombstone byes) carry siblings of this loop over
        // different storage — fixes here must visit them too.
        let mut pairs: Vec<(I, I)> = Vec::with_capacity(round.len() / 2);
        let mut answers: Vec<bool> = Vec::with_capacity(round.len() / 2);
        let mut len = round.len();
        while len > 1 {
            pairs.clear();
            let mut start = 0;
            while start + 1 < len {
                pairs.push((round[start], round[start + 1]));
                start += 2;
            }
            answers.clear();
            cmp.le_round(&pairs, &mut answers);
            let mut write = 0;
            let mut start = 0;
            while start < len {
                round[write] = if start + 1 < len {
                    let a = round[start];
                    let b = round[start + 1];
                    if answers[write] {
                        b
                    } else {
                        a
                    }
                } else {
                    round[start]
                };
                write += 1;
                start += 2;
            }
            len = write;
        }
        return Some(round[0]);
    }
    let mut len = round.len();
    while len > 1 {
        let mut write = 0;
        let mut start = 0;
        while start < len {
            let end = (start + lambda).min(len);
            let group = &round[start..end];
            let winner = match group.len() {
                1 => group[0],
                2 => duel(group[0], group[1], cmp),
                _ => count_max(group, cmp).expect("non-empty group"),
            };
            round[write] = winner;
            write += 1;
            start = end;
        }
        len = write;
    }
    Some(round[0])
}

/// Algorithm 3: randomly partition `items` into `l` (nearly) equal parts and
/// return each part's binary-tournament winner.
///
/// `l` is clamped to `[1, items.len()]`.
///
/// All parts advance **level-synchronously**, each level issued as one
/// batched comparator round across every part. This is bit-identical to
/// playing each part's [`tournament`] to completion in part order: the
/// rng draws are unchanged (the global shuffle, then each part's
/// within-part shuffle, in part order — duels draw no randomness), every
/// part keeps its own bracket, and duel answers are pure functions of
/// their queries — only the interleaving of queries *between* parts
/// differs, which batching-contract oracles cannot observe.
pub fn tournament_partition<I: Copy, C: Comparator<I>, R: Rng + ?Sized>(
    items: &[I],
    l: usize,
    cmp: &mut C,
    rng: &mut R,
) -> Vec<I> {
    if items.is_empty() {
        return Vec::new();
    }
    let l = l.clamp(1, items.len());
    let mut shuffled: Vec<I> = items.to_vec();
    shuffled.shuffle(rng);
    // Split into l contiguous chunks of near-equal size; shuffle each
    // chunk in part order (the draws `tournament` would have made).
    let base = shuffled.len() / l;
    let extra = shuffled.len() % l;
    let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(l);
    let mut start = 0;
    for part in 0..l {
        let size = base + usize::from(part < extra);
        shuffled[start..start + size].shuffle(rng);
        bounds.push((start, size));
        start += size;
    }
    // Level-synchronous duels: each part compacts its winners into the
    // prefix of its own chunk, one batched round per level.
    let mut pairs: Vec<(I, I)> = Vec::with_capacity(shuffled.len() / 2);
    let mut answers: Vec<bool> = Vec::new();
    loop {
        pairs.clear();
        for &(start, len) in &bounds {
            let mut k = 0;
            while k + 1 < len {
                pairs.push((shuffled[start + k], shuffled[start + k + 1]));
                k += 2;
            }
        }
        if pairs.is_empty() {
            break;
        }
        answers.clear();
        cmp.le_round(&pairs, &mut answers);
        let mut at = 0;
        for (start, len) in bounds.iter_mut() {
            let mut write = 0;
            let mut k = 0;
            while k < *len {
                shuffled[*start + write] = if k + 1 < *len {
                    let winner = if answers[at] {
                        shuffled[*start + k + 1]
                    } else {
                        shuffled[*start + k]
                    };
                    at += 1;
                    winner
                } else {
                    shuffled[*start + k]
                };
                write += 1;
                k += 2;
            }
            *len = write;
        }
        debug_assert_eq!(at, answers.len());
    }
    bounds
        .iter()
        .filter(|&&(_, len)| len > 0)
        .map(|&(start, _)| shuffled[start])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::{ExactKeyCmp, ValueCmp};
    use nco_oracle::counting::Counting;
    use nco_oracle::{ComparisonOracle, TrueValueOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn exact_tournament_finds_true_max_any_arity() {
        let keys: Vec<f64> = (0..33).map(|i| ((i * 37) % 100) as f64).collect();
        let items: Vec<usize> = (0..keys.len()).collect();
        let true_max = 27; // 27*37 % 100 = 99
        for lambda in [2, 3, 5, 33] {
            let got = tournament(&items, lambda, &mut ExactKeyCmp::new(&keys), &mut rng(1));
            assert_eq!(got, Some(true_max), "lambda = {lambda}");
        }
    }

    #[test]
    fn binary_tournament_uses_at_most_n_minus_one_queries() {
        for n in [2usize, 7, 16, 33, 100] {
            let mut oracle =
                Counting::new(TrueValueOracle::new((0..n).map(|i| i as f64).collect()));
            let items: Vec<usize> = (0..n).collect();
            let _ = tournament(&items, 2, &mut ValueCmp::new(&mut oracle), &mut rng(2));
            assert_eq!(oracle.queries(), (n - 1) as u64, "n = {n}");
        }
    }

    #[test]
    fn lambda_n_degenerates_to_count_max() {
        let n = 12usize;
        let mut oracle = Counting::new(TrueValueOracle::new((0..n).map(|i| i as f64).collect()));
        let items: Vec<usize> = (0..n).collect();
        let got = tournament(&items, n, &mut ValueCmp::new(&mut oracle), &mut rng(3));
        assert_eq!(got, Some(n - 1));
        assert_eq!(oracle.queries(), (n * (n - 1) / 2) as u64);
    }

    #[test]
    fn partition_returns_one_winner_per_part() {
        let keys: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let items: Vec<usize> = (0..20).collect();
        let winners = tournament_partition(&items, 4, &mut ExactKeyCmp::new(&keys), &mut rng(4));
        assert_eq!(winners.len(), 4);
        // The global max must win its part under an exact comparator.
        assert!(winners.contains(&19));
        // Winners are distinct items from distinct parts.
        let mut w = winners.clone();
        w.sort_unstable();
        w.dedup();
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn partition_clamps_l() {
        let keys = [1.0, 2.0, 3.0];
        let items = [0usize, 1, 2];
        let winners = tournament_partition(&items, 10, &mut ExactKeyCmp::new(&keys), &mut rng(5));
        assert_eq!(winners.len(), 3); // one singleton part per item
        assert!(tournament_partition::<usize, _, _>(
            &[],
            3,
            &mut ExactKeyCmp::new(&keys),
            &mut rng(5)
        )
        .is_empty());
    }

    #[test]
    fn tournament_is_seed_deterministic() {
        struct FlakyCmp {
            oracle: TrueValueOracle,
        }
        impl Comparator<usize> for FlakyCmp {
            fn le(&mut self, a: usize, b: usize) -> bool {
                self.oracle.le(a, b)
            }
        }
        let keys: Vec<f64> = (0..50).map(|i| ((i * 13) % 50) as f64).collect();
        let items: Vec<usize> = (0..50).collect();
        let mk = || FlakyCmp {
            oracle: TrueValueOracle::new(keys.clone()),
        };
        let a = tournament(&items, 3, &mut mk(), &mut rng(9));
        let b = tournament(&items, 3, &mut mk(), &mut rng(9));
        assert_eq!(a, b);
    }
}
