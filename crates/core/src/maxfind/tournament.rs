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
//!
//! Both play their binary brackets through the shared level loop of the
//! `bracket` module: every level's duels, across all parts, are one
//! batched comparator round.

use super::bracket::{parts, play, Max, Round};
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
        play(
            &mut round,
            &mut [(0, items.len())],
            &mut Max,
            cmp,
            &mut Round::default(),
        );
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
    // Each part's within-part shuffle, in part order: the draws
    // `tournament` would have made.
    let mut ranges: Vec<(usize, usize)> = parts(items.len(), l).collect();
    for &(start, len) in &ranges {
        shuffled[start..start + len].shuffle(rng);
    }
    play(
        &mut shuffled,
        &mut ranges,
        &mut Max,
        cmp,
        &mut Round::default(),
    );
    ranges.iter().map(|&(start, _)| shuffled[start]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::{ExactKeyCmp, ValueCmp};
    use nco_oracle::counting::Counting;
    use nco_oracle::probabilistic::ProbValueOracle;
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

    /// The `tournament_partition` contract: bit-identical to a global
    /// shuffle followed by one binary `tournament` per part, in part
    /// order — same winners, same multiset of queries.
    #[test]
    fn partition_equals_per_part_tournaments() {
        struct Recording<'a, O> {
            cmp: ValueCmp<'a, O>,
            log: Vec<(usize, usize)>,
        }
        impl<O: ComparisonOracle> Comparator<usize> for Recording<'_, O> {
            fn le(&mut self, a: usize, b: usize) -> bool {
                self.log.push((a, b));
                self.cmp.le(a, b)
            }
        }
        let keys: Vec<f64> = (0..103).map(|i| ((i * 41) % 97) as f64).collect();
        let items: Vec<usize> = (0..keys.len()).collect();
        for (l, seed) in [(1, 0u64), (4, 1), (10, 2), (17, 3), (103, 4)] {
            let mut oracle = ProbValueOracle::new(keys.clone(), 0.3, 50 + seed);
            let mut batched = Recording {
                cmp: ValueCmp::new(&mut oracle),
                log: Vec::new(),
            };
            let got = tournament_partition(&items, l, &mut batched, &mut rng(seed));

            let mut oracle = ProbValueOracle::new(keys.clone(), 0.3, 50 + seed);
            let mut scalar = Recording {
                cmp: ValueCmp::new(&mut oracle),
                log: Vec::new(),
            };
            let mut r = rng(seed);
            let mut shuffled = items.clone();
            shuffled.shuffle(&mut r);
            let (base, extra) = (items.len() / l, items.len() % l);
            let mut expect = Vec::new();
            let mut start = 0;
            for part in 0..l {
                let end = start + base + usize::from(part < extra);
                expect.push(tournament(&shuffled[start..end], 2, &mut scalar, &mut r).unwrap());
                start = end;
            }

            assert_eq!(got, expect, "l = {l}");
            batched.log.sort_unstable();
            scalar.log.sort_unstable();
            assert_eq!(batched.log, scalar.log, "l = {l}");
        }
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
