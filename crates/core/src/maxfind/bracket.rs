//! The binary bracket and the bucket deal every Max-Adv engine shares.
//!
//! Tournament (Algorithm 2, λ = 2), Tournament-Partition (Algorithm 3) and
//! the persistent Max-Adv planes ([`MinContest`](super::MinContest),
//! [`RowScaffold`](super::RowScaffold)) all play the same primitive: binary
//! brackets, level by level, each level's open duels issued as **one**
//! batched [`Comparator::le_round`]. [`play`] is that loop; a [`Referee`]
//! supplies what differs between callers (orientation, byes, cached
//! outcomes). Max-Adv's randomness has one shape too — shuffle, then cut
//! into `l` near-equal [`parts`] — and [`Deal`] is that shape made
//! persistent: `t` bucket deals plus a topped-up uniform sample.

use super::adversarial::AdvParams;
use crate::comparator::Comparator;
use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::Range;

/// Dead/absent marker in the dense `u32` tables of the persistent planes.
pub(crate) const ABSENT: u32 = u32::MAX;

/// Decides the duels of a bracket.
pub(crate) trait Referee<I> {
    /// `Ok(winner)` when the duel `(a, b)` needs no query (a bye, a cached
    /// outcome), else `Err(query)` naming the query to ask.
    fn settle(&mut self, a: I, b: I) -> Result<I, (I, I)> {
        Err((a, b))
    }

    /// The winner of the asked `query`, given its answer `le(query.0, query.1)`.
    fn winner(&mut self, query: (I, I), le: bool) -> I;
}

/// Max orientation: `le(a, b)` promotes `b`.
pub(crate) struct Max;

impl<I> Referee<I> for Max {
    fn winner(&mut self, (a, b): (I, I), le: bool) -> I {
        if le {
            b
        } else {
            a
        }
    }
}

/// Min orientation: `le(a, b)` promotes `a`.
pub(crate) struct Min;

impl<I> Referee<I> for Min {
    fn winner(&mut self, (a, b): (I, I), le: bool) -> I {
        if le {
            a
        } else {
            b
        }
    }
}

/// Reusable round buffers of [`play`]; the persistent planes also batch
/// their final Count-Min through `pairs` and `answers`.
#[derive(Debug)]
pub(crate) struct Round<I> {
    pub(crate) pairs: Vec<(I, I)>,
    /// Arena slot awaiting the winner of each asked pair.
    holes: Vec<usize>,
    pub(crate) answers: Vec<bool>,
}

impl<I> Default for Round<I> {
    fn default() -> Self {
        Self {
            pairs: Vec::new(),
            holes: Vec::new(),
            answers: Vec::new(),
        }
    }
}

/// Plays every bracket `arena[start..start + len]` of `ranges` to its
/// winner, which ends in `arena[start]` with `len == 1` (`len` stays 0 for
/// an empty bracket). Returns the number of queries asked.
///
/// Each level pairs every bracket's slots left to right; an odd tail
/// advances unplayed. Duels the referee settles are decided on the spot;
/// the rest are asked as ONE `le_round` per level, in range order, and
/// levels that ask nothing issue no round.
pub(crate) fn play<I, C, F>(
    arena: &mut [I],
    ranges: &mut [(usize, usize)],
    referee: &mut F,
    cmp: &mut C,
    buf: &mut Round<I>,
) -> u64
where
    I: Copy,
    C: Comparator<I>,
    F: Referee<I>,
{
    let mut asked = 0;
    loop {
        buf.pairs.clear();
        buf.holes.clear();
        let mut open = false;
        for (start, len) in ranges.iter_mut() {
            let (s, n) = (*start, *len);
            if n < 2 {
                continue;
            }
            open = true;
            // Winners compact into the range's prefix: slot `s + k` is
            // written only after duel `k` read `s + 2k` and `s + 2k + 1`.
            for k in 0..n / 2 {
                match referee.settle(arena[s + 2 * k], arena[s + 2 * k + 1]) {
                    Ok(w) => arena[s + k] = w,
                    Err(query) => {
                        buf.pairs.push(query);
                        buf.holes.push(s + k);
                    }
                }
            }
            if n % 2 == 1 {
                arena[s + n / 2] = arena[s + n - 1];
            }
            *len = n.div_ceil(2);
        }
        if !open {
            return asked;
        }
        if buf.pairs.is_empty() {
            continue;
        }
        asked += buf.pairs.len() as u64;
        buf.answers.clear();
        cmp.le_round(&buf.pairs, &mut buf.answers);
        for ((&query, &le), &hole) in buf.pairs.iter().zip(&buf.answers).zip(&buf.holes) {
            arena[hole] = referee.winner(query, le);
        }
    }
}

/// `(start, len)` of the `l >= 1` near-equal contiguous parts of `0..n`;
/// the first `n % l` parts hold one extra item.
pub(crate) fn parts(n: usize, l: usize) -> impl Iterator<Item = (usize, usize)> {
    let (base, extra) = (n / l, n % l);
    (0..l).map(move |p| (p * base + p.min(extra), base + usize::from(p < extra)))
}

/// Max-Adv's randomness made persistent: `t` random deals of the
/// candidates into `l` buckets each (Tournament-Partition's parts), and a
/// uniform with-replacement sample topped back up after removals.
///
/// Buckets are indexed flat, `r * l + b` for bucket `b` of deal `r`.
#[derive(Debug)]
pub(crate) struct Deal {
    /// Buckets per deal (`l`).
    parts: usize,
    sample_target: usize,
    id_bound: usize,
    /// `bucket_of[r * id_bound + id]` = flat bucket of `id` in deal `r`,
    /// or [`ABSENT`].
    bucket_of: Vec<u32>,
    /// Flat bucket → members, in deal order then insertion order.
    pub(crate) buckets: Vec<Vec<usize>>,
    /// The persistent sample: a multiset of candidates, insertion order.
    pub(crate) sample: Vec<usize>,
}

impl Deal {
    /// Resolves `(t, l, s)` from `params` for `items.len()` candidates
    /// exactly like `max_adv`, and draws the `t` deals from `rng`: each a
    /// shuffle of `items` cut into [`parts`]. The sample starts empty —
    /// [`top_up`](Self::top_up) draws it.
    ///
    /// # Panics
    /// Panics if an item is not below `id_bound`, or `id_bound` does not
    /// fit the `u32` tables.
    pub(crate) fn new<R: Rng + ?Sized>(
        items: &[usize],
        id_bound: usize,
        params: &AdvParams,
        rng: &mut R,
    ) -> Self {
        assert!(
            id_bound < ABSENT as usize,
            "id_bound must fit the u32 tables"
        );
        assert!(items.iter().all(|&it| it < id_bound), "item out of bounds");
        let (t, l, s) = params.resolve(items.len());
        let mut deal = Self {
            parts: l,
            sample_target: s,
            id_bound,
            bucket_of: vec![ABSENT; t * id_bound],
            buckets: vec![Vec::new(); t * l],
            sample: Vec::with_capacity(s),
        };
        let mut shuffled = items.to_vec();
        for r in 0..t {
            shuffled.copy_from_slice(items);
            shuffled.shuffle(rng);
            for (b, (start, len)) in parts(items.len(), l).enumerate() {
                for &it in &shuffled[start..start + len] {
                    deal.place(r * l + b, it);
                }
            }
        }
        deal
    }

    fn rounds(&self) -> usize {
        self.buckets.len() / self.parts
    }

    fn place(&mut self, rb: usize, item: usize) {
        self.bucket_of[rb / self.parts * self.id_bound + item] = rb as u32;
        self.buckets[rb].push(item);
    }

    /// The flat buckets `item` was dealt into, one per deal it is in.
    pub(crate) fn buckets_of(&self, item: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.rounds())
            .map(move |r| self.bucket_of[r * self.id_bound + item])
            .filter(|&rb| rb != ABSENT)
            .map(|rb| rb as usize)
    }

    /// Deals a brand-new candidate into one uniformly random bucket per
    /// deal.
    ///
    /// # Panics
    /// Panics if the item is out of bounds or already dealt.
    pub(crate) fn insert<R: Rng + ?Sized>(&mut self, item: usize, rng: &mut R) {
        assert!(item < self.id_bound, "item out of bounds");
        assert!(self.bucket_of[item] == ABSENT, "item already present");
        for r in 0..self.rounds() {
            let b = rng.random_range(0..self.parts);
            self.place(r * self.parts + b, item);
        }
    }

    /// Takes `item` out of every bucket (compacting the member lists) and
    /// out of the sample.
    pub(crate) fn remove(&mut self, item: usize) {
        for r in 0..self.rounds() {
            let slot = &mut self.bucket_of[r * self.id_bound + item];
            if *slot != ABSENT {
                self.buckets[*slot as usize].retain(|&m| m != item);
                *slot = ABSENT;
            }
        }
        self.sample.retain(|&m| m != item);
    }

    /// Tops the sample back up to its target size with uniform
    /// (with-replacement) draws from `live`; returns the new entries'
    /// sample positions.
    pub(crate) fn top_up<R: Rng + ?Sized>(&mut self, live: &[usize], rng: &mut R) -> Range<usize> {
        let from = self.sample.len();
        if !live.is_empty() {
            while self.sample.len() < self.sample_target {
                self.sample.push(live[rng.random_range(0..live.len())]);
            }
        }
        from..self.sample.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const BYE: usize = usize::MAX;

    /// A persistent noisy comparator (a pure function of the query) that
    /// records every round it is handed.
    struct Recorder {
        rounds: Vec<Vec<(usize, usize)>>,
    }

    fn noisy_le(a: usize, b: usize) -> bool {
        (a <= b) ^ (a * 31 + b * 17).is_multiple_of(5)
    }

    impl Comparator<usize> for Recorder {
        fn le(&mut self, a: usize, b: usize) -> bool {
            noisy_le(a, b)
        }
        fn le_round(&mut self, round: &[(usize, usize)], out: &mut Vec<bool>) {
            self.rounds.push(round.to_vec());
            out.extend(round.iter().map(|&(a, b)| noisy_le(a, b)));
        }
    }

    /// Byes advance their opponent; duels in `table` are settled from it.
    struct Table {
        min: bool,
        table: HashMap<(usize, usize), usize>,
    }

    impl Referee<usize> for Table {
        fn settle(&mut self, a: usize, b: usize) -> Result<usize, (usize, usize)> {
            match (a, b) {
                (BYE, w) | (w, BYE) => Ok(w),
                _ => self.table.get(&(a, b)).copied().ok_or((a, b)),
            }
        }
        fn winner(&mut self, q: (usize, usize), le: bool) -> usize {
            if le == self.min {
                q.0
            } else {
                q.1
            }
        }
    }

    /// One bracket played alone with plain per-level vectors: its winner
    /// and the pairs it asks at each level.
    fn scalar(bracket: &[usize], referee: &mut Table) -> (Option<usize>, Vec<Vec<(usize, usize)>>) {
        let mut cur = bracket.to_vec();
        let mut asks = Vec::new();
        while cur.len() > 1 {
            let mut level = Vec::new();
            let next = cur
                .chunks(2)
                .map(|duel| match *duel {
                    [a, b] => referee.settle(a, b).unwrap_or_else(|q| {
                        level.push(q);
                        referee.winner(q, noisy_le(q.0, q.1))
                    }),
                    [a] => a,
                    _ => unreachable!(),
                })
                .collect();
            asks.push(level);
            cur = next;
        }
        (cur.first().copied(), asks)
    }

    #[test]
    fn play_matches_scalar_brackets_one_round_per_asking_level() {
        let brackets: Vec<Vec<usize>> = vec![
            vec![],
            vec![7],
            vec![3, 9, 1, 12, 5],
            vec![4, 11, 2, 8, 6, 0, 10, 13],
            vec![BYE, 21, 20, BYE, BYE, BYE, 22, 23, 24, BYE, 25],
            vec![BYE, BYE, BYE],
            vec![30, 31],
        ];
        // Settle every pair whose sum is a multiple of 3 for its first item.
        let table: HashMap<(usize, usize), usize> = (0..32usize)
            .flat_map(|a| (0..32).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b && (a + b).is_multiple_of(3))
            .map(|(a, b)| ((a, b), a))
            .collect();
        for min in [false, true] {
            let mut referee = Table {
                min,
                table: table.clone(),
            };
            let mut arena = Vec::new();
            let mut ranges = Vec::new();
            let mut expect_winners = Vec::new();
            let mut expect_rounds: Vec<Vec<(usize, usize)>> = Vec::new();
            for bracket in &brackets {
                ranges.push((arena.len(), bracket.len()));
                arena.extend_from_slice(bracket);
                let (winner, asks) = scalar(bracket, &mut referee);
                expect_winners.push(winner);
                for (level, pairs) in asks.into_iter().enumerate() {
                    if expect_rounds.len() <= level {
                        expect_rounds.resize(level + 1, Vec::new());
                    }
                    expect_rounds[level].extend(pairs);
                }
            }
            expect_rounds.retain(|round| !round.is_empty());

            let mut cmp = Recorder { rounds: Vec::new() };
            let asked = play(
                &mut arena,
                &mut ranges,
                &mut referee,
                &mut cmp,
                &mut Round::default(),
            );
            let winners: Vec<Option<usize>> = ranges
                .iter()
                .map(|&(start, len)| (len == 1).then(|| arena[start]))
                .collect();
            assert_eq!(winners, expect_winners, "min = {min}");
            assert_eq!(cmp.rounds, expect_rounds, "min = {min}");
            let total: usize = expect_rounds.iter().map(Vec::len).sum();
            assert_eq!(asked, total as u64);
        }
    }

    #[test]
    fn parts_are_contiguous_and_near_equal() {
        let got: Vec<(usize, usize)> = parts(10, 4).collect();
        assert_eq!(got, vec![(0, 3), (3, 3), (6, 2), (8, 2)]);
        assert_eq!(
            parts(3, 3).collect::<Vec<_>>(),
            vec![(0, 1), (1, 1), (2, 1)]
        );
    }
}
