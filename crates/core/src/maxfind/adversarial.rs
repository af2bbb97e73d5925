//! Algorithm 4 — Max-Adv, the paper's headline adversarial-noise maximum.
//!
//! Two complementary defences against the confusion band
//! `C = { u : v_max/(1+mu) <= u <= v_max }`:
//!
//! 1. **Dense band** (`|C| > sqrt(n)/2`): a uniform sample of `sqrt(n)*t`
//!    items hits `C` w.h.p. (Lemma 8.5), and any member of `C` is a `(1+mu)`
//!    approximation by definition.
//! 2. **Sparse band**: partition into `l = sqrt(n)` random parts and take
//!    each part's binary-tournament winner; the part containing `v_max`
//!    avoids all of `C` with probability >= 1/2 per round (Markov,
//!    Lemma 8.6), in which case the out-of-band answers promote `v_max`
//!    unharmed. `t` rounds push the failure to `2^-t`.
//!
//! The sampled set and all partition winners then fight one final Count-Max
//! (a `(1+mu)^2` loss, Lemma 3.1), giving the `(1+mu)^3` total of
//! Theorem 3.6 with `O(n log^2(1/delta))` queries.

use super::count_max::count_max;
use super::dedup_keep_order;
use super::tournament::tournament_partition;
use crate::comparator::{Comparator, Rev};
use rand::seq::SliceRandom;
use rand::Rng;
use std::hash::Hash;

/// Parameters of Max-Adv (Algorithm 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvParams {
    /// Number of Tournament-Partition rounds (`t`).
    pub rounds: usize,
    /// Number of partitions `l`; `None` = `sqrt(n)` (the paper's setting).
    pub partitions: Option<usize>,
    /// Uniform sample size; `None` = `sqrt(n) * t` (the paper's setting).
    pub sample_size: Option<usize>,
}

impl AdvParams {
    /// The paper's experimental configuration (Section 6.1): `t = 1`,
    /// `l = sqrt(n)`, sample of `sqrt(n)`.
    pub fn experimental() -> Self {
        Self {
            rounds: 1,
            partitions: None,
            sample_size: None,
        }
    }

    /// The proof-grade configuration of Theorem 3.6: `t = 2 log2(2/delta)`
    /// rounds for failure probability `delta`.
    ///
    /// # Panics
    /// Panics unless `0 < delta < 1`.
    pub fn with_confidence(delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let t = (2.0 * (2.0 / delta).log2()).ceil() as usize;
        Self {
            rounds: t.max(1),
            partitions: None,
            sample_size: None,
        }
    }

    /// Resolves `(t, l, sample_size)` for an instance of `n` items.
    pub fn resolve(&self, n: usize) -> (usize, usize, usize) {
        let sqrt_n = (n as f64).sqrt().ceil() as usize;
        let t = self.rounds.max(1);
        let l = self.partitions.unwrap_or(sqrt_n).clamp(1, n.max(1));
        let s = self.sample_size.unwrap_or(sqrt_n * t).min(4 * n.max(1));
        (t, l, s)
    }
}

impl Default for AdvParams {
    fn default() -> Self {
        Self::experimental()
    }
}

/// Algorithm 4: robust maximum under adversarial noise (Theorem 3.6).
///
/// Returns `None` only for an empty `items` slice.
pub fn max_adv<I, C, R>(items: &[I], params: &AdvParams, cmp: &mut C, rng: &mut R) -> Option<I>
where
    I: Copy + Eq + Hash,
    C: Comparator<I>,
    R: Rng + ?Sized,
{
    let mut leader = None;
    max_adv_with_progress(items, params, cmp, rng, &mut leader)
}

/// [`max_adv`] with a clean-progress watermark: after every stage that
/// completed while the comparator was not [`Comparator::doomed`],
/// `leader` is updated to the stage's current best candidate (a
/// tournament-round winner, then the final Count-Max winner). When the
/// oracle stack dies mid-run — budget, deadline, retry exhaustion —
/// `leader` still holds the last candidate promoted purely on real
/// answers, while the return value may be refusal-constant garbage.
///
/// Issues the exact query/randomness sequence of [`max_adv`]: the
/// watermark only *reads* `doomed()`, so transcripts are unchanged.
pub fn max_adv_with_progress<I, C, R>(
    items: &[I],
    params: &AdvParams,
    cmp: &mut C,
    rng: &mut R,
    leader: &mut Option<I>,
) -> Option<I>
where
    I: Copy + Eq + Hash,
    C: Comparator<I>,
    R: Rng + ?Sized,
{
    let n = items.len();
    if n <= 2 {
        let winner = count_max(items, cmp);
        if !cmp.doomed() {
            *leader = winner;
        }
        return winner;
    }
    let (t, l, s) = params.resolve(n);

    // Step 1: uniform sample with replacement (the dense-band defence).
    let mut pool: Vec<I> = (0..s).map(|_| items[rng.random_range(0..n)]).collect();

    // Step 2: t rounds of Tournament-Partition (the sparse-band defence).
    for _ in 0..t {
        let winners = tournament_partition(items, l, cmp, rng);
        if !cmp.doomed() {
            if let Some(&w) = winners.first() {
                *leader = Some(w);
            }
        }
        pool.extend(winners);
    }

    // Step 3: final Count-Max over the deduplicated pool.
    let pool = dedup_keep_order(&pool);
    let winner = count_max(&pool, cmp);
    if !cmp.doomed() {
        *leader = winner;
    }
    winner
}

/// Minimum-finding twin of [`max_adv`] (reversed comparator).
pub fn min_adv<I, C, R>(items: &[I], params: &AdvParams, cmp: &mut C, rng: &mut R) -> Option<I>
where
    I: Copy + Eq + Hash,
    C: Comparator<I>,
    R: Rng + ?Sized,
{
    max_adv(items, params, &mut Rev(cmp), rng)
}

// ---------------------------------------------------------------------
// Incremental Max-Adv (minimum orientation): the closest-pair winner
// structure behind the hierarchy engine's incremental merge plane.
// ---------------------------------------------------------------------

/// Cumulative cost counters of a [`MinContest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContestStats {
    /// Full sweeps: contests that replayed every bucket and re-asked every
    /// pool pair (the initial build plus every fallback).
    pub full_sweeps: u64,
    /// Bucket tournaments replayed because a member was dirty, added or
    /// removed.
    pub bucket_replays: u64,
    /// Duels played inside bucket tournament replays.
    pub bucket_duels: u64,
    /// Pairs (re-)contested at the final Count-Min stage.
    pub pool_duels: u64,
}

/// Dead/absent marker in the contest's dense id-indexed tables.
const ABSENT: u32 = u32::MAX;

/// An **incremental** [`min_adv`]: Algorithm 4's two defences turned into a
/// winner structure that persists across calls, so that when only a few
/// candidates change key between sweeps, only those candidates are
/// re-contested against the cached incumbent state.
///
/// The structure mirrors Max-Adv stage by stage, with each source of
/// per-sweep randomness replaced by a persistent random object:
///
/// * **Sparse-band defence** — instead of `t` fresh random partitions per
///   sweep, `t` persistent random bucket assignments: every candidate is
///   dealt into one bucket per round at insertion (uniformly at random),
///   and each bucket caches its binary-tournament winner. A bucket replays
///   only when a member's key changed or membership changed.
/// * **Dense-band defence** — instead of a fresh uniform sample per sweep,
///   a persistent sample (drawn uniformly with replacement at
///   construction) that is topped back up to its target size from the live
///   candidates after removals.
/// * **Final Count-Min** — the pool (bucket winners + sample, first-entry
///   deduplicated) keeps a per-pair outcome cache and per-candidate
///   scores; only pairs involving a changed pool member are (re-)asked.
///
/// Answers are assumed **persistent** (pure functions of the query, the
/// paper's Section 2.2 property): a cached outcome then equals what
/// re-asking would return, which makes an incremental sweep
/// *decision-identical* to a full sweep over the same structure — pass
/// `full = true` to [`min_adv_incremental`] to force that reference
/// behaviour (everything replayed, everything re-asked).
///
/// Candidates are dense `usize` ids below the `id_bound` given at
/// construction (the hierarchy engine passes `2n - 1`, the id space of an
/// entire agglomeration).
#[derive(Debug)]
pub struct MinContest {
    rounds: usize,
    buckets_per_round: usize,
    sample_target: usize,
    /// `bucket_of[r][item]` = bucket of `item` in round `r`, or [`ABSENT`].
    bucket_of: Vec<Vec<u32>>,
    /// `buckets[r][b]` = member list (insertion order).
    buckets: Vec<Vec<Vec<usize>>>,
    /// Cached tournament winner per bucket.
    bucket_winner: Vec<Vec<Option<usize>>>,
    bucket_dirty: Vec<Vec<bool>>,
    /// Persistent sample (a multiset of live candidates).
    sample: Vec<usize>,
    /// Distinct contestants of the final Count-Min, insertion order.
    pool: Vec<usize>,
    /// `score[slot]` = pairs won by `pool[slot]` under the min orientation.
    score: Vec<u32>,
    /// `pool_slot[item]` = slot in `pool`, or [`ABSENT`].
    pool_slot: Vec<u32>,
    /// Pool reference counts (bucket winner roles + sample occurrences).
    refs: Vec<u32>,
    /// Stable per-item sequence numbers: query orientation and the final
    /// tie-break (lower sequence wins ties, mirroring Count-Max's
    /// first-maximal rule) are both keyed on them, so neither depends on
    /// the pool's mutable slot order.
    seq: Vec<u32>,
    next_seq: u32,
    /// `(seq_lo << 32 | seq_hi) -> le(item_lo, item_hi)` outcome cache.
    outcomes: std::collections::HashMap<u64, bool, nco_metric::hashing::MixBuildHasher>,
    /// Pool members that may be missing outcomes (new entries, touched
    /// keys) — the only candidates the next sweep pairs up, so steady
    /// state costs `O(|pending| * pool)` instead of `O(pool^2)`.
    pending: Vec<usize>,
    pending_flag: Vec<bool>,
    // Reusable round buffers.
    round_pairs: Vec<(usize, usize)>,
    round_answers: Vec<bool>,
    asked: Vec<(usize, usize)>,
    queued: std::collections::HashSet<u64, nco_metric::hashing::MixBuildHasher>,
    stats: ContestStats,
}

impl MinContest {
    /// Builds the structure over the initial `items`, resolving `(t, l, s)`
    /// from `params` exactly like [`max_adv`] does for `items.len()`
    /// candidates. Draws the `t` bucket deals and the initial sample from
    /// `rng`; issues no queries (the first [`min_adv_incremental`] call
    /// plays the tournaments and the Count-Min).
    ///
    /// # Panics
    /// Panics if `items` is empty, an item is not below `id_bound`, or
    /// `id_bound` does not fit the internal `u32` tables.
    pub fn new<R: Rng + ?Sized>(
        items: &[usize],
        id_bound: usize,
        params: &AdvParams,
        rng: &mut R,
    ) -> Self {
        assert!(!items.is_empty(), "contest needs at least one candidate");
        assert!(
            id_bound < u32::MAX as usize,
            "id_bound must fit the u32 tables"
        );
        assert!(items.iter().all(|&it| it < id_bound), "item out of bounds");
        let (t, l, s) = params.resolve(items.len());
        let mut contest = Self {
            rounds: t,
            buckets_per_round: l,
            sample_target: s,
            bucket_of: vec![vec![ABSENT; id_bound]; t],
            buckets: vec![vec![Vec::new(); l]; t],
            bucket_winner: vec![vec![None; l]; t],
            bucket_dirty: vec![vec![true; l]; t],
            sample: Vec::with_capacity(s),
            pool: Vec::new(),
            score: Vec::new(),
            pool_slot: vec![ABSENT; id_bound],
            refs: vec![0; id_bound],
            seq: vec![ABSENT; id_bound],
            next_seq: 0,
            outcomes: std::collections::HashMap::with_hasher(Default::default()),
            pending: Vec::new(),
            pending_flag: vec![false; id_bound],
            round_pairs: Vec::new(),
            round_answers: Vec::new(),
            asked: Vec::new(),
            queued: std::collections::HashSet::with_hasher(Default::default()),
            stats: ContestStats::default(),
        };
        // One random deal per round: shuffle, then chunk into l near-equal
        // parts — the same partition shape as `tournament_partition`.
        let mut deal: Vec<usize> = items.to_vec();
        for r in 0..t {
            deal.copy_from_slice(items);
            deal.shuffle(rng);
            let base = deal.len() / l;
            let extra = deal.len() % l;
            let mut start = 0;
            for b in 0..l {
                let size = base + usize::from(b < extra);
                for &it in &deal[start..start + size] {
                    contest.bucket_of[r][it] = b as u32;
                    contest.buckets[r][b].push(it);
                }
                start += size;
            }
        }
        contest.resample(items, rng);
        contest
    }

    /// Cumulative cost counters.
    pub fn stats(&self) -> ContestStats {
        self.stats
    }

    /// Registers a brand-new candidate: dealt into one uniformly random
    /// bucket per round (its buckets replay at the next sweep).
    ///
    /// # Panics
    /// Panics if the item is out of bounds or already present.
    pub fn insert<R: Rng + ?Sized>(&mut self, item: usize, rng: &mut R) {
        assert!(item < self.refs.len(), "item out of bounds");
        assert!(self.bucket_of[0][item] == ABSENT, "item already present");
        for r in 0..self.rounds {
            let b = rng.random_range(0..self.buckets_per_round);
            self.bucket_of[r][item] = b as u32;
            self.buckets[r][b].push(item);
            self.bucket_dirty[r][b] = true;
        }
    }

    /// Removes a dead candidate from its buckets, the sample and the pool.
    pub fn remove(&mut self, item: usize) {
        for r in 0..self.rounds {
            let b = self.bucket_of[r][item];
            if b == ABSENT {
                continue;
            }
            let b = b as usize;
            self.bucket_of[r][item] = ABSENT;
            self.buckets[r][b].retain(|&m| m != item);
            self.bucket_dirty[r][b] = true;
            if self.bucket_winner[r][b] == Some(item) {
                self.bucket_winner[r][b] = None;
                self.unref(item);
            }
        }
        let before = self.sample.len();
        self.sample.retain(|&m| m != item);
        for _ in 0..before - self.sample.len() {
            self.unref(item);
        }
        debug_assert_eq!(self.refs[item], 0, "dead candidate still referenced");
    }

    /// Marks a surviving candidate's key as changed: its buckets replay
    /// and its cached pool outcomes are discarded at the next sweep.
    pub fn touch(&mut self, item: usize) {
        for r in 0..self.rounds {
            let b = self.bucket_of[r][item];
            if b != ABSENT {
                self.bucket_dirty[r][b as usize] = true;
            }
        }
        if self.pool_slot[item] != ABSENT {
            self.drop_outcomes_of(item);
            self.mark_pending(item);
        }
    }

    /// Queues a pool member for the next sweep's missing-pair scan.
    fn mark_pending(&mut self, item: usize) {
        if !self.pending_flag[item] {
            self.pending_flag[item] = true;
            self.pending.push(item);
        }
    }

    /// Tops the persistent sample back up to its target size with uniform
    /// (with-replacement) draws from `live`.
    pub fn resample<R: Rng + ?Sized>(&mut self, live: &[usize], rng: &mut R) {
        if live.is_empty() {
            return;
        }
        while self.sample.len() < self.sample_target {
            let pick = live[rng.random_range(0..live.len())];
            self.sample.push(pick);
            self.reference(pick);
        }
    }

    /// Takes (or allocates) the item's stable sequence number.
    fn seq_of(&mut self, item: usize) -> u32 {
        if self.seq[item] == ABSENT {
            self.seq[item] = self.next_seq;
            self.next_seq += 1;
        }
        self.seq[item]
    }

    fn outcome_key(&self, a: usize, b: usize) -> u64 {
        let (sa, sb) = (self.seq[a], self.seq[b]);
        debug_assert!(sa != ABSENT && sb != ABSENT && sa != sb);
        let (lo, hi) = if sa < sb { (sa, sb) } else { (sb, sa) };
        (u64::from(lo) << 32) | u64::from(hi)
    }

    /// Adds one pool reference; first reference enters the pool (and
    /// queues the member for the next sweep's missing-pair scan).
    fn reference(&mut self, item: usize) {
        self.refs[item] += 1;
        if self.refs[item] == 1 {
            self.seq_of(item);
            self.pool_slot[item] = self.pool.len() as u32;
            self.pool.push(item);
            self.score.push(0);
            self.mark_pending(item);
        }
    }

    /// Drops one pool reference; the last reference leaves the pool and
    /// retires the member's cached outcomes.
    fn unref(&mut self, item: usize) {
        debug_assert!(self.refs[item] > 0, "unref of an unreferenced item");
        self.refs[item] -= 1;
        if self.refs[item] > 0 {
            return;
        }
        self.drop_outcomes_of(item);
        let slot = self.pool_slot[item] as usize;
        self.pool.swap_remove(slot);
        self.score.swap_remove(slot);
        self.pool_slot[item] = ABSENT;
        if slot < self.pool.len() {
            self.pool_slot[self.pool[slot]] = slot as u32;
        }
    }

    /// Forgets every cached outcome involving a pool member, rolling the
    /// winners' scores back so the pairs can be re-asked.
    fn drop_outcomes_of(&mut self, item: usize) {
        debug_assert!(self.pool_slot[item] != ABSENT);
        for slot in 0..self.pool.len() {
            let other = self.pool[slot];
            if other == item {
                continue;
            }
            let key = self.outcome_key(item, other);
            if let Some(le) = self.outcomes.remove(&key) {
                let winner = self.pair_winner(item, other, le);
                self.score[self.pool_slot[winner] as usize] -= 1;
            }
        }
    }

    /// The min-orientation winner of an asked pair: queries are oriented
    /// lower-sequence first, and `le(lo, hi) == true` means `lo`'s key is
    /// not larger, so `lo` takes the point.
    fn pair_winner(&self, a: usize, b: usize, le: bool) -> usize {
        let (lo, hi) = if self.seq[a] < self.seq[b] {
            (a, b)
        } else {
            (b, a)
        };
        if le {
            lo
        } else {
            hi
        }
    }

    /// One sweep: replays dirty bucket tournaments (batched level by
    /// level), re-asks missing pool pairs (one batched round), and returns
    /// the Count-Min winner — max score, ties to the lower sequence
    /// number. `full = true` forces the from-scratch reference sweep.
    fn run<C: Comparator<usize>>(&mut self, cmp: &mut C, full: bool) -> Option<usize> {
        if full {
            self.stats.full_sweeps += 1;
            self.outcomes.clear();
            self.score.fill(0);
            for round in self.bucket_dirty.iter_mut() {
                round.fill(true);
            }
        }

        // Stage 1 + 2: replay dirty bucket tournaments. All dirty buckets
        // advance level by level together, one batched comparator round
        // per level, in (round, bucket) order. NOTE: this is the MIN
        // sibling of the level-batched brackets in
        // `super::tournament::{tournament, tournament_partition}` (their
        // winner orientation is reversed: there `le == true` promotes the
        // second item, here the first) and of `super::scaffold`'s
        // `sweep_row` — a fix to the pairing, odd-tail or answer-cursor
        // logic in any of the four must visit the others.
        let mut replays: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for r in 0..self.rounds {
            for b in 0..self.buckets_per_round {
                if self.bucket_dirty[r][b] {
                    replays.push((r, b, self.buckets[r][b].clone()));
                }
            }
        }
        loop {
            self.round_pairs.clear();
            for (_, _, cur) in &replays {
                for pair in cur.chunks(2) {
                    if let [a, b] = *pair {
                        self.round_pairs.push((a, b));
                    }
                }
            }
            if self.round_pairs.is_empty() {
                break;
            }
            self.stats.bucket_duels += self.round_pairs.len() as u64;
            self.round_answers.clear();
            cmp.le_round(&self.round_pairs, &mut self.round_answers);
            let mut at = 0;
            for (_, _, cur) in replays.iter_mut() {
                let mut write = 0;
                let mut read = 0;
                while read < cur.len() {
                    cur[write] = if read + 1 < cur.len() {
                        let won = self.round_answers[at];
                        at += 1;
                        if won {
                            cur[read]
                        } else {
                            cur[read + 1]
                        }
                    } else {
                        cur[read]
                    };
                    write += 1;
                    read += 2;
                }
                cur.truncate(write);
            }
            debug_assert_eq!(at, self.round_answers.len());
        }
        for (r, b, cur) in replays {
            self.stats.bucket_replays += 1;
            let new_winner = cur.first().copied();
            let old_winner = self.bucket_winner[r][b];
            if new_winner != old_winner {
                if let Some(old) = old_winner {
                    self.unref(old);
                }
                if let Some(new) = new_winner {
                    self.reference(new);
                }
                self.bucket_winner[r][b] = new_winner;
            }
            self.bucket_dirty[r][b] = false;
        }

        // Stage 3: the final Count-Min over the pool — ask only the pairs
        // with no cached outcome, batched. Missing pairs can only involve
        // a *pending* member (new pool entry or touched key), so the
        // steady-state scan is O(|pending| * pool); a full sweep asks the
        // whole triangle. Pairs are oriented lower sequence number first,
        // so a pair is always the same oracle query no matter which sweep
        // asks it (ask *order* cannot matter: answers are pure functions
        // of the query under persistent noise).
        let mut asked = std::mem::take(&mut self.asked);
        asked.clear();
        if full {
            for i in 0..self.pool.len() {
                for j in i + 1..self.pool.len() {
                    let (a, b) = (self.pool[i], self.pool[j]);
                    if self.seq[a] < self.seq[b] {
                        asked.push((a, b));
                    } else {
                        asked.push((b, a));
                    }
                }
            }
        } else {
            self.queued.clear();
            for idx in 0..self.pending.len() {
                let m = self.pending[idx];
                if self.pool_slot[m] == ABSENT {
                    continue; // marked, then left the pool before the sweep
                }
                for slot in 0..self.pool.len() {
                    let o = self.pool[slot];
                    if o == m {
                        continue;
                    }
                    let key = self.outcome_key(m, o);
                    if self.outcomes.contains_key(&key) || !self.queued.insert(key) {
                        continue;
                    }
                    if self.seq[m] < self.seq[o] {
                        asked.push((m, o));
                    } else {
                        asked.push((o, m));
                    }
                }
            }
        }
        for chunk in asked.chunks(4096) {
            self.round_answers.clear();
            cmp.le_round(chunk, &mut self.round_answers);
            self.stats.pool_duels += chunk.len() as u64;
            for (&(lo, hi), &le) in chunk.iter().zip(self.round_answers.iter()) {
                self.outcomes.insert(self.outcome_key(lo, hi), le);
                let winner = if le { lo } else { hi };
                self.score[self.pool_slot[winner] as usize] += 1;
            }
        }
        self.asked = asked;
        for idx in 0..self.pending.len() {
            let m = self.pending[idx];
            self.pending_flag[m] = false;
        }
        self.pending.clear();

        let mut best: Option<usize> = None;
        for (slot, &item) in self.pool.iter().enumerate() {
            let better = match best {
                None => true,
                Some(b) => {
                    let (bs, is) = (self.score[self.pool_slot[b] as usize], self.score[slot]);
                    is > bs || (is == bs && self.seq[item] < self.seq[b])
                }
            };
            if better {
                best = Some(item);
            }
        }
        best
    }
}

/// One sweep of the incremental minimum engine: re-contests the dirty
/// parts of `contest` (everything, when `full`) and returns the current
/// approximate-minimum candidate — `None` only when the contest holds no
/// candidates. See [`MinContest`] for the structure and its guarantees.
pub fn min_adv_incremental<C: Comparator<usize>>(
    contest: &mut MinContest,
    cmp: &mut C,
    full: bool,
) -> Option<usize> {
    contest.run(cmp, full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::{ExactKeyCmp, ValueCmp};
    use nco_oracle::adversarial::{
        AdversarialValueOracle, InvertAdversary, PersistentRandomAdversary,
    };
    use nco_oracle::counting::Counting;
    use nco_oracle::TrueValueOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn params_resolution() {
        let p = AdvParams::experimental();
        let (t, l, s) = p.resolve(100);
        assert_eq!((t, l, s), (1, 10, 10));
        let p = AdvParams::with_confidence(0.1);
        assert_eq!(p.rounds, 9); // ceil(2 * log2(20)) = ceil(8.64)
        let p = AdvParams {
            rounds: 2,
            partitions: Some(5),
            sample_size: Some(7),
        };
        assert_eq!(p.resolve(100), (2, 5, 7));
    }

    #[test]
    fn exact_comparator_returns_true_max() {
        let keys: Vec<f64> = (0..200).map(|i| ((i * 71) % 997) as f64).collect();
        let items: Vec<usize> = (0..200).collect();
        let best = max_adv(
            &items,
            &AdvParams::with_confidence(0.05),
            &mut ExactKeyCmp::new(&keys),
            &mut rng(11),
        )
        .unwrap();
        let true_best = (0..200)
            .max_by(|&a, &b| keys[a].total_cmp(&keys[b]))
            .unwrap();
        assert_eq!(best, true_best);
        let worst = min_adv(
            &items,
            &AdvParams::with_confidence(0.05),
            &mut ExactKeyCmp::new(&keys),
            &mut rng(12),
        )
        .unwrap();
        let true_worst = (0..200)
            .min_by(|&a, &b| keys[a].total_cmp(&keys[b]))
            .unwrap();
        assert_eq!(worst, true_worst);
    }

    #[test]
    fn tiny_inputs() {
        let keys = [4.0, 9.0];
        let p = AdvParams::experimental();
        assert_eq!(
            max_adv::<usize, _, _>(&[], &p, &mut ExactKeyCmp::new(&keys), &mut rng(0)),
            None
        );
        assert_eq!(
            max_adv(&[0], &p, &mut ExactKeyCmp::new(&keys), &mut rng(0)),
            Some(0)
        );
        assert_eq!(
            max_adv(&[0, 1], &p, &mut ExactKeyCmp::new(&keys), &mut rng(0)),
            Some(1)
        );
    }

    /// Theorem 3.6's bound against the worst-case adversary, checked over
    /// many seeds: the returned value must be within (1+mu)^3 of the max in
    /// at least a 1 - delta fraction of runs (with slack for the finite
    /// trial count).
    #[test]
    fn theorem_3_6_bound_against_invert_adversary() {
        let mu = 0.5f64;
        let n = 256usize;
        // Geometric-ish values: plenty of in-band confusion everywhere.
        let values: Vec<f64> = (0..n)
            .map(|i| 1.0 * (1.0 + mu * 0.35).powi(i as i32 % 40))
            .collect();
        let vmax = values.iter().cloned().fold(0.0, f64::max);
        let params = AdvParams::with_confidence(0.1);
        let items: Vec<usize> = (0..n).collect();
        let mut ok = 0;
        let trials = 40;
        for seed in 0..trials {
            let mut oracle = AdversarialValueOracle::new(values.clone(), mu, InvertAdversary);
            let got = max_adv(
                &items,
                &params,
                &mut ValueCmp::new(&mut oracle),
                &mut rng(1000 + seed),
            )
            .unwrap();
            if values[got] * (1.0 + mu).powi(3) >= vmax - 1e-9 {
                ok += 1;
            }
        }
        assert!(
            ok >= trials * 8 / 10,
            "bound held in only {ok}/{trials} trials"
        );
    }

    #[test]
    fn query_complexity_is_near_linear() {
        // O(n t + (sqrt(n) t + sqrt(n))^2) with t = O(log 1/delta):
        // c * n * log2(1/delta)^2 queries is the theorem's budget.
        for n in [256usize, 1024, 4096] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut oracle = Counting::new(TrueValueOracle::new(values));
            let items: Vec<usize> = (0..n).collect();
            let delta = 0.1;
            let params = AdvParams::with_confidence(delta);
            let _ = max_adv(
                &items,
                &params,
                &mut ValueCmp::new(&mut oracle),
                &mut rng(5),
            );
            let log_term = (1.0 / delta).log2();
            let budget = (16.0 * n as f64 * log_term * log_term) as u64;
            assert!(
                oracle.queries() <= budget,
                "n = {n}: {} queries > budget {budget}",
                oracle.queries()
            );
        }
    }

    /// Under an exact comparator the incremental contest always returns a
    /// true minimum, across inserts, removals, key changes and resampling.
    #[test]
    fn incremental_contest_tracks_the_true_minimum_under_exact_comparator() {
        let id_bound = 128usize;
        let mut keys: Vec<f64> = (0..id_bound)
            .map(|i| ((i * 37 + 11) % 997) as f64)
            .collect();
        let mut live: Vec<usize> = (0..40).collect();
        let mut r = rng(71);
        let mut contest = MinContest::new(&live, id_bound, &AdvParams::experimental(), &mut r);
        let mut winner =
            min_adv_incremental(&mut contest, &mut ExactKeyCmp::new(&keys), true).unwrap();
        for step in 0..30usize {
            let true_min = live.iter().map(|&i| keys[i]).fold(f64::INFINITY, f64::min);
            assert_eq!(keys[winner], true_min, "step {step}");
            // Winner dies; a fresh candidate arrives; one survivor's key
            // changes in place.
            contest.remove(winner);
            live.retain(|&c| c != winner);
            let fresh = 40 + step;
            keys[fresh] = ((step * 131 + 7) % 991) as f64;
            contest.insert(fresh, &mut r);
            live.push(fresh);
            let moved = live[(step * 13) % live.len()];
            keys[moved] = ((step * 57 + 3) % 983) as f64 + 0.5;
            contest.touch(moved);
            contest.resample(&live, &mut r);
            winner =
                min_adv_incremental(&mut contest, &mut ExactKeyCmp::new(&keys), false).unwrap();
        }
        let s = contest.stats();
        assert_eq!(s.full_sweeps, 1, "only the initial sweep is full");
        assert!(s.bucket_replays > 0 && s.pool_duels > 0);
    }

    /// Incremental sweeps are decision-identical to full sweeps over the
    /// same structure under persistent noise: two identically-driven
    /// contests, one cached and one forced full, agree on every winner.
    #[test]
    fn incremental_sweeps_match_full_sweeps_under_persistent_noise() {
        for seed in 0..10u64 {
            let id_bound = 96usize;
            let values: Vec<f64> = (0..id_bound)
                .map(|i| 1.0 + ((i * 29) % 83) as f64)
                .collect();
            let start: Vec<usize> = (0..48).collect();
            let mut oracle_a =
                nco_oracle::probabilistic::ProbValueOracle::new(values.clone(), 0.25, 400 + seed);
            let mut oracle_b =
                nco_oracle::probabilistic::ProbValueOracle::new(values.clone(), 0.25, 400 + seed);
            let params = AdvParams::experimental();
            let mut rng_a = rng(seed);
            let mut rng_b = rng(seed);
            let mut a = MinContest::new(&start, id_bound, &params, &mut rng_a);
            let mut b = MinContest::new(&start, id_bound, &params, &mut rng_b);
            let mut live = start;
            let mut wa =
                min_adv_incremental(&mut a, &mut ValueCmp::new(&mut oracle_a), true).unwrap();
            let mut wb =
                min_adv_incremental(&mut b, &mut ValueCmp::new(&mut oracle_b), true).unwrap();
            for step in 0..24usize {
                assert_eq!(wa, wb, "seed {seed}, step {step}");
                a.remove(wa);
                b.remove(wb);
                live.retain(|&c| c != wa);
                let fresh = 48 + (step % 48);
                if !live.contains(&fresh) {
                    a.insert(fresh, &mut rng_a);
                    b.insert(fresh, &mut rng_b);
                    live.push(fresh);
                }
                let moved = live[(step * 7) % live.len()];
                a.touch(moved);
                b.touch(moved);
                a.resample(&live, &mut rng_a);
                b.resample(&live, &mut rng_b);
                wa = min_adv_incremental(&mut a, &mut ValueCmp::new(&mut oracle_a), false).unwrap();
                wb = min_adv_incremental(&mut b, &mut ValueCmp::new(&mut oracle_b), true).unwrap();
            }
            assert_eq!(a.stats().full_sweeps, 1, "cached contest swept once");
            assert_eq!(b.stats().full_sweeps, 25, "reference contest always full");
        }
    }

    #[test]
    fn random_adversary_still_within_bound_most_runs() {
        let mu = 1.0f64;
        let n = 200usize;
        let values: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.05).collect();
        let vmax = values.iter().cloned().fold(0.0, f64::max);
        let items: Vec<usize> = (0..n).collect();
        let mut ok = 0;
        let trials = 30;
        for seed in 0..trials {
            let mut oracle = AdversarialValueOracle::new(
                values.clone(),
                mu,
                PersistentRandomAdversary::new(seed),
            );
            let got = max_adv(
                &items,
                &AdvParams::with_confidence(0.1),
                &mut ValueCmp::new(&mut oracle),
                &mut rng(300 + seed),
            )
            .unwrap();
            if values[got] * (1.0 + mu).powi(3) >= vmax {
                ok += 1;
            }
        }
        assert!(ok >= trials * 8 / 10, "only {ok}/{trials} within bound");
    }
}
