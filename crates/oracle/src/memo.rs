//! Query memoisation — semantically exact caching under persistent noise.
//!
//! Under the persistent models of Section 2.2, repeating a query returns
//! the same bit, so a cache in front of the oracle changes *nothing* but
//! speed: the algorithms see the identical answer sequence while repeated
//! queries skip the (hash / distance-evaluation / crowd-simulation) work.
//! [`MemoOracle`] is that cache; its constructor requires the
//! [`PersistentNoise`] marker so a
//! non-persistent oracle cannot be wrapped by accident.
//!
//! Storage is sized to the query space:
//!
//! * **comparison queries** live in a condensed triangular table with one
//!   nibble per unordered record pair — 2 bits (`known`, `answer`) for
//!   each of the two query directions, `n (n - 1) / 4` bytes total. No
//!   complement assumption is made between `le(i, j)` and `le(j, i)`: the
//!   two directions are cached independently, which keeps the cache exact
//!   even for adversarial in-band behaviour where mirrored queries need
//!   not be complementary (e.g. ties under `InvertAdversary`).
//! * **quadruplet queries** range over pairs of record pairs — far too
//!   many for a dense triangle at interesting `n` — so they live in an
//!   open-addressed table keyed by the four indices packed into one `u64`
//!   (16 bits each). Only the *within-pair* order is canonicalised
//!   (`d` is symmetric for every metric), never the pair-of-pairs order.

use crate::persistent::PersistentNoise;
use crate::{Layer, Oracle, Reply};

/// Condensed triangular nibble table: per unordered pair `i < j`, bits
/// `known`/`answer` for the forward query `(i, j)` and the reverse query
/// `(j, i)`.
#[derive(Debug, Clone)]
struct PairMemo {
    nibbles: Vec<u8>,
}

const FWD_KNOWN: u8 = 0b0001;
const FWD_ANS: u8 = 0b0010;
const REV_KNOWN: u8 = 0b0100;
const REV_ANS: u8 = 0b1000;

impl PairMemo {
    fn new(n: usize) -> Self {
        let pairs = n * n.saturating_sub(1) / 2;
        Self {
            nibbles: vec![0u8; pairs.div_ceil(2)],
        }
    }

    #[inline]
    fn get(&self, t: usize, forward: bool) -> Option<bool> {
        let nib = (self.nibbles[t >> 1] >> ((t & 1) << 2)) & 0xF;
        let (known, ans) = if forward {
            (FWD_KNOWN, FWD_ANS)
        } else {
            (REV_KNOWN, REV_ANS)
        };
        if nib & known != 0 {
            Some(nib & ans != 0)
        } else {
            None
        }
    }

    #[inline]
    fn set(&mut self, t: usize, forward: bool, answer: bool) {
        let (known, ans) = if forward {
            (FWD_KNOWN, FWD_ANS)
        } else {
            (REV_KNOWN, REV_ANS)
        };
        let bits = known | if answer { ans } else { 0 };
        self.nibbles[t >> 1] |= bits << ((t & 1) << 2);
    }
}

/// Open-addressed (linear probing) map from packed quadruplet keys to one
/// answer bit. Keys pack four 16-bit indices; `u64::MAX` is the empty
/// sentinel (unreachable: it would require the two canonical pairs to be
/// identical, which is short-circuited before lookup).
#[derive(Debug, Clone)]
struct QuadMemo {
    keys: Vec<u64>,
    answers: Vec<u64>,
    len: usize,
}

const EMPTY: u64 = u64::MAX;

#[inline]
fn hash_key(key: u64) -> u64 {
    nco_metric::hashing::splitmix64(key)
}

impl QuadMemo {
    fn new() -> Self {
        Self {
            keys: vec![EMPTY; 64],
            answers: vec![0; 1],
            len: 0,
        }
    }

    #[inline]
    fn get(&self, key: u64) -> Option<bool> {
        let mask = self.keys.len() - 1;
        let mut slot = (hash_key(key) as usize) & mask;
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some(self.answers[slot >> 6] >> (slot & 63) & 1 != 0);
            }
            if k == EMPTY {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    #[inline]
    fn insert(&mut self, key: u64, answer: bool) {
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut slot = (hash_key(key) as usize) & mask;
        while self.keys[slot] != EMPTY {
            debug_assert_ne!(self.keys[slot], key, "double insert");
            slot = (slot + 1) & mask;
        }
        self.keys[slot] = key;
        if answer {
            self.answers[slot >> 6] |= 1u64 << (slot & 63);
        }
        self.len += 1;
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_answers = std::mem::take(&mut self.answers);
        let cap = old_keys.len() * 2;
        self.keys = vec![EMPTY; cap];
        self.answers = vec![0u64; cap.div_ceil(64)];
        self.len = 0;
        for (slot, &k) in old_keys.iter().enumerate() {
            if k != EMPTY {
                let ans = old_answers[slot >> 6] >> (slot & 63) & 1 != 0;
                self.insert(k, ans);
            }
        }
    }
}

/// A memoising decorator for persistent oracles.
///
/// Exact by construction: a cache hit returns the bit the wrapped oracle
/// is guaranteed (by [`PersistentNoise`]) to have produced again, so an
/// algorithm running over `MemoOracle<O>` makes exactly the decisions it
/// would make over `O` — only faster. Degenerate self-comparisons
/// (`le(i, i)`, identical canonical pairs) are forwarded uncached; they
/// cost the wrapped oracle nothing anyway.
#[derive(Debug, Clone)]
pub struct MemoOracle<O> {
    inner: O,
    pairs: Option<PairMemo>,
    quads: Option<QuadMemo>,
    hits: u64,
    lookups: u64,
}

impl<O: PersistentNoise> MemoOracle<O> {
    /// Wraps a persistent oracle with an (initially empty) answer cache.
    ///
    /// Tables are allocated lazily per interface: wrapping a comparison
    /// oracle costs `n (n - 1) / 4` bytes on first query; quadruplet
    /// queries grow a hash table with the distinct-query count.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            pairs: None,
            quads: None,
            hits: 0,
            lookups: 0,
        }
    }

    /// Cache hits so far (queries answered without touching the oracle).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total cacheable lookups so far (hits plus misses).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Immutable access to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the oracle, dropping the cache.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

/// The shape-specific half of [`MemoOracle`]: the cache key of a query
/// and the table it lives in.
pub(crate) trait MemoShape: Copy {
    /// A table cell.
    type Key: Copy + Eq + std::hash::Hash;

    /// The cell of this query over `n` records, or `None` for a
    /// degenerate query, which is forwarded uncached.
    fn key(self, n: usize) -> Option<Self::Key>;

    /// Reads a cell, allocating this shape's table on first use.
    fn get<O>(memo: &mut MemoOracle<O>, n: usize, key: Self::Key) -> Option<bool>;

    /// Fills a cell of the table [`MemoShape::get`] allocated.
    fn set<O>(memo: &mut MemoOracle<O>, key: Self::Key, answer: bool);
}

/// Comparison queries: the nibble triangle, keyed by the condensed index
/// of the unordered pair plus the query direction.
impl MemoShape for (usize, usize) {
    type Key = (usize, bool);

    #[inline]
    fn key(self, n: usize) -> Option<(usize, bool)> {
        let (i, j) = self;
        if i == j {
            return None;
        }
        let forward = i < j;
        let (lo, hi) = if forward { (i, j) } else { (j, i) };
        debug_assert!(hi < n);
        Some((lo * n - lo * (lo + 1) / 2 + (hi - lo - 1), forward))
    }

    #[inline]
    fn get<O>(memo: &mut MemoOracle<O>, n: usize, (t, forward): (usize, bool)) -> Option<bool> {
        memo.pairs
            .get_or_insert_with(|| PairMemo::new(n))
            .get(t, forward)
    }

    #[inline]
    fn set<O>(memo: &mut MemoOracle<O>, (t, forward): (usize, bool), answer: bool) {
        memo.pairs
            .as_mut()
            .expect("allocated by get")
            .set(t, forward, answer);
    }
}

/// Quadruplet queries: the open-addressed table, keyed by the two
/// within-pair-canonical record pairs packed 16 bits per index.
impl MemoShape for [usize; 4] {
    type Key = u64;

    #[inline]
    fn key(self, n: usize) -> Option<u64> {
        // Release-mode guard: an index above 16 bits would shift out of
        // the packed key and silently alias two distinct queries — the
        // exact corruption this type exists to rule out. One predictable
        // branch per query, negligible next to the table probe.
        assert!(
            n <= 1 << 16,
            "quadruplet memoisation packs indices into 16 bits (n = {n})"
        );
        let [a, b, c, d] = self;
        let p1 = if a <= b { (a, b) } else { (b, a) };
        let p2 = if c <= d { (c, d) } else { (d, c) };
        if p1 == p2 {
            return None;
        }
        Some(((p1.0 as u64) << 48) | ((p1.1 as u64) << 32) | ((p2.0 as u64) << 16) | p2.1 as u64)
    }

    #[inline]
    fn get<O>(memo: &mut MemoOracle<O>, _: usize, key: u64) -> Option<bool> {
        memo.quads.get_or_insert_with(QuadMemo::new).get(key)
    }

    #[inline]
    fn set<O>(memo: &mut MemoOracle<O>, key: u64, answer: bool) {
        memo.quads
            .as_mut()
            .expect("allocated by get")
            .insert(key, answer);
    }
}

/// A query's fate within one batched round: answered from the memo, or
/// waiting on slot `k` of the deduplicated miss round.
enum Slot {
    Done(bool),
    Pending(usize),
}

impl<Q: MemoShape, O: Oracle<Q> + PersistentNoise> Layer<Q> for MemoOracle<O> {
    type Below = O;

    fn below(&self) -> &O {
        &self.inner
    }

    /// A hit answers for free; a miss forwards and caches the answer. A
    /// faulted miss is **never cached**, so a retry layer outside the
    /// memo re-asks and caches the real bit instead of poisoning the
    /// table.
    fn one<R: Reply>(&mut self, q: Q) -> R {
        let n = self.inner.records();
        let Some(key) = q.key(n) else {
            return R::one(&mut self.inner, q);
        };
        self.lookups += 1;
        if let Some(ans) = Q::get(self, n, key) {
            self.hits += 1;
            return R::bit(ans);
        }
        let ans = R::one(&mut self.inner, q);
        if let Some(bit) = ans.answered() {
            Q::set(self, key, bit);
        }
        ans
    }

    /// One memoised round: cached queries answer from the table, the
    /// remaining **first occurrences** (plus uncached degenerates) forward
    /// as a single deduplicated inner round, in query order. Exactly one
    /// inner round per outer call — even when every query hits — so a
    /// round-billing layer *inside* the memo (the facade's `Budgeted`)
    /// counts the same rounds it would without memoisation. Answers, hit
    /// and lookup tallies, and the cached table state are bit-identical to
    /// the scalar decomposition: a duplicate later in the batch counts as
    /// the hit it would have been against the freshly cached first answer.
    /// On the fallible path only `Ok` miss lanes are cached, and every
    /// duplicate of a faulted miss reports that lane's fault.
    fn round<R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>) {
        if queries.is_empty() {
            R::round(&mut self.inner, queries, out);
            return;
        }
        let n = self.inner.records();
        let mut slots: Vec<Slot> = Vec::with_capacity(queries.len());
        let mut misses: Vec<Q> = Vec::new();
        // Miss slot -> table cell it fills afterwards (None: degenerate,
        // forwarded uncached), plus a batch-local index for dedup.
        let mut cache_into: Vec<Option<Q::Key>> = Vec::new();
        let mut open: std::collections::HashMap<Q::Key, usize> = std::collections::HashMap::new();
        let (mut lookups, mut hits) = (0u64, 0u64);
        for &q in queries {
            let Some(key) = q.key(n) else {
                cache_into.push(None);
                slots.push(Slot::Pending(misses.len()));
                misses.push(q);
                continue;
            };
            lookups += 1;
            if let Some(ans) = Q::get(self, n, key) {
                hits += 1;
                slots.push(Slot::Done(ans));
            } else if let Some(&k) = open.get(&key) {
                hits += 1;
                slots.push(Slot::Pending(k));
            } else {
                open.insert(key, misses.len());
                cache_into.push(Some(key));
                slots.push(Slot::Pending(misses.len()));
                misses.push(q);
            }
        }
        self.lookups += lookups;
        self.hits += hits;
        let mut answers: Vec<R> = Vec::with_capacity(misses.len());
        R::round(&mut self.inner, &misses, &mut answers);
        for (k, target) in cache_into.iter().enumerate() {
            if let (Some(key), Some(bit)) = (*target, answers[k].answered()) {
                Q::set(self, key, bit);
            }
        }
        out.reserve(queries.len());
        out.extend(slots.iter().map(|s| match *s {
            Slot::Done(ans) => R::bit(ans),
            Slot::Pending(k) => answers[k],
        }));
    }
}

shape_traits!(impl[O: PersistentNoise] MemoOracle<O>);

impl<O: PersistentNoise> PersistentNoise for MemoOracle<O> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::{AdversarialValueOracle, InvertAdversary};
    use crate::counting::Counting;
    use crate::probabilistic::{ProbQuadOracle, ProbValueOracle};
    use crate::{ComparisonOracle, QuadrupletOracle};
    use nco_metric::EuclideanMetric;

    #[test]
    fn comparison_memo_is_bit_identical_and_saves_queries() {
        let values: Vec<f64> = (0..60).map(|i| ((i * 37) % 61) as f64).collect();
        let mut raw = ProbValueOracle::new(values.clone(), 0.3, 42);
        let mut memo = MemoOracle::new(Counting::new(ProbValueOracle::new(values, 0.3, 42)));
        for round in 0..3 {
            for i in 0..60 {
                for j in 0..60 {
                    if i == j {
                        continue;
                    }
                    assert_eq!(memo.le(i, j), raw.le(i, j), "round {round} ({i},{j})");
                }
            }
        }
        // Each ordered query hit the inner oracle exactly once across all
        // three rounds; the two later rounds were pure cache hits.
        assert_eq!(memo.inner().queries(), 60 * 59);
        assert_eq!(memo.hits(), 2 * 60 * 59);
        assert_eq!(memo.lookups(), 3 * 60 * 59);
    }

    #[test]
    fn memo_preserves_noncomplementary_tie_behaviour() {
        // InvertAdversary answers both directions of an in-band tie with
        // `false` — mirrored queries are NOT complementary, which is why
        // directions are cached independently.
        let mk = || AdversarialValueOracle::new(vec![1.0, 1.0], 1.0, InvertAdversary);
        let mut raw = mk();
        let mut memo = MemoOracle::new(mk());
        for _ in 0..3 {
            assert_eq!(memo.le(0, 1), raw.le(0, 1));
            assert_eq!(memo.le(1, 0), raw.le(1, 0));
        }
        assert!(!memo.le(0, 1) && !memo.le(1, 0));
    }

    #[test]
    fn quad_memo_is_bit_identical_and_saves_queries() {
        let m = EuclideanMetric::from_points(
            &(0..24)
                .map(|i| vec![(i * i % 29) as f64, i as f64])
                .collect::<Vec<_>>(),
        );
        // Offsets 3 and 7 guarantee the two unordered pairs never tie, so
        // every tuple below is a cacheable query.
        let mut quads = Vec::new();
        for a in 0..24usize {
            for c in 0..24usize {
                quads.push((a, (a + 3) % 24, c, (c + 7) % 24));
            }
        }
        let distinct: std::collections::HashSet<(usize, usize, usize, usize)> = quads
            .iter()
            .map(|&(a, b, c, d)| (a.min(b), a.max(b), c.min(d), c.max(d)))
            .collect();

        let mut raw = ProbQuadOracle::new(m.clone(), 0.25, 7);
        let mut memo = MemoOracle::new(Counting::new(ProbQuadOracle::new(m, 0.25, 7)));
        for _ in 0..2 {
            for &(a, b, c, d) in &quads {
                assert_eq!(memo.le(a, b, c, d), raw.le(a, b, c, d), "({a},{b},{c},{d})");
                // The within-pair mirror resolves to the same cached entry.
                assert_eq!(memo.le(b, a, c, d), raw.le(b, a, c, d));
            }
        }
        // One inner query per distinct canonical tuple; everything else
        // (replays and within-pair mirrors) was a cache hit.
        assert_eq!(memo.inner().queries(), distinct.len() as u64);
        assert_eq!(memo.lookups(), 4 * quads.len() as u64);
        assert_eq!(memo.hits(), memo.lookups() - distinct.len() as u64);
    }

    #[test]
    fn batched_comparison_memo_matches_scalar_decomposition() {
        let values: Vec<f64> = (0..30).map(|i| ((i * 11) % 31) as f64).collect();
        // Duplicates within a batch, mirrored directions, and degenerate
        // (i, i) queries all mixed together.
        let mut batch = Vec::new();
        for i in 0..30usize {
            batch.push((i, (i + 4) % 30));
            batch.push(((i + 4) % 30, i));
            batch.push((i, (i + 4) % 30)); // within-batch duplicate
            batch.push((i, i)); // degenerate, forwarded uncached
        }
        let mut scalar =
            MemoOracle::new(Counting::new(ProbValueOracle::new(values.clone(), 0.3, 9)));
        let mut expect = Vec::new();
        for &(i, j) in &batch {
            expect.push(scalar.le(i, j));
        }
        let mut batched = MemoOracle::new(Counting::new(ProbValueOracle::new(values, 0.3, 9)));
        let mut got = Vec::new();
        batched.le_batch(&batch, &mut got);
        assert_eq!(got, expect);
        assert_eq!(batched.inner().queries(), scalar.inner().queries());
        assert_eq!(batched.lookups(), scalar.lookups());
        assert_eq!(batched.hits(), scalar.hits());
        // Replaying the same batch is now all hits plus the degenerates.
        got.clear();
        batched.le_batch(&batch, &mut got);
        assert_eq!(got, expect);
        assert_eq!(batched.inner().queries(), scalar.inner().queries() + 30);
    }

    #[test]
    fn batched_quad_memo_matches_scalar_decomposition() {
        let m = EuclideanMetric::from_points(
            &(0..20)
                .map(|i| vec![(i * 13 % 23) as f64, i as f64])
                .collect::<Vec<_>>(),
        );
        let mut batch = Vec::new();
        for a in 0..20usize {
            let (b, c, d) = ((a + 3) % 20, (a + 1) % 20, (a + 9) % 20);
            batch.push([a, b, c, d]);
            batch.push([b, a, d, c]); // canonical duplicate via mirrors
            batch.push([a, b, a, b]); // degenerate pair, forwarded uncached
        }
        let mut scalar = MemoOracle::new(Counting::new(ProbQuadOracle::new(m.clone(), 0.25, 5)));
        let mut expect = Vec::new();
        for &[a, b, c, d] in &batch {
            expect.push(scalar.le(a, b, c, d));
        }
        let mut batched = MemoOracle::new(Counting::new(ProbQuadOracle::new(m, 0.25, 5)));
        let mut got = Vec::new();
        batched.le_batch(&batch, &mut got);
        assert_eq!(got, expect);
        assert_eq!(batched.inner().queries(), scalar.inner().queries());
        assert_eq!(batched.lookups(), scalar.lookups());
        assert_eq!(batched.hits(), scalar.hits());
    }

    #[test]
    fn batched_memo_bills_one_inner_round_per_outer_round() {
        use crate::budget::Budgeted;
        let values: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut memo = MemoOracle::new(Budgeted::new(ProbValueOracle::new(values, 0.2, 1), None));
        let batch: Vec<(usize, usize)> = (0..15).map(|i| (i, i + 1)).collect();
        let mut out = Vec::new();
        memo.le_batch(&batch, &mut out);
        assert_eq!(memo.inner().rounds(), 1);
        // A fully-memoised replay still counts as a round: the budget
        // meter sits inside the memo and sees one (empty) inner batch.
        out.clear();
        memo.le_batch(&batch, &mut out);
        assert_eq!(memo.inner().rounds(), 2);
        // ...and so does an empty outer batch, matching `Budgeted` alone.
        out.clear();
        memo.le_batch(&[], &mut out);
        assert_eq!(memo.inner().rounds(), 3);
        assert!(out.is_empty());
    }

    /// Runs `queries` through two fresh memos over `mk()`, one on the
    /// infallible path and one on the fallible path — first as one round,
    /// then as scalar asks — and checks answers, inner bills and memo
    /// tallies agree on the all-`Ok` path.
    fn assert_ok_paths_agree<Q, O>(mk: impl Fn() -> O, queries: &[Q])
    where
        Q: Copy,
        O: PersistentNoise,
        MemoOracle<Counting<O>>: Oracle<Q>,
    {
        let mut plain = MemoOracle::new(Counting::new(mk()));
        let mut fallible = MemoOracle::new(Counting::new(mk()));
        let mut expect = Vec::new();
        plain.ask_round(queries, &mut expect);
        let mut got = Vec::new();
        fallible.try_ask_round(queries, &mut got);
        for &q in queries {
            expect.push(plain.ask(q));
            got.push(fallible.try_ask(q));
        }
        let got: Vec<bool> = got.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expect);
        assert_eq!(fallible.inner().queries(), plain.inner().queries());
        assert_eq!(fallible.hits(), plain.hits());
        assert_eq!(fallible.lookups(), plain.lookups());
    }

    #[test]
    fn fallible_memo_round_matches_infallible_on_the_ok_path() {
        let values: Vec<f64> = (0..30).map(|i| ((i * 11) % 31) as f64).collect();
        let mut batch = Vec::new();
        for i in 0..30usize {
            batch.push((i, (i + 4) % 30));
            batch.push(((i + 4) % 30, i));
            batch.push((i, (i + 4) % 30));
            batch.push((i, i));
        }
        assert_ok_paths_agree(|| ProbValueOracle::new(values.clone(), 0.3, 9), &batch);

        let m = EuclideanMetric::from_points(
            &(0..20)
                .map(|i| vec![(i * 13 % 23) as f64, i as f64])
                .collect::<Vec<_>>(),
        );
        let mut quads = Vec::new();
        for a in 0..20usize {
            let (b, c, d) = ((a + 3) % 20, (a + 1) % 20, (a + 9) % 20);
            quads.push([a, b, c, d]);
            quads.push([b, a, d, c]);
            quads.push([a, b, a, b]);
        }
        assert_ok_paths_agree(|| ProbQuadOracle::new(m.clone(), 0.25, 5), &quads);
    }

    #[test]
    fn quad_memo_grows_past_initial_capacity() {
        let m = EuclideanMetric::from_points(
            &(0..40).map(|i| vec![i as f64 * 1.7]).collect::<Vec<_>>(),
        );
        let mut memo = MemoOracle::new(ProbQuadOracle::new(m.clone(), 0.2, 3));
        let mut reference = ProbQuadOracle::new(m, 0.2, 3);
        let mut checked = 0usize;
        for a in 0..40usize {
            for c in 0..40usize {
                let (b, d) = ((a + 1) % 40, (c + 2) % 40);
                assert_eq!(memo.le(a, b, c, d), reference.le(a, b, c, d));
                checked += 1;
            }
        }
        assert!(checked > 64, "must exceed the initial table capacity");
        // Replay: everything is now cached and still identical.
        for a in 0..40usize {
            for c in 0..40usize {
                let (b, d) = ((a + 1) % 40, (c + 2) % 40);
                assert_eq!(memo.le(a, b, c, d), reference.le(a, b, c, d));
            }
        }
    }
}
