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

use crate::fault::QueryFault;
use crate::persistent::PersistentNoise;
use crate::{ComparisonOracle, QuadrupletOracle};

/// Condensed triangular nibble table: per unordered pair `i < j`, bits
/// `known`/`answer` for the forward query `(i, j)` and the reverse query
/// `(j, i)`.
#[derive(Debug, Clone)]
struct PairMemo {
    n: usize,
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
            n,
            nibbles: vec![0u8; pairs.div_ceil(2)],
        }
    }

    /// Condensed index of the unordered pair `i < j`.
    #[inline]
    fn tri(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
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

/// A query's fate within one batched round: answered from the memo, or
/// waiting on slot `k` of the deduplicated miss round.
enum Slot {
    Done(bool),
    Pending(usize),
}

impl<O: ComparisonOracle + PersistentNoise> ComparisonOracle for MemoOracle<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn le(&mut self, i: usize, j: usize) -> bool {
        if i == j {
            return self.inner.le(i, j);
        }
        let n = self.inner.n();
        let memo = self.pairs.get_or_insert_with(|| PairMemo::new(n));
        let forward = i < j;
        let t = if forward {
            memo.tri(i, j)
        } else {
            memo.tri(j, i)
        };
        self.lookups += 1;
        if let Some(ans) = memo.get(t, forward) {
            self.hits += 1;
            return ans;
        }
        let ans = self.inner.le(i, j);
        self.pairs
            .as_mut()
            .expect("just inserted")
            .set(t, forward, ans);
        ans
    }

    /// One memoised round: cached queries answer from the table, the
    /// remaining **first occurrences** (plus uncached degenerates) forward
    /// as a single deduplicated inner round, in query order. Exactly one
    /// inner `le_batch` per outer call — even when every query hits — so a
    /// round-billing layer *inside* the memo (the facade's `Budgeted`)
    /// counts the same rounds it would without memoisation. Answers, hit
    /// and lookup tallies, and the cached table state are bit-identical to
    /// the scalar decomposition: a duplicate later in the batch counts as
    /// the hit it would have been against the freshly cached first answer.
    fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
        if queries.is_empty() {
            self.inner.le_batch(queries, out);
            return;
        }
        if self.pairs.is_none() {
            self.pairs = Some(PairMemo::new(self.inner.n()));
        }
        let memo = self.pairs.as_ref().expect("inserted above");
        let mut slots: Vec<Slot> = Vec::with_capacity(queries.len());
        let mut misses: Vec<(usize, usize)> = Vec::new();
        // Miss slot -> table cell it fills afterwards (None: degenerate,
        // forwarded uncached), plus a batch-local index for dedup.
        let mut cache_into: Vec<Option<(usize, bool)>> = Vec::new();
        let mut open: std::collections::HashMap<(usize, bool), usize> =
            std::collections::HashMap::new();
        let (mut lookups, mut hits) = (0u64, 0u64);
        for &(i, j) in queries {
            if i == j {
                cache_into.push(None);
                slots.push(Slot::Pending(misses.len()));
                misses.push((i, j));
                continue;
            }
            let forward = i < j;
            let t = if forward {
                memo.tri(i, j)
            } else {
                memo.tri(j, i)
            };
            lookups += 1;
            if let Some(ans) = memo.get(t, forward) {
                hits += 1;
                slots.push(Slot::Done(ans));
            } else if let Some(&k) = open.get(&(t, forward)) {
                hits += 1;
                slots.push(Slot::Pending(k));
            } else {
                open.insert((t, forward), misses.len());
                cache_into.push(Some((t, forward)));
                slots.push(Slot::Pending(misses.len()));
                misses.push((i, j));
            }
        }
        self.lookups += lookups;
        self.hits += hits;
        let mut answers = Vec::with_capacity(misses.len());
        self.inner.le_batch(&misses, &mut answers);
        let memo = self.pairs.as_mut().expect("inserted above");
        for (k, target) in cache_into.iter().enumerate() {
            if let Some((t, forward)) = *target {
                memo.set(t, forward, answers[k]);
            }
        }
        out.reserve(queries.len());
        out.extend(slots.iter().map(|s| match *s {
            Slot::Done(ans) => ans,
            Slot::Pending(k) => answers[k],
        }));
    }

    /// Fallible twin of the scalar path: a hit answers for free, a miss
    /// forwards the fallible ask, and — crucially — a faulted miss is
    /// **never cached**, so a retry layer outside the memo re-asks and
    /// caches the real bit instead of poisoning the table.
    fn try_le(&mut self, i: usize, j: usize) -> Result<bool, QueryFault> {
        if i == j {
            return self.inner.try_le(i, j);
        }
        let n = self.inner.n();
        let memo = self.pairs.get_or_insert_with(|| PairMemo::new(n));
        let forward = i < j;
        let t = if forward {
            memo.tri(i, j)
        } else {
            memo.tri(j, i)
        };
        self.lookups += 1;
        if let Some(ans) = memo.get(t, forward) {
            self.hits += 1;
            return Ok(ans);
        }
        let ans = self.inner.try_le(i, j)?;
        self.pairs
            .as_mut()
            .expect("just inserted")
            .set(t, forward, ans);
        Ok(ans)
    }

    /// Fallible twin of the batched round: same single deduplicated inner
    /// round and identical tallies on the all-`Ok` path, but only `Ok`
    /// miss lanes are cached, and every duplicate of a faulted miss
    /// reports that lane's fault.
    fn try_le_batch(
        &mut self,
        queries: &[(usize, usize)],
        out: &mut Vec<Result<bool, QueryFault>>,
    ) {
        if queries.is_empty() {
            self.inner.try_le_batch(queries, out);
            return;
        }
        if self.pairs.is_none() {
            self.pairs = Some(PairMemo::new(self.inner.n()));
        }
        let memo = self.pairs.as_ref().expect("inserted above");
        let mut slots: Vec<Slot> = Vec::with_capacity(queries.len());
        let mut misses: Vec<(usize, usize)> = Vec::new();
        let mut cache_into: Vec<Option<(usize, bool)>> = Vec::new();
        let mut open: std::collections::HashMap<(usize, bool), usize> =
            std::collections::HashMap::new();
        let (mut lookups, mut hits) = (0u64, 0u64);
        for &(i, j) in queries {
            if i == j {
                cache_into.push(None);
                slots.push(Slot::Pending(misses.len()));
                misses.push((i, j));
                continue;
            }
            let forward = i < j;
            let t = if forward {
                memo.tri(i, j)
            } else {
                memo.tri(j, i)
            };
            lookups += 1;
            if let Some(ans) = memo.get(t, forward) {
                hits += 1;
                slots.push(Slot::Done(ans));
            } else if let Some(&k) = open.get(&(t, forward)) {
                hits += 1;
                slots.push(Slot::Pending(k));
            } else {
                open.insert((t, forward), misses.len());
                cache_into.push(Some((t, forward)));
                slots.push(Slot::Pending(misses.len()));
                misses.push((i, j));
            }
        }
        self.lookups += lookups;
        self.hits += hits;
        let mut answers: Vec<Result<bool, QueryFault>> = Vec::with_capacity(misses.len());
        self.inner.try_le_batch(&misses, &mut answers);
        let memo = self.pairs.as_mut().expect("inserted above");
        for (k, target) in cache_into.iter().enumerate() {
            if let (Some((t, forward)), Ok(ans)) = (*target, answers[k]) {
                memo.set(t, forward, ans);
            }
        }
        out.reserve(queries.len());
        out.extend(slots.iter().map(|s| match *s {
            Slot::Done(ans) => Ok(ans),
            Slot::Pending(k) => answers[k],
        }));
    }

    fn doomed(&self) -> bool {
        self.inner.doomed()
    }

    fn fallible(&self) -> bool {
        self.inner.fallible()
    }
}

impl<O: QuadrupletOracle + PersistentNoise> QuadrupletOracle for MemoOracle<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        // Release-mode guard: an index above 16 bits would shift out of
        // the packed key and silently alias two distinct queries — the
        // exact corruption this type exists to rule out. One predictable
        // branch per query, negligible next to the table probe.
        assert!(
            self.inner.n() <= 1 << 16,
            "quadruplet memoisation packs indices into 16 bits (n = {})",
            self.inner.n()
        );
        let p1 = if a <= b { (a, b) } else { (b, a) };
        let p2 = if c <= d { (c, d) } else { (d, c) };
        if p1 == p2 {
            return self.inner.le(a, b, c, d);
        }
        let key =
            ((p1.0 as u64) << 48) | ((p1.1 as u64) << 32) | ((p2.0 as u64) << 16) | p2.1 as u64;
        let memo = self.quads.get_or_insert_with(QuadMemo::new);
        self.lookups += 1;
        if let Some(ans) = memo.get(key) {
            self.hits += 1;
            return ans;
        }
        let ans = self.inner.le(a, b, c, d);
        self.quads.as_mut().expect("just inserted").insert(key, ans);
        ans
    }

    /// Quadruplet twin of the comparison-round override: see
    /// [`ComparisonOracle::le_batch`] on `MemoOracle` for the contract
    /// (one deduplicated inner round per outer round, scalar-identical
    /// answers and tallies, table inserts in miss order).
    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        if queries.is_empty() {
            self.inner.le_batch(queries, out);
            return;
        }
        assert!(
            self.inner.n() <= 1 << 16,
            "quadruplet memoisation packs indices into 16 bits (n = {})",
            self.inner.n()
        );
        let memo = self.quads.get_or_insert_with(QuadMemo::new);
        let mut slots: Vec<Slot> = Vec::with_capacity(queries.len());
        let mut misses: Vec<[usize; 4]> = Vec::new();
        let mut cache_into: Vec<Option<u64>> = Vec::new();
        let mut open: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let (mut lookups, mut hits) = (0u64, 0u64);
        for &[a, b, c, d] in queries {
            let p1 = if a <= b { (a, b) } else { (b, a) };
            let p2 = if c <= d { (c, d) } else { (d, c) };
            if p1 == p2 {
                cache_into.push(None);
                slots.push(Slot::Pending(misses.len()));
                misses.push([a, b, c, d]);
                continue;
            }
            let key =
                ((p1.0 as u64) << 48) | ((p1.1 as u64) << 32) | ((p2.0 as u64) << 16) | p2.1 as u64;
            lookups += 1;
            if let Some(ans) = memo.get(key) {
                hits += 1;
                slots.push(Slot::Done(ans));
            } else if let Some(&k) = open.get(&key) {
                hits += 1;
                slots.push(Slot::Pending(k));
            } else {
                open.insert(key, misses.len());
                cache_into.push(Some(key));
                slots.push(Slot::Pending(misses.len()));
                misses.push([a, b, c, d]);
            }
        }
        self.lookups += lookups;
        self.hits += hits;
        let mut answers = Vec::with_capacity(misses.len());
        self.inner.le_batch(&misses, &mut answers);
        let memo = self.quads.as_mut().expect("inserted above");
        for (k, target) in cache_into.iter().enumerate() {
            if let Some(key) = *target {
                memo.insert(key, answers[k]);
            }
        }
        out.reserve(queries.len());
        out.extend(slots.iter().map(|s| match *s {
            Slot::Done(ans) => ans,
            Slot::Pending(k) => answers[k],
        }));
    }

    /// See the comparison-side [`ComparisonOracle::try_le`] on
    /// `MemoOracle`: hits are free, faulted misses are never cached.
    fn try_le(&mut self, a: usize, b: usize, c: usize, d: usize) -> Result<bool, QueryFault> {
        assert!(
            self.inner.n() <= 1 << 16,
            "quadruplet memoisation packs indices into 16 bits (n = {})",
            self.inner.n()
        );
        let p1 = if a <= b { (a, b) } else { (b, a) };
        let p2 = if c <= d { (c, d) } else { (d, c) };
        if p1 == p2 {
            return self.inner.try_le(a, b, c, d);
        }
        let key =
            ((p1.0 as u64) << 48) | ((p1.1 as u64) << 32) | ((p2.0 as u64) << 16) | p2.1 as u64;
        let memo = self.quads.get_or_insert_with(QuadMemo::new);
        self.lookups += 1;
        if let Some(ans) = memo.get(key) {
            self.hits += 1;
            return Ok(ans);
        }
        let ans = self.inner.try_le(a, b, c, d)?;
        self.quads.as_mut().expect("just inserted").insert(key, ans);
        Ok(ans)
    }

    /// See the comparison-side [`ComparisonOracle::try_le_batch`] on
    /// `MemoOracle`: one deduplicated fallible inner round, only `Ok`
    /// lanes cached.
    fn try_le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<Result<bool, QueryFault>>) {
        if queries.is_empty() {
            self.inner.try_le_batch(queries, out);
            return;
        }
        assert!(
            self.inner.n() <= 1 << 16,
            "quadruplet memoisation packs indices into 16 bits (n = {})",
            self.inner.n()
        );
        let memo = self.quads.get_or_insert_with(QuadMemo::new);
        let mut slots: Vec<Slot> = Vec::with_capacity(queries.len());
        let mut misses: Vec<[usize; 4]> = Vec::new();
        let mut cache_into: Vec<Option<u64>> = Vec::new();
        let mut open: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let (mut lookups, mut hits) = (0u64, 0u64);
        for &[a, b, c, d] in queries {
            let p1 = if a <= b { (a, b) } else { (b, a) };
            let p2 = if c <= d { (c, d) } else { (d, c) };
            if p1 == p2 {
                cache_into.push(None);
                slots.push(Slot::Pending(misses.len()));
                misses.push([a, b, c, d]);
                continue;
            }
            let key =
                ((p1.0 as u64) << 48) | ((p1.1 as u64) << 32) | ((p2.0 as u64) << 16) | p2.1 as u64;
            lookups += 1;
            if let Some(ans) = memo.get(key) {
                hits += 1;
                slots.push(Slot::Done(ans));
            } else if let Some(&k) = open.get(&key) {
                hits += 1;
                slots.push(Slot::Pending(k));
            } else {
                open.insert(key, misses.len());
                cache_into.push(Some(key));
                slots.push(Slot::Pending(misses.len()));
                misses.push([a, b, c, d]);
            }
        }
        self.lookups += lookups;
        self.hits += hits;
        let mut answers: Vec<Result<bool, QueryFault>> = Vec::with_capacity(misses.len());
        self.inner.try_le_batch(&misses, &mut answers);
        let memo = self.quads.as_mut().expect("inserted above");
        for (k, target) in cache_into.iter().enumerate() {
            if let (Some(key), Ok(ans)) = (*target, answers[k]) {
                memo.insert(key, ans);
            }
        }
        out.reserve(queries.len());
        out.extend(slots.iter().map(|s| match *s {
            Slot::Done(ans) => Ok(ans),
            Slot::Pending(k) => answers[k],
        }));
    }

    fn doomed(&self) -> bool {
        self.inner.doomed()
    }

    fn fallible(&self) -> bool {
        self.inner.fallible()
    }
}

impl<O: PersistentNoise> PersistentNoise for MemoOracle<O> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::{AdversarialValueOracle, InvertAdversary};
    use crate::counting::Counting;
    use crate::probabilistic::{ProbQuadOracle, ProbValueOracle};
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
        let mut plain =
            MemoOracle::new(Counting::new(ProbValueOracle::new(values.clone(), 0.3, 9)));
        let mut expect = Vec::new();
        plain.le_batch(&batch, &mut expect);
        let mut fallible = MemoOracle::new(Counting::new(ProbValueOracle::new(values, 0.3, 9)));
        let mut got = Vec::new();
        fallible.try_le_batch(&batch, &mut got);
        let got: Vec<bool> = got.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expect);
        assert_eq!(fallible.inner().queries(), plain.inner().queries());
        assert_eq!(fallible.hits(), plain.hits());
        assert_eq!(fallible.lookups(), plain.lookups());
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
