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
//! Storage is sized to the query space. Every query maps to one table
//! *cell*, a `u64`:
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
//!
//! A batched round runs on scratch the memo keeps between rounds — the
//! started lookups, a slot list, one miss list per shape and a stamped
//! in-flight table that dedups the round's misses by cell — so a warm
//! round allocates nothing. It hashes each query once with `splitmix64`
//! to find its table slot and each miss once more to dedup it; a miss's
//! fill resumes the probe its lookup stopped, without hashing again.

use crate::persistent::PersistentNoise;
use crate::source::Query;
use crate::{Layer, Oracle, Reply};
use nco_metric::hashing::splitmix64;

/// Condensed triangular table of 2-bit cells (`known`, `answer`). The cell
/// of query `(i, j)` is `2 t + (i > j)`, where `t` is the condensed index
/// of the unordered pair, so the two directions of a pair share a nibble.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PairMemo {
    bits: Vec<u8>,
}

const KNOWN: u8 = 0b01;
const ANSWER: u8 = 0b10;

impl PairMemo {
    fn new(n: usize) -> Self {
        let pairs = n * n.saturating_sub(1) / 2;
        Self {
            bits: vec![0u8; pairs.div_ceil(2)],
        }
    }
}

/// Where a missed lookup stopped: the empty slot of an open-addressed
/// table, and the table's capacity at the time. A fill resumes its probe
/// there while the capacity is unchanged: slots are never emptied, so
/// every slot the lookup passed is still taken.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Vacancy {
    slot: usize,
    cap: usize,
}

/// One shape's answer table, looked up in two steps so a round can start
/// every lookup before it finishes any: [`MemoTable::home`] loads the
/// word a cell's probe starts at, [`MemoTable::finish`] completes the
/// probe from there.
pub(crate) trait MemoTable {
    /// The slot `cell`'s probe starts at and the word stored there.
    fn home(&self, cell: u64) -> (usize, u64);

    /// The cached answer of `cell`, whose probe read `seen` at `slot`, or
    /// the [`Vacancy`] where the probe stopped.
    fn finish(&self, cell: u64, slot: usize, seen: u64) -> Result<bool, Vacancy>;

    /// Caches `cell`'s answer after a lookup that stopped at `vacancy`.
    fn fill(&mut self, cell: u64, vacancy: Vacancy, answer: bool);
}

impl MemoTable for PairMemo {
    #[inline]
    fn home(&self, cell: u64) -> (usize, u64) {
        let slot = (cell >> 2) as usize;
        (slot, u64::from(self.bits[slot]))
    }

    #[inline]
    fn finish(&self, cell: u64, _: usize, seen: u64) -> Result<bool, Vacancy> {
        let v = (seen as u8) >> ((cell & 3) << 1);
        if v & KNOWN != 0 {
            Ok(v & ANSWER != 0)
        } else {
            Err(Vacancy::default())
        }
    }

    #[inline]
    fn fill(&mut self, cell: u64, _: Vacancy, answer: bool) {
        let v = KNOWN | if answer { ANSWER } else { 0 };
        self.bits[(cell >> 2) as usize] |= v << ((cell & 3) << 1);
    }
}

/// Open-addressed (linear probing) map from packed quadruplet keys to one
/// answer bit. Keys pack four 16-bit indices; `u64::MAX` is the empty
/// sentinel (unreachable: it would require the two canonical pairs to be
/// identical, which is short-circuited before lookup).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuadMemo {
    keys: Vec<u64>,
    answers: Vec<u64>,
    len: usize,
}

const EMPTY: u64 = u64::MAX;

impl QuadMemo {
    fn new() -> Self {
        Self {
            keys: vec![EMPTY; 64],
            answers: vec![0; 1],
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// The slot `key`'s linear probe starts at.
    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        (splitmix64(key) as usize) & self.mask()
    }

    /// Stores `key` in the first empty slot at or after `slot`.
    #[inline]
    fn place(&mut self, key: u64, mut slot: usize, answer: bool) {
        let mask = self.mask();
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
                self.place(k, self.home_slot(k), ans);
            }
        }
    }
}

impl MemoTable for QuadMemo {
    #[inline]
    fn home(&self, key: u64) -> (usize, u64) {
        let slot = self.home_slot(key);
        (slot, self.keys[slot])
    }

    #[inline]
    fn finish(&self, key: u64, mut slot: usize, mut seen: u64) -> Result<bool, Vacancy> {
        let mask = self.mask();
        loop {
            if seen == key {
                return Ok(self.answers[slot >> 6] >> (slot & 63) & 1 != 0);
            }
            if seen == EMPTY {
                return Err(Vacancy {
                    slot,
                    cap: self.keys.len(),
                });
            }
            slot = (slot + 1) & mask;
            seen = self.keys[slot];
        }
    }

    /// Grows the table first if it is three quarters full, then resumes
    /// the lookup's linear probe at its vacancy, or probes afresh from the
    /// home slot if the table grew since. Either way the key lands where
    /// an insert probing from home would put it, so the table is the one
    /// the scalar decomposition builds.
    #[inline]
    fn fill(&mut self, key: u64, vacancy: Vacancy, answer: bool) {
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let start = if vacancy.cap == self.keys.len() {
            vacancy.slot
        } else {
            self.home_slot(key)
        };
        self.place(key, start, answer);
    }
}

/// The answer tables, one per query shape, each allocated on first use.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Tables {
    pairs: Option<PairMemo>,
    quads: Option<QuadMemo>,
}

/// A query's fate within one batched round: answered from the table, or
/// waiting on lane `k` of the deduplicated miss round.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Done(bool),
    Pending(usize),
}

/// The misses of the round in flight, by cell: a reusable open-addressed
/// table (linear probing, `splitmix64`) sized to at least twice the
/// round. An entry belongs to the current round only while its stamp
/// matches, so starting a round empties the table in O(1).
#[derive(Debug, Clone, Default)]
struct InFlight {
    entries: Vec<InFlightEntry>,
    stamp: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct InFlightEntry {
    cell: u64,
    stamp: u64,
    miss: usize,
}

impl InFlight {
    /// Empties the table for a round of `len` queries, growing it only
    /// when the round is larger than every earlier one.
    fn start(&mut self, len: usize) {
        let cap = (2 * len).next_power_of_two();
        if self.entries.len() < cap {
            self.entries = vec![InFlightEntry::default(); cap];
        }
        self.stamp += 1;
    }

    /// The miss lane already asking `cell` this round, or `None` after
    /// recording `miss` as that lane.
    #[inline]
    fn claim(&mut self, cell: u64, miss: usize) -> Option<usize> {
        let mask = self.entries.len() - 1;
        let mut slot = (splitmix64(cell) as usize) & mask;
        loop {
            let e = &mut self.entries[slot];
            if e.stamp != self.stamp {
                *e = InFlightEntry {
                    cell,
                    stamp: self.stamp,
                    miss,
                };
                return None;
            }
            if e.cell == cell {
                return Some(e.miss);
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Per-round scratch, kept between rounds so a warm round allocates
/// nothing: the started lookups, the slot list, the in-flight table, the
/// miss lists and each miss's cell and vacancy.
#[derive(Debug, Clone, Default)]
struct Scratch {
    lookups: Vec<Lookup>,
    slots: Vec<Slot>,
    in_flight: InFlight,
    misses: Misses,
    vacancies: Vec<(u64, Vacancy)>,
}

/// A lookup started by the round's first pass: the query's cell
/// ([`UNCACHED`] for a degenerate query) and its home slot and word.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    cell: u64,
    slot: usize,
    seen: u64,
}

/// The cell of a degenerate query, which no table holds: a pair cell is
/// below `n²`, and a quadruplet key of all-ones would need two identical
/// canonical pairs.
const UNCACHED: u64 = u64::MAX;

/// One miss list per query shape.
#[derive(Debug, Clone, Default)]
pub(crate) struct Misses {
    pairs: Vec<(usize, usize)>,
    quads: Vec<[usize; 4]>,
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
    tables: Tables,
    scratch: Scratch,
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
            tables: Tables::default(),
            scratch: Scratch::default(),
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

/// The table cell [`MemoOracle`] keeps quadruplet query `q` over `n`
/// records in, or `None` for a degenerate query (two identical canonical
/// pairs), which it forwards uncached. Two queries share a cell exactly
/// when a memo answers both from one entry, so a cache sharded by this
/// cell keeps each entry in one shard.
///
/// # Panics
///
/// If `n` exceeds `1 << 16`, like the memo itself.
pub fn quad_cell(q: [usize; 4], n: usize) -> Option<u64> {
    q.key(n)
}

/// The shape-specific half of [`MemoOracle`]: the cell of a query, the
/// table it lives in and its miss list in a round.
pub(crate) trait MemoShape: Query {
    /// This shape's answer table.
    type Table: MemoTable;

    /// The table cell of this query over `n` records, or `None` for a
    /// degenerate query (identical operands), which is forwarded uncached.
    fn key(self, n: usize) -> Option<u64>;

    /// This shape's table, allocated on first use.
    fn table(tables: &mut Tables, n: usize) -> &mut Self::Table;

    /// This shape's miss list.
    fn misses(misses: &mut Misses) -> &mut Vec<Self>;
}

/// Comparison queries: the 2-bit-cell triangle.
impl MemoShape for (usize, usize) {
    type Table = PairMemo;

    #[inline]
    fn key(self, n: usize) -> Option<u64> {
        let (i, j) = self.split()?;
        let forward = i < j;
        let (lo, hi) = if forward { (i, j) } else { (j, i) };
        // Release-mode guard: an index at or past `n` lands on another
        // pair's cell and would answer a query nobody asked.
        assert!(
            hi < n,
            "comparison memoisation needs indices below n (query ({i}, {j}), n = {n})"
        );
        let t = lo * n - lo * (lo + 1) / 2 + (hi - lo - 1);
        Some(((t as u64) << 1) | u64::from(!forward))
    }

    #[inline]
    fn table(tables: &mut Tables, n: usize) -> &mut PairMemo {
        tables.pairs.get_or_insert_with(|| PairMemo::new(n))
    }

    #[inline]
    fn misses(misses: &mut Misses) -> &mut Vec<Self> {
        &mut misses.pairs
    }
}

/// Quadruplet queries: the open-addressed table, keyed by the two
/// within-pair-canonical record pairs packed 16 bits per index.
impl MemoShape for [usize; 4] {
    type Table = QuadMemo;

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
        let ((a, b), (c, d)) = self.split()?;
        Some(((a as u64) << 48) | ((b as u64) << 32) | ((c as u64) << 16) | d as u64)
    }

    #[inline]
    fn table(tables: &mut Tables, _: usize) -> &mut QuadMemo {
        tables.quads.get_or_insert_with(QuadMemo::new)
    }

    #[inline]
    fn misses(misses: &mut Misses) -> &mut Vec<Self> {
        &mut misses.quads
    }
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
        let Some(cell) = q.key(n) else {
            return R::one(&mut self.inner, q);
        };
        self.lookups += 1;
        let table = Q::table(&mut self.tables, n);
        let (slot, seen) = table.home(cell);
        let vacancy = match table.finish(cell, slot, seen) {
            Ok(ans) => {
                self.hits += 1;
                return R::bit(ans);
            }
            Err(vacancy) => vacancy,
        };
        let ans = R::one(&mut self.inner, q);
        if let Some(bit) = ans.answered() {
            table.fill(cell, vacancy, bit);
        }
        ans
    }

    /// One memoised round: cached queries answer from the table, the
    /// remaining **first occurrences** (plus uncached degenerates) forward
    /// as a single deduplicated inner round, in query order. Exactly one
    /// inner round per outer call — even when every query hits or the
    /// round is empty — so a round-billing layer *inside* the memo (the
    /// facade's `Budgeted`) counts the same rounds it would without
    /// memoisation. Answers, hit and lookup tallies, and the cached table
    /// state are bit-identical to the scalar decomposition: a duplicate
    /// later in the batch counts as the hit it would have been against
    /// the freshly cached first answer. On the fallible path only `Ok`
    /// miss lanes are cached, and every duplicate of a faulted miss
    /// reports that lane's fault.
    ///
    /// Mechanism, allocation-free once the scratch is warm. A first pass
    /// computes every query's cell and loads its home slot; the loads do
    /// not depend on each other, so the round's table misses overlap
    /// instead of waiting one after another. A second pass finishes each
    /// lookup and gives the query a slot — a table bit, or the miss lane
    /// it waits on. A miss probes the stamped in-flight table by cell, so
    /// a duplicate shares its first occurrence's lane, and a first
    /// occurrence keeps the vacancy where its lookup stopped. The inner
    /// round appends the miss answers straight onto `out`, each `Ok` one
    /// is cached, its probe resumed at its vacancy, and the slots then
    /// expand in place, back to front: slot `i` reads a table bit or lane
    /// `k <= i`, which the expansion has not yet overwritten.
    fn round<R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>) {
        let n = self.inner.records();
        let Scratch {
            lookups: started,
            slots,
            in_flight,
            misses,
            vacancies,
        } = &mut self.scratch;
        let misses = Q::misses(misses);
        started.clear();
        slots.clear();
        misses.clear();
        vacancies.clear();
        in_flight.start(queries.len());
        started.extend(queries.iter().map(|&q| match q.key(n) {
            Some(cell) => {
                let (slot, seen) = Q::table(&mut self.tables, n).home(cell);
                Lookup { cell, slot, seen }
            }
            None => Lookup {
                cell: UNCACHED,
                slot: 0,
                seen: 0,
            },
        }));
        let (mut lookups, mut hits) = (0u64, 0u64);
        for (&q, &Lookup { cell, slot, seen }) in queries.iter().zip(started.iter()) {
            if cell == UNCACHED {
                slots.push(Slot::Pending(misses.len()));
                misses.push(q);
                vacancies.push((UNCACHED, Vacancy::default()));
                continue;
            }
            lookups += 1;
            match Q::table(&mut self.tables, n).finish(cell, slot, seen) {
                Ok(ans) => {
                    hits += 1;
                    slots.push(Slot::Done(ans));
                }
                Err(vacancy) => {
                    if let Some(k) = in_flight.claim(cell, misses.len()) {
                        hits += 1;
                        slots.push(Slot::Pending(k));
                    } else {
                        slots.push(Slot::Pending(misses.len()));
                        misses.push(q);
                        vacancies.push((cell, vacancy));
                    }
                }
            }
        }
        self.lookups += lookups;
        self.hits += hits;
        let base = out.len();
        R::round(&mut self.inner, misses, out);
        debug_assert_eq!(out.len(), base + misses.len());
        for (k, &(cell, vacancy)) in vacancies.iter().enumerate() {
            match out[base + k].answered() {
                Some(bit) if cell != UNCACHED => {
                    Q::table(&mut self.tables, n).fill(cell, vacancy, bit);
                }
                _ => {}
            }
        }
        out.resize(base + queries.len(), R::bit(false));
        for (i, &slot) in slots.iter().enumerate().rev() {
            out[base + i] = match slot {
                Slot::Done(ans) => R::bit(ans),
                Slot::Pending(k) => out[base + k],
            };
        }
    }
}

shape_traits!(impl[O: PersistentNoise] MemoOracle<O>);

impl<O: PersistentNoise> PersistentNoise for MemoOracle<O> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::{AdversarialValueOracle, InvertAdversary};
    use crate::counting::Counting;
    use crate::fault::{FaultPlan, FaultyOracle, QueryFault};
    use crate::probabilistic::{ProbQuadOracle, ProbValueOracle};
    use crate::{ComparisonOracle, QuadrupletOracle};
    use nco_metric::EuclideanMetric;
    use std::collections::HashMap;

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

    #[test]
    #[should_panic(expected = "comparison memoisation needs indices below n")]
    fn comparison_memo_rejects_an_index_past_n() {
        // Without the guard, (0, 16) lands on the cell of (1, 2) and
        // answers with its cached bit.
        let values: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut memo = MemoOracle::new(ProbValueOracle::new(values, 0.2, 4));
        memo.le(1, 2);
        memo.le(0, 16);
    }

    /// Asks `batch` twice as fallible rounds through a memo over a
    /// transient-fault plan. In the first round every in-batch duplicate
    /// (same table cell) reports its first occurrence's lane, `Ok` or
    /// `Err`; the replay hits exactly the cells that came back `Ok` and
    /// re-asks each faulted cell once.
    fn assert_faulted_duplicates_share_their_lane<Q, O>(raw: O, batch: &[Q])
    where
        Q: MemoShape + std::fmt::Debug,
        O: Oracle<Q> + PersistentNoise,
        MemoOracle<FaultyOracle<O>>: Oracle<Q>,
    {
        let n = raw.records();
        let mut memo = MemoOracle::new(FaultyOracle::new(raw, FaultPlan::new(5).transient(0.4)));
        let mut first = Vec::new();
        memo.try_ask_round(batch, &mut first);
        let mut lanes: HashMap<u64, Result<bool, QueryFault>> = HashMap::new();
        let mut faulted_duplicates = 0;
        for (&q, &lane) in batch.iter().zip(&first) {
            let cell = q.key(n).expect("no degenerate queries");
            let head = *lanes.entry(cell).or_insert(lane);
            assert_eq!(lane, head, "{q:?}");
            faulted_duplicates += usize::from(lane.is_err());
        }
        let faulted = lanes.values().filter(|lane| lane.is_err()).count();
        faulted_duplicates -= faulted;
        assert!(faulted > 0 && faulted < lanes.len() && faulted_duplicates > 0);

        let (hits, lookups) = (memo.hits(), memo.lookups());
        let attempts = memo.inner().stats().attempts;
        let mut replay = Vec::new();
        memo.try_ask_round(batch, &mut replay);
        let len = batch.len() as u64;
        assert_eq!(memo.lookups(), lookups + len);
        assert_eq!(memo.hits(), hits + len - faulted as u64);
        assert_eq!(memo.inner().stats().attempts, attempts + faulted as u64);
        for (&q, (&a, &b)) in batch.iter().zip(first.iter().zip(&replay)) {
            if a.is_ok() {
                assert_eq!(b, a, "{q:?}");
            }
        }
    }

    #[test]
    fn faulted_duplicates_share_their_lane_and_only_ok_cells_are_cached() {
        let values: Vec<f64> = (0..24).map(|i| ((i * 7) % 25) as f64).collect();
        let base: Vec<(usize, usize)> = (0..24).map(|i| (i, (i + 5) % 24)).collect();
        let mut pairs = base.clone();
        pairs.extend(base.iter().map(|&(i, j)| (j, i))); // mirrored direction
        pairs.extend(base.iter().rev()); // duplicates
        pairs.extend(base.iter().map(|&(i, j)| (j, i)).rev());
        assert_faulted_duplicates_share_their_lane(ProbValueOracle::new(values, 0.3, 2), &pairs);

        let m = EuclideanMetric::from_points(
            &(0..16)
                .map(|i| vec![(i * 5 % 17) as f64, i as f64])
                .collect::<Vec<_>>(),
        );
        let base: Vec<[usize; 4]> = (0..16)
            .map(|a| [a, (a + 3) % 16, (a + 1) % 16, (a + 9) % 16])
            .collect();
        let mut quads = base.clone();
        quads.extend(base.iter().map(|&[a, b, c, d]| [c, d, a, b])); // another cell
        quads.extend(base.iter().map(|&[a, b, c, d]| [b, a, c, d])); // within-pair mirrors
        quads.extend(base.iter().rev().map(|&[a, b, c, d]| [a, b, d, c]));
        quads.extend(base.iter().map(|&[a, b, c, d]| [b, a, d, c]));
        quads.extend(base.iter().map(|&[a, b, c, d]| [d, c, a, b]));
        assert_faulted_duplicates_share_their_lane(ProbQuadOracle::new(m, 0.25, 2), &quads);
    }

    fn draw(state: &mut u64) -> usize {
        *state += 1;
        splitmix64(*state) as usize
    }

    /// A round of `len` queries: fresh ones from `fresh`, a quarter
    /// in-batch duplicates, an eighth `mirror`ed earlier queries and an
    /// eighth `degenerate`s.
    fn mixed_round<Q: Copy>(
        len: usize,
        state: &mut u64,
        fresh: impl Fn(&mut u64) -> Q,
        mirror: impl Fn(Q) -> Q,
        degenerate: impl Fn(Q) -> Q,
    ) -> Vec<Q> {
        let mut round: Vec<Q> = Vec::with_capacity(len);
        for _ in 0..len {
            let r = draw(state);
            let earlier = (!round.is_empty()).then(|| round[(r >> 3) % round.len()]);
            let q = match (r % 8, earlier) {
                (0 | 1, Some(q)) => q,
                (2, Some(q)) => mirror(q),
                (3, _) => degenerate(fresh(state)),
                _ => fresh(state),
            };
            round.push(q);
        }
        round
    }

    /// Sends `rounds` back to back through one memo, alternating
    /// `le_batch` and `try_le_batch` into one growing `out`, and checks
    /// each against the scalar decomposition on a twin memo: answers,
    /// inner queries, `hits` and `lookups`, and at the end the tables.
    fn assert_rounds_match_scalar_twin<Q, O>(mk: impl Fn() -> O, rounds: &[Vec<Q>])
    where
        Q: MemoShape,
        O: PersistentNoise,
        MemoOracle<Counting<O>>: Oracle<Q>,
    {
        let mut batched = MemoOracle::new(Counting::new(mk()));
        let mut scalar = MemoOracle::new(Counting::new(mk()));
        let (mut out, mut try_out) = (Vec::new(), Vec::new());
        for (r, batch) in rounds.iter().enumerate() {
            let fallible = r % 2 == 1;
            let expect: Vec<bool> = if fallible {
                batch.iter().map(|&q| scalar.try_ask(q).unwrap()).collect()
            } else {
                batch.iter().map(|&q| scalar.ask(q)).collect()
            };
            let got: Vec<bool> = if fallible {
                let base = try_out.len();
                batched.try_ask_round(batch, &mut try_out);
                try_out[base..].iter().map(|a| a.unwrap()).collect()
            } else {
                let base = out.len();
                batched.ask_round(batch, &mut out);
                out[base..].to_vec()
            };
            assert_eq!(got, expect, "round {r}");
            assert_eq!(
                batched.inner().queries(),
                scalar.inner().queries(),
                "round {r}"
            );
            assert_eq!(batched.hits(), scalar.hits(), "round {r}");
            assert_eq!(batched.lookups(), scalar.lookups(), "round {r}");
        }
        assert!(batched.hits() > 0);
        assert!(batched.tables == scalar.tables);
    }

    #[test]
    fn back_to_back_rounds_reuse_scratch_and_match_scalar_decomposition() {
        const LENS: [usize; 5] = [0, 1, 4096, 3, 4096];
        let n = 40;
        let values: Vec<f64> = (0..n).map(|i| ((i * 17) % 41) as f64).collect();
        let mut state = 11;
        let pairs: Vec<Vec<(usize, usize)>> = LENS
            .iter()
            .map(|&len| {
                mixed_round(
                    len,
                    &mut state,
                    |s| (draw(s) % n, draw(s) % n),
                    |(i, j)| (j, i),
                    |(i, _)| (i, i),
                )
            })
            .collect();
        assert_rounds_match_scalar_twin(|| ProbValueOracle::new(values.clone(), 0.3, 6), &pairs);

        let n = 24;
        let m = EuclideanMetric::from_points(
            &(0..n)
                .map(|i| vec![(i * 7 % 29) as f64, i as f64])
                .collect::<Vec<_>>(),
        );
        let quads: Vec<Vec<[usize; 4]>> = LENS
            .iter()
            .map(|&len| {
                mixed_round(
                    len,
                    &mut state,
                    |s| [draw(s) % n, draw(s) % n, draw(s) % n, draw(s) % n],
                    |[a, b, c, d]| [b, a, d, c],
                    |[a, b, _, _]| [a, b, b, a],
                )
            })
            .collect();
        assert_rounds_match_scalar_twin(|| ProbQuadOracle::new(m.clone(), 0.25, 6), &quads);
    }

    /// Three distinct record pairs' quadruplets `[x, a, b]` over `n`
    /// records whose cells share one home slot in the initial 64-slot
    /// table.
    fn colliding_quads(n: usize) -> [[usize; 4]; 3] {
        let table = QuadMemo::new();
        let mut by_home: HashMap<usize, Vec<[usize; 4]>> = HashMap::new();
        for a in 0..n {
            for c in 0..n {
                let q = [a, (a + 1) % n, c, (c + 2) % n];
                if let Some(cell) = q.key(n) {
                    let group = by_home.entry(table.home_slot(cell)).or_default();
                    group.push(q);
                    if let [x, a, b] = group[..] {
                        return [x, a, b];
                    }
                }
            }
        }
        panic!("no three colliding quadruplets over {n} records");
    }

    /// Where `q`'s lookup in `memo`'s quadruplet table stops.
    fn vacancy_of<O>(memo: &mut MemoOracle<O>, q: [usize; 4], n: usize) -> Vacancy {
        let cell = q.key(n).expect("not degenerate");
        let table = <[usize; 4]>::table(&mut memo.tables, n);
        let (slot, seen) = table.home(cell);
        table.finish(cell, slot, seen).expect_err("a miss")
    }

    /// Sends `rounds` through a memo over `mk()`, each as one round on the
    /// fallible or the infallible path, and the same queries as scalar
    /// asks through a twin memo; after every round checks lanes, `hits`,
    /// `lookups` and the tables. Returns the batched memo.
    fn assert_quad_rounds_match_scalar<O>(
        mk: impl Fn() -> O,
        rounds: &[&[[usize; 4]]],
        fallible: bool,
    ) -> MemoOracle<O>
    where
        O: Oracle<[usize; 4]> + PersistentNoise,
    {
        let mut batched = MemoOracle::new(mk());
        let mut scalar = MemoOracle::new(mk());
        for (r, &round) in rounds.iter().enumerate() {
            let mut got: Vec<Result<bool, QueryFault>> = Vec::new();
            let expect: Vec<Result<bool, QueryFault>> = if fallible {
                batched.try_ask_round(round, &mut got);
                round.iter().map(|&q| scalar.try_ask(q)).collect()
            } else {
                let mut bits = Vec::new();
                batched.ask_round(round, &mut bits);
                got.extend(bits.into_iter().map(Ok));
                round.iter().map(|&q| Ok(scalar.ask(q))).collect()
            };
            assert_eq!(got, expect, "round {r}");
            assert_eq!(batched.hits(), scalar.hits(), "round {r}");
            assert_eq!(batched.lookups(), scalar.lookups(), "round {r}");
            assert!(batched.tables == scalar.tables, "round {r}: tables differ");
        }
        batched
    }

    fn small_metric(n: usize) -> EuclideanMetric {
        EuclideanMetric::from_points(
            &(0..n)
                .map(|i| vec![(i * 7 % 19) as f64, i as f64 * 0.5])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn two_misses_stopping_at_one_vacancy_fill_like_the_scalar_inserts() {
        let n = 24;
        let m = small_metric(n);
        let [x, a, b] = colliding_quads(n);
        // After the first round `x` sits in the shared home slot, so the
        // lookups of `a` and `b` both stop at the slot after it; the fill
        // of `b` resumes there and steps past `a`.
        let mut probe = MemoOracle::new(ProbQuadOracle::new(m.clone(), 0.25, 8));
        probe.le_batch(&[x], &mut Vec::new());
        let (va, vb) = (vacancy_of(&mut probe, a, n), vacancy_of(&mut probe, b, n));
        assert_eq!((va.slot, va.cap), (vb.slot, vb.cap));
        let round = [a, [4, 5, 6, 7], b, a, [5, 4, 7, 6]];
        assert_quad_rounds_match_scalar(
            || ProbQuadOracle::new(m.clone(), 0.25, 8),
            &[&[x], &round],
            false,
        );
    }

    #[test]
    fn a_round_whose_fills_cross_the_growth_threshold_matches_the_scalar_inserts() {
        let n = 24;
        let m = small_metric(n);
        let fresh = |range: std::ops::Range<usize>| -> Vec<[usize; 4]> {
            // The first pair alone tells the cells apart: index `i % n`
            // and its neighbour `1 + i / n` places on.
            range
                .map(|i| {
                    [
                        i % n,
                        (i + 1 + i / n) % n,
                        (5 * i + 3) % n,
                        (5 * i + 11) % n,
                    ]
                })
                .collect()
        };
        // 40 cells fill the 64-slot table to just under its 48-entry
        // threshold; the second round's 20 fresh misses cross it on the
        // ninth fill, so the later fills probe the grown table afresh.
        let warm = fresh(0..40);
        let mut round = fresh(40..60);
        round.extend(fresh(0..6)); // hits
        round.extend(fresh(50..53)); // in-round duplicates
        let memo = assert_quad_rounds_match_scalar(
            || ProbQuadOracle::new(m.clone(), 0.25, 9),
            &[&warm, &[], &round],
            false,
        );
        assert_eq!(memo.tables.quads.as_ref().unwrap().keys.len(), 128);
    }

    #[test]
    fn a_faulted_miss_between_two_misses_sharing_a_vacancy_is_left_uncached() {
        let n = 24;
        let m = small_metric(n);
        let [x, a, b] = colliding_quads(n);
        let f = [2, 9, 3, 11];
        let mk = |seed| {
            FaultyOracle::new(
                ProbQuadOracle::new(m.clone(), 0.25, 10),
                FaultPlan::new(seed).transient(0.5),
            )
        };
        // A plan whose fallible asks go Ok (x), then Ok, Err, Ok (a, f, b).
        let seed = (0..200u64)
            .find(|&seed| {
                let mut memo = MemoOracle::new(mk(seed));
                let (mut warm, mut lanes) = (Vec::new(), Vec::new());
                memo.try_le_batch(&[x], &mut warm);
                memo.try_le_batch(&[a, f, b], &mut lanes);
                warm[0].is_ok() && lanes[0].is_ok() && lanes[1].is_err() && lanes[2].is_ok()
            })
            .expect("a plan with the wanted fates");
        let memo = assert_quad_rounds_match_scalar(|| mk(seed), &[&[x], &[a, f, b]], true);
        let uncached = [a, f, b].map(|q| {
            let cell = q.key(n).unwrap();
            let table = memo.tables.quads.as_ref().unwrap();
            let (slot, seen) = table.home(cell);
            table.finish(cell, slot, seen).is_err()
        });
        assert_eq!(uncached, [false, true, false]);
    }
}
