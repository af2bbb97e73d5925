//! The noisy comparison abstraction every engine in this crate runs on.
//!
//! The paper's Section 3 machinery (Count-Max, tournaments, Max-Adv,
//! Count-Max-Prob) is written for "a set of values with a comparison
//! oracle", then reused verbatim for farthest/nearest neighbour (values =
//! distances from a query, Section 3.3), k-center's Approx-Farthest (values
//! = point-to-assigned-center distances, Section 4) and hierarchical
//! clustering's closest-pair search (values = inter-cluster rep-pair
//! distances, Section 5). [`Comparator`] captures that reuse: a noisy
//! `le(a, b)` over opaque items. [`ValueCmp`] maps it onto a comparison
//! oracle, and [`PairDistCmp`] maps all three metric settings onto a
//! quadruplet oracle through one item-to-record-pair key.

use nco_oracle::{ComparisonOracle, QuadrupletOracle};

/// A noisy "is `key(a) <= key(b)`?" predicate over items of type `I`.
///
/// `true` encodes the paper's `Yes`. Implementations may be arbitrarily
/// noisy; the algorithms consuming this trait are the ones responsible for
/// robustness.
pub trait Comparator<I: Copy> {
    /// Noisily decides whether item `a`'s hidden key is `<=` item `b`'s.
    fn le(&mut self, a: I, b: I) -> bool;

    /// Answers one **round** of comparisons, appending one answer per pair
    /// to `out` in round order.
    ///
    /// Engines that already issue their queries in rounds (the Count-Max
    /// scoring triangle, committee votes, candidate scans) call this so
    /// oracle-backed comparators can hand the whole round to
    /// `le_batch` on the oracle, which amortises distance evaluation
    /// across the round. Contract: answers must be bit-identical to
    /// calling [`Comparator::le`] once per pair in order — the default
    /// does exactly that.
    fn le_round(&mut self, round: &[(I, I)], out: &mut Vec<bool>) {
        out.reserve(round.len());
        for &(a, b) in round {
            let ans = self.le(a, b);
            out.push(ans);
        }
    }

    /// [`Comparator::le_round`] with every pair swapped: one answer per
    /// `(a, b)` equal to `le(b, a)`, in round order. [`Rev`] calls it so
    /// the reversal reaches the comparator that builds the queries; the
    /// default copies the round swapped and hands it to `le_round`.
    fn le_round_rev(&mut self, round: &[(I, I)], out: &mut Vec<bool>) {
        let swapped: Vec<(I, I)> = round.iter().map(|&(a, b)| (b, a)).collect();
        self.le_round(&swapped, out);
    }

    /// `true` once the backing oracle stack can no longer return real
    /// answers (see [`ComparisonOracle::doomed`]); engines use it to stop
    /// advancing clean-progress watermarks. Purely observational; the
    /// default is never doomed.
    fn doomed(&self) -> bool {
        false
    }
}

/// Upper bound on one [`Comparator::le_round`] an engine builds from a
/// long query list (a scoring triangle, a probe wave, a Count-Min pool):
/// the list is cut into rounds of at most this many pairs, so the round
/// buffers stay a few cache-resident KiB however large the list is.
pub(crate) const ROUND_CAP: usize = 4096;

/// Reusable buffers for a wave of independent committees: each item of
/// the wave (a point's center scan, a pair's vote, a candidate's probe
/// scores) asks its own list of queries, and no item's queries depend on
/// another item's answers. [`Committees::ask`] packs whole committees, in
/// item order, into oracle rounds of at most [`ROUND_CAP`] queries, so the
/// wave asks exactly the queries of one round per item, in the same
/// order, in far fewer rounds.
#[derive(Debug)]
pub(crate) struct Committees<T, Q> {
    queries: Vec<Q>,
    answers: Vec<bool>,
    /// Each queued item and the end of its committee in `queries`.
    ends: Vec<(T, usize)>,
}

impl<T, Q> Default for Committees<T, Q> {
    fn default() -> Self {
        Self {
            queries: Vec::new(),
            answers: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T: Copy, Q: Copy> Committees<T, Q> {
    /// Appends each item's committee to the round with `build`, asks the
    /// rounds with `ask` (one oracle round per call, never an empty one)
    /// and hands each item its answers, in query order, with `take`, in
    /// item order. A committee larger than [`ROUND_CAP`] is asked alone.
    pub(crate) fn ask(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut build: impl FnMut(T, &mut Vec<Q>),
        mut ask: impl FnMut(&[Q], &mut Vec<bool>),
        mut take: impl FnMut(T, &[bool]),
    ) {
        self.queries.clear();
        self.ends.clear();
        for item in items {
            let start = self.queries.len();
            build(item, &mut self.queries);
            if self.queries.len() > ROUND_CAP && start > 0 {
                self.flush(start, &mut ask, &mut take);
            }
            self.ends.push((item, self.queries.len()));
        }
        self.flush(self.queries.len(), &mut ask, &mut take);
    }

    /// Asks the queued committees, which fill `queries[..len]`, hands out
    /// their answers and keeps the queries past `len` for the next round.
    fn flush(
        &mut self,
        len: usize,
        ask: &mut impl FnMut(&[Q], &mut Vec<bool>),
        take: &mut impl FnMut(T, &[bool]),
    ) {
        self.answers.clear();
        if len > 0 {
            ask(&self.queries[..len], &mut self.answers);
        }
        debug_assert_eq!(self.answers.len(), len);
        let mut from = 0;
        for &(item, end) in &self.ends {
            take(item, &self.answers[from..end]);
            from = end;
        }
        self.ends.clear();
        self.queries.drain(..len);
    }
}

impl<I: Copy, C: Comparator<I> + ?Sized> Comparator<I> for &mut C {
    fn le(&mut self, a: I, b: I) -> bool {
        (**self).le(a, b)
    }
    fn le_round(&mut self, round: &[(I, I)], out: &mut Vec<bool>) {
        (**self).le_round(round, out);
    }
    fn le_round_rev(&mut self, round: &[(I, I)], out: &mut Vec<bool>) {
        (**self).le_round_rev(round, out);
    }
    fn doomed(&self) -> bool {
        (**self).doomed()
    }
}

/// Items are record indices, keys are their hidden values.
#[derive(Debug)]
pub struct ValueCmp<'a, O> {
    oracle: &'a mut O,
}

impl<'a, O: ComparisonOracle> ValueCmp<'a, O> {
    /// Wraps a comparison oracle.
    pub fn new(oracle: &'a mut O) -> Self {
        Self { oracle }
    }
}

impl<O: ComparisonOracle> Comparator<usize> for ValueCmp<'_, O> {
    fn le(&mut self, a: usize, b: usize) -> bool {
        self.oracle.le(a, b)
    }

    fn le_round(&mut self, round: &[(usize, usize)], out: &mut Vec<bool>) {
        // Item pairs are already oracle queries; hand the round over as-is.
        self.oracle.le_batch(round, out);
    }

    fn doomed(&self) -> bool {
        self.oracle.doomed()
    }
}

/// Items map to record pairs, keys are those pairs' distances — the one
/// reduction behind every metric engine: `key(a)` names the record pair
/// whose distance is item `a`'s hidden key, and `le(a, b)` asks the
/// quadruplet query `key(a) <= key(b)`.
///
/// Keys of the crate's engines:
/// - farthest/nearest from a query `q` (Section 3.3): `|v| (q, v)`;
/// - Approx-Farthest (Section 4): `|v| (v, centers[assignment[v]])`;
/// - record pairs themselves: `|p| p`;
/// - hierarchy closest pairs (Section 5): `|c| graph.rep(c, nn[c])`.
///
/// Every round becomes one `le_batch`, translated into a query buffer the
/// comparator owns and reuses across rounds; under [`Rev`] the swapped
/// queries are built directly, with no copied round.
pub struct PairDistCmp<'a, O, K> {
    oracle: &'a mut O,
    key: K,
    queries: Vec<[usize; 4]>,
}

impl<'a, O: QuadrupletOracle, K> PairDistCmp<'a, O, K> {
    /// Wraps a quadruplet oracle with the item-to-record-pair `key`.
    pub fn new<I>(oracle: &'a mut O, key: K) -> Self
    where
        K: Fn(I) -> (usize, usize),
    {
        Self {
            oracle,
            key,
            queries: Vec::new(),
        }
    }

    fn ask_round<I: Copy, const REV: bool>(&mut self, round: &[(I, I)], out: &mut Vec<bool>)
    where
        K: Fn(I) -> (usize, usize),
    {
        let Self {
            oracle,
            key,
            queries,
        } = self;
        queries.clear();
        queries.extend(round.iter().map(|&(a, b)| {
            let ((a0, a1), (b0, b1)) = if REV {
                (key(b), key(a))
            } else {
                (key(a), key(b))
            };
            [a0, a1, b0, b1]
        }));
        oracle.le_batch(queries, out);
    }
}

impl<I: Copy, O: QuadrupletOracle, K: Fn(I) -> (usize, usize)> Comparator<I>
    for PairDistCmp<'_, O, K>
{
    fn le(&mut self, a: I, b: I) -> bool {
        let ((a0, a1), (b0, b1)) = ((self.key)(a), (self.key)(b));
        self.oracle.le(a0, a1, b0, b1)
    }

    fn le_round(&mut self, round: &[(I, I)], out: &mut Vec<bool>) {
        self.ask_round::<I, false>(round, out);
    }

    fn le_round_rev(&mut self, round: &[(I, I)], out: &mut Vec<bool>) {
        self.ask_round::<I, true>(round, out);
    }

    fn doomed(&self) -> bool {
        self.oracle.doomed()
    }
}

/// Order-reversing adapter: turns any max-finding engine into a min-finding
/// one (the paper's "minimum is maximum with Yes-counts" remark, §3.2).
#[derive(Debug)]
pub struct Rev<C>(pub C);

impl<I: Copy, C: Comparator<I>> Comparator<I> for Rev<C> {
    fn le(&mut self, a: I, b: I) -> bool {
        self.0.le(b, a)
    }

    fn le_round(&mut self, round: &[(I, I)], out: &mut Vec<bool>) {
        // Delegate so the inner comparator's batching (and therefore the
        // oracle's) still kicks in; reversing twice is the identity.
        self.0.le_round_rev(round, out);
    }

    fn le_round_rev(&mut self, round: &[(I, I)], out: &mut Vec<bool>) {
        self.0.le_round(round, out);
    }

    fn doomed(&self) -> bool {
        self.0.doomed()
    }
}

/// A comparator over true `f64` keys — exact, oracle-free. Used by tests
/// and by `TDist` baselines that have ground-truth access.
#[derive(Debug)]
pub struct ExactKeyCmp<'a> {
    keys: &'a [f64],
}

impl<'a> ExactKeyCmp<'a> {
    /// Compares items by the given true keys.
    pub fn new(keys: &'a [f64]) -> Self {
        Self { keys }
    }
}

impl Comparator<usize> for ExactKeyCmp<'_> {
    fn le(&mut self, a: usize, b: usize) -> bool {
        self.keys[a] <= self.keys[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::EuclideanMetric;
    use nco_oracle::{TrueQuadOracle, TrueValueOracle};

    #[test]
    fn value_cmp_forwards_to_oracle() {
        let mut o = TrueValueOracle::new(vec![5.0, 2.0]);
        let mut c = ValueCmp::new(&mut o);
        assert!(!c.le(0, 1));
        assert!(c.le(1, 0));
    }

    #[test]
    fn dist_to_query_cmp_compares_distances_from_q() {
        let m = EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![5.0]]);
        let mut o = TrueQuadOracle::new(m);
        let mut c = PairDistCmp::new(&mut o, |v| (0, v));
        assert!(c.le(1, 2)); // d(0,1)=1 <= d(0,2)=5
        assert!(!c.le(2, 1));
    }

    #[test]
    fn pair_dist_cmp_compares_pairs() {
        let m = EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![5.0]]);
        let mut o = TrueQuadOracle::new(m);
        let mut c = PairDistCmp::new(&mut o, |p| p);
        assert!(c.le((0, 1), (1, 2)));
        assert!(!c.le((0, 2), (0, 1)));
    }

    #[test]
    fn rev_flips_the_order() {
        let keys = [1.0, 2.0];
        let mut c = Rev(ExactKeyCmp::new(&keys));
        assert!(!c.le(0, 1)); // reversed: asks le(1, 0) = 2 <= 1 = false
        assert!(c.le(1, 0));
    }

    #[test]
    fn mutable_reference_blanket_impl() {
        let keys = [1.0, 2.0];
        let mut c = ExactKeyCmp::new(&keys);
        fn generic<C: Comparator<usize>>(c: &mut C) -> bool {
            c.le(0, 1)
        }
        assert!(generic(&mut &mut c));
    }

    #[test]
    fn committees_pack_whole_committees_into_capped_rounds() {
        // Committee sizes: item `i` asks `sizes[i]` queries `(i, j)`.
        let sizes = [3000, 1000, 96, 1, 0, 5000, 2, 4096, 0];
        let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut got: Vec<(usize, Vec<bool>)> = Vec::new();
        Committees::default().ask(
            0..sizes.len(),
            |i, queries| queries.extend((0..sizes[i]).map(|j| (i, j))),
            |round, answers| {
                rounds.push(round.to_vec());
                answers.extend(round.iter().map(|&(i, j)| (i + j) % 3 == 0));
            },
            |i, answers| got.push((i, answers.to_vec())),
        );
        // Every item gets its own answers, in item order.
        assert_eq!(got.len(), sizes.len());
        for (k, (i, answers)) in got.iter().enumerate() {
            assert_eq!(*i, k);
            let expect: Vec<bool> = (0..sizes[k]).map(|j| (k + j) % 3 == 0).collect();
            assert_eq!(*answers, expect, "item {k}");
        }
        // The rounds hold the queries in item order, split only between
        // committees, at most ROUND_CAP each unless one committee is
        // larger, and none is empty.
        let flat: Vec<(usize, usize)> = rounds.iter().flatten().copied().collect();
        let expect: Vec<(usize, usize)> = sizes
            .iter()
            .enumerate()
            .flat_map(|(i, &len)| (0..len).map(move |j| (i, j)))
            .collect();
        assert_eq!(flat, expect);
        let lens: Vec<usize> = rounds.iter().map(Vec::len).collect();
        assert_eq!(lens, [4096, 1, 5000, 2, 4096]);
    }
}
