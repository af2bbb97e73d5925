//! Distance-level caching — the exact memoisation layer *below* the noise.
//!
//! PR 2's `MemoOracle` caches whole query answers; that is the right layer
//! when each query is a real crowd worker, but for simulated oracles the
//! expensive part of a quadruplet query is the two distance evaluations,
//! and one cached distance `d(i, j)` serves **every** quadruplet that
//! touches the pair `(i, j)` — across query directions, across searches,
//! and across algorithms sharing the metric. [`DistCache`] memoises at
//! that level: a condensed triangular table with one slot per unordered
//! pair, filled lazily with the wrapped metric's own `dist` output.
//!
//! Exactness is structural, not statistical: the cached value is the very
//! `f64` the lazy metric produces (distances are pure functions of the
//! pair), so persistent-noise oracles built over a [`CachedMetric`] answer
//! bit-identically to the same oracles over the raw metric — the property
//! `tests/perf_equivalence.rs` pins end to end.
//!
//! Slots are `AtomicU64` distance bit patterns (sentinel [`u64::MAX`], a
//! NaN no validated metric can produce), so a cache shared through `&self`
//! across threads (sessions and serving workers over one engine) needs no
//! locks: racing writers compute identical bits, a compare-exchange lets
//! exactly one of them claim the slot, and relaxed ordering suffices
//! because the value is determined by the key alone. The claiming writer also bumps an exact
//! fill counter, so [`DistCache::filled`] is one load, cheap enough to
//! read on every request.

use crate::Metric;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Bit pattern marking a not-yet-computed slot. A real distance is finite
/// and non-negative (every metric in this crate validates that), so its
/// bits can never collide with this all-ones NaN.
const UNSET: u64 = u64::MAX;

/// A lock-free condensed-triangle memo table for pairwise distances.
pub struct DistCache {
    n: usize,
    slots: Vec<AtomicU64>,
    /// `row_off[i] + j` = condensed index of pair `i < j`; one load
    /// replaces the two multiplies of the closed-form triangular index on
    /// the per-query hot path.
    row_off: Vec<usize>,
    /// Slots filled so far, bumped only by the writer whose
    /// compare-exchange claimed the slot. A statistic: it publishes no
    /// other data, so relaxed ordering suffices.
    filled: AtomicUsize,
}

impl DistCache {
    /// An empty cache for `n` points (`n (n - 1) / 2` slots, 8 bytes each
    /// — the same footprint as a fully materialised condensed matrix, paid
    /// up front; what stays lazy is the *evaluation*).
    pub fn new(n: usize) -> Self {
        let pairs = n * n.saturating_sub(1) / 2;
        let mut slots = Vec::with_capacity(pairs);
        slots.resize_with(pairs, || AtomicU64::new(UNSET));
        let row_off = (0..n)
            .map(|i| (i * n - i * (i + 1) / 2).wrapping_sub(i + 1))
            .collect();
        Self {
            n,
            slots,
            row_off,
            filled: AtomicUsize::new(0),
        }
    }

    /// Number of points the cache covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Condensed index of the unordered pair `i < j`.
    #[inline]
    fn tri(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        self.row_off[i].wrapping_add(j)
    }

    /// The cached distance for `(i, j)`, computing and storing it via
    /// `compute` on first touch. `i != j` required (callers short-circuit
    /// the diagonal to `0.0`).
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of bounds.
    #[inline]
    pub fn get_or_compute(&self, i: usize, j: usize, compute: impl FnOnce() -> f64) -> f64 {
        assert!(i != j, "diagonal distances are identically zero");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let slot = &self.slots[self.tri(a, b)];
        let bits = slot.load(Ordering::Relaxed);
        if bits != UNSET {
            return f64::from_bits(bits);
        }
        let d = compute();
        debug_assert!(
            d.is_finite() && d >= 0.0,
            "metric produced an uncacheable distance {d}"
        );
        if slot
            .compare_exchange(UNSET, d.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.filled.fetch_add(1, Ordering::Relaxed);
        }
        d
    }

    /// How many distinct pairs have been evaluated so far. Exact (racing
    /// writers of one slot count once) and O(1).
    pub fn filled(&self) -> usize {
        self.filled.load(Ordering::Relaxed)
    }

    /// Reference count for [`DistCache::filled`]: a scan of every slot.
    #[cfg(test)]
    fn scan_filled(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != UNSET)
            .count()
    }
}

impl Clone for DistCache {
    fn clone(&self) -> Self {
        let slots = self
            .slots
            .iter()
            .map(|s| AtomicU64::new(s.load(Ordering::Relaxed)))
            .collect();
        Self {
            n: self.n,
            slots,
            row_off: self.row_off.clone(),
            filled: AtomicUsize::new(self.filled()),
        }
    }
}

impl std::fmt::Debug for DistCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistCache")
            .field("n", &self.n)
            .field("slots", &self.slots.len())
            .field("filled", &self.filled())
            .finish()
    }
}

/// A metric decorated with a [`DistCache`]: every distinct pair is
/// evaluated by the wrapped metric exactly once, then answered from the
/// table — bit-identical by construction.
#[derive(Debug, Clone)]
pub struct CachedMetric<M> {
    inner: M,
    cache: DistCache,
}

impl<M: Metric> CachedMetric<M> {
    /// Wraps `metric` with an empty distance cache.
    pub fn new(metric: M) -> Self {
        let cache = DistCache::new(metric.len());
        Self {
            inner: metric,
            cache,
        }
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The cache itself (for fill statistics).
    pub fn cache(&self) -> &DistCache {
        &self.cache
    }

    /// Unwraps the metric, dropping the cache.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Metric> Metric for CachedMetric<M> {
    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.cache.get_or_compute(i, j, || self.inner.dist(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EuclideanMetric;

    fn metric() -> EuclideanMetric {
        EuclideanMetric::from_points(
            &(0..20)
                .map(|i| vec![(i * 13 % 17) as f64 * 0.7, i as f64 * 1.3])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn cached_distances_are_bit_identical_and_fill_once() {
        let raw = metric();
        let cached = CachedMetric::new(raw.clone());
        assert_eq!(cached.len(), raw.len());
        for round in 0..2 {
            for i in 0..raw.len() {
                for j in 0..raw.len() {
                    assert_eq!(
                        cached.dist(i, j).to_bits(),
                        raw.dist(i, j).to_bits(),
                        "round {round} ({i},{j})"
                    );
                }
            }
        }
        assert_eq!(cached.cache().filled(), 20 * 19 / 2);
    }

    #[test]
    fn fill_tracks_touched_pairs_only() {
        let cached = CachedMetric::new(metric());
        assert_eq!(cached.cache().filled(), 0);
        let _ = cached.dist(3, 7);
        let _ = cached.dist(7, 3); // same unordered pair: no new slot
        let _ = cached.dist(0, 0); // diagonal: no slot at all
        assert_eq!(cached.cache().filled(), 1);
    }

    #[test]
    fn concurrent_fill_is_consistent() {
        let raw = metric();
        let cached = CachedMetric::new(raw.clone());
        // Overlapping windows of one pair sequence: most slots are raced
        // for by all four threads, and the touched set is a strict subset.
        let pair = |k: usize| ((k * 3) % 20, (k * 7 + 1) % 19);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let cached = &cached;
                let raw = &raw;
                scope.spawn(move || {
                    for k in t * 10..t * 10 + 100 {
                        let (i, j) = pair(k);
                        if i != j {
                            assert_eq!(cached.dist(i, j).to_bits(), raw.dist(i, j).to_bits());
                        }
                    }
                });
            }
        });
        let touched: std::collections::HashSet<(usize, usize)> = (0..130)
            .map(pair)
            .filter(|&(i, j)| i != j)
            .map(|(i, j)| (i.min(j), i.max(j)))
            .collect();
        assert!(touched.len() < 20 * 19 / 2);
        assert_eq!(cached.cache().filled(), touched.len());
        assert_eq!(cached.cache().filled(), cached.cache().scan_filled());
    }

    #[test]
    fn clone_carries_the_filled_slots() {
        let cached = CachedMetric::new(metric());
        let _ = cached.dist(1, 2);
        let copy = cached.clone();
        assert_eq!(copy.cache().filled(), 1);
        assert_eq!(copy.dist(1, 2).to_bits(), cached.dist(1, 2).to_bits());
        // From here on the two counts move independently.
        let _ = copy.dist(3, 4);
        let _ = copy.dist(4, 5);
        let _ = cached.dist(6, 7);
        assert_eq!(copy.cache().filled(), 3);
        assert_eq!(copy.cache().filled(), copy.cache().scan_filled());
        assert_eq!(cached.cache().filled(), 2);
        assert_eq!(cached.cache().filled(), cached.cache().scan_filled());
    }

    #[test]
    fn a_lost_fill_race_is_not_counted() {
        // The nested lookup plays a racing writer that claims the slot
        // while the outer one is still computing: the outer store loses
        // the compare-exchange and must not count the slot again.
        let cache = DistCache::new(4);
        let d = cache.get_or_compute(0, 1, || cache.get_or_compute(1, 0, || 2.5));
        assert_eq!(d, 2.5);
        assert_eq!(cache.filled(), 1);
        assert_eq!(cache.filled(), cache.scan_filled());
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn cache_rejects_diagonal_lookups() {
        let cache = DistCache::new(4);
        let _ = cache.get_or_compute(2, 2, || 0.0);
    }
}
