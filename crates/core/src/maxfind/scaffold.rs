//! The shared-scaffold search plane: one Max-Adv scaffold amortised
//! across **many related minimum searches** (PR 10).
//!
//! The hierarchy engine runs `n` initial nearest-neighbour searches, one
//! per row, and then thousands of pointer-repair searches as merges
//! invalidate pointers. [`max_adv`](super::max_adv) pays its full
//! sampling/partition scaffolding per search; [`MinContest`](super::MinContest)
//! showed (PR 5) that the scaffolding can persist *across* sweeps of one
//! evolving search. [`RowScaffold`] generalises that to a whole family of
//! row-anchored searches: **one** set of random bucket deals and **one**
//! persistent topped-up sample are shared by every row, while tournament
//! winners and duel outcomes are cached per row — so a repaired row
//! re-contests only against the buckets that changed since its last
//! sweep, and a freshly merged row inherits every cached outcome whose
//! canonical query is provably unchanged.
//!
//! ## Why scaffold reuse is decision-identical
//!
//! Every shipped noise model is *persistent* (Section 2.2 of the paper):
//! an answer is a pure function of the canonical query, so re-asking
//! returns the same bit. A cached duel outcome for candidates `(u, v)` of
//! row `c` stands for the oracle bit `le(rep(c, u), rep(c, v))`, and the
//! representative pair `rep(c, x)` never changes while both clusters
//! live — merges only rewrite reps that involve the merged clusters. A
//! sweep that answers some duels from the cache therefore tallies exactly
//! the bits a full re-ask would, and picks the identical winner with the
//! identical tie-break. The from-scratch reference (`use_cache = false`)
//! replays every bucket and re-asks every duel over the *same* scaffold,
//! which is how `tests/hier_scaffold_equivalence.rs` pins the contract.

use super::adversarial::AdvParams;
use crate::comparator::Comparator;
use rand::seq::SliceRandom;
use rand::Rng;

/// Dead/absent marker in dense `u32` tables.
const ABSENT: u32 = u32::MAX;
/// Bracket-bye marker: the slot holds no live contestant.
const BYE: u32 = u32::MAX;
/// Bracket placeholder for a duel whose answer is still in flight.
const PENDING: u32 = u32::MAX - 1;

/// Cumulative cost counters of a [`RowScaffold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScaffoldStats {
    /// Row sweeps served by the plane (initial rows, union rows, repairs).
    pub row_sweeps: u64,
    /// Duels answered from a row's outcome cache instead of the oracle.
    pub scaffold_hits: u64,
    /// Repair sweeps (a previously synced row re-swept) that re-contested
    /// only the dirty buckets against the cached winner structure.
    pub repair_contests: u64,
    /// Repair sweeps that fell back to a full row sweep because a
    /// majority of buckets had changed since the row's last sync.
    pub repair_fallbacks: u64,
    /// Bracket duels asked through the oracle.
    pub bracket_duels: u64,
    /// Pool (Count-Min) duels asked through the oracle.
    pub pool_duels: u64,
}

/// The shared, read-only-during-a-sweep part of the scaffold: the random
/// bucket deals (one per Tournament-Partition round), the persistent
/// sample, the liveness table and the change epochs.
///
/// Bucket member lists are **append-only**: dead candidates stay in place
/// as tombstones (skipped as byes when a bracket replays), so survivor
/// pairings — and therefore cached duels — stay stable across membership
/// churn instead of shifting one slot left after every death.
#[derive(Debug)]
struct ScaffoldDeal {
    rounds: usize,
    buckets_per_round: usize,
    sample_target: usize,
    id_bound: usize,
    /// Monotone structure-change clock; bumped once per merge.
    epoch: u64,
    /// Liveness by candidate id.
    alive: Vec<bool>,
    /// `bucket_of[r * id_bound + id]` = flat bucket index, or [`ABSENT`].
    bucket_of: Vec<u32>,
    /// `buckets[r * l + b]` = append-only member list (tombstoned).
    buckets: Vec<Vec<u32>>,
    /// Epoch of the last membership change per flat bucket index.
    bucket_epoch: Vec<u64>,
    /// Persistent sample: a multiset of live ids, topped back up after
    /// removals (insertion order, order-preserving removals).
    sample: Vec<u32>,
}

impl ScaffoldDeal {
    fn total_buckets(&self) -> usize {
        self.rounds * self.buckets_per_round
    }
}

/// Per-row cached state: the row's bucket-tournament winners and its duel
/// outcome cache, both valid for as long as the contestants live.
#[derive(Debug)]
struct RowState {
    /// Epoch at the row's last completed sweep (0 = never swept).
    synced_epoch: u64,
    /// Cached tournament winner per flat bucket index, or [`ABSENT`].
    winners: Vec<u32>,
    /// `(lo << 32 | hi)` (candidate ids, `lo < hi`) → cached oracle bit
    /// `le(rep(row, lo), rep(row, hi))` (`true` = `lo` at least as close).
    outcomes: std::collections::HashMap<u64, bool, nco_metric::hashing::MixBuildHasher>,
}

impl RowState {
    fn new(total_buckets: usize) -> Self {
        Self {
            synced_epoch: 0,
            winners: vec![ABSENT; total_buckets],
            outcomes: std::collections::HashMap::with_hasher(Default::default()),
        }
    }
}

fn pack(lo: u32, hi: u32) -> u64 {
    debug_assert!(lo < hi);
    (u64::from(lo) << 32) | u64::from(hi)
}

/// Reusable working memory for a [`RowScaffold`]'s sweeps — callers own
/// it so repeated sweeps allocate nothing.
#[derive(Debug)]
pub struct SweepBuffers {
    /// Flat arena of bracket level lists ([`BYE`]/[`PENDING`] sentinels).
    levels: Vec<u32>,
    /// `(flat bucket index, arena start, current length)` per replay.
    ranges: Vec<(u32, u32, u32)>,
    /// Canonically oriented duels awaiting the oracle.
    pairs: Vec<(usize, usize)>,
    /// Arena positions to fill with the answered duels' winners.
    holes: Vec<u32>,
    answers: Vec<bool>,
    /// Final Count-Min contestants (bucket winners ∪ sample, deduped).
    pool: Vec<u32>,
    score: Vec<u32>,
    /// `slot_of[id]` = pool slot during a sweep, [`ABSENT`] otherwise.
    slot_of: Vec<u32>,
}

impl SweepBuffers {
    /// Buffers for sweeps over candidate ids below `id_bound` (the bound
    /// the owning [`RowScaffold`] was built with).
    pub fn new(id_bound: usize) -> Self {
        Self {
            levels: Vec::new(),
            ranges: Vec::new(),
            pairs: Vec::new(),
            holes: Vec::new(),
            answers: Vec::new(),
            pool: Vec::new(),
            score: Vec::new(),
            slot_of: vec![ABSENT; id_bound],
        }
    }
}

/// One row sweep over the shared scaffold: replay the row's dirty bucket
/// tournaments (all of them when dirty buckets are the majority or when
/// `use_cache` is off), then run the final Count-Min over the pooled
/// bucket winners and shared sample. Returns `(winner, fell_back)`.
///
/// With `use_cache = false` every duel is asked through `cmp` even when a
/// cached outcome exists (the cache is still *written*, with the
/// identical bits a persistent oracle must return) — the from-scratch
/// reference behaviour.
fn sweep_row<C: Comparator<usize>>(
    deal: &ScaffoldDeal,
    row: usize,
    state: &mut RowState,
    cmp: &mut C,
    use_cache: bool,
    buf: &mut SweepBuffers,
    counters: &mut ScaffoldStats,
) -> (usize, bool) {
    counters.row_sweeps += 1;
    let total = deal.total_buckets();
    let SweepBuffers {
        levels,
        ranges,
        pairs,
        holes,
        answers,
        pool,
        score,
        slot_of,
    } = buf;

    // A bucket is dirty for this row iff its membership changed after the
    // row's last sync. Majority-dirty (and the reference mode) replays
    // everything — same queries either way, because a clean bucket's
    // bracket re-plays entirely from the cache.
    let mut dirty = 0usize;
    for rb in 0..total {
        if deal.bucket_epoch[rb] > state.synced_epoch {
            dirty += 1;
        }
    }
    let fell_back = state.synced_epoch > 0 && 2 * dirty > total;
    let replay_all = !use_cache || 2 * dirty > total;

    // Stage 1 + 2: bracket replays, level-batched across buckets. This is
    // the tombstone-stable sibling of the level-batched brackets in
    // `MinContest::run` and `super::tournament` — dead members advance
    // their opponents as byes instead of compacting the pairing.
    ranges.clear();
    levels.clear();
    for rb in 0..total {
        if !replay_all && deal.bucket_epoch[rb] <= state.synced_epoch {
            continue;
        }
        let start = levels.len();
        for &id in &deal.buckets[rb] {
            let live = deal.alive[id as usize] && id as usize != row;
            levels.push(if live { id } else { BYE });
        }
        ranges.push((rb as u32, start as u32, (levels.len() - start) as u32));
    }
    loop {
        pairs.clear();
        holes.clear();
        let mut progressed = false;
        for range in ranges.iter_mut() {
            let (start, len) = (range.1 as usize, range.2 as usize);
            if len <= 1 {
                continue;
            }
            progressed = true;
            let mut write = start;
            let mut read = start;
            let end = start + len;
            while read < end {
                levels[write] = if read + 1 < end {
                    let (x, y) = (levels[read], levels[read + 1]);
                    if x == BYE {
                        y
                    } else if y == BYE {
                        x
                    } else {
                        let (lo, hi) = if x < y { (x, y) } else { (y, x) };
                        let cached = if use_cache {
                            state.outcomes.get(&pack(lo, hi)).copied()
                        } else {
                            None
                        };
                        match cached {
                            Some(le) => {
                                counters.scaffold_hits += 1;
                                if le {
                                    lo
                                } else {
                                    hi
                                }
                            }
                            None => {
                                pairs.push((lo as usize, hi as usize));
                                holes.push(write as u32);
                                PENDING
                            }
                        }
                    }
                } else {
                    levels[read]
                };
                write += 1;
                read += 2;
            }
            range.2 = (write - start) as u32;
        }
        if !progressed {
            break;
        }
        if !pairs.is_empty() {
            counters.bracket_duels += pairs.len() as u64;
            answers.clear();
            cmp.le_round(pairs, answers);
            for ((&(lo, hi), &le), &hole) in pairs.iter().zip(answers.iter()).zip(holes.iter()) {
                state.outcomes.insert(pack(lo as u32, hi as u32), le);
                levels[hole as usize] = if le { lo as u32 } else { hi as u32 };
            }
        }
    }
    for &(rb, start, len) in ranges.iter() {
        let winner = if len == 1 {
            levels[start as usize]
        } else {
            BYE
        };
        state.winners[rb as usize] = if winner == BYE { ABSENT } else { winner };
    }

    // Stage 3: the final Count-Min over bucket winners ∪ shared sample
    // (first-entry dedup, the row itself excluded). Pool order — winners
    // in flat-bucket order, then sample in insertion order — is a pure
    // function of the scaffold, so the tie-break (earliest pool slot on
    // equal scores) cannot depend on what was cached.
    pool.clear();
    for rb in 0..total {
        let w = state.winners[rb];
        if w != ABSENT && slot_of[w as usize] == ABSENT {
            slot_of[w as usize] = pool.len() as u32;
            pool.push(w);
        }
    }
    for &s in &deal.sample {
        if s as usize != row && slot_of[s as usize] == ABSENT {
            slot_of[s as usize] = pool.len() as u32;
            pool.push(s);
        }
    }
    debug_assert!(!pool.is_empty(), "sweep of the only live candidate");
    score.clear();
    score.resize(pool.len(), 0);
    if pool.len() > 1 {
        pairs.clear();
        for i in 0..pool.len() {
            for j in i + 1..pool.len() {
                let (a, b) = (pool[i], pool[j]);
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                if use_cache {
                    if let Some(&le) = state.outcomes.get(&pack(lo, hi)) {
                        counters.scaffold_hits += 1;
                        let winner = if le { lo } else { hi };
                        score[slot_of[winner as usize] as usize] += 1;
                        continue;
                    }
                }
                pairs.push((lo as usize, hi as usize));
            }
        }
        counters.pool_duels += pairs.len() as u64;
        for chunk in pairs.chunks(4096) {
            answers.clear();
            cmp.le_round(chunk, answers);
            for (&(lo, hi), &le) in chunk.iter().zip(answers.iter()) {
                state.outcomes.insert(pack(lo as u32, hi as u32), le);
                let winner = if le { lo } else { hi };
                score[slot_of[winner] as usize] += 1;
            }
        }
    }

    let mut best = 0usize;
    for slot in 1..pool.len() {
        if score[slot] > score[best] {
            best = slot;
        }
    }
    let winner = pool[best] as usize;
    for &id in pool.iter() {
        slot_of[id as usize] = ABSENT;
    }
    state.synced_epoch = deal.epoch;
    (winner, fell_back)
}

/// The shared-scaffold search plane (see the module docs): Max-Adv's
/// random bucket deals, tournament winners and top-up sample shared
/// across **every** row-anchored minimum search of an agglomeration,
/// with per-row caches that make repeat sweeps mostly cache hits.
///
/// Per row the plane keeps a `RowState`: the row's cached bucket
/// winners (valid until the bucket's membership changes — tracked by a
/// per-bucket epoch) and a duel outcome cache keyed by candidate-id
/// pairs (valid as long as both candidates live, because representative
/// pairs between live clusters never change). When clusters `a` and `b`
/// merge, [`note_merge`](Self::note_merge) additionally **inherits**
/// cached outcomes into the union's fresh row: for survivors `x, y`
/// whose representatives against the union were both kept from the same
/// parent, the parent's cached bit answers the *identical* canonical
/// query `le(rep(new, x), rep(new, y))` — persistent noise makes the
/// reuse exact, not approximate.
#[derive(Debug)]
pub struct RowScaffold {
    deal: ScaffoldDeal,
    /// Per-row cached state, indexed by candidate id (lazily created).
    rows: Vec<Option<RowState>>,
    stats: ScaffoldStats,
    /// Reusable per-merge provenance table (`0` unknown, `1` from the
    /// first parent, `2` from the second).
    from: Vec<u8>,
}

impl RowScaffold {
    /// Builds the shared scaffold over the initial `items`, resolving
    /// `(t, l, s)` from `params` exactly like `max_adv` would for
    /// `items.len()` candidates, and drawing the `t` bucket deals plus
    /// the initial sample from `rng`. Issues no queries — sweeps do.
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
        assert!(!items.is_empty(), "scaffold needs at least one candidate");
        assert!(
            id_bound < PENDING as usize,
            "id_bound must fit the u32 tables"
        );
        assert!(items.iter().all(|&it| it < id_bound), "item out of bounds");
        let (t, l, s) = params.resolve(items.len());
        let mut deal = ScaffoldDeal {
            rounds: t,
            buckets_per_round: l,
            sample_target: s,
            id_bound,
            epoch: 1,
            alive: vec![false; id_bound],
            bucket_of: vec![ABSENT; t * id_bound],
            buckets: vec![Vec::new(); t * l],
            bucket_epoch: vec![1; t * l],
            sample: Vec::with_capacity(s),
        };
        for &it in items {
            deal.alive[it] = true;
        }
        // One random deal per round: shuffle, then chunk into l near-equal
        // parts — the same partition shape as `tournament_partition` and
        // `MinContest::new`.
        let mut shuffled: Vec<usize> = items.to_vec();
        for r in 0..t {
            shuffled.copy_from_slice(items);
            shuffled.shuffle(rng);
            let base = shuffled.len() / l;
            let extra = shuffled.len() % l;
            let mut start = 0;
            for b in 0..l {
                let size = base + usize::from(b < extra);
                let rb = r * l + b;
                for &it in &shuffled[start..start + size] {
                    deal.bucket_of[r * id_bound + it] = rb as u32;
                    deal.buckets[rb].push(it as u32);
                }
                start += size;
            }
        }
        for _ in 0..s {
            let pick = items[rng.random_range(0..items.len())];
            deal.sample.push(pick as u32);
        }
        Self {
            deal,
            rows: (0..id_bound).map(|_| None).collect(),
            stats: ScaffoldStats::default(),
            from: vec![0; id_bound],
        }
    }

    /// Cumulative cost counters.
    pub fn stats(&self) -> ScaffoldStats {
        self.stats
    }

    /// One row sweep (see `sweep_row`); lazily creates the row's state,
    /// classifies repair sweeps into contests vs fallbacks, and returns
    /// the row's approximate-nearest candidate id.
    pub fn sweep<C: Comparator<usize>>(
        &mut self,
        row: usize,
        cmp: &mut C,
        use_cache: bool,
        buf: &mut SweepBuffers,
    ) -> usize {
        let total = self.deal.total_buckets();
        let mut state = self.rows[row]
            .take()
            .unwrap_or_else(|| RowState::new(total));
        let repair = state.synced_epoch > 0;
        let (winner, fell_back) = sweep_row(
            &self.deal,
            row,
            &mut state,
            cmp,
            use_cache,
            buf,
            &mut self.stats,
        );
        if repair {
            if fell_back {
                self.stats.repair_fallbacks += 1;
            } else {
                self.stats.repair_contests += 1;
            }
        }
        self.rows[row] = Some(state);
        winner
    }

    /// Structure maintenance after clusters `a` and `b` merged into
    /// `new`: the parents die (tombstoned in their buckets, removed from
    /// the sample), the union is dealt into one uniformly random bucket
    /// per round, the sample is topped back up from `live`, and the
    /// union's fresh row cache **inherits** every parent outcome whose
    /// canonical query is unchanged — pairs `(x, y)` with both
    /// representatives kept from that same parent, as recorded in
    /// `kept_from_a` (`(survivor id, rep kept from a)` per survivor).
    ///
    /// # Panics
    /// Panics if `new` is out of bounds or already live.
    pub fn note_merge<R: Rng + ?Sized>(
        &mut self,
        a: usize,
        b: usize,
        new: usize,
        kept_from_a: &[(usize, bool)],
        live: &[usize],
        rng: &mut R,
    ) {
        let deal = &mut self.deal;
        assert!(new < deal.id_bound, "cluster id out of bounds");
        assert!(!deal.alive[new], "cluster already live");
        deal.epoch += 1;
        let id_bound = deal.id_bound;
        for parent in [a, b] {
            deal.alive[parent] = false;
            for r in 0..deal.rounds {
                let rb = deal.bucket_of[r * id_bound + parent];
                if rb != ABSENT {
                    deal.bucket_epoch[rb as usize] = deal.epoch;
                }
            }
        }
        deal.alive[new] = true;
        for r in 0..deal.rounds {
            let b = rng.random_range(0..deal.buckets_per_round);
            let rb = r * deal.buckets_per_round + b;
            deal.bucket_of[r * id_bound + new] = rb as u32;
            deal.buckets[rb].push(new as u32);
            deal.bucket_epoch[rb] = deal.epoch;
        }
        let alive = &deal.alive;
        deal.sample.retain(|&s| alive[s as usize]);
        if !live.is_empty() {
            while deal.sample.len() < deal.sample_target {
                let pick = live[rng.random_range(0..live.len())];
                deal.sample.push(pick as u32);
            }
        }

        // Union cache inheritance. The merge's rep-refresh round already
        // decided, per survivor, which parent's representative the union
        // keeps; a parent's cached bit for (x, y) answers the union's
        // query exactly when both x's and y's reps came from that parent.
        let parent_a = self.rows[a].take();
        let parent_b = self.rows[b].take();
        for &(survivor, from_a) in kept_from_a {
            self.from[survivor] = if from_a { 1 } else { 2 };
        }
        let mut state = RowState::new(deal.rounds * deal.buckets_per_round);
        for (parent, tag) in [(&parent_a, 1u8), (&parent_b, 2u8)] {
            let Some(parent) = parent else { continue };
            for (&key, &le) in &parent.outcomes {
                let (lo, hi) = ((key >> 32) as usize, (key & 0xFFFF_FFFF) as usize);
                if deal.alive[lo] && deal.alive[hi] && self.from[lo] == tag && self.from[hi] == tag
                {
                    state.outcomes.insert(key, le);
                }
            }
        }
        for &(survivor, _) in kept_from_a {
            self.from[survivor] = 0;
        }
        self.rows[new] = Some(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::ExactKeyCmp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Under an exact comparator every row's sweep must return that row's
    /// true nearest candidate (the scaffold pool always contains the
    /// global winner's bucket champion).
    #[test]
    fn exact_sweeps_return_true_minima() {
        // Keys are per-row distances: key[x] for row r is |x - r| scaled.
        let n = 40usize;
        let items: Vec<usize> = (0..n).collect();
        let mut r = rng(9);
        let mut plane = RowScaffold::new(&items, n, &AdvParams::experimental(), &mut r);
        let mut buf = SweepBuffers::new(n);
        for row in 0..n {
            let keys: Vec<f64> = (0..n).map(|x| (x as f64 - row as f64).abs()).collect();
            let mut cmp = ExactKeyCmp::new(&keys);
            // Min orientation: `ExactKeyCmp::le` is `key[a] <= key[b]`,
            // exactly the "first item at least as close" contract.
            let w = plane.sweep(row, &mut cmp, true, &mut buf);
            let expect = if row == 0 { 1 } else { row - 1 };
            let got = keys[w];
            assert_eq!(got, keys[expect], "row {row} got {w}");
        }
        assert_eq!(plane.stats().row_sweeps, n as u64);
    }

    /// Cached sweeps and reference (ask-everything) sweeps over
    /// identically evolved scaffolds pick identical winners, while the
    /// cached plane answers a growing share of duels for free.
    #[test]
    fn cached_and_reference_sweeps_agree() {
        let n = 32usize;
        let items: Vec<usize> = (0..n).collect();
        let keys: Vec<f64> = (0..n).map(|i| ((i * 37 + 5) % 97) as f64).collect();
        let mut plane_a = RowScaffold::new(&items, n, &AdvParams::experimental(), &mut rng(4));
        let mut plane_b = RowScaffold::new(&items, n, &AdvParams::experimental(), &mut rng(4));
        let mut buf = SweepBuffers::new(n);
        for row in 0..n {
            let mut cmp = ExactKeyCmp::new(&keys);
            let wa = plane_a.sweep(row, &mut cmp, true, &mut buf);
            let wb = plane_b.sweep(row, &mut cmp, false, &mut buf);
            assert_eq!(wa, wb, "row {row}");
            // Re-sweep the same row: with nothing changed, the cached
            // plane must replay nothing and ask nothing new.
            let hits_before = plane_a.stats().scaffold_hits;
            let asked_before = plane_a.stats().bracket_duels + plane_a.stats().pool_duels;
            let again = plane_a.sweep(row, &mut cmp, true, &mut buf);
            assert_eq!(again, wa);
            assert_eq!(
                plane_a.stats().bracket_duels + plane_a.stats().pool_duels,
                asked_before,
                "clean re-sweep must be free"
            );
            assert!(plane_a.stats().scaffold_hits > hits_before);
        }
        assert!(plane_a.stats().repair_contests > 0);
        assert_eq!(plane_a.stats().repair_fallbacks, 0);
    }
}
