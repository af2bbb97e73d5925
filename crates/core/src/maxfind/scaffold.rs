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
use super::bracket::{play, Deal, Min, Referee, Round, ABSENT};
use crate::comparator::{Comparator, ROUND_CAP};
use rand::Rng;

/// Bracket-bye marker: the arena slot holds no live contestant.
const BYE: usize = usize::MAX;

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

type Outcomes = std::collections::HashMap<u64, bool, nco_metric::hashing::MixBuildHasher>;

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
    outcomes: Outcomes,
}

impl RowState {
    fn new(total_buckets: usize) -> Self {
        Self {
            synced_epoch: 0,
            winners: vec![ABSENT; total_buckets],
            outcomes: Outcomes::default(),
        }
    }
}

fn pack((lo, hi): (usize, usize)) -> u64 {
    debug_assert!(lo < hi);
    ((lo as u64) << 32) | hi as u64
}

/// A row's referee: byes advance their opponent, every duel is asked as
/// the id-ordered query `(lo, hi)` (min orientation), and with
/// `use_cache` a cached outcome settles it without the oracle. Asked
/// outcomes are always written to the cache.
struct RowReferee<'a> {
    outcomes: &'a mut Outcomes,
    use_cache: bool,
    hits: u64,
}

impl Referee<usize> for RowReferee<'_> {
    fn settle(&mut self, a: usize, b: usize) -> Result<usize, (usize, usize)> {
        if a == BYE || b == BYE {
            return Ok(a.min(b)); // the live side, if any (`BYE` is the max)
        }
        let query = (a.min(b), a.max(b));
        if self.use_cache {
            if let Some(&le) = self.outcomes.get(&pack(query)) {
                self.hits += 1;
                return Ok(Min.winner(query, le));
            }
        }
        Err(query)
    }

    fn winner(&mut self, query: (usize, usize), le: bool) -> usize {
        self.outcomes.insert(pack(query), le);
        Min.winner(query, le)
    }
}

/// Reusable working memory for a [`RowScaffold`]'s sweeps — callers own
/// it so repeated sweeps allocate nothing.
#[derive(Debug)]
pub struct SweepBuffers {
    /// Replayed brackets ([`BYE`] for tombstones and the row itself).
    arena: Vec<usize>,
    ranges: Vec<(usize, usize)>,
    round: Round<usize>,
    /// Final Count-Min contestants (bucket winners ∪ sample, deduped).
    pool: Vec<usize>,
    score: Vec<u32>,
    /// `slot_of[id]` = pool slot during a sweep, [`ABSENT`] otherwise.
    slot_of: Vec<u32>,
}

impl SweepBuffers {
    /// Buffers for sweeps over candidate ids below `id_bound` (the bound
    /// the owning [`RowScaffold`] was built with).
    pub fn new(id_bound: usize) -> Self {
        Self {
            arena: Vec::new(),
            ranges: Vec::new(),
            round: Round::default(),
            pool: Vec::new(),
            score: Vec::new(),
            slot_of: vec![ABSENT; id_bound],
        }
    }
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
    /// The shared bucket deals and sample (the `bracket` module's deal).
    /// Member lists are **append-only**: dead candidates stay in place as
    /// tombstones (byes when a bracket replays), so survivor pairings —
    /// and therefore cached duels — stay stable across membership churn
    /// instead of shifting one slot left after every death.
    deal: Deal,
    /// Monotone structure-change clock; bumped once per merge.
    epoch: u64,
    /// Epoch of the last membership change per flat bucket index.
    bucket_epoch: Vec<u64>,
    /// Liveness by candidate id.
    alive: Vec<bool>,
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
        let mut deal = Deal::new(items, id_bound, params, rng);
        deal.top_up(items, rng);
        let mut alive = vec![false; id_bound];
        for &it in items {
            alive[it] = true;
        }
        Self {
            bucket_epoch: vec![1; deal.buckets.len()],
            deal,
            epoch: 1,
            alive,
            rows: (0..id_bound).map(|_| None).collect(),
            stats: ScaffoldStats::default(),
            from: vec![0; id_bound],
        }
    }

    /// Cumulative cost counters.
    pub fn stats(&self) -> ScaffoldStats {
        self.stats
    }

    /// One row sweep over the shared scaffold: replay the row's dirty
    /// bucket tournaments (all of them when dirty buckets are the
    /// majority or when `use_cache` is off), then run the final Count-Min
    /// over the pooled bucket winners and shared sample; returns the
    /// row's approximate-nearest candidate id. Repair sweeps (of a row
    /// swept before) count as contests or, when replaying everything,
    /// fallbacks.
    ///
    /// With `use_cache = false` every duel is asked through `cmp` even
    /// when a cached outcome exists (the cache is still *written*, with
    /// the identical bits a persistent oracle must return) — the
    /// from-scratch reference behaviour.
    pub fn sweep<C: Comparator<usize>>(
        &mut self,
        row: usize,
        cmp: &mut C,
        use_cache: bool,
        buf: &mut SweepBuffers,
    ) -> usize {
        let total = self.deal.buckets.len();
        let mut state = self.rows[row]
            .take()
            .unwrap_or_else(|| RowState::new(total));
        let SweepBuffers {
            arena,
            ranges,
            round,
            pool,
            score,
            slot_of,
        } = buf;
        self.stats.row_sweeps += 1;

        // A bucket is dirty for this row iff its membership changed after
        // the row's last sync. Majority-dirty (and the reference mode)
        // replays everything — same queries either way, because a clean
        // bucket's bracket re-plays entirely from the cache.
        let synced = state.synced_epoch;
        let dirty = self.bucket_epoch.iter().filter(|&&e| e > synced).count();
        let replay_all = !use_cache || 2 * dirty > total;
        if synced > 0 {
            if 2 * dirty > total {
                self.stats.repair_fallbacks += 1;
            } else {
                self.stats.repair_contests += 1;
            }
        }
        let replayed = |rb: &usize| replay_all || self.bucket_epoch[*rb] > synced;

        // Stage 1 + 2: bracket replays, level-batched across buckets;
        // tombstones and the row itself play as byes.
        arena.clear();
        ranges.clear();
        for rb in (0..total).filter(replayed) {
            let members = &self.deal.buckets[rb];
            ranges.push((arena.len(), members.len()));
            let live = |id: usize| self.alive[id] && id != row;
            arena.extend(members.iter().map(|&id| if live(id) { id } else { BYE }));
        }
        let mut referee = RowReferee {
            outcomes: &mut state.outcomes,
            use_cache,
            hits: 0,
        };
        self.stats.bracket_duels += play(arena, ranges, &mut referee, cmp, round);
        for (rb, &(start, len)) in (0..total).filter(replayed).zip(ranges.iter()) {
            let winner = if len == 1 { arena[start] } else { BYE };
            state.winners[rb] = if winner == BYE { ABSENT } else { winner as u32 };
        }

        // Stage 3: the final Count-Min over bucket winners ∪ shared sample
        // (first-entry dedup, the row itself excluded). Pool order —
        // winners in flat-bucket order, then sample in insertion order —
        // is a pure function of the scaffold, so the tie-break (earliest
        // pool slot on equal scores) cannot depend on what was cached.
        pool.clear();
        let winners = state.winners.iter().filter(|&&w| w != ABSENT);
        let sample = self.deal.sample.iter().filter(|&&s| s != row);
        for id in winners.map(|&w| w as usize).chain(sample.copied()) {
            if slot_of[id] == ABSENT {
                slot_of[id] = pool.len() as u32;
                pool.push(id);
            }
        }
        debug_assert!(!pool.is_empty(), "sweep of the only live candidate");
        score.clear();
        score.resize(pool.len(), 0);
        round.pairs.clear();
        for i in 0..pool.len() {
            for j in i + 1..pool.len() {
                match referee.settle(pool[i], pool[j]) {
                    Ok(w) => score[slot_of[w] as usize] += 1,
                    Err(query) => round.pairs.push(query),
                }
            }
        }
        self.stats.pool_duels += round.pairs.len() as u64;
        for chunk in round.pairs.chunks(ROUND_CAP) {
            round.answers.clear();
            cmp.le_round(chunk, &mut round.answers);
            for (&query, &le) in chunk.iter().zip(&round.answers) {
                score[slot_of[referee.winner(query, le)] as usize] += 1;
            }
        }
        self.stats.scaffold_hits += referee.hits;

        let mut best = 0usize;
        for slot in 1..pool.len() {
            if score[slot] > score[best] {
                best = slot;
            }
        }
        for &id in pool.iter() {
            slot_of[id] = ABSENT;
        }
        state.synced_epoch = self.epoch;
        self.rows[row] = Some(state);
        pool[best]
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
        assert!(new < self.alive.len(), "cluster id out of bounds");
        assert!(!self.alive[new], "cluster already live");
        self.epoch += 1;
        self.alive[a] = false;
        self.alive[b] = false;
        self.alive[new] = true;
        self.deal.insert(new, rng);
        for id in [a, b, new] {
            for rb in self.deal.buckets_of(id) {
                self.bucket_epoch[rb] = self.epoch;
            }
        }
        let alive = &self.alive;
        self.deal.sample.retain(|&s| alive[s]);
        self.deal.top_up(live, rng);

        // Union cache inheritance. The merge's rep-refresh round already
        // decided, per survivor, which parent's representative the union
        // keeps; a parent's cached bit for (x, y) answers the union's
        // query exactly when both x's and y's reps came from that parent.
        let parent_a = self.rows[a].take();
        let parent_b = self.rows[b].take();
        for &(survivor, from_a) in kept_from_a {
            self.from[survivor] = if from_a { 1 } else { 2 };
        }
        let mut state = RowState::new(self.deal.buckets.len());
        for (parent, tag) in [(&parent_a, 1u8), (&parent_b, 2u8)] {
            let Some(parent) = parent else { continue };
            for (&key, &le) in &parent.outcomes {
                let (lo, hi) = ((key >> 32) as usize, (key & 0xFFFF_FFFF) as usize);
                if alive[lo] && alive[hi] && self.from[lo] == tag && self.from[hi] == tag {
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
