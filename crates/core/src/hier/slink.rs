//! Algorithm 11 — oracle-driven agglomerative clustering with
//! nearest-neighbour pointers (the SLINK-style `O(n^2)` scheme).
//!
//! Per iteration: every live cluster holds a pointer to its (approximate)
//! nearest neighbour; the globally closest `(C, nn(C))` candidate is found
//! with the Section 3 minimum engine over the candidates' representative
//! pairs; the winning pair is merged; adjacency reps are refreshed at one
//! query per survivor; and the affected pointers are repaired — for single
//! linkage a stale pointer into the merged pair can simply be redirected
//! to the union (its distance only shrank), while complete linkage
//! recomputes those pointers (distances grew). Theorem 5.2: each merge is
//! within `(1+mu)^3` of the best available merge w.h.p., and the whole
//! hierarchy costs `O(n^2 log^2(n/delta))` queries.
//!
//! ## The incremental merge plane
//!
//! A merge invalidates only a handful of candidates — the two merged
//! clusters, the new union, and the survivors whose pointer was
//! redirected or recomputed — yet a from-scratch closest-pair sweep
//! re-contests every live candidate. The default merge loop therefore
//! maintains the Section 3 minimum engine **incrementally** across merges
//! ([`crate::maxfind::MinContest`]): persistent random bucket assignments
//! stand in for Max-Adv's per-sweep partitions, a persistent topped-up
//! sample stands in for its per-sweep uniform sample, and cached bucket
//! winners / pool outcomes are re-contested only for the dirty candidates,
//! via batched `le_round`s. Because every shipped noise model is
//! *persistent* (answers are pure functions of the canonical query —
//! hence the [`PersistentNoise`] bound on the public entry points), a
//! cached outcome is bit-equal to what re-asking would return, so the
//! incremental plane produces **the identical merge sequence and
//! tie-breaks** as the from-scratch sweep over the same structure — the
//! [`hier_oracle_scratch`] reference engine, pinned across noise models in
//! `tests/hier_incremental_equivalence.rs`. When more than half the live
//! candidates are dirty (complete-linkage repair cascades), the plane
//! falls back to a full sweep of the incumbent structure, which is
//! decision-identical by the same argument.
//!
//! Per-merge randomness (bucket deals for new clusters, sample top-ups,
//! repair searches) is drawn from per-merge [`CounterRng`] streams keyed
//! by the merge index, so each merge's draws depend only on the seed and
//! the merge index.
//!
//! ## The shared-scaffold search plane (opt-in)
//!
//! [`MinContest`] amortises Max-Adv's scaffolding across the merge loop's
//! *one* evolving closest-pair search — but a hierarchy run also performs
//! `n` initial nearest-neighbour searches plus (under complete linkage) a
//! long tail of pointer-*repair* searches, each paying full per-search
//! scaffolding. With [`HierParams::scaffold`] on, all of those
//! row-anchored searches run over one [`RowScaffold`]
//! ([`crate::maxfind::RowScaffold`]): a single set of bucket deals and
//! one persistent sample shared by every row, per-row cached tournament
//! winners and duel outcomes, dirty-bucket-only repair re-contests with a
//! dirty-majority fallback, and cache inheritance into merged rows. The
//! same persistent-noise argument as above makes every sweep
//! decision-identical to the from-scratch reference
//! ([`hier_oracle_scratch`] with the same params), pinned in
//! `tests/hier_scaffold_equivalence.rs`. The plane is opt-in because its
//! saving in queries costs rounds and wall time: through the front door
//! on the `hierarchy` benchmark workload (256 points, Single : Complete
//! = 1:2, seed 1, a 2-core host) it asks 12% fewer queries per request
//! but issues 12% more rounds, and its median latency is 81% higher.

use super::graph::ClusterGraph;
use super::{Dendrogram, Linkage, Merge};
use crate::comparator::Comparator;
use crate::maxfind::{
    max_adv, min_adv_incremental, AdvParams, MinContest, RowScaffold, SweepBuffers,
};
use nco_oracle::{PersistentNoise, QuadrupletOracle};
use rand::rngs::CounterRng;
use rand::Rng;

/// Parameters of oracle-driven agglomeration (Algorithm 11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierParams {
    /// Linkage objective.
    pub linkage: Linkage,
    /// Max-Adv configuration for nearest-neighbour / closest-pair searches
    /// (the paper uses `t = 2 ln(n/delta)` for Lemma 5.1, `t = 1` in
    /// experiments).
    pub search: AdvParams,
    /// Runs every row-anchored nearest-neighbour search (the initial
    /// pointer pass and every pointer repair) over one shared
    /// [`RowScaffold`](crate::maxfind::RowScaffold) instead of independent
    /// per-search Max-Adv scaffolding — identical guarantees. Opt-in
    /// (default `false`) because it trades queries for rounds and wall
    /// time: on the `hierarchy` benchmark workload it asks 12% fewer
    /// queries per request but issues 12% more rounds, and its median
    /// latency is 81% higher (see the module docs).
    pub scaffold: bool,
}

impl HierParams {
    /// The paper's experimental setting (`t = 1`).
    pub fn experimental(linkage: Linkage) -> Self {
        Self {
            linkage,
            search: AdvParams::experimental(),
            scaffold: false,
        }
    }

    /// Lemma 5.1's setting: per-merge failure probability `delta / n`,
    /// i.e. `t = 2 ln(n/delta)` rounds (natural log, matching the paper's
    /// Chernoff constant).
    pub fn with_confidence(linkage: Linkage, n: usize, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0);
        let t = ((2.0 * (n.max(2) as f64 / delta).ln()).ceil() as usize).max(1);
        Self {
            linkage,
            search: AdvParams {
                rounds: t,
                partitions: None,
                sample_size: None,
            },
            scaffold: false,
        }
    }

    /// Opts into the shared-scaffold search plane (see
    /// [`HierParams::scaffold`]).
    #[must_use]
    pub fn scaffolded(mut self) -> Self {
        self.scaffold = true;
        self
    }
}

/// Single linkage with the experimental search constants.
impl Default for HierParams {
    fn default() -> Self {
        Self::experimental(Linkage::Single)
    }
}

/// Cost counters of the incremental merge plane, returned by
/// [`hier_oracle_stats`] and surfaced in the facade's `RunReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergePlaneStats {
    /// Merges performed (`n - 1` for a complete agglomeration).
    pub merges: u64,
    /// Closest-pair sweeps that rebuilt the whole winner structure: the
    /// initial build plus every dirty-majority fallback (and, in the
    /// `*_scratch` reference engines, every merge).
    pub full_sweeps: u64,
    /// Candidates whose `(C, nn(C))` key changed and were re-contested
    /// against the cached incumbent structure.
    pub dirty_candidates: u64,
    /// Nearest-neighbour pointers redirected or recomputed after merges.
    pub repaired_pointers: u64,
    /// Bucket tournaments replayed inside the winner structure.
    pub bucket_replays: u64,
    /// Duels played inside bucket tournament replays.
    pub bucket_duels: u64,
    /// Pairs (re-)contested at the final Count-Min stage.
    pub pool_duels: u64,
    /// Merges committed while the oracle was still returning real answers
    /// (`!oracle.doomed()`). Doom latches monotonically at query
    /// boundaries, so `merges[..clean_merges]` is always a prefix of the
    /// merge sequence built from real answers; equals `merges` on a run
    /// that never tripped a budget, deadline or retry limit.
    pub clean_merges: u64,
    /// Duels of row-anchored searches answered from the shared scaffold's
    /// per-row caches instead of the oracle (zero unless
    /// [`HierParams::scaffold`] is on).
    pub scaffold_hits: u64,
    /// Pointer-repair searches served incrementally by the scaffold: the
    /// row re-contested only the buckets dirtied since its last sweep,
    /// against its cached winner structure.
    pub repair_contests: u64,
    /// Pointer-repair searches that fell back to a full row sweep because
    /// a majority of the row's buckets were dirty (still mostly cache
    /// hits — clean buckets replay from cached outcomes).
    pub repair_fallbacks: u64,
}

/// Compares neighbour clusters of a fixed cluster by their rep-pair
/// distances, with the **minimum orientation fused into the
/// translation**: `le(a, b)` asks `oracle.le(rep(me, b), rep(me, a))`,
/// exactly what `Rev(RepCmp)` would ask — so `nearest_of` calls
/// [`max_adv`](crate::maxfind::max_adv) directly and skips the `Rev`
/// adapter's per-round reversal pass. The translated round is built in a
/// caller-owned reusable buffer.
struct RevRepCmp<'a, O> {
    oracle: &'a mut O,
    graph: &'a ClusterGraph,
    me: usize,
    queries: &'a mut Vec<[usize; 4]>,
}

impl<O: QuadrupletOracle> Comparator<usize> for RevRepCmp<'_, O> {
    fn le(&mut self, c1: usize, c2: usize) -> bool {
        let r1 = self.graph.rep(self.me, c2);
        let r2 = self.graph.rep(self.me, c1);
        self.oracle.le(r1.0, r1.1, r2.0, r2.1)
    }

    fn le_round(&mut self, round: &[(usize, usize)], out: &mut Vec<bool>) {
        let Self {
            oracle,
            graph,
            me,
            queries,
        } = self;
        queries.clear();
        queries.extend(round.iter().map(|&(c1, c2)| {
            let r1 = graph.rep(*me, c2);
            let r2 = graph.rep(*me, c1);
            [r1.0, r1.1, r2.0, r2.1]
        }));
        oracle.le_batch(queries, out);
    }

    fn doomed(&self) -> bool {
        self.oracle.doomed()
    }
}

/// Compares neighbour clusters of a fixed cluster by rep-pair distance in
/// the **direct minimum orientation** the scaffold plane expects:
/// `le(u, v)` asks `oracle.le(rep(me, u), rep(me, v))` — `true` promotes
/// `u` as the at-least-as-close one. No reversal fusion here: the
/// scaffold caches outcomes under canonically ordered candidate-id pairs,
/// so the query orientation must be a pure function of the pair, never of
/// bracket position.
struct RepCmp<'a, O> {
    oracle: &'a mut O,
    graph: &'a ClusterGraph,
    me: usize,
    queries: &'a mut Vec<[usize; 4]>,
}

impl<O: QuadrupletOracle> Comparator<usize> for RepCmp<'_, O> {
    fn le(&mut self, c1: usize, c2: usize) -> bool {
        let r1 = self.graph.rep(self.me, c1);
        let r2 = self.graph.rep(self.me, c2);
        self.oracle.le(r1.0, r1.1, r2.0, r2.1)
    }

    fn le_round(&mut self, round: &[(usize, usize)], out: &mut Vec<bool>) {
        let Self {
            oracle,
            graph,
            me,
            queries,
        } = self;
        queries.clear();
        queries.extend(round.iter().map(|&(c1, c2)| {
            let r1 = graph.rep(*me, c1);
            let r2 = graph.rep(*me, c2);
            [r1.0, r1.1, r2.0, r2.1]
        }));
        oracle.le_batch(queries, out);
    }

    fn doomed(&self) -> bool {
        self.oracle.doomed()
    }
}

/// Compares candidate clusters by the rep pair to their current nearest
/// neighbour — the closest-pair search of Algorithm 11 line 7. Rounds are
/// translated to quadruplet batches in a reusable buffer.
struct CandidateCmp<'a, O> {
    oracle: &'a mut O,
    graph: &'a ClusterGraph,
    /// Dense pointer table indexed by cluster id.
    nn: &'a [usize],
    queries: &'a mut Vec<[usize; 4]>,
}

impl<O: QuadrupletOracle> Comparator<usize> for CandidateCmp<'_, O> {
    fn le(&mut self, c1: usize, c2: usize) -> bool {
        let r1 = self.graph.rep(c1, self.nn[c1]);
        let r2 = self.graph.rep(c2, self.nn[c2]);
        self.oracle.le(r1.0, r1.1, r2.0, r2.1)
    }

    fn le_round(&mut self, round: &[(usize, usize)], out: &mut Vec<bool>) {
        let Self {
            oracle,
            graph,
            nn,
            queries,
        } = self;
        queries.clear();
        queries.extend(round.iter().map(|&(c1, c2)| {
            let r1 = graph.rep(c1, nn[c1]);
            let r2 = graph.rep(c2, nn[c2]);
            [r1.0, r1.1, r2.0, r2.1]
        }));
        oracle.le_batch(queries, out);
    }

    fn doomed(&self) -> bool {
        self.oracle.doomed()
    }
}

fn nearest_of<O, R>(
    graph: &ClusterGraph,
    c: usize,
    params: &AdvParams,
    oracle: &mut O,
    rng: &mut R,
    scratch: &mut Vec<usize>,
    quads: &mut Vec<[usize; 4]>,
) -> usize
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    scratch.clear();
    scratch.extend(graph.active().iter().copied().filter(|&x| x != c));
    debug_assert!(!scratch.is_empty());
    let mut cmp = RevRepCmp {
        oracle,
        graph,
        me: c,
        queries: quads,
    };
    // `max_adv` over the reversal-fused comparator IS `min_adv` over the
    // plain one — identical queries, identical winner.
    max_adv(scratch, params, &mut cmp, rng).expect("at least one neighbour")
}

/// One row-anchored nearest-neighbour search through the shared scaffold
/// plane: sweep row `c`'s brackets (dirty buckets only, unless `use_cache`
/// is off or the dirty set is the majority) and the pooled Count-Min.
fn scaffold_nearest<O: QuadrupletOracle>(
    plane: &mut RowScaffold,
    buf: &mut SweepBuffers,
    graph: &ClusterGraph,
    c: usize,
    oracle: &mut O,
    use_cache: bool,
    quads: &mut Vec<[usize; 4]>,
) -> usize {
    let mut cmp = RepCmp {
        oracle,
        graph,
        me: c,
        queries: quads,
    };
    plane.sweep(c, &mut cmp, use_cache, buf)
}

/// Scaffolded twin of [`init_pointers`]: one [`RowScaffold`] deal (drawn
/// from the caller's rng up front) serves all `n` initial searches;
/// `use_cache = false` is the from-scratch reference, which evolves the
/// identical scaffold but re-asks every duel.
fn init_pointers_scaffold<O, R>(
    params: &HierParams,
    oracle: &mut O,
    rng: &mut R,
    use_cache: bool,
) -> (ClusterGraph, Vec<usize>, RowScaffold, SweepBuffers)
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = oracle.n();
    assert!(n >= 2, "agglomeration needs at least two records");
    let graph = ClusterGraph::new(n);
    let items: Vec<usize> = (0..n).collect();
    let mut plane = RowScaffold::new(&items, 2 * n - 1, &params.search, rng);
    let mut buf = SweepBuffers::new(2 * n - 1);
    let mut nn: Vec<usize> = vec![usize::MAX; 2 * n - 1];
    let mut quads: Vec<[usize; 4]> = Vec::new();
    for (c, pointer) in nn.iter_mut().enumerate().take(n) {
        *pointer = scaffold_nearest(
            &mut plane, &mut buf, &graph, c, oracle, use_cache, &mut quads,
        );
    }
    (graph, nn, plane, buf)
}

/// Algorithm 11: agglomerative clustering (single or complete linkage)
/// under a noisy quadruplet oracle, with the incremental merge plane as
/// the closest-pair engine (see the module docs).
///
/// The [`PersistentNoise`] bound is what makes the incremental plane
/// sound: cached contest outcomes are reused only because re-asking a
/// persistent oracle returns the same bit.
///
/// # Panics
/// Panics if `oracle.n() < 2`.
pub fn hier_oracle<O, R>(params: &HierParams, oracle: &mut O, rng: &mut R) -> Dendrogram
where
    O: QuadrupletOracle + PersistentNoise,
    R: Rng + ?Sized,
{
    hier_oracle_stats(params, oracle, rng).0
}

/// [`hier_oracle`] returning the merge-plane cost counters alongside the
/// dendrogram.
///
/// # Panics
/// Panics if `oracle.n() < 2`.
pub fn hier_oracle_stats<O, R>(
    params: &HierParams,
    oracle: &mut O,
    rng: &mut R,
) -> (Dendrogram, MergePlaneStats)
where
    O: QuadrupletOracle + PersistentNoise,
    R: Rng + ?Sized,
{
    if params.scaffold {
        let (graph, nn, plane, buf) = init_pointers_scaffold(params, oracle, rng, true);
        return agglomerate(params, graph, nn, oracle, rng, false, Some((plane, buf)));
    }
    let (graph, nn) = init_pointers(params, oracle, rng);
    agglomerate(params, graph, nn, oracle, rng, false, None)
}

/// The from-scratch reference sweep: identical structure evolution and
/// rng consumption as [`hier_oracle`], but every closest-pair sweep
/// replays every bucket and re-asks every pool pair instead of reusing
/// the cached incumbent state. Under persistent noise the two are
/// decision-identical by construction; this entry point exists so the
/// equivalence suite and the perf baseline can hold the incremental plane
/// to that contract.
///
/// # Panics
/// Panics if `oracle.n() < 2`.
pub fn hier_oracle_scratch<O, R>(params: &HierParams, oracle: &mut O, rng: &mut R) -> Dendrogram
where
    O: QuadrupletOracle + PersistentNoise,
    R: Rng + ?Sized,
{
    if params.scaffold {
        let (graph, nn, plane, buf) = init_pointers_scaffold(params, oracle, rng, false);
        return agglomerate(params, graph, nn, oracle, rng, true, Some((plane, buf))).0;
    }
    let (graph, nn) = init_pointers(params, oracle, rng);
    agglomerate(params, graph, nn, oracle, rng, true, None).0
}

/// Initial nearest-neighbour pointers (`n` searches of `O(n)` queries),
/// drawn from the caller's rng row after row.
fn init_pointers<O, R>(
    params: &HierParams,
    oracle: &mut O,
    rng: &mut R,
) -> (ClusterGraph, Vec<usize>)
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = oracle.n();
    assert!(n >= 2, "agglomeration needs at least two records");
    let graph = ClusterGraph::new(n);

    // Dense nearest-neighbour pointer table indexed by cluster id (ids
    // run `0..2n-1` across the whole agglomeration); `usize::MAX` marks
    // dead/unset entries.
    let mut nn: Vec<usize> = vec![usize::MAX; 2 * n - 1];
    let mut neighbours: Vec<usize> = Vec::with_capacity(n);
    let mut quads: Vec<[usize; 4]> = Vec::new();
    for (c, pointer) in nn.iter_mut().enumerate().take(n) {
        *pointer = nearest_of(
            &graph,
            c,
            &params.search,
            oracle,
            rng,
            &mut neighbours,
            &mut quads,
        );
    }
    (graph, nn)
}

/// The merge loop shared by every entry point: incremental closest-pair
/// selection ([`MinContest`]), merging, and pointer repair. `scratch`
/// forces the from-scratch reference sweep at every merge. With a
/// scaffold `plane`, pointer repairs run over the shared scaffold
/// (incrementally unless `scratch`) and merges record rep provenance so
/// the union's row can inherit its parents' cached duels.
fn agglomerate<O, R>(
    params: &HierParams,
    mut graph: ClusterGraph,
    mut nn: Vec<usize>,
    oracle: &mut O,
    rng: &mut R,
    scratch: bool,
    mut plane: Option<(RowScaffold, SweepBuffers)>,
) -> (Dendrogram, MergePlaneStats)
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = graph.active().len();
    let mut stats = MergePlaneStats::default();

    // Per-merge counter streams keyed by the merge index: stream 0 deals
    // the initial winner structure; merge `t` draws pointer repairs from
    // stream `2t + 1` and structure maintenance (bucket deal of the new
    // cluster, sample top-up) from stream `2t + 2`.
    let base = CounterRng::new(rng.next_u64(), rng.next_u64());
    let mut contest = {
        let mut deal_rng = base.stream(0);
        MinContest::new(graph.active(), 2 * n - 1, &params.search, &mut deal_rng)
    };

    // Scratch buffers reused by every search and repair round.
    let mut neighbours: Vec<usize> = Vec::with_capacity(n);
    let mut stale: Vec<usize> = Vec::with_capacity(n);
    let mut quads: Vec<[usize; 4]> = Vec::new();
    let mut kept: Vec<(usize, bool)> = Vec::with_capacity(n);

    let mut merges = Vec::with_capacity(n - 1);
    let mut winner = {
        let mut cmp = CandidateCmp {
            oracle,
            graph: &graph,
            nn: &nn,
            queries: &mut quads,
        };
        min_adv_incremental(&mut contest, &mut cmp, true).expect("non-empty actives")
    };
    let mut step = 0u64;
    while graph.active().len() > 1 {
        let partner = nn[winner];
        let rep = graph.rep(winner, partner);

        let new = if plane.is_some() {
            graph.merge_recording(winner, partner, params.linkage, oracle, &mut kept)
        } else {
            graph.merge(winner, partner, params.linkage, oracle)
        };
        merges.push(Merge {
            a: winner,
            b: partner,
            merged: new,
            rep,
        });
        nn[winner] = usize::MAX;
        nn[partner] = usize::MAX;
        stats.merges += 1;
        if !oracle.doomed() {
            stats.clean_merges = stats.merges;
        }

        if graph.active().len() == 1 {
            break;
        }

        // Repair pointers into the merged pair.
        let mut repair_rng = base.stream(2 * step + 1);
        stale.clear();
        stale.extend(
            graph
                .active()
                .iter()
                .copied()
                .filter(|&c| c != new && (nn[c] == winner || nn[c] == partner)),
        );
        if let Some((sc, buf)) = plane.as_mut() {
            // Scaffold maintenance first — repaired rows must be able to
            // contest the union, and must never contest the dead parents.
            // The repair stream feeds the union's bucket deal and the
            // sample top-up (scaffolded sweeps themselves draw nothing).
            sc.note_merge(winner, partner, new, &kept, graph.active(), &mut repair_rng);
            for &c in &stale {
                match params.linkage {
                    // Single linkage: d(c, new) = min of the two old
                    // distances, so the union is still c's nearest.
                    Linkage::Single => {
                        nn[c] = new;
                    }
                    // Complete linkage: distances grew; recompute over
                    // the shared scaffold.
                    Linkage::Complete => {
                        nn[c] = scaffold_nearest(sc, buf, &graph, c, oracle, !scratch, &mut quads);
                    }
                }
            }
            nn[new] = scaffold_nearest(sc, buf, &graph, new, oracle, !scratch, &mut quads);
        } else {
            for &c in &stale {
                match params.linkage {
                    // Single linkage: d(c, new) = min of the two old
                    // distances, so the union is still c's nearest —
                    // redirect for free.
                    Linkage::Single => {
                        nn[c] = new;
                    }
                    // Complete linkage: distances grew; recompute.
                    Linkage::Complete => {
                        nn[c] = nearest_of(
                            &graph,
                            c,
                            &params.search,
                            oracle,
                            &mut repair_rng,
                            &mut neighbours,
                            &mut quads,
                        );
                    }
                }
            }
            nn[new] = nearest_of(
                &graph,
                new,
                &params.search,
                oracle,
                &mut repair_rng,
                &mut neighbours,
                &mut quads,
            );
        }
        stats.repaired_pointers += stale.len() as u64;

        // Winner-structure maintenance: dead candidates out, the union
        // in, repaired pointers marked dirty, sample topped back up.
        let mut maint_rng = base.stream(2 * step + 2);
        contest.remove(winner);
        contest.remove(partner);
        contest.insert(new, &mut maint_rng);
        for &c in &stale {
            contest.touch(c);
        }
        contest.resample(graph.active(), &mut maint_rng);

        let dirty = stale.len() + 1;
        stats.dirty_candidates += dirty as u64;
        // Dirty-majority fallback: once most candidates changed, replaying
        // them incrementally costs more than one full sweep of the
        // incumbent structure (decision-identical either way).
        let full = scratch || 2 * dirty > graph.active().len();
        winner = {
            let mut cmp = CandidateCmp {
                oracle,
                graph: &graph,
                nn: &nn,
                queries: &mut quads,
            };
            min_adv_incremental(&mut contest, &mut cmp, full).expect("non-empty actives")
        };
        step += 1;
    }

    let contest_stats = contest.stats();
    stats.full_sweeps = contest_stats.full_sweeps;
    stats.bucket_replays = contest_stats.bucket_replays;
    stats.bucket_duels = contest_stats.bucket_duels;
    stats.pool_duels = contest_stats.pool_duels;
    if let Some((sc, _)) = &plane {
        let s = sc.stats();
        stats.scaffold_hits = s.scaffold_hits;
        stats.repair_contests = s.repair_contests;
        stats.repair_fallbacks = s.repair_fallbacks;
    }

    let d = Dendrogram { n, merges };
    d.validate();
    (d, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::{EuclideanMetric, Metric};
    use nco_oracle::adversarial::{AdversarialQuadOracle, InvertAdversary};
    use nco_oracle::counting::Counting;
    use nco_oracle::TrueQuadOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn two_pairs() -> EuclideanMetric {
        EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![10.0], vec![11.5]])
    }

    #[test]
    fn perfect_oracle_single_linkage_merges_in_distance_order() {
        let mut o = TrueQuadOracle::new(two_pairs());
        let d = hier_oracle(
            &HierParams::experimental(Linkage::Single),
            &mut o,
            &mut rng(1),
        );
        assert_eq!(d.merges.len(), 3);
        // First merge must be (0,1) at distance 1.
        assert_eq!(
            (
                d.merges[0].a.min(d.merges[0].b),
                d.merges[0].a.max(d.merges[0].b)
            ),
            (0, 1)
        );
        // Second merge must be (2,3) at distance 1.5.
        assert_eq!(
            (
                d.merges[1].a.min(d.merges[1].b),
                d.merges[1].a.max(d.merges[1].b)
            ),
            (2, 3)
        );
        // Cut at 2 recovers the two pairs.
        let labels = d.cut(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn perfect_oracle_complete_linkage_also_recovers_pairs() {
        let mut o = TrueQuadOracle::new(two_pairs());
        let d = hier_oracle(
            &HierParams::experimental(Linkage::Complete),
            &mut o,
            &mut rng(2),
        );
        let labels = d.cut(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    /// Theorem 5.2 sanity: merges under adversarial noise stay within
    /// (1+mu)^3 of the best available merge (checked on true distances).
    #[test]
    fn merges_are_approximately_optimal_under_noise() {
        // A line of 16 points with growing gaps.
        let pts: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![(i as f64) * (1.0 + 0.1 * i as f64)])
            .collect();
        let m = EuclideanMetric::from_points(&pts);
        let mu = 0.3;
        let trials = 10;
        let mut total = 0usize;
        let mut within = 0usize;
        for seed in 0..trials {
            let mut o = AdversarialQuadOracle::new(m.clone(), mu, InvertAdversary);
            let d = hier_oracle(
                &HierParams::with_confidence(Linkage::Single, 16, 0.1),
                &mut o,
                &mut rng(50 + seed),
            );
            // Replay: at each step compare the merged linkage distance to
            // the best possible merge at that step.
            let mut members: Vec<Vec<usize>> = (0..16).map(|i| vec![i]).collect();
            for mg in &d.merges {
                let da = single_linkage_dist(&m, &members[mg.a], &members[mg.b]);
                let best = best_merge(&m, &members, mg.merged);
                total += 1;
                if da <= best * (1.0 + mu).powi(3) + 1e-9 {
                    within += 1;
                }
                let mut u = members[mg.a].clone();
                u.extend_from_slice(&members[mg.b]);
                members.push(u);
            }
        }
        assert!(
            within * 10 >= total * 8,
            "only {within}/{total} merges within (1+mu)^3"
        );
    }

    fn single_linkage_dist(m: &EuclideanMetric, a: &[usize], b: &[usize]) -> f64 {
        let mut best = f64::INFINITY;
        for &x in a {
            for &y in b {
                best = best.min(m.dist(x, y));
            }
        }
        best
    }

    fn best_merge(m: &EuclideanMetric, members: &[Vec<usize>], next_id: usize) -> f64 {
        // Live clusters at this step = maximal member sets among ids
        // created so far (a cluster is absorbed once a strict superset
        // exists).
        let bound = members.len().min(next_id);
        let mut live: Vec<usize> = Vec::new();
        for a in 0..bound {
            let covered = (0..bound).any(|b| {
                b != a
                    && members[b].len() > members[a].len()
                    && members[a].iter().all(|x| members[b].contains(x))
            });
            if !covered {
                live.push(a);
            }
        }
        let mut best = f64::INFINITY;
        for i in 0..live.len() {
            for j in (i + 1)..live.len() {
                best = best.min(single_linkage_dist(m, &members[live[i]], &members[live[j]]));
            }
        }
        best
    }

    #[test]
    fn query_complexity_is_subcubic() {
        let n = 64;
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![((i * 37) % 101) as f64, ((i * 61) % 97) as f64])
            .collect();
        let m = EuclideanMetric::from_points(&pts);
        let mut o = Counting::new(TrueQuadOracle::new(m));
        let _ = hier_oracle(
            &HierParams::experimental(Linkage::Single),
            &mut o,
            &mut rng(7),
        );
        // O(n^2) with t = 1: generous constant 40 n^2; far below n^3 ≈ 262k.
        let budget = (40 * n * n) as u64;
        assert!(o.queries() <= budget, "{} queries > {budget}", o.queries());
    }

    /// The incremental plane must beat the from-scratch sweep on queries
    /// while returning the identical dendrogram.
    #[test]
    fn incremental_plane_saves_queries_and_matches_scratch() {
        let n = 48;
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![((i * 37) % 101) as f64, ((i * 61) % 97) as f64])
            .collect();
        let m = EuclideanMetric::from_points(&pts);
        let params = HierParams::experimental(Linkage::Single);
        let mut inc_oracle = Counting::new(TrueQuadOracle::new(m.clone()));
        let (inc, stats) = hier_oracle_stats(&params, &mut inc_oracle, &mut rng(3));
        let mut scr_oracle = Counting::new(TrueQuadOracle::new(m));
        let scr = hier_oracle_scratch(&params, &mut scr_oracle, &mut rng(3));
        assert_eq!(inc, scr, "incremental and scratch sweeps must agree");
        assert!(
            inc_oracle.queries() < scr_oracle.queries(),
            "incremental {} queries should beat scratch {}",
            inc_oracle.queries(),
            scr_oracle.queries()
        );
        assert_eq!(stats.merges, (n - 1) as u64);
        assert!(
            stats.full_sweeps < stats.merges,
            "most sweeps must be incremental ({stats:?})"
        );
    }

    #[test]
    fn with_confidence_uses_the_natural_log_round_count() {
        // t = ceil(2 ln(n / delta)): n = 16, delta = 0.1 -> ceil(10.15).
        let p = HierParams::with_confidence(Linkage::Single, 16, 0.1);
        assert_eq!(p.search.rounds, 11);
        // The old base-2 constant would have inflated this to 15.
        let p = HierParams::with_confidence(Linkage::Complete, 2, 0.5);
        assert_eq!(p.search.rounds, 3); // ceil(2 ln 4) = ceil(2.77)
    }

    #[test]
    fn two_records() {
        let m = EuclideanMetric::from_points(&[vec![0.0], vec![1.0]]);
        let mut o = TrueQuadOracle::new(m);
        let d = hier_oracle(
            &HierParams::experimental(Linkage::Single),
            &mut o,
            &mut rng(0),
        );
        assert_eq!(d.merges.len(), 1);
        assert_eq!(d.cut(1), vec![0, 0]);
    }
}
