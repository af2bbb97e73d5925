//! Algorithm 7 — k-center under probabilistic persistent noise
//! (Theorem 4.4), with its subroutines:
//!
//! * **sampling**: include each point w.p. `gamma * ln(n/delta) / m`, so
//!   every optimal cluster lands `Theta(log(n/delta))` representatives in
//!   the working set (Lemma 11.1);
//! * **Identify-Core** (Algorithm 9): the cluster members closest to the
//!   center by Count score — the per-cluster voting committee;
//! * **ClusterComp** (Algorithm 10): robust comparison of two points'
//!   distances *to their own centers* through the cores (same-cluster
//!   comparisons vote over the full core; cross-cluster ones over
//!   `sqrt(|R|) x sqrt(|R|)` core subsets to stay within
//!   `Theta(log(n/delta))` queries);
//! * **Assign** (Algorithm 8): a point moves to a freshly found center when
//!   its ACount vote against the current cluster's core clears the `0.3`
//!   threshold;
//! * **Assign-Final**: the unsampled points stream through the center list
//!   with the same ACount votes.
//!
//! With `p <= 0.4` and minimum optimal-cluster size
//! `m = Omega(log^3(n/delta)/delta)`, the result is an O(1)-approximation
//! w.p. `1 - O(delta)` using `O(nk log(n/delta) + (n/m)^2 k log^2(n/delta))`
//! queries.

use super::Clustering;
use crate::comparator::{Committees, Comparator};
use crate::maxfind::{max_adv, AdvParams};
use crate::neighbor::{MAJORITY_THRESHOLD, PAIRWISE_THRESHOLD};
use nco_oracle::QuadrupletOracle;
use rand::Rng;

/// Parameters of the probabilistic k-center (Algorithm 7).
#[derive(Debug, Clone, PartialEq)]
pub struct KCenterProbParams {
    /// Number of clusters.
    pub k: usize,
    /// Minimum optimal-cluster size `m` (a promise parameter of Thm 4.4).
    pub m: usize,
    /// Sampling multiplier `gamma`: the paper proves with `gamma = 450` and
    /// experiments with `gamma = 2` (Section 6.1).
    pub gamma: f64,
    /// Failure probability `delta`.
    pub delta: f64,
    /// ACount / FCount acceptance threshold (`0.3` in the paper).
    pub threshold: f64,
    /// First center; `None` picks randomly among the sampled points.
    pub first_center: Option<usize>,
    /// Max-Adv configuration for Approx-Farthest (`t = log(n/delta)` in the
    /// theorem, `t = 1` in experiments).
    pub farthest: AdvParams,
}

impl KCenterProbParams {
    /// The paper's experimental configuration: `gamma = 2`, `t = 1`. The
    /// vote threshold defaults to the majority variant (see
    /// `nco_core::neighbor::MAJORITY_THRESHOLD`); the ablation bench
    /// contrasts it with the paper's literal 0.3.
    pub fn experimental(k: usize, m: usize) -> Self {
        Self {
            k,
            m,
            gamma: 2.0,
            delta: 0.1,
            threshold: MAJORITY_THRESHOLD,
            first_center: None,
            farthest: AdvParams::experimental(),
        }
    }

    /// Targets failure probability `delta` with the lean experimental
    /// constants — the confidence constructor every `*Params` struct in
    /// this crate shares. Rounds follow the `AdvParams` confidence rule;
    /// the enormous proof-grade constants of Theorem 4.4 stay available
    /// through public fields (`gamma = 450`, `threshold = 0.3`).
    ///
    /// # Panics
    /// Panics unless `0 < delta < 1`.
    pub fn with_confidence(k: usize, m: usize, delta: f64) -> Self {
        Self {
            delta,
            farthest: AdvParams::with_confidence(delta),
            ..Self::experimental(k, m)
        }
    }

    /// Proof-grade configuration of Theorem 4.4 (`gamma = 450`,
    /// `t = log2(n/delta)` rounds). Intended for analysis, not for runs at
    /// realistic sizes — the constants are enormous by design.
    #[deprecated(
        since = "0.1.0",
        note = "use `with_confidence(k, m, delta)` (or set `gamma: 450.0` \
                explicitly for the proof-grade constants)"
    )]
    pub fn theory(k: usize, m: usize, n: usize, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0);
        let t = ((n as f64 / delta).log2().ceil() as usize).max(1);
        Self {
            k,
            m,
            gamma: 450.0,
            delta,
            threshold: PAIRWISE_THRESHOLD,
            first_center: None,
            farthest: AdvParams {
                rounds: t,
                partitions: None,
                sample_size: None,
            },
        }
    }

    fn ln_term(&self, n: usize) -> f64 {
        (n as f64 / self.delta).max(2.0).ln()
    }

    /// Core size — `ceil(8 * gamma * log(n/delta) / 9)` (Algorithm 9),
    /// additionally capped at `8m/9`: the paper's formula equals 8/9 of the
    /// *expected minimum-cluster sample* `min(gamma * log(n/delta), m)`;
    /// without the cap, a saturated sampling probability (`p_sample = 1`)
    /// would request cores larger than the smallest optimal cluster and the
    /// committees would bleed across cluster boundaries.
    fn core_size(&self, n: usize) -> usize {
        let expected_min_cluster_sample = (self.gamma * self.ln_term(n)).min(self.m as f64);
        ((8.0 * expected_min_cluster_sample / 9.0).ceil() as usize).max(1)
    }
}

/// `k = 2`, `m = 1` with the experimental constants — a runnable
/// placeholder for API symmetry; real callers set `k` and the cluster-size
/// promise `m` for their instance.
impl Default for KCenterProbParams {
    fn default() -> Self {
        Self::experimental(2, 1)
    }
}

/// Algorithm 9 — Identify-Core: the `size` cluster members with the highest
/// "closer to the center than others" Count scores, best first.
///
/// The whole `|C|²` committee election goes out as one batched round on
/// the reused `waves` buffers: every query is anchored at the center, so
/// the oracle's `le_batch` evaluates each `d(center, x)` once for the
/// entire election.
fn identify_core<O: QuadrupletOracle>(
    oracle: &mut O,
    cluster: &[usize],
    center: usize,
    size: usize,
    waves: &mut Committees<usize, [usize; 4]>,
) -> Vec<usize> {
    debug_assert!(cluster.contains(&center));
    // Count(u) = #{x in C : O(center, x, center, u) == No}
    //          = #{x : the oracle deems x farther from the center}.
    let mut scored: Vec<(usize, u32)> = Vec::with_capacity(cluster.len());
    waves.ask(
        [center],
        |center, round| {
            for &u in cluster {
                round.extend(
                    cluster
                        .iter()
                        .filter(|&&x| x != u)
                        .map(|&x| [center, x, center, u]),
                );
            }
        },
        |round, answers| oracle.le_batch(round, answers),
        |_, answers| {
            let mut answers = answers.iter();
            scored.extend(cluster.iter().map(|&u| {
                let c = cluster
                    .iter()
                    .filter(|&&x| x != u)
                    .filter(|_| !*answers.next().expect("one answer per query"))
                    .count() as u32;
                (u, c)
            }));
        },
    );
    scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(size.min(scored.len()).max(1));
    scored.into_iter().map(|(u, _)| u).collect()
}

/// `sqrt(|R|)`-sized prefix used for cross-cluster ClusterComp votes.
fn rtilde(core: &[usize]) -> Vec<usize> {
    let s = (core.len() as f64).sqrt().ceil() as usize;
    core[..s.clamp(1, core.len())].to_vec()
}

/// Algorithm 10 — ClusterComp as a [`Comparator`]: items are sampled
/// points, keys are their (unknown) distances to their assigned centers.
struct ClusterCmp<'a, O> {
    oracle: &'a mut O,
    cores: &'a [Vec<usize>],
    rtildes: &'a [Vec<usize>],
    membership: &'a [usize],
    threshold: f64,
    /// Reused committee-round buffers.
    votes: Committees<(usize, usize), [usize; 4]>,
}

impl<O: QuadrupletOracle> ClusterCmp<'_, O> {
    /// Votes on every pair of `round`, handing each verdict to `emit` in
    /// round order. The pairs' committees (or committee products) are
    /// independent, so they go out together as rounds of whole committees:
    /// d(u, x) / d(v, y) evaluations are shared across each round by the
    /// oracle.
    fn vote(&mut self, round: &[(usize, usize)], mut emit: impl FnMut(bool)) {
        let Self {
            oracle,
            cores,
            rtildes,
            membership,
            threshold,
            votes,
        } = self;
        votes.ask(
            round.iter().copied(),
            |(u, v), queries| {
                let (cu, cv) = (membership[u], membership[v]);
                if cu == cv {
                    queries.extend(cores[cu].iter().map(|&x| [u, x, v, x]));
                } else {
                    for &x in &rtildes[cu] {
                        queries.extend(rtildes[cv].iter().map(|&y| [u, x, v, y]));
                    }
                }
            },
            |queries, answers| oracle.le_batch(queries, answers),
            |_, answers| {
                let fcount = answers.iter().filter(|&&yes| yes).count();
                emit(fcount as f64 >= *threshold * answers.len() as f64);
            },
        );
    }
}

impl<O: QuadrupletOracle> Comparator<usize> for ClusterCmp<'_, O> {
    fn le(&mut self, u: usize, v: usize) -> bool {
        let mut verdict = false;
        self.vote(&[(u, v)], |yes| verdict = yes);
        verdict
    }

    fn le_round(&mut self, round: &[(usize, usize)], out: &mut Vec<bool>) {
        out.reserve(round.len());
        self.vote(round, |yes| out.push(yes));
    }

    fn doomed(&self) -> bool {
        self.oracle.doomed()
    }
}

/// ACount votes (Algorithm 8 / Assign-Final): how strongly does each
/// point `u` of `points` look closer to the prospective center `cand` than
/// to the committee `core_of(u)` of its current cluster? The votes are
/// independent, so whole committees are packed into rounds on the reused
/// `waves` buffers (`d(u, cand)` is evaluated once per committee);
/// `share` gets each point with its Yes share, in point order.
fn acount_votes<'c, O: QuadrupletOracle>(
    oracle: &mut O,
    points: impl IntoIterator<Item = usize>,
    cand: usize,
    core_of: impl Fn(usize) -> &'c [usize],
    waves: &mut Committees<usize, [usize; 4]>,
    mut share: impl FnMut(usize, f64),
) {
    waves.ask(
        points,
        |u, round| round.extend(core_of(u).iter().map(|&x| [u, cand, u, x])),
        |round, answers| oracle.le_batch(round, answers),
        |u, answers| {
            let yes = answers.iter().filter(|&&a| a).count();
            share(u, yes as f64 / answers.len() as f64);
        },
    );
}

/// Algorithm 7: k-center under probabilistic persistent noise.
///
/// # Panics
/// Panics if `k == 0`, `k > oracle.n()` or `m == 0`.
pub fn kcenter_prob<O, R>(params: &KCenterProbParams, oracle: &mut O, rng: &mut R) -> Clustering
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    kcenter_prob_with_progress(params, oracle, rng, &mut 0)
}

/// [`kcenter_prob`] with a clean-progress watermark; see
/// [`super::kcenter_adv_with_progress`] for the `clean` contract
/// (`clean` = leading centers selected and fully assigned on real
/// answers, query/rng sequences unchanged).
///
/// # Panics
/// Panics if `k == 0`, `k > oracle.n()` or `m == 0`.
pub fn kcenter_prob_with_progress<O, R>(
    params: &KCenterProbParams,
    oracle: &mut O,
    rng: &mut R,
    clean: &mut usize,
) -> Clustering
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    let n = oracle.n();
    let k = params.k;
    assert!(k >= 1 && k <= n, "need 1 <= k <= n (k = {k}, n = {n})");
    assert!(params.m >= 1, "minimum cluster size m must be positive");

    // Phase 1a: Bernoulli sample V~.
    let p_sample = (params.gamma * params.ln_term(n) / params.m as f64).min(1.0);
    let mut in_sample = vec![false; n];
    let mut sampled: Vec<usize> = Vec::new();
    for (v, flag) in in_sample.iter_mut().enumerate() {
        if rng.random_bool(p_sample) {
            *flag = true;
            sampled.push(v);
        }
    }
    if let Some(f) = params.first_center {
        assert!(f < n, "first center out of range");
        if !in_sample[f] {
            in_sample[f] = true;
            sampled.push(f);
        }
    }
    // The theorem guarantees a large sample; at tiny n the Bernoulli draw
    // can fall short of k usable points, so top up uniformly.
    let need = (2 * k).max(8).min(n);
    let mut v = 0usize;
    while sampled.len() < need && v < n {
        if !in_sample[v] {
            in_sample[v] = true;
            sampled.push(v);
        }
        v += 1;
    }

    // Phase 1b: greedy over the sample with cores.
    let first = params
        .first_center
        .unwrap_or_else(|| sampled[rng.random_range(0..sampled.len())]);
    let core_size = params.core_size(n);

    let mut centers: Vec<usize> = vec![first];
    let mut clusters: Vec<Vec<usize>> = vec![sampled.clone()];
    let mut membership: Vec<usize> = vec![usize::MAX; n];
    for &u in &sampled {
        membership[u] = 0;
    }
    // Committee-round buffers reused by every election and ACount wave.
    let mut waves: Committees<usize, [usize; 4]> = Committees::default();
    let mut cores: Vec<Vec<usize>> = vec![identify_core(
        oracle,
        &clusters[0],
        first,
        core_size,
        &mut waves,
    )];
    let mut rtildes: Vec<Vec<usize>> = vec![rtilde(&cores[0])];
    let mut is_center = vec![false; n];
    is_center[first] = true;
    if !oracle.doomed() {
        *clean = 1; // first center + core committed on real answers
    }
    // Committee-round buffers reused by every ClusterComp.
    let mut votes: Committees<(usize, usize), [usize; 4]> = Committees::default();

    for _ in 1..k {
        // Approx-Farthest via Max-Adv + ClusterComp.
        let items: Vec<usize> = sampled.iter().copied().filter(|&u| !is_center[u]).collect();
        let far = {
            let mut cmp = ClusterCmp {
                oracle,
                cores: &cores,
                rtildes: &rtildes,
                membership: &membership,
                threshold: params.threshold,
                votes: std::mem::take(&mut votes),
            };
            let far = max_adv(&items, &params.farthest, &mut cmp, rng)
                .expect("sample guaranteed to exceed k points");
            votes = cmp.votes;
            far
        };

        // Open the new cluster.
        let new_pos = centers.len();
        let old = membership[far];
        clusters[old].retain(|&u| u != far);
        centers.push(far);
        is_center[far] = true;
        clusters.push(vec![far]);
        membership[far] = new_pos;

        // Assign (Algorithm 8): ACount vote of every member. Core members
        // are movable too: the fixed core size can exceed a cluster's true
        // sampled population, in which case the committee absorbs the
        // nearest *foreign* points — exempting them would pin them to the
        // wrong cluster for good (they can never out-vote their own
        // committee seat), which breaks the Theorem 4.4 objective even
        // under an exact oracle.
        // Every member's vote is independent of the others', so the
        // whole wave is asked as rounds of whole committees.
        let mut moves: Vec<usize> = Vec::new();
        acount_votes(
            oracle,
            clusters[..new_pos]
                .iter()
                .flatten()
                .copied()
                .filter(|&u| !is_center[u]),
            far,
            |u| &cores[membership[u]],
            &mut waves,
            |u, share| {
                if share > params.threshold {
                    moves.push(u);
                }
            },
        );
        let mut stale_cores: Vec<bool> = vec![false; new_pos];
        for &u in &moves {
            let from = membership[u];
            if cores[from].contains(&u) {
                stale_cores[from] = true;
            }
            clusters[from].retain(|&x| x != u);
            clusters[new_pos].push(u);
            membership[u] = new_pos;
        }
        // A committee that lost a member no longer represents its cluster;
        // re-elect it from the surviving membership.
        for (j, stale) in stale_cores.iter().enumerate() {
            if *stale {
                cores[j] = identify_core(oracle, &clusters[j], centers[j], core_size, &mut waves);
                rtildes[j] = rtilde(&cores[j]);
            }
        }

        cores.push(identify_core(
            oracle,
            &clusters[new_pos],
            far,
            core_size,
            &mut waves,
        ));
        rtildes.push(rtilde(&cores[new_pos]));
        if !oracle.doomed() {
            *clean = centers.len();
        }
    }

    // Phase 2: Assign-Final for the unsampled points.
    let mut assignment: Vec<usize> = vec![usize::MAX; n];
    for (j, cl) in clusters.iter().enumerate() {
        for &u in cl {
            assignment[u] = j;
        }
    }
    for (j, &c) in centers.iter().enumerate() {
        assignment[c] = j;
    }
    for (u, slot) in assignment.iter_mut().enumerate() {
        if *slot != usize::MAX {
            continue;
        }
        // Each vote's committee depends on the previous verdict, so the
        // votes go out one round each.
        let mut cur = 0usize;
        for (t, &cand) in centers.iter().enumerate().skip(1) {
            let core = &cores[cur];
            acount_votes(
                oracle,
                [u],
                cand,
                |_| core,
                &mut waves,
                |_, share| {
                    if share >= params.threshold {
                        cur = t;
                    }
                },
            );
        }
        *slot = cur;
    }

    let clustering = Clustering {
        centers,
        assignment,
    };
    clustering.validate();
    clustering
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::stats::kcenter_objective;
    use nco_metric::EuclideanMetric;
    use nco_oracle::probabilistic::ProbQuadOracle;
    use nco_oracle::TrueQuadOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Four well-separated blobs of 40 points each.
    fn blobs() -> (EuclideanMetric, Vec<usize>) {
        let centers = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)];
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for p in 0..40 {
                let a = p as f64;
                pts.push(vec![cx + (a * 0.9).sin() * 2.0, cy + (a * 1.7).cos() * 2.0]);
                labels.push(ci);
            }
        }
        (EuclideanMetric::from_points(&pts), labels)
    }

    fn cluster_purity(assignment: &[usize], labels: &[usize], k: usize) -> f64 {
        let mut correct = 0usize;
        for c in 0..k {
            let members: Vec<usize> = (0..labels.len()).filter(|&v| assignment[v] == c).collect();
            if members.is_empty() {
                continue;
            }
            let mut counts = std::collections::HashMap::new();
            for &v in &members {
                *counts.entry(labels[v]).or_insert(0usize) += 1;
            }
            correct += counts.values().max().copied().unwrap_or(0);
        }
        correct as f64 / labels.len() as f64
    }

    #[test]
    fn identify_core_ranks_by_closeness() {
        let m = EuclideanMetric::from_points(&(0..12).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let mut o = TrueQuadOracle::new(m);
        let cluster: Vec<usize> = (0..12).collect();
        let core = identify_core(&mut o, &cluster, 0, 4, &mut Committees::default());
        assert_eq!(core, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rtilde_is_a_sqrt_prefix() {
        assert_eq!(rtilde(&[9, 8, 7, 6]), vec![9, 8]);
        assert_eq!(rtilde(&[5]), vec![5]);
        assert_eq!(rtilde(&(0..16).collect::<Vec<_>>()).len(), 4);
    }

    #[test]
    fn perfect_oracle_recovers_separated_blobs() {
        let (m, labels) = blobs();
        let mut o = TrueQuadOracle::new(m.clone());
        let params = KCenterProbParams {
            first_center: Some(0),
            ..KCenterProbParams::experimental(4, 40)
        };
        let c = kcenter_prob(&params, &mut o, &mut rng(5));
        c.validate();
        let purity = cluster_purity(&c.assignment, &labels, 4);
        assert!(purity > 0.95, "purity {purity}");
        let obj = kcenter_objective(&m, &c.centers, &c.assignment);
        assert!(obj < 10.0, "objective {obj} must be intra-blob");
    }

    /// Committee sizes matter under persistent noise: a core of size `c`
    /// leaks a home-cluster point with probability `P(Binom(c, p) > 0.3c)`
    /// per iteration — the reason Theorem 4.4 proves with `gamma = 450`.
    /// `gamma = 8` saturates the sampling here, giving the maximal
    /// `8m/9`-member cores; the ablation bench sweeps this trade-off.
    #[test]
    fn noisy_oracle_still_recovers_blobs() {
        let (m, labels) = blobs();
        let trials = 10;
        let mut good = 0;
        for seed in 0..trials {
            let mut o = ProbQuadOracle::new(m.clone(), 0.15, 60 + seed);
            let params = KCenterProbParams {
                gamma: 8.0,
                ..KCenterProbParams::experimental(4, 40)
            };
            let c = kcenter_prob(&params, &mut o, &mut rng(90 + seed));
            if cluster_purity(&c.assignment, &labels, 4) > 0.9 {
                good += 1;
            }
        }
        assert!(
            good >= trials * 7 / 10,
            "only {good}/{trials} pure clusterings"
        );
    }

    #[test]
    fn theorem_4_4_objective_constant_factor() {
        let (m, _) = blobs();
        // Exact greedy reference.
        let g = super::super::gonzalez(&m, 4, Some(0));
        let g_obj = kcenter_objective(&m, &g.centers, &g.assignment);
        let trials = 8;
        let mut ok = 0;
        for seed in 0..trials {
            let mut o = ProbQuadOracle::new(m.clone(), 0.1, 700 + seed);
            let params = KCenterProbParams {
                gamma: 8.0,
                ..KCenterProbParams::experimental(4, 40)
            };
            let c = kcenter_prob(&params, &mut o, &mut rng(seed));
            let obj = kcenter_objective(&m, &c.centers, &c.assignment);
            if obj <= 8.0 * g_obj.max(1.0) {
                ok += 1;
            }
        }
        assert!(ok >= trials * 3 / 4, "{ok}/{trials} within constant factor");
    }

    #[test]
    fn all_points_assigned_and_centers_distinct() {
        let (m, _) = blobs();
        let mut o = ProbQuadOracle::new(m, 0.1, 42);
        let c = kcenter_prob(&KCenterProbParams::experimental(6, 40), &mut o, &mut rng(3));
        c.validate();
        assert_eq!(c.n(), 160);
        let mut cs = c.centers.clone();
        cs.sort_unstable();
        cs.dedup();
        assert_eq!(cs.len(), 6);
    }

    #[test]
    fn k_equals_one() {
        let (m, _) = blobs();
        let mut o = TrueQuadOracle::new(m);
        let c = kcenter_prob(&KCenterProbParams::experimental(1, 40), &mut o, &mut rng(1));
        assert_eq!(c.k(), 1);
        assert!(c.assignment.iter().all(|&a| a == 0));
    }
}
