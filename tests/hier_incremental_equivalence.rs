//! The incremental merge plane's contract (PR 5): maintaining the
//! closest-pair winner structure across merges is **decision-identical**
//! to re-running the full sweep from scratch at every merge, because all
//! shipped noise models are persistent (answers are pure functions of the
//! canonical query). Pinned here as bit-equal merge sequences across both
//! linkages, four noise models and 20 seeds — plus re-assertions of the
//! Theorem 5.2 guarantees on the incremental plane's output.

use nco_testkit::{success_rate, Counting, MetricScenario};
use noisy_oracle::core::hier::{
    hier_oracle, hier_oracle_scratch, hier_oracle_stats, Dendrogram, HierParams, Linkage,
};
use noisy_oracle::eval::pair_f_score;
use noisy_oracle::metric::Metric;
use noisy_oracle::oracle::crowd::AccuracyProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn scenario() -> MetricScenario {
    MetricScenario::separated_blobs(4, 6, 35.0, 0x1AC5)
}

/// Incremental vs from-scratch merge sequences: both linkages, every
/// noise model, 20 seeds each — the dendrograms must be identical, and
/// the incremental plane must issue strictly fewer queries.
#[test]
fn incremental_matches_from_scratch_for_every_noise_model() {
    fn check(
        label: &str,
        linkage: Linkage,
        seed: u64,
        incremental: Dendrogram,
        scratch: Dendrogram,
    ) {
        assert_eq!(incremental, scratch, "{label}, {linkage:?}, seed {seed}");
    }

    let s = scenario();
    for linkage in [Linkage::Single, Linkage::Complete] {
        let params = HierParams::experimental(linkage);
        for seed in 0..20u64 {
            let mut a = s.exact_oracle();
            let mut b = s.exact_oracle();
            check(
                "exact",
                linkage,
                seed,
                hier_oracle(&params, &mut a, &mut rng(seed)),
                hier_oracle_scratch(&params, &mut b, &mut rng(seed)),
            );
            let mut a = s.adversarial_oracle(0.4);
            let mut b = s.adversarial_oracle(0.4);
            check(
                "adversarial",
                linkage,
                seed,
                hier_oracle(&params, &mut a, &mut rng(seed)),
                hier_oracle_scratch(&params, &mut b, &mut rng(seed)),
            );
            let mut a = s.probabilistic_oracle(0.15, 900 + seed);
            let mut b = s.probabilistic_oracle(0.15, 900 + seed);
            check(
                "probabilistic",
                linkage,
                seed,
                hier_oracle(&params, &mut a, &mut rng(seed)),
                hier_oracle_scratch(&params, &mut b, &mut rng(seed)),
            );
            let mut a = s.crowd_oracle(AccuracyProfile::caltech_like(), 300 + seed);
            let mut b = s.crowd_oracle(AccuracyProfile::caltech_like(), 300 + seed);
            check(
                "crowd",
                linkage,
                seed,
                hier_oracle(&params, &mut a, &mut rng(seed)),
                hier_oracle_scratch(&params, &mut b, &mut rng(seed)),
            );
        }
    }
}

/// The query savings are real and the stats tell the story: the
/// incremental plane does fewer full sweeps than merges and issues fewer
/// oracle queries than the from-scratch reference.
#[test]
fn incremental_plane_is_cheaper_than_scratch() {
    let s = MetricScenario::separated_blobs(4, 16, 40.0, 0x1AC6);
    let params = HierParams::experimental(Linkage::Single);
    let mut inc = Counting::new(s.probabilistic_oracle(0.1, 7));
    let (da, stats) = hier_oracle_stats(&params, &mut inc, &mut rng(5));
    let mut scr = Counting::new(s.probabilistic_oracle(0.1, 7));
    let db = hier_oracle_scratch(&params, &mut scr, &mut rng(5));
    assert_eq!(da, db);
    assert!(
        inc.queries() < scr.queries(),
        "incremental {} vs scratch {}",
        inc.queries(),
        scr.queries()
    );
    assert_eq!(stats.merges, 63);
    assert!(
        stats.full_sweeps < stats.merges / 2,
        "most sweeps should reuse the incumbent structure: {stats:?}"
    );
    assert!(stats.bucket_replays > 0 && stats.pool_duels > 0);
}

/// Theorem 5.2 re-pinned on the incremental plane (adversarial noise):
/// every merge is within `(1 + mu)^3` of the best available merge in at
/// least 80% of (merge, seed) replays, checked on true distances.
#[test]
fn theorem_5_2_per_merge_bound_holds_on_the_incremental_plane() {
    let s = MetricScenario::separated_blobs(3, 7, 25.0, 0x1AC7);
    let mu = 0.3;
    let mut total = 0usize;
    let mut within = 0usize;
    for seed in 0..8u64 {
        let mut o = s.adversarial_oracle(mu);
        let d = hier_oracle(
            &HierParams::with_confidence(Linkage::Single, s.n(), 0.1),
            &mut o,
            &mut rng(600 + seed),
        );
        let mut members: Vec<Vec<usize>> = (0..s.n()).map(|i| vec![i]).collect();
        for mg in &d.merges {
            let merged = linkage_dist(&s, &members[mg.a], &members[mg.b]);
            let best = best_available(&s, &members, mg.merged);
            total += 1;
            if merged <= best * (1.0 + mu).powi(3) + 1e-9 {
                within += 1;
            }
            let mut union = members[mg.a].clone();
            union.extend_from_slice(&members[mg.b]);
            members.push(union);
        }
    }
    assert!(
        within * 10 >= total * 8,
        "only {within}/{total} merges within (1+mu)^3"
    );
}

/// Theorem 5.2 re-pinned as planted-partition recovery across the
/// statistical noise models. A single persistent lie can chain two blobs
/// through one bad merge, so the probabilistic per-run F-score is bimodal
/// (perfect, or ~0.75 with one fused pair); as in
/// `tests/guarantees_metric.rs`, the pinned guarantee is the
/// distribution: median perfect, floor no worse than fused pairs.
#[test]
fn incremental_plane_recovers_planted_partition_under_noise() {
    let s = MetricScenario::separated_blobs(4, 20, 70.0, 0x1AC8);
    let mut scores: Vec<f64> = (0..12u64)
        .map(|seed| {
            let mut o = s.probabilistic_oracle(0.1, 5000 + seed);
            let d = hier_oracle(
                &HierParams::experimental(Linkage::Single),
                &mut o,
                &mut rng(40 + seed),
            );
            pair_f_score(&d.cut(4), &s.labels).f1
        })
        .collect();
    scores.sort_by(f64::total_cmp);
    assert!(
        scores[scores.len() / 2] >= 0.95,
        "probabilistic median F-score too low: {scores:?}"
    );
    assert!(
        scores[0] >= 0.6,
        "probabilistic floor below the fused-pairs envelope: {scores:?}"
    );

    // The crowd's accuracy cliff makes well-separated blobs essentially
    // noiseless: recovery must be near-certain.
    let crowd = success_rate(8, 80, |seed| {
        let mut o = s.crowd_oracle(AccuracyProfile::monuments_like(), 6000 + seed);
        let d = hier_oracle(
            &HierParams::experimental(Linkage::Single),
            &mut o,
            &mut rng(seed),
        );
        pair_f_score(&d.cut(4), &s.labels).f1 >= 0.9
    });
    assert!(crowd >= 0.85, "crowd recovery rate {crowd}");
}

/// Exact oracle, single linkage: the incremental plane reproduces the
/// classical SLINK property that merge distances are non-decreasing.
#[test]
fn exact_single_linkage_merges_in_nondecreasing_distance_order() {
    let s = MetricScenario::separated_blobs(4, 10, 30.0, 0x1AC9);
    for seed in 0..5u64 {
        let mut o = s.exact_oracle();
        let d = hier_oracle(
            &HierParams::experimental(Linkage::Single),
            &mut o,
            &mut rng(seed),
        );
        let mut members: Vec<Vec<usize>> = (0..s.n()).map(|i| vec![i]).collect();
        let mut last = 0.0f64;
        for mg in &d.merges {
            let merged = linkage_dist(&s, &members[mg.a], &members[mg.b]);
            assert!(
                merged + 1e-9 >= last,
                "seed {seed}: merge at {merged} after one at {last}"
            );
            last = merged;
            let mut union = members[mg.a].clone();
            union.extend_from_slice(&members[mg.b]);
            members.push(union);
        }
    }
}

fn linkage_dist(s: &MetricScenario, a: &[usize], b: &[usize]) -> f64 {
    let mut best = f64::INFINITY;
    for &x in a {
        for &y in b {
            best = best.min(s.metric.dist(x, y));
        }
    }
    best
}

fn best_available(s: &MetricScenario, members: &[Vec<usize>], next_id: usize) -> f64 {
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
            best = best.min(linkage_dist(s, &members[live[i]], &members[live[j]]));
        }
    }
    best
}
