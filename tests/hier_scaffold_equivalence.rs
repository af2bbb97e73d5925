//! The shared-scaffold search plane's contract (PR 10): running every
//! row-anchored nearest-neighbour search — the `n` initial pointer
//! searches and every complete-linkage pointer repair — over one shared
//! [`RowScaffold`] with per-row caches is **decision-identical** to the
//! per-row from-scratch reference that evolves the identical scaffold but
//! re-asks every duel (`hier_oracle_scratch` with the same scaffolded
//! params). The argument is the same persistence argument that backs the
//! PR 5 merge plane: every shipped noise model answers a canonical query
//! with a fixed bit, and a cached outcome's canonical query
//! `le(rep(row, u), rep(row, v))` is unchanged while clusters `u` and `v`
//! live. Pinned here across both linkages, four noise models and 20
//! seeds, plus Theorem 5.2 re-assertions on the scaffold plane's output.

use nco_testkit::{Counting, MetricScenario};
use noisy_oracle::core::hier::{
    hier_oracle, hier_oracle_scratch, hier_oracle_stats, Dendrogram, HierParams, Linkage,
};
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

/// Shared-scaffold vs per-row-reference merge sequences: both linkages,
/// every noise model, 20 seeds each — identical dendrograms.
#[test]
fn scaffold_matches_from_scratch_for_every_noise_model() {
    fn check(label: &str, linkage: Linkage, seed: u64, shared: Dendrogram, reference: Dendrogram) {
        assert_eq!(shared, reference, "{label}, {linkage:?}, seed {seed}");
    }

    let s = scenario();
    for linkage in [Linkage::Single, Linkage::Complete] {
        let params = HierParams::experimental(linkage).scaffolded();
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

/// The savings are real and the new counters tell the story: under
/// complete linkage (repair-dominated) the scaffold plane issues fewer
/// queries than its from-scratch reference, serves repairs incrementally,
/// and answers a large share of duels from the per-row caches.
#[test]
fn scaffold_plane_is_cheaper_than_scratch_and_reports_stats() {
    let s = MetricScenario::separated_blobs(4, 16, 40.0, 0x1AC6);
    for linkage in [Linkage::Single, Linkage::Complete] {
        let params = HierParams::experimental(linkage).scaffolded();
        let mut shared = Counting::new(s.probabilistic_oracle(0.1, 7));
        let (da, stats) = hier_oracle_stats(&params, &mut shared, &mut rng(5));
        let mut reference = Counting::new(s.probabilistic_oracle(0.1, 7));
        let db = hier_oracle_scratch(&params, &mut reference, &mut rng(5));
        assert_eq!(da, db, "{linkage:?}");
        assert!(
            shared.queries() < reference.queries(),
            "{linkage:?}: shared {} vs reference {}",
            shared.queries(),
            reference.queries()
        );
        assert_eq!(stats.merges, 63, "{linkage:?}");
        assert!(stats.scaffold_hits > 0, "{linkage:?}: {stats:?}");
        if linkage == Linkage::Complete {
            assert!(
                stats.repair_contests + stats.repair_fallbacks > 0,
                "complete linkage must repair through the scaffold: {stats:?}"
            );
        }
    }
}

/// Theorem 5.2 re-pinned on the scaffold plane (adversarial noise): every
/// merge within `(1 + mu)^3` of the best available merge in at least 80%
/// of (merge, seed) replays, checked on true distances.
#[test]
fn theorem_5_2_per_merge_bound_holds_on_the_scaffold_plane() {
    let s = MetricScenario::separated_blobs(3, 7, 25.0, 0x1AC7);
    let mu = 0.3;
    let mut total = 0usize;
    let mut within = 0usize;
    for seed in 0..8u64 {
        let mut o = s.adversarial_oracle(mu);
        let d = hier_oracle(
            &HierParams::with_confidence(Linkage::Single, s.n(), 0.1).scaffolded(),
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

/// The facade knob routes through: a `scaffold_search(true)` hierarchy
/// session is bit-identical to a hand-wired scaffolded
/// `hier_oracle_stats` call, bills the same queries, and surfaces the
/// scaffold counters in `RunReport::merge_plane`.
#[test]
fn session_scaffold_knob_matches_direct_call_and_reports_counters() {
    use noisy_oracle::metric::EuclideanMetric;
    use noisy_oracle::oracle::probabilistic::ProbQuadOracle;
    use noisy_oracle::{Noise, Session, Task};
    let s = MetricScenario::separated_blobs(4, 10, 30.0, 0x1AC9);
    let metric: EuclideanMetric = s.metric.clone();
    for (linkage, seed) in [(Linkage::Single, 3u64), (Linkage::Complete, 4u64)] {
        let session = Session::builder()
            .metric(noisy_oracle::data::AnyMetric::Euclidean(metric.clone()))
            .noise(Noise::Probabilistic {
                p: 0.05,
                seed: 4000 + seed,
            })
            .scaffold_search(true)
            .seed(seed)
            .build()
            .unwrap();
        let outcome = session.run(Task::Hierarchy { linkage }).unwrap();
        let mut oracle = Counting::new(ProbQuadOracle::new(metric.clone(), 0.05, 4000 + seed));
        let (dend, stats) = hier_oracle_stats(
            &HierParams::experimental(linkage).scaffolded(),
            &mut oracle,
            &mut rng(seed),
        );
        assert_eq!(outcome.answer.dendrogram(), Some(&dend), "{linkage:?}");
        assert_eq!(outcome.report.queries, oracle.queries(), "{linkage:?}");
        let plane = outcome.report.merge_plane.expect("hierarchy reports plane");
        assert_eq!(plane, stats, "{linkage:?}");
        assert!(plane.scaffold_hits > 0, "{linkage:?}: {plane:?}");
    }
}

/// The plane stays opt-in: every constructor leaves `scaffold` off, so
/// default-path transcripts (and the byte-stable query counts `perfsuite`
/// pins for them) cannot change under this PR.
#[test]
fn scaffold_is_opt_in() {
    assert!(!HierParams::default().scaffold);
    assert!(!HierParams::experimental(Linkage::Complete).scaffold);
    assert!(!HierParams::with_confidence(Linkage::Single, 64, 0.1).scaffold);
    assert!(
        HierParams::experimental(Linkage::Single)
            .scaffolded()
            .scaffold
    );
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
