//! Deterministic guarantee tests for the metric-space pipelines (farthest
//! and nearest neighbour, k-center, hierarchical clustering) across all
//! three noise models — adversarial, probabilistic persistent, and crowd —
//! built on `nco_testkit`.
//!
//! Seeds are fixed everywhere: two consecutive `cargo test` runs are
//! identical. Guarantees that hold "w.h.p." are asserted as success rates
//! over seeded trial blocks.

use nco_core::hier::{hier_oracle, HierParams, Linkage};
use nco_core::kcenter::{gonzalez, kcenter_adv, kcenter_prob, KCenterAdvParams, KCenterProbParams};
use nco_core::maxfind::AdvParams;
use nco_core::neighbor::baselines::{farthest_samp, farthest_tour2, nearest_tour2};
use nco_core::neighbor::{farthest_adv, farthest_prob, nearest_adv, nearest_prob};
use nco_eval::pair_f_score;
use nco_metric::stats::{exact_farthest, farthest_rank, kcenter_objective, nearest_rank};
use nco_metric::Metric;
use nco_oracle::adversarial::{AdversarialQuadOracle, PersistentRandomAdversary};
use nco_oracle::crowd::AccuracyProfile;
use nco_oracle::probabilistic::ProbQuadOracle;
use nco_testkit::{assert_kcenter_constant_factor, success_rate, Counting, MetricScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn blobs() -> MetricScenario {
    MetricScenario::separated_blobs(4, 40, 70.0, 0x5EED)
}

/// Theorem 3.10 (farthest neighbour, adversarial): the returned point's
/// distance from the query is within `(1 + mu)^3` of the true farthest
/// distance, across noise levels.
#[test]
fn farthest_adv_theorem_3_10_bound_across_noise_levels() {
    let s = blobs();
    let q = 0;
    let true_far = s.true_farthest_dist(q);
    for &mu in &[0.3, 0.8] {
        let rate = success_rate(8, 100, |seed| {
            let mut oracle = s.adversarial_oracle(mu);
            let got = farthest_adv(
                &mut oracle,
                q,
                &AdvParams::with_confidence(0.1),
                &mut rng(seed),
            )
            .unwrap();
            s.metric.dist(q, got) * (1.0 + mu).powi(3) >= true_far - 1e-9
        });
        assert!(
            rate >= 0.9,
            "mu = {mu}: farthest bound held in only {rate} of trials"
        );
    }
}

/// Nearest-neighbour twin: returned distance at most `(1 + mu)^3` times
/// the true nearest distance.
#[test]
fn nearest_adv_bound_across_noise_levels() {
    let s = blobs();
    let q = 3;
    let true_near = s.true_nearest_dist(q);
    for &mu in &[0.3, 0.8] {
        let rate = success_rate(8, 130, |seed| {
            let mut oracle = s.adversarial_oracle(mu);
            let got = nearest_adv(
                &mut oracle,
                q,
                &AdvParams::with_confidence(0.1),
                &mut rng(seed),
            )
            .unwrap();
            s.metric.dist(q, got) <= true_near * (1.0 + mu).powi(3) + 1e-9
        });
        assert!(
            rate >= 0.9,
            "mu = {mu}: nearest bound held in only {rate} of trials"
        );
    }
}

/// Figure 9(a) at small scale, with the `fig9_nearest_noise` bench's
/// data and seeds (`cities` analogue, n = 500, query record 0, seeds
/// 13..23): the mean distance `NN` (Max-Adv nearest) returns is never
/// worse than `Tour2`'s at any adversarial μ, and strictly better at
/// μ = 2.
#[test]
fn figure_9a_nn_never_worse_than_tour2() {
    let d = nco_data::cities(500, 0xC1);
    let metric = &d.metric;
    let q = 0;
    for mu in [0.0, 0.5, 1.0, 2.0] {
        let (mut nn, mut tour2) = (0.0, 0.0);
        for seed in 13..23u64 {
            let oracle =
                || AdversarialQuadOracle::new(metric, mu, PersistentRandomAdversary::new(seed));
            let got = nearest_adv(&mut oracle(), q, &AdvParams::experimental(), &mut rng(seed));
            nn += metric.dist(q, got.unwrap()) / 10.0;
            let got = nearest_tour2(&mut oracle(), q, &mut rng(seed));
            tour2 += metric.dist(q, got.unwrap()) / 10.0;
        }
        eprintln!("mu = {mu}: NN {nn:.4} Tour2 {tour2:.4}");
        assert!(nn <= tour2, "mu = {mu}: NN {nn} > Tour2 {tour2}");
        if mu == 2.0 {
            assert!(nn < tour2, "mu = 2: NN {nn} not below Tour2 {tour2}");
        }
    }
}

/// Figure 8 shape claims at the `fig8_farthest_noise` bench's data and
/// seeds (`cities` analogue, n = 500, query record 0; seeds 31..41 for
/// 8(a), 77..87 for 8(b)), each at the threshold its sentence states:
/// - 8(a): `Far`'s mean distance is within 4x of TDist at every μ;
/// - 8(b): at p = 0.3, `Samp` is more than 4x below `Far_p`;
/// - 8(b): `Tour2` at p = 0.3 is below `Tour2` at p = 0.
#[test]
fn figure_8_far_within_4x_samp_collapses_tour2_declines() {
    let d = nco_data::cities(500, 0xC1);
    let metric = &d.metric;
    let q = 0;
    let (_, d_opt) = exact_farthest(metric, q, 0..500).unwrap();
    let params = AdvParams::experimental();
    for mu in [0.0, 0.5, 1.0, 2.0] {
        let mut far = 0.0;
        for seed in 31..41u64 {
            let mut o =
                AdversarialQuadOracle::new(metric, mu, PersistentRandomAdversary::new(seed));
            let got = farthest_adv(&mut o, q, &params, &mut rng(seed)).unwrap();
            far += metric.dist(q, got) / d_opt / 10.0;
        }
        eprintln!("mu = {mu}: Far {far:.3}");
        assert!(far >= 0.25, "mu = {mu}: Far {far} not within 4x of TDist");
    }
    let mut tour2_at = Vec::new();
    for p in [0.0, 0.3] {
        let (mut far_p, mut tour2, mut samp) = (0.0, 0.0, 0.0);
        for seed in 77..87u64 {
            let oracle = || ProbQuadOracle::new(metric, p, seed);
            let got = farthest_prob(&mut oracle(), q, 0.1, &params, &mut rng(seed)).unwrap();
            far_p += metric.dist(q, got) / d_opt / 10.0;
            let got = farthest_tour2(&mut oracle(), q, &mut rng(seed)).unwrap();
            tour2 += metric.dist(q, got) / d_opt / 10.0;
            let got = farthest_samp(&mut oracle(), q, &mut rng(seed)).unwrap();
            samp += metric.dist(q, got) / d_opt / 10.0;
        }
        eprintln!("p = {p}: Far_p {far_p:.3} Tour2 {tour2:.3} Samp {samp:.3}");
        if p == 0.3 {
            assert!(
                samp < far_p / 4.0,
                "p = 0.3: Samp {samp} not 4x below Far_p {far_p}"
            );
        }
        tour2_at.push(tour2);
    }
    assert!(
        tour2_at[1] < tour2_at[0],
        "Tour2 does not decline: {tour2_at:?} at p = 0, 0.3"
    );
}

/// Probabilistic persistent noise (Lemma 3.9 pipeline): the core-voted
/// farthest search keeps the returned point's *rank* small at two noise
/// levels.
#[test]
fn farthest_prob_rank_across_noise_levels() {
    let s = blobs();
    let q = 10;
    for &p in &[0.1, 0.2] {
        let rate = success_rate(8, 160, |seed| {
            let mut oracle = s.probabilistic_oracle(p, 3000 + seed);
            let got = farthest_prob(
                &mut oracle,
                q,
                0.1,
                &AdvParams::experimental(),
                &mut rng(seed),
            )
            .unwrap();
            // Any point of the diametrically opposite blob is near-optimal;
            // rank <= 40 means "inside the farthest blob".
            farthest_rank(&s.metric, q, got) <= 40
        });
        assert!(
            rate >= 0.9,
            "p = {p}: farthest-prob rank held in only {rate} of trials"
        );
    }
}

/// Nearest twin under persistent noise: the returned point stays inside
/// the query's own blob (rank <= 39 of 159 candidates).
#[test]
fn nearest_prob_rank_across_noise_levels() {
    let s = blobs();
    let q = 25;
    for &p in &[0.1, 0.2] {
        let rate = success_rate(8, 190, |seed| {
            let mut oracle = s.probabilistic_oracle(p, 5000 + seed);
            let got = nearest_prob(
                &mut oracle,
                q,
                0.1,
                &AdvParams::experimental(),
                &mut rng(seed),
            )
            .unwrap();
            nearest_rank(&s.metric, q, got) <= 39
        });
        assert!(
            rate >= 0.9,
            "p = {p}: nearest-prob rank held in only {rate} of trials"
        );
    }
}

/// Crowd noise (the Section 6.2 user-study model): worker accuracy is a
/// function of the distance ratio, so on well-separated blobs the farthest
/// search lands in the right blob essentially always.
#[test]
fn farthest_under_crowd_oracle_lands_in_opposite_blob() {
    let s = blobs();
    let q = 5;
    let rate = success_rate(8, 220, |seed| {
        let mut oracle = s.crowd_oracle(AccuracyProfile::monuments_like(), 8800 + seed);
        let got = farthest_adv(&mut oracle, q, &AdvParams::experimental(), &mut rng(seed)).unwrap();
        farthest_rank(&s.metric, q, got) <= 40
    });
    assert!(rate >= 0.9, "crowd farthest held in only {rate} of trials");
}

/// Theorem 4.2 (k-center, adversarial): the greedy-with-Approx-Farthest
/// clustering stays within a constant factor of the Gonzalez reference
/// objective at two noise levels.
#[test]
fn kcenter_adv_theorem_4_2_constant_factor() {
    let s = blobs();
    let g = gonzalez(&s.metric, 4, Some(0));
    let g_obj = kcenter_objective(&s.metric, &g.centers, &g.assignment);
    for &mu in &[0.3, 0.8] {
        let rate = success_rate(8, 250, |seed| {
            let mut oracle = s.adversarial_oracle(mu);
            let c = kcenter_adv(
                &KCenterAdvParams::experimental(4),
                &mut oracle,
                &mut rng(seed),
            );
            kcenter_objective(&s.metric, &c.centers, &c.assignment) <= 8.0 * g_obj.max(1.0)
        });
        assert!(
            rate >= 0.85,
            "mu = {mu}: k-center factor held in only {rate} of trials"
        );
    }
}

/// Theorem 4.4 (k-center, probabilistic): the sampled algorithm with cores
/// stays within a constant factor of Gonzalez, and recovers the planted
/// blobs with high pair-counting F-score.
#[test]
fn kcenter_prob_theorem_4_4_factor_and_fscore() {
    let s = blobs();
    let g = gonzalez(&s.metric, 4, Some(0));
    let g_obj = kcenter_objective(&s.metric, &g.centers, &g.assignment);
    for &p in &[0.1, 0.2] {
        let rate = success_rate(8, 280, |seed| {
            let mut oracle = s.probabilistic_oracle(p, 6000 + seed);
            let params = KCenterProbParams {
                gamma: 8.0,
                ..KCenterProbParams::experimental(4, 40)
            };
            let c = kcenter_prob(&params, &mut oracle, &mut rng(seed));
            let obj_ok =
                kcenter_objective(&s.metric, &c.centers, &c.assignment) <= 8.0 * g_obj.max(1.0);
            let f = pair_f_score(&c.assignment, &s.labels).f1;
            obj_ok && f >= 0.9
        });
        assert!(
            rate >= 0.75,
            "p = {p}: k-center-prob held in only {rate} of trials"
        );
    }
}

/// The exact-oracle degenerate case pins the Theorem 4.4 guarantee hard:
/// no trial may exceed the constant factor, every run must be intra-blob.
#[test]
fn kcenter_prob_exact_oracle_always_recovers() {
    let s = blobs();
    for seed in 0..6 {
        let mut oracle = s.exact_oracle();
        let params = KCenterProbParams {
            first_center: Some(0),
            ..KCenterProbParams::experimental(4, 40)
        };
        let c = kcenter_prob(&params, &mut oracle, &mut rng(seed));
        let g = gonzalez(&s.metric, 4, Some(0));
        assert_kcenter_constant_factor(
            &s.metric,
            &c.centers,
            &c.assignment,
            kcenter_objective(&s.metric, &g.centers, &g.assignment),
            3.0,
            &format!("kcenter_prob exact, seed {seed}"),
        );
    }
}

/// Theorem 5.2 (hierarchical clustering, adversarial): cutting the noisy
/// single-linkage dendrogram at the planted k recovers the blobs.
#[test]
fn hier_oracle_adversarial_recovers_planted_partition() {
    let s = MetricScenario::separated_blobs(4, 30, 70.0, 0x111E);
    for &mu in &[0.3, 0.6] {
        let rate = success_rate(6, 310, |seed| {
            let mut oracle = s.adversarial_oracle(mu);
            let d = hier_oracle(
                &HierParams::experimental(Linkage::Single),
                &mut oracle,
                &mut rng(seed),
            );
            let cut = d.cut(4);
            pair_f_score(&cut, &s.labels).f1 >= 0.95
        });
        assert!(
            rate >= 0.8,
            "mu = {mu}: hierarchy F-score held in only {rate} of trials"
        );
    }
}

/// Hierarchical clustering under persistent probabilistic noise. A single
/// persistent lie can chain two blobs through one bad merge, so per-run
/// F-score is bimodal (perfect or ~0.75 with one pair of blobs fused);
/// the guarantee worth pinning is the distribution: median perfect, floor
/// no worse than one fused pair.
#[test]
fn hier_oracle_probabilistic_recovers_planted_partition() {
    let s = MetricScenario::separated_blobs(4, 30, 70.0, 0x111F);
    let mut scores: Vec<f64> = (0..12u64)
        .map(|seed| {
            let mut oracle = s.probabilistic_oracle(0.1, 7000 + seed);
            let d = hier_oracle(
                &HierParams::experimental(Linkage::Single),
                &mut oracle,
                &mut rng(340 + seed),
            );
            pair_f_score(&d.cut(4), &s.labels).f1
        })
        .collect();
    scores.sort_by(f64::total_cmp);
    assert!(
        scores[scores.len() / 2] >= 0.95,
        "median F-score too low: {scores:?}"
    );
    assert!(
        scores[0] >= 0.7,
        "worst F-score below one-fused-pair floor: {scores:?}"
    );
}

/// Query metering through the full k-center pipeline: the probabilistic
/// algorithm's oracle budget is `O(nk log(n/delta) + (n/m)^2 k log^2)` —
/// at this instance size, far below brute force `n^2 k`.
#[test]
fn kcenter_prob_query_budget() {
    let s = blobs();
    let n = s.n() as u64;
    let mut oracle = Counting::new(s.probabilistic_oracle(0.1, 42));
    let params = KCenterProbParams::experimental(4, 40);
    let _ = kcenter_prob(&params, &mut oracle, &mut rng(21));
    let budget = 4 * n * n; // loose: k * n^2 would be brute force's order
    assert!(
        oracle.queries() <= budget,
        "{} queries exceed {budget}",
        oracle.queries()
    );
}

/// Cross-pipeline reproducibility: identically-seeded runs of the three
/// metric pipelines return identical structures.
#[test]
fn metric_pipelines_are_bit_reproducible() {
    let s = blobs();
    nco_testkit::assert_deterministic("farthest_adv seed 11", || {
        let mut oracle = s.adversarial_oracle(0.5);
        farthest_adv(&mut oracle, 2, &AdvParams::experimental(), &mut rng(11))
    });
    nco_testkit::assert_deterministic("kcenter_prob seed 13", || {
        let mut oracle = s.probabilistic_oracle(0.15, 99);
        let c = kcenter_prob(
            &KCenterProbParams::experimental(4, 40),
            &mut oracle,
            &mut rng(13),
        );
        (c.centers.clone(), c.assignment.clone())
    });
    nco_testkit::assert_deterministic("hier_oracle seed 17", || {
        let mut oracle = s.probabilistic_oracle(0.1, 7);
        let d = hier_oracle(
            &HierParams::experimental(Linkage::Single),
            &mut oracle,
            &mut rng(17),
        );
        d.cut(4)
    });
}
