//! Equivalence guarantees behind the PR-2..PR-5 performance work.
//!
//! Three families of checks:
//!
//! 1. **Memoisation is invisible.** Under every persistent noise model,
//!    an algorithm run over `MemoOracle<O>` must make bit-identical
//!    decisions to the same run over `O` — the persistent-noise property
//!    (Section 2.2) makes the cache semantically exact, and these tests
//!    pin that end to end (max-finding, farthest search, k-center,
//!    hierarchical clustering).
//! 2. **Batch == scalar.** Every oracle's `le_batch` (and every
//!    comparator's `le_round`) must produce bit-identical answers and
//!    identical metered query counts to the scalar loop, across ≥20
//!    seeds and every shipped noise model — including the PR 5 crowd
//!    committee override (per-round distance + answer dedup).
//! 3. **Distance caching is invisible.** Algorithms over
//!    `CachedMetric<M>`-backed oracles make bit-identical decisions with
//!    identical query totals to the same oracles over the raw `M`.

use nco_core::comparator::ValueCmp;
use nco_core::hier::{hier_oracle, HierParams, Linkage};
use nco_core::kcenter::{kcenter_adv, KCenterAdvParams};
use nco_core::maxfind::{max_adv, max_prob, AdvParams, ProbParams};
use nco_core::neighbor::{farthest_adv, nearest_adv};
use nco_oracle::memo::MemoOracle;
use nco_testkit::{MetricScenario, ValueScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Count-Max-Prob over a memoised persistent probabilistic oracle returns
/// exactly what it returns over the raw oracle, for every seed.
#[test]
fn memo_is_bit_identical_for_max_prob() {
    let scenario = ValueScenario::shuffled_linear(300, 11);
    let params = ProbParams::experimental();
    for seed in 0..20u64 {
        let mut raw = scenario.probabilistic_oracle(0.2, 500 + seed);
        let mut memo = MemoOracle::new(scenario.probabilistic_oracle(0.2, 500 + seed));
        let a = max_prob(
            &scenario.items,
            &params,
            &mut ValueCmp::new(&mut raw),
            &mut rng(seed),
        );
        let b = max_prob(
            &scenario.items,
            &params,
            &mut ValueCmp::new(&mut memo),
            &mut rng(seed),
        );
        assert_eq!(a, b, "seed {seed}");
        assert!(memo.lookups() > 0, "memo must have been exercised");
    }
}

/// Max-Adv over a memoised adversarial oracle (worst-case in-band liar —
/// persistent because the strategy is a pure function of the query).
#[test]
fn memo_is_bit_identical_for_max_adv() {
    let scenario = ValueScenario::shuffled_geometric(256, 1.2, 3);
    let params = AdvParams::with_confidence(0.1);
    for seed in 0..20u64 {
        let mut raw = scenario.adversarial_oracle(0.5);
        let mut memo = MemoOracle::new(scenario.adversarial_oracle(0.5));
        let a = max_adv(
            &scenario.items,
            &params,
            &mut ValueCmp::new(&mut raw),
            &mut rng(900 + seed),
        );
        let b = max_adv(
            &scenario.items,
            &params,
            &mut ValueCmp::new(&mut memo),
            &mut rng(900 + seed),
        );
        assert_eq!(a, b, "seed {seed}");
    }
    // Same check under the persistent random in-band strategy.
    for seed in 0..5u64 {
        let mut raw = scenario.adversarial_random_oracle(0.5, 70 + seed);
        let mut memo = MemoOracle::new(scenario.adversarial_random_oracle(0.5, 70 + seed));
        let a = max_adv(
            &scenario.items,
            &params,
            &mut ValueCmp::new(&mut raw),
            &mut rng(40 + seed),
        );
        let b = max_adv(
            &scenario.items,
            &params,
            &mut ValueCmp::new(&mut memo),
            &mut rng(40 + seed),
        );
        assert_eq!(a, b, "random-adversary seed {seed}");
    }
}

/// Farthest/nearest neighbour search over a memoised quadruplet oracle.
#[test]
fn memo_is_bit_identical_for_neighbor_search() {
    let scenario = MetricScenario::separated_blobs(4, 40, 50.0, 17);
    let params = AdvParams::with_confidence(0.1);
    for seed in 0..10u64 {
        let mut raw = scenario.probabilistic_oracle(0.15, 60 + seed);
        let mut memo = MemoOracle::new(scenario.probabilistic_oracle(0.15, 60 + seed));
        let q = (seed as usize * 13) % scenario.n();
        assert_eq!(
            farthest_adv(&mut raw, q, &params, &mut rng(seed)),
            farthest_adv(&mut memo, q, &params, &mut rng(seed)),
            "farthest seed {seed}"
        );
        assert_eq!(
            nearest_adv(&mut raw, q, &params, &mut rng(1000 + seed)),
            nearest_adv(&mut memo, q, &params, &mut rng(1000 + seed)),
            "nearest seed {seed}"
        );
    }
}

/// k-center and the full SLINK hierarchy over memoised quadruplet oracles
/// (crowd noise included — the majority over persistent workers is itself
/// persistent).
#[test]
fn memo_is_bit_identical_for_kcenter_and_hierarchy() {
    let scenario = MetricScenario::separated_blobs(4, 20, 40.0, 23);
    for seed in 0..5u64 {
        let params = KCenterAdvParams::experimental(4);
        let mut raw = scenario.adversarial_oracle(0.3);
        let mut memo = MemoOracle::new(scenario.adversarial_oracle(0.3));
        let a = kcenter_adv(&params, &mut raw, &mut rng(300 + seed));
        let b = kcenter_adv(&params, &mut memo, &mut rng(300 + seed));
        assert_eq!(a.centers, b.centers, "kcenter centers seed {seed}");
        assert_eq!(a.assignment, b.assignment, "kcenter assignment seed {seed}");

        let hier_params = HierParams::experimental(Linkage::Single);
        let mut raw = scenario.probabilistic_oracle(0.1, 80 + seed);
        let mut memo = MemoOracle::new(scenario.probabilistic_oracle(0.1, 80 + seed));
        let da = hier_oracle(&hier_params, &mut raw, &mut rng(600 + seed));
        let db = hier_oracle(&hier_params, &mut memo, &mut rng(600 + seed));
        assert_eq!(da.merges, db.merges, "hierarchy seed {seed}");
        assert!(
            memo.hits() > 0,
            "SLINK revisits pairs; the cache must hit (seed {seed})"
        );
    }
}

mod batch_equivalence {
    use super::*;
    use nco_core::comparator::{Comparator, PairDistCmp, Rev};
    use nco_core::maxfind::count_scores;
    use nco_oracle::adversarial::PersistentRandomAdversary;
    use nco_oracle::crowd::AccuracyProfile;
    use nco_oracle::{ComparisonOracle, Counting, QuadrupletOracle};

    /// A comparator wrapper that deliberately does **not** forward
    /// `le_round`, forcing the trait's default scalar loop — the
    /// reference the batched plumbing is checked against.
    struct ScalarOnly<C>(C);

    impl<I: Copy, C: Comparator<I>> Comparator<I> for ScalarOnly<C> {
        fn le(&mut self, a: I, b: I) -> bool {
            self.0.le(a, b)
        }
    }

    /// Seeded pseudo-random quadruplet batch over `n` records, shaped
    /// like real rounds: a mix of anchored scans, repeated pivots,
    /// mirrored queries and degenerate (tied) pairs.
    fn quad_batch(n: usize, seed: u64, len: usize) -> Vec<[usize; 4]> {
        let mut r = rng(seed);
        use rand::Rng;
        (0..len)
            .map(|i| {
                let a = r.random_range(0..n);
                let b = r.random_range(0..n);
                let c = if i % 3 == 0 { a } else { r.random_range(0..n) };
                let d = if i % 7 == 0 { b } else { r.random_range(0..n) };
                [a, b, c, d]
            })
            .collect()
    }

    fn assert_quad_batch_matches_scalar<O, F>(make: F, label: &str)
    where
        O: QuadrupletOracle,
        F: Fn(u64) -> O,
    {
        for seed in 0..20u64 {
            let mut scalar_oracle = Counting::new(make(seed));
            let mut batch_oracle = Counting::new(make(seed));
            let queries = quad_batch(scalar_oracle.inner().n(), 9000 + seed, 400);
            let scalar: Vec<bool> = queries
                .iter()
                .map(|&[a, b, c, d]| scalar_oracle.le(a, b, c, d))
                .collect();
            let mut batched = Vec::new();
            batch_oracle.le_batch(&queries, &mut batched);
            assert_eq!(scalar, batched, "{label}: answers differ at seed {seed}");
            assert_eq!(
                scalar_oracle.queries(),
                batch_oracle.queries(),
                "{label}: query totals differ at seed {seed}"
            );
        }
    }

    /// Every shipped quadruplet-oracle noise model answers a batch
    /// bit-identically to the scalar loop, with identical metered counts.
    #[test]
    fn quad_le_batch_matches_scalar_for_every_noise_model() {
        let scenario = MetricScenario::separated_blobs(4, 16, 40.0, 31);
        assert_quad_batch_matches_scalar(|_| scenario.exact_oracle(), "exact");
        assert_quad_batch_matches_scalar(
            |seed| scenario.probabilistic_oracle(0.25, seed),
            "probabilistic",
        );
        assert_quad_batch_matches_scalar(|_| scenario.adversarial_oracle(0.4), "adversarial");
        assert_quad_batch_matches_scalar(
            |seed| {
                nco_oracle::adversarial::AdversarialQuadOracle::new(
                    scenario.metric.clone(),
                    0.4,
                    PersistentRandomAdversary::new(seed),
                )
            },
            "adversarial-random",
        );
        assert_quad_batch_matches_scalar(
            |seed| scenario.crowd_oracle(AccuracyProfile::caltech_like(), seed),
            "crowd",
        );
        assert_quad_batch_matches_scalar(
            |seed| MemoOracle::new(scenario.probabilistic_oracle(0.25, seed)),
            "memoised",
        );
    }

    /// The comparison-oracle side of the same property.
    #[test]
    fn value_le_batch_matches_scalar_for_every_noise_model() {
        let scenario = ValueScenario::shuffled_linear(120, 3);
        let mut pair_queries: Vec<(usize, usize)> = Vec::new();
        let mut r = rng(77);
        use rand::Rng;
        for i in 0..400 {
            let a = r.random_range(0..120);
            let b = if i % 5 == 0 {
                a
            } else {
                r.random_range(0..120)
            };
            pair_queries.push((a, b));
        }
        for seed in 0..20u64 {
            let mut scalar = Counting::new(scenario.probabilistic_oracle(0.3, 100 + seed));
            let mut batch = Counting::new(scenario.probabilistic_oracle(0.3, 100 + seed));
            let expect: Vec<bool> = pair_queries.iter().map(|&(i, j)| scalar.le(i, j)).collect();
            let mut got = Vec::new();
            batch.le_batch(&pair_queries, &mut got);
            assert_eq!(expect, got, "seed {seed}");
            assert_eq!(scalar.queries(), batch.queries(), "seed {seed}");
        }
        let mut adv_scalar = Counting::new(scenario.adversarial_oracle(0.5));
        let mut adv_batch = Counting::new(scenario.adversarial_oracle(0.5));
        let expect: Vec<bool> = pair_queries
            .iter()
            .map(|&(i, j)| adv_scalar.le(i, j))
            .collect();
        let mut got = Vec::new();
        adv_batch.le_batch(&pair_queries, &mut got);
        assert_eq!(expect, got);
        assert_eq!(adv_scalar.queries(), adv_batch.queries());
    }

    /// The crowd `le_batch` round (a repeated right-hand pair's distance
    /// read once + short-circuited majority votes) is bit-identical to
    /// the scalar committee loop on repeat-heavy rounds, for both cliff
    /// and flat accuracy profiles, across 20 seeds.
    #[test]
    fn crowd_quad_le_batch_override_matches_scalar_across_20_seeds() {
        let scenario = MetricScenario::separated_blobs(4, 12, 30.0, 41);
        let n = scenario.n();
        for profile in [
            AccuracyProfile::caltech_like(),
            AccuracyProfile::amazon_like(),
        ] {
            for seed in 0..20u64 {
                let mut scalar = Counting::new(scenario.crowd_oracle(profile, 7000 + seed));
                let mut batch = Counting::new(scenario.crowd_oracle(profile, 7000 + seed));
                // A Count-Max-pool-shaped round: p(p-1)/2 queries over only
                // p distinct pairs — the dedup-heavy case — plus mirrored
                // and degenerate queries.
                let pairs: Vec<(usize, usize)> = (0..8)
                    .map(|i| ((i * 5) % n, ((i * 5) + 1 + i % 3) % n))
                    .collect();
                let mut queries: Vec<[usize; 4]> = Vec::new();
                for i in 0..pairs.len() {
                    for j in 0..pairs.len() {
                        if i != j {
                            let (a, b) = pairs[i];
                            let (c, d) = pairs[j];
                            queries.push([a, b, c, d]);
                            queries.push([b, a, c, d]);
                        }
                    }
                }
                queries.extend(quad_batch(n, 9500 + seed, 150));
                let expect: Vec<bool> = queries
                    .iter()
                    .map(|&[a, b, c, d]| scalar.le(a, b, c, d))
                    .collect();
                let mut got = Vec::new();
                batch.le_batch(&queries, &mut got);
                assert_eq!(expect, got, "profile {profile:?}, seed {seed}");
                assert_eq!(scalar.queries(), batch.queries(), "seed {seed}");
            }
        }
    }

    /// The value shape: `CrowdValueOracle::le_batch` answers repeated
    /// canonical pairs bit-identically to the scalar loop.
    #[test]
    fn crowd_value_le_batch_override_matches_scalar_across_20_seeds() {
        use nco_oracle::crowd::CrowdValueOracle;
        let values: Vec<f64> = (1..=60).map(|i| (i * i) as f64).collect();
        for profile in [
            AccuracyProfile::caltech_like(),
            AccuracyProfile::amazon_like(),
        ] {
            for seed in 0..20u64 {
                let mut scalar =
                    Counting::new(CrowdValueOracle::new(values.clone(), profile, 3, 80 + seed));
                let mut batch =
                    Counting::new(CrowdValueOracle::new(values.clone(), profile, 3, 80 + seed));
                let mut queries: Vec<(usize, usize)> = Vec::new();
                let mut r = rng(1200 + seed);
                use rand::Rng;
                for i in 0..300 {
                    let a = r.random_range(0..60);
                    // Heavy repetition: a small anchor set keeps recurring.
                    let b = if i % 2 == 0 {
                        (i / 2) % 7
                    } else {
                        r.random_range(0..60)
                    };
                    queries.push((a, b));
                    queries.push((b, a));
                }
                let expect: Vec<bool> = queries.iter().map(|&(i, j)| scalar.le(i, j)).collect();
                let mut got = Vec::new();
                batch.le_batch(&queries, &mut got);
                assert_eq!(expect, got, "profile {profile:?}, seed {seed}");
                assert_eq!(scalar.queries(), batch.queries(), "seed {seed}");
            }
        }
    }

    /// Runs `engine` over a fresh oracle from `make` twice, once through
    /// `ScalarOnly(ValueCmp)` and once through `ValueCmp`'s batched
    /// rounds, and asserts equal outputs and equal metered query totals.
    fn assert_value_engine_matches_scalar<O, T>(
        make: impl Fn() -> O,
        engine: impl Fn(&mut dyn Comparator<usize>) -> T,
        label: &str,
    ) where
        O: ComparisonOracle,
        T: PartialEq + std::fmt::Debug,
    {
        let mut scalar_oracle = Counting::new(make());
        let mut batched_oracle = Counting::new(make());
        let scalar = engine(&mut ScalarOnly(ValueCmp::new(&mut scalar_oracle)));
        let batched = engine(&mut ValueCmp::new(&mut batched_oracle));
        assert_eq!(scalar, batched, "{label}: outputs differ");
        assert_eq!(
            scalar_oracle.queries(),
            batched_oracle.queries(),
            "{label}: query totals differ"
        );
    }

    /// The ordering engines answer and bill through `ValueCmp`'s batched
    /// rounds exactly what they answer and bill through the scalar
    /// comparator loop: `sort_prob` and `select_prob` under persistent
    /// probabilistic noise, `sort_adv` and `partition_adv` under a
    /// persistent random adversary, across 20 seeds.
    #[test]
    fn order_engines_batched_match_scalar_across_20_seeds() {
        use nco_core::order::{
            partition_adv, select_prob, sort_adv, sort_prob, OrderAdvParams, OrderProbParams,
        };
        let scenario = ValueScenario::shuffled_linear(160, 19);
        let items: Vec<usize> = (0..scenario.n()).collect();
        let prob = OrderProbParams::experimental();
        let adv = OrderAdvParams::experimental();
        for seed in 0..20u64 {
            let noisy = || scenario.probabilistic_oracle(0.2, 400 + seed);
            assert_value_engine_matches_scalar(
                noisy,
                |mut cmp| sort_prob(&items, &prob, &mut cmp),
                &format!("sort_prob seed {seed}"),
            );
            assert_value_engine_matches_scalar(
                noisy,
                |mut cmp| select_prob(&items, 20, &prob, &mut cmp, &mut rng(seed)),
                &format!("select_prob seed {seed}"),
            );
            let adversarial = || scenario.adversarial_random_oracle(0.3, 500 + seed);
            assert_value_engine_matches_scalar(
                adversarial,
                |mut cmp| sort_adv(&items, &adv, &mut cmp),
                &format!("sort_adv seed {seed}"),
            );
            assert_value_engine_matches_scalar(
                adversarial,
                |mut cmp| partition_adv(&items, 20, &adv, &mut cmp, &mut rng(seed)),
                &format!("partition_adv seed {seed}"),
            );
        }
    }

    /// Scores and billed queries of `count_scores` through the shared
    /// pair-distance comparator with key `key`, batched vs `ScalarOnly`,
    /// in the max, `Rev` and `Rev(Rev(..))` orientations (the double
    /// reversal flips back through `le_round_rev`).
    fn assert_key_round_matches_scalar<I, K>(
        scenario: &MetricScenario,
        seed: u64,
        items: &[I],
        key: K,
        label: &str,
    ) where
        I: Copy,
        K: Fn(I) -> (usize, usize) + Copy,
    {
        for orientation in ["max", "rev", "rev-rev"] {
            let mut scalar_oracle = Counting::new(scenario.probabilistic_oracle(0.2, seed));
            let mut batched_oracle = Counting::new(scenario.probabilistic_oracle(0.2, seed));
            let scalar = PairDistCmp::new(&mut scalar_oracle, key);
            let mut batched = PairDistCmp::new(&mut batched_oracle, key);
            let (scalar, batched) = match orientation {
                "max" => (
                    count_scores(items, &mut ScalarOnly(scalar)),
                    count_scores(items, &mut batched),
                ),
                "rev" => (
                    count_scores(items, &mut ScalarOnly(Rev(scalar))),
                    count_scores(items, &mut Rev(batched)),
                ),
                _ => (
                    count_scores(items, &mut ScalarOnly(Rev(Rev(scalar)))),
                    count_scores(items, &mut Rev(Rev(batched))),
                ),
            };
            let case = format!("{label} {orientation} seed {seed}");
            assert_eq!(scalar, batched, "{case}");
            assert_eq!(scalar_oracle.queries(), batched_oracle.queries(), "{case}");
        }
    }

    /// The Count-Max scoring triangle routed through `le_round` produces
    /// the scores (and bills the queries) of the scalar double loop — for
    /// every key shape the shared pair-distance comparator serves (query
    /// anchored, identity over record pairs, assigned center), in the
    /// plain, reversed and doubly reversed orientations.
    #[test]
    fn count_scores_round_matches_scalar_loop() {
        use rand::Rng;
        let scenario = MetricScenario::separated_blobs(3, 20, 30.0, 7);
        let n = scenario.n();
        for seed in 0..20u64 {
            let items: Vec<usize> = (0..n).step_by(2).collect();
            let q = ((seed as usize * 7) % n) | 1; // odd: not in items
            assert_key_round_matches_scalar(&scenario, seed, &items, |v| (q, v), "query");

            let mut r = rng(1500 + seed);
            let pairs: Vec<(usize, usize)> = (0..24)
                .map(|_| (r.random_range(0..n), r.random_range(0..n)))
                .collect();
            assert_key_round_matches_scalar(&scenario, seed, &pairs, |p| p, "identity");

            let centers: Vec<usize> = (0..4).map(|j| (seed as usize + 15 * j) % n).collect();
            let assignment: Vec<usize> = (0..n).map(|_| r.random_range(0..centers.len())).collect();
            let assigned = |v: usize| (v, centers[assignment[v]]);
            assert_key_round_matches_scalar(&scenario, seed, &items, assigned, "assigned");
        }
    }

    /// Records every query that reaches it, in order, and counts the
    /// batched rounds and the scalar asks.
    struct Recording {
        inner: Box<dyn QuadrupletOracle>,
        queries: Vec<[usize; 4]>,
        rounds: usize,
        scalar: usize,
    }

    impl Recording {
        fn new(inner: Box<dyn QuadrupletOracle>) -> Self {
            Self {
                inner,
                queries: Vec::new(),
                rounds: 0,
                scalar: 0,
            }
        }
    }

    impl QuadrupletOracle for Recording {
        fn n(&self) -> usize {
            self.inner.n()
        }

        fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
            self.scalar += 1;
            self.queries.push([a, b, c, d]);
            self.inner.le(a, b, c, d)
        }

        fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
            self.rounds += 1;
            self.queries.extend_from_slice(queries);
            self.inner.le_batch(queries, out);
        }
    }

    /// Forwards scalar asks only: its `le_batch` is the trait's default
    /// loop of `le` calls, so every round reaches the oracle below as
    /// scalar asks.
    struct ScalarAsks<O>(O);

    impl<O: QuadrupletOracle> QuadrupletOracle for ScalarAsks<O> {
        fn n(&self) -> usize {
            self.0.n()
        }

        fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
            self.0.le(a, b, c, d)
        }
    }

    /// Runs `engine` over a recording oracle from `make` and over a
    /// scalar-only twin, and asserts equal answers and the identical query
    /// sequence. Returns the batched run's queries, rounds and scalar asks.
    fn assert_metric_engine_matches_scalar<T: PartialEq + std::fmt::Debug>(
        make: impl Fn() -> Box<dyn QuadrupletOracle>,
        engine: impl Fn(&mut dyn QuadrupletOracle) -> T,
        label: &str,
    ) -> (usize, usize, usize) {
        let mut batched = Recording::new(make());
        let mut scalar = ScalarAsks(Recording::new(make()));
        let got = engine(&mut batched);
        let expect = engine(&mut scalar);
        assert_eq!(got, expect, "{label}: answers differ");
        assert_eq!(scalar.0.rounds, 0, "{label}");
        assert!(
            batched.queries == scalar.0.queries,
            "{label}: query sequences differ"
        );
        (batched.queries.len(), batched.rounds, batched.scalar)
    }

    /// The metric engines whose independent committees go out as whole
    /// waves — k-center's Assign under both noise models, ClusterComp and
    /// PairwiseComp tournament levels, the core-set scoring — answer and
    /// ask exactly as they do when every query reaches the oracle as a
    /// scalar ask, under the exact, adversarial, probabilistic and crowd
    /// models across 20 seeds; and they ask in far fewer rounds than
    /// committees, the probabilistic ones without a single scalar ask.
    #[test]
    fn metric_engines_ask_waves_in_scalar_order_across_20_seeds() {
        use nco_core::kcenter::{kcenter_prob, KCenterProbParams};
        use nco_core::neighbor::{farthest_prob, nearest_prob};
        let scenario = MetricScenario::separated_blobs(4, 12, 30.0, 23);
        let n = scenario.n();
        let adv = KCenterAdvParams::experimental(4);
        let prob = KCenterProbParams::experimental(4, 12);
        let search = AdvParams::experimental();
        for seed in 0..20u64 {
            let q = (seed as usize * 5) % n;
            for model in ["exact", "adversarial", "probabilistic", "crowd"] {
                let make = || -> Box<dyn QuadrupletOracle> {
                    match model {
                        "exact" => Box::new(scenario.exact_oracle()),
                        "adversarial" => Box::new(scenario.adversarial_oracle(0.3)),
                        "probabilistic" => Box::new(scenario.probabilistic_oracle(0.15, seed)),
                        _ => Box::new(scenario.crowd_oracle(AccuracyProfile::caltech_like(), seed)),
                    }
                };
                let label = |engine: &str| format!("{engine}, {model}, seed {seed}");
                let (queries, rounds, _) = assert_metric_engine_matches_scalar(
                    make,
                    |mut o| kcenter_adv(&adv, &mut o, &mut rng(seed)),
                    &label("kcenter_adv"),
                );
                // One Assign wave per new center, not one round per point.
                assert!(queries > 10 * rounds, "{}", label("kcenter_adv"));
                // The probabilistic engines ask no scalar query at all (the
                // sample holds every point, so Assign-Final never votes).
                let (_, _, scalar) = assert_metric_engine_matches_scalar(
                    make,
                    |mut o| kcenter_prob(&prob, &mut o, &mut rng(seed)),
                    &label("kcenter_prob"),
                );
                assert_eq!(scalar, 0, "{}", label("kcenter_prob"));
                let (_, _, scalar) = assert_metric_engine_matches_scalar(
                    make,
                    |mut o| nearest_prob(&mut o, q, 0.1, &search, &mut rng(seed)),
                    &label("nearest_prob"),
                );
                assert_eq!(scalar, 0, "{}", label("nearest_prob"));
                let (_, _, scalar) = assert_metric_engine_matches_scalar(
                    make,
                    |mut o| farthest_prob(&mut o, q, 0.1, &search, &mut rng(seed)),
                    &label("farthest_prob"),
                );
                assert_eq!(scalar, 0, "{}", label("farthest_prob"));
            }
        }
    }

    /// FNV-1a over a query transcript.
    fn transcript_digest(queries: &[[usize; 4]]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &x in queries.iter().flatten() {
            for byte in (x as u64).to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The waves ask exactly the queries, in exactly the order, that the
    /// engines asked when every committee was its own round: FNV-1a
    /// digests of each engine's transcript under each noise model, pinned
    /// from that one-round-per-committee build.
    #[test]
    fn wave_transcripts_match_the_one_round_per_committee_engines() {
        use nco_core::kcenter::{kcenter_prob, KCenterProbParams};
        use nco_core::neighbor::{farthest_prob, nearest_prob};
        let scenario = MetricScenario::separated_blobs(4, 12, 30.0, 23);
        let adv = KCenterAdvParams::experimental(4);
        let prob = KCenterProbParams::experimental(4, 12);
        let search = AdvParams::experimental();
        const PINNED: [[u64; 4]; 4] = [
            [
                0xe450_cdb0_2753_5b5d,
                0xf34e_fe68_939c_c499,
                0xcf8c_f959_9032_bd14,
                0xbac8_0a89_245e_4b14,
            ],
            [
                0x54f6_c2bf_f75f_9777,
                0xf8e5_bd1d_37b8_6d15,
                0xebfe_2f3e_aa53_8494,
                0xf9c1_5004_bbff_bc94,
            ],
            [
                0x5b58_13dd_11ed_1d88,
                0x4326_9db0_9e08_29d7,
                0xabc4_e63d_4d47_5194,
                0xaaf6_3a34_9ea0_dc94,
            ],
            [
                0x22fd_5ca5_0d44_417d,
                0x889a_a976_1f7b_c754,
                0xd943_ec2f_c4df_8d94,
                0xd5ce_beea_f4d6_0d94,
            ],
        ];
        for (model, pinned) in ["exact", "adversarial", "probabilistic", "crowd"]
            .into_iter()
            .zip(PINNED)
        {
            let make = || -> Box<dyn QuadrupletOracle> {
                match model {
                    "exact" => Box::new(scenario.exact_oracle()),
                    "adversarial" => Box::new(scenario.adversarial_oracle(0.3)),
                    "probabilistic" => Box::new(scenario.probabilistic_oracle(0.15, 3)),
                    _ => Box::new(scenario.crowd_oracle(AccuracyProfile::caltech_like(), 3)),
                }
            };
            let mut digests = Vec::new();
            let mut digest = |run: &dyn Fn(&mut Recording)| {
                let mut o = Recording::new(make());
                run(&mut o);
                digests.push(transcript_digest(&o.queries));
            };
            digest(&|mut o| {
                kcenter_adv(&adv, &mut o, &mut rng(3));
            });
            digest(&|mut o| {
                kcenter_prob(&prob, &mut o, &mut rng(3));
            });
            digest(&|mut o| {
                nearest_prob(&mut o, 7, 0.1, &search, &mut rng(3));
            });
            digest(&|mut o| {
                farthest_prob(&mut o, 7, 0.1, &search, &mut rng(3));
            });
            // kcenter_adv, kcenter_prob, nearest_prob, farthest_prob.
            assert_eq!(digests, pinned, "{model}");
        }
    }
}

mod dist_cache_equivalence {
    use super::*;
    use nco_metric::CachedMetric;
    use nco_oracle::adversarial::{AdversarialQuadOracle, InvertAdversary};
    use nco_oracle::probabilistic::ProbQuadOracle;
    use nco_oracle::Counting;

    /// Neighbour searches, k-center and the SLINK hierarchy over a
    /// `CachedMetric`-backed oracle are bit-identical — outputs and query
    /// totals — to the same runs over the raw metric, across 20 seeds.
    /// (The cache returns the lazy metric's own `f64`s, so persistent
    /// noise cannot observe it.)
    #[test]
    fn cached_metric_is_bit_identical_end_to_end() {
        let scenario = MetricScenario::separated_blobs(4, 24, 45.0, 29);
        let params = AdvParams::with_confidence(0.1);
        for seed in 0..20u64 {
            let raw_metric = scenario.metric.clone();
            let cached = CachedMetric::new(scenario.metric.clone());
            let q = (seed as usize * 11) % scenario.n();

            let mut raw = Counting::new(ProbQuadOracle::new(raw_metric.clone(), 0.15, seed));
            let mut opt = Counting::new(ProbQuadOracle::new(&cached, 0.15, seed));
            assert_eq!(
                farthest_adv(&mut raw, q, &params, &mut rng(seed)),
                farthest_adv(&mut opt, q, &params, &mut rng(seed)),
                "farthest seed {seed}"
            );
            assert_eq!(
                nearest_adv(&mut raw, q, &params, &mut rng(50 + seed)),
                nearest_adv(&mut opt, q, &params, &mut rng(50 + seed)),
                "nearest seed {seed}"
            );
            assert_eq!(raw.queries(), opt.queries(), "neighbor queries seed {seed}");

            let kparams = KCenterAdvParams::experimental(4);
            let mut raw = Counting::new(AdversarialQuadOracle::new(
                raw_metric.clone(),
                0.3,
                InvertAdversary,
            ));
            let mut opt = Counting::new(AdversarialQuadOracle::new(&cached, 0.3, InvertAdversary));
            let a = kcenter_adv(&kparams, &mut raw, &mut rng(200 + seed));
            let b = kcenter_adv(&kparams, &mut opt, &mut rng(200 + seed));
            assert_eq!(a.centers, b.centers, "kcenter centers seed {seed}");
            assert_eq!(a.assignment, b.assignment, "kcenter assignment seed {seed}");
            assert_eq!(raw.queries(), opt.queries(), "kcenter queries seed {seed}");
        }
        // Hierarchy once per a few seeds (it is the slow one).
        for seed in 0..5u64 {
            let cached = CachedMetric::new(scenario.metric.clone());
            let hier_params = HierParams::experimental(Linkage::Single);
            let mut raw =
                Counting::new(ProbQuadOracle::new(scenario.metric.clone(), 0.1, 70 + seed));
            let mut opt = Counting::new(ProbQuadOracle::new(&cached, 0.1, 70 + seed));
            let da = hier_oracle(&hier_params, &mut raw, &mut rng(600 + seed));
            let db = hier_oracle(&hier_params, &mut opt, &mut rng(600 + seed));
            assert_eq!(da.merges, db.merges, "hierarchy seed {seed}");
            assert_eq!(
                raw.queries(),
                opt.queries(),
                "hierarchy queries seed {seed}"
            );
            assert!(
                cached.cache().filled() > 0,
                "the cache must have been exercised"
            );
        }
    }
}

/// Round accounting is exact under memoisation: `RunReport.rounds` for a
/// memoised run equals the plain run's count (the memo used to decompose
/// rounds into scalar lookups, reading 0).
mod round_accounting {
    use nco_core::hier::Linkage;
    use noisy_oracle::{Noise, Session, Task};

    #[test]
    fn memoised_sessions_report_the_same_rounds_as_plain_across_20_seeds() {
        let points: Vec<Vec<f64>> = (0..48)
            .map(|i| vec![(i % 7) as f64 * 1.9, (i / 7) as f64])
            .collect();
        for seed in 0..20u64 {
            for task in [
                Task::Hierarchy {
                    linkage: Linkage::Single,
                },
                Task::KCenter { k: 4 },
                Task::Farthest {
                    q: seed as usize % 48,
                },
            ] {
                let build = |memo: bool| {
                    Session::builder()
                        .points(&points)
                        .noise(Noise::Probabilistic {
                            p: 0.15,
                            seed: 9000 + seed,
                        })
                        .memoize(memo)
                        .seed(seed)
                        .build()
                        .unwrap()
                };
                let plain = build(false).run(task).unwrap();
                let memo = build(true).run(task).unwrap();
                assert_eq!(
                    plain.answer, memo.answer,
                    "answer differs at seed {seed}, {task:?}"
                );
                assert_eq!(
                    plain.report.rounds, memo.report.rounds,
                    "round totals differ at seed {seed}, {task:?}"
                );
                if matches!(task, Task::Hierarchy { .. }) {
                    assert!(
                        plain.report.rounds > 0,
                        "hierarchy runs are round-driven (seed {seed})"
                    );
                    assert!(
                        memo.report.memo_hits.unwrap() > 0,
                        "repeats should hit the memo (seed {seed})"
                    );
                }
            }
        }
    }

    /// `RunReport.rounds` of a k-center request under each noise model
    /// and of a probabilistic nearest-neighbour request: the independent
    /// committees of a wave share a round, so a return to one round per
    /// committee vote moves these pins.
    #[test]
    fn kcenter_and_probabilistic_nearest_rounds_are_pinned() {
        let points: Vec<Vec<f64>> = (0..48)
            .map(|i| vec![(i % 7) as f64 * 1.9, (i / 7) as f64])
            .collect();
        let run = |noise: Noise, task: Task| {
            let outcome = Session::builder()
                .points(&points)
                .noise(noise)
                .seed(5)
                .build()
                .unwrap()
                .run(task)
                .unwrap();
            (outcome.report.queries, outcome.report.rounds)
        };
        let prob = Noise::Probabilistic { p: 0.15, seed: 77 };
        let adv = Noise::Adversarial { mu: 0.2 };
        // (queries, rounds); one round per committee read (5693, 478),
        // (608, 147) and (5634, 118), the nearest request's core-set
        // scoring asking scalar queries outside any round.
        assert_eq!(run(prob, Task::KCenter { k: 4 }), (5693, 19));
        assert_eq!(run(adv, Task::KCenter { k: 4 }), (608, 15));
        assert_eq!(run(prob, Task::Nearest { q: 9 }), (5634, 5));
    }
}
