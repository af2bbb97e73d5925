//! Facade-vs-direct bit-equivalence: for every `Task` variant under every
//! noise model, `Session::run` must return the same answer *and* the same
//! oracle-query count as hand-wiring the oracle, comparator, parameters
//! and rng around the low-level APIs — across 20 seeds. This is the
//! contract that makes the front door safe to adopt: it can never change
//! a result, only package it.
//!
//! Also pinned here: deterministic budget enforcement exactly at the
//! configured cap, and `RunReport.queries == Counting`'s tally.

use noisy_oracle::core::comparator::ValueCmp;
use noisy_oracle::core::hier::{hier_oracle, Dendrogram, HierParams, Linkage};
use noisy_oracle::core::kcenter::{
    kcenter_adv, kcenter_prob, Clustering, KCenterAdvParams, KCenterProbParams,
};
use noisy_oracle::core::maxfind::{
    max_adv, max_prob, top_k_adv, top_k_prob, AdvParams, ProbParams,
};
use noisy_oracle::core::neighbor::{farthest_adv, farthest_prob, nearest_adv, nearest_prob};
use noisy_oracle::core::order::{
    partition_adv, partition_prob, select_adv, select_prob, sort_adv, sort_prob, OrderAdvParams,
    OrderProbParams, Split,
};
use noisy_oracle::metric::EuclideanMetric;
use noisy_oracle::oracle::adversarial::{
    AdversarialQuadOracle, AdversarialValueOracle, InvertAdversary,
};
use noisy_oracle::oracle::crowd::{AccuracyProfile, CrowdQuadOracle, CrowdValueOracle};
use noisy_oracle::oracle::probabilistic::{ProbQuadOracle, ProbValueOracle};
use noisy_oracle::oracle::{
    ComparisonOracle, Counting, QuadrupletOracle, TrueQuadOracle, TrueValueOracle,
};
use noisy_oracle::{NcoError, Noise, Session, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: u64 = 20;
const MU: f64 = 0.4;
const P: f64 = 0.15;
const WORKERS: u32 = 3;

fn noise_models(seed: u64) -> Vec<Noise> {
    vec![
        Noise::Exact,
        Noise::Adversarial { mu: MU },
        Noise::Probabilistic { p: P, seed },
        Noise::Crowd {
            profile: AccuracyProfile::caltech_like(),
            workers: WORKERS,
            seed,
        },
    ]
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 53) % 97) as f64).collect()
}

fn points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i % 9) as f64, ((i * 7) % 13) as f64 * 0.8])
        .collect()
}

fn direct_value_answer(
    task: Task,
    noise: Noise,
    vals: &[f64],
    rng_seed: u64,
) -> (Option<usize>, Vec<usize>, u64) {
    fn drive<O: ComparisonOracle>(
        task: Task,
        statistical: bool,
        mut oracle: Counting<O>,
        rng_seed: u64,
    ) -> (Option<usize>, Vec<usize>, u64) {
        let items: Vec<usize> = (0..oracle.n()).collect();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let mut cmp = ValueCmp::new(&mut oracle);
        let (item, list) = match task {
            Task::Max => {
                let best = if statistical {
                    max_prob(&items, &ProbParams::default(), &mut cmp, &mut rng)
                } else {
                    max_adv(&items, &AdvParams::default(), &mut cmp, &mut rng)
                };
                (best, Vec::new())
            }
            Task::TopK { k } => {
                let top = if statistical {
                    top_k_prob(&items, k, &ProbParams::default(), &mut cmp, &mut rng)
                } else {
                    top_k_adv(&items, k, &AdvParams::default(), &mut cmp, &mut rng)
                };
                (None, top)
            }
            _ => unreachable!("value tasks only"),
        };
        (item, list, oracle.queries())
    }
    let statistical = matches!(noise, Noise::Probabilistic { .. } | Noise::Crowd { .. });
    match noise {
        Noise::Exact => drive(
            task,
            statistical,
            Counting::new(TrueValueOracle::new(vals.to_vec())),
            rng_seed,
        ),
        Noise::Adversarial { mu } => drive(
            task,
            statistical,
            Counting::new(AdversarialValueOracle::new(
                vals.to_vec(),
                mu,
                InvertAdversary,
            )),
            rng_seed,
        ),
        Noise::Probabilistic { p, seed } => drive(
            task,
            statistical,
            Counting::new(ProbValueOracle::new(vals.to_vec(), p, seed)),
            rng_seed,
        ),
        Noise::Crowd {
            profile,
            workers,
            seed,
        } => drive(
            task,
            statistical,
            Counting::new(CrowdValueOracle::new(vals.to_vec(), profile, workers, seed)),
            rng_seed,
        ),
        _ => unreachable!("all shipped noise models covered above"),
    }
}

enum QuadAnswer {
    Item(Option<usize>),
    Clustering(Clustering),
    Dendrogram(Dendrogram),
}

fn direct_quad_answer(
    task: Task,
    noise: Noise,
    metric: &EuclideanMetric,
    rng_seed: u64,
    min_cluster_promise: Option<usize>,
) -> (QuadAnswer, u64) {
    fn drive<O: QuadrupletOracle + noisy_oracle::oracle::PersistentNoise>(
        task: Task,
        statistical: bool,
        mut oracle: Counting<O>,
        rng_seed: u64,
        m_promise: Option<usize>,
    ) -> (QuadAnswer, u64) {
        let n = oracle.n();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let ans = match task {
            Task::Farthest { q } => QuadAnswer::Item(if statistical {
                farthest_prob(&mut oracle, q, 0.1, &AdvParams::default(), &mut rng)
            } else {
                farthest_adv(&mut oracle, q, &AdvParams::default(), &mut rng)
            }),
            Task::Nearest { q } => QuadAnswer::Item(if statistical {
                nearest_prob(&mut oracle, q, 0.1, &AdvParams::default(), &mut rng)
            } else {
                nearest_adv(&mut oracle, q, &AdvParams::default(), &mut rng)
            }),
            Task::KCenter { k } => QuadAnswer::Clustering(if statistical {
                let m = m_promise.unwrap_or_else(|| (n / (2 * k)).max(1));
                kcenter_prob(
                    &KCenterProbParams::experimental(k, m),
                    &mut oracle,
                    &mut rng,
                )
            } else {
                kcenter_adv(&KCenterAdvParams::experimental(k), &mut oracle, &mut rng)
            }),
            Task::Hierarchy { linkage } => QuadAnswer::Dendrogram(hier_oracle(
                &HierParams::experimental(linkage),
                &mut oracle,
                &mut rng,
            )),
            _ => unreachable!("metric tasks only"),
        };
        (ans, oracle.queries())
    }
    let statistical = matches!(noise, Noise::Probabilistic { .. } | Noise::Crowd { .. });
    match noise {
        Noise::Exact => drive(
            task,
            statistical,
            Counting::new(TrueQuadOracle::new(metric.clone())),
            rng_seed,
            min_cluster_promise,
        ),
        Noise::Adversarial { mu } => drive(
            task,
            statistical,
            Counting::new(AdversarialQuadOracle::new(
                metric.clone(),
                mu,
                InvertAdversary,
            )),
            rng_seed,
            min_cluster_promise,
        ),
        Noise::Probabilistic { p, seed } => drive(
            task,
            statistical,
            Counting::new(ProbQuadOracle::new(metric.clone(), p, seed)),
            rng_seed,
            min_cluster_promise,
        ),
        Noise::Crowd {
            profile,
            workers,
            seed,
        } => drive(
            task,
            statistical,
            Counting::new(CrowdQuadOracle::new(metric.clone(), profile, workers, seed)),
            rng_seed,
            min_cluster_promise,
        ),
        _ => unreachable!("all shipped noise models covered above"),
    }
}

enum OrderAnswer {
    Ranking(Vec<usize>),
    Item(Option<usize>),
    Split(Split<usize>),
}

/// Hand-wired twin of the facade's ordering dispatch: same oracle, same
/// comparator, same params resolution (defaults — the sessions under
/// test set no confidence), same rng seeding.
fn direct_order_answer(
    task: Task,
    noise: Noise,
    vals: &[f64],
    rng_seed: u64,
) -> (OrderAnswer, u64) {
    fn drive<O: ComparisonOracle>(
        task: Task,
        statistical: bool,
        mut oracle: Counting<O>,
        rng_seed: u64,
    ) -> (OrderAnswer, u64) {
        let items: Vec<usize> = (0..oracle.n()).collect();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let mut cmp = ValueCmp::new(&mut oracle);
        let ans = match task {
            Task::Sort => OrderAnswer::Ranking(if statistical {
                sort_prob(&items, &OrderProbParams::default(), &mut cmp)
            } else {
                sort_adv(&items, &OrderAdvParams::default(), &mut cmp)
            }),
            Task::Select { k } => OrderAnswer::Item(if statistical {
                select_prob(&items, k, &OrderProbParams::default(), &mut cmp, &mut rng)
            } else {
                select_adv(&items, k, &OrderAdvParams::default(), &mut cmp, &mut rng)
            }),
            Task::Partition { k } => OrderAnswer::Split(if statistical {
                partition_prob(&items, k, &OrderProbParams::default(), &mut cmp, &mut rng)
            } else {
                partition_adv(&items, k, &OrderAdvParams::default(), &mut cmp, &mut rng)
            }),
            _ => unreachable!("order tasks only"),
        };
        (ans, oracle.queries())
    }
    let statistical = matches!(noise, Noise::Probabilistic { .. } | Noise::Crowd { .. });
    match noise {
        Noise::Exact => drive(
            task,
            statistical,
            Counting::new(TrueValueOracle::new(vals.to_vec())),
            rng_seed,
        ),
        Noise::Adversarial { mu } => drive(
            task,
            statistical,
            Counting::new(AdversarialValueOracle::new(
                vals.to_vec(),
                mu,
                InvertAdversary,
            )),
            rng_seed,
        ),
        Noise::Probabilistic { p, seed } => drive(
            task,
            statistical,
            Counting::new(ProbValueOracle::new(vals.to_vec(), p, seed)),
            rng_seed,
        ),
        Noise::Crowd {
            profile,
            workers,
            seed,
        } => drive(
            task,
            statistical,
            Counting::new(CrowdValueOracle::new(vals.to_vec(), profile, workers, seed)),
            rng_seed,
        ),
        _ => unreachable!("all shipped noise models covered above"),
    }
}

#[test]
fn value_tasks_match_direct_calls_across_seeds_and_noise_models() {
    let vals = values(96);
    for seed in 0..SEEDS {
        for noise in noise_models(1000 + seed) {
            for task in [Task::Max, Task::TopK { k: 5 }] {
                let session = Session::builder()
                    .values(vals.clone())
                    .noise(noise)
                    .seed(seed)
                    .build()
                    .unwrap();
                let outcome = session.run(task).unwrap();
                let (item, list, queries) = direct_value_answer(task, noise, &vals, seed);
                match task {
                    Task::Max => assert_eq!(
                        outcome.answer.item(),
                        item,
                        "Max answer diverged ({noise:?}, seed {seed})"
                    ),
                    Task::TopK { .. } => assert_eq!(
                        outcome.answer.items().unwrap(),
                        &list[..],
                        "TopK answer diverged ({noise:?}, seed {seed})"
                    ),
                    _ => unreachable!(),
                }
                assert_eq!(
                    outcome.report.queries, queries,
                    "query count diverged ({task:?}, {noise:?}, seed {seed})"
                );
            }
        }
    }
}

#[test]
fn order_tasks_match_direct_calls_across_seeds_and_noise_models() {
    let vals = values(96);
    let tasks = [Task::Sort, Task::Select { k: 7 }, Task::Partition { k: 7 }];
    for seed in 0..SEEDS {
        for noise in noise_models(4000 + seed) {
            for task in tasks {
                let session = Session::builder()
                    .values(vals.clone())
                    .noise(noise)
                    .seed(seed)
                    .build()
                    .unwrap();
                let outcome = session.run(task).unwrap();
                let (direct, queries) = direct_order_answer(task, noise, &vals, seed);
                match direct {
                    OrderAnswer::Ranking(r) => assert_eq!(
                        outcome.answer.ranking(),
                        Some(&r[..]),
                        "ranking diverged ({noise:?}, seed {seed})"
                    ),
                    OrderAnswer::Item(i) => assert_eq!(
                        outcome.answer.item(),
                        i,
                        "selected item diverged ({noise:?}, seed {seed})"
                    ),
                    OrderAnswer::Split(s) => assert_eq!(
                        outcome.answer.partition(),
                        Some((&s.top[..], &s.rest[..])),
                        "partition diverged ({noise:?}, seed {seed})"
                    ),
                }
                assert_eq!(
                    outcome.report.queries, queries,
                    "query count diverged ({task:?}, {noise:?}, seed {seed})"
                );
            }
        }
    }
}

#[test]
fn metric_tasks_match_direct_calls_across_seeds_and_noise_models() {
    let metric = EuclideanMetric::from_points(&points(64));
    let tasks = [
        Task::Farthest { q: 3 },
        Task::Nearest { q: 3 },
        Task::KCenter { k: 4 },
        Task::Hierarchy {
            linkage: Linkage::Single,
        },
    ];
    for seed in 0..SEEDS {
        for noise in noise_models(2000 + seed) {
            for task in tasks {
                let session = Session::builder()
                    .metric(noisy_oracle::data::AnyMetric::Euclidean(metric.clone()))
                    .noise(noise)
                    .seed(seed)
                    .build()
                    .unwrap();
                let outcome = session.run(task).unwrap();
                let (direct, queries) = direct_quad_answer(task, noise, &metric, seed, None);
                match (&outcome.answer, direct) {
                    (a, QuadAnswer::Item(i)) => assert_eq!(
                        a.item(),
                        i,
                        "answer diverged ({task:?}, {noise:?}, seed {seed})"
                    ),
                    (a, QuadAnswer::Clustering(c)) => assert_eq!(
                        a.clustering(),
                        Some(&c),
                        "clustering diverged ({noise:?}, seed {seed})"
                    ),
                    (a, QuadAnswer::Dendrogram(d)) => assert_eq!(
                        a.dendrogram(),
                        Some(&d),
                        "dendrogram diverged ({noise:?}, seed {seed})"
                    ),
                }
                assert_eq!(
                    outcome.report.queries, queries,
                    "query count diverged ({task:?}, {noise:?}, seed {seed})"
                );
            }
        }
    }
}

/// The distance cache returns the lazy metric's own bits, so a cached
/// session must also be answer- and count-identical to the direct call.
#[test]
fn cached_sessions_stay_bit_identical() {
    let metric = EuclideanMetric::from_points(&points(48));
    for seed in 0..5u64 {
        let session = Session::builder()
            .metric(noisy_oracle::data::AnyMetric::Euclidean(metric.clone()))
            .cache_distances(true)
            .noise(Noise::Probabilistic {
                p: P,
                seed: 3000 + seed,
            })
            .seed(seed)
            .build()
            .unwrap();
        let task = Task::KCenter { k: 3 };
        let outcome = session.run(task).unwrap();
        let (direct, queries) = direct_quad_answer(
            task,
            Noise::Probabilistic {
                p: P,
                seed: 3000 + seed,
            },
            &metric,
            seed,
            None,
        );
        let QuadAnswer::Clustering(c) = direct else {
            unreachable!()
        };
        assert_eq!(outcome.answer.clustering(), Some(&c));
        assert_eq!(outcome.report.queries, queries);
        assert!(outcome.report.cache_entries.unwrap() > 0);
    }
}

/// `confidence(delta)` must route to the `with_confidence` parameter
/// constructors, still bit-identical to the hand-wired call.
#[test]
fn confidence_sessions_match_with_confidence_params() {
    let vals = values(64);
    for seed in 0..5u64 {
        let session = Session::builder()
            .values(vals.clone())
            .noise(Noise::Adversarial { mu: MU })
            .confidence(0.05)
            .seed(seed)
            .build()
            .unwrap();
        let got = session.run(Task::Max).unwrap();
        let mut oracle = Counting::new(AdversarialValueOracle::new(
            vals.clone(),
            MU,
            InvertAdversary,
        ));
        let items: Vec<usize> = (0..vals.len()).collect();
        let best = max_adv(
            &items,
            &AdvParams::with_confidence(0.05),
            &mut ValueCmp::new(&mut oracle),
            &mut StdRng::seed_from_u64(seed),
        );
        assert_eq!(got.answer.item(), best);
        assert_eq!(got.report.queries, oracle.queries());
    }
}

/// Budget enforcement is deterministic at the configured cap: a budget
/// equal to the unconstrained tally succeeds with identical output, one
/// query less fails with `BudgetExceeded` — and never panics.
#[test]
fn budget_fires_deterministically_at_the_cap() {
    let metric = EuclideanMetric::from_points(&points(48));
    let mk = |budget: Option<u64>| {
        let mut b = Session::builder()
            .metric(noisy_oracle::data::AnyMetric::Euclidean(metric.clone()))
            .noise(Noise::Adversarial { mu: MU })
            .seed(9);
        if let Some(q) = budget {
            b = b.budget(q);
        }
        b.build().unwrap()
    };
    let task = Task::KCenter { k: 4 };
    let free = mk(None).run(task).unwrap();
    let need = free.report.queries;
    assert!(need > 1);

    // Budget exactly at the tally: identical run, same answer and count.
    let exact = mk(Some(need)).run(task).unwrap();
    assert_eq!(exact.answer, free.answer);
    assert_eq!(exact.report.queries, need);
    assert_eq!(exact.report.budget, Some(need));

    // One query less: typed failure, never more than `need - 1` issued.
    match mk(Some(need - 1)).run(task) {
        Err(NcoError::BudgetExceeded { budget, .. }) => assert_eq!(budget, need - 1),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }

    // Determinism of the failure: same error again on a fresh run.
    assert!(matches!(
        mk(Some(need - 1)).run(task),
        Err(NcoError::BudgetExceeded { .. })
    ));

    // Value tasks enforce the same way.
    let vals = values(64);
    let free = Session::builder()
        .values(vals.clone())
        .noise(Noise::Probabilistic { p: P, seed: 5 })
        .seed(3)
        .build()
        .unwrap()
        .run(Task::Max)
        .unwrap();
    let capped = Session::builder()
        .values(vals)
        .noise(Noise::Probabilistic { p: P, seed: 5 })
        .seed(3)
        .budget(free.report.queries - 1)
        .build()
        .unwrap();
    assert!(matches!(
        capped.run(Task::Max),
        Err(NcoError::BudgetExceeded { .. })
    ));
}

/// Memoised sessions bill like `Counting<MemoOracle<_>>` — hits are free,
/// misses are queries — and still return the direct call's answers.
#[test]
fn memoised_sessions_match_memoised_direct_calls() {
    use noisy_oracle::oracle::MemoOracle;
    let vals = values(80);
    for seed in 0..5u64 {
        let noise_seed = 6000 + seed;
        let session = Session::builder()
            .values(vals.clone())
            .noise(Noise::Probabilistic {
                p: P,
                seed: noise_seed,
            })
            .memoize(true)
            .seed(seed)
            .build()
            .unwrap();
        let outcome = session.run(Task::Max).unwrap();
        // The repo's memoisation idiom: memo outside, meter inside —
        // hits are free, only real oracle queries count.
        let mut oracle = MemoOracle::new(Counting::new(ProbValueOracle::new(
            vals.clone(),
            P,
            noise_seed,
        )));
        let items: Vec<usize> = (0..vals.len()).collect();
        let best = max_prob(
            &items,
            &ProbParams::default(),
            &mut ValueCmp::new(&mut oracle),
            &mut StdRng::seed_from_u64(seed),
        );
        assert_eq!(outcome.answer.item(), best);
        assert_eq!(outcome.report.memo_hits, Some(oracle.hits()));
        assert_eq!(outcome.report.queries, oracle.inner().queries());
    }
}
