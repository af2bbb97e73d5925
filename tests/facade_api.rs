//! The facade crate exposes the full public API documented in the README:
//! this test is the README's usage contract, compiled and executed.

use noisy_oracle::core::comparator::{PairDistCmp, Rev, ValueCmp};
use noisy_oracle::core::hier::{hier_oracle, HierParams, Linkage};
use noisy_oracle::core::kcenter::{kcenter_adv, KCenterAdvParams};
use noisy_oracle::core::maxfind::{count_max, max_adv, min_adv, AdvParams};
use noisy_oracle::core::neighbor::{farthest_adv, nearest_adv};
use noisy_oracle::data::{amazon, caltech, cities, dblp, monuments};
use noisy_oracle::eval::{pair_f_score, run_reps, Summary, Table};
use noisy_oracle::metric::{EuclideanMetric, Metric};
use noisy_oracle::oracle::adversarial::{AdversarialQuadOracle, InvertAdversary};
use noisy_oracle::oracle::{Counting, TrueQuadOracle, TrueValueOracle};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_dataset_generator_is_reachable_and_consistent() {
    let sets = [
        cities(200, 1),
        caltech(200, 1),
        amazon(200, 1),
        monuments(100, 1),
        dblp(200, 1),
    ];
    for d in &sets {
        assert!(d.n() >= 100, "{}", d.name);
        assert!(d.min_cluster_size >= 1);
        // Metric sanity through the facade path.
        assert!(d.metric.dist(0, 1) >= 0.0);
        assert_eq!(d.metric.dist(3, 3), 0.0);
    }
}

#[test]
fn readme_pipeline_compiles_and_runs() {
    // 1. Hidden values behind a comparison oracle.
    let mut value_oracle = TrueValueOracle::new((0..64).map(f64::from).collect());
    let items: Vec<usize> = (0..64).collect();
    let best = count_max(&items, &mut ValueCmp::new(&mut value_oracle)).unwrap();
    assert_eq!(best, 63);

    // 2. A metric behind a quadruplet oracle, farthest + nearest.
    let metric = EuclideanMetric::from_points(
        &(0..50)
            .map(|i| vec![(i as f64).sqrt(), (i % 7) as f64])
            .collect::<Vec<_>>(),
    );
    let mut rng = StdRng::seed_from_u64(0);
    let mut quad = Counting::new(TrueQuadOracle::new(metric));
    let far = farthest_adv(&mut quad, 0, &AdvParams::experimental(), &mut rng).unwrap();
    let near = nearest_adv(&mut quad, 0, &AdvParams::experimental(), &mut rng).unwrap();
    assert_ne!(far, near);
    assert!(quad.queries() > 0);

    // 3. Clustering under adversarial noise, scored against ground truth.
    let d = caltech(120, 3);
    let mut noisy = AdversarialQuadOracle::new(&d.metric, 0.5, InvertAdversary);
    let clustering = kcenter_adv(
        &KCenterAdvParams::with_confidence(20, 0.1),
        &mut noisy,
        &mut rng,
    );
    let f = pair_f_score(clustering.labels(), d.labels.as_ref().unwrap());
    assert!(f.f1 > 0.5);

    // 4. A hierarchy, cut and scored.
    let mut noisy = AdversarialQuadOracle::new(&d.metric, 0.5, InvertAdversary);
    let dend = hier_oracle(
        &HierParams::experimental(Linkage::Single),
        &mut noisy,
        &mut rng,
    );
    assert_eq!(dend.cut(20).len(), 120);

    // 5. Harness utilities.
    let stats = run_reps(3, 0, |seed| noisy_oracle::eval::experiment::RepOutcome {
        value: seed as f64,
        queries: 1,
    });
    assert_eq!(stats.value.n, 3);
    let s = Summary::of(&[1.0, 2.0]);
    let mut t = Table::new("t", &["a"]);
    t.row(&[format!("{:.1}", s.mean)]);
    assert!(t.to_csv().contains("1.5"));
}

/// The README's Session quickstart, compiled and executed: build,
/// run, report, budget failure, shared engine.
#[test]
fn readme_session_front_door() {
    use noisy_oracle::{Engine, NcoError, Noise, Session, Task};

    let session = Session::builder()
        .values((1..=100).map(f64::from).collect())
        .noise(Noise::Adversarial { mu: 0.5 })
        .confidence(0.05)
        .budget(200_000)
        .seed(7)
        .build()
        .unwrap();
    let outcome = session.run(Task::Max).unwrap();
    let best = outcome.answer.item().unwrap();
    assert!(best as f64 + 1.0 >= 100.0 / 1.5f64.powi(3));
    assert!(outcome.report.queries > 0);
    assert_eq!(outcome.report.budget, Some(200_000));

    // A starved budget fails typed.
    let capped = Session::builder()
        .values((1..=100).map(f64::from).collect())
        .budget(10)
        .build()
        .unwrap();
    assert!(matches!(
        capped.run(Task::Max),
        Err(NcoError::BudgetExceeded { budget: 10, .. })
    ));

    // One engine, several sessions, shared distance cache.
    let d = caltech(120, 3);
    let engine = Engine::from_dataset(&d, true);
    for (seed, k) in [(1u64, 4usize), (2, 8)] {
        let s = Session::builder()
            .engine(engine.clone())
            .noise(Noise::Adversarial { mu: 0.5 })
            .seed(seed)
            .build()
            .unwrap();
        let c = s.run(Task::KCenter { k }).unwrap();
        assert_eq!(c.answer.clustering().unwrap().k(), k);
    }
    assert!(engine.cache_entries().unwrap() > 0);
}

#[test]
fn min_and_rev_are_consistent() {
    let metric = EuclideanMetric::from_points(&(0..40).map(|i| vec![i as f64]).collect::<Vec<_>>());
    let mut quad = TrueQuadOracle::new(metric);
    let items: Vec<usize> = (1..40).collect();
    let mut rng = StdRng::seed_from_u64(5);
    let a = min_adv(
        &items,
        &AdvParams::experimental(),
        &mut PairDistCmp::new(&mut quad, |v| (0, v)),
        &mut rng,
    )
    .unwrap();
    let b = max_adv(
        &items,
        &AdvParams::experimental(),
        &mut Rev(PairDistCmp::new(&mut quad, |v| (0, v))),
        &mut rng,
    )
    .unwrap();
    // Both are "the nearest to 0" under a perfect oracle.
    assert_eq!(a, 1);
    assert_eq!(b, 1);
}
