//! Figure 9 — nearest-neighbour identification on `cities` vs. the noise
//! level (lower is better): (a) adversarial mu in {0, 0.5, 1, 2};
//! (b) probabilistic p in {0, 0.1, 0.3}.
//!
//! Paper result: `NN` is superior to `Tour2` at every noise level and its
//! quality does not worsen with the error. Measured with `NCO_SCALE=0.25
//! NCO_REPS=10` (n = 500, TDist 0.202), only 9(a) keeps that shape: `NN`'s
//! mean distance is never above `Tour2`'s and strictly below it at μ = 2
//! (0.202 vs 0.238), pinned by `figure_9a_nn_never_worse_than_tour2` in
//! `tests/guarantees_metric.rs`. In 9(b) `NN_p` trails `Tour2` at p = 0
//! and 0.1 (1.289 and 1.324 vs 0.202 and 0.541), is 6.4x TDist even
//! without noise, grows with p, and wins only at p = 0.3 (1.764 vs
//! 6.649). `Samp` is omitted from the paper's plots ("as bad as 700 even
//! in the absence of error") — we print it anyway for completeness. The
//! paper also reports ~53k queries for NN on the 36K-record cities; our
//! query column shows the same near-linear scaling at our n.

use nco_bench::{bench_cities, reps, scaled};
use nco_core::maxfind::AdvParams;
use nco_core::neighbor::baselines::{nearest_samp, nearest_tour2};
use nco_core::neighbor::{nearest_adv, nearest_prob};
use nco_eval::experiment::{run_reps, RepOutcome};
use nco_eval::Table;
use nco_metric::stats::exact_nearest;
use nco_metric::Metric;
use nco_oracle::adversarial::{AdversarialQuadOracle, PersistentRandomAdversary};
use nco_oracle::counting::Counting;
use nco_oracle::probabilistic::ProbQuadOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = scaled(2000);
    let r = reps(10);
    let d = bench_cities(n);
    let metric = &d.metric;
    let q = 0usize;
    let (_, d_opt) = exact_nearest(metric, q, 0..n).unwrap();
    println!("cities analogue n = {n}; true NN distance from record {q} = {d_opt:.3} (TDist)\n");

    let mut table = Table::new(
        "Figure 9(a) — NN distance vs. adversarial noise (absolute; TDist row first)",
        &["mu", "TDist", "NN (ours)", "Tour2", "Samp", "NN queries"],
    );
    for mu in [0.0, 0.5, 1.0, 2.0] {
        let ours = run_reps(r, 13, |seed| {
            let mut o = Counting::new(AdversarialQuadOracle::new(
                metric,
                mu,
                PersistentRandomAdversary::new(seed),
            ));
            let mut rng = StdRng::seed_from_u64(seed);
            let got = nearest_adv(&mut o, q, &AdvParams::experimental(), &mut rng).unwrap();
            RepOutcome {
                value: metric.dist(q, got),
                queries: o.queries(),
            }
        });
        let t2 = run_reps(r, 13, |seed| {
            let mut o =
                AdversarialQuadOracle::new(metric, mu, PersistentRandomAdversary::new(seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let got = nearest_tour2(&mut o, q, &mut rng).unwrap();
            RepOutcome {
                value: metric.dist(q, got),
                queries: 0,
            }
        });
        let sp = run_reps(r, 13, |seed| {
            let mut o =
                AdversarialQuadOracle::new(metric, mu, PersistentRandomAdversary::new(seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let got = nearest_samp(&mut o, q, &mut rng).unwrap();
            RepOutcome {
                value: metric.dist(q, got),
                queries: 0,
            }
        });
        table.row(&[
            format!("{mu:.1}"),
            format!("{d_opt:.3}"),
            format!("{:.3}", ours.value.mean),
            format!("{:.3}", t2.value.mean),
            format!("{:.3}", sp.value.mean),
            format!("{:.0}", ours.mean_queries),
        ]);
    }
    println!("{table}");

    let mut table = Table::new(
        "Figure 9(b) — NN distance vs. probabilistic noise (absolute)",
        &["p", "TDist", "NN_p (ours)", "Tour2", "Samp", "NN_p queries"],
    );
    for p in [0.0, 0.1, 0.3] {
        let ours = run_reps(r, 19, |seed| {
            let mut o = Counting::new(ProbQuadOracle::new(metric, p, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let got = nearest_prob(&mut o, q, 0.1, &AdvParams::experimental(), &mut rng).unwrap();
            RepOutcome {
                value: metric.dist(q, got),
                queries: o.queries(),
            }
        });
        let t2 = run_reps(r, 19, |seed| {
            let mut o = ProbQuadOracle::new(metric, p, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = nearest_tour2(&mut o, q, &mut rng).unwrap();
            RepOutcome {
                value: metric.dist(q, got),
                queries: 0,
            }
        });
        let sp = run_reps(r, 19, |seed| {
            let mut o = ProbQuadOracle::new(metric, p, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = nearest_samp(&mut o, q, &mut rng).unwrap();
            RepOutcome {
                value: metric.dist(q, got),
                queries: 0,
            }
        });
        table.row(&[
            format!("{p:.1}"),
            format!("{d_opt:.3}"),
            format!("{:.3}", ours.value.mean),
            format!("{:.3}", t2.value.mean),
            format!("{:.3}", sp.value.mean),
            format!("{:.0}", ours.mean_queries),
        ]);
    }
    println!("{table}");
    println!("measured shape: NN <= Tour2 at every mu (9a); NN_p trails Tour2 at low p");
    println!("and wins only at p = 0.3 (9b); Samp is catastrophic for NN.");
}
