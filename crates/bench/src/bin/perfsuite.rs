//! `perfsuite` — the reproducible performance suite behind the repo's
//! perf trajectory (`BENCH_*.json`).
//!
//! Sixteen pinned, fully seeded workloads cover the paper's hot paths:
//!
//! | name | shape |
//! |---|---|
//! | `count_max_prob_n4096` | Algorithm 12 maximum over 4096 hidden values, persistent `p = 0.2` |
//! | `neighbor_n2048` | 12 farthest + 12 nearest searches (Alg. 13/15), 128-d points, persistent `p = 0.15` |
//! | `neighbor_d64_n2048` | 16 farthest + 16 nearest searches over 64-d points, persistent `p = 0.15` |
//! | `slink_n512` | Algorithm 11 single-linkage hierarchy over 512 128-d points, persistent `p = 0.05` |
//! | `slink_n1024` | single-linkage SLINK on the **shared-scaffold search plane** (PR 10): from-scratch scaffold vs cached scaffold |
//! | `slink_n2048` | the same scaffold head-to-head at 2048 points |
//! | `slink_complete_n1024` | complete-linkage SLINK, **from-scratch sweep vs incremental merge plane + scaffolded pointer repair** (PR 5, PR 10) |
//! | `slink_complete_n2048` | the same complete-linkage head-to-head at 2048 points |
//! | `slink_crowd_n512` | single-linkage SLINK under the 3-worker crowd oracle, **scalar loop vs `le_batch` committee rounds** (PR 5) |
//! | `kcenter_n1024` | Algorithm 6 greedy 32-center over 1024 128-d points, adversarial `mu = 0.2` |
//! | `session_kcenter_n1024` | the same greedy 32-center routed through the facade's `Session` front door (zero-overhead check; 7 interleaved direct/Session pairs, medians plus the per-pair ratio spread) |
//! | `serve_mixed_n512` | a sustained mixed request stream, **sequential solo sessions vs the concurrent serving plane** (PR 6): shared-memo backend |
//! | `serve_faulty_n512` | the serving plane under a seeded fault storm (PR 7): **fault-free serving vs injected faults masked by bounded retry** — answers must stay bit-identical, the overhead of masking is the measurement |
//! | `adaptive_noise_n512` | the adaptive noise plane under a misspecified rate (PR 8): **silently fixed-rate sessions vs probe + `AdaptPolicy::Escalate`** — the probing/adaptation overhead is the measurement, misspecification detection and probe-off bit-identity are the acceptance checks |
//! | `sort_n1024` | full noisy sort (skeleton insertion + polish) over 1024 hidden values, persistent `p = 0.2` (PR 9): **scalar comparator loop vs `le_batch` rounds** — bit-identical outputs and query counts, the round coalescing is the measurement |
//! | `select_n2048` | k-th selection (sample–score–narrow) over 2048 hidden values, `k = 256`, persistent `p = 0.2` (PR 9): same scalar-vs-batched contract |
//!
//! Each workload runs twice: a **baseline** configuration and an
//! **optimized** configuration. Both runs draw the same seeds; the suite
//! *verifies* that outputs are bit-identical (and, where the two
//! configurations do the same logical work, that oracle-query totals are
//! equal) before reporting, so a speedup can never come from doing
//! different work. For the `slink_n*` and `slink_complete_n*` workloads
//! the baseline is the from-scratch reference (`hier_oracle_scratch`)
//! and the optimized run reuses the cached
//! scaffold/merge-plane state — there the *dendrogram equality* is the
//! decision-identity acceptance check and the query totals intentionally
//! differ (that saving is the optimization).
//!
//! Usage:
//!
//! ```text
//! perfsuite [--smoke] [--out PATH] [--check-baseline PATH]
//! ```
//!
//! `--smoke` shrinks every workload (~16x fewer queries) for CI;
//! `--out` defaults to `BENCH_PR18.json` in the current directory;
//! `--check-baseline` compares this run's query counts against a
//! committed baseline JSON and exits non-zero on any regression
//! (count > baseline) — the CI guard for the pinned workloads.

use nco_core::comparator::{Comparator, ValueCmp};
use nco_core::hier::{
    hier_oracle, hier_oracle_scratch, hier_oracle_stats, Dendrogram, HierParams, Linkage,
};
use nco_core::kcenter::{kcenter_adv, KCenterAdvParams};
use nco_core::maxfind::{max_prob, AdvParams, ProbParams};
use nco_core::neighbor::{farthest_adv, nearest_adv};
use nco_core::order::{select_prob, sort_prob, OrderProbParams};
use nco_metric::{CachedMetric, EuclideanMetric, SquareMetric};
use nco_oracle::adversarial::{AdversarialQuadOracle, InvertAdversary};
use nco_oracle::counting::Counting;
use nco_oracle::probabilistic::{ProbQuadOracle, ProbValueOracle};
use rand::rngs::{CounterRng, StdRng};
use rand::{Rng, RngCore, SeedableRng};
use std::time::Instant;

struct WorkloadReport {
    name: String,
    n: usize,
    reps: usize,
    baseline_ms: f64,
    optimized_ms: f64,
    queries: u64,
    /// Worker threads the optimized configuration ran on (1 = serial;
    /// the serving workloads report their worker count).
    threads: usize,
    optimization: &'static str,
    outputs_match: bool,
    /// Free-form extra measurements (latency percentiles, backend
    /// tallies); rendered into the JSON only when present. Must never
    /// contain a quoted JSON key (`"x":`) — `extract_workloads` scans
    /// the raw text.
    detail: Option<String>,
}

impl WorkloadReport {
    fn speedup(&self) -> f64 {
        if self.optimized_ms > 0.0 {
            self.baseline_ms / self.optimized_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Per-rep seeds derived from one workload seed through a counter stream —
/// deterministic, and independent across reps and workloads.
fn rep_seeds(workload_seed: u64, reps: usize) -> Vec<(u64, u64)> {
    let mut stream = CounterRng::new(0xBE5C_0BE5, workload_seed);
    (0..reps)
        .map(|_| (stream.next_u64(), stream.next_u64()))
        .collect()
}

/// Seeded Gaussian-ish mixture in `dim` dimensions: `k` well-spread
/// cluster centers, points scattered around them.
fn mixture_points(n: usize, dim: usize, k: usize, seed: u64) -> EuclideanMetric {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dim).map(|_| rng.random_range(-50.0..50.0)).collect())
        .collect();
    let mut flat = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = &centers[i % k];
        for &coord in c.iter() {
            flat.push(coord + rng.random_range(-4.0..4.0));
        }
    }
    EuclideanMetric::from_flat(flat, dim)
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Workload 1: Count-Max-Prob over hidden values.
// ---------------------------------------------------------------------

fn run_count_max_prob(n: usize, reps: usize) -> WorkloadReport {
    let mut values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    {
        use rand::seq::SliceRandom;
        values.shuffle(&mut StdRng::seed_from_u64(0xC0DE));
    }
    let params = ProbParams::experimental();
    let seeds = rep_seeds(0xA1, reps);

    // Both configurations run the serial scoring rounds: the workload pins
    // the engine's query count and its run-to-run wall-time spread.
    let run = || {
        let start = Instant::now();
        let mut queries = 0u64;
        let mut winners = Vec::with_capacity(reps);
        for &(oracle_seed, rng_seed) in &seeds {
            let mut oracle = Counting::new(ProbValueOracle::new(values.clone(), 0.2, oracle_seed));
            let items: Vec<usize> = (0..n).collect();
            let w = max_prob(
                &items,
                &params,
                &mut ValueCmp::new(&mut oracle),
                &mut StdRng::seed_from_u64(rng_seed),
            );
            queries += oracle.queries();
            winners.push(w);
        }
        (ms(start), queries, winners)
    };
    let (baseline_ms, queries, serial_winners) = run();
    let (optimized_ms, opt_queries, opt_winners) = run();

    WorkloadReport {
        name: format!("count_max_prob_n{n}"),
        n,
        reps,
        baseline_ms,
        optimized_ms,
        queries,
        threads: 1,
        optimization: "none: both configurations run the serial scoring rounds",
        outputs_match: serial_winners == opt_winners && queries == opt_queries,
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Workloads 2 & 3: farthest/nearest neighbour searches (128-d and 64-d).
// ---------------------------------------------------------------------

fn neighbor_searches<O: nco_oracle::QuadrupletOracle>(
    oracle: &mut O,
    n: usize,
    searches: usize,
    params: &AdvParams,
    rng_seed: u64,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(2 * searches);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    for s in 0..searches {
        let q = (s * 97) % n;
        out.push(farthest_adv(oracle, q, params, &mut rng).expect("n >= 2"));
        out.push(nearest_adv(oracle, q, params, &mut rng).expect("n >= 2"));
    }
    out
}

fn run_neighbor(
    name_prefix: &str,
    n: usize,
    dim: usize,
    searches: usize,
    workload_seed: (u64, u64),
) -> WorkloadReport {
    let metric = mixture_points(n, dim, 16, workload_seed.0);
    let params = AdvParams::with_confidence(0.1);
    let (oracle_seed, rng_seed) = rep_seeds(workload_seed.1, 1)[0];

    // Baseline: every query re-computes two `dim`-d distances.
    let start = Instant::now();
    let mut oracle = Counting::new(ProbQuadOracle::new(metric.clone(), 0.15, oracle_seed));
    let base_out = neighbor_searches(&mut oracle, n, searches, &params, rng_seed);
    let queries = oracle.queries();
    let baseline_ms = ms(start);

    // Optimized: DistCache — the searches are anchored at a handful of
    // query points, so only ~searches * n of the n^2/2 pairs are ever
    // touched; each is evaluated once and every le_batch round after that
    // is table lookups + noise hashes. (PR 2 materialised the full
    // condensed matrix here; the cache replaces ~n^2/2 eager evaluations
    // with only the touched ones, which is where the PR 3 speedup on this
    // workload comes from.)
    let start = Instant::now();
    let cached = CachedMetric::new(metric);
    let mut oracle = Counting::new(ProbQuadOracle::new(&cached, 0.15, oracle_seed));
    let opt_out = neighbor_searches(&mut oracle, n, searches, &params, rng_seed);
    let optimized_ms = ms(start);

    WorkloadReport {
        name: format!("{name_prefix}_n{n}"),
        n,
        reps: searches,
        baseline_ms,
        optimized_ms,
        queries,
        threads: 1,
        optimization: "DistCache: touched-pair distance memoisation behind batched oracle rounds",
        outputs_match: base_out == opt_out && queries == oracle.queries(),
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Workload 4: SLINK agglomeration (serial engine, dense materialisation).
// ---------------------------------------------------------------------

fn run_slink(n: usize) -> WorkloadReport {
    let dim = 128;
    let metric = mixture_points(n, dim, 8, 0x511A);
    let params = HierParams::experimental(Linkage::Single);
    let (oracle_seed, rng_seed) = rep_seeds(0x51, 1)[0];

    let start = Instant::now();
    let mut oracle = Counting::new(ProbQuadOracle::new(metric.clone(), 0.05, oracle_seed));
    let base: Dendrogram = hier_oracle(&params, &mut oracle, &mut StdRng::seed_from_u64(rng_seed));
    let queries = oracle.queries();
    let baseline_ms = ms(start);

    let start = Instant::now();
    let dense = SquareMetric::from_metric(&metric);
    let mut oracle = Counting::new(ProbQuadOracle::new(dense, 0.05, oracle_seed));
    let opt = hier_oracle(&params, &mut oracle, &mut StdRng::seed_from_u64(rng_seed));
    let optimized_ms = ms(start);

    WorkloadReport {
        name: format!("slink_n{n}"),
        n,
        reps: 1,
        baseline_ms,
        optimized_ms,
        queries,
        threads: 1,
        optimization: "full-grid materialisation (both configs run the incremental merge plane)",
        outputs_match: base == opt && queries == oracle.queries(),
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Workload 5: single-linkage SLINK on the shared-scaffold search plane.
// ---------------------------------------------------------------------

fn run_slink_scaffold(n: usize) -> WorkloadReport {
    let dim = 64;
    let metric = mixture_points(n, dim, 8, 0x511B);
    // PR 10: both configurations run on the shared-scaffold search plane —
    // one bucket deal + one persistent sample shared by all row-anchored
    // searches (initial pointers and pointer repairs alike).
    let params = HierParams::experimental(Linkage::Single).scaffolded();
    let (oracle_seed, rng_seed) = rep_seeds(0x52, 1)[0];
    let dense = SquareMetric::from_metric(&metric);

    // Baseline: the from-scratch reference — identical structure
    // evolution, but every sweep replays every bucket duel and re-asks
    // every pool pair instead of reading the caches. Under persistent
    // noise the two are decision-identical by construction, which is what
    // `outputs_match` verifies below.
    let start = Instant::now();
    let mut oracle = Counting::new(ProbQuadOracle::new(dense.clone(), 0.05, oracle_seed));
    let base = hier_oracle_scratch(&params, &mut oracle, &mut StdRng::seed_from_u64(rng_seed));
    let scratch_queries = oracle.queries();
    let baseline_ms = ms(start);

    // Optimized: the cached scaffold (row sweeps reuse bracket winners,
    // pair outcomes and Count-Min scores; merges dirty only the touched
    // buckets).
    let start = Instant::now();
    let mut oracle = Counting::new(ProbQuadOracle::new(dense, 0.05, oracle_seed));
    let (opt, stats) =
        hier_oracle_stats(&params, &mut oracle, &mut StdRng::seed_from_u64(rng_seed));
    let optimized_ms = ms(start);

    WorkloadReport {
        name: format!("slink_n{n}"),
        n,
        reps: 1,
        baseline_ms,
        optimized_ms,
        // Report the *optimized* tally (the number worth guarding); the
        // from-scratch baseline deliberately issues more — the saving is
        // the PR 10 optimization.
        queries: oracle.queries(),
        threads: 1,
        optimization: "shared-scaffold search plane: cached row sweeps (PR 10)",
        outputs_match: base == opt && oracle.queries() <= scratch_queries,
        detail: Some(format!(
            "scratch_queries={scratch_queries} scaffold_hits={} repair_contests={} \
             repair_fallbacks={}",
            stats.scaffold_hits, stats.repair_contests, stats.repair_fallbacks,
        )),
    }
}

// ---------------------------------------------------------------------
// Workload 6: complete-linkage SLINK — from-scratch sweep vs the
// incremental merge plane (the PR 5 tentpole, measured head to head).
// ---------------------------------------------------------------------

fn run_slink_complete(n: usize) -> WorkloadReport {
    let dim = 64;
    let metric = mixture_points(n, dim, 8, 0x511C);
    // PR 10: complete linkage recomputes every stale pointer after every
    // merge, so its repairs dominate the query bill — the scaffold turns
    // each repair into a dirty-set re-contest over cached winner
    // structure (with a full-row fallback on a dirty majority).
    let params = HierParams::experimental(Linkage::Complete).scaffolded();
    let (oracle_seed, rng_seed) = rep_seeds(0x53, 1)[0];
    let dense = SquareMetric::from_metric(&metric);

    // Baseline: the from-scratch reference — every merge re-runs the full
    // closest-pair sweep over the (persistent-random) winner structure
    // and every pointer repair replays its full row.
    let start = Instant::now();
    let mut oracle = Counting::new(ProbQuadOracle::new(dense.clone(), 0.05, oracle_seed));
    let base = hier_oracle_scratch(&params, &mut oracle, &mut StdRng::seed_from_u64(rng_seed));
    let scratch_queries = oracle.queries();
    let baseline_ms = ms(start);

    // Optimized: the incremental merge plane (only dirty candidates
    // re-contest the cached incumbent structure) + the cached scaffold
    // for every pointer repair.
    let start = Instant::now();
    let mut oracle = Counting::new(ProbQuadOracle::new(dense, 0.05, oracle_seed));
    let (opt, stats) =
        hier_oracle_stats(&params, &mut oracle, &mut StdRng::seed_from_u64(rng_seed));
    let optimized_ms = ms(start);

    WorkloadReport {
        name: format!("slink_complete_n{n}"),
        n,
        reps: 1,
        baseline_ms,
        optimized_ms,
        // Report the *optimized* tally (the number worth guarding); the
        // from-scratch baseline deliberately issues more — the saving is
        // the optimization. outputs_match is the decision-identity check.
        queries: oracle.queries(),
        threads: 1,
        optimization:
            "incremental merge plane + scaffolded pointer repair vs from-scratch sweep (PR 5, PR 10)",
        outputs_match: base == opt && oracle.queries() <= scratch_queries,
        detail: Some(format!(
            "scratch_queries={scratch_queries} scaffold_hits={} repair_contests={} \
             repair_fallbacks={}",
            stats.scaffold_hits, stats.repair_contests, stats.repair_fallbacks,
        )),
    }
}

// ---------------------------------------------------------------------
// Workload 7: SLINK under the crowd oracle — scalar committee loop vs
// the `le_batch` override's batched committee rounds.
// ---------------------------------------------------------------------

/// Defeats an oracle's `le_batch` override: only `le` is forwarded, so
/// rounds fall back to the trait's scalar loop — the pre-override shape.
struct ScalarRounds<O>(O);

impl<O: nco_oracle::QuadrupletOracle> nco_oracle::QuadrupletOracle for ScalarRounds<O> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        self.0.le(a, b, c, d)
    }
}

impl<O: nco_oracle::PersistentNoise> nco_oracle::PersistentNoise for ScalarRounds<O> {}

fn run_slink_crowd(n: usize) -> WorkloadReport {
    use nco_oracle::crowd::{AccuracyProfile, CrowdQuadOracle};
    let dim = 128;
    // Deliberately lazy distances: every committee decision re-derives its
    // two 128-d distances unless the round amortises them, which is
    // exactly what the override is for.
    let metric = mixture_points(n, dim, 8, 0x511D);
    let params = HierParams::experimental(Linkage::Single);
    let (oracle_seed, rng_seed) = rep_seeds(0x54, 1)[0];
    let profile = AccuracyProfile::caltech_like();

    // Baseline: the scalar committee loop (override defeated).
    let start = Instant::now();
    let mut oracle = Counting::new(ScalarRounds(CrowdQuadOracle::new(
        metric.clone(),
        profile,
        3,
        oracle_seed,
    )));
    let base = hier_oracle(&params, &mut oracle, &mut StdRng::seed_from_u64(rng_seed));
    let queries = oracle.queries();
    let baseline_ms = ms(start);

    // Optimized: the crowd `le_batch` override — per-round distance dedup
    // and committee-answer dedup, worker draws in serial query order.
    let start = Instant::now();
    let mut oracle = Counting::new(CrowdQuadOracle::new(metric, profile, 3, oracle_seed));
    let opt = hier_oracle(&params, &mut oracle, &mut StdRng::seed_from_u64(rng_seed));
    let optimized_ms = ms(start);

    WorkloadReport {
        name: format!("slink_crowd_n{n}"),
        n,
        reps: 1,
        baseline_ms,
        optimized_ms,
        queries,
        threads: 1,
        optimization: "crowd le_batch override: per-round distance + committee-answer dedup",
        outputs_match: base == opt && queries == oracle.queries(),
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Workload 6: greedy k-center under adversarial noise.
// ---------------------------------------------------------------------

fn run_kcenter(n: usize, k: usize, reps: usize) -> WorkloadReport {
    let dim = 128;
    let metric = mixture_points(n, dim, k, 0x6C3E);
    let seeds = rep_seeds(0x6C, reps);

    let start = Instant::now();
    let mut queries = 0u64;
    let mut base_out = Vec::with_capacity(reps);
    for &(_, rng_seed) in &seeds {
        let mut oracle = Counting::new(AdversarialQuadOracle::new(
            metric.clone(),
            0.2,
            InvertAdversary,
        ));
        let c = kcenter_adv(
            &KCenterAdvParams::experimental(k),
            &mut oracle,
            &mut StdRng::seed_from_u64(rng_seed),
        );
        queries += oracle.queries();
        base_out.push((c.centers, c.assignment));
    }
    let baseline_ms = ms(start);

    // Optimized: one DistCache shared across the reps (the realistic
    // shape — many clustering requests over one corpus). The queries only
    // touch (point, center) pairs, a small slice of the triangle PR 2
    // paid n^2/2 eager evaluations to materialise.
    let start = Instant::now();
    let cached = CachedMetric::new(metric);
    let mut opt_queries = 0u64;
    let mut opt_out = Vec::with_capacity(reps);
    for &(_, rng_seed) in &seeds {
        let mut oracle = Counting::new(AdversarialQuadOracle::new(&cached, 0.2, InvertAdversary));
        let c = kcenter_adv(
            &KCenterAdvParams::experimental(k),
            &mut oracle,
            &mut StdRng::seed_from_u64(rng_seed),
        );
        opt_queries += oracle.queries();
        opt_out.push((c.centers, c.assignment));
    }
    let optimized_ms = ms(start);

    WorkloadReport {
        name: format!("kcenter_n{n}"),
        n,
        reps,
        baseline_ms,
        optimized_ms,
        queries,
        threads: 1,
        optimization: "DistCache shared across reps: touched (point, center) pairs only",
        outputs_match: base_out == opt_out && queries == opt_queries,
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Workload 7: the same greedy k-center routed through the facade's
// `Session` front door — the zero-overhead proof for the engine API.
// ---------------------------------------------------------------------

/// Direct and `Session` passes alternate this many times; the report
/// carries the median of each and the spread of the per-pair ratios.
const SESSION_KCENTER_PAIRS: usize = 7;

type KCenterOut = Vec<(Vec<usize>, Vec<usize>)>;

fn run_session_kcenter(n: usize, k: usize, reps: usize) -> WorkloadReport {
    use noisy_oracle::data::AnyMetric;
    use noisy_oracle::{Engine, Noise, Session, Task};

    let dim = 128;
    let metric = mixture_points(n, dim, k, 0x6C3E);
    // Same rep seeds as `kcenter_n1024`: this workload's baseline is
    // exactly that workload's optimized configuration, so its query
    // count must reproduce bit-for-bit across the two reports.
    let seeds = rep_seeds(0x6C, reps);

    // Baseline: the direct call over a fresh DistCache shared across the
    // reps (PR 3's optimized shape of the kcenter workload).
    let direct = || -> (KCenterOut, u64) {
        let cached = CachedMetric::new(metric.clone());
        let mut queries = 0u64;
        let mut out = Vec::with_capacity(reps);
        for &(_, rng_seed) in &seeds {
            let mut oracle =
                Counting::new(AdversarialQuadOracle::new(&cached, 0.2, InvertAdversary));
            let c = kcenter_adv(
                &KCenterAdvParams::experimental(k),
                &mut oracle,
                &mut StdRng::seed_from_u64(rng_seed),
            );
            queries += oracle.queries();
            out.push((c.centers, c.assignment));
        }
        (out, queries)
    };

    // "Optimized": the identical runs through `Session::run` on a fresh
    // shared `Engine`. The facade must add nothing — same answers, same
    // query counts (checked below via outputs_match), wall time within
    // noise of the direct loop.
    let facade = || -> (KCenterOut, u64) {
        let engine = Engine::from_metric(AnyMetric::Euclidean(metric.clone()), true);
        let mut queries = 0u64;
        let mut out = Vec::with_capacity(reps);
        for &(_, rng_seed) in &seeds {
            let session = Session::builder()
                .engine(engine.clone())
                .noise(Noise::Adversarial { mu: 0.2 })
                .seed(rng_seed)
                .build()
                .expect("valid session configuration");
            let outcome = session
                .run(Task::KCenter { k })
                .expect("unbudgeted run cannot fail");
            let c = outcome
                .answer
                .clustering()
                .expect("KCenter returns a clustering")
                .clone();
            queries += outcome.report.queries;
            out.push((c.centers, c.assignment));
        }
        (out, queries)
    };

    // Interleave the two so a drift in host speed hits both alike.
    let mut base_ms = Vec::with_capacity(SESSION_KCENTER_PAIRS);
    let mut opt_ms = Vec::with_capacity(SESSION_KCENTER_PAIRS);
    let mut outputs_match = true;
    let mut queries = 0;
    for _ in 0..SESSION_KCENTER_PAIRS {
        let start = Instant::now();
        let (base_out, base_queries) = direct();
        base_ms.push(ms(start));
        let start = Instant::now();
        let (opt_out, opt_queries) = facade();
        opt_ms.push(ms(start));
        outputs_match &= base_out == opt_out && base_queries == opt_queries;
        queries = base_queries;
    }
    let mut ratios: Vec<f64> = base_ms.iter().zip(&opt_ms).map(|(b, o)| b / o).collect();
    let ratio_median = median(&mut ratios);

    WorkloadReport {
        name: format!("session_kcenter_n{n}"),
        n,
        reps,
        baseline_ms: median(&mut base_ms),
        optimized_ms: median(&mut opt_ms),
        queries,
        threads: 1,
        optimization: "Session front door over a shared Engine (zero-overhead facade check)",
        outputs_match,
        detail: Some(format!(
            "walls are medians of {SESSION_KCENTER_PAIRS} interleaved direct/Session pairs; \
             per-pair speedup median {ratio_median:.3} min {:.3} max {:.3}",
            ratios[0],
            ratios[ratios.len() - 1]
        )),
    }
}

/// Sorts `xs` and returns its middle element.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

// ---------------------------------------------------------------------
// Workload 10: the concurrent serving plane under a sustained mixed
// request stream (the PR 6 tentpole, measured head to head).
// ---------------------------------------------------------------------

fn run_serve_mixed(n: usize, batches: usize) -> WorkloadReport {
    use noisy_oracle::data::AnyMetric;
    use noisy_oracle::{Engine, Noise, Request, Server, Session, Task};

    let dim = 64;
    let metric = mixture_points(n, dim, 8, 0x5E12);
    let noise = Noise::Probabilistic {
        p: 0.1,
        seed: 0x5EED,
    };
    // A realistic stream: nearest/farthest probes anchored at a rotating
    // handful of query points plus periodic clustering requests. Seeds
    // repeat across batches, so the stream re-asks earlier questions —
    // the shape cross-request memoisation exists for.
    let requests: Vec<Request> = (0..batches)
        .flat_map(|b| {
            let seed = 100 + (b % 3) as u64;
            [
                Request {
                    task: Task::Nearest { q: (b * 37) % 5 },
                    seed,
                },
                Request {
                    task: Task::Farthest { q: (b * 53) % 7 },
                    seed: seed + 7,
                },
                Request {
                    task: Task::KCenter { k: 8 },
                    seed: seed + 13,
                },
            ]
        })
        .collect();

    // Baseline: the pre-serving shape — each request is a solo
    // `Session::run`, sequentially, over one shared engine.
    let start = Instant::now();
    let engine = Engine::from_metric(AnyMetric::Euclidean(metric.clone()), true);
    let mut solo = Vec::with_capacity(requests.len());
    let mut base_walls = Vec::with_capacity(requests.len());
    for r in &requests {
        let outcome = Session::builder()
            .engine(engine.clone())
            .noise(noise)
            .seed(r.seed)
            .build()
            .expect("valid session configuration")
            .run(r.task)
            .expect("unbudgeted run cannot fail");
        base_walls.push(outcome.report.wall.as_secs_f64() * 1e3);
        solo.push(outcome);
    }
    let baseline_ms = ms(start);
    let queries: u64 = solo.iter().map(|o| o.report.queries).sum();

    // Optimized: the same stream submitted up front to the serving
    // plane — a worker pool over one memoised backend. Per-request
    // answers and bills stay bit-identical to the solo runs (checked
    // below); the backend answers every cross-request repeat from the
    // shared memo. Worker pool scaled to the host (like every fan-out
    // workload): on a single-core host one worker drains the stream and
    // the win is the shared backend memo alone; with real cores the pool
    // overlaps requests.
    let workers = host_logical_cores().min(4);
    let start = Instant::now();
    let template = Session::builder()
        .engine(Engine::from_metric(AnyMetric::Euclidean(metric), true))
        .noise(noise)
        .build()
        .expect("valid session configuration");
    let server = Server::builder(template)
        .workers(workers)
        .queue(requests.len())
        .build()
        .expect("valid server configuration");
    let handles: Vec<_> = requests
        .iter()
        .map(|&r| server.submit(r).expect("queue sized to the stream"))
        .collect();
    let served: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("unbudgeted request cannot fail"))
        .collect();
    let stats = server.shutdown();
    let optimized_ms = ms(start);

    let identical = requests.len() == served.len()
        && solo.iter().zip(&served).all(|(s, o)| {
            s.answer == o.answer
                && s.report.queries == o.report.queries
                && s.report.rounds == o.report.rounds
        });

    let mut serve_walls: Vec<f64> = served
        .iter()
        .map(|o| o.report.wall.as_secs_f64() * 1e3)
        .collect();
    serve_walls.sort_by(f64::total_cmp);
    base_walls.sort_by(f64::total_cmp);
    let pct = |sorted: &[f64], q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    let per_request = |total: u64| total as f64 / requests.len() as f64;

    WorkloadReport {
        name: format!("serve_mixed_n{n}"),
        n,
        reps: requests.len(),
        baseline_ms,
        optimized_ms,
        queries,
        threads: workers,
        optimization: if workers > 1 {
            "concurrent serving plane: worker pool + shared-memo backend"
        } else {
            "serving plane on one worker: shared-memo backend (pool overlap needs >1 core)"
        },
        // The serving plane must not change what any single request
        // computes or is billed — and the shared backend must actually
        // save work on the wire (strictly fewer oracle queries than the
        // requests' solo bills sum to).
        outputs_match: identical && stats.backend_queries < queries,
        detail: Some(format!(
            "solo_p50_ms={:.3} solo_p99_ms={:.3} served_p50_ms={:.3} served_p99_ms={:.3} \
             queries_per_request_solo={:.1} queries_per_request_backend={:.1} \
             backend_memo_hits={}",
            pct(&base_walls, 0.50),
            pct(&base_walls, 0.99),
            pct(&serve_walls, 0.50),
            pct(&serve_walls, 0.99),
            per_request(queries),
            per_request(stats.backend_queries),
            stats.memo_hits,
        )),
    }
}

// ---------------------------------------------------------------------
// Workload 11: the serving plane under a seeded fault storm (PR 7).
// ---------------------------------------------------------------------

fn run_serve_faulty(n: usize, batches: usize) -> WorkloadReport {
    use noisy_oracle::data::AnyMetric;
    use noisy_oracle::{Engine, FaultPlan, Noise, Request, RetryPolicy, Server, Session, Task};

    let dim = 64;
    let metric = mixture_points(n, dim, 8, 0xFA17);
    let noise = Noise::Probabilistic {
        p: 0.1,
        seed: 0xFEED,
    };
    let requests: Vec<Request> = (0..batches)
        .flat_map(|b| {
            let seed = 300 + (b % 3) as u64;
            [
                Request {
                    task: Task::Nearest { q: (b * 29) % 5 },
                    seed,
                },
                Request {
                    task: Task::KCenter { k: 8 },
                    seed: seed + 11,
                },
            ]
        })
        .collect();

    let serve = |plan: Option<FaultPlan>| {
        let mut builder = Session::builder()
            .engine(Engine::from_metric(
                AnyMetric::Euclidean(metric.clone()),
                true,
            ))
            .noise(noise);
        if let Some(plan) = plan {
            builder = builder.fault_plan(plan).retry_policy(RetryPolicy::new(12));
        }
        let template = builder.build().expect("valid session configuration");
        let server = Server::builder(template)
            .workers(host_logical_cores().min(4))
            .queue(requests.len())
            .build()
            .expect("valid server configuration");
        let handles: Vec<_> = requests
            .iter()
            .map(|&r| server.submit(r).expect("queue sized to the stream"))
            .collect();
        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("masked faults cannot fail a request"))
            .collect();
        (outcomes, server.shutdown())
    };

    // Baseline: the fault-free serving plane from workload 10.
    let start = Instant::now();
    let (clean, clean_stats) = serve(None);
    let baseline_ms = ms(start);
    let queries: u64 = clean.iter().map(|o| o.report.queries).sum();

    // Optimized configuration (here: the *robust* configuration): the
    // same stream under a seeded storm of transients, stalls, burst
    // outages and dead worker lanes, every fault masked by bounded
    // retry. The acceptance check is the PR 7 guarantee — answers stay
    // bit-identical to the fault-free run, and the storm genuinely
    // exercised the retry path.
    let plan = FaultPlan::new(0xFA57)
        .transient(0.04)
        .stalls(0.02, 200)
        .outages(2048, 3)
        .dead_workers(16, 1);
    let start = Instant::now();
    let (faulty, faulty_stats) = serve(Some(plan));
    let optimized_ms = ms(start);

    let identical =
        clean.len() == faulty.len() && clean.iter().zip(&faulty).all(|(c, f)| c.answer == f.answer);
    let masked = faulty_stats.retries > 0
        && faulty_stats.faults_masked > 0
        && faulty_stats.panics == 0
        && faulty_stats.deadline_kills == 0;
    let faulty_bill: u64 = faulty.iter().map(|o| o.report.queries).sum();

    WorkloadReport {
        name: format!("serve_faulty_n{n}"),
        n,
        reps: requests.len(),
        baseline_ms,
        optimized_ms,
        queries,
        threads: host_logical_cores().min(4),
        optimization:
            "fault plane: seeded injection fully masked by bounded retry, answers bit-identical",
        outputs_match: identical && masked && faulty_bill >= queries,
        detail: Some(format!(
            "retries={} faults_masked={} bill_clean={} bill_faulty={} \
             backend_queries_clean={} backend_queries_faulty={}",
            faulty_stats.retries,
            faulty_stats.faults_masked,
            queries,
            faulty_bill,
            clean_stats.backend_queries,
            faulty_stats.backend_queries,
        )),
    }
}

// ---------------------------------------------------------------------
// Workload 12: the adaptive noise plane under a misspecified rate (PR 8).
// ---------------------------------------------------------------------

fn run_adaptive_noise(n: usize, reps: usize) -> WorkloadReport {
    use noisy_oracle::{AdaptPolicy, NcoError, Noise, Session, Task};

    let values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    let p = 0.40; // the real (persistent) flip rate
    let assumed = 0.20; // the rate every session's parameters are derived for
    let seeds = rep_seeds(0xAD, reps);

    let build = |noise_seed: u64, rng_seed: u64, probe: Option<f64>, adapt: bool| {
        let mut b = Session::builder()
            .values(values.clone())
            .noise(Noise::Probabilistic {
                p,
                seed: noise_seed,
            })
            .assume_noise_rate(assumed)
            .seed(rng_seed);
        if let Some(rate) = probe {
            b = b.probe_noise(rate);
        }
        if adapt {
            b = b.adapt_noise(AdaptPolicy::Escalate);
        }
        b.build().expect("valid session configuration")
    };
    let deficit = |item: usize| n - 1 - item;

    // Baseline: silently misspecified fixed-rate sessions. They
    // complete — on repetition parameters derived for half the real
    // rate — and never learn anything is wrong.
    let start = Instant::now();
    let mut fixed = Vec::with_capacity(reps);
    for &(noise_seed, rng_seed) in &seeds {
        let o = build(noise_seed, rng_seed, None, false)
            .run(Task::Max)
            .expect("unguarded run cannot fail");
        fixed.push(o);
    }
    let baseline_ms = ms(start);
    let fixed_deficit: usize = fixed
        .iter()
        .map(|o| deficit(o.answer.item().expect("Max returns an item")))
        .sum();

    // Robust configuration: billed probe triangles estimate the live
    // rate, the guard detects the misspecification, and `Escalate`
    // re-derives the parameters and re-runs on the spot. The overhead of
    // probing + the escalated attempt is the measurement.
    let start = Instant::now();
    let mut adaptive = Vec::with_capacity(reps);
    for &(noise_seed, rng_seed) in &seeds {
        let o = build(noise_seed, rng_seed, Some(0.10), true)
            .run(Task::Max)
            .expect("adaptive run recovers instead of failing");
        adaptive.push(o);
    }
    let optimized_ms = ms(start);
    let adaptive_deficit: usize = adaptive
        .iter()
        .map(|o| deficit(o.answer.item().expect("Max returns an item")))
        .sum();
    let probes: u64 = adaptive.iter().map(|o| o.report.probes.unwrap_or(0)).sum();
    let queries: u64 = adaptive.iter().map(|o| o.report.queries).sum();
    let adapted = adaptive
        .iter()
        .all(|o| o.report.adaptations == 1 && o.report.probes.is_some_and(|b| b > 0));

    // Acceptance 1: the same probed configuration without the adaptive
    // policy must detect the 2x misspecification and fail typed.
    let (noise_seed, rng_seed) = seeds[0];
    let guard_fires = matches!(
        build(noise_seed, rng_seed, Some(0.10), false).run(Task::Max),
        Err(NcoError::NoiseMisspecified { .. })
    );

    // Acceptance 2: `probe_noise(0.0)` is bit-identical to never
    // enabling the layer — same answers, same query/round meters.
    let probe_off = build(noise_seed, rng_seed, Some(0.0), false)
        .run(Task::Max)
        .expect("probe-off run cannot fail");
    let probe_off_identical = probe_off.answer == fixed[0].answer
        && probe_off.report.queries == fixed[0].report.queries
        && probe_off.report.rounds == fixed[0].report.rounds
        && probe_off.report.probes.is_none();

    WorkloadReport {
        name: format!("adaptive_noise_n{n}"),
        n,
        reps,
        baseline_ms,
        optimized_ms,
        queries,
        threads: 1,
        optimization:
            "online probe estimation + misspecification guard + Escalate re-derivation (PR 8)",
        outputs_match: adapted && guard_fires && probe_off_identical,
        detail: Some(format!(
            "true_p={p} assumed_p={assumed} probes={probes} \
             fixed_rank_deficit={fixed_deficit} adaptive_rank_deficit={adaptive_deficit}",
        )),
    }
}

// ---------------------------------------------------------------------
// Workloads 13 & 14: the ordering subsystem (PR 9) — the same engine
// driven scalar (one oracle query per pair) vs through le_batch rounds.
// ---------------------------------------------------------------------

/// A deliberately unbatched value comparator: every pair reaches the
/// oracle through scalar `le`, one query at a time (the trait-default
/// `le_round` loop). The `le_batch` contract pins batched answers to the
/// scalar sequence, so the optimized run must match bit-for-bit in both
/// outputs and query counts.
struct ScalarValueCmp<'a, O> {
    oracle: &'a mut O,
}

impl<O: nco_oracle::ComparisonOracle> Comparator<usize> for ScalarValueCmp<'_, O> {
    fn le(&mut self, a: usize, b: usize) -> bool {
        self.oracle.le(a, b)
    }
    fn doomed(&self) -> bool {
        self.oracle.doomed()
    }
}

fn shuffled_values(n: usize, seed: u64) -> Vec<f64> {
    use rand::seq::SliceRandom;
    let mut values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    values.shuffle(&mut StdRng::seed_from_u64(seed));
    values
}

fn run_sort(n: usize, reps: usize) -> WorkloadReport {
    let values = shuffled_values(n, 0x50F7);
    let params = OrderProbParams::experimental();
    let seeds = rep_seeds(0x50, reps);
    let items: Vec<usize> = (0..n).collect();

    // Baseline: scalar comparator loop.
    let start = Instant::now();
    let mut queries = 0u64;
    let mut scalar_orders = Vec::with_capacity(reps);
    for &(oracle_seed, _) in &seeds {
        let mut oracle = Counting::new(ProbValueOracle::new(values.clone(), 0.2, oracle_seed));
        let order = sort_prob(
            &items,
            &params,
            &mut ScalarValueCmp {
                oracle: &mut oracle,
            },
        );
        queries += oracle.queries();
        scalar_orders.push(order);
    }
    let baseline_ms = ms(start);

    // Optimized: the same engine through le_batch rounds.
    let start = Instant::now();
    let mut opt_queries = 0u64;
    let mut opt_orders = Vec::with_capacity(reps);
    for &(oracle_seed, _) in &seeds {
        let mut oracle = Counting::new(ProbValueOracle::new(values.clone(), 0.2, oracle_seed));
        let order = sort_prob(&items, &params, &mut ValueCmp::new(&mut oracle));
        opt_queries += oracle.queries();
        opt_orders.push(order);
    }
    let optimized_ms = ms(start);

    WorkloadReport {
        name: format!("sort_n{n}"),
        n,
        reps,
        baseline_ms,
        optimized_ms,
        queries,
        threads: 1,
        optimization: "wave binary-search steps + polish scoring coalesced into le_batch rounds",
        outputs_match: scalar_orders == opt_orders && queries == opt_queries,
        detail: None,
    }
}

fn run_select(n: usize, reps: usize) -> WorkloadReport {
    let values = shuffled_values(n, 0x5E1E);
    let k = n / 8;
    let params = OrderProbParams::experimental();
    let seeds = rep_seeds(0x51, reps);
    let items: Vec<usize> = (0..n).collect();

    // Baseline: scalar comparator loop.
    let start = Instant::now();
    let mut queries = 0u64;
    let mut scalar_picks = Vec::with_capacity(reps);
    for &(oracle_seed, rng_seed) in &seeds {
        let mut oracle = Counting::new(ProbValueOracle::new(values.clone(), 0.2, oracle_seed));
        let pick = select_prob(
            &items,
            k,
            &params,
            &mut ScalarValueCmp {
                oracle: &mut oracle,
            },
            &mut StdRng::seed_from_u64(rng_seed),
        );
        queries += oracle.queries();
        scalar_picks.push(pick);
    }
    let baseline_ms = ms(start);

    // Optimized: the same engine through le_batch rounds.
    let start = Instant::now();
    let mut opt_queries = 0u64;
    let mut opt_picks = Vec::with_capacity(reps);
    for &(oracle_seed, rng_seed) in &seeds {
        let mut oracle = Counting::new(ProbValueOracle::new(values.clone(), 0.2, oracle_seed));
        let pick = select_prob(
            &items,
            k,
            &params,
            &mut ValueCmp::new(&mut oracle),
            &mut StdRng::seed_from_u64(rng_seed),
        );
        opt_queries += oracle.queries();
        opt_picks.push(pick);
    }
    let optimized_ms = ms(start);

    WorkloadReport {
        name: format!("select_n{n}"),
        n,
        reps,
        baseline_ms,
        optimized_ms,
        queries,
        threads: 1,
        optimization: "sample scoring + resolving scan coalesced into le_batch rounds",
        outputs_match: scalar_picks == opt_picks && queries == opt_queries,
        detail: Some(format!("k={k}")),
    }
}

fn write_json(path: &str, mode: &str, reports: &[WorkloadReport]) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"nco-perfsuite/v4\",\n");
    s.push_str("  \"pr\": \"PR15\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!(
        "  \"host_logical_cores\": {},\n",
        host_logical_cores()
    ));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        s.push_str(&format!("      \"n\": {},\n", r.n));
        s.push_str(&format!("      \"reps\": {},\n", r.reps));
        s.push_str(&format!("      \"threads\": {},\n", r.threads));
        s.push_str(&format!(
            "      \"baseline_wall_ms\": {:.3},\n",
            r.baseline_ms
        ));
        s.push_str(&format!(
            "      \"optimized_wall_ms\": {:.3},\n",
            r.optimized_ms
        ));
        s.push_str(&format!("      \"speedup\": {:.3},\n", r.speedup()));
        s.push_str(&format!("      \"queries\": {},\n", r.queries));
        s.push_str(&format!(
            "      \"optimization\": \"{}\",\n",
            r.optimization
        ));
        if let Some(detail) = &r.detail {
            s.push_str(&format!("      \"detail\": \"{detail}\",\n"));
        }
        s.push_str(&format!("      \"outputs_match\": {}\n", r.outputs_match));
        s.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"total_queries\": {}\n",
        reports.iter().map(|r| r.queries).sum::<u64>()
    ));
    s.push_str("}\n");
    std::fs::write(path, s)
}

/// Logical cores of the host — recorded in the JSON so bench trajectories
/// from different machines are comparable.
fn host_logical_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Pulls `(name, n, queries)` triples out of a perfsuite JSON file using
/// plain string scanning — the file format is our own, and the binary
/// must stay dependency-free (no serde in the offline build). Works for
/// every schema version, v1 to v4 (the scanned fields are common to all).
fn extract_workloads(json: &str) -> Vec<(String, u64, u64)> {
    fn field_u64(segment: &str, key: &str) -> Option<u64> {
        let at = segment.find(&format!("\"{key}\":"))?;
        let rest = &segment[at + key.len() + 3..];
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    }
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"name\":") {
        rest = &rest[at + 7..];
        let open = match rest.find('"') {
            Some(i) => i,
            None => break,
        };
        let close = match rest[open + 1..].find('"') {
            Some(i) => open + 1 + i,
            None => break,
        };
        let name = rest[open + 1..close].to_string();
        let segment_end = rest.find("\"name\":").unwrap_or(rest.len());
        let segment = &rest[..segment_end];
        if let (Some(n), Some(queries)) = (field_u64(segment, "n"), field_u64(segment, "queries")) {
            out.push((name, n, queries));
        }
    }
    out
}

fn check_baseline(path: &str, reports: &[WorkloadReport]) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let baseline = extract_workloads(&text);
    for r in reports {
        let Some((_, base_n, base_queries)) = baseline.iter().find(|(name, _, _)| *name == r.name)
        else {
            return Err(format!("workload {} missing from baseline {path}", r.name));
        };
        if *base_n != r.n as u64 {
            return Err(format!(
                "workload {}: baseline pinned n = {base_n} but this run used n = {} — \
                 regenerate the baseline",
                r.name, r.n
            ));
        }
        if r.queries > *base_queries {
            return Err(format!(
                "workload {}: {} oracle queries regress past the baseline's {base_queries}",
                r.name, r.queries
            ));
        }
    }
    Ok(())
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_PR18.json");
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--check-baseline" => {
                baseline_path = Some(args.next().expect("--check-baseline requires a path"));
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: perfsuite [--smoke] [--out PATH] [--check-baseline PATH]");
                std::process::exit(2);
            }
        }
    }

    let mode = if smoke { "smoke" } else { "full" };
    eprintln!(
        "perfsuite: mode = {mode}, host cores = {}",
        host_logical_cores()
    );

    let reports = if smoke {
        vec![
            run_count_max_prob(1024, 2),
            run_neighbor("neighbor", 512, 128, 4, (0x4E16, 0x4E)),
            run_neighbor("neighbor_d64", 512, 64, 6, (0x4E64, 0x4D)),
            run_slink(128),
            run_slink_scaffold(256),
            run_slink_scaffold(512),
            run_slink_complete(256),
            run_slink_complete(512),
            run_slink_crowd(128),
            run_kcenter(256, 16, 2),
            run_session_kcenter(256, 16, 2),
            run_serve_mixed(128, 4),
            run_serve_faulty(128, 4),
            run_adaptive_noise(128, 2),
            run_sort(256, 2),
            run_select(512, 2),
        ]
    } else {
        vec![
            run_count_max_prob(4096, 6),
            run_neighbor("neighbor", 2048, 128, 12, (0x4E16, 0x4E)),
            run_neighbor("neighbor_d64", 2048, 64, 16, (0x4E64, 0x4D)),
            run_slink(512),
            run_slink_scaffold(1024),
            run_slink_scaffold(2048),
            run_slink_complete(1024),
            run_slink_complete(2048),
            run_slink_crowd(512),
            run_kcenter(1024, 32, 4),
            run_session_kcenter(1024, 32, 4),
            run_serve_mixed(512, 8),
            run_serve_faulty(512, 8),
            run_adaptive_noise(512, 4),
            run_sort(1024, 3),
            run_select(2048, 3),
        ]
    };

    let mut ok = true;
    for r in &reports {
        eprintln!(
            "  {:22} n={:5} reps={:2} threads={:2}  baseline {:9.2} ms  optimized {:9.2} ms  \
             speedup {:5.2}x  queries {:>10}  match={}",
            r.name,
            r.n,
            r.reps,
            r.threads,
            r.baseline_ms,
            r.optimized_ms,
            r.speedup(),
            r.queries,
            r.outputs_match
        );
        ok &= r.outputs_match;
    }

    write_json(&out_path, mode, &reports).expect("cannot write BENCH json");
    eprintln!("perfsuite: wrote {out_path}");

    if !ok {
        eprintln!("perfsuite: FAILED — an optimized configuration changed outputs or counts");
        std::process::exit(1);
    }
    if let Some(path) = baseline_path {
        if let Err(msg) = check_baseline(&path, &reports) {
            eprintln!("perfsuite: baseline check FAILED — {msg}");
            std::process::exit(1);
        }
        eprintln!("perfsuite: query counts within baseline {path}");
    }
}
