//! `perfsuite` — the deterministic query ledger behind the repo's perf
//! trajectory (`BENCH_*.json`).
//!
//! Sixteen pinned, fully seeded workloads cover the paper's hot paths:
//!
//! | name | shape |
//! |---|---|
//! | `count_max_prob_n4096` | Algorithm 12 maximum over 4096 hidden values, persistent `p = 0.2` |
//! | `neighbor_n2048` | 12 farthest + 12 nearest searches (Alg. 13/15), 128-d points behind a `DistCache`, persistent `p = 0.15` |
//! | `neighbor_d64_n2048` | 16 farthest + 16 nearest searches over 64-d points, same shape |
//! | `slink_n512` | Algorithm 11 single-linkage hierarchy over 512 128-d points behind a `DistCache`, persistent `p = 0.05` |
//! | `slink_n1024` | single linkage on the **shared-scaffold search plane** (PR 10) over 64-d points |
//! | `slink_n2048` | the same at 2048 points |
//! | `slink_complete_n1024` | complete linkage on the **incremental merge plane with scaffolded pointer repair** (PR 5, PR 10) |
//! | `slink_complete_n2048` | the same at 2048 points |
//! | `slink_crowd_n512` | single linkage under the 3-worker crowd oracle, lazy 128-d distances: a round reads a repeated right-hand pair's distance once |
//! | `kcenter_n1024` | Algorithm 6 greedy 32-center over 1024 128-d points, adversarial `mu = 0.2`, one `DistCache` across reps |
//! | `session_kcenter_n1024` | **A/B:** the same k-center called directly vs through the facade's `Session` front door (7 interleaved pairs) |
//! | `serve_mixed_n512` | **A/B:** a mixed request stream as sequential solo sessions vs the concurrent serving plane (PR 6) |
//! | `serve_faulty_n512` | the serving plane under a seeded fault storm, every fault masked by bounded retry (PR 7) |
//! | `adaptive_noise_n512` | **A/B:** silently fixed-rate sessions vs probe + `AdaptPolicy::Escalate` under a misspecified rate (PR 8) |
//! | `sort_n1024` | full noisy sort (skeleton insertion + polish) over 1024 hidden values, persistent `p = 0.2` (PR 9) |
//! | `select_n2048` | k-th selection (sample–score–narrow) over 2048 hidden values, `k = 256`, persistent `p = 0.2` (PR 9) |
//!
//! Every workload runs its configuration once and records its oracle
//! query bill (`queries`) and `answer_digest`, a 64-bit hash of every
//! answer the run produced. Both are pure functions of the seeds, so
//! the committed BENCH files must agree on them exactly. The three A/B
//! workloads run a second configuration in the same process and record
//! whether the two agree as `outputs_match`; `serve_faulty_n512` records
//! its masking check there. `wall_ms` is one unrepeated timing of the
//! whole workload: smoke-only, never a claim. Equivalences between
//! configurations (cached vs raw metric, scaffold vs from-scratch sweep,
//! batched vs scalar rounds, faulty vs fault-free serving) are pinned by
//! the test suites, not re-run here.
//!
//! Usage:
//!
//! ```text
//! perfsuite [--smoke] [--out PATH] [--check-baseline PATH]
//! ```
//!
//! `--smoke` shrinks every workload (~16x fewer queries) for CI;
//! `--out` defaults to `BENCH_PR24.json` in the current directory;
//! `--check-baseline` compares this run's query counts against a
//! committed baseline JSON and exits non-zero on any regression
//! (count > baseline) — the CI guard for the pinned workloads.

use nco_core::comparator::ValueCmp;
use nco_core::hier::{hier_oracle, hier_oracle_stats, Dendrogram, HierParams, Linkage};
use nco_core::kcenter::{kcenter_adv, KCenterAdvParams};
use nco_core::maxfind::{max_prob, AdvParams, ProbParams};
use nco_core::neighbor::{farthest_adv, nearest_adv};
use nco_core::order::{select_prob, sort_prob, OrderProbParams};
use nco_metric::{CachedMetric, EuclideanMetric};
use nco_oracle::adversarial::{AdversarialQuadOracle, InvertAdversary};
use nco_oracle::counting::Counting;
use nco_oracle::probabilistic::{ProbQuadOracle, ProbValueOracle};
use noisy_oracle::Answer;
use rand::rngs::{CounterRng, StdRng};
use rand::{Rng, RngCore, SeedableRng};
use std::time::Instant;

struct WorkloadReport {
    name: String,
    n: usize,
    reps: usize,
    /// Worker threads the workload ran on (1 = serial; the serving
    /// workloads report their worker count).
    threads: usize,
    wall_ms: f64,
    queries: u64,
    answer_digest: u64,
    config: &'static str,
    /// The in-run comparison or check, for the workloads that keep one.
    outputs_match: Option<bool>,
    /// Free-form extra measurements (latency percentiles, backend
    /// tallies); rendered into the JSON only when present. Must never
    /// contain a quoted JSON key (`"x":`) — `extract_workloads` scans
    /// the raw text.
    detail: Option<String>,
}

/// FNV-1a over the answers of one workload, fed as 64-bit words in run
/// order (lists length-prefixed). Answers are record indices throughout,
/// so the digest depends on what was computed and on nothing else.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: usize) {
        for byte in (w as u64).to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn list(&mut self, ws: &[usize]) {
        self.word(ws.len());
        for &w in ws {
            self.word(w);
        }
    }

    fn dendrogram(&mut self, d: &Dendrogram) {
        self.word(d.n);
        self.word(d.merges.len());
        for m in &d.merges {
            for w in [m.a, m.b, m.merged, m.rep.0, m.rep.1] {
                self.word(w);
            }
        }
    }

    /// The answers of the tasks perfsuite runs through the facade.
    fn answer(&mut self, answer: &Answer) {
        match answer {
            Answer::Item(i) => self.word(*i),
            Answer::Clustering(c) => {
                self.list(&c.centers);
                self.list(&c.assignment);
            }
            other => unreachable!("perfsuite runs no task answering {other:?}"),
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

/// `1..=n` as hidden values, shuffled by `seed`.
fn shuffled_values(n: usize, seed: u64) -> Vec<f64> {
    use rand::seq::SliceRandom;
    let mut values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    values.shuffle(&mut StdRng::seed_from_u64(seed));
    values
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Sorts `xs` and returns its middle element.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

// ---------------------------------------------------------------------
// Count-Max-Prob over hidden values.
// ---------------------------------------------------------------------

fn run_count_max_prob(n: usize, reps: usize) -> WorkloadReport {
    let start = Instant::now();
    let values = shuffled_values(n, 0xC0DE);
    let params = ProbParams::experimental();
    let items: Vec<usize> = (0..n).collect();
    let mut queries = 0u64;
    let mut digest = Digest::new();
    for (oracle_seed, rng_seed) in rep_seeds(0xA1, reps) {
        let mut oracle = Counting::new(ProbValueOracle::new(values.clone(), 0.2, oracle_seed));
        let winner = max_prob(
            &items,
            &params,
            &mut ValueCmp::new(&mut oracle),
            &mut StdRng::seed_from_u64(rng_seed),
        );
        queries += oracle.queries();
        digest.list(winner.as_slice());
    }

    WorkloadReport {
        name: format!("count_max_prob_n{n}"),
        n,
        reps,
        threads: 1,
        wall_ms: ms(start),
        queries,
        answer_digest: digest.0,
        config: "serial Count-Max-Prob scoring rounds",
        outputs_match: None,
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Farthest/nearest neighbour searches (128-d and 64-d).
// ---------------------------------------------------------------------

fn run_neighbor(
    name_prefix: &str,
    n: usize,
    dim: usize,
    searches: usize,
    workload_seed: (u64, u64),
) -> WorkloadReport {
    let start = Instant::now();
    // The searches are anchored at a handful of query points, so only
    // ~searches * n of the n^2/2 pairs are ever touched; the DistCache
    // evaluates each once and every later round reads the table.
    let metric = CachedMetric::new(mixture_points(n, dim, 16, workload_seed.0));
    let params = AdvParams::with_confidence(0.1);
    let (oracle_seed, rng_seed) = rep_seeds(workload_seed.1, 1)[0];
    let mut oracle = Counting::new(ProbQuadOracle::new(&metric, 0.15, oracle_seed));
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut digest = Digest::new();
    for s in 0..searches {
        let q = (s * 97) % n;
        digest.word(farthest_adv(&mut oracle, q, &params, &mut rng).expect("n >= 2"));
        digest.word(nearest_adv(&mut oracle, q, &params, &mut rng).expect("n >= 2"));
    }

    WorkloadReport {
        name: format!("{name_prefix}_n{n}"),
        n,
        reps: searches,
        threads: 1,
        wall_ms: ms(start),
        queries: oracle.queries(),
        answer_digest: digest.0,
        config: "DistCache: touched-pair distance memoisation behind batched oracle rounds",
        outputs_match: None,
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Hierarchies: single and complete linkage on the merge plane, with and
// without the shared scaffold, and single linkage under the crowd oracle.
// ---------------------------------------------------------------------

/// One hierarchy over `n` mixture points in `dim` dimensions behind a
/// `DistCache`, persistent `p = 0.05`; `seeds` are (metric, workload).
fn run_hierarchy(
    name: String,
    n: usize,
    dim: usize,
    params: HierParams,
    seeds: (u64, u64),
    config: &'static str,
) -> WorkloadReport {
    let start = Instant::now();
    let metric = CachedMetric::new(mixture_points(n, dim, 8, seeds.0));
    let (oracle_seed, rng_seed) = rep_seeds(seeds.1, 1)[0];
    let mut oracle = Counting::new(ProbQuadOracle::new(&metric, 0.05, oracle_seed));
    let (dendrogram, stats) =
        hier_oracle_stats(&params, &mut oracle, &mut StdRng::seed_from_u64(rng_seed));
    let mut digest = Digest::new();
    digest.dendrogram(&dendrogram);

    WorkloadReport {
        name,
        n,
        reps: 1,
        threads: 1,
        wall_ms: ms(start),
        queries: oracle.queries(),
        answer_digest: digest.0,
        config,
        outputs_match: None,
        detail: params.scaffold.then(|| {
            format!(
                "scaffold_hits={} repair_contests={} repair_fallbacks={}",
                stats.scaffold_hits, stats.repair_contests, stats.repair_fallbacks,
            )
        }),
    }
}

fn run_slink(n: usize) -> WorkloadReport {
    run_hierarchy(
        format!("slink_n{n}"),
        n,
        128,
        HierParams::experimental(Linkage::Single),
        (0x511A, 0x51),
        "incremental merge plane over a DistCache",
    )
}

/// One bucket deal and one persistent sample shared by every
/// row-anchored search (initial pointers and pointer repairs alike).
fn run_slink_scaffold(n: usize) -> WorkloadReport {
    run_hierarchy(
        format!("slink_n{n}"),
        n,
        64,
        HierParams::experimental(Linkage::Single).scaffolded(),
        (0x511B, 0x52),
        "shared-scaffold search plane: cached row sweeps (PR 10)",
    )
}

/// Complete linkage recomputes every stale pointer after every merge, so
/// its repairs dominate the bill; the scaffold turns each repair into a
/// dirty-set re-contest over cached winner structure.
fn run_slink_complete(n: usize) -> WorkloadReport {
    run_hierarchy(
        format!("slink_complete_n{n}"),
        n,
        64,
        HierParams::experimental(Linkage::Complete).scaffolded(),
        (0x511C, 0x53),
        "incremental merge plane + scaffolded pointer repair (PR 5, PR 10)",
    )
}

fn run_slink_crowd(n: usize) -> WorkloadReport {
    use nco_oracle::crowd::{AccuracyProfile, CrowdQuadOracle};
    let start = Instant::now();
    // Deliberately lazy distances: every committee decision derives its
    // two 128-d distances, except a right-hand pair repeated from the
    // round's previous query, whose distance the round reuses.
    let metric = mixture_points(n, 128, 8, 0x511D);
    let (oracle_seed, rng_seed) = rep_seeds(0x54, 1)[0];
    let profile = AccuracyProfile::caltech_like();
    let mut oracle = Counting::new(CrowdQuadOracle::new(metric, profile, 3, oracle_seed));
    let dendrogram = hier_oracle(
        &HierParams::experimental(Linkage::Single),
        &mut oracle,
        &mut StdRng::seed_from_u64(rng_seed),
    );
    let mut digest = Digest::new();
    digest.dendrogram(&dendrogram);

    WorkloadReport {
        name: format!("slink_crowd_n{n}"),
        n,
        reps: 1,
        threads: 1,
        wall_ms: ms(start),
        queries: oracle.queries(),
        answer_digest: digest.0,
        config: "crowd rounds: one-entry right-hand distance memo",
        outputs_match: None,
        detail: None,
    }
}

// ---------------------------------------------------------------------
// Greedy k-center under adversarial noise, called directly and through
// the facade's `Session` front door.
// ---------------------------------------------------------------------

/// Direct and `Session` passes alternate this many times; the report
/// carries the median of each and the spread of the per-pair ratios.
const SESSION_KCENTER_PAIRS: usize = 7;

type KCenterOut = Vec<(Vec<usize>, Vec<usize>)>;

fn kcenter_digest(digest: &mut Digest, out: &KCenterOut) {
    for (centers, assignment) in out {
        digest.list(centers);
        digest.list(assignment);
    }
}

/// Greedy k-center once per seed over one fresh `DistCache` shared across
/// the reps (the realistic shape: many clustering requests over one
/// corpus). The queries touch only (point, center) pairs.
fn kcenter_direct(metric: &EuclideanMetric, k: usize, seeds: &[(u64, u64)]) -> (KCenterOut, u64) {
    let cached = CachedMetric::new(metric.clone());
    let mut queries = 0u64;
    let mut out = Vec::with_capacity(seeds.len());
    for &(_, rng_seed) in seeds {
        let mut oracle = Counting::new(AdversarialQuadOracle::new(&cached, 0.2, InvertAdversary));
        let c = kcenter_adv(
            &KCenterAdvParams::experimental(k),
            &mut oracle,
            &mut StdRng::seed_from_u64(rng_seed),
        );
        queries += oracle.queries();
        out.push((c.centers, c.assignment));
    }
    (out, queries)
}

fn run_kcenter(n: usize, k: usize, reps: usize) -> WorkloadReport {
    let start = Instant::now();
    let metric = mixture_points(n, 128, k, 0x6C3E);
    let (out, queries) = kcenter_direct(&metric, k, &rep_seeds(0x6C, reps));
    let mut digest = Digest::new();
    kcenter_digest(&mut digest, &out);

    WorkloadReport {
        name: format!("kcenter_n{n}"),
        n,
        reps,
        threads: 1,
        wall_ms: ms(start),
        queries,
        answer_digest: digest.0,
        config: "DistCache shared across reps: touched (point, center) pairs only",
        outputs_match: None,
        detail: None,
    }
}

fn run_session_kcenter(n: usize, k: usize, reps: usize) -> WorkloadReport {
    use noisy_oracle::data::AnyMetric;
    use noisy_oracle::{Engine, Noise, Session, Task};

    let start = Instant::now();
    let metric = mixture_points(n, 128, k, 0x6C3E);
    // Same rep seeds as `kcenter_n1024`: the direct arm is exactly that
    // workload, so its query count must reproduce bit-for-bit across the
    // two reports.
    let seeds = rep_seeds(0x6C, reps);

    // The identical runs through `Session::run` on a fresh shared
    // `Engine`. The facade must add nothing — same answers, same query
    // counts, wall time within noise of the direct loop.
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
    let mut direct_ms = Vec::with_capacity(SESSION_KCENTER_PAIRS);
    let mut session_ms = Vec::with_capacity(SESSION_KCENTER_PAIRS);
    let mut outputs_match = true;
    let mut queries = 0;
    let mut digest = Digest::new();
    for _ in 0..SESSION_KCENTER_PAIRS {
        let pair_start = Instant::now();
        let (direct_out, direct_queries) = kcenter_direct(&metric, k, &seeds);
        direct_ms.push(ms(pair_start));
        let pair_start = Instant::now();
        let (session_out, session_queries) = facade();
        session_ms.push(ms(pair_start));
        outputs_match &= direct_out == session_out && direct_queries == session_queries;
        kcenter_digest(&mut digest, &direct_out);
        kcenter_digest(&mut digest, &session_out);
        queries = direct_queries;
    }
    let mut ratios: Vec<f64> = direct_ms
        .iter()
        .zip(&session_ms)
        .map(|(d, s)| d / s)
        .collect();
    let ratio_median = median(&mut ratios);

    WorkloadReport {
        name: format!("session_kcenter_n{n}"),
        n,
        reps,
        threads: 1,
        wall_ms: ms(start),
        queries,
        answer_digest: digest.0,
        config: "Session front door over a shared Engine (zero-overhead facade check)",
        outputs_match: Some(outputs_match),
        detail: Some(format!(
            "medians of {SESSION_KCENTER_PAIRS} interleaved pairs: direct_ms={:.3} \
             session_ms={:.3}; per-pair direct/session median {ratio_median:.3} \
             min {:.3} max {:.3}",
            median(&mut direct_ms),
            median(&mut session_ms),
            ratios[0],
            ratios[ratios.len() - 1]
        )),
    }
}

// ---------------------------------------------------------------------
// The serving plane: a sustained mixed request stream, then the same
// plane under a seeded fault storm.
// ---------------------------------------------------------------------

fn run_serve_mixed(n: usize, batches: usize) -> WorkloadReport {
    use noisy_oracle::data::AnyMetric;
    use noisy_oracle::{Engine, Noise, Request, Server, Session, Task};

    let start = Instant::now();
    let metric = mixture_points(n, 64, 8, 0x5E12);
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

    // Arm A: the pre-serving shape — each request is a solo
    // `Session::run`, sequentially, over one shared engine.
    let solo_start = Instant::now();
    let engine = Engine::from_metric(AnyMetric::Euclidean(metric.clone()), true);
    let mut solo = Vec::with_capacity(requests.len());
    let mut solo_walls = Vec::with_capacity(requests.len());
    for r in &requests {
        let outcome = Session::builder()
            .engine(engine.clone())
            .noise(noise)
            .seed(r.seed)
            .build()
            .expect("valid session configuration")
            .run(r.task)
            .expect("unbudgeted run cannot fail");
        solo_walls.push(outcome.report.wall.as_secs_f64() * 1e3);
        solo.push(outcome);
    }
    let solo_ms = ms(solo_start);
    let queries: u64 = solo.iter().map(|o| o.report.queries).sum();

    // Arm B: the same stream submitted up front to the serving plane — a
    // worker pool over one memoised backend, which answers every
    // cross-request repeat from the shared memo. The pool is scaled to
    // the host: on one core a single worker drains the stream and the
    // win is the shared memo alone.
    let workers = host_logical_cores().min(4);
    let served_start = Instant::now();
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
    let served_ms = ms(served_start);

    let identical = requests.len() == served.len()
        && solo.iter().zip(&served).all(|(s, o)| {
            s.answer == o.answer
                && s.report.queries == o.report.queries
                && s.report.rounds == o.report.rounds
        });
    let mut digest = Digest::new();
    for outcome in solo.iter().chain(&served) {
        digest.answer(&outcome.answer);
    }

    let mut served_walls: Vec<f64> = served
        .iter()
        .map(|o| o.report.wall.as_secs_f64() * 1e3)
        .collect();
    served_walls.sort_by(f64::total_cmp);
    solo_walls.sort_by(f64::total_cmp);
    let pct = |sorted: &[f64], q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    let per_request = |total: u64| total as f64 / requests.len() as f64;

    WorkloadReport {
        name: format!("serve_mixed_n{n}"),
        n,
        reps: requests.len(),
        threads: workers,
        wall_ms: ms(start),
        queries,
        answer_digest: digest.0,
        config: if workers > 1 {
            "concurrent serving plane: worker pool + shared-memo backend"
        } else {
            "serving plane on one worker: shared-memo backend (pool overlap needs >1 core)"
        },
        // The serving plane must not change what any single request
        // computes or is billed — and the shared backend must actually
        // save work on the wire (strictly fewer oracle queries than the
        // requests' solo bills sum to).
        outputs_match: Some(identical && stats.backend_queries < queries),
        detail: Some(format!(
            "solo_ms={solo_ms:.3} served_ms={served_ms:.3} solo/served={:.3} \
             solo_p50_ms={:.3} solo_p99_ms={:.3} served_p50_ms={:.3} served_p99_ms={:.3} \
             queries_per_request_solo={:.1} queries_per_request_backend={:.1} \
             backend_memo_hits={}",
            solo_ms / served_ms,
            pct(&solo_walls, 0.50),
            pct(&solo_walls, 0.99),
            pct(&served_walls, 0.50),
            pct(&served_walls, 0.99),
            per_request(queries),
            per_request(stats.backend_queries),
            stats.memo_hits,
        )),
    }
}

fn run_serve_faulty(n: usize, batches: usize) -> WorkloadReport {
    use noisy_oracle::data::AnyMetric;
    use noisy_oracle::{Engine, FaultPlan, Noise, Request, RetryPolicy, Server, Session, Task};

    let start = Instant::now();
    let metric = mixture_points(n, 64, 8, 0xFA17);
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

    // A seeded storm of transients, stalls, burst outages and dead worker
    // lanes, every fault masked by bounded retry.
    let plan = FaultPlan::new(0xFA57)
        .transient(0.04)
        .stalls(0.02, 200)
        .outages(2048, 3)
        .dead_workers(16, 1);
    let template = Session::builder()
        .engine(Engine::from_metric(AnyMetric::Euclidean(metric), true))
        .noise(Noise::Probabilistic {
            p: 0.1,
            seed: 0xFEED,
        })
        .fault_plan(plan)
        .retry_policy(RetryPolicy::new(12))
        .build()
        .expect("valid session configuration");
    let workers = host_logical_cores().min(4);
    let server = Server::builder(template)
        .workers(workers)
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
    let stats = server.shutdown();
    let mut digest = Digest::new();
    for outcome in &outcomes {
        digest.answer(&outcome.answer);
    }

    WorkloadReport {
        name: format!("serve_faulty_n{n}"),
        n,
        reps: requests.len(),
        threads: workers,
        wall_ms: ms(start),
        queries: outcomes.iter().map(|o| o.report.queries).sum(),
        answer_digest: digest.0,
        config: "fault plane: seeded injection fully masked by bounded retry",
        // The storm must genuinely exercise the retry path, and every
        // fault must be masked: no panic, no deadline kill.
        outputs_match: Some(
            stats.retries > 0
                && stats.faults_masked > 0
                && stats.panics == 0
                && stats.deadline_kills == 0,
        ),
        detail: Some(format!(
            "retries={} faults_masked={} backend_queries_faulty={}",
            stats.retries, stats.faults_masked, stats.backend_queries,
        )),
    }
}

// ---------------------------------------------------------------------
// The adaptive noise plane under a misspecified rate (PR 8).
// ---------------------------------------------------------------------

fn run_adaptive_noise(n: usize, reps: usize) -> WorkloadReport {
    use noisy_oracle::{AdaptPolicy, NcoError, Noise, Session, Task};

    let start = Instant::now();
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

    // Arm A: silently misspecified fixed-rate sessions. They complete —
    // on repetition parameters derived for half the real rate — and
    // never learn anything is wrong.
    let fixed_start = Instant::now();
    let fixed: Vec<_> = seeds
        .iter()
        .map(|&(noise_seed, rng_seed)| {
            build(noise_seed, rng_seed, None, false)
                .run(Task::Max)
                .expect("unguarded run cannot fail")
        })
        .collect();
    let fixed_ms = ms(fixed_start);
    let fixed_deficit: usize = fixed
        .iter()
        .map(|o| deficit(o.answer.item().expect("Max returns an item")))
        .sum();

    // Arm B: billed probe triangles estimate the live rate, the guard
    // detects the misspecification, and `Escalate` re-derives the
    // parameters and re-runs on the spot. The overhead of probing + the
    // escalated attempt is the measurement.
    let adaptive_start = Instant::now();
    let adaptive: Vec<_> = seeds
        .iter()
        .map(|&(noise_seed, rng_seed)| {
            build(noise_seed, rng_seed, Some(0.10), true)
                .run(Task::Max)
                .expect("adaptive run recovers instead of failing")
        })
        .collect();
    let adaptive_ms = ms(adaptive_start);
    let adaptive_deficit: usize = adaptive
        .iter()
        .map(|o| deficit(o.answer.item().expect("Max returns an item")))
        .sum();
    let probes: u64 = adaptive.iter().map(|o| o.report.probes.unwrap_or(0)).sum();
    let queries: u64 = adaptive.iter().map(|o| o.report.queries).sum();
    let adapted = adaptive
        .iter()
        .all(|o| o.report.adaptations == 1 && o.report.probes.is_some_and(|b| b > 0));

    // Check 1: the same probed configuration without the adaptive policy
    // must detect the 2x misspecification and fail typed.
    let (noise_seed, rng_seed) = seeds[0];
    let guard_fires = matches!(
        build(noise_seed, rng_seed, Some(0.10), false).run(Task::Max),
        Err(NcoError::NoiseMisspecified { .. })
    );

    // Check 2: `probe_noise(0.0)` is bit-identical to never enabling the
    // layer — same answers, same query/round meters.
    let probe_off = build(noise_seed, rng_seed, Some(0.0), false)
        .run(Task::Max)
        .expect("probe-off run cannot fail");
    let probe_off_identical = probe_off.answer == fixed[0].answer
        && probe_off.report.queries == fixed[0].report.queries
        && probe_off.report.rounds == fixed[0].report.rounds
        && probe_off.report.probes.is_none();

    let mut digest = Digest::new();
    for outcome in fixed.iter().chain(&adaptive).chain([&probe_off]) {
        digest.answer(&outcome.answer);
    }

    WorkloadReport {
        name: format!("adaptive_noise_n{n}"),
        n,
        reps,
        threads: 1,
        wall_ms: ms(start),
        queries,
        answer_digest: digest.0,
        config: "online probe estimation + misspecification guard + Escalate re-derivation (PR 8)",
        outputs_match: Some(adapted && guard_fires && probe_off_identical),
        detail: Some(format!(
            "true_p={p} assumed_p={assumed} probes={probes} \
             fixed_rank_deficit={fixed_deficit} adaptive_rank_deficit={adaptive_deficit} \
             fixed_ms={fixed_ms:.3} adaptive_ms={adaptive_ms:.3}",
        )),
    }
}

// ---------------------------------------------------------------------
// The ordering subsystem (PR 9): sort and k-th selection through
// le_batch rounds.
// ---------------------------------------------------------------------

fn run_sort(n: usize, reps: usize) -> WorkloadReport {
    let start = Instant::now();
    let values = shuffled_values(n, 0x50F7);
    let params = OrderProbParams::experimental();
    let items: Vec<usize> = (0..n).collect();
    let mut queries = 0u64;
    let mut digest = Digest::new();
    for (oracle_seed, _) in rep_seeds(0x50, reps) {
        let mut oracle = Counting::new(ProbValueOracle::new(values.clone(), 0.2, oracle_seed));
        digest.list(&sort_prob(&items, &params, &mut ValueCmp::new(&mut oracle)));
        queries += oracle.queries();
    }

    WorkloadReport {
        name: format!("sort_n{n}"),
        n,
        reps,
        threads: 1,
        wall_ms: ms(start),
        queries,
        answer_digest: digest.0,
        config: "wave binary-search steps + polish scoring coalesced into le_batch rounds",
        outputs_match: None,
        detail: None,
    }
}

fn run_select(n: usize, reps: usize) -> WorkloadReport {
    let start = Instant::now();
    let values = shuffled_values(n, 0x5E1E);
    let k = n / 8;
    let params = OrderProbParams::experimental();
    let items: Vec<usize> = (0..n).collect();
    let mut queries = 0u64;
    let mut digest = Digest::new();
    for (oracle_seed, rng_seed) in rep_seeds(0x51, reps) {
        let mut oracle = Counting::new(ProbValueOracle::new(values.clone(), 0.2, oracle_seed));
        let pick = select_prob(
            &items,
            k,
            &params,
            &mut ValueCmp::new(&mut oracle),
            &mut StdRng::seed_from_u64(rng_seed),
        );
        digest.list(pick.as_slice());
        queries += oracle.queries();
    }

    WorkloadReport {
        name: format!("select_n{n}"),
        n,
        reps,
        threads: 1,
        wall_ms: ms(start),
        queries,
        answer_digest: digest.0,
        config: "sample scoring + resolving scan coalesced into le_batch rounds",
        outputs_match: None,
        detail: Some(format!("k={k}")),
    }
}

fn write_json(path: &str, mode: &str, reports: &[WorkloadReport]) -> std::io::Result<()> {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let mut fields = vec![
                format!("\"name\": \"{}\"", r.name),
                format!("\"n\": {}", r.n),
                format!("\"reps\": {}", r.reps),
                format!("\"threads\": {}", r.threads),
                format!("\"wall_ms\": {:.3}", r.wall_ms),
                format!("\"queries\": {}", r.queries),
                format!("\"answer_digest\": \"{:016x}\"", r.answer_digest),
                format!("\"config\": \"{}\"", r.config),
            ];
            if let Some(detail) = &r.detail {
                fields.push(format!("\"detail\": \"{detail}\""));
            }
            if let Some(ok) = r.outputs_match {
                fields.push(format!("\"outputs_match\": {ok}"));
            }
            format!("    {{\n      {}\n    }}", fields.join(",\n      "))
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"nco-perfsuite/v5\",\n  \"mode\": \"{mode}\",\n  \
         \"host_logical_cores\": {},\n  \"workloads\": [\n{}\n  ],\n  \
         \"total_queries\": {}\n}}\n",
        host_logical_cores(),
        workloads.join(",\n"),
        reports.iter().map(|r| r.queries).sum::<u64>()
    );
    std::fs::write(path, json)
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
/// every schema version, v1 to v5 (the scanned fields are common to all).
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
    let mut out_path = String::from("BENCH_PR24.json");
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
        let check = match r.outputs_match {
            Some(true) => "  check=pass",
            Some(false) => "  check=FAIL",
            None => "",
        };
        eprintln!(
            "  {:22} n={:5} reps={:2} threads={:2}  wall {:9.2} ms  queries {:>10}  \
             digest {:016x}{check}",
            r.name, r.n, r.reps, r.threads, r.wall_ms, r.queries, r.answer_digest,
        );
        ok &= r.outputs_match != Some(false);
    }

    write_json(&out_path, mode, &reports).expect("cannot write BENCH json");
    eprintln!("perfsuite: wrote {out_path}");

    if !ok {
        eprintln!("perfsuite: FAILED — an in-run comparison or check did not hold");
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
