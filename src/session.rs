//! The `Session` front door: one typed, budgeted entry point for every
//! algorithm in the reproduction.
//!
//! The paper's pipelines all share one shape — *pick a noise model, wire
//! an oracle, wire a comparator, pick theorem parameters, pass an rng* —
//! and before this module every caller re-built that chain by hand.
//! [`SessionBuilder`] captures the choices once; [`Session::run`] executes
//! any [`Task`] through the matching theorem-backed engine and returns a
//! [`Outcome`] (answer + [`RunReport`] cost accounting) or a typed
//! [`NcoError`].
//!
//! ## Architecture
//!
//! ```text
//! SessionBuilder ──build()──▶ Session ──run(Task)──▶ Result<Outcome, NcoError>
//!        │                      │
//!        │ owns/shares          │ per run: oracle chain
//!        ▼                      ▼
//!     Arc<Engine>     Budgeted(MemoOracle?(noise oracle(&engine data)))
//!  (values | metric        │
//!   [+ DistCache])         └─ nco-core engines (Max-Adv, Count-Max-Prob,
//!                             Alg. 6/7/11, core-routed searches)
//! ```
//!
//! The [`Engine`] is immutable and `Sync`: many sessions — across threads
//! — can share one engine over the same dataset, amortising its
//! `DistCache` exactly like the batched query plane does in the perf
//! suite. Oracles are built per run from shared references, so `run`
//! takes `&self` and a `Session` can be cloned freely.
//!
//! ## Determinism
//!
//! A run is a pure function of (engine data, configuration, task): the
//! rng is seeded from [`SessionBuilder::seed`] at every `run`, noise is
//! persistent (seeded in [`Noise`]), and the wiring is bit-identical to
//! the hand-assembled low-level calls — pinned, answer and query count,
//! in `tests/session_equivalence.rs`.
//!
//! ## Budgets
//!
//! [`SessionBuilder::budget`] sets a hard cap on oracle queries. Billing
//! is deterministic and in algorithm order; the first query past the cap
//! stops all further access to the underlying oracle (no distance
//! evaluation, no noise coin) and the run returns
//! [`NcoError::BudgetExceeded`] instead of an answer. A run that stays
//! within budget is bit-identical to the same run without a budget.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nco_core::comparator::ValueCmp;
use nco_core::hier::{hier_oracle_stats, HierParams, MergePlaneStats};
use nco_core::kcenter::{
    kcenter_adv_with_progress, kcenter_prob_with_progress, KCenterAdvParams, KCenterProbParams,
};
use nco_core::maxfind::{
    max_adv_with_progress, max_prob_with_progress, top_k_adv_with_progress,
    top_k_prob_with_progress, AdvParams, ProbParams,
};
use nco_core::neighbor::{farthest_adv, farthest_prob, nearest_adv, nearest_prob};
use nco_core::order::{
    partition_adv_with_progress, partition_prob_with_progress, sort_adv_with_progress,
    sort_prob_with_progress, OrderAdvParams, OrderProbParams,
};
use nco_data::{AnyMetric, Dataset};
use nco_metric::{CachedMetric, EuclideanMetric, Metric};
use nco_oracle::adversarial::{AdversarialQuadOracle, AdversarialValueOracle, InvertAdversary};
use nco_oracle::budget::Budgeted;
use nco_oracle::crowd::{AccuracyProfile, CrowdQuadOracle, CrowdValueOracle};
use nco_oracle::fault::{FaultPlan, FaultyOracle, RetryPolicy, Retrying};
use nco_oracle::persistent::PersistentNoise;
use nco_oracle::probabilistic::{ProbQuadOracle, ProbValueOracle};
use nco_oracle::{
    ComparisonOracle, MemoOracle, NoiseEstimate, Oracle, ProbeOracle, ProbePlan, QuadrupletOracle,
    TrueQuadOracle, TrueValueOracle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::NcoError;
use crate::report::{Outcome, RunReport};
use crate::task::{Answer, PartialOutcome, Task};

/// Salt XORed into the session seed to derive the probe plane's own
/// deterministic stream, so probes and the engine rng stay decoupled.
const PROBE_SEED_XOR: u64 = 0x7072_6F62_656E_636F; // "probenco"

/// Ceiling on the re-derived flip rate an [`AdaptPolicy::Escalate`]
/// re-run plans for: the repetition scale `1/(1-2p)^2` diverges at
/// `p = 1/2`, so the CI upper bound is clamped here before scaling.
const ADAPT_RATE_CAP: f64 = 0.45;

/// Repetition scale factor `1/(1-2p)^2` for a flip rate `p` — the
/// classic noisy-comparison sample-complexity dependence (the paper's
/// bounds carry the same `(1-2p)^-2` factor through their Chernoff
/// arguments). `p = 0` maps to `1.0`: assuming no noise changes nothing.
fn noise_scale_for(p: f64) -> f64 {
    let margin = 1.0 - 2.0 * p;
    1.0 / (margin * margin)
}

/// The noise model a session's oracle answers under (Section 2.2 of the
/// paper, plus the Section 6.2 crowd simulation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum Noise {
    /// Always-correct answers — the `mu = 0` / `p = 0` degenerate case.
    #[default]
    Exact,
    /// Adversarial multiplicative-band noise answered by the worst-case
    /// liar (`InvertAdversary`) — the model every approximation bound
    /// must survive.
    Adversarial {
        /// Band parameter `mu >= 0`: queries within a `(1 + mu)` ratio
        /// may be answered arbitrarily.
        mu: f64,
    },
    /// Persistent probabilistic noise: each distinct query is wrong with
    /// probability `p`, and repeating it returns the same answer.
    Probabilistic {
        /// Per-query error probability, `0 <= p < 0.5`.
        p: f64,
        /// Seed of the persistent error pattern.
        seed: u64,
    },
    /// Simulated crowd workers: per-query accuracy follows an
    /// [`AccuracyProfile`] over the ratio of the compared quantities,
    /// decided by majority over `workers` persistent annotators.
    Crowd {
        /// Accuracy-vs-ratio curve (Fig. 4 of the paper).
        profile: AccuracyProfile,
        /// Odd number of annotators per query (3 in the user study;
        /// 1 models the trained classifier).
        workers: u32,
        /// Seed of the simulated worker pool.
        seed: u64,
    },
}

impl Noise {
    /// `true` for the models routed through the probabilistic engines
    /// (Count-Max-Prob, core-routed neighbour searches, Algorithm 7):
    /// persistent statistical errors, where repetition cannot boost
    /// confidence. Exact and adversarial noise route through the
    /// adversarial engines (Max-Adv, Algorithm 6) instead.
    pub fn is_statistical(&self) -> bool {
        matches!(self, Noise::Probabilistic { .. } | Noise::Crowd { .. })
    }
}

/// How a probing session responds when the online flip-rate estimate
/// contradicts the noise rate its repetition parameters were derived
/// for (see [`SessionBuilder::adapt_noise`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdaptPolicy {
    /// Fail the run with [`NcoError::NoiseMisspecified`] — the default
    /// guard behaviour whenever probing is enabled, named here so it
    /// can be requested explicitly.
    FailFast,
    /// Re-derive the repetition parameters for the *observed* rate (the
    /// probe CI upper bound, clamped at `0.45`) and re-run the engine
    /// once on the remaining budget. Query/round meters accumulate
    /// across both attempts and [`RunReport::adaptations`] records the
    /// re-run; the escalated attempt is not re-guarded.
    Escalate,
}

/// What a session's distances are computed against.
#[derive(Debug)]
enum MetricStore {
    /// Every distance recomputed on demand.
    Plain(AnyMetric),
    /// Lazy distances memoised in a lock-free
    /// [`DistCache`](nco_metric::DistCache), shared by every session (and
    /// thread) on the engine.
    Cached(CachedMetric<AnyMetric>),
}

impl MetricStore {
    fn len(&self) -> usize {
        match self {
            Self::Plain(m) => m.len(),
            Self::Cached(c) => c.len(),
        }
    }
}

/// The immutable data plane shared by sessions: the hidden ground truth
/// (raw values or a metric space) plus the engine-level distance cache.
///
/// An `Engine` is `Sync` and designed to be shared behind an [`Arc`]:
/// build it once per corpus, then attach any number of concurrent
/// sessions via [`SessionBuilder::engine`]. Sessions never mutate the
/// engine — the distance cache is lock-free and insert-only.
#[derive(Debug)]
pub struct Engine {
    source: Source,
}

#[derive(Debug)]
enum Source {
    Values(Vec<f64>),
    Metric(MetricStore),
}

impl Engine {
    /// An engine over raw hidden values (for [`Task::Max`] /
    /// [`Task::TopK`] sessions).
    pub fn from_values(values: Vec<f64>) -> Arc<Self> {
        Arc::new(Self {
            source: Source::Values(values),
        })
    }

    /// An engine over a metric space (for neighbour / clustering /
    /// hierarchy sessions). `cache_distances` wraps the metric in a
    /// shared [`DistCache`](nco_metric::DistCache) so each distinct pair
    /// distance is evaluated at most once across every session on this
    /// engine.
    pub fn from_metric(metric: AnyMetric, cache_distances: bool) -> Arc<Self> {
        let store = if cache_distances {
            MetricStore::Cached(CachedMetric::new(metric))
        } else {
            MetricStore::Plain(metric)
        };
        Arc::new(Self {
            source: Source::Metric(store),
        })
    }

    /// An engine over a generated dataset's metric.
    pub fn from_dataset(dataset: &Dataset, cache_distances: bool) -> Arc<Self> {
        Self::from_metric(dataset.metric.clone(), cache_distances)
    }

    /// Number of records in the engine's ground truth.
    pub fn n(&self) -> usize {
        match &self.source {
            Source::Values(v) => v.len(),
            Source::Metric(m) => m.len(),
        }
    }

    /// `true` when the engine holds raw values (value tasks runnable).
    pub fn has_values(&self) -> bool {
        matches!(self.source, Source::Values(_))
    }

    /// `true` when the engine holds a metric (metric tasks runnable).
    pub fn has_metric(&self) -> bool {
        matches!(self.source, Source::Metric(_))
    }

    /// Distinct distances currently materialised in the engine's shared
    /// cache (`None` when distance caching is off or the engine holds
    /// raw values). Exact and O(1): one load of the cache's fill count.
    pub fn cache_entries(&self) -> Option<u64> {
        match &self.source {
            Source::Metric(MetricStore::Cached(c)) => Some(c.cache().filled() as u64),
            _ => None,
        }
    }

    pub(crate) fn values(&self) -> Option<&[f64]> {
        match &self.source {
            Source::Values(v) => Some(v),
            Source::Metric(_) => None,
        }
    }
}

/// A cheap, clonable [`Metric`] view of a (metric) engine's distances —
/// the handle the serving plane's shared backend oracle is built over, so
/// one `'static` oracle can outlive any particular request while still
/// hitting the engine's `DistCache`.
#[derive(Debug, Clone)]
pub(crate) struct EngineMetric(Arc<Engine>);

impl EngineMetric {
    /// A metric view of `engine`. Panics (via [`Metric::dist`]) if the
    /// engine holds raw values; callers gate on [`Engine::has_metric`].
    pub(crate) fn new(engine: Arc<Engine>) -> Self {
        Self(engine)
    }
}

impl Metric for EngineMetric {
    fn len(&self) -> usize {
        self.0.n()
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        match &self.0.source {
            Source::Metric(MetricStore::Plain(m)) => m.dist(i, j),
            Source::Metric(MetricStore::Cached(c)) => c.dist(i, j),
            Source::Values(_) => unreachable!("value engines expose no metric"),
        }
    }
}

/// A clonable cooperative cancellation handle for in-flight runs.
///
/// Hand a token to [`SessionBuilder::cancel_token`], keep a clone, and
/// call [`CancelToken::cancel`] from any thread: every run attached to
/// the token stops issuing oracle queries at its next query or round
/// boundary and returns [`NcoError::DeadlineExceeded`] with the partial
/// [`RunReport`] — cancellation is cooperative, so a distance evaluation
/// already in flight is never interrupted midway.
///
/// Cancellation is sticky: once cancelled, every later run on a session
/// holding the token is killed at its first boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation of every run holding a clone of this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`Self::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The raw flag the oracle chain polls at kill boundaries.
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        self.0.clone()
    }
}

/// Configures and builds a [`Session`].
///
/// | knob | default | effect |
/// |---|---|---|
/// | [`values`](Self::values) / [`points`](Self::points) / [`metric`](Self::metric) / [`dataset`](Self::dataset) / [`engine`](Self::engine) | — (required) | the data source |
/// | [`noise`](Self::noise) | [`Noise::Exact`] | oracle noise model |
/// | [`confidence`](Self::confidence) | experimental params | theorem-grade failure probability `delta` |
/// | [`cache_distances`](Self::cache_distances) | `false` | engine-level [`DistCache`](nco_metric::DistCache) |
/// | [`memoize`](Self::memoize) | `false` | exact answer memo ([`MemoOracle`]) |
/// | [`seed`](Self::seed) | `0` | rng stream of each run |
/// | [`budget`](Self::budget) | unlimited | hard cap on oracle queries |
/// | [`min_cluster_promise`](Self::min_cluster_promise) | `n / 2k` | Algorithm 7's `m` |
/// | [`fault_plan`](Self::fault_plan) | none | deterministic fault injection ([`FaultPlan`]) |
/// | [`retry_policy`](Self::retry_policy) | 4 attempts | bounded retry over injected faults |
/// | [`deadline`](Self::deadline) | none | wall-clock kill switch per run |
/// | [`cancel_token`](Self::cancel_token) | none | cooperative cancellation handle |
/// | [`probe_noise`](Self::probe_noise) | off | billed online flip-rate probing ([`ProbeOracle`]) |
/// | [`assume_noise_rate`](Self::assume_noise_rate) | none | scale repetitions for an assumed flip rate |
/// | [`adapt_noise`](Self::adapt_noise) | fail fast | response to a misspecified noise rate |
/// | [`scaffold_search`](Self::scaffold_search) | off | shared-scaffold plane for hierarchy searches |
#[derive(Debug, Default)]
#[must_use = "a builder does nothing until build() is called"]
pub struct SessionBuilder {
    engine: Option<Arc<Engine>>,
    values: Option<Vec<f64>>,
    metric: Option<AnyMetric>,
    cache_distances: bool,
    noise: Noise,
    delta: Option<f64>,
    memo: bool,
    seed: u64,
    budget: Option<u64>,
    min_cluster_promise: Option<usize>,
    first_center: Option<usize>,
    fault_plan: Option<FaultPlan>,
    retry: Option<RetryPolicy>,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    probe_rate: Option<f64>,
    assumed_noise: Option<f64>,
    adapt: Option<AdaptPolicy>,
    scaffold: bool,
    /// A typed rejection recorded by a data-source method (degenerate
    /// points), surfaced by [`Self::build`] — builder methods return
    /// `Self`, so they cannot fail in place.
    deferred: Option<NcoError>,
}

impl SessionBuilder {
    /// A fresh builder with every knob at its default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hidden scalar values for [`Task::Max`] / [`Task::TopK`] sessions.
    pub fn values(mut self, values: Vec<f64>) -> Self {
        self.values = Some(values);
        self
    }

    /// Euclidean points as the hidden metric space.
    ///
    /// Degenerate input — NaN/infinite coordinates or inconsistent
    /// dimensions — is remembered and surfaced as a typed
    /// [`NcoError::InvalidParams`] by [`Self::build`] instead of
    /// panicking; an empty slice builds an `n = 0` corpus that every
    /// task rejects typed at run time.
    pub fn points(mut self, points: &[Vec<f64>]) -> Self {
        if points.is_empty() {
            return self.metric(AnyMetric::Euclidean(EuclideanMetric::from_flat(
                Vec::new(),
                1,
            )));
        }
        let dim = points[0].len();
        if dim == 0 {
            self.deferred = Some(NcoError::invalid(
                "points need at least one coordinate each",
            ));
            return self;
        }
        if let Some((i, p)) = points.iter().enumerate().find(|(_, p)| p.len() != dim) {
            self.deferred = Some(NcoError::invalid(format!(
                "inconsistent point dimensions: point 0 has {dim} coordinates, \
                 point {i} has {}",
                p.len()
            )));
            return self;
        }
        if let Some(i) = points.iter().position(|p| p.iter().any(|x| !x.is_finite())) {
            self.deferred = Some(NcoError::invalid(format!(
                "point {i} has a non-finite (NaN or infinite) coordinate: \
                 the hidden metric must be finite"
            )));
            return self;
        }
        self.metric(AnyMetric::Euclidean(EuclideanMetric::from_points(points)))
    }

    /// An explicit hidden metric space.
    pub fn metric(mut self, metric: AnyMetric) -> Self {
        self.metric = Some(metric);
        self
    }

    /// A generated dataset: its metric becomes the hidden space and its
    /// minimum ground-truth cluster size seeds Algorithm 7's `m` promise.
    pub fn dataset(mut self, dataset: &Dataset) -> Self {
        self.min_cluster_promise = Some(dataset.min_cluster_size);
        self.metric(dataset.metric.clone())
    }

    /// Attach an existing (shared) engine instead of building one. The
    /// engine determines the data source *and* the distance-caching
    /// choice; [`Self::cache_distances`] is ignored in this mode.
    pub fn engine(mut self, engine: Arc<Engine>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// The oracle noise model (default: [`Noise::Exact`]).
    pub fn noise(mut self, noise: Noise) -> Self {
        self.noise = noise;
        self
    }

    /// Run with theorem-grade parameters at failure probability `delta`
    /// (each engine's `with_confidence` configuration). Without this, the
    /// paper's lean Section 6.1 experimental parameters are used.
    pub fn confidence(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Memoise lazy distance evaluations in an engine-level
    /// [`DistCache`](nco_metric::DistCache) shared across all sessions on
    /// the engine.
    pub fn cache_distances(mut self, on: bool) -> Self {
        self.cache_distances = on;
        self
    }

    /// Memoise oracle *answers* in an exact [`MemoOracle`] (persistent
    /// noise makes repeats free). Per run.
    pub fn memoize(mut self, on: bool) -> Self {
        self.memo = on;
        self
    }

    /// Seed of the rng stream each [`Session::run`] draws from. Runs are
    /// a pure function of (engine, configuration, task), so re-running
    /// the same task returns the same answer.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Hard cap on oracle queries per run; exceeding it aborts the run
    /// with [`NcoError::BudgetExceeded`] without issuing a single query
    /// past the cap.
    pub fn budget(mut self, max_queries: u64) -> Self {
        self.budget = Some(max_queries);
        self
    }

    /// Algorithm 7's minimum optimal-cluster-size promise `m` for
    /// probabilistic k-center (default: `max(1, n / 2k)`, the balanced
    /// heuristic; [`Self::dataset`] sets it from ground truth).
    pub fn min_cluster_promise(mut self, m: usize) -> Self {
        self.min_cluster_promise = Some(m);
        self
    }

    /// Inject deterministic oracle faults (transient failures, outage
    /// bursts, latency stalls, stuck workers) into every run, as
    /// described by a seeded [`FaultPlan`]. Faults are injected *under*
    /// the query meter and masked by the session's [`RetryPolicy`]
    /// (see [`Self::retry_policy`]): a fully masked plan returns answers
    /// **bit-identical** to the fault-free run — noise persistence means
    /// a re-asked query re-reads the same noisy belief — while the
    /// retries still show up in [`RunReport::queries`]. A fault that
    /// outlives the policy fails the run with [`NcoError::OracleFailed`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Bounded-retry recovery over injected faults (default:
    /// [`RetryPolicy::default`], 4 attempts per query). Every retry is
    /// billed as a real query — budgets and [`RunReport::queries`] stay
    /// honest — and deterministic backoff is accounted as latency debt
    /// rather than slept.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Wall-clock deadline per [`Session::run`], measured from the
    /// moment `run` is called and checked cooperatively at query and
    /// round boundaries (an oracle call already in flight is never
    /// interrupted midway). A run that outlives its deadline stops
    /// issuing oracle queries and returns [`NcoError::DeadlineExceeded`]
    /// carrying the partial [`RunReport`]: the answer is gone, the bill
    /// is not.
    ///
    /// # Examples
    ///
    /// ```
    /// use noisy_oracle::{NcoError, Session, Task};
    /// use std::time::Duration;
    ///
    /// let session = Session::builder()
    ///     .values((0..32).map(f64::from).collect())
    ///     .deadline(Duration::from_secs(30))
    ///     .build()?;
    /// // A generous deadline never fires; the answer is unchanged.
    /// let outcome = session.run(Task::Max)?;
    /// assert_eq!(outcome.answer.item(), Some(31));
    ///
    /// // An already-expired deadline kills the run at its first query
    /// // boundary, preserving the (empty) cost accounting.
    /// let doomed = Session::builder()
    ///     .values((0..32).map(f64::from).collect())
    ///     .deadline(Duration::ZERO)
    ///     .build()?;
    /// match doomed.run(Task::Max) {
    ///     Err(NcoError::DeadlineExceeded { report, .. }) => assert_eq!(report.queries, 0),
    ///     other => panic!("expected a deadline kill, got {other:?}"),
    /// }
    /// # Ok::<(), NcoError>(())
    /// ```
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cooperative [`CancelToken`]: calling
    /// [`CancelToken::cancel`] on any clone kills in-flight (and future)
    /// runs of this session at their next query or round boundary with
    /// [`NcoError::DeadlineExceeded`], partial accounting preserved.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Pin the greedy k-center's first center to a specific record
    /// (default: the paper's "arbitrary point", drawn from the run's
    /// seeded rng). Useful for comparing runs against a fixed reference.
    pub fn first_center(mut self, record: usize) -> Self {
        self.first_center = Some(record);
        self
    }

    /// Enable the online noise probe plane: inject seeded transitivity
    /// triangles into the live query stream at `rate` (the probability,
    /// per real oracle ask, that a three-query probe triangle is issued
    /// first). Probes are **billed** — they pass through the same
    /// budget/deadline/fault chain as real queries and show up in
    /// [`RunReport::queries`] and [`RunReport::probes`] — and
    /// deterministic: the probe stream is a pure function of the
    /// session seed, so replaying a session replays its probes.
    ///
    /// Probing feeds [`RunReport::observed_flip_rate`] and arms the
    /// misspecification guard: a run whose observed rate's confidence
    /// interval sits entirely above the assumed rate
    /// ([`Self::assume_noise_rate`], or the model `p` of
    /// [`Noise::Probabilistic`]) fails with
    /// [`NcoError::NoiseMisspecified`] unless
    /// [`Self::adapt_noise`] escalates instead.
    ///
    /// Probes never change answers: noise is persistent, so the extra
    /// asks cannot move any belief a real query reads. `rate` must lie
    /// in `[0, 1]`.
    pub fn probe_noise(mut self, rate: f64) -> Self {
        self.probe_rate = Some(rate);
        self
    }

    /// Derive the engines' repetition parameters for an assumed flip
    /// rate `p` instead of the defaults: sampling/round counts scale by
    /// `1/(1-2p)^2`, the standard noisy-comparison dependence. `p` must
    /// lie in `[0, 0.5)`; `0` is a no-op. With probing enabled this is
    /// also the rate the misspecification guard defends.
    pub fn assume_noise_rate(mut self, p: f64) -> Self {
        self.assumed_noise = Some(p);
        self
    }

    /// What to do when the probe plane's flip-rate estimate says the
    /// assumed noise rate is too low (its CI lower bound exceeds the
    /// assumed rate). Requires [`Self::probe_noise`].
    pub fn adapt_noise(mut self, policy: AdaptPolicy) -> Self {
        self.adapt = Some(policy);
        self
    }

    /// Run [`Task::Hierarchy`] searches over the shared-scaffold search
    /// plane (`HierParams::scaffolded`): one Max-Adv scaffold amortised
    /// across all initial-pointer and pointer-repair searches — identical
    /// guarantees, decision-identical to its from-scratch reference. Off
    /// by default because it trades queries for rounds and wall time: on
    /// the `hierarchy` benchmark workload it asks 12% fewer queries per
    /// request but issues 12% more rounds, and its median latency is 81%
    /// higher. It also changes the randomness schedule, so enabling it
    /// changes which (equally valid) dendrogram a given seed produces. No
    /// effect on other tasks.
    pub fn scaffold_search(mut self, on: bool) -> Self {
        self.scaffold = on;
        self
    }

    /// Validates the configuration and builds the session (constructing
    /// the engine unless one was attached).
    pub fn build(self) -> Result<Session, NcoError> {
        // A data-source method already rejected its input; surface that
        // first — the other checks would mask it with a confusing
        // "configure exactly one data source".
        if let Some(err) = self.deferred {
            return Err(err);
        }
        match self.noise {
            Noise::Adversarial { mu } => {
                if !(mu >= 0.0 && mu.is_finite()) {
                    return Err(NcoError::invalid(format!(
                        "adversarial band mu = {mu} must be a finite non-negative constant"
                    )));
                }
            }
            Noise::Probabilistic { p, .. } => {
                if !(0.0..0.5).contains(&p) {
                    return Err(NcoError::invalid(format!(
                        "error probability p = {p} must lie in [0, 0.5)"
                    )));
                }
            }
            Noise::Crowd { workers, .. } => {
                if workers % 2 == 0 {
                    return Err(NcoError::invalid(format!(
                        "crowd majority needs an odd number of workers, got {workers}"
                    )));
                }
            }
            Noise::Exact => {}
        }
        if let Some(delta) = self.delta {
            if !(delta > 0.0 && delta < 1.0) {
                return Err(NcoError::invalid(format!(
                    "confidence delta = {delta} must lie in (0, 1)"
                )));
            }
        }
        let sources =
            self.engine.is_some() as u8 + self.values.is_some() as u8 + self.metric.is_some() as u8;
        if sources != 1 {
            return Err(NcoError::invalid(
                "configure exactly one data source: values(), points()/metric()/dataset(), \
                 or engine()",
            ));
        }
        if let Some(metric) = &self.metric {
            // Degenerate coordinates (NaN/∞) poison every downstream
            // comparison — Euclidean self-distances turn NaN — and the
            // engines' threshold machinery misbehaves on unordered
            // floats. Reject them up front with a typed error: the O(n)
            // self-distance sweep is free next to any task's query work
            // and runs before the metric is wrapped in the engine, so
            // it never pollutes the shared distance cache.
            for i in 0..metric.len() {
                if !metric.dist(i, i).is_finite() {
                    return Err(NcoError::invalid(format!(
                        "record {i} has a non-finite self-distance — NaN or infinite \
                         coordinates? The hidden metric must be finite"
                    )));
                }
            }
        }
        let engine = if let Some(engine) = self.engine {
            engine
        } else if let Some(values) = self.values {
            Engine::from_values(values)
        } else {
            Engine::from_metric(
                self.metric.expect("one source present"),
                self.cache_distances,
            )
        };
        // Value checks run against the *resolved* engine so that sessions
        // attached to a shared `Engine::from_values` engine get the same
        // typed rejection as builder-owned values (the oracle constructors
        // would otherwise panic at run time).
        if let Some(values) = engine.values() {
            if values.iter().any(|v| !v.is_finite()) {
                return Err(NcoError::invalid("hidden values must be finite"));
            }
            let needs_magnitudes =
                matches!(self.noise, Noise::Adversarial { .. } | Noise::Crowd { .. });
            if needs_magnitudes && values.iter().any(|v| *v < 0.0) {
                return Err(NcoError::invalid(
                    "adversarial / crowd noise compares magnitude ratios: \
                     hidden values must be non-negative",
                ));
            }
        }
        if let Some(first) = self.first_center {
            if first >= engine.n() {
                return Err(NcoError::invalid(format!(
                    "first center {first} out of range (n = {})",
                    engine.n()
                )));
            }
        }
        if self.min_cluster_promise == Some(0) {
            return Err(NcoError::invalid(
                "minimum cluster-size promise m must be positive",
            ));
        }
        if self.memo && engine.n() > (1 << 16) {
            return Err(NcoError::invalid(format!(
                "answer memoisation is capped at n = 65536 records (n = {}): quadruplet \
                 keys pack indices into 16 bits and the comparison pair table is \
                 n(n-1)/4 bytes",
                engine.n()
            )));
        }
        if let Some(rate) = self.probe_rate {
            if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                return Err(NcoError::invalid(format!(
                    "probe rate {rate} must lie in [0, 1]"
                )));
            }
        }
        if let Some(p) = self.assumed_noise {
            if !(p.is_finite() && (0.0..0.5).contains(&p)) {
                return Err(NcoError::invalid(format!(
                    "assumed noise rate {p} must lie in [0, 0.5)"
                )));
            }
        }
        if self.adapt.is_some() && !self.probe_rate.is_some_and(|r| r > 0.0) {
            return Err(NcoError::invalid(
                "adapt_noise() needs the probe plane: set probe_noise(rate) with rate > 0",
            ));
        }
        Ok(Session {
            engine,
            cfg: Config {
                noise: self.noise,
                delta: self.delta,
                memo: self.memo,
                seed: self.seed,
                budget: self.budget,
                min_cluster_promise: self.min_cluster_promise,
                first_center: self.first_center,
                fault_plan: self.fault_plan,
                retry: self.retry,
                deadline: self.deadline,
                cancel: self.cancel,
                probe_rate: self.probe_rate,
                assumed_noise: self.assumed_noise,
                adapt: self.adapt,
                scaffold: self.scaffold,
            },
        })
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Config {
    pub(crate) noise: Noise,
    pub(crate) delta: Option<f64>,
    pub(crate) memo: bool,
    pub(crate) seed: u64,
    pub(crate) budget: Option<u64>,
    pub(crate) min_cluster_promise: Option<usize>,
    pub(crate) first_center: Option<usize>,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) probe_rate: Option<f64>,
    pub(crate) assumed_noise: Option<f64>,
    pub(crate) adapt: Option<AdaptPolicy>,
    pub(crate) scaffold: bool,
}

/// Per-run bookkeeping captured when a run starts, threaded through to
/// [`Session::finish`] so the report can attribute per-run deltas
/// (wall clock, distance-cache growth) on top of engine-level totals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunCtx {
    pub(crate) start: Instant,
    /// Engine distance-cache fill when the run started (`None` when
    /// caching is off).
    cache_start: Option<u64>,
}

impl RunCtx {
    pub(crate) fn begin(engine: &Engine) -> Self {
        Self {
            start: Instant::now(),
            cache_start: engine.cache_entries(),
        }
    }
}

/// A configured, reusable handle for running [`Task`]s against an
/// [`Engine`] — see the crate-level docs for the architecture sketch.
///
/// `run` takes `&self`: sessions are cheap to clone and safe to share
/// across threads (the engine is immutable, oracles are built per run).
#[derive(Debug, Clone)]
pub struct Session {
    engine: Arc<Engine>,
    cfg: Config,
}

impl Session {
    /// Starts a fresh [`SessionBuilder`].
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The shared engine this session runs against — attach it to another
    /// builder ([`SessionBuilder::engine`]) to serve more sessions over
    /// the same data (and the same distance cache).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Runs a task through the engine matching this session's noise
    /// model, returning the typed answer plus cost accounting.
    ///
    /// The wiring is bit-identical — same answers, same query counts — to
    /// hand-assembling the oracle, comparator, parameters and rng around
    /// the low-level APIs (`tests/session_equivalence.rs` pins this for
    /// every task under every noise model).
    pub fn run(&self, task: Task) -> Result<Outcome, NcoError> {
        let ctx = RunCtx::begin(&self.engine);
        self.validate(task)?;
        self.drive(ctx, |scale, budget| match &self.engine.source {
            Source::Values(values) => self.run_value(task, values, scale, budget, &ctx),
            Source::Metric(MetricStore::Plain(m)) => self.run_metric(task, m, scale, budget, &ctx),
            Source::Metric(MetricStore::Cached(c)) => self.run_metric(task, c, scale, budget, &ctx),
        })
    }

    /// This session's resolved configuration (for the serving plane).
    pub(crate) fn cfg(&self) -> &Config {
        &self.cfg
    }

    /// A clone of this session with a different rng seed — how the
    /// serving plane derives per-request sessions from one template.
    pub(crate) fn with_seed(&self, seed: u64) -> Session {
        let mut cloned = self.clone();
        cloned.cfg.seed = seed;
        cloned
    }

    /// Task/source compatibility and parameter-range checks, up front so
    /// the dispatch below cannot panic.
    pub(crate) fn validate(&self, task: Task) -> Result<(), NcoError> {
        let n = self.engine.n();
        if task.needs_values() && !self.engine.has_values() {
            return Err(NcoError::invalid(
                "value tasks (Max / TopK / Sort / Select / Partition) need a session built over raw values",
            ));
        }
        if !task.needs_values() && !self.engine.has_metric() {
            return Err(NcoError::invalid(
                "metric-space tasks need a session built over points, a metric or a dataset",
            ));
        }
        match task {
            Task::Max => {
                if n == 0 {
                    return Err(NcoError::empty("cannot take the maximum of zero values"));
                }
            }
            Task::TopK { k } => {
                if n == 0 {
                    return Err(NcoError::empty("cannot select from zero values"));
                }
                if k == 0 || k > n {
                    return Err(NcoError::invalid(format!(
                        "top-k needs 1 <= k <= n (k = {k}, n = {n})"
                    )));
                }
            }
            Task::Nearest { q } | Task::Farthest { q } => {
                if n < 2 {
                    return Err(NcoError::empty(format!(
                        "neighbour search needs at least 2 records (n = {n})"
                    )));
                }
                if q >= n {
                    return Err(NcoError::invalid(format!(
                        "query record q = {q} out of range (n = {n})"
                    )));
                }
            }
            Task::KCenter { k } => {
                if n == 0 {
                    return Err(NcoError::empty("cannot cluster zero records"));
                }
                if k == 0 || k > n {
                    return Err(NcoError::invalid(format!(
                        "k-center needs 1 <= k <= n (k = {k}, n = {n})"
                    )));
                }
            }
            Task::Hierarchy { .. } => {
                if n < 2 {
                    return Err(NcoError::empty(format!(
                        "agglomeration needs at least 2 records (n = {n})"
                    )));
                }
            }
            Task::Sort => {
                if n == 0 {
                    return Err(NcoError::empty("cannot sort zero values"));
                }
            }
            Task::Select { k } => {
                if n == 0 {
                    return Err(NcoError::empty("cannot select from zero values"));
                }
                if k == 0 || k > n {
                    return Err(NcoError::invalid(format!(
                        "select needs 1 <= k <= n (k = {k}, n = {n})"
                    )));
                }
            }
            Task::Partition { k } => {
                if n == 0 {
                    return Err(NcoError::empty("cannot partition zero values"));
                }
                if k == 0 || k > n {
                    return Err(NcoError::invalid(format!(
                        "partition needs 1 <= k <= n (k = {k}, n = {n})"
                    )));
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Value tasks (comparison oracles).
    //
    // The value oracles own their Vec<f64>, so each run copies the
    // engine's values once — O(n), dwarfed by the O(n polylog) query
    // work of every value task. (The quadruplet oracles are generic
    // over `M: Metric` and borrow instead; giving the value oracles
    // the same shape is the clean fix if value corpora ever grow past
    // the point where the copy shows up.)
    // -----------------------------------------------------------------

    fn run_value(
        &self,
        task: Task,
        values: &[f64],
        scale: f64,
        budget: Option<u64>,
        ctx: &RunCtx,
    ) -> AttemptResult {
        type Q = (usize, usize);
        let values = values.to_vec();
        match self.cfg.noise {
            Noise::Exact => {
                self.attempt::<Q, _>(task, TrueValueOracle::new(values), scale, budget, ctx)
            }
            Noise::Adversarial { mu } => {
                let raw = AdversarialValueOracle::new(values, mu, InvertAdversary);
                self.attempt::<Q, _>(task, raw, scale, budget, ctx)
            }
            Noise::Probabilistic { p, seed } => {
                let raw = ProbValueOracle::new(values, p, seed);
                self.attempt::<Q, _>(task, raw, scale, budget, ctx)
            }
            Noise::Crowd {
                profile,
                workers,
                seed,
            } => {
                let raw = CrowdValueOracle::new(values, profile, workers, seed);
                self.attempt::<Q, _>(task, raw, scale, budget, ctx)
            }
        }
    }

    /// The same noise-model dispatch as [`Self::run_value`], but boxed
    /// and owning its data — the `'static` backend oracle the serving
    /// plane shares (behind its own memo/meter chain) across requests.
    pub(crate) fn boxed_cmp_backend(&self) -> Box<dyn Oracle<(usize, usize)> + Send> {
        let values = self
            .engine
            .values()
            .expect("caller gated on Engine::has_values")
            .to_vec();
        match self.cfg.noise {
            Noise::Exact => Box::new(TrueValueOracle::new(values)),
            Noise::Adversarial { mu } => {
                Box::new(AdversarialValueOracle::new(values, mu, InvertAdversary))
            }
            Noise::Probabilistic { p, seed } => Box::new(ProbValueOracle::new(values, p, seed)),
            Noise::Crowd {
                profile,
                workers,
                seed,
            } => Box::new(CrowdValueOracle::new(values, profile, workers, seed)),
        }
    }

    /// Quadruplet twin of [`Self::boxed_cmp_backend`], built over an
    /// [`EngineMetric`] handle so it hits the engine's `DistCache`.
    pub(crate) fn boxed_quad_backend(&self) -> Box<dyn Oracle<[usize; 4]> + Send> {
        let metric = EngineMetric::new(self.engine.clone());
        match self.cfg.noise {
            Noise::Exact => Box::new(TrueQuadOracle::new(metric)),
            Noise::Adversarial { mu } => {
                Box::new(AdversarialQuadOracle::new(metric, mu, InvertAdversary))
            }
            Noise::Probabilistic { p, seed } => Box::new(ProbQuadOracle::new(metric, p, seed)),
            Noise::Crowd {
                profile,
                workers,
                seed,
            } => Box::new(CrowdQuadOracle::new(metric, profile, workers, seed)),
        }
    }

    /// Runs `attempt` — one engine pass at a repetition scale on a budget
    /// — and folds its meters into the outcome. Shared with the serving
    /// plane, whose attempts run over the shared backend instead.
    ///
    /// With [`AdaptPolicy::Escalate`], a clean first attempt whose probe
    /// estimate trips the misspecification guard is discarded and the
    /// engine re-runs (fresh chain, same rng seed) with parameters
    /// re-derived for the observed rate, on whatever budget the first
    /// attempt left. Persistence makes the rebuilt chain answer
    /// identically to the first. Meters accumulate across both attempts.
    pub(crate) fn drive(
        &self,
        ctx: RunCtx,
        mut attempt: impl FnMut(f64, Option<u64>) -> AttemptResult,
    ) -> Result<Outcome, NcoError> {
        let (answer, m, partial) = attempt(self.base_scale(), self.cfg.budget)?;
        match self.escalation(&m) {
            None => self.finish(answer, m, ctx, partial, 0),
            Some((scale, remaining)) => {
                let (answer, m2, partial) = attempt(scale, remaining)?;
                self.finish(answer, Meters::accumulated(m, m2), ctx, partial, 1)
            }
        }
    }

    /// One engine pass over a fresh oracle chain, inside out: faults are
    /// injected right on the raw oracle, the budget/deadline meter bills
    /// every ask (faulted or not), the optional answer memo serves
    /// repeats for free, retry re-enters the meter on every re-ask of a
    /// faulted lane, and the probe plane sits outermost so its probe
    /// triangles are billed, budgeted and fault-masked like real queries.
    /// With no fault plan and no probing the chain is fully transparent —
    /// bit-identical answers and meters to wiring the budget alone.
    fn attempt<Q, O>(
        &self,
        task: Task,
        raw: O,
        scale: f64,
        budget: Option<u64>,
        ctx: &RunCtx,
    ) -> AttemptResult
    where
        O: PersistentNoise,
        Chain<Metered<O>>: Engines<Q>,
        Chain<MemoOracle<Metered<O>>>: Engines<Q>,
    {
        let plan = self.cfg.fault_plan.unwrap_or_else(FaultPlan::none);
        let metered = Budgeted::new(FaultyOracle::new(raw, plan), budget)
            .with_deadline(self.cfg.deadline.map(|d| ctx.start + d))
            .with_cancel(self.cfg.cancel.as_ref().map(CancelToken::flag));
        if self.cfg.memo {
            // Memo outside the budget: hits are free, only queries that
            // reach the real oracle bill. (A probe colliding with an
            // earlier query is served by the memo, hence unbilled — the
            // probe plane still counts it toward its estimate.)
            self.run_chain(task, MemoOracle::new(metered), scale)
        } else {
            self.run_chain(task, metered, scale)
        }
    }

    /// Wraps the metered oracle `inner` in retry and the probe plane,
    /// runs the engine, and reads the chain's meters.
    fn run_chain<Q, I: BelowRetry>(&self, task: Task, inner: I, scale: f64) -> AttemptResult
    where
        Chain<I>: Engines<Q>,
    {
        let probe = self.probe_plan();
        let policy = self.cfg.retry.unwrap_or_default();
        let mut oracle = ProbeOracle::new(Retrying::new(inner, policy), probe);
        let (mut plane, mut partial) = (None, None);
        let answer =
            Engines::<Q>::run_task(&mut oracle, self, task, scale, &mut plane, &mut partial)?;
        let retrying = oracle.inner();
        let (budgeted, memo_hits) = retrying.inner().meters();
        let m = Meters {
            queries: budgeted.queries(),
            rounds: budgeted.rounds(),
            exceeded: budgeted.exceeded(),
            killed: budgeted.killed(),
            starved: None,
            failed: retrying.failed(),
            memo_hits,
            estimate: oracle.estimate(),
            probes: probe.is_active().then(|| oracle.stats().probes),
            merge_plane: plane,
        };
        Ok((answer, m, partial))
    }

    // -----------------------------------------------------------------
    // Metric tasks (quadruplet oracles).
    // -----------------------------------------------------------------

    fn run_metric<M: Metric>(
        &self,
        task: Task,
        metric: M,
        scale: f64,
        budget: Option<u64>,
        ctx: &RunCtx,
    ) -> AttemptResult {
        type Q = [usize; 4];
        match self.cfg.noise {
            Noise::Exact => {
                self.attempt::<Q, _>(task, TrueQuadOracle::new(metric), scale, budget, ctx)
            }
            Noise::Adversarial { mu } => {
                let raw = AdversarialQuadOracle::new(metric, mu, InvertAdversary);
                self.attempt::<Q, _>(task, raw, scale, budget, ctx)
            }
            Noise::Probabilistic { p, seed } => {
                let raw = ProbQuadOracle::new(metric, p, seed);
                self.attempt::<Q, _>(task, raw, scale, budget, ctx)
            }
            Noise::Crowd {
                profile,
                workers,
                seed,
            } => {
                let raw = CrowdQuadOracle::new(metric, profile, workers, seed);
                self.attempt::<Q, _>(task, raw, scale, budget, ctx)
            }
        }
    }

    // -----------------------------------------------------------------
    // Parameter resolution: `confidence(delta)` picks the theorem-grade
    // configuration, otherwise the paper's experimental one.
    // -----------------------------------------------------------------

    fn delta_eff(&self) -> f64 {
        self.cfg.delta.unwrap_or(0.1)
    }

    /// The probe plane of every run in this session — inert (and fully
    /// transparent) unless [`SessionBuilder::probe_noise`] was set.
    pub(crate) fn probe_plan(&self) -> ProbePlan {
        match self.cfg.probe_rate {
            Some(rate) => ProbePlan::new(self.cfg.seed ^ PROBE_SEED_XOR, rate),
            None => ProbePlan::none(),
        }
    }

    /// The session's baseline repetition scale: `1/(1-2p)^2` when an
    /// assumed noise rate was configured, `1.0` (a strict no-op on
    /// every parameter) otherwise.
    fn base_scale(&self) -> f64 {
        self.cfg.assumed_noise.map(noise_scale_for).unwrap_or(1.0)
    }

    /// The flip rate the misspecification guard defends: the explicit
    /// [`SessionBuilder::assume_noise_rate`], falling back to the model
    /// `p` of [`Noise::Probabilistic`]. `None` (no guard) for other
    /// noise models without an explicit assumption.
    fn assumed_rate(&self) -> Option<f64> {
        self.cfg.assumed_noise.or(match self.cfg.noise {
            Noise::Probabilistic { p, .. } => Some(p),
            _ => None,
        })
    }

    /// `Some(estimate)` when probing measured a flip rate whose CI
    /// lower bound exceeds the assumed rate — the misspecification
    /// trigger shared by the guard and the escalation path.
    fn misspecified(&self, estimate: &Option<NoiseEstimate>) -> Option<NoiseEstimate> {
        let assumed = self.assumed_rate()?;
        let est = (*estimate)?;
        (est.p_lo > assumed).then_some(est)
    }

    /// Decides whether a finished first attempt must be escalated:
    /// requires [`AdaptPolicy::Escalate`], a *clean* attempt (a failed,
    /// killed or over-budget run surfaces its own error instead), and a
    /// tripped misspecification trigger. Returns the re-derived scale —
    /// planned for the worst rate the probes still deem plausible (the CI
    /// upper bound), capped away from the `1/2` singularity — and the
    /// budget the second attempt may still spend.
    fn escalation(&self, m: &Meters) -> Option<(f64, Option<u64>)> {
        if self.cfg.adapt != Some(AdaptPolicy::Escalate)
            || m.failed.is_some()
            || m.killed
            || m.exceeded
            || m.starved.is_some()
        {
            return None;
        }
        let est = self.misspecified(&m.estimate)?;
        let scale = noise_scale_for(est.p_hi.min(ADAPT_RATE_CAP));
        let remaining = self.cfg.budget.map(|b| b.saturating_sub(m.queries));
        Some((scale, remaining))
    }

    fn adv_params(&self, scale: f64) -> AdvParams {
        let mut params = self
            .cfg
            .delta
            .map(AdvParams::with_confidence)
            .unwrap_or_default();
        params.rounds = scale_rounds(params.rounds, scale);
        params
    }

    fn prob_params(&self, scale: f64) -> ProbParams {
        let mut params = self
            .cfg
            .delta
            .map(ProbParams::with_confidence)
            .unwrap_or_default();
        params.sample_coeff *= scale;
        params
    }

    fn order_adv_params(&self, scale: f64) -> OrderAdvParams {
        let mut params = self
            .cfg
            .delta
            .map(OrderAdvParams::with_confidence)
            .unwrap_or_default();
        params.vote_coeff *= scale;
        params.sample_coeff *= scale;
        params
    }

    fn order_prob_params(&self, scale: f64) -> OrderProbParams {
        let mut params = self
            .cfg
            .delta
            .map(OrderProbParams::with_confidence)
            .unwrap_or_default();
        params.vote_coeff *= scale;
        params.sample_coeff *= scale;
        params
    }

    fn kcenter_adv_params(&self, k: usize, scale: f64) -> KCenterAdvParams {
        let mut params = match self.cfg.delta {
            Some(delta) => KCenterAdvParams::with_confidence(k, delta),
            None => KCenterAdvParams::experimental(k),
        };
        params.first_center = self.cfg.first_center;
        params.farthest.rounds = scale_rounds(params.farthest.rounds, scale);
        params
    }

    fn kcenter_prob_params(&self, k: usize, n: usize, scale: f64) -> KCenterProbParams {
        let m = self
            .cfg
            .min_cluster_promise
            .unwrap_or_else(|| (n / (2 * k)).max(1));
        let mut params = match self.cfg.delta {
            Some(delta) => KCenterProbParams::with_confidence(k, m, delta),
            None => KCenterProbParams::experimental(k, m),
        };
        params.first_center = self.cfg.first_center;
        params.gamma *= scale;
        params
    }

    fn hier_params(&self, linkage: nco_core::hier::Linkage, scale: f64) -> HierParams {
        let mut params = match self.cfg.delta {
            Some(delta) => HierParams::with_confidence(linkage, self.engine.n(), delta),
            None => HierParams::experimental(linkage),
        };
        params.search.rounds = scale_rounds(params.search.rounds, scale);
        params.scaffold = self.cfg.scaffold;
        params
    }

    fn finish(
        &self,
        answer: Answer,
        m: Meters,
        ctx: RunCtx,
        partial: Option<PartialOutcome>,
        adaptations: u32,
    ) -> Result<Outcome, NcoError> {
        // Failure precedence: a fault that outlived the retry policy
        // trumps the kill flag (the oracle was broken, not merely slow),
        // a kill trumps the budget flags (whichever fired first, the
        // kill is what stopped the run from recovering), the pooled
        // budget trumps the request's own, and all of them trump the
        // misspecification guard (a killed run's estimate is
        // incidental; its real failure is the kill). The guard never
        // fires on an adapted run: the escalated re-run already
        // answered the misspecification.
        if let Some(attempts) = m.failed {
            return Err(NcoError::OracleFailed {
                queries_spent: m.queries,
                attempts,
            });
        }
        let cache_entries = self.engine.cache_entries();
        let report = RunReport {
            queries: m.queries,
            rounds: m.rounds,
            memo_hits: m.memo_hits,
            cache_entries,
            // The run's own contribution: end-of-run fill minus the
            // fill captured when the run started. (On an engine with
            // concurrent sessions the window can attribute a racing
            // insert to whichever run read the counter later — the
            // counts still sum to the engine total.)
            cache_added: cache_entries.map(|e| e.saturating_sub(ctx.cache_start.unwrap_or(0))),
            wall: ctx.start.elapsed(),
            budget: self.cfg.budget,
            merge_plane: m.merge_plane,
            observed_flip_rate: m.estimate.map(|e| e.p_hat),
            probes: m.probes,
            adaptations,
        };
        if m.killed {
            return Err(NcoError::DeadlineExceeded {
                report: Box::new(report),
                partial,
            });
        }
        if let Some(pool_cap) = m.starved {
            return Err(NcoError::BudgetExceeded {
                budget: pool_cap,
                report: Box::new(report),
                partial,
            });
        }
        if m.exceeded {
            return Err(NcoError::BudgetExceeded {
                budget: self.cfg.budget.expect("exceeded implies a budget"),
                report: Box::new(report),
                partial,
            });
        }
        if adaptations == 0 {
            if let Some(est) = self.misspecified(&m.estimate) {
                return Err(NcoError::NoiseMisspecified {
                    assumed: self.assumed_rate().expect("trigger implies an assumption"),
                    observed: est.p_hat,
                    probes: m.probes.unwrap_or(0),
                    report: Box::new(report),
                });
            }
        }
        Ok(Outcome::new(answer, report))
    }
}

/// `ceil(rounds * scale)`, never below the unscaled count — how an
/// assumed/adapted noise rate escalates integer repetition knobs.
fn scale_rounds(rounds: usize, scale: f64) -> usize {
    if scale <= 1.0 {
        return rounds;
    }
    ((rounds as f64 * scale).ceil() as usize).max(rounds)
}

/// End-of-run meter readings from one attempt's oracle chain, gathered by
/// [`Session::run_chain`] (or the serving plane's attempt) and folded
/// into a [`RunReport`] or a typed failure.
pub(crate) struct Meters {
    pub(crate) queries: u64,
    pub(crate) rounds: u64,
    pub(crate) exceeded: bool,
    pub(crate) killed: bool,
    /// `Some(pool cap)` once the serving plane's pooled budget refused
    /// the request a round.
    pub(crate) starved: Option<u64>,
    /// `Some(attempt bound)` when a fault outlived the retry policy.
    pub(crate) failed: Option<u32>,
    pub(crate) memo_hits: Option<u64>,
    /// The probe plane's flip-rate estimate, when probing completed at
    /// least one triangle.
    pub(crate) estimate: Option<NoiseEstimate>,
    /// Billed probe queries (`Some` iff probing was enabled).
    pub(crate) probes: Option<u64>,
    pub(crate) merge_plane: Option<MergePlaneStats>,
}

impl Meters {
    /// Folds an escalated re-run's meters onto the discarded first
    /// attempt's: spend accumulates, state (kill/budget/fault flags,
    /// merge plane) comes from the attempt that produced the answer,
    /// and the estimate prefers the re-run's fresher probes.
    pub(crate) fn accumulated(first: Meters, second: Meters) -> Meters {
        Meters {
            queries: first.queries + second.queries,
            rounds: first.rounds + second.rounds,
            exceeded: second.exceeded,
            killed: second.killed,
            starved: second.starved,
            failed: second.failed,
            memo_hits: match (first.memo_hits, second.memo_hits) {
                (Some(a), Some(b)) => Some(a + b),
                (a, b) => a.or(b),
            },
            estimate: second.estimate.or(first.estimate),
            probes: match (first.probes, second.probes) {
                (Some(a), Some(b)) => Some(a + b),
                (a, b) => a.or(b),
            },
            merge_plane: second.merge_plane,
        }
    }
}

/// One attempt's answer, meters and clean-progress partial.
pub(crate) type AttemptResult = Result<(Answer, Meters, Option<PartialOutcome>), NcoError>;

/// The per-run chain above the metered oracle `I`: the probe plane
/// outermost, then retry.
type Chain<I> = ProbeOracle<Retrying<I>>;

/// The metered raw oracle: faults injected right on the raw oracle, the
/// budget/deadline meter above them.
type Metered<O> = Budgeted<FaultyOracle<O>>;

/// The engines a chain of query shape `Q` drives: value tasks over
/// comparison chains, metric tasks over quadruplet chains. It lets one
/// shape-generic attempt — here and in the serving plane — hand its
/// chain to the right engines.
pub(crate) trait Engines<Q> {
    fn run_task(
        &mut self,
        session: &Session,
        task: Task,
        scale: f64,
        plane: &mut Option<MergePlaneStats>,
        partial: &mut Option<PartialOutcome>,
    ) -> Result<Answer, NcoError>;
}

impl<C: ComparisonOracle> Engines<(usize, usize)> for C {
    fn run_task(
        &mut self,
        session: &Session,
        task: Task,
        scale: f64,
        _: &mut Option<MergePlaneStats>,
        partial: &mut Option<PartialOutcome>,
    ) -> Result<Answer, NcoError> {
        let items: Vec<usize> = (0..self.n()).collect();
        let mut rng = StdRng::seed_from_u64(session.cfg.seed);
        let mut cmp = ValueCmp::new(self);
        match task {
            Task::Max => {
                let mut leader = None;
                let best = if session.cfg.noise.is_statistical() {
                    max_prob_with_progress(
                        &items,
                        &session.prob_params(scale),
                        &mut cmp,
                        &mut rng,
                        &mut leader,
                    )
                } else {
                    max_adv_with_progress(
                        &items,
                        &session.adv_params(scale),
                        &mut cmp,
                        &mut rng,
                        &mut leader,
                    )
                };
                *partial = Some(PartialOutcome::Leader { candidate: leader });
                best.map(Answer::Item)
                    .ok_or_else(|| NcoError::empty("no values"))
            }
            Task::TopK { k } => {
                let mut clean = 0;
                let top = if session.cfg.noise.is_statistical() {
                    top_k_prob_with_progress(
                        &items,
                        k,
                        &session.prob_params(scale),
                        &mut cmp,
                        &mut rng,
                        &mut clean,
                    )
                } else {
                    top_k_adv_with_progress(
                        &items,
                        k,
                        &session.adv_params(scale),
                        &mut cmp,
                        &mut rng,
                        &mut clean,
                    )
                };
                *partial = Some(PartialOutcome::TopPrefix {
                    items: top[..clean].to_vec(),
                    requested: k,
                });
                Ok(Answer::Items(top))
            }
            Task::Sort => {
                let mut clean = 0;
                let order = if session.cfg.noise.is_statistical() {
                    sort_prob_with_progress(
                        &items,
                        &session.order_prob_params(scale),
                        &mut cmp,
                        &mut clean,
                    )
                } else {
                    sort_adv_with_progress(
                        &items,
                        &session.order_adv_params(scale),
                        &mut cmp,
                        &mut clean,
                    )
                };
                *partial = Some(PartialOutcome::SortedPrefix {
                    items: order[..clean].to_vec(),
                    n: order.len(),
                });
                Ok(Answer::Ranking(order))
            }
            // Select and Partition share the narrowing engine: a select
            // is a partition whose boundary item is the answer, so both
            // run the same queries and carry the same partial.
            Task::Select { k } | Task::Partition { k } => {
                let mut clean = 0;
                let mut candidate = None;
                let split = if session.cfg.noise.is_statistical() {
                    partition_prob_with_progress(
                        &items,
                        k,
                        &session.order_prob_params(scale),
                        &mut cmp,
                        &mut rng,
                        &mut clean,
                        &mut candidate,
                    )
                } else {
                    partition_adv_with_progress(
                        &items,
                        k,
                        &session.order_adv_params(scale),
                        &mut cmp,
                        &mut rng,
                        &mut clean,
                        &mut candidate,
                    )
                };
                *partial = Some(PartialOutcome::PivotCandidate {
                    candidate,
                    confirmed: split.top[..clean].to_vec(),
                    requested: k,
                });
                match task {
                    Task::Select { .. } => Ok(Answer::Item(split.top[k - 1])),
                    _ => Ok(Answer::Partition {
                        top: split.top,
                        rest: split.rest,
                    }),
                }
            }
            // validate() routed metric tasks away from value sessions.
            _ => Err(NcoError::invalid("not a value task")),
        }
    }
}

impl<C: QuadrupletOracle + PersistentNoise> Engines<[usize; 4]> for C {
    fn run_task(
        &mut self,
        session: &Session,
        task: Task,
        scale: f64,
        plane: &mut Option<MergePlaneStats>,
        partial: &mut Option<PartialOutcome>,
    ) -> Result<Answer, NcoError> {
        let n = self.n();
        let mut rng = StdRng::seed_from_u64(session.cfg.seed);
        let statistical = session.cfg.noise.is_statistical();
        match task {
            Task::Farthest { q } => {
                // No partial: a single-winner search over one candidate
                // set has no meaningful intermediate commitment.
                let far = if statistical {
                    farthest_prob(
                        self,
                        q,
                        session.delta_eff(),
                        &session.adv_params(scale),
                        &mut rng,
                    )
                } else {
                    farthest_adv(self, q, &session.adv_params(scale), &mut rng)
                };
                far.map(Answer::Item)
                    .ok_or_else(|| NcoError::empty("no candidates"))
            }
            Task::Nearest { q } => {
                let near = if statistical {
                    nearest_prob(
                        self,
                        q,
                        session.delta_eff(),
                        &session.adv_params(scale),
                        &mut rng,
                    )
                } else {
                    nearest_adv(self, q, &session.adv_params(scale), &mut rng)
                };
                near.map(Answer::Item)
                    .ok_or_else(|| NcoError::empty("no candidates"))
            }
            Task::KCenter { k } => {
                let mut clean = 0;
                let clustering = if statistical {
                    kcenter_prob_with_progress(
                        &session.kcenter_prob_params(k, n, scale),
                        self,
                        &mut rng,
                        &mut clean,
                    )
                } else {
                    kcenter_adv_with_progress(
                        &session.kcenter_adv_params(k, scale),
                        self,
                        &mut rng,
                        &mut clean,
                    )
                };
                *partial = Some(PartialOutcome::Committee {
                    centers: clustering.centers[..clean].to_vec(),
                    requested: k,
                });
                Ok(Answer::Clustering(clustering))
            }
            Task::Hierarchy { linkage } => {
                let (dend, stats) =
                    hier_oracle_stats(&session.hier_params(linkage, scale), self, &mut rng);
                *partial = Some(PartialOutcome::DendrogramPrefix {
                    n,
                    merges: dend.merges[..stats.clean_merges as usize].to_vec(),
                    expected: n.saturating_sub(1),
                });
                *plane = Some(stats);
                Ok(Answer::Dendrogram(dend))
            }
            // validate() routed value tasks away from metric sessions.
            _ => Err(NcoError::invalid("not a metric task")),
        }
    }
}

/// What sits below retry in an attempt's chain: the budget meter, behind
/// the answer memo when the memo is on.
trait BelowRetry {
    type Raw;
    /// The budget meter, and the memo's hit tally when the memo is on.
    fn meters(&self) -> (&Budgeted<Self::Raw>, Option<u64>);
}

impl<O> BelowRetry for Budgeted<O> {
    type Raw = O;
    fn meters(&self) -> (&Self, Option<u64>) {
        (self, None)
    }
}

impl<O: PersistentNoise> BelowRetry for MemoOracle<Budgeted<O>> {
    type Raw = O;
    fn meters(&self) -> (&Budgeted<O>, Option<u64>) {
        (self.inner(), Some(self.hits()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_core::hier::Linkage;

    fn square_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i % 8) as f64, (i / 8) as f64 * 1.3])
            .collect()
    }

    #[test]
    fn builder_requires_exactly_one_source() {
        let err = Session::builder().build().unwrap_err();
        assert!(matches!(err, NcoError::InvalidParams { .. }));
        let err = Session::builder()
            .values(vec![1.0])
            .points(&square_points(4))
            .build()
            .unwrap_err();
        assert!(matches!(err, NcoError::InvalidParams { .. }));
    }

    #[test]
    fn builder_validates_noise_and_delta() {
        let base = || Session::builder().values(vec![1.0, 2.0]);
        assert!(base()
            .noise(Noise::Probabilistic { p: 0.5, seed: 0 })
            .build()
            .is_err());
        assert!(base()
            .noise(Noise::Adversarial { mu: -1.0 })
            .build()
            .is_err());
        assert!(base()
            .noise(Noise::Crowd {
                profile: AccuracyProfile::amazon_like(),
                workers: 2,
                seed: 0
            })
            .build()
            .is_err());
        assert!(base().confidence(0.0).build().is_err());
        assert!(base().confidence(1.0).build().is_err());
        assert!(base().confidence(0.05).build().is_ok());
    }

    #[test]
    fn builder_rejects_bad_values_for_band_models() {
        let err = Session::builder()
            .values(vec![1.0, -2.0])
            .noise(Noise::Adversarial { mu: 0.5 })
            .build()
            .unwrap_err();
        assert!(matches!(err, NcoError::InvalidParams { .. }));
        // Probabilistic noise has no magnitude requirement.
        assert!(Session::builder()
            .values(vec![1.0, -2.0])
            .noise(Noise::Probabilistic { p: 0.1, seed: 0 })
            .build()
            .is_ok());
        assert!(Session::builder()
            .values(vec![1.0, f64::NAN])
            .build()
            .is_err());
    }

    #[test]
    fn task_source_mismatch_is_an_error() {
        let s = Session::builder().values(vec![1.0, 2.0]).build().unwrap();
        assert!(matches!(
            s.run(Task::KCenter { k: 1 }),
            Err(NcoError::InvalidParams { .. })
        ));
        let s = Session::builder()
            .points(&square_points(4))
            .build()
            .unwrap();
        assert!(matches!(
            s.run(Task::Max),
            Err(NcoError::InvalidParams { .. })
        ));
    }

    #[test]
    fn range_validation_catches_bad_tasks() {
        let s = Session::builder()
            .points(&square_points(8))
            .build()
            .unwrap();
        assert!(matches!(
            s.run(Task::Nearest { q: 8 }),
            Err(NcoError::InvalidParams { .. })
        ));
        assert!(matches!(
            s.run(Task::KCenter { k: 0 }),
            Err(NcoError::InvalidParams { .. })
        ));
        assert!(matches!(
            s.run(Task::KCenter { k: 9 }),
            Err(NcoError::InvalidParams { .. })
        ));
        let s = Session::builder().values(vec![]).build().unwrap();
        assert!(matches!(s.run(Task::Max), Err(NcoError::EmptyInput { .. })));
        let s = Session::builder().values(vec![1.0, 2.0]).build().unwrap();
        assert!(matches!(
            s.run(Task::TopK { k: 3 }),
            Err(NcoError::InvalidParams { .. })
        ));
    }

    #[test]
    fn exact_session_answers_every_task() {
        let s = Session::builder()
            .points(&square_points(24))
            .seed(7)
            .build()
            .unwrap();
        let far = s.run(Task::Farthest { q: 0 }).unwrap();
        assert!(far.answer.item().is_some());
        assert!(far.report.queries > 0);
        let near = s.run(Task::Nearest { q: 0 }).unwrap();
        assert_ne!(near.answer.item(), far.answer.item());
        let kc = s.run(Task::KCenter { k: 3 }).unwrap();
        assert_eq!(kc.answer.clustering().unwrap().k(), 3);
        let h = s
            .run(Task::Hierarchy {
                linkage: Linkage::Single,
            })
            .unwrap();
        assert_eq!(h.answer.dendrogram().unwrap().merges.len(), 23);

        let v = Session::builder()
            .values((0..64).map(f64::from).collect())
            .seed(3)
            .build()
            .unwrap();
        assert_eq!(v.run(Task::Max).unwrap().answer.item(), Some(63));
        let top = v.run(Task::TopK { k: 4 }).unwrap();
        assert_eq!(top.answer.items().unwrap(), &[63, 62, 61, 60]);
    }

    #[test]
    fn runs_are_deterministic() {
        let s = Session::builder()
            .points(&square_points(32))
            .noise(Noise::Probabilistic { p: 0.2, seed: 9 })
            .seed(11)
            .build()
            .unwrap();
        let a = s.run(Task::KCenter { k: 4 }).unwrap();
        let b = s.run(Task::KCenter { k: 4 }).unwrap();
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.report.queries, b.report.queries);
        assert_eq!(a.report.rounds, b.report.rounds);
    }

    #[test]
    fn shared_engine_serves_concurrent_sessions() {
        let engine = Engine::from_metric(
            AnyMetric::Euclidean(EuclideanMetric::from_points(&square_points(40))),
            true,
        );
        let serial: Vec<Option<usize>> = (0..4u64)
            .map(|seed| {
                Session::builder()
                    .engine(engine.clone())
                    .noise(Noise::Probabilistic { p: 0.1, seed })
                    .seed(seed)
                    .build()
                    .unwrap()
                    .run(Task::Farthest { q: seed as usize })
                    .unwrap()
                    .answer
                    .item()
            })
            .collect();
        let concurrent: Vec<Option<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|seed| {
                    let engine = engine.clone();
                    scope.spawn(move || {
                        Session::builder()
                            .engine(engine)
                            .noise(Noise::Probabilistic { p: 0.1, seed })
                            .seed(seed)
                            .build()
                            .unwrap()
                            .run(Task::Farthest { q: seed as usize })
                            .unwrap()
                            .answer
                            .item()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, concurrent);
        assert!(engine.cache_entries().unwrap() > 0);
    }

    #[test]
    fn engine_attached_value_sessions_are_validated_too() {
        // The same rejections as builder-owned values — no run-time
        // panic from the oracle constructors.
        let bad = Engine::from_values(vec![1.0, -2.0]);
        let err = Session::builder()
            .engine(bad.clone())
            .noise(Noise::Adversarial { mu: 0.5 })
            .build()
            .unwrap_err();
        assert!(matches!(err, NcoError::InvalidParams { .. }));
        // Probabilistic noise accepts negatives…
        assert!(Session::builder()
            .engine(bad)
            .noise(Noise::Probabilistic { p: 0.1, seed: 0 })
            .build()
            .is_ok());
        // …but non-finite values are rejected under every model.
        let nan = Engine::from_values(vec![1.0, f64::NAN]);
        assert!(Session::builder().engine(nan).build().is_err());
    }

    #[test]
    fn kcenter_knobs_are_range_validated_at_build() {
        let err = Session::builder()
            .points(&square_points(16))
            .first_center(99)
            .build()
            .unwrap_err();
        assert!(matches!(err, NcoError::InvalidParams { .. }));
        let err = Session::builder()
            .points(&square_points(16))
            .min_cluster_promise(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, NcoError::InvalidParams { .. }));
        assert!(Session::builder()
            .points(&square_points(16))
            .first_center(3)
            .min_cluster_promise(2)
            .build()
            .is_ok());
    }

    #[test]
    fn memo_size_cap_applies_to_value_sessions() {
        let err = Session::builder()
            .values(vec![0.0; (1 << 16) + 1])
            .memoize(true)
            .build()
            .unwrap_err();
        assert!(matches!(err, NcoError::InvalidParams { .. }));
        assert!(Session::builder()
            .values(vec![0.0; 64])
            .memoize(true)
            .build()
            .is_ok());
    }

    #[test]
    fn budget_exceeded_is_an_error_not_a_panic() {
        let s = Session::builder()
            .points(&square_points(32))
            .budget(10)
            .build()
            .unwrap();
        match s.run(Task::KCenter { k: 4 }) {
            Err(NcoError::BudgetExceeded { budget, .. }) => assert_eq!(budget, 10),
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_fails_typed_with_partial_report() {
        let s = Session::builder()
            .points(&square_points(24))
            .deadline(Duration::ZERO)
            .budget(1000)
            .build()
            .unwrap();
        match s.run(Task::KCenter { k: 3 }) {
            Err(NcoError::DeadlineExceeded { report, .. }) => {
                // Killed before the first query boundary: nothing billed,
                // but the accounting fields are all present.
                assert_eq!(report.queries, 0);
                assert_eq!(report.budget, Some(1000));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let run = |deadline: Option<Duration>| {
            let mut b = Session::builder()
                .points(&square_points(24))
                .noise(Noise::Probabilistic { p: 0.1, seed: 3 })
                .seed(5);
            if let Some(d) = deadline {
                b = b.deadline(d);
            }
            b.build().unwrap().run(Task::KCenter { k: 3 }).unwrap()
        };
        let clean = run(None);
        let timed = run(Some(Duration::from_secs(3600)));
        assert_eq!(clean.answer, timed.answer);
        assert_eq!(clean.report.queries, timed.report.queries);
    }

    #[test]
    fn cancel_token_kills_runs_cooperatively() {
        let token = CancelToken::new();
        let s = Session::builder()
            .points(&square_points(24))
            .cancel_token(token.clone())
            .build()
            .unwrap();
        // Not cancelled: runs normally.
        assert!(s.run(Task::Nearest { q: 0 }).is_ok());
        assert!(!token.is_cancelled());
        // Cancelled (from a clone): every later run is killed at its
        // first boundary, with the partial accounting preserved.
        token.clone().cancel();
        assert!(token.is_cancelled());
        match s.run(Task::Nearest { q: 0 }) {
            Err(NcoError::DeadlineExceeded { report, .. }) => assert_eq!(report.queries, 0),
            other => panic!("expected a cancel kill, got {other:?}"),
        }
    }

    #[test]
    fn masked_faults_keep_answers_and_bill_retries() {
        let run = |plan: Option<FaultPlan>| {
            let mut b = Session::builder()
                .points(&square_points(24))
                .noise(Noise::Probabilistic { p: 0.2, seed: 7 })
                .seed(9);
            if let Some(p) = plan {
                b = b.fault_plan(p).retry_policy(RetryPolicy::new(12));
            }
            b.build().unwrap().run(Task::KCenter { k: 3 }).unwrap()
        };
        let clean = run(None);
        let faulty = run(Some(FaultPlan::new(40).transient(0.08).stalls(0.05, 200)));
        // Persistence makes masked faults answer-invariant; the retries
        // still show up in the bill.
        assert_eq!(clean.answer, faulty.answer);
        assert!(faulty.report.queries > clean.report.queries);
    }

    #[test]
    fn unmasked_fault_fails_typed_with_spend_preserved() {
        // An outage burst longer than the retry policy's attempt bound
        // can never be masked.
        let s = Session::builder()
            .points(&square_points(24))
            .fault_plan(FaultPlan::new(3).outages(8, 6))
            .retry_policy(RetryPolicy::new(2))
            .build()
            .unwrap();
        match s.run(Task::KCenter { k: 3 }) {
            Err(NcoError::OracleFailed {
                queries_spent,
                attempts,
            }) => {
                assert!(queries_spent > 0);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected OracleFailed, got {other:?}"),
        }
    }

    #[test]
    fn flip_rate_is_reported_only_with_probing_on() {
        let run = |probe: Option<f64>| {
            let mut b = Session::builder()
                .points(&square_points(24))
                .noise(Noise::Probabilistic { p: 0.3, seed: 2 })
                .memoize(true);
            if let Some(rate) = probe {
                b = b.probe_noise(rate);
            }
            b.build()
                .unwrap()
                .run(Task::Hierarchy {
                    linkage: Linkage::Single,
                })
                .unwrap()
        };
        // Without the probe plane nothing in the chain can observe the
        // flip rate: the shipped models hold one persistent belief per
        // canonical comparison, so repeats and mirrors carry no signal.
        let quiet = run(None).report;
        assert_eq!(quiet.observed_flip_rate, None);
        assert_eq!(quiet.probes, None);
        // With probing the estimate exists, is billed, and lands in
        // (0, 0.5) — a real measurement, not the memo-era constant 0.
        let probed = run(Some(0.05)).report;
        let flip = probed.observed_flip_rate.expect("probing ran");
        assert!(flip > 0.0 && flip < 0.5, "estimate {flip} out of range");
        let probes = probed.probes.expect("probing ran");
        assert!(probes > 0, "probes must be billed");
        assert!(
            probed.queries >= quiet.queries,
            "probe queries bill on top of engine spend"
        );
    }

    #[test]
    fn probing_off_is_bit_identical_and_probing_is_deterministic() {
        let run = |probe: Option<f64>, seed: u64| {
            let mut b = Session::builder()
                .values((0..64).map(|v| (v * 37 % 64) as f64).collect())
                .noise(Noise::Probabilistic { p: 0.2, seed: 9 })
                .seed(seed);
            if let Some(rate) = probe {
                b = b.probe_noise(rate);
            }
            b.build().unwrap().run(Task::Max).unwrap()
        };
        for seed in 0..5 {
            let plain = run(None, seed);
            let probed = run(Some(0.1), seed);
            // Probes never change the answer (persistent noise), only
            // the meters; and replaying the probed session replays the
            // exact same probe stream.
            assert_eq!(plain.answer, probed.answer, "seed {seed}");
            assert!(probed.report.queries > plain.report.queries);
            let again = run(Some(0.1), seed);
            assert_eq!(probed.report.queries, again.report.queries);
            assert_eq!(probed.report.probes, again.report.probes);
            assert_eq!(
                probed.report.observed_flip_rate,
                again.report.observed_flip_rate
            );
        }
    }

    #[test]
    fn probe_and_adapt_knobs_are_validated() {
        let base = || Session::builder().values(vec![1.0, 2.0, 3.0]);
        assert!(matches!(
            base().probe_noise(1.5).build(),
            Err(NcoError::InvalidParams { .. })
        ));
        assert!(matches!(
            base().assume_noise_rate(0.5).build(),
            Err(NcoError::InvalidParams { .. })
        ));
        assert!(matches!(
            base().adapt_noise(AdaptPolicy::Escalate).build(),
            Err(NcoError::InvalidParams { .. })
        ));
        assert!(base()
            .probe_noise(0.1)
            .assume_noise_rate(0.2)
            .adapt_noise(AdaptPolicy::Escalate)
            .build()
            .is_ok());
    }

    #[test]
    fn assumed_noise_rate_escalates_repetition_parameters() {
        // scale 1.0 when the knob is absent (bit-compat with older
        // sessions); g(p) = 1/(1-2p)^2 when set.
        let plain = Session::builder()
            .values((0..32).map(f64::from).collect())
            .noise(Noise::Probabilistic { p: 0.25, seed: 1 })
            .build()
            .unwrap()
            .run(Task::Max)
            .unwrap();
        let assumed = Session::builder()
            .values((0..32).map(f64::from).collect())
            .noise(Noise::Probabilistic { p: 0.25, seed: 1 })
            .assume_noise_rate(0.25)
            .build()
            .unwrap()
            .run(Task::Max)
            .unwrap();
        // g(0.25) = 4: the scaled session must spend strictly more.
        assert!(
            assumed.report.queries > plain.report.queries,
            "assumed-rate session spent {} <= plain {}",
            assumed.report.queries,
            plain.report.queries
        );
    }
}
