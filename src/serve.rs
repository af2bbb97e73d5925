//! The concurrent serving plane: one engine, many in-flight requests.
//!
//! A [`Server`] is an async-style front door over an immutable
//! [`crate::Engine`]: callers [`submit`](Server::submit) typed
//! [`Request`]s and get [`TaskHandle`]s back; a small worker pool drains
//! the queue. Two mechanisms make concurrent serving cheaper than
//! running the same requests one by one:
//!
//! * **A shared exact answer memo** — the backend memoises the
//!   session's (persistent) noise model, so a query any request has
//!   asked before is answered for free, across requests. Per-request
//!   accounting is unchanged: each request bills the queries and rounds
//!   *it issued*, exactly as a solo [`crate::Session::run`] would
//!   (pinned in `tests/serve_plane.rs`). Quadruplet queries spread over
//!   64 memo stripes by a hash of their memo cell, each a [`MemoOracle`]
//!   behind its own lock, so concurrent requests probe different stripes
//!   at once; every stripe asks its misses of one shared oracle chain
//!   behind a lock of its own. A round takes one stripe lock at a time,
//!   leaving stripes another request holds to the end of its walk, and
//!   the chain lock only inside one, so the lock order is always stripe,
//!   then chain. A cell lives in exactly one stripe, whose lock
//!   covers its lookup, ask and fill, so every distinct cell reaches the
//!   oracle once, whichever request asks it first. Comparison queries
//!   keep one stripe: their memo is a dense triangle that every further
//!   stripe would allocate again.
//! * **Budget pooling with admission control** — an optional
//!   [`BudgetPool`] caps the total queries the server will issue across
//!   all requests. Admission is all-or-nothing per round: a refused
//!   round spends nothing, and the starved request fails typed with
//!   [`NcoError::BudgetExceeded`] instead of dragging the pool negative.
//!   A full submission queue sheds with [`NcoError::Overloaded`] rather
//!   than queueing unboundedly.
//!
//! The plane is also fault-isolated. The shared backend carries the
//! template's [`FaultPlan`] under a [`Retrying`] recovery layer, so
//! injected oracle faults are masked (and billed) at the backend without
//! per-request involvement; a fault that outlives the policy fails the
//! affected requests typed with [`NcoError::OracleFailed`]. Each worker
//! runs its request under `catch_unwind`: a panicking request returns
//! [`NcoError::Panicked`] to its submitter while the worker rejoins the
//! pool, and every shared lock recovers from poisoning. Per-request
//! deadlines ([`crate::SessionBuilder::deadline`] on the template) kill
//! overdue requests with [`NcoError::DeadlineExceeded`], partial
//! accounting preserved.
//!
//! The plane inherits the session layer's adaptive noise surface: when
//! the template enables [`crate::SessionBuilder::probe_noise`], every
//! request carries its own billed probe plane (seeded per request) and
//! applies the same misspecification guard — and, under
//! [`crate::SessionBuilder::adapt_noise`] with
//! [`crate::AdaptPolicy::Escalate`], the same parameter-escalating
//! re-run — that a solo session would. With
//! [`ServerBuilder::degrade_to_partials`], a request killed by its
//! deadline, its budget, or the pool degrades to a best-effort
//! [`crate::PartialOutcome`] inside its typed error instead of
//! shedding plain.
//!
//! ```
//! use noisy_oracle::{Noise, Request, Server, Session, Task};
//!
//! let template = Session::builder()
//!     .values((1..=64).map(f64::from).collect())
//!     .noise(Noise::Probabilistic { p: 0.1, seed: 5 })
//!     .build()?;
//! let server = Server::builder(template).workers(2).build()?;
//!
//! let handles: Vec<_> = (0..4)
//!     .map(|seed| server.submit(Request { task: Task::Max, seed }).unwrap())
//!     .collect();
//! for h in handles {
//!     let outcome = h.join()?;
//!     assert!(outcome.answer.item().is_some());
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 4);
//! # Ok::<(), noisy_oracle::NcoError>(())
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::Instant;

use nco_metric::hashing::splitmix64;
use nco_oracle::adversarial::{AdversarialOracle, InvertAdversary};
use nco_oracle::budget::{BudgetPool, Budgeted, OVER_BUDGET_ANSWER};
use nco_oracle::crowd::CrowdOracle;
use nco_oracle::fault::{FaultPlan, FaultyOracle, QueryFault, Retrying};
use nco_oracle::memo::quad_cell;
use nco_oracle::persistent::PersistentNoise;
use nco_oracle::probabilistic::ProbOracle;
use nco_oracle::value::TrueOracle;
use nco_oracle::{Counting, Distances, MemoOracle, Oracle, ProbeOracle, Values};

use crate::error::NcoError;
use crate::report::Outcome;
use crate::session::{
    with_raw_noise, AttemptResult, CancelToken, Config, EngineMetric, Engines, Meters, Noise,
    RunCtx, Session,
};
use crate::task::Task;

/// Locks a mutex, recovering from poisoning: a request that panicked
/// while holding a shared lock must not wedge the rest of the plane. The
/// guarded structures keep their invariants on unwind — a memo stripe
/// fills its cache only after the chain returns, and the meters at
/// worst undercount the aborted round — so the data is safe to reuse.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort human-readable panic payload for [`NcoError::Panicked`].
fn panic_reason(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

// ---------------------------------------------------------------------
// The boxed backend oracle.
// ---------------------------------------------------------------------

/// The shared backend's raw oracle. It must be `'static` (it outlives any
/// request), so the session's noise oracle is built boxed over an engine
/// handle. The `PersistentNoise` impl is sound because the box only ever
/// holds the shipped persistent models (`with_raw_noise!`).
struct Boxed<Q>(Box<dyn Oracle<Q> + Send>);

impl<Q: Copy> Oracle<Q> for Boxed<Q> {
    fn records(&self) -> usize {
        self.0.records()
    }

    fn ask(&mut self, q: Q) -> bool {
        self.0.ask(q)
    }

    fn ask_round(&mut self, queries: &[Q], out: &mut Vec<bool>) {
        self.0.ask_round(queries, out);
    }

    fn try_ask(&mut self, q: Q) -> Result<bool, QueryFault> {
        self.0.try_ask(q)
    }

    fn try_ask_round(&mut self, queries: &[Q], out: &mut Vec<Result<bool, QueryFault>>) {
        self.0.try_ask_round(queries, out);
    }

    fn is_doomed(&self) -> bool {
        self.0.is_doomed()
    }

    fn is_fallible(&self) -> bool {
        self.0.is_fallible()
    }
}

impl<Q> PersistentNoise for Boxed<Q> {}

// ---------------------------------------------------------------------
// The per-query-shape plane and its per-request adapter.
// ---------------------------------------------------------------------

// The shared backend chain, inside out: the template's fault plan wraps
// the raw boxed oracle, the counter bills every ask (retries included)
// and the retry layer masks faults the policy can absorb. One chain sits
// behind its own lock; the memo stripes in front of it dedup across
// requests, so a memo hit never spends a retry and a faulted lane is
// never cached.
type Chain<Q> = Retrying<Counting<FaultyOracle<Boxed<Q>>>>;

/// One memo stripe: a [`MemoOracle`] over a handle to the shared chain.
type Stripe<Q> = MemoOracle<ChainHandle<Q>>;

/// A stripe's handle on the shared chain. It takes the chain lock for
/// each inner ask, and only a stripe whose lock is held asks, so the
/// lock order is always stripe, then chain.
struct ChainHandle<Q> {
    n: usize,
    chain: Arc<Mutex<Chain<Q>>>,
}

impl<Q: Copy> Oracle<Q> for ChainHandle<Q>
where
    Chain<Q>: Oracle<Q>,
{
    fn records(&self) -> usize {
        self.n
    }

    fn ask(&mut self, q: Q) -> bool {
        relock(&self.chain).ask(q)
    }

    /// A round the memo answered in full leaves the chain lock alone; an
    /// empty round moves no counter of the chain.
    fn ask_round(&mut self, queries: &[Q], out: &mut Vec<bool>) {
        if !queries.is_empty() {
            relock(&self.chain).ask_round(queries, out);
        }
    }
}

/// Sound for the reason [`Boxed`]'s impl is: the chain only holds the
/// persistent models, and its retries re-read the same belief.
impl<Q> PersistentNoise for ChainHandle<Q> {}

/// How a query shape spreads over memo stripes.
trait Striped: Copy + Default {
    /// The stripes a plane of this shape keeps.
    const STRIPES: usize;

    /// The stripe of this query's memo cell over `n` records, below
    /// [`Self::STRIPES`]: every query of one cell maps to the same stripe.
    fn stripe(self, n: usize) -> usize;
}

/// Comparison queries keep one stripe: their memo is a dense triangle of
/// `n (n - 1) / 4` bytes, which every further stripe would allocate again.
impl Striped for (usize, usize) {
    const STRIPES: usize = 1;

    #[inline]
    fn stripe(self, _: usize) -> usize {
        0
    }
}

/// Quadruplet queries spread over 64 stripes by the high bits of
/// `splitmix64` over the memo's own cell ([`quad_cell`]); the memo's
/// open-addressed table takes a slot from the low bits of the same hash,
/// so the two stay independent. A degenerate query has no cell and is
/// forwarded uncached by whichever stripe it reaches, so it takes stripe 0.
impl Striped for [usize; 4] {
    const STRIPES: usize = 1 << QUAD_STRIPE_BITS;

    #[inline]
    fn stripe(self, n: usize) -> usize {
        quad_cell(self, n).map_or(0, |cell| {
            (splitmix64(cell) >> (64 - QUAD_STRIPE_BITS)) as usize
        })
    }
}

const QUAD_STRIPE_BITS: u32 = 6;

// A round notes its busy stripes in one `u64` mask.
const _: () = assert!(QUAD_STRIPE_BITS <= 6);

/// The shared half of the serving plane for query shape `Q`: the memo
/// stripes, the chain behind them and the pooled budget.
struct Plane<Q> {
    stripes: Box<[Mutex<Stripe<Q>>]>,
    chain: Arc<Mutex<Chain<Q>>>,
    /// Admitted non-empty batched rounds sent to the backend.
    rounds: AtomicU64,
    pool: BudgetPool,
}

impl<Q: Striped> Plane<Q> {
    /// The plane over `raw`, under the template's fault plan and retry
    /// policy, with a pooled budget of `pool_budget` queries.
    fn new(raw: Box<dyn Oracle<Q> + Send>, cfg: &Config, pool_budget: Option<u64>) -> Self {
        let n = raw.records();
        let plan = cfg.fault_plan.unwrap_or_else(FaultPlan::none);
        let policy = cfg.retry.unwrap_or_default();
        let chain = Arc::new(Mutex::new(Retrying::new(
            Counting::new(FaultyOracle::new(Boxed(raw), plan)),
            policy,
        )));
        let stripes = (0..Q::STRIPES)
            .map(|_| {
                Mutex::new(MemoOracle::new(ChainHandle {
                    n,
                    chain: Arc::clone(&chain),
                }))
            })
            .collect();
        Self {
            stripes,
            chain,
            rounds: AtomicU64::new(0),
            pool: BudgetPool::new(pool_budget),
        }
    }
}

/// A request's scratch for splitting its rounds by stripe, kept between
/// its rounds: the round's queries grouped by stripe, each one's index in
/// the round, where each stripe's group starts, and one stripe's answers.
#[derive(Default)]
struct Split<Q> {
    grouped: Vec<Q>,
    lanes: Vec<usize>,
    starts: Vec<usize>,
    answers: Vec<bool>,
}

impl<Q: Striped> Split<Q> {
    /// Asks stripe `s`'s group of the round through `stripe` and
    /// scatters the answers to their lanes of `out`.
    fn send(&mut self, s: usize, stripe: &mut Stripe<Q>, out: &mut [bool])
    where
        Stripe<Q>: Oracle<Q>,
    {
        let (lo, hi) = (self.starts[s], self.starts[s + 1]);
        self.answers.clear();
        stripe.ask_round(&self.grouped[lo..hi], &mut self.answers);
        for (&lane, &ans) in self.lanes[lo..hi].iter().zip(&self.answers) {
            out[lane] = ans;
        }
    }

    /// Groups `queries` over `n` records by stripe, keeping query order
    /// within a group.
    fn group(&mut self, queries: &[Q], n: usize) {
        let starts = &mut self.starts;
        starts.clear();
        starts.resize(Q::STRIPES + 1, 0);
        for &q in queries {
            starts[q.stripe(n) + 1] += 1;
        }
        for s in 1..=Q::STRIPES {
            starts[s] += starts[s - 1];
        }
        self.grouped.clear();
        self.grouped.resize(queries.len(), queries[0]);
        self.lanes.clear();
        self.lanes.resize(queries.len(), 0);
        // As a cursor, `starts[s]` ends at group `s`'s end, the next
        // group's start: shifting by one slot restores every start.
        for (i, &q) in queries.iter().enumerate() {
            let at = &mut starts[q.stripe(n)];
            self.grouped[*at] = q;
            self.lanes[*at] = i;
            *at += 1;
        }
        starts.copy_within(0..Q::STRIPES, 1);
        starts[0] = 0;
    }
}

/// The view one request has of the shared plane: rounds go pool
/// admission → the memo stripes of their cells → the shared chain.
/// Wrapped in a per-request [`Budgeted`] by the worker, so the request's
/// own meters tick exactly as in a solo run.
struct Served<'p, Q> {
    n: usize,
    plane: &'p Plane<Q>,
    split: Split<Q>,
    /// Set once the pool refused this request a reservation; from then
    /// on the request is doomed (reported as `BudgetExceeded`) and its
    /// remaining queries get the constant refusal bit.
    starved: bool,
}

impl<Q: Striped> Oracle<Q> for Served<'_, Q>
where
    Stripe<Q>: Oracle<Q>,
{
    fn records(&self) -> usize {
        self.n
    }

    fn ask(&mut self, q: Q) -> bool {
        if self.starved || !self.plane.pool.try_reserve(1) {
            self.starved = true;
            return OVER_BUDGET_ANSWER;
        }
        relock(&self.plane.stripes[q.stripe(self.n)]).ask(q)
    }

    /// Sends the round's queries of each stripe as one sub-round through
    /// that stripe, walking the stripes in order, holding one stripe lock
    /// at a time and leaving busy stripes to the end, and scatters the
    /// answers back into query order. A comparison round has one stripe,
    /// so it goes through whole.
    fn ask_round(&mut self, queries: &[Q], out: &mut Vec<bool>) {
        if queries.is_empty() {
            return;
        }
        if self.starved || !self.plane.pool.try_reserve(queries.len() as u64) {
            self.starved = true;
            out.extend(std::iter::repeat_n(OVER_BUDGET_ANSWER, queries.len()));
            return;
        }
        let plane = self.plane;
        let split = &mut self.split;
        split.group(queries, self.n);
        let base = out.len();
        out.resize(base + queries.len(), false);
        let out = &mut out[base..];
        // A stripe another request holds is skipped and revisited once
        // the walk is done, so two requests do not queue up behind each
        // other stripe after stripe.
        let mut busy = 0u64;
        for s in 0..Q::STRIPES {
            if split.starts[s] == split.starts[s + 1] {
                continue;
            }
            match plane.stripes[s].try_lock() {
                Ok(mut stripe) => split.send(s, &mut stripe, out),
                Err(TryLockError::Poisoned(p)) => split.send(s, &mut p.into_inner(), out),
                Err(TryLockError::WouldBlock) => busy |= 1 << s,
            }
        }
        while busy != 0 {
            let s = busy.trailing_zeros() as usize;
            busy &= busy - 1;
            split.send(s, &mut relock(&plane.stripes[s]), out);
        }
        plane.rounds.fetch_add(1, Ordering::Relaxed);
    }

    fn is_doomed(&self) -> bool {
        // Pool starvation latches at a query boundary like every other
        // kill vector, so the engines' clean-progress watermarks stop
        // advancing and the eventual partial stays a true prefix.
        self.starved
    }
}

/// The backend answers are a pure function of the query (exact memo over
/// a persistent model); the pool's refusal bit can diverge, but only on
/// requests already doomed to fail typed — the same doomed-run argument
/// as [`Budgeted`]'s `PersistentNoise` impl. Masked backend faults keep
/// the purity: retries re-read the same persistent belief.
impl<Q> PersistentNoise for Served<'_, Q> {}

/// What the server needs from its plane, whichever query shape the
/// engine serves.
trait ServingPlane: Send + Sync {
    /// Runs one engine attempt for `task` over a fresh per-request oracle
    /// chain: served backend view (pool admission → shared memoised
    /// backend) → per-request [`Budgeted`] (budget, deadline and cancel,
    /// measured from `start`) → outermost [`ProbeOracle`] injecting the
    /// session's per-seed probe plan into the live stream.
    /// Probes are billed like every other query — through the request's
    /// budget, the pool, and the shared backend alike.
    fn attempt(
        &self,
        session: &Session,
        task: Task,
        scale: f64,
        budget: Option<u64>,
        start: Instant,
    ) -> AttemptResult;

    /// `Some(attempt bound)` once any request drove the shared backend's
    /// retry layer to exhaustion.
    fn failed(&self) -> Option<u32>;

    /// `[backend queries, memo hits, retries, faults masked, backend
    /// rounds, pool spent, pool cap]`.
    fn counters(&self) -> [u64; 7];

    /// The memo stripes of the plane.
    #[cfg(test)]
    fn stripes(&self) -> usize;
}

impl<Q: Striped + Send + 'static> ServingPlane for Plane<Q>
where
    Stripe<Q>: Oracle<Q>,
    Chain<Q>: Oracle<Q>,
    for<'p> ProbeOracle<Budgeted<Served<'p, Q>>>: Engines<Q>,
{
    fn attempt(
        &self,
        session: &Session,
        task: Task,
        scale: f64,
        budget: Option<u64>,
        start: Instant,
    ) -> AttemptResult {
        let served = Served {
            n: session.engine().n(),
            plane: self,
            split: Split::default(),
            starved: false,
        };
        let probe = session.probe_plan();
        let mut oracle = ProbeOracle::new(
            Budgeted::new(served, budget)
                .with_deadline(session.cfg().deadline.map(|d| start + d))
                .with_cancel(session.cfg().cancel.as_ref().map(CancelToken::flag)),
            probe,
        );
        let (mut plane, mut partial) = (None, None);
        let answer =
            Engines::<Q>::run_task(&mut oracle, session, task, scale, &mut plane, &mut partial)?;
        let budgeted = oracle.inner();
        let m = Meters {
            queries: budgeted.queries(),
            rounds: budgeted.rounds(),
            exceeded: budgeted.exceeded(),
            killed: budgeted.killed(),
            starved: budgeted.inner().starved.then(|| self.pool.cap()),
            // The backend's retry latch is sticky and server-wide: once
            // any request exhausted it the backend returns constants, so
            // every request finishing after it (racing finishers included
            // — conservative by design) fails typed rather than being
            // given poisoned answers.
            failed: self.failed(),
            // The backend memo is a server-level resource; its hit tally
            // is aggregate, not per request (the hits live in
            // `ServeStats`).
            memo_hits: None,
            estimate: oracle.estimate(),
            probes: probe.is_active().then(|| oracle.stats().probes),
            merge_plane: plane,
        };
        Ok((answer, m, partial))
    }

    fn failed(&self) -> Option<u32> {
        relock(&self.chain).failed()
    }

    fn counters(&self) -> [u64; 7] {
        let hits = self.stripes.iter().map(|s| relock(s).hits()).sum();
        let chain = relock(&self.chain);
        [
            chain.inner().queries(),
            hits,
            chain.retries(),
            chain.faults_masked(),
            self.rounds.load(Ordering::Relaxed),
            self.pool.spent(),
            self.pool.cap(),
        ]
    }

    #[cfg(test)]
    fn stripes(&self) -> usize {
        self.stripes.len()
    }
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// One unit of work for the serving plane: which [`Task`] to run and the
/// rng seed of the per-request session derived from the server's
/// template (everything else — noise, confidence, per-request budget —
/// comes from the template).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The task to run.
    pub task: Task,
    /// Seed of the request's rng stream ([`crate::SessionBuilder::seed`]).
    pub seed: u64,
}

/// A pending request's receipt: [`join`](TaskHandle::join) blocks until
/// the worker pool has produced the result.
#[derive(Debug)]
pub struct TaskHandle {
    rx: Receiver<Result<Outcome, NcoError>>,
}

impl TaskHandle {
    /// Waits for the request to finish and returns its outcome — exactly
    /// what a solo [`crate::Session::run`] of the same task would return
    /// (same answer, same per-request query and round tallies), or a
    /// typed error.
    pub fn join(self) -> Result<Outcome, NcoError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(NcoError::overloaded(
                "server shut down before the request completed",
            ))
        })
    }
}

struct Job {
    request: Request,
    reply: Sender<Result<Outcome, NcoError>>,
}

struct ServerQueue {
    jobs: VecDeque<Job>,
    open: bool,
}

struct ServerShared {
    template: Session,
    queue: Mutex<ServerQueue>,
    work_ready: Condvar,
    queue_cap: usize,
    /// The plane of the query shape the engine serves.
    plane: Box<dyn ServingPlane>,
    /// Attach best-effort partial answers to killed requests' typed
    /// errors ([`ServerBuilder::degrade_to_partials`]).
    degrade: bool,
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    deadline_kills: AtomicU64,
    panics: AtomicU64,
    probes: AtomicU64,
    adaptations: AtomicU64,
    misspecifications: AtomicU64,
    partial_completions: AtomicU64,
}

impl ServerShared {
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = relock(&self.queue);
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if !q.open {
                        return;
                    }
                    q = self
                        .work_ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Panic isolation: a request that panics (injected fault or
            // engine bug) is converted to a typed error for its own
            // submitter; this worker thread survives and rejoins the
            // pool, and every other in-flight request is unaffected.
            let result = catch_unwind(AssertUnwindSafe(|| self.execute(&job.request)))
                .unwrap_or_else(|payload| {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    Err(NcoError::Panicked {
                        reason: panic_reason(payload.as_ref()),
                    })
                });
            self.completed.fetch_add(1, Ordering::Relaxed);
            // The submitter may have dropped its handle; that's fine.
            let _ = job.reply.send(result);
        }
    }

    /// Runs one request exactly like a solo [`Session::run`] — same
    /// adaptive re-run, same failure precedence — but over the shared
    /// plane, and tallies the outcome into the server counters.
    fn execute(&self, request: &Request) -> Result<Outcome, NcoError> {
        let session = self.template.with_seed(request.seed);
        session.validate(request.task)?;
        // Per-request deadline/cancellation, measured from the moment a
        // worker picks the request up (queue wait is not billed against
        // the deadline — admission control already bounds the queue).
        let ctx = RunCtx::begin(session.engine());
        let mut attempts = 0;
        let result = session.drive(ctx, |scale, budget| {
            let (answer, m, partial) =
                self.plane
                    .attempt(&session, request.task, scale, budget, ctx.start)?;
            attempts += 1;
            if attempts > 1 {
                self.adaptations.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(p) = m.probes {
                self.probes.fetch_add(p, Ordering::Relaxed);
            }
            // Killed requests carry their best-effort partials only when
            // the plane opted into graceful degradation; the default
            // sheds plain, keeping error payloads lean under load.
            Ok((answer, m, partial.filter(|_| self.degrade)))
        });
        match &result {
            Err(NcoError::DeadlineExceeded { partial, .. }) => {
                self.deadline_kills.fetch_add(1, Ordering::Relaxed);
                if partial.is_some() {
                    self.partial_completions.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(NcoError::BudgetExceeded {
                partial: Some(_), ..
            }) => {
                self.partial_completions.fetch_add(1, Ordering::Relaxed);
            }
            Err(NcoError::NoiseMisspecified { .. }) => {
                self.misspecifications.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        result
    }

    fn stats(&self) -> ServeStats {
        let [backend_queries, memo_hits, retries, faults_masked, backend_rounds, pool_spent, pool_cap] =
            self.plane.counters();
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            backend_queries,
            memo_hits,
            backend_rounds,
            coalesced_rounds: 0,
            pool_spent,
            pool_cap,
            retries,
            faults_masked,
            deadline_kills: self.deadline_kills.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            adaptations: self.adaptations.load(Ordering::Relaxed),
            misspecifications: self.misspecifications.load(Ordering::Relaxed),
            partial_completions: self.partial_completions.load(Ordering::Relaxed),
        }
    }
}

/// Configures and spawns a [`Server`].
#[derive(Debug)]
#[must_use = "a builder does nothing until build() is called"]
pub struct ServerBuilder {
    template: Session,
    workers: usize,
    queue_cap: usize,
    pool_budget: Option<u64>,
    degrade: bool,
}

impl ServerBuilder {
    /// Worker threads draining the queue (default 4).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Maximum queued (not yet running) requests before
    /// [`Server::submit`] sheds with [`NcoError::Overloaded`]
    /// (default 64).
    pub fn queue(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Pooled cap on the total oracle queries the server may issue
    /// across all requests (default unlimited). A request the pool can
    /// no longer cover fails with [`NcoError::BudgetExceeded`]; admission
    /// is all-or-nothing per round, so a refused round spends nothing.
    pub fn pool_budget(mut self, max_queries: u64) -> Self {
        self.pool_budget = Some(max_queries);
        self
    }

    /// Opt the plane into graceful degradation (default `false`): a
    /// request killed by its deadline, its per-request budget, or the
    /// pooled budget carries its best-effort [`crate::PartialOutcome`]
    /// inside the typed error instead of shedding plain. Budget-kill
    /// partials are deterministic for a given request seed; see
    /// [`crate::PartialOutcome`] for the clean-prefix contract.
    pub fn degrade_to_partials(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// Validates the configuration and spawns the worker pool.
    pub fn build(self) -> Result<Server, NcoError> {
        if self.workers == 0 {
            return Err(NcoError::invalid("a server needs at least one worker"));
        }
        if self.queue_cap == 0 {
            return Err(NcoError::invalid("queue capacity must be positive"));
        }
        let cfg = self.template.cfg();
        if cfg.memo {
            return Err(NcoError::invalid(
                "the serving backend is always memoised; build the template without \
                 memoize(true) — per-request accounting mirrors a plain solo run",
            ));
        }
        let engine = self.template.engine();
        if engine.n() > (1 << 16) {
            return Err(NcoError::invalid(format!(
                "the serving backend memoises answers, capped at n = 65536 records \
                 (n = {})",
                engine.n()
            )));
        }
        let plane: Box<dyn ServingPlane> = match engine.values() {
            Some(values) => {
                let raw: Box<dyn Oracle<_> + Send> =
                    with_raw_noise!(cfg.noise, Values, values.to_vec(), |raw| Box::new(raw));
                Box::new(Plane::new(raw, cfg, self.pool_budget))
            }
            None => {
                let metric = EngineMetric::new(engine.clone());
                let raw: Box<dyn Oracle<_> + Send> =
                    with_raw_noise!(cfg.noise, Distances<_>, metric, |raw| Box::new(raw));
                Box::new(Plane::new(raw, cfg, self.pool_budget))
            }
        };
        let shared = Arc::new(ServerShared {
            template: self.template,
            queue: Mutex::new(ServerQueue {
                jobs: VecDeque::new(),
                open: true,
            }),
            work_ready: Condvar::new(),
            queue_cap: self.queue_cap,
            plane,
            degrade: self.degrade,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_kills: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            adaptations: AtomicU64::new(0),
            misspecifications: AtomicU64::new(0),
            partial_completions: AtomicU64::new(0),
        });
        let workers = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        Ok(Server {
            shared,
            workers: Mutex::new(workers),
        })
    }
}

/// Aggregate serving-plane counters (see [`Server::stats`]). Per-request
/// accounting lives in each request's [`crate::RunReport`]; these are the
/// server-level totals behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests a worker finished (successfully or with a typed error).
    pub completed: u64,
    /// Submissions refused with [`NcoError::Overloaded`] (queue full or
    /// server shutting down).
    pub shed: u64,
    /// Queries that reached the real noise oracle — after the shared
    /// memo deduplicated repeats across requests. The cross-request
    /// amortisation win is `sum of per-request queries - backend_queries`.
    /// Deterministic for a given request set: under persistent noise the
    /// memo admits each distinct query exactly once, whichever request
    /// asks it first — a query's memo cell lives in one stripe, whose
    /// lock covers the lookup, the ask and the fill — so the total is
    /// interleaving-independent. Degenerate queries (a record or pair
    /// against itself) are not memoised and count every time.
    pub backend_queries: u64,
    /// Cross-request memo hits, summed over the memo stripes (total
    /// lookups minus first occurrences — interleaving-independent, like
    /// [`Self::backend_queries`]).
    pub memo_hits: u64,
    /// Batched rounds sent to the shared backend: one per admitted
    /// non-empty round of any request. Every round goes to the backend
    /// on its own, so the total is interleaving-independent, like
    /// [`Self::backend_queries`].
    pub backend_rounds: u64,
    /// Always 0: the server sends every round to the backend on its
    /// own and never merges rounds of different requests. Kept only for
    /// existing readers.
    pub coalesced_rounds: u64,
    /// Queries reserved from the pooled budget.
    pub pool_spent: u64,
    /// The pooled budget cap (`u64::MAX` = unlimited).
    pub pool_cap: u64,
    /// Backend queries that were retries of a faulted ask (billed into
    /// [`Self::backend_queries`] too — retries are real asks).
    pub retries: u64,
    /// Injected faults the retry layer absorbed: queries that faulted at
    /// least once but returned a usable (persistent, bit-identical)
    /// answer within the policy's attempt bound.
    ///
    /// Not reproducible across same-seed runs with more than one worker:
    /// the fault plan is a function of the global attempt index, and
    /// which query draws which attempt depends on how requests
    /// interleave. [`Self::retries`] and [`Self::backend_queries`] do
    /// not vary: the run ends at the attempt that answers the last
    /// distinct memo miss, whichever query each attempt served.
    pub faults_masked: u64,
    /// Requests killed by their per-request deadline or cancel token
    /// ([`NcoError::DeadlineExceeded`]).
    pub deadline_kills: u64,
    /// Requests that panicked inside a worker and were converted to
    /// [`NcoError::Panicked`] — each one was contained: the worker
    /// rejoined the pool and no other in-flight request was lost.
    pub panics: u64,
    /// Billed noise-probe queries injected across all requests (already
    /// counted into each request's own `queries` tally; `0` unless the
    /// template enables [`crate::SessionBuilder::probe_noise`]).
    pub probes: u64,
    /// Requests that re-derived their repetition parameters and re-ran
    /// after their probe plane flagged the template's noise rate as
    /// misspecified ([`crate::SessionBuilder::adapt_noise`] with
    /// [`crate::AdaptPolicy::Escalate`]).
    pub adaptations: u64,
    /// Requests failed typed with [`NcoError::NoiseMisspecified`]: the
    /// probe plane's confidence interval excluded the assumed rate and
    /// the template was not adapting.
    pub misspecifications: u64,
    /// Killed requests whose typed error carried a best-effort partial
    /// answer — only possible with
    /// [`ServerBuilder::degrade_to_partials`] enabled.
    pub partial_completions: u64,
}

/// The concurrent serving plane over one engine: a worker pool behind
/// [`Server::submit`], a shared memoised backend, and optional pooled
/// admission control — built from a template [`crate::Session`] via
/// [`Server::builder`].
pub struct Server {
    shared: Arc<ServerShared>,
    /// The worker pool, behind a mutex so shutdown can be called from
    /// `&self` (idempotently, from any number of threads).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &relock(&self.workers).len())
            .field("queue_cap", &self.shared.queue_cap)
            .field("stats", &self.shared.stats())
            .finish()
    }
}

impl Server {
    /// Starts a [`ServerBuilder`] from a template session: every request
    /// runs with the template's engine, noise model, confidence and
    /// per-request budget, re-seeded per request.
    pub fn builder(template: Session) -> ServerBuilder {
        ServerBuilder {
            template,
            workers: 4,
            queue_cap: 64,
            pool_budget: None,
            degrade: false,
        }
    }

    /// Enqueues a request. Fails fast with [`NcoError::Overloaded`] —
    /// without consuming any budget — when the queue is at capacity or
    /// the server is shutting down.
    pub fn submit(&self, request: Request) -> Result<TaskHandle, NcoError> {
        let (tx, rx) = mpsc::channel();
        let mut q = relock(&self.shared.queue);
        if !q.open {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(NcoError::overloaded("server is shutting down"));
        }
        if q.jobs.len() >= self.shared.queue_cap {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(NcoError::overloaded(format!(
                "submission queue full ({} pending)",
                q.jobs.len()
            )));
        }
        q.jobs.push_back(Job { request, reply: tx });
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.shared.work_ready.notify_one();
        Ok(TaskHandle { rx })
    }

    /// A snapshot of the aggregate serving counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Graceful shutdown: refuses new submissions, lets the workers
    /// drain every already-queued request, joins them, and returns the
    /// final counters. Dropping a `Server` does the same minus the
    /// stats.
    ///
    /// Idempotent and race-free: call it any number of times, from any
    /// number of threads. Every call — concurrent or repeated — returns
    /// only after the worker pool has fully drained and exited (later
    /// calls find nothing left to join and just re-read the counters),
    /// and submissions racing a shutdown either complete normally or
    /// shed with [`NcoError::Overloaded`], never hang.
    pub fn shutdown(&self) -> ServeStats {
        self.close_and_join();
        self.shared.stats()
    }

    fn close_and_join(&self) {
        {
            let mut q = relock(&self.shared.queue);
            q.open = false;
        }
        self.shared.work_ready.notify_all();
        // The handles are drained and joined while the pool lock is
        // held, so a concurrent shutdown blocks here until the first
        // caller has fully joined the pool — both calls return with the
        // workers gone. (Workers never touch this lock: no deadlock.)
        let mut workers = relock(&self.workers);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one request on a one-worker server over `template` and
    /// returns the plane's stripe count.
    fn stripes_after(template: Session, task: Task) -> usize {
        let server = Server::builder(template).workers(1).build().unwrap();
        server
            .submit(Request { task, seed: 3 })
            .unwrap()
            .join()
            .unwrap();
        assert!(server.stats().memo_hits > 0);
        server.shared.plane.stripes()
    }

    #[test]
    fn a_value_server_keeps_one_dense_comparison_table() {
        let values = Session::builder()
            .values((0..96).map(|i| f64::from((i * 37) % 101)).collect())
            .noise(Noise::Probabilistic { p: 0.1, seed: 4 })
            .build()
            .unwrap();
        assert_eq!(stripes_after(values, Task::Max), 1);
        let points: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![f64::from(i % 7), f64::from(i / 7)])
            .collect();
        let metric = Session::builder()
            .points(&points)
            .noise(Noise::Probabilistic { p: 0.1, seed: 4 })
            .build()
            .unwrap();
        assert_eq!(stripes_after(metric, Task::KCenter { k: 3 }), 64);
    }

    #[test]
    fn a_round_groups_by_stripe_in_query_order() {
        let queries: Vec<[usize; 4]> = (0..300)
            .map(|i| [i % 17, (i * 7) % 23, (i * 5) % 19, i % 29])
            .collect();
        let mut split = Split::default();
        for round in [&queries[..], &queries[..40], &queries[..1]] {
            split.group(round, 29);
            assert_eq!(split.starts[0], 0);
            assert_eq!(split.starts[64], round.len());
            for s in 0..64 {
                let lanes = &split.lanes[split.starts[s]..split.starts[s + 1]];
                assert!(
                    lanes.windows(2).all(|w| w[0] < w[1]),
                    "stripe {s} out of order"
                );
                for &lane in lanes {
                    assert_eq!(round[lane].stripe(29), s);
                }
            }
            let mut seen = split.lanes.clone();
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..round.len()));
            for (&q, &lane) in split.grouped.iter().zip(&split.lanes) {
                assert_eq!(q, round[lane]);
            }
        }
        // Both orders within a pair share a cell, so a stripe; a query
        // without a cell takes stripe 0.
        assert_eq!([3, 9, 4, 1].stripe(10), [9, 3, 1, 4].stripe(10));
        assert_eq!([2, 5, 5, 2].stripe(10), 0);
    }
}
