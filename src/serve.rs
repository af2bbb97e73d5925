//! The concurrent serving plane: one engine, many in-flight requests.
//!
//! A [`Server`] is an async-style front door over an immutable
//! [`crate::Engine`]: callers [`submit`](Server::submit) typed
//! [`Request`]s and get [`TaskHandle`]s back; a small worker pool drains
//! the queue. Three mechanisms make concurrent serving cheaper than
//! running the same requests one by one:
//!
//! * **Cross-request batching** — every worker routes its oracle rounds
//!   through a group-commit [`Coalescer`]: rounds from *different*
//!   concurrent requests that wait behind a busy round leader are
//!   combined into one `le_batch` call against the shared backend. A
//!   merge needs at least three requests with rounds in flight — with
//!   two workers the coalescer never merges (see [`Coalescer`]).
//! * **A shared exact answer memo** — the backend is a
//!   [`MemoOracle`] over the session's (persistent) noise model, so a
//!   query any request has asked before is answered for free, across
//!   requests. Per-request accounting is unchanged: each request bills
//!   the queries and rounds *it issued*, exactly as a solo
//!   [`crate::Session::run`] would (pinned in `tests/serve_plane.rs`).
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
//! pool, the coalescer aborts and re-runs any round whose leader died,
//! and every shared lock recovers from poisoning. Per-request deadlines
//! ([`crate::SessionBuilder::deadline`] on the template) kill overdue
//! requests with [`NcoError::DeadlineExceeded`], partial accounting
//! preserved.
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
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use nco_oracle::budget::{BudgetPool, Budgeted, OVER_BUDGET_ANSWER};
use nco_oracle::fault::{FaultPlan, FaultyOracle, QueryFault, Retrying};
use nco_oracle::persistent::PersistentNoise;
use nco_oracle::{Counting, MemoOracle, Oracle, ProbeOracle};

use crate::error::NcoError;
use crate::report::Outcome;
use crate::session::{AttemptResult, CancelToken, Config, Engines, Meters, RunCtx, Session};
use crate::task::Task;

/// Locks a mutex, recovering from poisoning: a request that panicked
/// while holding a shared lock must not wedge the rest of the plane. The
/// guarded structures keep their invariants on unwind — the memo fills
/// its cache only after the inner oracle returns, and the meters at
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
/// holds the shipped persistent models (`Session::boxed_*_backend`).
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
// The group-commit round coalescer.
// ---------------------------------------------------------------------

/// Combines oracle rounds submitted by concurrent requests into shared
/// backend `le_batch` calls (group commit): the first submitter becomes
/// the round leader and drains *every* pending submission — including
/// those that arrive while it is executing — until the queue is empty;
/// followers just wait for their slice of the answers.
///
/// A leader's first batch is only its own submission, and while it
/// drains, its own request stays blocked in the drain loop. So with two
/// submitters every later batch holds at most the other one's single
/// round, and no round is ever merged: merging needs two followers
/// pending behind a busy leader, i.e. at least three workers. The unit
/// tests below pin both facts.
///
/// Correctness does not depend on which submissions share a backend
/// round: the backend is an exact memo over persistent noise, so answers
/// are a pure function of the query, and the backend's *query* tally
/// (first occurrence of each distinct query) is the same for every
/// possible grouping.
struct Coalescer<Q> {
    state: Mutex<CoalState<Q>>,
    /// Backend rounds executed.
    rounds: AtomicU64,
    /// Backend rounds that combined two or more submissions.
    coalesced: AtomicU64,
}

/// Sent to every waiter of a round whose leader panicked mid-execution:
/// the round never produced answers and must be resubmitted.
struct RoundAborted;

/// A waiter's reply channel: its slice of the round's answers, or the
/// abort marker telling it to resubmit.
type RoundReply = Sender<Result<Vec<bool>, RoundAborted>>;

struct CoalState<Q> {
    pending: Vec<(Vec<Q>, RoundReply)>,
    leader: bool,
}

/// How many aborted rounds a follower re-submits before giving up. Fault
/// plans panic at most once per configured attempt, so in practice a
/// single retry succeeds; the bound only guards against a backend that
/// panics unconditionally.
const MAX_ABORTED_ROUNDS: u32 = 32;

impl<Q: Copy> Coalescer<Q> {
    fn new() -> Self {
        Self {
            state: Mutex::new(CoalState {
                pending: Vec::new(),
                leader: false,
            }),
            rounds: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Submits one round; blocks until a leader (possibly this caller)
    /// has executed it against the backend via `exec`. If the leader
    /// panics inside `exec`, every waiter of the aborted round is woken
    /// and resubmits (bounded); the panic propagates out of the leader's
    /// own call only, so exactly the request that hit the panic dies.
    fn submit(&self, queries: &[Q], exec: &dyn Fn(&[Q], &mut Vec<bool>)) -> Vec<bool> {
        for _ in 0..MAX_ABORTED_ROUNDS {
            match self.submit_once(queries, exec) {
                Ok(answers) => return answers,
                Err(RoundAborted) => continue,
            }
        }
        panic!("coalesced round aborted {MAX_ABORTED_ROUNDS} times in a row");
    }

    fn submit_once(
        &self,
        queries: &[Q],
        exec: &dyn Fn(&[Q], &mut Vec<bool>),
    ) -> Result<Vec<bool>, RoundAborted> {
        let (tx, rx) = mpsc::channel();
        let mut st = relock(&self.state);
        st.pending.push((queries.to_vec(), tx));
        if !st.leader {
            st.leader = true;
            while !st.pending.is_empty() {
                let batch = std::mem::take(&mut st.pending);
                drop(st);
                let total = batch.iter().map(|(q, _)| q.len()).sum();
                let mut combined = Vec::with_capacity(total);
                for (q, _) in &batch {
                    combined.extend_from_slice(q);
                }
                let mut answers = Vec::with_capacity(total);
                if let Err(payload) =
                    catch_unwind(AssertUnwindSafe(|| exec(&combined, &mut answers)))
                {
                    // The leader dies with its own request, but first it
                    // aborts the round cleanly: every waiter — batch and
                    // later arrivals alike — is told to resubmit, and
                    // leadership is released so one of them (or a fresh
                    // submitter) can take over. Nobody is left waiting
                    // on a leader that no longer exists.
                    let mut st = relock(&self.state);
                    for (_, reply) in batch {
                        let _ = reply.send(Err(RoundAborted));
                    }
                    for (_, reply) in st.pending.drain(..) {
                        let _ = reply.send(Err(RoundAborted));
                    }
                    st.leader = false;
                    drop(st);
                    resume_unwind(payload);
                }
                self.rounds.fetch_add(1, Ordering::Relaxed);
                if batch.len() > 1 {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                let mut offset = 0;
                for (q, reply) in batch {
                    let slice = answers[offset..offset + q.len()].to_vec();
                    offset += q.len();
                    // A follower that gave up (channel dropped) is fine.
                    let _ = reply.send(Ok(slice));
                }
                st = relock(&self.state);
            }
            // Leadership is released under the lock with the queue empty,
            // so every submission either saw `leader == true` and has a
            // leader committed to draining it, or becomes the next leader.
            st.leader = false;
        }
        drop(st);
        rx.recv().unwrap_or(Err(RoundAborted))
    }
}

// ---------------------------------------------------------------------
// The per-query-shape plane and its per-request adapter.
// ---------------------------------------------------------------------

// The shared backend chain, inside out: the template's fault plan wraps
// the raw boxed oracle, the counter bills every ask (retries included),
// the retry layer masks faults the policy can absorb, and the memo
// dedups across requests — so a memo hit never spends a retry and a
// faulted lane is never cached.
type Backend<Q> = MemoOracle<Retrying<Counting<FaultyOracle<Boxed<Q>>>>>;

/// The shared half of the serving plane for query shape `Q`: the
/// memoised backend, the coalescer in front of it, and the pooled
/// budget.
struct Plane<Q> {
    backend: Mutex<Backend<Q>>,
    coalescer: Coalescer<Q>,
    pool: BudgetPool,
}

impl<Q: Copy> Plane<Q> {
    /// The plane over `raw`, under the template's fault plan and retry
    /// policy, with a pooled budget of `pool_budget` queries.
    fn new(raw: Box<dyn Oracle<Q> + Send>, cfg: &Config, pool_budget: Option<u64>) -> Self {
        let plan = cfg.fault_plan.unwrap_or_else(FaultPlan::none);
        let policy = cfg.retry.unwrap_or_default();
        let chain = Retrying::new(Counting::new(FaultyOracle::new(Boxed(raw), plan)), policy);
        Self {
            backend: Mutex::new(MemoOracle::new(chain)),
            coalescer: Coalescer::new(),
            pool: BudgetPool::new(pool_budget),
        }
    }
}

/// The view one request has of the shared plane: rounds go
/// pool-admission → coalescer → shared memoised backend. Wrapped in a
/// per-request [`Budgeted`] by the worker, so the request's own meters
/// tick exactly as in a solo run.
struct Served<'p, Q> {
    n: usize,
    plane: &'p Plane<Q>,
    /// Set once the pool refused this request a reservation; from then
    /// on the request is doomed (reported as `BudgetExceeded`) and its
    /// remaining queries get the constant refusal bit.
    starved: bool,
}

impl<Q: Copy + Send> Oracle<Q> for Served<'_, Q>
where
    Backend<Q>: Oracle<Q>,
{
    fn records(&self) -> usize {
        self.n
    }

    fn ask(&mut self, q: Q) -> bool {
        if self.starved || !self.plane.pool.try_reserve(1) {
            self.starved = true;
            return OVER_BUDGET_ANSWER;
        }
        // Scalar queries skip the coalescer: nothing to combine with.
        relock(&self.plane.backend).ask(q)
    }

    fn ask_round(&mut self, queries: &[Q], out: &mut Vec<bool>) {
        if queries.is_empty() {
            return;
        }
        if self.starved || !self.plane.pool.try_reserve(queries.len() as u64) {
            self.starved = true;
            out.extend(std::iter::repeat_n(OVER_BUDGET_ANSWER, queries.len()));
            return;
        }
        let backend = &self.plane.backend;
        let answers = self.plane.coalescer.submit(queries, &|qs, res| {
            relock(backend).ask_round(qs, res);
        });
        out.extend(answers);
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
    /// chain: served backend view (pool admission → coalescer → shared
    /// memoised backend) → per-request [`Budgeted`] (budget, deadline
    /// and cancel, measured from `start`) → outermost [`ProbeOracle`]
    /// injecting the session's per-seed probe plan into the live stream.
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
    /// rounds, coalesced rounds, pool spent, pool cap]`.
    fn counters(&self) -> [u64; 8];
}

impl<Q: Copy + Send + 'static> ServingPlane for Plane<Q>
where
    Backend<Q>: Oracle<Q>,
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
        relock(&self.backend).inner().failed()
    }

    fn counters(&self) -> [u64; 8] {
        let b = relock(&self.backend);
        [
            b.inner().inner().queries(),
            b.hits(),
            b.inner().retries(),
            b.inner().faults_masked(),
            self.coalescer.rounds.load(Ordering::Relaxed),
            self.coalescer.coalesced.load(Ordering::Relaxed),
            self.pool.spent(),
            self.pool.cap(),
        ]
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
        let [backend_queries, memo_hits, retries, faults_masked, backend_rounds, coalesced_rounds, pool_spent, pool_cap] =
            self.plane.counters();
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            backend_queries,
            memo_hits,
            backend_rounds,
            coalesced_rounds,
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
        let plane: Box<dyn ServingPlane> = if engine.has_values() {
            let raw = self.template.boxed_cmp_backend();
            Box::new(Plane::new(raw, cfg, self.pool_budget))
        } else {
            let raw = self.template.boxed_quad_backend();
            Box::new(Plane::new(raw, cfg, self.pool_budget))
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
    /// asks it first, so the total is interleaving-independent.
    pub backend_queries: u64,
    /// Cross-request memo hits at the shared backend (total lookups
    /// minus first occurrences — interleaving-independent, like
    /// [`Self::backend_queries`]).
    pub memo_hits: u64,
    /// Backend `le_batch` rounds executed by the coalescer. Unlike the
    /// query counters this is scheduling-dependent: a drain that merges
    /// several concurrent rounds executes them as one.
    pub backend_rounds: u64,
    /// Backend rounds that combined two or more concurrent requests —
    /// scheduling-dependent like [`Self::backend_rounds`]: it records
    /// how often concurrent rounds happened to overlap, not a property
    /// of the request set.
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
/// [`Server::submit`], a shared memoised backend, cross-request round
/// coalescing, and optional pooled admission control — built from a
/// template [`crate::Session`] via [`Server::builder`].
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
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// Spins until `ready` holds, failing the test after ten seconds
    /// instead of hanging it.
    fn wait_until(ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn parity(qs: &[u32], out: &mut Vec<bool>) {
        out.extend(qs.iter().map(|q| q % 2 == 0));
    }

    #[test]
    fn two_submitters_never_coalesce() {
        // Every round a leader runs for itself waits until the other
        // submitter is pending behind it (or done), so the other's rounds
        // always queue behind a busy leader. Still no batch holds two
        // rounds: the leader's own request stays blocked in its drain
        // loop. Queries carry their submitter in the thousands digit.
        let coalescer = Coalescer::<u32>::new();
        let done = [AtomicBool::new(false), AtomicBool::new(false)];
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let (coalescer, done) = (&coalescer, &done);
                s.spawn(move || {
                    let other = &done[1 - t as usize];
                    let exec = |qs: &[u32], out: &mut Vec<bool>| {
                        if qs.iter().all(|q| q / 1000 == t) {
                            wait_until(|| {
                                relock(&coalescer.state).pending.len() == 1
                                    || other.load(Ordering::SeqCst)
                            });
                        }
                        parity(qs, out);
                    };
                    for r in 0..50u32 {
                        let qs = [t * 1000 + r, t * 1000 + r + 1];
                        let mut want = Vec::new();
                        parity(&qs, &mut want);
                        assert_eq!(coalescer.submit(&qs, &exec), want);
                    }
                    done[t as usize].store(true, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(coalescer.rounds.load(Ordering::Relaxed), 100);
        assert_eq!(coalescer.coalesced.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn three_submitters_merge_the_two_followers() {
        // The leader's first round waits until both followers are pending;
        // it then drains them as one merged round.
        let coalescer = Coalescer::<u32>::new();
        let entered = AtomicBool::new(false);
        let held = |qs: &[u32], out: &mut Vec<bool>| {
            if !entered.swap(true, Ordering::SeqCst) {
                wait_until(|| relock(&coalescer.state).pending.len() == 2);
            }
            parity(qs, out);
        };
        let follower = |qs: &[u32]| {
            wait_until(|| entered.load(Ordering::SeqCst));
            coalescer.submit(qs, &|_: &[u32], _: &mut Vec<bool>| {
                panic!("a follower never executes while the leader drains")
            })
        };
        std::thread::scope(|s| {
            let leader = s.spawn(|| coalescer.submit(&[1], &held));
            let first = s.spawn(|| follower(&[2, 3, 4]));
            wait_until(|| relock(&coalescer.state).pending.len() == 1);
            let second = s.spawn(|| follower(&[5, 6]));
            assert_eq!(leader.join().unwrap(), vec![false]);
            assert_eq!(first.join().unwrap(), vec![true, false, true]);
            assert_eq!(second.join().unwrap(), vec![false, true]);
        });
        assert_eq!(coalescer.rounds.load(Ordering::Relaxed), 2);
        assert_eq!(coalescer.coalesced.load(Ordering::Relaxed), 1);
    }
}
