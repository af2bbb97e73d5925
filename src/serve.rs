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
//!   concurrent requests are combined into one `le_batch` call against a
//!   single shared backend oracle, instead of each run amortising only
//!   its own rounds.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use nco_core::hier::MergePlaneStats;
use nco_oracle::budget::{BudgetPool, Budgeted, OVER_BUDGET_ANSWER};
use nco_oracle::fault::{FaultPlan, FaultyOracle, QueryFault, Retrying};
use nco_oracle::persistent::PersistentNoise;
use nco_oracle::{
    ComparisonOracle, Counting, MemoOracle, NoiseEstimate, ProbeOracle, QuadrupletOracle,
};

use crate::error::NcoError;
use crate::report::{Outcome, RunReport};
use crate::session::{CancelToken, Session};
use crate::task::{Answer, PartialOutcome, Task};

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
// Boxed backend oracles.
//
// The shared backend must be `'static` (it outlives any request), so the
// session's noise oracle is built boxed over an engine handle. The
// manual `PersistentNoise` impls are sound because the boxes only ever
// hold the shipped persistent models (`Session::boxed_*_backend`).
// ---------------------------------------------------------------------

struct BoxedQuad(Box<dyn QuadrupletOracle + Send>);

impl QuadrupletOracle for BoxedQuad {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        self.0.le(a, b, c, d)
    }

    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        self.0.le_batch(queries, out);
    }

    fn try_le(&mut self, a: usize, b: usize, c: usize, d: usize) -> Result<bool, QueryFault> {
        self.0.try_le(a, b, c, d)
    }

    fn try_le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<Result<bool, QueryFault>>) {
        self.0.try_le_batch(queries, out);
    }

    fn doomed(&self) -> bool {
        self.0.doomed()
    }

    fn fallible(&self) -> bool {
        self.0.fallible()
    }
}

impl PersistentNoise for BoxedQuad {}

struct BoxedCmp(Box<dyn ComparisonOracle + Send>);

impl ComparisonOracle for BoxedCmp {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn le(&mut self, i: usize, j: usize) -> bool {
        self.0.le(i, j)
    }

    fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
        self.0.le_batch(queries, out);
    }

    fn try_le(&mut self, i: usize, j: usize) -> Result<bool, QueryFault> {
        self.0.try_le(i, j)
    }

    fn try_le_batch(
        &mut self,
        queries: &[(usize, usize)],
        out: &mut Vec<Result<bool, QueryFault>>,
    ) {
        self.0.try_le_batch(queries, out);
    }

    fn doomed(&self) -> bool {
        self.0.doomed()
    }

    fn fallible(&self) -> bool {
        self.0.fallible()
    }
}

impl PersistentNoise for BoxedCmp {}

// ---------------------------------------------------------------------
// The group-commit round coalescer.
// ---------------------------------------------------------------------

/// Combines oracle rounds submitted by concurrent requests into shared
/// backend `le_batch` calls (group commit): the first submitter becomes
/// the round leader and drains *every* pending submission — including
/// those that arrive while it is executing — until the queue is empty;
/// followers just wait for their slice of the answers.
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
// Per-request oracle adapters.
// ---------------------------------------------------------------------

// The shared backend chain, inside out: the template's fault plan wraps
// the raw boxed oracle, the counter bills every ask (retries included),
// the retry layer masks faults the policy can absorb, and the memo
// dedups across requests — so a memo hit never spends a retry and a
// faulted lane is never cached.
type QuadBackend = MemoOracle<Retrying<Counting<FaultyOracle<BoxedQuad>>>>;
type CmpBackend = MemoOracle<Retrying<Counting<FaultyOracle<BoxedCmp>>>>;

/// The quadruplet-oracle view one request has of the shared plane:
/// rounds go pool-admission → coalescer → shared memoised backend.
/// Wrapped in a per-request [`Budgeted`] by the worker, so the request's
/// own meters tick exactly as in a solo run.
struct ServedQuad {
    n: usize,
    backend: Arc<Mutex<QuadBackend>>,
    coalescer: Arc<Coalescer<[usize; 4]>>,
    pool: Arc<BudgetPool>,
    /// Set once the pool refused this request a reservation; from then
    /// on the request is doomed (reported as `BudgetExceeded`) and its
    /// remaining queries get the constant refusal bit.
    starved: bool,
}

impl QuadrupletOracle for ServedQuad {
    fn n(&self) -> usize {
        self.n
    }

    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        if self.starved || !self.pool.try_reserve(1) {
            self.starved = true;
            return OVER_BUDGET_ANSWER;
        }
        // Scalar queries skip the coalescer: nothing to combine with.
        relock(&self.backend).le(a, b, c, d)
    }

    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        if queries.is_empty() {
            return;
        }
        if self.starved || !self.pool.try_reserve(queries.len() as u64) {
            self.starved = true;
            out.extend(std::iter::repeat_n(OVER_BUDGET_ANSWER, queries.len()));
            return;
        }
        let backend = Arc::clone(&self.backend);
        let answers = self.coalescer.submit(queries, &move |qs, res| {
            relock(&backend).le_batch(qs, res);
        });
        out.extend(answers);
    }

    fn doomed(&self) -> bool {
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
impl PersistentNoise for ServedQuad {}

/// Comparison twin of [`ServedQuad`] for value engines.
struct ServedCmp {
    n: usize,
    backend: Arc<Mutex<CmpBackend>>,
    coalescer: Arc<Coalescer<(usize, usize)>>,
    pool: Arc<BudgetPool>,
    starved: bool,
}

impl ComparisonOracle for ServedCmp {
    fn n(&self) -> usize {
        self.n
    }

    fn le(&mut self, i: usize, j: usize) -> bool {
        if self.starved || !self.pool.try_reserve(1) {
            self.starved = true;
            return OVER_BUDGET_ANSWER;
        }
        relock(&self.backend).le(i, j)
    }

    fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
        if queries.is_empty() {
            return;
        }
        if self.starved || !self.pool.try_reserve(queries.len() as u64) {
            self.starved = true;
            out.extend(std::iter::repeat_n(OVER_BUDGET_ANSWER, queries.len()));
            return;
        }
        let backend = Arc::clone(&self.backend);
        let answers = self.coalescer.submit(queries, &move |qs, res| {
            relock(&backend).le_batch(qs, res);
        });
        out.extend(answers);
    }

    fn doomed(&self) -> bool {
        // See [`ServedQuad::doomed`].
        self.starved
    }
}

/// See [`ServedQuad`]'s impl for the argument.
impl PersistentNoise for ServedCmp {}

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
    pool: Arc<BudgetPool>,
    quad_backend: Option<Arc<Mutex<QuadBackend>>>,
    quad_coalescer: Arc<Coalescer<[usize; 4]>>,
    cmp_backend: Option<Arc<Mutex<CmpBackend>>>,
    cmp_coalescer: Arc<Coalescer<(usize, usize)>>,
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

/// One engine attempt's per-request meter readings — the serve-plane
/// analogue of the session layer's internal meters.
struct AttemptMeters {
    queries: u64,
    rounds: u64,
    exceeded: bool,
    killed: bool,
    starved: bool,
    estimate: Option<NoiseEstimate>,
    probes: Option<u64>,
}

impl AttemptMeters {
    /// Folds an escalated re-run onto the discarded first attempt:
    /// spend and probes accumulate, the kill flags come from the
    /// attempt that produced the answer, and the estimate prefers the
    /// re-run's fresher probes.
    fn accumulated(first: Self, second: Self) -> Self {
        Self {
            queries: first.queries + second.queries,
            rounds: first.rounds + second.rounds,
            exceeded: second.exceeded,
            killed: second.killed,
            starved: second.starved,
            estimate: second.estimate.or(first.estimate),
            probes: match (first.probes, second.probes) {
                (Some(a), Some(b)) => Some(a + b),
                (a, b) => a.or(b),
            },
        }
    }
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

    /// `Some(attempt bound)` once any request drove the shared backend's
    /// retry layer to exhaustion. The latch is sticky and server-wide:
    /// from that point the backend returns constants, so every request
    /// that finishes after it (racing finishers included — conservative
    /// by design) is failed typed rather than given poisoned answers.
    fn backend_failed(&self) -> Option<u32> {
        if let Some(b) = &self.quad_backend {
            relock(b).inner().failed()
        } else if let Some(b) = &self.cmp_backend {
            relock(b).inner().failed()
        } else {
            unreachable!("every engine has exactly one backend plane")
        }
    }

    /// Runs one engine attempt for `task` over a fresh per-request
    /// oracle chain: served backend view (pool admission → coalescer →
    /// shared memoised backend) → per-request [`Budgeted`]
    /// (budget/deadline/cancel) → outermost [`ProbeOracle`] injecting
    /// the session's per-seed probe plan into the live stream. Probes
    /// are billed like every other query — through the request's
    /// budget, the pool, and the shared backend alike.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        session: &Session,
        task: Task,
        n: usize,
        scale: f64,
        budget: Option<u64>,
        deadline: Option<Instant>,
        cancel: Option<Arc<AtomicBool>>,
        partial: &mut Option<PartialOutcome>,
        plane: &mut Option<MergePlaneStats>,
    ) -> Result<(Answer, AttemptMeters), NcoError> {
        let probe_plan = session.probe_plan();
        let probing = probe_plan.is_active();
        if task.needs_values() {
            let backend = self
                .cmp_backend
                .as_ref()
                .expect("validate() gated value tasks on a value engine");
            let served = ServedCmp {
                n,
                backend: Arc::clone(backend),
                coalescer: Arc::clone(&self.cmp_coalescer),
                pool: Arc::clone(&self.pool),
                starved: false,
            };
            let mut oracle = ProbeOracle::new(
                Budgeted::new(served, budget)
                    .with_deadline(deadline)
                    .with_cancel(cancel),
                probe_plan,
            );
            let answer = session.value_task(task, &mut oracle, scale, partial)?;
            let estimate = oracle.estimate();
            let probes = probing.then(|| oracle.stats().probes);
            let budgeted = oracle.inner();
            Ok((
                answer,
                AttemptMeters {
                    queries: budgeted.queries(),
                    rounds: budgeted.rounds(),
                    exceeded: budgeted.exceeded(),
                    killed: budgeted.killed(),
                    starved: budgeted.inner().starved,
                    estimate,
                    probes,
                },
            ))
        } else {
            let backend = self
                .quad_backend
                .as_ref()
                .expect("validate() gated metric tasks on a metric engine");
            let served = ServedQuad {
                n,
                backend: Arc::clone(backend),
                coalescer: Arc::clone(&self.quad_coalescer),
                pool: Arc::clone(&self.pool),
                starved: false,
            };
            let mut oracle = ProbeOracle::new(
                Budgeted::new(served, budget)
                    .with_deadline(deadline)
                    .with_cancel(cancel),
                probe_plan,
            );
            let answer = session.quad_task(task, &mut oracle, scale, plane, partial)?;
            let estimate = oracle.estimate();
            let probes = probing.then(|| oracle.stats().probes);
            let budgeted = oracle.inner();
            Ok((
                answer,
                AttemptMeters {
                    queries: budgeted.queries(),
                    rounds: budgeted.rounds(),
                    exceeded: budgeted.exceeded(),
                    killed: budgeted.killed(),
                    starved: budgeted.inner().starved,
                    estimate,
                    probes,
                },
            ))
        }
    }

    fn execute(&self, request: &Request) -> Result<Outcome, NcoError> {
        let session = self.template.with_seed(request.seed);
        session.validate(request.task)?;
        let engine = Arc::clone(session.engine());
        let start = Instant::now();
        let cache_start = engine.cache_entries();
        let budget = session.cfg().budget;
        // Per-request deadline/cancellation, measured from the moment a
        // worker picks the request up (queue wait is not billed against
        // the deadline — admission control already bounds the queue).
        let deadline = session.cfg().deadline.map(|d| start + d);
        let cancel = session.cfg().cancel.as_ref().map(CancelToken::flag);

        let mut partial = None;
        let mut merge_plane = None;
        let (mut answer, mut m) = self.attempt(
            &session,
            request.task,
            engine.n(),
            session.base_scale(),
            budget,
            deadline,
            cancel.clone(),
            &mut partial,
            &mut merge_plane,
        )?;
        let mut adaptations = 0u32;
        // Adaptive escalation, exactly as in a solo run: a *clean*
        // first attempt whose probes flagged the assumed noise rate is
        // re-run with re-derived parameters on the request's remaining
        // budget. The shared backend is persistent and memoised, so the
        // re-run resumes the same noise beliefs a solo escalation would.
        if !m.exceeded && !m.killed && !m.starved && self.backend_failed().is_none() {
            if let Some(scale) = session.escalation_scale(&m.estimate) {
                let remaining = budget.map(|b| b.saturating_sub(m.queries));
                let mut partial2 = None;
                let mut plane2 = None;
                let (answer2, m2) = self.attempt(
                    &session,
                    request.task,
                    engine.n(),
                    scale,
                    remaining,
                    deadline,
                    cancel,
                    &mut partial2,
                    &mut plane2,
                )?;
                answer = answer2;
                partial = partial2;
                merge_plane = plane2;
                m = AttemptMeters::accumulated(m, m2);
                adaptations = 1;
                self.adaptations.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(p) = m.probes {
            self.probes.fetch_add(p, Ordering::Relaxed);
        }

        // Same failure precedence as a solo `Session::run`: a backend
        // fault that outlived the retry policy trumps everything, then
        // the deadline kill, then budget exhaustion (pooled or
        // per-request), then the misspecification guard.
        if let Some(attempts) = self.backend_failed() {
            return Err(NcoError::OracleFailed {
                queries_spent: m.queries,
                attempts,
            });
        }
        let cache_entries = engine.cache_entries();
        let report = RunReport {
            queries: m.queries,
            rounds: m.rounds,
            // The backend memo is a server-level resource; its hit tally
            // is aggregate, not per request (the hits live in
            // `ServeStats`).
            memo_hits: None,
            cache_entries,
            cache_added: cache_entries.map(|e| e.saturating_sub(cache_start.unwrap_or(0))),
            wall: start.elapsed(),
            budget,
            merge_plane,
            observed_flip_rate: m.estimate.map(|e| e.p_hat),
            probes: m.probes,
            adaptations,
        };
        // Killed requests carry their best-effort partials only when
        // the plane opted into graceful degradation; the default sheds
        // plain, keeping error payloads lean under load.
        let partial = if self.degrade { partial } else { None };
        if (m.killed || m.starved || m.exceeded) && partial.is_some() {
            self.partial_completions.fetch_add(1, Ordering::Relaxed);
        }
        if m.killed {
            self.deadline_kills.fetch_add(1, Ordering::Relaxed);
            return Err(NcoError::DeadlineExceeded {
                report: Box::new(report),
                partial,
            });
        }
        if m.starved {
            // The *pooled* budget ran dry mid-request: shed this request
            // without unwinding the others.
            return Err(NcoError::BudgetExceeded {
                budget: self.pool.cap(),
                report: Box::new(report),
                partial,
            });
        }
        if m.exceeded {
            return Err(NcoError::BudgetExceeded {
                budget: budget.expect("exceeded implies a budget"),
                report: Box::new(report),
                partial,
            });
        }
        // The misspecification guard fires last, and never on an
        // adapted request — the escalated re-run already answered the
        // misspecification, exactly as in a solo session.
        if adaptations == 0 {
            if let Some(est) = session.misspecified(&m.estimate) {
                self.misspecifications.fetch_add(1, Ordering::Relaxed);
                return Err(NcoError::NoiseMisspecified {
                    assumed: session
                        .assumed_rate()
                        .expect("trigger implies an assumption"),
                    observed: est.p_hat,
                    probes: m.probes.unwrap_or(0),
                    report: Box::new(report),
                });
            }
        }
        Ok(Outcome::new(answer, report))
    }

    fn stats(&self) -> ServeStats {
        let (backend_queries, memo_hits, retries, faults_masked) =
            if let Some(b) = &self.quad_backend {
                let b = relock(b);
                (
                    b.inner().inner().queries(),
                    b.hits(),
                    b.inner().retries(),
                    b.inner().faults_masked(),
                )
            } else if let Some(b) = &self.cmp_backend {
                let b = relock(b);
                (
                    b.inner().inner().queries(),
                    b.hits(),
                    b.inner().retries(),
                    b.inner().faults_masked(),
                )
            } else {
                unreachable!("every engine has exactly one backend plane")
            };
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            backend_queries,
            memo_hits,
            backend_rounds: self.quad_coalescer.rounds.load(Ordering::Relaxed)
                + self.cmp_coalescer.rounds.load(Ordering::Relaxed),
            coalesced_rounds: self.quad_coalescer.coalesced.load(Ordering::Relaxed)
                + self.cmp_coalescer.coalesced.load(Ordering::Relaxed),
            pool_spent: self.pool.spent(),
            pool_cap: self.pool.cap(),
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
        let plan = cfg.fault_plan.unwrap_or_else(FaultPlan::none);
        let policy = cfg.retry.unwrap_or_default();
        let quad_backend = engine.has_metric().then(|| {
            Arc::new(Mutex::new(MemoOracle::new(Retrying::new(
                Counting::new(FaultyOracle::new(
                    BoxedQuad(self.template.boxed_quad_backend()),
                    plan,
                )),
                policy,
            ))))
        });
        let cmp_backend = engine.has_values().then(|| {
            Arc::new(Mutex::new(MemoOracle::new(Retrying::new(
                Counting::new(FaultyOracle::new(
                    BoxedCmp(self.template.boxed_cmp_backend()),
                    plan,
                )),
                policy,
            ))))
        });
        let shared = Arc::new(ServerShared {
            template: self.template,
            queue: Mutex::new(ServerQueue {
                jobs: VecDeque::new(),
                open: true,
            }),
            work_ready: Condvar::new(),
            queue_cap: self.queue_cap,
            pool: Arc::new(BudgetPool::new(self.pool_budget)),
            quad_backend,
            quad_coalescer: Arc::new(Coalescer::new()),
            cmp_backend,
            cmp_coalescer: Arc::new(Coalescer::new()),
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
/// accounting lives in each request's [`RunReport`]; these are the
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
