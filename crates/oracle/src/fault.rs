//! Deterministic fault injection and bounded-retry recovery.
//!
//! The noise models of Section 2.2 corrupt *answers*; a production
//! oracle platform additionally loses them: crowd workers stall or go
//! dark, batch backends have burst outages, an RPC returns garbage. This
//! module makes that failure surface first-class while keeping every
//! run replayable:
//!
//! * [`FaultPlan`] — a seeded, deterministic schedule of faults over the
//!   oracle's global *attempt* counter (every fallible ask advances it,
//!   so a retry of a faulted query lands on a fresh attempt index and
//!   can succeed);
//! * [`FaultyOracle`] — wraps any oracle and surfaces the plan's faults
//!   through the fallible [`crate::ComparisonOracle::try_le`] /
//!   [`crate::QuadrupletOracle::try_le_batch`] interface, while the infallible
//!   `le`/`le_batch` methods keep answering fault-free (recovery layers
//!   opt in to fallibility; legacy call sites compile and behave
//!   untouched);
//! * [`Retrying`] — the recovery layer: bounded per-query retry with
//!   deterministic exponential-backoff accounting, per-round
//!   *partial-batch* retry (only faulted lanes re-ask), and a doomed-run
//!   constant answer once a fault outlives the [`RetryPolicy`] (callers
//!   check [`Retrying::failed`] after the run, mirroring
//!   [`crate::Budgeted::exceeded`]).
//!
//! Because every shipped noise model is persistent
//! ([`PersistentNoise`]), a fault that the retry policy masks is
//! *answer-invariant*: the re-ask returns the identical bit the first
//! ask would have, so a fully masked run makes bit-identical decisions
//! to the fault-free run — it just pays more. The facade's chaos suite
//! (`tests/fault_plane.rs`) pins exactly that equivalence.
//!
//! ```
//! use nco_oracle::fault::{FaultPlan, FaultyOracle, RetryPolicy, Retrying};
//! use nco_oracle::{Budgeted, ComparisonOracle, TrueValueOracle};
//!
//! // A seeded storm: 10% transient failures, a 2-attempt outage every
//! // 64 attempts, stalls billed as 500us of latency debt.
//! let plan = FaultPlan::new(42)
//!     .transient(0.10)
//!     .outages(64, 2)
//!     .stalls(0.05, 500);
//!
//! let raw = TrueValueOracle::new((0..32).map(f64::from).collect());
//! let metered = Budgeted::new(FaultyOracle::new(raw, plan), None);
//! let mut oracle = Retrying::new(metered, RetryPolicy::new(8));
//!
//! for i in 0..31 {
//!     // Masked faults are invisible in the answers...
//!     assert!(oracle.le(i, i + 1));
//! }
//! assert!(oracle.failed().is_none());
//! // ...but every retry attempt was billed by the meter underneath.
//! assert_eq!(oracle.inner().queries(), 31 + oracle.retries());
//! ```

use crate::budget::OVER_BUDGET_ANSWER;
use crate::persistent::PersistentNoise;
use crate::{Layer, Oracle, Reply};
use nco_metric::hashing::splitmix64;

/// Why a single oracle ask came back unusable. Carried by
/// [`crate::ComparisonOracle::try_le`] / [`crate::QuadrupletOracle::try_le`]; a
/// recovery layer ([`Retrying`]) decides whether to re-ask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryFault {
    /// A one-off transient failure (dropped RPC, worker timeout).
    Transient,
    /// The ask landed inside a burst outage window of the backend.
    Outage,
    /// The worker stalled past its answer deadline; the ask is abandoned
    /// and its wait is accounted as latency debt
    /// ([`FaultStats::latency_debt_us`]).
    Stalled,
    /// The ask was routed to a stuck worker whose fixed answer failed the
    /// platform's attention checks — detected and discarded, never
    /// returned as a real bit.
    DeadWorker,
}

/// The seeded hash behind [`FaultPlan`] and [`crate::ProbePlan`]: a pure
/// function of `(seed, counter, salt)`.
#[inline]
pub(crate) fn plan_hash(seed: u64, counter: u64, salt: u64) -> u64 {
    splitmix64(seed ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// [`plan_hash`] as a uniform draw in `[0, 1)`.
#[inline]
pub(crate) fn plan_u01(seed: u64, counter: u64, salt: u64) -> f64 {
    (plan_hash(seed, counter, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded, deterministic fault schedule.
///
/// Faults are keyed by the wrapped oracle's global **attempt counter**
/// (not by the query), so re-asking a faulted query lands on a fresh
/// attempt index and draws a fresh fate — exactly how a retry against a
/// real flaky backend behaves, but replayable bit-for-bit from the seed.
///
/// All probabilities are per-attempt; every decision is a pure function
/// of `(seed, attempt index)` via splitmix64.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_p: f64,
    outage_every: u64,
    outage_len: u64,
    stall_p: f64,
    stall_debt_us: u64,
    workers: u32,
    dead_workers: u32,
    panic_at: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: no faults, ever. [`FaultyOracle`] short-circuits
    /// to a transparent forwarder under it.
    pub fn none() -> Self {
        Self::new(0)
    }

    /// A fresh plan with no faults enabled; chain the builder methods to
    /// switch fault classes on.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            transient_p: 0.0,
            outage_every: 0,
            outage_len: 0,
            stall_p: 0.0,
            stall_debt_us: 0,
            workers: 0,
            dead_workers: 0,
            panic_at: None,
        }
    }

    /// Each attempt independently fails [`QueryFault::Transient`] with
    /// probability `p`.
    ///
    /// # Panics
    /// If `p` is not within `[0, 1]`.
    pub fn transient(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "transient probability {p}");
        self.transient_p = p;
        self
    }

    /// Burst outages: the first `len` of every `every` consecutive
    /// attempts fail [`QueryFault::Outage`]. A retry policy with more
    /// than `len` attempts always crosses the burst.
    ///
    /// # Panics
    /// If `every == 0` or `len > every`.
    pub fn outages(mut self, every: u64, len: u64) -> Self {
        assert!(every > 0 && len <= every, "outage window {len}/{every}");
        self.outage_every = every;
        self.outage_len = len;
        self
    }

    /// Each attempt independently stalls with probability `p`, abandoning
    /// the ask ([`QueryFault::Stalled`]) and accruing `debt_us`
    /// microseconds of latency debt in [`FaultStats`].
    ///
    /// # Panics
    /// If `p` is not within `[0, 1]`.
    pub fn stalls(mut self, p: f64, debt_us: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "stall probability {p}");
        self.stall_p = p;
        self.stall_debt_us = debt_us;
        self
    }

    /// Routes each attempt to one of `pool` simulated workers (seeded
    /// hash of the attempt index); `dead` of them are stuck and every ask
    /// routed to one fails [`QueryFault::DeadWorker`].
    ///
    /// # Panics
    /// If `pool == 0` or `dead > pool`.
    pub fn dead_workers(mut self, pool: u32, dead: u32) -> Self {
        assert!(pool > 0 && dead <= pool, "dead workers {dead}/{pool}");
        self.workers = pool;
        self.dead_workers = dead;
        self
    }

    /// Panics the oracle on exactly attempt `attempt` (once — the
    /// counter advances past it). Simulates a buggy backend; used to
    /// exercise the serving plane's `catch_unwind` isolation.
    pub fn panic_at(mut self, attempt: u64) -> Self {
        self.panic_at = Some(attempt);
        self
    }

    /// `true` if any fault class is enabled. [`FaultyOracle`] under an
    /// inactive plan forwards without touching the attempt counter.
    pub fn is_active(&self) -> bool {
        self.transient_p > 0.0
            || self.outage_len > 0
            || self.stall_p > 0.0
            || self.dead_workers > 0
            || self.panic_at.is_some()
    }

    /// The fate of attempt `attempt` — a pure function of the plan.
    fn decide(&self, attempt: u64) -> Option<QueryFault> {
        if self.panic_at == Some(attempt) {
            panic!("injected fault-plan panic at attempt {attempt}");
        }
        if self.outage_len > 0 && attempt % self.outage_every < self.outage_len {
            return Some(QueryFault::Outage);
        }
        if self.dead_workers > 0 {
            let lane = plan_hash(self.seed, attempt, 0xDEAD) % u64::from(self.workers);
            if lane < u64::from(self.dead_workers) {
                return Some(QueryFault::DeadWorker);
            }
        }
        if self.transient_p > 0.0 && plan_u01(self.seed, attempt, 0x7A17) < self.transient_p {
            return Some(QueryFault::Transient);
        }
        if self.stall_p > 0.0 && plan_u01(self.seed, attempt, 0x57A1) < self.stall_p {
            return Some(QueryFault::Stalled);
        }
        None
    }
}

/// What a [`FaultyOracle`] injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FaultStats {
    /// Fallible asks that consulted the plan (the attempt counter).
    pub attempts: u64,
    /// [`QueryFault::Transient`] faults injected.
    pub transient: u64,
    /// [`QueryFault::Outage`] faults injected.
    pub outages: u64,
    /// [`QueryFault::Stalled`] faults injected.
    pub stalls: u64,
    /// [`QueryFault::DeadWorker`] faults injected.
    pub dead_workers: u64,
    /// Microseconds of simulated wait abandoned to stalled workers.
    pub latency_debt_us: u64,
}

/// Wraps any oracle with a deterministic [`FaultPlan`].
///
/// Faults surface **only** through the fallible `try_le` /
/// `try_le_batch` interface — the infallible `le` / `le_batch` methods
/// forward untouched, so metering and memo wrappers stacked on top
/// behave exactly as without the fault layer until a recovery layer
/// ([`Retrying`]) opts in to fallibility. Since the wrapped answers are
/// unchanged, `FaultyOracle` preserves [`PersistentNoise`].
#[derive(Debug, Clone)]
pub struct FaultyOracle<O> {
    inner: O,
    plan: FaultPlan,
    attempts: u64,
    stats: FaultStats,
}

impl<O> FaultyOracle<O> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: O, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            attempts: 0,
            stats: FaultStats::default(),
        }
    }

    /// The configured plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Immutable access to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Consults the plan for the next attempt; records what it injects.
    fn inject(&mut self) -> Option<QueryFault> {
        if !self.plan.is_active() {
            return None;
        }
        let attempt = self.attempts;
        self.attempts += 1;
        self.stats.attempts += 1;
        let fault = self.plan.decide(attempt);
        match fault {
            Some(QueryFault::Transient) => self.stats.transient += 1,
            Some(QueryFault::Outage) => self.stats.outages += 1,
            Some(QueryFault::Stalled) => {
                self.stats.stalls += 1;
                self.stats.latency_debt_us += self.plan.stall_debt_us;
            }
            Some(QueryFault::DeadWorker) => self.stats.dead_workers += 1,
            None => {}
        }
        fault
    }
}

impl<O: PersistentNoise> PersistentNoise for FaultyOracle<O> {}

impl<O> FaultyOracle<O> {
    /// Forwards queries the plan left clean. They take the inner fallible
    /// path only when something below can fault; otherwise the infallible
    /// path answers and bills the same.
    fn forward<Q: Copy, R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>)
    where
        O: Oracle<Q>,
    {
        if R::FALLIBLE && !self.inner.is_fallible() {
            R::from_bits(out, queries.len(), |bits| {
                self.inner.ask_round(queries, bits)
            });
        } else {
            R::round(&mut self.inner, queries, out);
        }
    }
}

impl<Q: Copy, O: Oracle<Q>> Layer<Q> for FaultyOracle<O> {
    type Below = O;

    fn below(&self) -> &O {
        &self.inner
    }

    fn one<R: Reply>(&mut self, q: Q) -> R {
        if R::FALLIBLE {
            if let Some(fault) = self.inject() {
                return R::fault(fault);
            }
            if !self.inner.is_fallible() {
                return R::bit(self.inner.ask(q));
            }
        }
        R::one(&mut self.inner, q)
    }

    fn round<R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>) {
        if !R::FALLIBLE || !self.plan.is_active() {
            self.forward(queries, out);
            return;
        }
        // Decide every lane's fate first, then forward the clean lanes as
        // one inner round (answers are per-query pure under persistence,
        // so the subset sees the same bits the full round would).
        let fates: Vec<Option<QueryFault>> = queries.iter().map(|_| self.inject()).collect();
        let clean: Vec<Q> = queries
            .iter()
            .zip(&fates)
            .filter(|(_, f)| f.is_none())
            .map(|(&q, _)| q)
            .collect();
        let mut answers = Vec::with_capacity(clean.len());
        self.forward(&clean, &mut answers);
        let mut next = answers.into_iter();
        out.reserve(queries.len());
        out.extend(fates.into_iter().map(|fate| match fate {
            Some(fault) => R::fault(fault),
            None => next.next().expect("one answer per clean lane"),
        }));
    }

    fn fallible(&self) -> bool {
        self.plan.is_active() || self.inner.is_fallible()
    }
}

shape_traits!(impl[O] FaultyOracle<O>);

/// How hard [`Retrying`] fights a fault before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total asks per query (first try + retries); `0` is treated as `1`.
    pub max_attempts: u32,
    /// Base of the deterministic exponential backoff, in microseconds:
    /// retry round `r` (1-based) accrues `base << (r - 1)` of
    /// [`Retrying::backoff_debt_us`]. Pure accounting — nothing sleeps.
    pub backoff_base_us: u64,
}

impl RetryPolicy {
    /// `max_attempts` asks per query with the default 100us backoff base.
    pub fn new(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            backoff_base_us: 100,
        }
    }

    /// Replaces the backoff base.
    pub fn backoff_base_us(mut self, base: u64) -> Self {
        self.backoff_base_us = base;
        self
    }

    #[inline]
    fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    #[inline]
    fn backoff_for(&self, retry_round: u32) -> u64 {
        // Cap the shift: past 2^16 x base the debt is saturated anyway.
        self.backoff_base_us
            .saturating_mul(1u64 << (retry_round.saturating_sub(1)).min(16))
    }
}

impl Default for RetryPolicy {
    /// Four asks per query, 100us backoff base.
    fn default() -> Self {
        Self::new(4)
    }
}

/// Bounded-retry recovery over a fallible oracle chain.
///
/// `Retrying` drives its inner chain through the fallible `try_le` /
/// `try_le_batch` interface — unless the chain reports it cannot fault
/// ([`crate::ComparisonOracle::fallible`] is `false`), in which case every ask
/// goes straight to the infallible `le` / `le_batch`, which answers and
/// bills identically. A faulted ask is re-asked up to
/// [`RetryPolicy::max_attempts`] times total; batched rounds retry only
/// the faulted lanes (each retry round is a fresh inner round, so a
/// meter inside bills exactly the re-asked lanes). Retries of persistent
/// oracles are answer-invariant, so a fully masked run is bit-identical
/// to the fault-free run.
///
/// When a fault outlives the policy the oracle is **doomed**: the
/// [`Retrying::failed`] flag latches, the inner chain is never touched
/// again, and every subsequent answer is the fixed
/// [`OVER_BUDGET_ANSWER`] refusal bit — the same discard-the-run pattern
/// as [`crate::Budgeted`], surfaced by the facade as a typed
/// `OracleFailed` error.
#[derive(Debug, Clone)]
pub struct Retrying<O> {
    inner: O,
    policy: RetryPolicy,
    retries: u64,
    masked: u64,
    backoff_debt_us: u64,
    failed: Option<u32>,
}

impl<O> Retrying<O> {
    /// Wraps a fallible oracle chain under `policy`.
    pub fn new(inner: O, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            retries: 0,
            masked: 0,
            backoff_debt_us: 0,
            failed: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Re-ask attempts issued so far (beyond each query's first ask).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Queries that faulted at least once and then succeeded — faults
    /// the policy fully masked.
    pub fn faults_masked(&self) -> u64 {
        self.masked
    }

    /// Deterministic backoff debt accrued by retry rounds, in
    /// microseconds (accounting only; nothing sleeps).
    pub fn backoff_debt_us(&self) -> u64 {
        self.backoff_debt_us
    }

    /// `Some(attempts)` once any query exhausted the policy — the run is
    /// doomed and must be discarded by the caller.
    pub fn failed(&self) -> Option<u32> {
        self.failed
    }

    /// Immutable access to the wrapped oracle chain.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the oracle chain.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

/// Masked retries return the persistent inner answer; once `failed`
/// latches the run is doomed and discarded — the same argument as
/// [`crate::Budgeted`]'s impl.
impl<O: PersistentNoise> PersistentNoise for Retrying<O> {}

impl<O> Retrying<O> {
    /// One query under the policy.
    fn retry_one<Q: Copy>(&mut self, q: Q) -> bool
    where
        O: Oracle<Q>,
    {
        if self.failed.is_some() {
            return OVER_BUDGET_ANSWER;
        }
        if !self.inner.is_fallible() {
            // Nothing below can fault: the infallible ask answers and
            // bills exactly like a first try that succeeds.
            return self.inner.ask(q);
        }
        let max = self.policy.attempts();
        for attempt in 1..=max {
            if attempt > 1 {
                self.retries += 1;
                self.backoff_debt_us = self
                    .backoff_debt_us
                    .saturating_add(self.policy.backoff_for(attempt - 1));
            }
            if let Ok(ans) = self.inner.try_ask(q) {
                if attempt > 1 {
                    self.masked += 1;
                }
                return ans;
            }
        }
        self.failed = Some(max);
        OVER_BUDGET_ANSWER
    }

    /// One round under the policy; only faulted lanes re-ask.
    fn retry_round<Q: Copy>(&mut self, queries: &[Q], out: &mut Vec<bool>)
    where
        O: Oracle<Q>,
    {
        if self.failed.is_none() && !self.inner.is_fallible() {
            // Nothing below can fault: forward the round as is (an empty
            // one included, so round meters inside still tick).
            self.inner.ask_round(queries, out);
            return;
        }
        if queries.is_empty() {
            // Forward the empty round so round meters inside still tick.
            self.inner.try_ask_round(queries, &mut Vec::new());
            return;
        }
        if self.failed.is_some() {
            out.extend(std::iter::repeat_n(OVER_BUDGET_ANSWER, queries.len()));
            return;
        }
        let max = self.policy.attempts();
        let mut results: Vec<Result<bool, QueryFault>> = Vec::with_capacity(queries.len());
        self.inner.try_ask_round(queries, &mut results);
        let mut answers: Vec<bool> = Vec::with_capacity(queries.len());
        let mut pending: Vec<usize> = Vec::new();
        for (slot, r) in results.iter().enumerate() {
            match r {
                Ok(ans) => answers.push(*ans),
                Err(_) => {
                    answers.push(OVER_BUDGET_ANSWER);
                    pending.push(slot);
                }
            }
        }
        let mut round = 1u32;
        while !pending.is_empty() && round < max {
            round += 1;
            // Partial-batch retry: only the faulted lanes re-ask, as one
            // fresh inner round. Lanes share the round's backoff wait.
            self.retries += pending.len() as u64;
            self.backoff_debt_us = self
                .backoff_debt_us
                .saturating_add(self.policy.backoff_for(round - 1));
            let sub: Vec<Q> = pending.iter().map(|&slot| queries[slot]).collect();
            let mut sub_results: Vec<Result<bool, QueryFault>> = Vec::with_capacity(sub.len());
            self.inner.try_ask_round(&sub, &mut sub_results);
            let mut still = Vec::new();
            for (&slot, r) in pending.iter().zip(&sub_results) {
                match r {
                    Ok(ans) => {
                        answers[slot] = *ans;
                        self.masked += 1;
                    }
                    Err(_) => still.push(slot),
                }
            }
            pending = still;
        }
        if !pending.is_empty() {
            // Doomed: the constant placeholder already sits in `answers`.
            self.failed = Some(max);
        }
        out.extend(answers);
    }
}

// Faults inside a recovery layer stay inside it: `Retrying` answers both
// paths from its infallible bodies and is never fallible itself.
impl<Q: Copy, O: Oracle<Q>> Layer<Q> for Retrying<O> {
    type Below = O;

    fn below(&self) -> &O {
        &self.inner
    }

    #[inline]
    fn one<R: Reply>(&mut self, q: Q) -> R {
        R::bit(self.retry_one(q))
    }

    #[inline]
    fn round<R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>) {
        R::from_bits(out, queries.len(), |bits| self.retry_round(queries, bits));
    }

    fn doomed(&self) -> bool {
        self.failed.is_some() || self.inner.is_doomed()
    }

    fn fallible(&self) -> bool {
        false
    }
}

shape_traits!(impl[O] Retrying<O>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budgeted;
    use crate::counting::Counting;
    use crate::probabilistic::{ProbQuadOracle, ProbValueOracle};
    use crate::{
        ComparisonOracle, MemoOracle, ProbeOracle, ProbePlan, QuadrupletOracle, TrueQuadOracle,
        TrueValueOracle,
    };
    use nco_metric::EuclideanMetric;

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % (n + 1)) as f64).collect()
    }

    #[test]
    fn plans_are_deterministic_and_none_is_inactive() {
        let plan = FaultPlan::new(7).transient(0.3).stalls(0.2, 10);
        let a: Vec<_> = (0..200).map(|t| plan.decide(t)).collect();
        let b: Vec<_> = (0..200).map(|t| plan.decide(t)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|f| f.is_some()));
        assert!(a.iter().any(|f| f.is_none()));
        assert!(!FaultPlan::none().is_active());
        assert!(plan.is_active());
    }

    #[test]
    fn outage_windows_fail_deterministically() {
        let plan = FaultPlan::new(0).outages(10, 3);
        for t in 0..40u64 {
            let expect_fault = t % 10 < 3;
            assert_eq!(
                plan.decide(t),
                expect_fault.then_some(QueryFault::Outage),
                "attempt {t}"
            );
        }
    }

    #[test]
    fn infallible_path_is_fault_free() {
        let plan = FaultPlan::new(3).transient(1.0);
        let mut faulty = FaultyOracle::new(TrueValueOracle::new(values(16)), plan);
        let mut clean = TrueValueOracle::new(values(16));
        for i in 0..15 {
            assert_eq!(faulty.le(i, i + 1), clean.le(i, i + 1));
        }
        assert_eq!(faulty.stats().attempts, 0, "le() never consults the plan");
        assert!(faulty.try_le(0, 1).is_err());
        assert_eq!(faulty.stats().attempts, 1);
    }

    #[test]
    fn masked_retries_return_the_persistent_answer_and_bill() {
        let vals = values(40);
        let plan = FaultPlan::new(11)
            .transient(0.25)
            .outages(50, 2)
            .dead_workers(8, 1)
            .stalls(0.1, 250);
        let mut clean = ProbValueOracle::new(vals.clone(), 0.3, 5);
        let faulty = FaultyOracle::new(ProbValueOracle::new(vals, 0.3, 5), plan);
        let mut oracle = Retrying::new(Counting::new(faulty), RetryPolicy::new(16));
        for i in 0..40 {
            for j in 0..40 {
                assert_eq!(oracle.le(i, j), clean.le(i, j), "({i},{j})");
            }
        }
        assert!(oracle.failed().is_none());
        assert!(oracle.retries() > 0, "the storm must actually fault");
        assert!(oracle.faults_masked() > 0);
        assert!(oracle.backoff_debt_us() > 0);
        // Every retry attempt passed through the meter.
        assert_eq!(oracle.inner().queries(), 40 * 40 + oracle.retries());
        let stats = oracle.inner().inner().stats();
        assert!(stats.stalls > 0 && stats.latency_debt_us == stats.stalls * 250);
    }

    #[test]
    fn batch_retries_only_failed_lanes() {
        let m = EuclideanMetric::from_points(
            &(0..24).map(|i| vec![i as f64 * 1.3]).collect::<Vec<_>>(),
        );
        let plan = FaultPlan::new(9).transient(0.3);
        let queries: Vec<[usize; 4]> = (0..23).map(|i| [i, i + 1, 0, 23]).collect();
        let mut clean_out = Vec::new();
        TrueQuadOracle::new(m.clone()).le_batch(&queries, &mut clean_out);

        let faulty = FaultyOracle::new(TrueQuadOracle::new(m), plan);
        let mut oracle = Retrying::new(Counting::new(faulty), RetryPolicy::new(12));
        let mut out = Vec::new();
        oracle.le_batch(&queries, &mut out);
        assert_eq!(out, clean_out);
        assert!(oracle.failed().is_none());
        assert!(oracle.retries() > 0);
        // Bill = every lane once + exactly the re-asked lanes.
        assert_eq!(
            oracle.inner().queries(),
            queries.len() as u64 + oracle.retries()
        );
    }

    #[test]
    fn exhausted_policy_latches_failed_and_stops_spending() {
        // A permanent outage no bounded policy can cross.
        let plan = FaultPlan::new(0).outages(10, 10);
        let faulty = FaultyOracle::new(TrueValueOracle::new(values(8)), plan);
        let mut oracle = Retrying::new(Counting::new(faulty), RetryPolicy::new(3));
        assert_eq!(oracle.le(0, 1), OVER_BUDGET_ANSWER);
        assert_eq!(oracle.failed(), Some(3));
        let spent = oracle.inner().queries();
        // Doomed: later queries cost nothing and answer the constant.
        assert_eq!(oracle.le(1, 2), OVER_BUDGET_ANSWER);
        let mut out = Vec::new();
        oracle.le_batch(&[(0, 1), (2, 3)], &mut out);
        assert_eq!(out, vec![OVER_BUDGET_ANSWER; 2]);
        assert_eq!(oracle.inner().queries(), spent);
    }

    /// Answers through the infallible path only: any fallible ask panics.
    /// Forwards `fallible`, so it can sit anywhere in a chain.
    struct NoFallibleAsks<O>(O);

    impl<O: ComparisonOracle> ComparisonOracle for NoFallibleAsks<O> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn le(&mut self, i: usize, j: usize) -> bool {
            self.0.le(i, j)
        }
        fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
            self.0.le_batch(queries, out);
        }
        fn try_le(&mut self, _: usize, _: usize) -> Result<bool, QueryFault> {
            panic!("fallible ask on an infallible chain")
        }
        fn try_le_batch(&mut self, _: &[(usize, usize)], _: &mut Vec<Result<bool, QueryFault>>) {
            panic!("fallible round on an infallible chain")
        }
        fn fallible(&self) -> bool {
            self.0.fallible()
        }
    }

    impl<O: QuadrupletOracle> QuadrupletOracle for NoFallibleAsks<O> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
            self.0.le(a, b, c, d)
        }
        fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
            self.0.le_batch(queries, out);
        }
        fn try_le(&mut self, _: usize, _: usize, _: usize, _: usize) -> Result<bool, QueryFault> {
            panic!("fallible ask on an infallible chain")
        }
        fn try_le_batch(&mut self, _: &[[usize; 4]], _: &mut Vec<Result<bool, QueryFault>>) {
            panic!("fallible round on an infallible chain")
        }
        fn fallible(&self) -> bool {
            self.0.fallible()
        }
    }

    #[test]
    fn retrying_is_transparent_without_faults() {
        // Spies above and below the inactive fault layer: any fallible
        // ask under `Retrying` panics, so the answers and bills below come
        // from the infallible bypass alone.
        fn idle_faults<O>(raw: O) -> NoFallibleAsks<FaultyOracle<NoFallibleAsks<O>>> {
            NoFallibleAsks(FaultyOracle::new(NoFallibleAsks(raw), FaultPlan::none()))
        }

        // Comparison side, within budget.
        let vals = values(30);
        let raw = || ProbValueOracle::new(vals.clone(), 0.2, 3);
        let mut plain = Budgeted::new(NoFallibleAsks(raw()), Some(500));
        let chain = Budgeted::new(idle_faults(raw()), Some(500));
        let mut wrapped = Retrying::new(chain, RetryPolicy::default());
        assert!(!ComparisonOracle::fallible(wrapped.inner()));
        let batch: Vec<(usize, usize)> = (0..29).map(|i| (i, i + 1)).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plain.le_batch(&batch, &mut a);
        wrapped.le_batch(&batch, &mut b);
        plain.le_batch(&[], &mut a);
        wrapped.le_batch(&[], &mut b);
        for i in 0..20 {
            a.push(plain.le(i, 29 - i));
            b.push(wrapped.le(i, 29 - i));
        }
        assert_eq!(a, b);
        assert_eq!(plain.queries(), wrapped.inner().queries());
        assert_eq!(plain.rounds(), 2, "the empty round is billed too");
        assert_eq!(plain.rounds(), wrapped.inner().rounds());
        assert_eq!(wrapped.retries(), 0);
        assert_eq!(wrapped.inner().inner().0.stats().attempts, 0);

        // Quadruplet side, crossing a small budget mid-round.
        let m = EuclideanMetric::from_points(
            &(0..24)
                .map(|i| vec![(i * 7 % 24) as f64])
                .collect::<Vec<_>>(),
        );
        let raw = || ProbQuadOracle::new(m.clone(), 0.2, 9);
        let mut plain = Budgeted::new(NoFallibleAsks(raw()), Some(30));
        let chain = Budgeted::new(idle_faults(raw()), Some(30));
        let mut wrapped = Retrying::new(chain, RetryPolicy::default());
        assert!(!QuadrupletOracle::fallible(wrapped.inner()));
        let queries: Vec<[usize; 4]> = (0..23).map(|i| [i, i + 1, 0, 23]).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plain.le_batch(&[], &mut a);
        wrapped.le_batch(&[], &mut b);
        plain.le_batch(&queries, &mut a);
        wrapped.le_batch(&queries, &mut b);
        for i in 0..10 {
            a.push(plain.le(i, i + 2, 1, 20));
            b.push(wrapped.le(i, i + 2, 1, 20));
        }
        assert_eq!(a, b);
        assert_eq!(plain.queries(), wrapped.inner().queries());
        assert_eq!(plain.rounds(), 2);
        assert_eq!(plain.rounds(), wrapped.inner().rounds());
        assert!(plain.exceeded() && wrapped.inner().exceeded());
        assert!(wrapped.failed().is_none());
    }

    #[test]
    fn fallible_is_forwarded_by_every_wrapper() {
        let plan = FaultPlan::new(1).transient(0.5);
        let cmp = || FaultyOracle::new(TrueValueOracle::new(values(8)), plan);
        assert!(ComparisonOracle::fallible(&cmp()));
        assert!(!ComparisonOracle::fallible(&FaultyOracle::new(
            TrueValueOracle::new(values(8)),
            FaultPlan::none()
        )));
        assert!(ComparisonOracle::fallible(&Counting::new(cmp())));
        assert!(ComparisonOracle::fallible(&Budgeted::new(cmp(), None)));
        assert!(ComparisonOracle::fallible(&MemoOracle::new(cmp())));
        assert!(ComparisonOracle::fallible(&ProbeOracle::new(
            cmp(),
            ProbePlan::none()
        )));
        let mut inner = cmp();
        assert!(ComparisonOracle::fallible(&&mut inner));
        // Faults inside a recovery layer stay inside it.
        assert!(!ComparisonOracle::fallible(&Retrying::new(
            cmp(),
            RetryPolicy::default()
        )));

        let m = EuclideanMetric::from_points(&(0..8).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let quad = || FaultyOracle::new(TrueQuadOracle::new(m.clone()), plan);
        assert!(QuadrupletOracle::fallible(&quad()));
        assert!(QuadrupletOracle::fallible(&Counting::new(quad())));
        assert!(QuadrupletOracle::fallible(&Budgeted::new(quad(), None)));
        assert!(QuadrupletOracle::fallible(&MemoOracle::new(quad())));
        assert!(QuadrupletOracle::fallible(&ProbeOracle::new(
            quad(),
            ProbePlan::none()
        )));
        let mut inner = quad();
        assert!(QuadrupletOracle::fallible(&&mut inner));
    }

    /// Asks `queries` twice through `Retrying<MemoOracle<FaultyOracle<raw>>>`
    /// under a transient storm, once as scalar asks and once as rounds,
    /// and checks every answer against the fault-free `raw`.
    fn assert_retry_masks_memo_misses<Q, O>(raw: O, queries: &[Q])
    where
        Q: Copy + std::fmt::Debug,
        O: Oracle<Q> + PersistentNoise + Clone,
        Retrying<MemoOracle<FaultyOracle<O>>>: Oracle<Q>,
    {
        let plan = FaultPlan::new(5).transient(0.4);
        let mut clean = raw.clone();
        let mut expect = Vec::new();
        clean.ask_round(queries, &mut expect);
        let chain = || {
            let faulty = FaultyOracle::new(raw.clone(), plan);
            Retrying::new(MemoOracle::new(faulty), RetryPolicy::new(16))
        };
        let mut scalar = chain();
        let mut batched = chain();
        let tally =
            |o: &Retrying<MemoOracle<FaultyOracle<O>>>| (o.inner().hits(), o.inner().lookups());
        let mut first_pass = [(0, 0); 2];
        for pass in 0..2 {
            for (&q, &want) in queries.iter().zip(&expect) {
                assert_eq!(scalar.ask(q), want, "pass {pass}, {q:?}");
            }
            let mut got = Vec::new();
            batched.ask_round(queries, &mut got);
            assert_eq!(got, expect, "pass {pass}");
            if pass == 0 {
                first_pass = [tally(&scalar), tally(&batched)];
            }
        }
        for (oracle, (hits, lookups)) in [&scalar, &batched].into_iter().zip(first_pass) {
            assert!(oracle.failed().is_none());
            assert!(oracle.retries() > 0);
            // The second pass was all memo hits: only real bits were cached.
            let n = queries.len() as u64;
            assert_eq!(tally(oracle), (hits + n, lookups + n));
        }
    }

    #[test]
    fn memo_inside_retry_does_not_cache_faulted_lanes() {
        // Retrying<MemoOracle<FaultyOracle<...>>>: a faulted miss must not
        // poison the memo — the retry re-asks and caches the real bit.
        // Both shapes, through scalar asks and through rounds.
        let pairs: Vec<(usize, usize)> = (0..20)
            .flat_map(|i| (0..20).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        assert_retry_masks_memo_misses(ProbValueOracle::new(values(20), 0.25, 8), &pairs);

        let m = EuclideanMetric::from_points(
            &(0..16)
                .map(|i| vec![(i * i % 17) as f64, i as f64])
                .collect::<Vec<_>>(),
        );
        let quads: Vec<[usize; 4]> = (0..16)
            .flat_map(|a| (0..16).map(move |c| [a, (a + 3) % 16, c, (c + 7) % 16]))
            .collect();
        assert_retry_masks_memo_misses(ProbQuadOracle::new(m, 0.25, 8), &quads);
    }

    /// A fault layer over a fallible oracle, with no plan of its own, must
    /// hand back the inner layer's faults on both fallible paths; with a
    /// plan of its own, its faults and the inner ones interleave by lane.
    /// The infallible path stays untouched either way.
    fn assert_inner_faults_surface<Q, O>(raw: O, q: [Q; 2])
    where
        Q: Copy,
        O: Oracle<Q> + Clone,
        FaultyOracle<FaultyOracle<O>>: Oracle<Q>,
    {
        let storm = FaultPlan::new(1).transient(1.0);
        let mut nested =
            FaultyOracle::new(FaultyOracle::new(raw.clone(), storm), FaultPlan::none());
        assert!(nested.is_fallible());
        assert_eq!(nested.try_ask(q[0]), Err(QueryFault::Transient));
        let mut round = Vec::new();
        nested.try_ask_round(&q, &mut round);
        assert_eq!(round, vec![Err(QueryFault::Transient); 2]);
        assert_eq!(nested.inner().stats().attempts, 3);
        assert_eq!(nested.ask(q[0]), raw.clone().ask(q[0]));
        assert_eq!(
            nested.inner().stats().attempts,
            3,
            "le() never consults a plan"
        );

        // The outer plan faults attempt 0 only; lane 1 reaches the inner
        // storm.
        let outer = FaultPlan::new(2).outages(2, 1);
        let mut nested = FaultyOracle::new(FaultyOracle::new(raw, storm), outer);
        let mut round = Vec::new();
        nested.try_ask_round(&q, &mut round);
        assert_eq!(
            round,
            vec![Err(QueryFault::Outage), Err(QueryFault::Transient)]
        );
        assert_eq!(nested.inner().stats().attempts, 1);
    }

    #[test]
    fn faults_from_a_fallible_inner_oracle_come_back_as_err() {
        assert_inner_faults_surface(TrueValueOracle::new(values(8)), [(0, 1), (1, 2)]);
        let m = EuclideanMetric::from_points(&(0..8).map(|i| vec![i as f64]).collect::<Vec<_>>());
        assert_inner_faults_surface(TrueQuadOracle::new(m), [[0, 1, 0, 2], [1, 3, 2, 5]]);
    }

    #[test]
    #[should_panic(expected = "injected fault-plan panic")]
    fn panic_at_fires_on_the_exact_attempt() {
        let plan = FaultPlan::new(0).panic_at(2);
        let mut faulty = FaultyOracle::new(TrueValueOracle::new(values(4)), plan);
        let _ = faulty.try_le(0, 1);
        let _ = faulty.try_le(1, 2);
        let _ = faulty.try_le(2, 3); // attempt index 2 panics
    }
}
