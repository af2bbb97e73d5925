//! Budget-enforcing query metering — the counting layer behind the
//! facade's `Session` front door.
//!
//! [`Budgeted`] is [`crate::Counting`] with a hard cap: queries up to the
//! cap are forwarded (and billed) exactly like `Counting` would, so a run
//! that stays inside its budget is **bit-identical** — same answers, same
//! tally — to the unbudgeted run. The first query past the cap trips the
//! [`Budgeted::exceeded`] flag and, from then on, the inner oracle is
//! never touched again: every over-budget query is answered with a fixed
//! `true` without evaluating a distance or drawing a noise coin. Callers
//! (the facade's `Session::run`) check the flag after the algorithm
//! returns and surface `NcoError::BudgetExceeded` instead of the
//! (meaningless) answer — no panic, no unwinding through oracle state.

use crate::persistent::PersistentNoise;
use crate::{Layer, Oracle, Reply};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The fixed answer handed out once the budget is exhausted. Arbitrary by
/// design: a run that exceeds its budget is discarded, so the only
/// requirements are determinism and not touching the inner oracle.
/// Public so callers layering their own admission control (the facade's
/// serving plane) can hand out the identical refusal bit.
pub const OVER_BUDGET_ANSWER: bool = true;

/// Wraps any oracle with a query meter and a hard query budget.
///
/// Within budget it is indistinguishable from [`crate::Counting`]; past
/// the budget it stops consulting the inner oracle, answers a constant
/// bit, and records that the cap was crossed.
#[derive(Debug, Clone)]
pub struct Budgeted<O> {
    inner: O,
    cap: u64,
    count: u64,
    rounds: u64,
    exceeded: bool,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    killed: bool,
}

impl<O> Budgeted<O> {
    /// Wraps an oracle; `cap = None` means unlimited (pure metering).
    pub fn new(inner: O, cap: Option<u64>) -> Self {
        Self {
            inner,
            cap: cap.unwrap_or(u64::MAX),
            count: 0,
            rounds: 0,
            exceeded: false,
            deadline: None,
            cancel: None,
            killed: false,
        }
    }

    /// Kills the run once the wall clock passes `deadline`: from the next
    /// query on, the inner oracle is never consulted again and every
    /// answer is the fixed [`OVER_BUDGET_ANSWER`] refusal bit — billed as
    /// nothing, so the partial meters stay honest. Callers check
    /// [`Budgeted::killed`] after the run, exactly like
    /// [`Budgeted::exceeded`].
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Cooperative cancellation: the run is killed (same doomed-run
    /// discipline as [`Budgeted::with_deadline`]) as soon as `cancel`
    /// reads `true` at a query or round boundary.
    pub fn with_cancel(mut self, cancel: Option<Arc<AtomicBool>>) -> Self {
        self.cancel = cancel;
        self
    }

    /// `true` once the run was killed by its deadline or cancel token.
    pub fn killed(&self) -> bool {
        self.killed
    }

    /// Checks the kill sources; latches and reports `true` once killed.
    /// Free (two `None` tests) when neither source is configured, so runs
    /// without deadlines are untouched.
    #[inline]
    fn check_kill(&mut self) -> bool {
        if self.killed {
            return true;
        }
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                self.killed = true;
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.killed = true;
                return true;
            }
        }
        false
    }

    /// Queries actually issued to the inner oracle so far — equal to
    /// [`crate::Counting::queries`] for any run that stayed in budget,
    /// and capped at the budget otherwise.
    pub fn queries(&self) -> u64 {
        self.count.min(self.cap)
    }

    /// Batched rounds ([`crate::ComparisonOracle::le_batch`] /
    /// [`crate::QuadrupletOracle::le_batch`] calls) issued so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// `true` once any query has been refused for lack of budget.
    pub fn exceeded(&self) -> bool {
        self.exceeded
    }

    /// The configured cap (`u64::MAX` = unlimited).
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Immutable access to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Bills `k` queries; returns how many of them are within budget.
    #[inline]
    fn admit(&mut self, k: u64) -> u64 {
        let within = self.cap.saturating_sub(self.count.min(self.cap)).min(k);
        self.count = self.count.saturating_add(k);
        if within < k {
            self.exceeded = true;
        }
        within
    }
}

// The fallible path meters exactly like the infallible one — same kill
// check, same round tick, same cap split — so a no-fault run through a
// recovery layer bills bit-identically to the plain stack. Kill and
// over-budget refusals answer the constant bit (`Ok` on the fallible
// path, never `Err`): the run is already doomed for its own typed reason
// and a retry layer must not burn attempts fighting them.
impl<Q: Copy, O: Oracle<Q>> Layer<Q> for Budgeted<O> {
    type Below = O;

    fn below(&self) -> &O {
        &self.inner
    }

    #[inline]
    fn one<R: Reply>(&mut self, q: Q) -> R {
        if self.check_kill() || self.admit(1) == 0 {
            return R::bit(OVER_BUDGET_ANSWER);
        }
        R::one(&mut self.inner, q)
    }

    fn round<R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>) {
        if self.check_kill() {
            out.extend(std::iter::repeat_n(
                R::bit(OVER_BUDGET_ANSWER),
                queries.len(),
            ));
            return;
        }
        self.rounds += 1;
        let within = self.admit(queries.len() as u64) as usize;
        R::round(&mut self.inner, &queries[..within], out);
        out.extend(std::iter::repeat_n(
            R::bit(OVER_BUDGET_ANSWER),
            queries.len() - within,
        ));
    }

    // Purely observational: a pending deadline/cancel only latches
    // `killed` at the next query boundary (`check_kill`), so an answer
    // observed while `doomed()` was still false really was a real answer.
    fn doomed(&self) -> bool {
        self.exceeded || self.killed || self.inner.is_doomed()
    }
}

shape_traits!(impl[O] Budgeted<O>);

/// Within budget, `Budgeted` is transparent, so it preserves the wrapped
/// oracle's persistence — which is what lets a [`crate::MemoOracle`] sit
/// *outside* the budget layer (hits are free; only real oracle queries
/// bill). Past the cap, the constant refusal answer can disagree with an
/// earlier in-budget answer to the same query, but every such run is
/// already doomed to be discarded as `BudgetExceeded`, so no memoised
/// post-cap bit ever reaches a caller.
impl<O: PersistentNoise> PersistentNoise for Budgeted<O> {}

/// A shared, all-or-nothing query-budget pool for concurrent admission
/// control.
///
/// Unlike [`Budgeted`] — which bills first and splits a
/// partially-affordable batch at the cap (correct for a single doomed run
/// that will be discarded wholesale) — a serving plane admitting rounds
/// from *many* independent requests must never let one request's refusal
/// burn budget other requests could have used. `try_reserve` therefore
/// reserves a whole round's worth of queries atomically or not at all:
/// the pool's spend never exceeds its cap, and a refused round leaves the
/// pool exactly as it found it.
#[derive(Debug)]
pub struct BudgetPool {
    cap: u64,
    spent: AtomicU64,
    refused: AtomicBool,
}

impl BudgetPool {
    /// A pool with `cap` total queries; `None` means unlimited.
    pub fn new(cap: Option<u64>) -> Self {
        Self {
            cap: cap.unwrap_or(u64::MAX),
            spent: AtomicU64::new(0),
            refused: AtomicBool::new(false),
        }
    }

    /// The configured cap (`u64::MAX` = unlimited).
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Queries reserved so far. Never exceeds [`BudgetPool::cap`].
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// Queries still available.
    pub fn remaining(&self) -> u64 {
        self.cap - self.spent()
    }

    /// `true` once any reservation has been refused.
    pub fn refused(&self) -> bool {
        self.refused.load(Ordering::Relaxed)
    }

    /// Atomically reserves `k` queries, or refuses without spending
    /// anything. A successful reservation is permanent — refunds would
    /// make admission order-dependent across thread interleavings.
    pub fn try_reserve(&self, k: u64) -> bool {
        let mut cur = self.spent.load(Ordering::Relaxed);
        loop {
            if k > self.cap - cur {
                self.refused.store(true, Ordering::Relaxed);
                return false;
            }
            match self.spent.compare_exchange_weak(
                cur,
                cur + k,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::Counting;
    use crate::{ComparisonOracle, QuadrupletOracle, TrueQuadOracle, TrueValueOracle};
    use nco_metric::EuclideanMetric;

    fn line(n: usize) -> EuclideanMetric {
        EuclideanMetric::from_points(&(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>())
    }

    #[test]
    fn within_budget_matches_counting_bit_for_bit() {
        let values: Vec<f64> = (0..20).map(|i| ((i * 13) % 21) as f64).collect();
        let mut plain = Counting::new(TrueValueOracle::new(values.clone()));
        let mut capped = Budgeted::new(TrueValueOracle::new(values), Some(1_000));
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(capped.le(i, j), plain.le(i, j));
            }
        }
        assert_eq!(capped.queries(), plain.queries());
        assert!(!capped.exceeded());
        assert_eq!(capped.rounds(), 0);
    }

    #[test]
    fn cap_trips_exactly_at_the_boundary() {
        let mut o = Budgeted::new(TrueValueOracle::new(vec![1.0, 2.0, 3.0]), Some(2));
        assert!(o.le(0, 1));
        assert!(o.le(1, 2));
        assert!(
            !o.exceeded(),
            "cap not yet crossed after exactly cap queries"
        );
        assert_eq!(o.queries(), 2);
        // The third query is refused with the fixed bit, inner untouched.
        assert_eq!(o.le(2, 0), OVER_BUDGET_ANSWER);
        assert!(o.exceeded());
        assert_eq!(o.queries(), 2, "refused queries are not billed as issued");
    }

    #[test]
    fn batch_is_split_at_the_cap() {
        let m = line(4);
        let mut o = Budgeted::new(TrueQuadOracle::new(m.clone()), Some(2));
        let mut truth = TrueQuadOracle::new(m);
        let queries = [[0, 1, 0, 2], [0, 2, 0, 3], [0, 3, 0, 1], [1, 2, 1, 3]];
        let mut out = Vec::new();
        o.le_batch(&queries, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], truth.le(0, 1, 0, 2));
        assert_eq!(out[1], truth.le(0, 2, 0, 3));
        assert_eq!(out[2], OVER_BUDGET_ANSWER);
        assert_eq!(out[3], OVER_BUDGET_ANSWER);
        assert!(o.exceeded());
        assert_eq!(o.queries(), 2);
        assert_eq!(o.rounds(), 1);
    }

    #[test]
    fn batch_after_scalar_queries_is_split_at_the_remaining_cap() {
        let m = line(5);
        let mut o = Budgeted::new(TrueQuadOracle::new(m.clone()), Some(3));
        let mut truth = TrueQuadOracle::new(m);
        assert_eq!(o.le(0, 1, 0, 2), truth.le(0, 1, 0, 2));
        assert_eq!(o.le(0, 2, 0, 3), truth.le(0, 2, 0, 3));
        // One query of the cap is left: the batch's first lane answers
        // truthfully, the second gets the constant refusal bit.
        let mut out = Vec::new();
        o.le_batch(&[[0, 3, 0, 4], [0, 4, 0, 1]], &mut out);
        assert_eq!(out[0], truth.le(0, 3, 0, 4));
        assert_eq!(out[1], OVER_BUDGET_ANSWER);
        assert!(o.exceeded());
        assert_eq!(o.queries(), 3);
        assert_eq!(o.rounds(), 1);
        assert_eq!(o.inner().n(), 5);
        assert_eq!(o.into_inner().n(), 5);
    }

    #[test]
    fn unlimited_never_trips() {
        let mut o = Budgeted::new(TrueValueOracle::new(vec![1.0, 2.0]), None);
        for _ in 0..10_000 {
            let _ = o.le(0, 1);
        }
        assert!(!o.exceeded());
        assert_eq!(o.queries(), 10_000);
        assert_eq!(o.cap(), u64::MAX);
        assert_eq!(o.inner().n(), 2);
        assert_eq!(o.into_inner().n(), 2);
    }

    #[test]
    fn budget_pool_is_all_or_nothing() {
        let pool = BudgetPool::new(Some(10));
        assert_eq!(pool.cap(), 10);
        assert!(pool.try_reserve(4));
        assert!(pool.try_reserve(6));
        assert_eq!(pool.spent(), 10);
        assert_eq!(pool.remaining(), 0);
        assert!(!pool.refused());
        // A reservation the pool cannot fully cover spends nothing.
        assert!(!pool.try_reserve(1));
        assert!(pool.refused());
        assert_eq!(pool.spent(), 10);
        // Zero-sized reservations still succeed on an exhausted pool.
        assert!(pool.try_reserve(0));
    }

    #[test]
    fn budget_pool_unlimited_never_refuses() {
        let pool = BudgetPool::new(None);
        assert!(pool.try_reserve(u64::MAX - 1));
        assert!(pool.try_reserve(1));
        assert!(!pool.refused());
        assert_eq!(pool.remaining(), 0);
    }

    #[test]
    fn expired_deadline_kills_without_billing() {
        let mut o = Budgeted::new(TrueValueOracle::new(vec![1.0, 2.0, 3.0]), Some(100))
            .with_deadline(Some(Instant::now()));
        assert_eq!(o.le(0, 1), OVER_BUDGET_ANSWER);
        let mut out = Vec::new();
        o.le_batch(&[(0, 1), (1, 2)], &mut out);
        assert_eq!(out, vec![OVER_BUDGET_ANSWER; 2]);
        assert!(o.killed());
        assert!(!o.exceeded());
        assert_eq!(o.queries(), 0, "killed queries are never billed");
        assert_eq!(o.rounds(), 0);
        let mut fallible = Vec::new();
        o.try_le_batch(&[(0, 1)], &mut fallible);
        assert_eq!(fallible, vec![Ok(OVER_BUDGET_ANSWER)]);
    }

    #[test]
    fn cancel_token_kills_mid_run() {
        let cancel = Arc::new(AtomicBool::new(false));
        let mut o = Budgeted::new(TrueValueOracle::new(vec![1.0, 2.0, 3.0]), None)
            .with_cancel(Some(cancel.clone()));
        assert!(o.le(0, 1));
        assert_eq!(o.queries(), 1);
        cancel.store(true, Ordering::Relaxed);
        assert_eq!(o.le(1, 2), OVER_BUDGET_ANSWER);
        assert!(o.killed());
        assert_eq!(o.queries(), 1, "spend stops at the kill point");
    }

    #[test]
    fn fallible_path_meters_exactly_like_infallible() {
        let m = line(6);
        let mut plain = Budgeted::new(TrueQuadOracle::new(m.clone()), Some(5));
        let mut fallible = Budgeted::new(TrueQuadOracle::new(m), Some(5));
        let queries = [
            [0usize, 1, 0, 2],
            [0, 2, 0, 3],
            [1, 3, 2, 4],
            [0, 4, 0, 5],
            [1, 5, 2, 3],
            [2, 5, 0, 1],
        ];
        let mut a = Vec::new();
        plain.le_batch(&queries, &mut a);
        a.push(plain.le(0, 1, 0, 2));
        let mut b = Vec::new();
        fallible.try_le_batch(&queries, &mut b);
        let mut b: Vec<bool> = b.into_iter().map(|r| r.unwrap()).collect();
        b.push(fallible.try_le(0, 1, 0, 2).unwrap());
        assert_eq!(a, b, "over-budget lanes answer the same constant");
        assert_eq!(plain.queries(), fallible.queries());
        assert_eq!(plain.rounds(), fallible.rounds());
        assert_eq!(plain.exceeded(), fallible.exceeded());
    }
}
