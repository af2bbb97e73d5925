//! # nco-oracle — noisy comparison and quadruplet oracles
//!
//! This crate implements the oracle substrate of *How to Design Robust
//! Algorithms using Noisy Comparison Oracle* (VLDB 2021): the only interface
//! through which the paper's algorithms may touch the ground truth.
//!
//! Two query shapes (Definitions 2.1 and 2.3 of the paper), one contract:
//!
//! * [`ComparisonOracle`] — `le(i, j)` answers *"is value(i) <= value(j)?"*
//!   over records with hidden scalar values;
//! * [`QuadrupletOracle`] — `le(a, b, c, d)` answers *"is d(a,b) <= d(c,d)?"*
//!   over records in a hidden metric space.
//!
//! Both shapes share one oracle chain. Every oracle of either shape is an
//! [`Oracle<Q>`] for its query type `Q` — `(i, j)` or `[a, b, c, d]` —
//! and each wrapper of the chain ([`Counting`], [`Budgeted`],
//! [`FaultyOracle`], [`Retrying`], [`MemoOracle`], [`ProbeOracle`]) writes
//! its query logic once over `Oracle<Q>`, so both shapes run the same
//! code. Only the memo table and key and the probe-triangle draw depend
//! on the shape.
//!
//! Three noise regimes (Section 2.2), each written once over an operand
//! [`Source`] — hidden [`Values`] for comparisons, hidden [`Distances`]
//! for quadruplets — and so available for both interfaces (the
//! `*ValueOracle` / `*QuadOracle` names are the two instances):
//!
//! * **exact** ([`value::TrueOracle`]) — always correct; the `mu = 0` /
//!   `p = 0` degenerate case;
//! * **adversarial** ([`adversarial::AdversarialOracle`]) — answers may be
//!   arbitrarily wrong whenever the two compared quantities are within a
//!   multiplicative `(1 + mu)` band (the additive band lives in
//!   [`additive`]); the in-band behaviour is delegated to a pluggable
//!   [`adversarial::Adversary`] strategy;
//! * **probabilistic persistent** ([`probabilistic::ProbOracle`]) — each
//!   distinct query is wrong with probability `p < 1/2`, and *re-asking it
//!   returns the same answer*, so repetition cannot boost confidence.
//!
//! [`crowd::CrowdOracle`] simulates the paper's AMT user study (Section 6.2): worker
//! accuracy is a function of the ratio between the compared distances, and a
//! majority over three persistent workers answers each query. It also stands
//! in for the actively-trained classifier the paper uses at scale.
//! [`cluster_query`] provides the noisy *optimal cluster* ("same cluster?")
//! pairwise oracle used by the `Oq` baseline, [`counting`] wraps any
//! oracle to meter query complexity, and [`budget`] adds a hard query
//! budget on top of the meter (the enforcement layer behind the facade's
//! `Session` front door).

/// Implements [`ComparisonOracle`] and [`QuadrupletOracle`] for a chain
/// wrapper by forwarding to its shape-generic [`Layer`] logic:
/// `shape_traits!(impl[O: Bounds] Wrapper<O>)`, where `O` is the wrapped
/// oracle.
macro_rules! shape_traits {
    (impl[$($g:tt)*] $ty:ty) => {
        shape_traits!(@one [$($g)*] $ty; ComparisonOracle, (usize, usize), [i, j], (i, j));
        shape_traits!(@one [$($g)*] $ty; QuadrupletOracle, [usize; 4], [a, b, c, d], [a, b, c, d]);
    };
    (@one [$($g:tt)*] $ty:ty; $tr:ident, $q:ty, [$($x:ident),+], $query:expr) => {
        impl<$($g)*> $crate::$tr for $ty
        where
            O: $crate::Oracle<$q>,
        {
            fn n(&self) -> usize {
                $crate::Oracle::records($crate::Layer::<$q>::below(self))
            }

            #[inline]
            fn le(&mut self, $($x: usize),+) -> bool {
                $crate::Layer::<$q>::one(self, $query)
            }

            #[inline]
            fn le_batch(&mut self, queries: &[$q], out: &mut Vec<bool>) {
                $crate::Layer::<$q>::round(self, queries, out);
            }

            #[inline]
            fn try_le(&mut self, $($x: usize),+) -> Result<bool, $crate::QueryFault> {
                $crate::Layer::<$q>::one(self, $query)
            }

            #[inline]
            fn try_le_batch(
                &mut self,
                queries: &[$q],
                out: &mut Vec<Result<bool, $crate::QueryFault>>,
            ) {
                $crate::Layer::<$q>::round(self, queries, out);
            }

            fn doomed(&self) -> bool {
                $crate::Layer::<$q>::doomed(self)
            }

            fn fallible(&self) -> bool {
                $crate::Layer::<$q>::fallible(self)
            }
        }
    };
}

#[macro_use]
mod source;

pub mod additive;
pub mod adversarial;
pub mod budget;
pub mod cluster_query;
pub mod counting;
pub mod crowd;
pub mod fault;
pub mod memo;
pub mod persistent;
pub mod probabilistic;
pub mod probe;
pub mod quadruplet;
pub mod value;

pub use budget::{BudgetPool, Budgeted, OVER_BUDGET_ANSWER};
pub use counting::Counting;
pub use fault::{FaultPlan, FaultStats, FaultyOracle, QueryFault, RetryPolicy, Retrying};
pub use memo::MemoOracle;
pub use persistent::PersistentNoise;
pub use probe::{NoiseEstimate, ProbeOracle, ProbePlan, ProbeStats};
pub use quadruplet::TrueQuadOracle;
pub use source::{Distances, Source, Values};
pub use value::TrueValueOracle;

/// A (possibly noisy) comparison oracle over records with hidden values
/// (Definition 2.1).
pub trait ComparisonOracle {
    /// Number of records the oracle knows about.
    fn n(&self) -> usize;

    /// Answers *"is value(i) <= value(j)?"* — `true` encodes the paper's
    /// `Yes`. Answers may be noisy; for persistent models, identical queries
    /// always return identical answers.
    fn le(&mut self, i: usize, j: usize) -> bool;

    /// Answers one **round** of queries, appending one answer per query to
    /// `out` in query order.
    ///
    /// The paper's algorithms already issue their comparisons in rounds
    /// (scoring triangles, committee votes, candidate scans); this is the
    /// entry point that lets an oracle amortise shared work across the
    /// round. The contract is strict: the answers (and, for metered
    /// oracles, the query count) must be **bit-identical** to calling
    /// [`ComparisonOracle::le`] once per query in order — the default does
    /// exactly that, and every override is pinned against it in
    /// `tests/perf_equivalence.rs`.
    fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
        scalar_round(queries, out, |(i, j)| self.le(i, j));
    }

    /// Fallible variant of [`ComparisonOracle::le`]: an unreliable oracle
    /// may refuse an ask with a [`QueryFault`] instead of answering.
    ///
    /// The default never fails — every pre-existing oracle is perfectly
    /// available and compiles untouched. Only [`fault::FaultyOracle`]
    /// surfaces faults, and only recovery layers ([`fault::Retrying`])
    /// need to call this; metering wrappers forward it so fault-aware and
    /// infallible stacks bill identically.
    fn try_le(&mut self, i: usize, j: usize) -> Result<bool, QueryFault> {
        Ok(self.le(i, j))
    }

    /// Fallible variant of [`ComparisonOracle::le_batch`]: appends one
    /// `Result` per query in query order; individual lanes may fault
    /// while the rest of the round answers.
    ///
    /// Same contract as `le_batch` on the `Ok` lanes, and the default —
    /// one infallible round, every lane `Ok` — keeps every existing
    /// oracle compiling untouched.
    fn try_le_batch(
        &mut self,
        queries: &[(usize, usize)],
        out: &mut Vec<Result<bool, QueryFault>>,
    ) {
        Reply::from_bits(out, queries.len(), |bits| self.le_batch(queries, bits));
    }

    /// `true` once this oracle stack can no longer return real answers —
    /// the run is *doomed*: a budget cap or deadline tripped, a retry
    /// policy exhausted its attempts, or a serving pool starved. From that
    /// point every answer is a deterministic refusal constant, so callers
    /// tracking "clean progress" watermarks should stop advancing them.
    ///
    /// Purely observational: implementations must not issue queries or
    /// mutate state. The default — never doomed — keeps every infallible
    /// oracle compiling untouched; enforcement layers ([`Budgeted`],
    /// [`Retrying`]) override it and metering wrappers forward it.
    fn doomed(&self) -> bool {
        false
    }

    /// `true` if a fallible ask through this oracle stack
    /// ([`ComparisonOracle::try_le`], [`ComparisonOracle::try_le_batch`])
    /// can come back `Err`. A recovery layer ([`Retrying`]) reads it to
    /// skip the fallible detour when nothing below it can fault: the
    /// infallible path then gives the same answers and the same bill,
    /// without a fault check per ask or result buffers per round.
    ///
    /// Purely observational, like [`ComparisonOracle::doomed`]. The
    /// default — never fallible — is right for every oracle that keeps the
    /// default `try_le`/`try_le_batch`. An oracle whose fallible asks can
    /// fail must override it ([`fault::FaultyOracle`] does), and wrapping
    /// layers forward it.
    fn fallible(&self) -> bool {
        false
    }
}

/// A (possibly noisy) quadruplet oracle over records in a hidden metric
/// space (Definition 2.3).
pub trait QuadrupletOracle {
    /// Number of records the oracle knows about.
    fn n(&self) -> usize;

    /// Answers *"is d(a,b) <= d(c,d)?"* — `true` encodes the paper's `Yes`.
    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool;

    /// Answers one **round** of quadruplet queries `[a, b, c, d]`,
    /// appending one answer per query to `out` in query order.
    ///
    /// Same contract as [`ComparisonOracle::le_batch`]: bit-identical to
    /// the scalar loop, which the default is. The noise models override
    /// this to read a right-hand pair's distance once while it repeats
    /// across the round (distances are pure functions of the pair, so
    /// reusing one cannot change a truth bit), while noise coins are
    /// drawn in serial query order so transcripts are unchanged.
    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        scalar_round(queries, out, |[a, b, c, d]| self.le(a, b, c, d));
    }

    /// Fallible variant of [`QuadrupletOracle::le`]; see
    /// [`ComparisonOracle::try_le`]. The default never fails.
    fn try_le(&mut self, a: usize, b: usize, c: usize, d: usize) -> Result<bool, QueryFault> {
        Ok(self.le(a, b, c, d))
    }

    /// Fallible variant of [`QuadrupletOracle::le_batch`]; see
    /// [`ComparisonOracle::try_le_batch`]. The default answers one
    /// infallible round with every lane `Ok`.
    fn try_le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<Result<bool, QueryFault>>) {
        Reply::from_bits(out, queries.len(), |bits| self.le_batch(queries, bits));
    }

    /// `true` once this oracle stack can no longer return real answers;
    /// see [`ComparisonOracle::doomed`]. The default is never doomed.
    fn doomed(&self) -> bool {
        false
    }

    /// `true` if a fallible ask through this oracle stack can come back
    /// `Err`; see [`ComparisonOracle::fallible`]. The default is never
    /// fallible.
    fn fallible(&self) -> bool {
        false
    }
}

/// The oracle contract over one query shape `Q`: `(usize, usize)` for
/// [`ComparisonOracle`], `[usize; 4]` for [`QuadrupletOracle`].
///
/// Every oracle of either shape implements it through a blanket impl, so
/// code written once over `O: Oracle<Q>` serves both shapes — the chain
/// wrappers of this crate are written that way. The methods mirror the
/// shape traits one for one (`ask` is `le`, `ask_round` is `le_batch`, and
/// so on) under names of their own, so a type implementing both traits
/// never sees an ambiguous call. A type may also implement `Oracle<Q>`
/// directly; every wrapper of the chain then accepts it.
pub trait Oracle<Q: Copy> {
    /// Number of records the oracle knows about.
    fn records(&self) -> usize;

    /// Answers one query; see [`ComparisonOracle::le`].
    fn ask(&mut self, q: Q) -> bool;

    /// Answers one round of queries in order; see
    /// [`ComparisonOracle::le_batch`]. The default asks them one by one.
    fn ask_round(&mut self, queries: &[Q], out: &mut Vec<bool>) {
        scalar_round(queries, out, |q| self.ask(q));
    }

    /// Fallible [`Oracle::ask`]; see [`ComparisonOracle::try_le`]. The
    /// default never fails.
    fn try_ask(&mut self, q: Q) -> Result<bool, QueryFault> {
        Ok(self.ask(q))
    }

    /// Fallible [`Oracle::ask_round`]; see
    /// [`ComparisonOracle::try_le_batch`]. The default answers one
    /// infallible round with every lane `Ok`.
    fn try_ask_round(&mut self, queries: &[Q], out: &mut Vec<Result<bool, QueryFault>>) {
        Reply::from_bits(out, queries.len(), |bits| self.ask_round(queries, bits));
    }

    /// See [`ComparisonOracle::doomed`]. The default is never doomed.
    fn is_doomed(&self) -> bool {
        false
    }

    /// See [`ComparisonOracle::fallible`]. The default is never fallible.
    fn is_fallible(&self) -> bool {
        false
    }
}

/// The default round of every oracle trait: one scalar ask per query, in
/// order.
fn scalar_round<Q: Copy>(queries: &[Q], out: &mut Vec<bool>, mut ask: impl FnMut(Q) -> bool) {
    out.reserve(queries.len());
    for &q in queries {
        let ans = ask(q);
        out.push(ans);
    }
}

/// The blanket impl of [`Oracle`] for every oracle of one shape trait.
macro_rules! shape_oracle {
    ($tr:ident, $q:ty, $query:pat => $($x:ident),+) => {
        impl<T: $tr + ?Sized> Oracle<$q> for T {
            fn records(&self) -> usize {
                $tr::n(self)
            }
            #[inline]
            fn ask(&mut self, $query: $q) -> bool {
                self.le($($x),+)
            }
            #[inline]
            fn ask_round(&mut self, queries: &[$q], out: &mut Vec<bool>) {
                self.le_batch(queries, out);
            }
            #[inline]
            fn try_ask(&mut self, $query: $q) -> Result<bool, QueryFault> {
                self.try_le($($x),+)
            }
            #[inline]
            fn try_ask_round(&mut self, queries: &[$q], out: &mut Vec<Result<bool, QueryFault>>) {
                self.try_le_batch(queries, out);
            }
            fn is_doomed(&self) -> bool {
                $tr::doomed(self)
            }
            fn is_fallible(&self) -> bool {
                $tr::fallible(self)
            }
        }
    };
}

shape_oracle!(ComparisonOracle, (usize, usize), (i, j) => i, j);
shape_oracle!(QuadrupletOracle, [usize; 4], [a, b, c, d] => a, b, c, d);

/// The two answer types a chain layer hands back: a plain bit on the
/// infallible path (`le`, `le_batch`), a `Result` on the fallible one
/// (`try_le`, `try_le_batch`). A layer written over `R: Reply` serves
/// both paths with one body.
pub(crate) trait Reply: Copy {
    /// `true` for the fallible answer type.
    const FALLIBLE: bool;

    /// A real or refusal bit as this answer type.
    fn bit(answer: bool) -> Self;

    /// A fault as this answer type. Only the fallible path can fault.
    fn fault(fault: QueryFault) -> Self;

    /// The answered bit, `None` for a fault.
    fn answered(self) -> Option<bool>;

    /// Asks `oracle` one query on this answer type's path.
    fn one<Q: Copy, O: Oracle<Q> + ?Sized>(oracle: &mut O, q: Q) -> Self;

    /// Asks `oracle` one round on this answer type's path.
    fn round<Q: Copy, O: Oracle<Q> + ?Sized>(oracle: &mut O, queries: &[Q], out: &mut Vec<Self>);

    /// Runs `fill`, which appends `len` plain bits, and appends them to
    /// `out` as this answer type.
    fn from_bits(out: &mut Vec<Self>, len: usize, fill: impl FnOnce(&mut Vec<bool>));
}

impl Reply for bool {
    const FALLIBLE: bool = false;

    #[inline]
    fn bit(answer: bool) -> Self {
        answer
    }

    fn fault(_: QueryFault) -> Self {
        unreachable!("an infallible ask cannot fault")
    }

    #[inline]
    fn answered(self) -> Option<bool> {
        Some(self)
    }

    #[inline]
    fn one<Q: Copy, O: Oracle<Q> + ?Sized>(oracle: &mut O, q: Q) -> Self {
        oracle.ask(q)
    }

    #[inline]
    fn round<Q: Copy, O: Oracle<Q> + ?Sized>(oracle: &mut O, queries: &[Q], out: &mut Vec<Self>) {
        oracle.ask_round(queries, out);
    }

    #[inline]
    fn from_bits(out: &mut Vec<Self>, _: usize, fill: impl FnOnce(&mut Vec<bool>)) {
        fill(out);
    }
}

impl Reply for Result<bool, QueryFault> {
    const FALLIBLE: bool = true;

    fn bit(answer: bool) -> Self {
        Ok(answer)
    }

    fn fault(fault: QueryFault) -> Self {
        Err(fault)
    }

    fn answered(self) -> Option<bool> {
        self.ok()
    }

    fn one<Q: Copy, O: Oracle<Q> + ?Sized>(oracle: &mut O, q: Q) -> Self {
        oracle.try_ask(q)
    }

    fn round<Q: Copy, O: Oracle<Q> + ?Sized>(oracle: &mut O, queries: &[Q], out: &mut Vec<Self>) {
        oracle.try_ask_round(queries, out);
    }

    fn from_bits(out: &mut Vec<Self>, len: usize, fill: impl FnOnce(&mut Vec<bool>)) {
        let mut bits = Vec::with_capacity(len);
        fill(&mut bits);
        out.reserve(bits.len());
        out.extend(bits.into_iter().map(Ok));
    }
}

/// A chain wrapper's query logic, written once over the query shape `Q`
/// and the answer type `R`. [`shape_traits!`] turns it into the
/// [`ComparisonOracle`] and [`QuadrupletOracle`] impls.
pub(crate) trait Layer<Q: Copy> {
    /// The wrapped oracle.
    type Below: Oracle<Q> + ?Sized;

    /// Shared view of the wrapped oracle.
    fn below(&self) -> &Self::Below;

    /// One query (`le` / `try_le`).
    fn one<R: Reply>(&mut self, q: Q) -> R;

    /// One round (`le_batch` / `try_le_batch`).
    fn round<R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>);

    /// See [`ComparisonOracle::doomed`]; forwarded by default.
    fn doomed(&self) -> bool {
        self.below().is_doomed()
    }

    /// See [`ComparisonOracle::fallible`]; forwarded by default.
    fn fallible(&self) -> bool {
        self.below().is_fallible()
    }
}

impl<Q: Copy, O: Oracle<Q> + ?Sized> Layer<Q> for &mut O {
    type Below = O;

    fn below(&self) -> &O {
        self
    }

    #[inline]
    fn one<R: Reply>(&mut self, q: Q) -> R {
        R::one(&mut **self, q)
    }

    #[inline]
    fn round<R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>) {
        R::round(&mut **self, queries, out);
    }
}

shape_traits!(impl[O: ?Sized] &mut O);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutable_reference_forwarding() {
        let mut o = TrueValueOracle::new(vec![1.0, 2.0]);
        fn takes_oracle<O: ComparisonOracle>(o: &mut O) -> bool {
            o.le(0, 1)
        }
        assert!(takes_oracle(&mut &mut o));
        assert_eq!(o.n(), 2);
    }
}
