//! # nco-oracle — noisy comparison and quadruplet oracles
//!
//! This crate implements the oracle substrate of *How to Design Robust
//! Algorithms using Noisy Comparison Oracle* (VLDB 2021): the only interface
//! through which the paper's algorithms may touch the ground truth.
//!
//! Two query interfaces (Definitions 2.1 and 2.3 of the paper):
//!
//! * [`ComparisonOracle`] — `le(i, j)` answers *"is value(i) <= value(j)?"*
//!   over records with hidden scalar values;
//! * [`QuadrupletOracle`] — `le(a, b, c, d)` answers *"is d(a,b) <= d(c,d)?"*
//!   over records in a hidden metric space.
//!
//! Three noise regimes (Section 2.2), each available for both interfaces:
//!
//! * **exact** ([`value::TrueValueOracle`], [`quadruplet::TrueQuadOracle`]) —
//!   always correct; the `mu = 0` / `p = 0` degenerate case;
//! * **adversarial** ([`adversarial`]) — answers may be arbitrarily wrong
//!   whenever the two compared quantities are within a multiplicative
//!   `(1 + mu)` band (an additive-band variant lives in [`additive`]); the
//!   in-band behaviour is delegated to a pluggable, possibly stateful
//!   [`adversarial::Adversary`] strategy;
//! * **probabilistic persistent** ([`probabilistic`]) — each distinct query
//!   is wrong with probability `p < 1/2`, and *re-asking it returns the same
//!   answer*, so repetition cannot boost confidence.
//!
//! [`crowd`] simulates the paper's AMT user study (Section 6.2): worker
//! accuracy is a function of the ratio between the compared distances, and a
//! majority over three persistent workers answers each query. It also stands
//! in for the actively-trained classifier the paper uses at scale.
//! [`cluster_query`] provides the noisy *optimal cluster* ("same cluster?")
//! pairwise oracle used by the `Oq` baseline, [`counting`] wraps any
//! oracle to meter query complexity, and [`budget`] adds a hard query
//! budget on top of the meter (the enforcement layer behind the facade's
//! `Session` front door).

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
        out.reserve(queries.len());
        for &(i, j) in queries {
            let ans = self.le(i, j);
            out.push(ans);
        }
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
        let mut answers = Vec::with_capacity(queries.len());
        self.le_batch(queries, &mut answers);
        out.reserve(answers.len());
        out.extend(answers.into_iter().map(Ok));
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
    /// the scalar loop, which the default is. Distance-backed oracles
    /// override this to evaluate each distinct record pair's distance once
    /// per round (distances are pure functions of the pair, so deduplicating
    /// them cannot change a truth bit), while noise coins are drawn in
    /// serial query order so transcripts are unchanged.
    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        out.reserve(queries.len());
        for &[a, b, c, d] in queries {
            let ans = self.le(a, b, c, d);
            out.push(ans);
        }
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
        let mut answers = Vec::with_capacity(queries.len());
        self.le_batch(queries, &mut answers);
        out.reserve(answers.len());
        out.extend(answers.into_iter().map(Ok));
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

impl<O: ComparisonOracle + ?Sized> ComparisonOracle for &mut O {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn le(&mut self, i: usize, j: usize) -> bool {
        (**self).le(i, j)
    }
    fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
        (**self).le_batch(queries, out);
    }
    fn try_le(&mut self, i: usize, j: usize) -> Result<bool, QueryFault> {
        (**self).try_le(i, j)
    }
    fn try_le_batch(
        &mut self,
        queries: &[(usize, usize)],
        out: &mut Vec<Result<bool, QueryFault>>,
    ) {
        (**self).try_le_batch(queries, out);
    }
    fn doomed(&self) -> bool {
        (**self).doomed()
    }
    fn fallible(&self) -> bool {
        (**self).fallible()
    }
}

impl<O: QuadrupletOracle + ?Sized> QuadrupletOracle for &mut O {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        (**self).le(a, b, c, d)
    }
    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        (**self).le_batch(queries, out);
    }
    fn try_le(&mut self, a: usize, b: usize, c: usize, d: usize) -> Result<bool, QueryFault> {
        (**self).try_le(a, b, c, d)
    }
    fn try_le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<Result<bool, QueryFault>>) {
        (**self).try_le_batch(queries, out);
    }
    fn doomed(&self) -> bool {
        (**self).doomed()
    }
    fn fallible(&self) -> bool {
        (**self).fallible()
    }
}

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
