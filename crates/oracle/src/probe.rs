//! Online flip-rate estimation via seeded, billed transitivity probes.
//!
//! The paper's guarantees (Theorems 3.6/3.7/4.2/5.2) assume the flip rate
//! `p` is known; production oracles rarely honour the configured value.
//! [`ProbeOracle`] interleaves *probe triangles* into the live query
//! stream and maintains a running estimate of the rate actually observed,
//! with a confidence interval, so a session can detect — and react to —
//! noise misspecification while it runs.
//!
//! # Why triangles, not mirror pairs
//!
//! The shipped persistent models derive each answer from a canonical-coin
//! hash of the *unordered* query ([`nco_metric::hashing`]): re-asking a
//! query returns the identical bit and asking its mirror returns the
//! complement, **by construction, at any flip rate**. Mirror/duplicate
//! probes therefore measure exactly `0.0` forever on every shipped
//! backend — the placeholder bug this module replaces.
//!
//! A *transitivity triangle* does carry signal. Draw three distinct
//! records `i, j, k` (or, for the quadruplet interface, three distinct
//! record pairs) and ask the three distinct canonical queries
//!
//! ```text
//! x = le(i, j)    y = le(j, k)    z = le(i, k)
//! ```
//!
//! Whatever the hidden total (pre)order says, the true bits are
//! transitively consistent; the observed pattern is *cyclic* —
//! `(1, 1, 0)` or `(0, 0, 1)` — only through flips. With three
//! independent per-query coins of rate `p`, every consistent ground
//! truth yields the same cyclic probability
//!
//! ```text
//! r = p(1 - p)^2 + p^2 (1 - p) = p(1 - p)
//! ```
//!
//! which inverts monotonically on `p ∈ [0, 1/2]`:
//!
//! ```text
//! p = (1 - sqrt(1 - 4 r)) / 2
//! ```
//!
//! The estimator counts cyclic triangles, puts a Wilson score interval
//! on `r`, and maps the point and both endpoints through the inversion.
//! Ties in the hidden values cannot bias it: a total preorder is still
//! transitive, so tied truths never look cyclic.
//!
//! # Determinism and billing
//!
//! Probe scheduling is a pure function of `(seed, real-query counter)`
//! exactly like [`crate::FaultPlan`]: the same session replayed issues
//! the same probes at the same offsets. Probe queries go through the
//! wrapped oracle like any other ask, so they are **billed** by the
//! meters below this layer and masked by any retry layer below it.
//! Injection pauses while the inner stack reports
//! [`crate::ComparisonOracle::doomed`] — a killed run stops spending on probes,
//! and the estimate is never polluted by refusal constants.

use crate::fault::{plan_hash, plan_u01};
use crate::persistent::PersistentNoise;
use crate::{Layer, Oracle, Reply};

/// Width multiplier for the estimate's confidence interval: the normal
/// z-score for two-sided 95% coverage, used by the Wilson interval on
/// the cyclic-triangle rate.
pub const PROBE_CI_Z: f64 = 1.96;

/// When and where [`ProbeOracle`] injects probe triangles — a pure
/// function of `(seed, counter)`, like [`crate::FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbePlan {
    seed: u64,
    rate: f64,
}

impl ProbePlan {
    /// The empty plan: no probes, ever. [`ProbeOracle`] under it is a
    /// transparent forwarder.
    pub fn none() -> Self {
        Self { seed: 0, rate: 0.0 }
    }

    /// A plan that injects one probe triangle (three billed queries)
    /// after each real query independently with probability `rate`.
    ///
    /// # Panics
    /// If `rate` is not within `[0, 1]`.
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "probe rate {rate}");
        Self { seed, rate }
    }

    /// `true` if the plan ever fires. [`ProbeOracle`] under an inactive
    /// plan forwards without touching its counter.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// The configured injection rate (probe triangles per real query).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether a probe triangle fires after real query `counter`.
    #[inline]
    fn fires(&self, counter: u64) -> bool {
        self.rate > 0.0 && plan_u01(self.seed, counter, 0x9B0B) < self.rate
    }

    /// Deterministic index draw in `[0, n)` for triangle `counter`,
    /// `nonce` disambiguating the (re)draws within one triangle.
    #[inline]
    fn draw(&self, counter: u64, nonce: u64, n: usize) -> usize {
        (plan_hash(self.seed, counter, 0x7B1A ^ nonce) % n as u64) as usize
    }
}

/// What a [`ProbeOracle`] spent and saw so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ProbeStats {
    /// Probe queries issued through the inner oracle (three per
    /// completed triangle). Billed like real queries.
    pub probes: u64,
    /// Probe triangles completed.
    pub triangles: u64,
    /// Triangles whose observed pattern was cyclic (intransitive).
    pub cyclic: u64,
}

/// A flip-rate estimate derived from probe triangles.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct NoiseEstimate {
    /// Point estimate of the per-query flip rate, in `[0, 1/2]`.
    pub p_hat: f64,
    /// Lower end of the ~95% confidence interval on the flip rate.
    pub p_lo: f64,
    /// Upper end of the ~95% confidence interval on the flip rate.
    pub p_hi: f64,
    /// Probe triangles the estimate is based on.
    pub triangles: u64,
    /// Probe queries spent to gather them.
    pub probes: u64,
}

/// Wilson score interval for a binomial proportion, `z = PROBE_CI_Z`.
fn wilson(successes: u64, trials: u64) -> (f64, f64) {
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = PROBE_CI_Z * PROBE_CI_Z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = PROBE_CI_Z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

/// Inverts the cyclic-triangle rate `r = p(1 - p)` to the flip rate `p`,
/// monotone on `r ∈ [0, 1/4]`; rates at or beyond `1/4` saturate to the
/// maximal `p = 1/2`.
fn invert_cyclic_rate(r: f64) -> f64 {
    if r >= 0.25 {
        0.5
    } else {
        (1.0 - (1.0 - 4.0 * r.max(0.0)).sqrt()) / 2.0
    }
}

impl ProbeStats {
    /// The flip-rate estimate over the triangles seen so far, or `None`
    /// before the first completed triangle.
    pub fn estimate(&self) -> Option<NoiseEstimate> {
        if self.triangles == 0 {
            return None;
        }
        let r_hat = self.cyclic as f64 / self.triangles as f64;
        let (r_lo, r_hi) = wilson(self.cyclic, self.triangles);
        Some(NoiseEstimate {
            p_hat: invert_cyclic_rate(r_hat),
            p_lo: invert_cyclic_rate(r_lo),
            p_hi: invert_cyclic_rate(r_hi),
            triangles: self.triangles,
            probes: self.probes,
        })
    }
}

/// Injects seeded, billed probe triangles into a live query stream and
/// estimates the flip rate actually observed. See the module docs for
/// the estimator; place this layer **outermost** in an oracle chain so
/// probes are metered, budgeted and retry-masked like real queries.
///
/// Requires at least three records (comparison interface) or at least
/// three distinct record pairs (quadruplet interface; `n >= 3` gives
/// plenty); under smaller universes the oracle forwards transparently
/// and never completes a triangle.
///
/// Probes are extra queries against **persistent** noise models: they
/// cannot change the answer any real query receives, so a probed run
/// returns bit-identical answers to an unprobed one — only the meters
/// differ. Under a memoising layer, a probe that collides with an
/// earlier query is deduplicated like any other repeat.
#[derive(Debug)]
pub struct ProbeOracle<O> {
    inner: O,
    plan: ProbePlan,
    /// Real queries forwarded so far — the probe-schedule counter.
    asked: u64,
    stats: ProbeStats,
}

impl<O> ProbeOracle<O> {
    /// Wraps `inner`, probing per `plan`.
    pub fn new(inner: O, plan: ProbePlan) -> Self {
        Self {
            inner,
            plan,
            asked: 0,
            stats: ProbeStats::default(),
        }
    }

    /// Probe spend and observations so far.
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// The flip-rate estimate so far; `None` before the first triangle.
    pub fn estimate(&self) -> Option<NoiseEstimate> {
        self.stats.estimate()
    }

    /// Shared view of the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the probe layer.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

/// The shape-specific half of [`ProbeOracle`]: which three queries form
/// probe triangle `counter`.
pub(crate) trait ProbeShape: Copy {
    /// The triangle's queries `x`, `y`, `z`, over `n >= 3` records.
    fn triangle(plan: &ProbePlan, counter: u64, n: usize) -> [Self; 3];
}

/// Three distinct records `i, j, k`: `x = (i, j)`, `y = (j, k)`,
/// `z = (i, k)`.
impl ProbeShape for (usize, usize) {
    fn triangle(plan: &ProbePlan, c: u64, n: usize) -> [Self; 3] {
        let i = plan.draw(c, 0, n);
        let mut j = plan.draw(c, 1, n);
        let mut nonce = 2u64;
        while j == i {
            j = plan.draw(c, nonce, n);
            nonce += 1;
        }
        let mut k = plan.draw(c, nonce, n);
        while k == i || k == j {
            nonce += 1;
            k = plan.draw(c, nonce, n);
        }
        [(i, j), (j, k), (i, k)]
    }
}

/// Three distinct unordered record pairs, compared pairwise by distance.
impl ProbeShape for [usize; 4] {
    fn triangle(plan: &ProbePlan, c: u64, n: usize) -> [Self; 3] {
        // Three distinct unordered pairs over a deterministic record
        // draw; n >= 3 always yields them.
        let mut pairs: [(usize, usize); 3] = [(0, 0); 3];
        let mut found = 0;
        let mut nonce = 0u64;
        while found < 3 {
            let a = plan.draw(c, nonce, n);
            let b = plan.draw(c, nonce + 1, n);
            nonce += 2;
            if a == b {
                continue;
            }
            let pair = (a.min(b), a.max(b));
            if pairs[..found].contains(&pair) {
                continue;
            }
            pairs[found] = pair;
            found += 1;
        }
        let [p1, p2, p3] = pairs;
        [
            [p1.0, p1.1, p2.0, p2.1],
            [p2.0, p2.1, p3.0, p3.1],
            [p1.0, p1.1, p3.0, p3.1],
        ]
    }
}

impl<O> ProbeOracle<O> {
    /// Runs the probe triangles due after real queries
    /// `[self.asked, self.asked + upcoming)`, then advances the counter.
    fn probe<Q: ProbeShape>(&mut self, upcoming: usize)
    where
        O: Oracle<Q>,
    {
        let n = self.inner.records();
        if self.plan.is_active() && n >= 3 {
            for c in self.asked..self.asked + upcoming as u64 {
                if !self.plan.fires(c) || self.inner.is_doomed() {
                    continue;
                }
                let [qx, qy, qz] = Q::triangle(&self.plan, c, n);
                let x = self.inner.ask(qx);
                let y = self.inner.ask(qy);
                let z = self.inner.ask(qz);
                self.stats.probes += 3;
                self.stats.triangles += 1;
                if (x && y && !z) || (!x && !y && z) {
                    self.stats.cyclic += 1;
                }
            }
        }
        self.asked += upcoming as u64;
    }
}

impl<Q: ProbeShape, O: Oracle<Q>> Layer<Q> for ProbeOracle<O> {
    type Below = O;

    fn below(&self) -> &O {
        &self.inner
    }

    fn one<R: Reply>(&mut self, q: Q) -> R {
        self.probe(1);
        R::one(&mut self.inner, q)
    }

    fn round<R: Reply>(&mut self, queries: &[Q], out: &mut Vec<R>) {
        // Probes due within the batch's counter range are issued as
        // scalar asks up front, then the round is forwarded unchanged:
        // against persistent inner models the answers are bit-identical
        // to the scalar loop, and round meters below see one round.
        self.probe(queries.len());
        R::round(&mut self.inner, queries, out);
    }
}

shape_traits!(impl[O] ProbeOracle<O>);

// Probing forwards real queries unchanged, so persistence of the inner
// model is preserved: identical real queries keep identical answers.
impl<O: PersistentNoise> PersistentNoise for ProbeOracle<O> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::Counting;
    use crate::probabilistic::{ProbQuadOracle, ProbValueOracle};
    use crate::value::TrueValueOracle;
    use crate::{ComparisonOracle, QuadrupletOracle};
    use nco_metric::EuclideanMetric;

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn inactive_plan_is_transparent() {
        let mut probed = ProbeOracle::new(
            Counting::new(TrueValueOracle::new(values(8))),
            ProbePlan::none(),
        );
        for i in 0..7 {
            assert!(probed.le(i, i + 1));
        }
        assert_eq!(probed.stats().probes, 0);
        assert_eq!(probed.inner().queries(), 7);
        assert!(probed.estimate().is_none());
    }

    #[test]
    fn probes_are_billed_and_deterministic() {
        let run = || {
            let mut probed = ProbeOracle::new(
                Counting::new(ProbValueOracle::new(values(32), 0.2, 11)),
                ProbePlan::new(5, 0.5),
            );
            let mut answers = Vec::new();
            for i in 0..31 {
                answers.push(probed.le(i, i + 1));
            }
            (answers, probed.stats(), probed.inner().queries())
        };
        let (a1, s1, q1) = run();
        let (a2, s2, q2) = run();
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert_eq!(q1, q2);
        assert!(s1.triangles > 0, "rate 0.5 over 31 queries must fire");
        // Every probe ask hits the meter below the probe layer.
        assert_eq!(q1, 31 + s1.probes);
        assert_eq!(s1.probes, 3 * s1.triangles);
    }

    #[test]
    fn probed_answers_match_unprobed_answers() {
        // Persistent inner model: probes cannot perturb real answers.
        let mut plain = ProbValueOracle::new(values(16), 0.3, 7);
        let mut probed = ProbeOracle::new(
            ProbValueOracle::new(values(16), 0.3, 7),
            ProbePlan::new(9, 1.0),
        );
        for i in 0..16 {
            for j in 0..16 {
                if i != j {
                    assert_eq!(plain.le(i, j), probed.le(i, j));
                }
            }
        }
        assert!(probed.stats().triangles > 0);
    }

    #[test]
    fn batch_matches_scalar_loop() {
        let queries: Vec<(usize, usize)> = (0..64).map(|i| (i % 16, (i * 7 + 1) % 16)).collect();
        let mut scalar = ProbeOracle::new(
            Counting::new(ProbValueOracle::new(values(16), 0.25, 3)),
            ProbePlan::new(4, 0.7),
        );
        let mut scalar_out = Vec::new();
        for &(i, j) in &queries {
            scalar_out.push(scalar.le(i, j));
        }
        let mut batched = ProbeOracle::new(
            Counting::new(ProbValueOracle::new(values(16), 0.25, 3)),
            ProbePlan::new(4, 0.7),
        );
        let mut batched_out = Vec::new();
        batched.le_batch(&queries, &mut batched_out);
        assert_eq!(scalar_out, batched_out);
        assert_eq!(scalar.stats(), batched.stats());
        assert_eq!(scalar.inner().queries(), batched.inner().queries());
    }

    #[test]
    fn exact_oracle_estimates_zero() {
        let mut probed = ProbeOracle::new(TrueValueOracle::new(values(32)), ProbePlan::new(1, 1.0));
        for i in 0..31 {
            probed.le(i, i + 1);
        }
        let est = probed.estimate().expect("triangles fired");
        assert_eq!(est.p_hat, 0.0);
        assert!(est.p_lo == 0.0 && est.p_hi < 0.5);
    }

    #[test]
    fn estimate_converges_to_configured_p() {
        for (p, seed) in [(0.1, 1u64), (0.2, 2), (0.3, 3)] {
            let mut probed = ProbeOracle::new(
                ProbValueOracle::new(values(256), p, seed),
                ProbePlan::new(seed ^ 0xAB, 1.0),
            );
            // Drive enough real traffic for ~4000 triangles.
            for t in 0..4000usize {
                probed.le(t % 256, (t * 31 + 1) % 256);
            }
            let est = probed.estimate().unwrap();
            assert!(
                est.p_lo <= p && p <= est.p_hi,
                "p = {p}: CI [{}, {}] missed (p_hat {})",
                est.p_lo,
                est.p_hi,
                est.p_hat
            );
            assert!(
                (est.p_hat - p).abs() < 0.05,
                "p = {p}, p_hat = {}",
                est.p_hat
            );
        }
    }

    #[test]
    fn quadruplet_triangles_converge_too() {
        let points: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![(i * i % 97) as f64, i as f64])
            .collect();
        let metric = EuclideanMetric::from_points(&points);
        let p = 0.25;
        let mut probed =
            ProbeOracle::new(ProbQuadOracle::new(metric, p, 17), ProbePlan::new(23, 1.0));
        for t in 0..4000usize {
            let (a, b, c, d) = (t % 64, (t + 1) % 64, (t * 5 + 2) % 64, (t * 11 + 3) % 64);
            if a != b && c != d {
                QuadrupletOracle::le(&mut probed, a, b, c, d);
            }
        }
        let est = probed.estimate().unwrap();
        assert!(
            est.p_lo <= p && p <= est.p_hi,
            "CI [{}, {}] missed p = {p}",
            est.p_lo,
            est.p_hi
        );
    }

    #[test]
    fn doomed_inner_pauses_probing() {
        struct Doomed(TrueValueOracle);
        impl ComparisonOracle for Doomed {
            fn n(&self) -> usize {
                self.0.n()
            }
            fn le(&mut self, i: usize, j: usize) -> bool {
                self.0.le(i, j)
            }
            fn doomed(&self) -> bool {
                true
            }
        }
        let mut probed = ProbeOracle::new(
            Doomed(TrueValueOracle::new(values(8))),
            ProbePlan::new(2, 1.0),
        );
        for i in 0..7 {
            probed.le(i, i + 1);
        }
        assert_eq!(probed.stats().probes, 0, "doomed stacks stop probing");
    }

    #[test]
    fn small_universe_disables_probing() {
        let mut probed = ProbeOracle::new(TrueValueOracle::new(values(2)), ProbePlan::new(3, 1.0));
        assert!(probed.le(0, 1));
        assert_eq!(probed.stats().triangles, 0);
    }

    #[test]
    fn wilson_interval_is_sane() {
        let (lo, hi) = wilson(21, 100);
        assert!(lo < 0.21 && 0.21 < hi);
        assert!(hi - lo < 0.2);
        let (lo0, _) = wilson(0, 50);
        assert_eq!(lo0, 0.0);
    }

    #[test]
    fn cyclic_inversion_round_trips() {
        for p in [0.0, 0.05, 0.1, 0.25, 0.4, 0.49] {
            let r = p * (1.0 - p);
            assert!((invert_cyclic_rate(r) - p).abs() < 1e-12);
        }
        assert_eq!(invert_cyclic_rate(0.3), 0.5);
    }
}
