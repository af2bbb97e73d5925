//! Algorithm 5 — PairwiseComp: a robust pairwise comparison from a core.
//!
//! Given a core `S` of records all within distance `alpha` of the query `u`,
//! the single persistent-noisy query "is `v_i` closer to `u` than `v_j`?"
//! is replaced by `|S|` *distinct* queries `O(x, v_i, x, v_j)` for `x in S`
//! — distinct queries have independent error coins, so concentration
//! applies even though each individual answer is persistent. By the
//! triangle inequality, every `x in S` agrees with `u` about any pair whose
//! distances differ by more than `2*alpha` (Fig. 3 of the paper), so
//! `FCount >= 0.3|S|` w.p. `1 - delta` whenever
//! `d(u, v_i) < d(u, v_j) - 2*alpha` (Lemma 3.9).
//!
//! The threshold `0.3 <= (1-p)/2` assumes `p <= 0.4` as in the paper; the
//! guarantee is one-sided (see the lemma), which is all the Count-based
//! consumers need.

use crate::comparator::{Committees, Comparator};
use nco_oracle::QuadrupletOracle;

/// The paper's FCount acceptance threshold (`0.3 <= (1-p)/2` for
/// `p <= 0.4`). Satisfies Lemma 3.9's one-sided guarantee, but note that in
/// a *symmetric* decision the "farther" side has mean FCount `p * |S|` —
/// exactly at this threshold when `p = 0.3` — so comparisons degrade into
/// coin flips as `p` approaches 0.3.
pub const PAIRWISE_THRESHOLD: f64 = 0.3;

/// Majority threshold: separates the two decision means `(1-p)|S|` and
/// `p|S|` symmetrically for **every** `p < 1/2`, matching the robustness
/// the paper's own experiments exhibit at `p = 0.3` (Fig. 8b). This is the
/// default for the symmetric comparators; the ablation bench sweeps the
/// trade-off. See DESIGN.md §6.
pub const MAJORITY_THRESHOLD: f64 = 0.5;

/// Algorithm 5: returns `true` ("Yes") when the vote of the core deems
/// `v_i` closer to the core's anchor than `v_j`.
///
/// Issues exactly `core.len()` oracle queries, as **one** batched round
/// ([`QuadrupletOracle::le_batch`]) so the oracle can share distance
/// evaluations across the committee's votes.
///
/// # Panics
/// Panics if `core` is empty.
pub fn pairwise_closer<O: QuadrupletOracle>(
    oracle: &mut O,
    vi: usize,
    vj: usize,
    core: &[usize],
    threshold: f64,
) -> bool {
    let mut cmp = PairwiseCmp::new(oracle, core);
    cmp.threshold = threshold;
    cmp.le(vi, vj)
}

/// Comparator lifting [`pairwise_closer`]: items are record indices, keys
/// are their distances from the core's anchor. Plugs Algorithm 5 into the
/// Section 3 engines (Algorithms 13–16).
#[derive(Debug)]
pub struct PairwiseCmp<'a, O> {
    oracle: &'a mut O,
    core: &'a [usize],
    threshold: f64,
    /// Reused committee-round buffers.
    votes: Committees<(usize, usize), [usize; 4]>,
}

impl<'a, O: QuadrupletOracle> PairwiseCmp<'a, O> {
    /// Builds the comparator with the majority threshold (see
    /// [`MAJORITY_THRESHOLD`] for why the default deviates from the
    /// paper's 0.3).
    ///
    /// # Panics
    /// Panics if `core` is empty.
    pub fn new(oracle: &'a mut O, core: &'a [usize]) -> Self {
        assert!(!core.is_empty(), "PairwiseComp needs a non-empty core");
        Self {
            oracle,
            core,
            threshold: MAJORITY_THRESHOLD,
            votes: Committees::default(),
        }
    }

    /// Builds the comparator with the paper's literal 0.3 threshold
    /// (Algorithm 5 as printed).
    ///
    /// # Panics
    /// Panics if `core` is empty.
    pub fn paper(oracle: &'a mut O, core: &'a [usize]) -> Self {
        Self {
            threshold: PAIRWISE_THRESHOLD,
            ..Self::new(oracle, core)
        }
    }

    /// Overrides the acceptance threshold (the "different constants for
    /// p close to 1/2" remark of Section 3.3).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0 && threshold < 1.0);
        self.threshold = threshold;
        self
    }

    /// Votes on every pair of `round` (each pair swapped when `REV`),
    /// handing each verdict to `emit` in round order. The pairs' committee
    /// votes are independent, so they go out together as rounds of whole
    /// committees.
    fn vote<const REV: bool>(&mut self, round: &[(usize, usize)], mut emit: impl FnMut(bool)) {
        let Self {
            oracle,
            core,
            threshold,
            votes,
        } = self;
        votes.ask(
            round.iter().copied(),
            |(a, b), queries| {
                let (vi, vj) = if REV { (b, a) } else { (a, b) };
                queries.extend(core.iter().map(|&x| [x, vi, x, vj]));
            },
            |queries, answers| oracle.le_batch(queries, answers),
            |_, answers| {
                let fcount = answers.iter().filter(|&&yes| yes).count();
                emit(fcount as f64 >= *threshold * core.len() as f64);
            },
        );
    }
}

impl<O: QuadrupletOracle> Comparator<usize> for PairwiseCmp<'_, O> {
    fn le(&mut self, a: usize, b: usize) -> bool {
        let mut verdict = false;
        self.vote::<false>(&[(a, b)], |yes| verdict = yes);
        verdict
    }

    fn le_round(&mut self, round: &[(usize, usize)], out: &mut Vec<bool>) {
        out.reserve(round.len());
        self.vote::<false>(round, |yes| out.push(yes));
    }

    fn le_round_rev(&mut self, round: &[(usize, usize)], out: &mut Vec<bool>) {
        out.reserve(round.len());
        self.vote::<true>(round, |yes| out.push(yes));
    }

    fn doomed(&self) -> bool {
        self.oracle.doomed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::EuclideanMetric;
    use nco_oracle::counting::Counting;
    use nco_oracle::probabilistic::ProbQuadOracle;
    use nco_oracle::TrueQuadOracle;

    /// A cluster of core points near the origin (the anchor) plus probe
    /// points at increasing distances.
    fn setting() -> (EuclideanMetric, Vec<usize>) {
        let mut pts: Vec<Vec<f64>> = Vec::new();
        // anchor u = record 0
        pts.push(vec![0.0, 0.0]);
        // 24 core records within alpha = 1 of u
        for i in 0..24 {
            let a = i as f64 * 0.26;
            pts.push(vec![0.8 * a.cos(), 0.8 * a.sin()]);
        }
        // probes at distances 5, 10, 20, 40
        for d in [5.0, 10.0, 20.0, 40.0] {
            pts.push(vec![d, 0.0]);
        }
        let core: Vec<usize> = (1..25).collect();
        (EuclideanMetric::from_points(&pts), core)
    }

    #[test]
    fn perfect_oracle_separated_pairs_are_exact() {
        let (m, core) = setting();
        let mut o = TrueQuadOracle::new(m);
        // probes: 25 (d=5), 26 (d=10), 27 (d=20), 28 (d=40); gaps > 2*alpha.
        assert!(pairwise_closer(&mut o, 25, 26, &core, PAIRWISE_THRESHOLD));
        assert!(!pairwise_closer(&mut o, 28, 25, &core, PAIRWISE_THRESHOLD));
    }

    /// Lemma 3.9: under persistent noise with p <= 0.25, a pair separated
    /// by more than 2*alpha is answered correctly w.h.p.
    #[test]
    fn lemma_3_9_separated_pairs_survive_noise() {
        let (m, core) = setting();
        let mut correct = 0;
        let trials = 50;
        for seed in 0..trials {
            let mut o = ProbQuadOracle::new(m.clone(), 0.25, seed);
            if pairwise_closer(&mut o, 25, 28, &core, PAIRWISE_THRESHOLD) {
                correct += 1;
            }
        }
        assert!(
            correct >= trials * 9 / 10,
            "only {correct}/{trials} correct"
        );
    }

    #[test]
    fn one_query_per_core_member() {
        let (m, core) = setting();
        let mut o = Counting::new(TrueQuadOracle::new(m));
        let _ = pairwise_closer(&mut o, 25, 26, &core, PAIRWISE_THRESHOLD);
        assert_eq!(o.queries(), core.len() as u64);
    }

    #[test]
    fn comparator_orders_probes_by_distance() {
        let (m, core) = setting();
        let mut o = TrueQuadOracle::new(m);
        let mut cmp = PairwiseCmp::new(&mut o, &core);
        assert!(cmp.le(25, 27));
        assert!(!cmp.le(28, 25));
    }

    #[test]
    fn threshold_override() {
        let (m, core) = setting();
        let mut o = TrueQuadOracle::new(m);
        let mut cmp = PairwiseCmp::new(&mut o, &core).with_threshold(0.45);
        assert!(cmp.le(25, 28));
    }

    #[test]
    #[should_panic(expected = "non-empty core")]
    fn rejects_empty_core() {
        let (m, _) = setting();
        let mut o = TrueQuadOracle::new(m);
        let _ = pairwise_closer(&mut o, 25, 26, &[], PAIRWISE_THRESHOLD);
    }
}
