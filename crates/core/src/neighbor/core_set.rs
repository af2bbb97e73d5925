//! Core-set construction: the `Theta(log(n/delta))` records closest to a
//! query, identified by Count scores (the standalone version of
//! Algorithm 9's Identify-Core).
//!
//! Theorem 3.10 assumes a set `S` of records within distance `alpha` of the
//! query is *given*. Inside the k-center pipeline that set comes from
//! Identify-Core over a cluster; for standalone farthest/nearest queries we
//! build it the same way: score each candidate by how many members of a
//! random probe set it is (noisily) closer to the query than, and keep the
//! top scorers. Per Lemma 11.6's argument, order inversions only happen
//! between records whose distance ranks are within `O(sqrt(n log n))` of
//! each other, so the top-`size` set lands in the true near-neighbourhood
//! w.h.p.

use crate::comparator::Committees;
use nco_oracle::QuadrupletOracle;
use rand::seq::SliceRandom;
use rand::Rng;

/// Builds a core of `size` records (noisily) closest to `q`.
///
/// Scores every candidate against a probe set of `probes` random
/// candidates (at most `candidates.len() * probes` oracle queries, asked
/// as batched rounds of at most 4096 queries, candidate by candidate) and
/// returns the `size` best, best first. The query itself is excluded.
///
/// # Panics
/// Panics if `size == 0` or there are no candidates besides `q`.
pub fn build_core<O, R>(
    oracle: &mut O,
    q: usize,
    candidates: &[usize],
    size: usize,
    probes: usize,
    rng: &mut R,
) -> Vec<usize>
where
    O: QuadrupletOracle,
    R: Rng + ?Sized,
{
    assert!(size > 0, "core size must be positive");
    let pool: Vec<usize> = candidates.iter().copied().filter(|&v| v != q).collect();
    assert!(!pool.is_empty(), "no candidates besides the query");

    // Shared probe set: every candidate is scored against the same probes,
    // so scores are comparable.
    let probes = probes.clamp(1, pool.len());
    let mut probe_set: Vec<usize> = pool.clone();
    probe_set.shuffle(rng);
    probe_set.truncate(probes);

    // Every candidate's probe scan is independent of the others', so the
    // whole scoring wave goes out as rounds of whole scans, in the order
    // of the candidate-by-candidate loop.
    let mut scored: Vec<(usize, u32)> = Vec::with_capacity(pool.len());
    Committees::default().ask(
        pool.iter().copied(),
        |x, round| {
            round.extend(probe_set.iter().filter(|&&y| y != x).map(|&y| [q, x, q, y]));
        },
        |round, answers| oracle.le_batch(round, answers),
        |x, answers| scored.push((x, answers.iter().filter(|&&yes| yes).count() as u32)),
    );

    // Highest score first; stable on ties via the record index.
    scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(size.min(scored.len()));
    scored.into_iter().map(|(x, _)| x).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_metric::{EuclideanMetric, Metric};
    use nco_oracle::probabilistic::ProbQuadOracle;
    use nco_oracle::TrueQuadOracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line(n: usize) -> EuclideanMetric {
        EuclideanMetric::from_points(&(0..n).map(|i| vec![i as f64]).collect::<Vec<_>>())
    }

    #[test]
    fn perfect_oracle_returns_true_nearest_records() {
        let n = 60;
        let mut o = TrueQuadOracle::new(line(n));
        let cands: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let core = build_core(&mut o, 0, &cands, 6, n - 1, &mut rng);
        assert_eq!(core, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn core_excludes_the_query_and_respects_size() {
        let n = 30;
        let mut o = TrueQuadOracle::new(line(n));
        let cands: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let core = build_core(&mut o, 7, &cands, 5, 10, &mut rng);
        assert_eq!(core.len(), 5);
        assert!(!core.contains(&7));
    }

    #[test]
    fn noisy_core_stays_in_the_near_neighbourhood() {
        let n = 200;
        let m = line(n);
        let mut hits = 0;
        let trials = 20;
        for seed in 0..trials {
            let mut o = ProbQuadOracle::new(m.clone(), 0.2, seed);
            let cands: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let core = build_core(&mut o, 0, &cands, 8, 60, &mut rng);
            // All core members within the nearest quarter of records.
            if core.iter().all(|&x| m.dist(0, x) <= (n / 4) as f64) {
                hits += 1;
            }
        }
        assert!(
            hits >= trials * 8 / 10,
            "core drifted in {}/{trials} runs",
            trials - hits
        );
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn rejects_query_only_candidate_set() {
        let mut o = TrueQuadOracle::new(line(3));
        let mut rng = StdRng::seed_from_u64(0);
        let _ = build_core(&mut o, 1, &[1], 2, 2, &mut rng);
    }
}
