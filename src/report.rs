//! Run accounting: what a `Session::run` cost.
//!
//! The paper's central cost measure is *query complexity* — each oracle
//! call simulates a crowd worker or classifier invocation — so every
//! successful run returns its exact tally alongside the answer, plus the
//! batching/caching/wall-clock context needed to reason about serving
//! cost.

use std::time::Duration;

use crate::task::Answer;
use nco_core::hier::MergePlaneStats;

/// Cost accounting for one [`crate::Session::run`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RunReport {
    /// Oracle queries issued — exactly the tally a
    /// [`nco_oracle::Counting`] wrapper around the same hand-wired call
    /// would report.
    pub queries: u64,
    /// Batched oracle rounds issued by the engine — one per `le_batch`
    /// call; the remaining queries went through the scalar path. The
    /// count is exact under every configuration: the answer memo
    /// forwards each outer round as one (deduplicated) inner round, so
    /// memoised runs report the same rounds as their plain
    /// counterparts.
    pub rounds: u64,
    /// Answer-cache hits when memoisation was enabled (`None` otherwise):
    /// repeated queries served from the exact memo without touching the
    /// oracle. These do **not** count into `queries`.
    pub memo_hits: Option<u64>,
    /// Distinct distances materialised in the engine's shared `DistCache`
    /// by the end of this run (`None` when distance caching is off).
    /// Cumulative across runs sharing the engine, by design: the cache is
    /// the engine-level resource concurrent sessions amortise into. For
    /// this run's own contribution see [`Self::cache_added`]. Exact, and
    /// free to read: the cache keeps a running fill count, so reporting
    /// it costs the run one atomic load, not a scan of the table.
    pub cache_entries: Option<u64>,
    /// Distances **this run** added to the engine's shared `DistCache`
    /// (`None` when distance caching is off): the end-of-run
    /// [`Self::cache_entries`] minus the entries already materialised
    /// when the run started (two O(1) reads of the fill count).
    /// Per-request attributable, unlike the engine-level total.
    pub cache_added: Option<u64>,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// The configured query budget, if any.
    pub budget: Option<u64>,
    /// Incremental merge-plane counters of the hierarchy engine (`None`
    /// for every other task): merges, full closest-pair sweeps vs dirty
    /// re-contests, pointer repairs, bucket replays and pool duels — the
    /// cost anatomy behind [`Self::queries`] for `Task::Hierarchy` runs.
    pub merge_plane: Option<MergePlaneStats>,
    /// Online point estimate of the oracle's flip probability from the
    /// session's probe plane (`None` unless probing was enabled with
    /// [`crate::SessionBuilder::probe_noise`] **and** at least one probe
    /// triangle completed). The estimator injects seeded transitivity
    /// triangles into the live query stream and inverts the cyclic-vote
    /// rate `p(1-p)` — a construction that is robust to persistent
    /// (canonical-coin) noise, where naive repeat-or-mirror estimators
    /// measure exactly `0.0`. See [`nco_oracle::ProbeOracle`] for the
    /// estimator and its confidence interval.
    pub observed_flip_rate: Option<f64>,
    /// Oracle queries spent on noise probing, already included in
    /// [`Self::queries`] — probes are billed like any other query
    /// (`None` when probing is off). Subtract to recover the engine's
    /// own spend.
    pub probes: Option<u64>,
    /// Times the session re-derived its repetition parameters and
    /// re-ran the engine after the probe plane flagged the configured
    /// noise rate as misspecified (see
    /// [`crate::SessionBuilder::adapt_noise`]). `0` on every
    /// non-adaptive run; query/round tallies are cumulative across the
    /// adaptation.
    pub adaptations: u32,
}

/// A successful run: the typed answer plus its cost accounting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Outcome {
    /// The task's answer.
    pub answer: Answer,
    /// What the answer cost.
    pub report: RunReport,
}

impl Outcome {
    pub(crate) fn new(answer: Answer, report: RunReport) -> Self {
        Self { answer, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_carries_answer_and_report() {
        let o = Outcome::new(
            Answer::Item(3),
            RunReport {
                queries: 10,
                rounds: 2,
                memo_hits: None,
                cache_entries: Some(5),
                cache_added: Some(2),
                wall: Duration::from_millis(1),
                budget: Some(100),
                merge_plane: None,
                observed_flip_rate: None,
                probes: None,
                adaptations: 0,
            },
        );
        assert_eq!(o.answer.item(), Some(3));
        assert_eq!(o.report.queries, 10);
        assert_eq!(o.report.budget, Some(100));
    }
}
