//! Shared select/partition machinery: sample–score–narrow median
//! elimination in batched rounds (Braverman–Mao–Weinberg style).
//!
//! Each iteration draws a fresh pivot sample from the still-active band,
//! scores *every* active item against the whole sample in coalesced
//! oracle rounds, and classifies by score: items strictly above the
//! boundary score (plus slack) are confirmed top, items strictly below
//! (minus slack) are eliminated, and the band in between — the only items
//! whose side is still in doubt — stays active for the next iteration.
//! Once the band is small (or the iteration cap trips), a full
//! round-robin count resolves it exactly.
//!
//! Under an exact oracle sample scores are monotone in true rank, so the
//! confirmed sets are always correct and the final scan pins the exact
//! k-th item; under probabilistic/crowd noise the slack band absorbs
//! score jitter so misclassifications need a score error larger than the
//! slack. Sample members are scored too (self-pairs are skipped without
//! a query), so every item is classified and none is lost to sampling.

use rand::Rng;

use super::{OrderSpec, Split};
use crate::comparator::{Comparator, ROUND_CAP};
use crate::maxfind::count_scores_into;

/// Top-`k` / rest split of `items`, best first. `clean` counts the
/// confirmed-top prefix committed on real answers; `candidate` is the
/// engine's current boundary (k-th item) estimate, refined every clean
/// iteration and finalised by the resolving scan.
pub(crate) fn partition_core<I, C, R>(
    items: &[I],
    k: usize,
    spec: &OrderSpec,
    cmp: &mut C,
    rng: &mut R,
    clean: &mut usize,
    candidate: &mut Option<I>,
) -> Split<I>
where
    I: Copy + Eq,
    C: Comparator<I>,
    R: Rng + ?Sized,
{
    let n = items.len();
    assert!(k >= 1 && k <= n, "partition requires 1 <= k <= n");
    *clean = 0;
    *candidate = None;
    let mut top: Vec<I> = Vec::with_capacity(k);
    let mut rest: Vec<I> = Vec::with_capacity(n - k);
    let mut active: Vec<I> = items.to_vec();
    let mut need = k;
    let mut scores: Vec<u32> = Vec::new();
    let mut iters = 0;
    loop {
        debug_assert!((1..=active.len()).contains(&need));
        if active.len() <= spec.scan_threshold.max(2) || iters >= spec.max_narrow_rounds {
            // Resolve the residual band exactly: full round-robin count,
            // ordered by (score desc, index) — a transitive tournament
            // under an exact oracle, hence the true order.
            count_scores_into(&active, cmp, &mut scores);
            let mut ord: Vec<usize> = (0..active.len()).collect();
            ord.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
            for (rank, &i) in ord.iter().enumerate() {
                if rank < need {
                    top.push(active[i]);
                } else {
                    rest.push(active[i]);
                }
            }
            if !cmp.doomed() {
                *clean = top.len();
                *candidate = top.last().copied();
            }
            break;
        }
        iters += 1;
        // Fresh pivot sample (with replacement) from the active band.
        let s = spec.sample_size.clamp(1, active.len());
        let sample: Vec<I> = (0..s)
            .map(|_| active[rng.random_range(0..active.len())])
            .collect();
        score_vs_sample(&active, &sample, cmp, &mut scores);
        let mut ord: Vec<usize> = (0..active.len()).collect();
        ord.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
        let boundary_score = scores[ord[need - 1]];
        let boundary_item = active[ord[need - 1]];
        let hi_thr = boundary_score.saturating_add(spec.slack);
        let lo_thr = boundary_score.saturating_sub(spec.slack);
        // Items above the boundary band are confirmed top (there are at
        // most need-1 of them, since the boundary itself scores <= hi_thr);
        // items below are eliminated; the band stays active, and always
        // retains at least the remaining `need` (the boundary is in it).
        let mut band: Vec<I> = Vec::new();
        for &i in &ord {
            if scores[i] > hi_thr {
                top.push(active[i]);
                need -= 1;
            } else if scores[i] < lo_thr {
                rest.push(active[i]);
            } else {
                band.push(active[i]);
            }
        }
        active = band;
        if !cmp.doomed() {
            *clean = top.len();
            *candidate = Some(boundary_item);
        }
    }
    debug_assert_eq!(top.len(), k);
    Split { top, rest }
}

/// Scores every item in `active` by its wins against the pivot sample,
/// in coalesced rounds. Self-pairs (an item meeting its own sample
/// occurrence) are skipped without spending a query and count as losses.
fn score_vs_sample<I, C>(active: &[I], sample: &[I], cmp: &mut C, scores: &mut Vec<u32>)
where
    I: Copy + Eq,
    C: Comparator<I>,
{
    scores.clear();
    scores.resize(active.len(), 0);
    let cap = ROUND_CAP.min(active.len() * sample.len());
    let mut round: Vec<(I, I)> = Vec::with_capacity(cap);
    let mut who: Vec<usize> = Vec::with_capacity(cap);
    let mut answers: Vec<bool> = Vec::with_capacity(cap);
    for (u_idx, &u) in active.iter().enumerate() {
        for &x in sample {
            if u == x {
                continue;
            }
            round.push((u, x));
            who.push(u_idx);
            if round.len() == ROUND_CAP {
                flush(&round, &who, cmp, &mut answers, scores);
                round.clear();
                who.clear();
            }
        }
    }
    flush(&round, &who, cmp, &mut answers, scores);
}

fn flush<I, C>(
    round: &[(I, I)],
    who: &[usize],
    cmp: &mut C,
    answers: &mut Vec<bool>,
    scores: &mut [u32],
) where
    I: Copy,
    C: Comparator<I>,
{
    if round.is_empty() {
        return;
    }
    answers.clear();
    cmp.le_round(round, answers);
    for (&w, &ans) in who.iter().zip(answers.iter()) {
        // le(u, x) == false means u beat the pivot: one win.
        if !ans {
            scores[w] += 1;
        }
    }
}
