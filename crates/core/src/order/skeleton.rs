//! Shared sorting machinery: wave insertion into a binary-search skeleton
//! followed by a polish/emit sweep.
//!
//! Stage 1 (Gu–Xu insertion): the sorted skeleton starts as a single item
//! and doubles every wave — each wave binary-searches all of its members
//! into the *fixed* wave-start skeleton at once, so the step-`t` probes of
//! every member coalesce into one oracle round. A step over an open
//! interval of `span` slots does not trust a single comparison: it votes
//! over [`OrderSpec::votes`] *distinct* skeleton probes centred on the
//! midpoint (persistent noise makes re-asking one probe worthless, but
//! distinct probes carry independent coins). Under an exact oracle the
//! majority over a probe window is exactly the comparison "insertion rank
//! vs. median probe", so the search lands on the true slot and the splice
//! keeps the skeleton exactly sorted.
//!
//! Stage 2 (polish/emit): a left-to-right sweep count-maxes a small
//! lookahead window at each position, swaps the winner in, and commits
//! the position. The sweep is where the *clean prefix* watermark lives:
//! positions are committed in output order while the oracle still answers
//! for real, and a committed position is never touched again, so a killed
//! run's prefix is bit-identical to the same prefix of the completed run.

use super::OrderSpec;
use crate::comparator::{Comparator, ROUND_CAP};
use crate::maxfind::count_scores_into;

/// Full noisy sort, descending (best first). `clean` is the emit-sweep
/// watermark: `out[..clean]` was committed entirely on real answers.
pub(crate) fn sort_core<I, C>(
    items: &[I],
    spec: &OrderSpec,
    cmp: &mut C,
    clean: &mut usize,
) -> Vec<I>
where
    I: Copy + Eq,
    C: Comparator<I>,
{
    let n = items.len();
    *clean = 0;
    if n <= 1 {
        if !cmp.doomed() {
            *clean = n;
        }
        return items.to_vec();
    }

    // Stage 1: doubling waves of coalesced voted binary searches, off a
    // round-robin-sorted seed block (every decision in the seed rests on
    // its own persistent coin, so errors there are local score slips,
    // not the catastrophic single-coin flips a 1-item skeleton risks).
    let mut scores: Vec<u32> = Vec::new();
    let seed = spec.seed_size.clamp(1, n);
    let mut order: Vec<I> = {
        count_scores_into(&items[..seed], cmp, &mut scores);
        let mut ord: Vec<usize> = (0..seed).collect();
        ord.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
        ord.into_iter().map(|g| items[g]).collect()
    };
    let mut idx = seed;
    while idx < n {
        let wave_len = order.len().min(n - idx);
        let wave = &items[idx..idx + wave_len];
        idx += wave_len;
        let positions = locate_wave(&order, wave, spec, cmp);
        order = splice_wave(&order, wave, &positions, cmp, &mut scores);
    }

    // Stage 2: polish/emit sweep — commit positions left to right.
    let lookahead = spec.polish_window.max(1);
    for i in 0..n {
        let end = (i + lookahead).min(n);
        if end - i >= 2 {
            count_scores_into(&order[i..end], cmp, &mut scores);
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(o, _)| o)
                .unwrap_or(0);
            order.swap(i, i + best);
        }
        if !cmp.doomed() {
            *clean = i + 1;
        }
    }
    order
}

/// Runs every wave member's voted binary search against the fixed
/// skeleton, one coalesced round per search step, and returns each
/// member's insertion slot (`0..=order.len()`, the number of skeleton
/// items that go before it).
fn locate_wave<I, C>(order: &[I], wave: &[I], spec: &OrderSpec, cmp: &mut C) -> Vec<usize>
where
    I: Copy + Eq,
    C: Comparator<I>,
{
    let mut lo = vec![0usize; wave.len()];
    let mut hi = vec![order.len(); wave.len()];
    let mut pairs: Vec<(I, I)> = Vec::new();
    let mut meta: Vec<(usize, usize, usize)> = Vec::new();
    let mut answers: Vec<bool> = Vec::new();
    loop {
        pairs.clear();
        meta.clear();
        for w in 0..wave.len() {
            let span = hi[w] - lo[w];
            if span == 0 {
                continue;
            }
            let votes = spec.votes(span);
            let mid = lo[w] + span / 2;
            // `votes` distinct probe slots centred on the midpoint,
            // clipped into the open interval.
            let start = mid.saturating_sub(votes / 2).clamp(lo[w], hi[w] - votes);
            meta.push((w, start, votes));
            for &probe in &order[start..start + votes] {
                // le(u, probe) == true means u sorts after the probe's slot.
                pairs.push((wave[w], probe));
            }
        }
        if meta.is_empty() {
            return lo;
        }
        answers.clear();
        for chunk in pairs.chunks(ROUND_CAP) {
            cmp.le_round(chunk, &mut answers);
        }
        let mut at = 0;
        for &(w, start, votes) in &meta {
            let yes = answers[at..at + votes].iter().filter(|&&a| a).count();
            at += votes;
            // Majority over distinct probes == "rank > median probe" under
            // an exact oracle, so the [lo, hi] invariant is preserved
            // exactly; under noise each step is an independent majority.
            let median = start + votes / 2;
            if 2 * yes > votes {
                lo[w] = median + 1;
            } else {
                hi[w] = median;
            }
        }
    }
}

/// Splices a located wave into the skeleton. Members that landed on the
/// same slot are ordered among themselves by a round-robin count (exact
/// for an exact oracle: the slot ties are a transitive mini-tournament).
fn splice_wave<I, C>(
    order: &[I],
    wave: &[I],
    positions: &[usize],
    cmp: &mut C,
    scores: &mut Vec<u32>,
) -> Vec<I>
where
    I: Copy + Eq,
    C: Comparator<I>,
{
    let mut by_pos: Vec<(usize, usize)> = positions.iter().copied().zip(0..wave.len()).collect();
    by_pos.sort_unstable();
    let mut merged = Vec::with_capacity(order.len() + wave.len());
    let mut gi = 0;
    for pos in 0..=order.len() {
        let gstart = gi;
        while gi < by_pos.len() && by_pos[gi].0 == pos {
            gi += 1;
        }
        match gi - gstart {
            0 => {}
            1 => merged.push(wave[by_pos[gstart].1]),
            _ => {
                let group: Vec<I> = by_pos[gstart..gi].iter().map(|&(_, w)| wave[w]).collect();
                count_scores_into(&group, cmp, scores);
                let mut ord: Vec<usize> = (0..group.len()).collect();
                ord.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
                merged.extend(ord.iter().map(|&g| group[g]));
            }
        }
        if pos < order.len() {
            merged.push(order[pos]);
        }
    }
    merged
}
