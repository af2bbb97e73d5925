//! Answer transcripts of every raw noise model over both query shapes,
//! pinned as FNV-1a digests.
//!
//! Each model answers one seeded query stream — self-comparisons,
//! identical and within-pair-swapped pairs, mirrored queries and plain
//! random ones — once through `le` and once through `le_batch` in uneven
//! chunks. Both transcripts must hash to the recorded constant, so a
//! refactor of the raw oracles can move no answer on either path.

use nco_metric::hashing::splitmix64;
use nco_metric::EuclideanMetric;
use nco_oracle::additive::{AdditiveQuadOracle, AdditiveValueOracle};
use nco_oracle::adversarial::{
    AdversarialQuadOracle, AdversarialValueOracle, ConsistentAdversary, InvertAdversary,
    PersistentRandomAdversary, PromoteTargetAdversary,
};
use nco_oracle::crowd::{AccuracyProfile, CrowdQuadOracle, CrowdValueOracle};
use nco_oracle::probabilistic::{ProbQuadOracle, ProbValueOracle};
use nco_oracle::{Oracle, TrueQuadOracle, TrueValueOracle};

const N: usize = 12;
const QUERIES: usize = 600;
const MU: f64 = 0.5;

/// Chunk sizes for the batched path, cycled: uneven, with singletons.
const CHUNKS: [usize; 7] = [1, 7, 2, 13, 5, 31, 3];

fn fnv1a(answers: &[bool]) -> u64 {
    answers.iter().fold(0xcbf2_9ce4_8422_2325, |h, &a| {
        (h ^ u64::from(a)).wrapping_mul(0x0100_0000_01b3)
    })
}

struct Stream(u64);

impl Stream {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (splitmix64(self.0) % n as u64) as usize
    }
}

/// Non-negative values with repeats and near-ties, so every band and
/// every tie rule is exercised.
fn values() -> Vec<f64> {
    (0..N).map(|i| 1.0 + 0.1 * ((i * 5) % 7) as f64).collect()
}

/// Points on a small grid: many equal and near-equal distances.
fn metric() -> EuclideanMetric {
    let points: Vec<Vec<f64>> = (0..N)
        .map(|i| vec![(i % 4) as f64, (i / 4) as f64 * 1.3])
        .collect();
    EuclideanMetric::from_points(&points)
}

fn value_queries() -> Vec<(usize, usize)> {
    let mut s = Stream(0x7a11_0001);
    let mut qs = Vec::with_capacity(QUERIES);
    while qs.len() < QUERIES {
        let (i, j) = (s.below(N), s.below(N));
        match s.below(6) {
            0 => qs.push((i, i)),
            1 => qs.extend([(i, j), (j, i)]),
            2 => qs.extend([(i, j), (i, j)]),
            _ => qs.push((i, j)),
        }
    }
    qs
}

fn quad_queries() -> Vec<[usize; 4]> {
    let mut s = Stream(0x7a11_0004);
    let mut qs = Vec::with_capacity(QUERIES);
    while qs.len() < QUERIES {
        let [a, b, c, d] = [s.below(N), s.below(N), s.below(N), s.below(N)];
        match s.below(8) {
            0 => qs.push([a, a, c, d]),
            1 => qs.push([a, b, a, b]),
            2 => qs.push([a, b, b, a]),
            3 => qs.extend([[a, b, c, d], [c, d, a, b]]),
            4 => qs.extend([[a, b, c, d], [b, a, d, c]]),
            5 => qs.extend([[a, b, c, d], [a, b, c, d]]),
            _ => qs.push([a, b, c, d]),
        }
    }
    qs
}

/// The scalar (`le`) and the chunked-batch (`le_batch`) transcript
/// digests of a fresh oracle from `make` over `queries`.
fn digests<Q: Copy, O: Oracle<Q>>(queries: &[Q], mut make: impl FnMut() -> O) -> (u64, u64) {
    let mut o = make();
    let scalar: Vec<bool> = queries.iter().map(|&q| o.ask(q)).collect();
    let mut o = make();
    let mut batched = Vec::new();
    let mut rest = queries;
    for &len in CHUNKS.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(len.min(rest.len()));
        o.ask_round(head, &mut batched);
        rest = tail;
    }
    (fnv1a(&scalar), fnv1a(&batched))
}

fn transcripts() -> Vec<(&'static str, (u64, u64))> {
    let (v, m) = (values(), metric());
    let (vq, qq) = (value_queries(), quad_queries());
    let profile = AccuracyProfile::caltech_like();
    vec![
        (
            "true/value",
            digests(&vq, || TrueValueOracle::new(v.clone())),
        ),
        ("true/quad", digests(&qq, || TrueQuadOracle::new(m.clone()))),
        (
            "adversarial-invert/value",
            digests(&vq, || {
                AdversarialValueOracle::new(v.clone(), MU, InvertAdversary)
            }),
        ),
        (
            "adversarial-invert/quad",
            digests(&qq, || {
                AdversarialQuadOracle::new(m.clone(), MU, InvertAdversary)
            }),
        ),
        (
            "adversarial-random/value",
            digests(&vq, || {
                AdversarialValueOracle::new(v.clone(), MU, PersistentRandomAdversary::new(17))
            }),
        ),
        (
            "adversarial-random/quad",
            digests(&qq, || {
                AdversarialQuadOracle::new(m.clone(), MU, PersistentRandomAdversary::new(17))
            }),
        ),
        (
            "adversarial-consistent/value",
            digests(&vq, || {
                AdversarialValueOracle::new(v.clone(), MU, ConsistentAdversary::new(23, MU))
            }),
        ),
        (
            "adversarial-consistent/quad",
            digests(&qq, || {
                AdversarialQuadOracle::new(m.clone(), MU, ConsistentAdversary::new(23, MU))
            }),
        ),
        (
            "adversarial-promote/value",
            digests(&vq, || {
                AdversarialValueOracle::new(v.clone(), MU, PromoteTargetAdversary::record(3))
            }),
        ),
        (
            "adversarial-promote/quad",
            digests(&qq, || {
                AdversarialQuadOracle::new(m.clone(), MU, PromoteTargetAdversary::pair(5, 1))
            }),
        ),
        (
            "additive-invert/value",
            digests(&vq, || {
                AdditiveValueOracle::new(v.clone(), 0.25, InvertAdversary)
            }),
        ),
        (
            "additive-invert/quad",
            digests(&qq, || {
                AdditiveQuadOracle::new(m.clone(), 0.6, InvertAdversary)
            }),
        ),
        (
            "prob/value",
            digests(&vq, || ProbValueOracle::new(v.clone(), 0.3, 29)),
        ),
        (
            "prob/quad",
            digests(&qq, || ProbQuadOracle::new(m.clone(), 0.3, 29)),
        ),
        (
            "crowd-1/value",
            digests(&vq, || CrowdValueOracle::new(v.clone(), profile, 1, 31)),
        ),
        (
            "crowd-1/quad",
            digests(&qq, || CrowdQuadOracle::new(m.clone(), profile, 1, 31)),
        ),
        (
            "crowd-3/value",
            digests(&vq, || CrowdValueOracle::new(v.clone(), profile, 3, 31)),
        ),
        (
            "crowd-3/quad",
            digests(&qq, || CrowdQuadOracle::new(m.clone(), profile, 3, 31)),
        ),
    ]
}

/// The recorded digests: one answer moved on either path changes its
/// model's digest.
const PINNED: [(&str, u64); 18] = [
    ("true/value", 0x95bd_0121_4e53_f27d),
    ("true/quad", 0xa533_9b75_3c5b_9f57),
    ("adversarial-invert/value", 0x9c70_3b45_592e_5a06),
    ("adversarial-invert/quad", 0x8042_8cfd_af82_cb00),
    ("adversarial-random/value", 0xb39d_a31e_1394_94eb),
    ("adversarial-random/quad", 0x68aa_d5cd_7990_4393),
    ("adversarial-consistent/value", 0xabf9_682e_0c2d_e206),
    ("adversarial-consistent/quad", 0x47c7_a72c_d206_1acb),
    ("adversarial-promote/value", 0x4108_868a_0b4f_7378),
    ("adversarial-promote/quad", 0xa0df_89c3_0fd5_d652),
    ("additive-invert/value", 0x5183_0ac4_31f4_6248),
    ("additive-invert/quad", 0xb8ae_3c04_8a24_8fe7),
    ("prob/value", 0x4e53_88ba_a43d_ab26),
    ("prob/quad", 0x2b5a_d29f_04fd_d7f5),
    ("crowd-1/value", 0xc84f_0be7_f400_b5b0),
    ("crowd-1/quad", 0x678d_5053_06a2_bd56),
    ("crowd-3/value", 0xc4b0_1ab1_eb77_3210),
    ("crowd-3/quad", 0x6f4d_bfd2_5b12_1cbf),
];

#[test]
fn every_model_answers_its_pinned_transcript_on_both_paths() {
    let got = transcripts();
    let mut failures = Vec::new();
    for ((name, (scalar, batched)), (pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(*name, pinned_name);
        if *scalar != pinned || *batched != pinned {
            failures.push(format!(
                "{name}: le {scalar:#018x}, le_batch {batched:#018x}, pinned {pinned:#018x}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The stream really holds the cases the transcripts are meant to pin.
#[test]
fn query_streams_cover_degenerate_and_mirrored_queries() {
    let vq = value_queries();
    assert!(vq.iter().any(|&(i, j)| i == j));
    assert!(vq
        .windows(2)
        .any(|w| w[1] == (w[0].1, w[0].0) && w[0].0 != w[0].1));
    let qq = quad_queries();
    assert!(qq.iter().any(|&[a, b, _, _]| a == b));
    assert!(qq.iter().any(|&[a, b, c, d]| a != b && (a, b) == (d, c)));
    assert!(qq
        .windows(2)
        .any(|w| w[1] == [w[0][2], w[0][3], w[0][0], w[0][1]]));
}
