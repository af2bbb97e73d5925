//! # nco-core — the paper's algorithms
//!
//! A from-scratch implementation of every algorithm in *How to Design Robust
//! Algorithms using Noisy Comparison Oracle* (Addanki, Galhotra, Saha —
//! PVLDB 14(9), 2021), plus the evaluation baselines of its Section 6.
//!
//! | Module | Contents | Paper |
//! |---|---|---|
//! | [`comparator`] | the noisy `le` abstraction all engines run on | — |
//! | [`maxfind`] | Count-Max, λ-ary Tournament, Tournament-Partition, Max-Adv, Count-Max-Prob | Alg. 1–4, 12; Thm 3.6, 3.7 |
//! | [`neighbor`] | PairwiseComp, core sets, farthest/nearest under both noise models, Tour2/Samp baselines | Alg. 5, 13–16; Thm 3.10 |
//! | [`kcenter`] | greedy k-center (adversarial), sampled k-center with cores (probabilistic), Gonzalez/Tour2/Samp/Oq baselines | Alg. 6–10; Thm 4.2, 4.4 |
//! | [`hier`] | single/complete-linkage agglomerative clustering with adjacency lists, exact and baseline variants | Alg. 11; Thm 5.2 |
//! | [`order`] | noisy sort (skeleton insertion + polish), k-th select and top-k partition (sample–score–narrow) | Gu–Xu; Braverman–Mao–Weinberg |
//!
//! Every algorithm is generic over [`comparator::Comparator`], a noisy
//! "is `a <= b`?" predicate: finding a maximum value, the farthest point
//! from a query, or the farthest (point, center) pair are all the *same*
//! engine instantiated with different comparators — which is exactly how the
//! paper reuses its Section 3 machinery in Sections 4 and 5.
//!
//! ## Conventions
//!
//! * Records are `usize` indices into the oracle's hidden ground truth.
//! * All randomized algorithms take an explicit `&mut impl Rng`; fixed seeds
//!   give bit-reproducible runs.
//! * Parameter structs offer `experimental()` constructors matching the
//!   paper's Section 6.1 settings (`t = 1`, `gamma = 2`, ...) and
//!   `with_confidence(delta)` constructors matching the theorems.

pub mod comparator;
pub mod hier;
pub mod kcenter;
pub mod maxfind;
pub mod neighbor;
pub mod order;

pub use comparator::Comparator;
pub use kcenter::Clustering;
