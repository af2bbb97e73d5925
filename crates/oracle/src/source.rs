//! The operand source every noise model is written over.
//!
//! Section 2.2 defines each noise model once, over a query comparing two
//! quantities `x` and `y`. A value comparison (Definition 2.1) and a
//! quadruplet (Definition 2.3) differ only in what `x` and `y` are: two
//! hidden values, or two distances. A [`Source`] is that difference —
//! hidden [`Values`] or hidden [`Distances`] — and the models of this
//! crate ([`crate::value::TrueOracle`], [`crate::adversarial::AdversarialOracle`],
//! [`crate::probabilistic::ProbOracle`], [`crate::crowd::CrowdOracle`])
//! write their answer once against it:
//!
//! * [`Query::operands`] splits a query into its two canonical operands:
//!   record `i`, or a within-pair-sorted record pair;
//! * [`Source::magnitudes`] reads the operands' magnitudes: `values[i]`
//!   or `dist`;
//! * [`Operand::words`] yields an operand's hash words, which seed the
//!   persistent noise coins and key the adversaries.
//!
//! [`noise_traits!`] turns a model's answer into its two shape-trait
//! impls. The traits here are sealed: the two sources are the only ones.

use nco_metric::hashing::splitmix64;
use nco_metric::Metric;

/// Seals the traits of this module (and [`crate::adversarial::Band`]).
pub trait Sealed {}

/// One side of a query: a record index, or a within-pair-sorted record
/// pair.
pub trait Operand: Copy + Ord + Sealed {
    /// The operand's hash words.
    type Words: AsRef<[u64]>;

    /// The words that key this operand in noise coins and adversaries.
    fn words(self) -> Self::Words;
}

impl Sealed for usize {}

impl Operand for usize {
    type Words = [u64; 1];

    #[inline]
    fn words(self) -> [u64; 1] {
        [self as u64]
    }
}

impl Sealed for (usize, usize) {}

impl Operand for (usize, usize) {
    type Words = [u64; 2];

    #[inline]
    fn words(self) -> [u64; 2] {
        [self.0 as u64, self.1 as u64]
    }
}

/// A query shape: `(i, j)` compares two records, `[a, b, c, d]` two
/// record pairs.
pub trait Query: Copy + Sealed {
    /// What one side of the query compares.
    type Operand: Operand;

    /// The two operands in query order, each in canonical form. The
    /// canonical form of every query lives here: the memo keys and every
    /// model's answer build on it.
    fn operands(self) -> (Self::Operand, Self::Operand);

    /// [`Query::operands`], or `None` when the two are identical.
    #[inline]
    fn split(self) -> Option<(Self::Operand, Self::Operand)> {
        let (l, r) = self.operands();
        (l != r).then_some((l, r))
    }
}

impl Sealed for [usize; 4] {}

impl Query for (usize, usize) {
    type Operand = usize;

    #[inline]
    fn operands(self) -> (usize, usize) {
        self
    }
}

impl Query for [usize; 4] {
    type Operand = (usize, usize);

    /// Only the within-pair order is canonicalised (`d` is symmetric),
    /// never the order of the two pairs.
    #[inline]
    fn operands(self) -> ((usize, usize), (usize, usize)) {
        let [a, b, c, d] = self;
        let sorted = |x: usize, y: usize| if x <= y { (x, y) } else { (y, x) };
        (sorted(a, b), sorted(c, d))
    }
}

/// The hidden quantities a noise model compares.
pub trait Source: Sealed {
    /// What the source is built from: `Vec<f64>` or a metric.
    type Hidden;

    /// The query shape asked over this source.
    type Query: Query;

    /// One round's cache of the right-hand operand's magnitude.
    type Right: Default;

    /// Wraps the hidden data.
    ///
    /// # Panics
    /// Panics if a hidden value is non-finite (the paper assumes a total
    /// order).
    fn new(hidden: Self::Hidden) -> Self;

    /// Number of records.
    fn records(&self) -> usize;

    /// `true` when every magnitude is non-negative, as a multiplicative
    /// band or a ratio curve needs. Distances always are.
    fn nonnegative(&self) -> bool;

    /// The magnitudes of operands `l` and `r`; `right` carries the last
    /// right-hand operand read in this round.
    fn magnitudes(
        &self,
        l: OperandOf<Self>,
        r: OperandOf<Self>,
        right: &mut Self::Right,
    ) -> (f64, f64);
}

/// The operand type of source `S`.
pub type OperandOf<S> = <<S as Source>::Query as Query>::Operand;

/// Hidden scalar values, compared by `(i, j)` queries.
#[derive(Debug, Clone)]
pub struct Values(pub(crate) Vec<f64>);

impl Sealed for Values {}

impl Source for Values {
    type Hidden = Vec<f64>;
    type Query = (usize, usize);
    type Right = ();

    fn new(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "hidden values must be finite"
        );
        Self(values)
    }

    fn records(&self) -> usize {
        self.0.len()
    }

    fn nonnegative(&self) -> bool {
        self.0.iter().all(|&v| v >= 0.0)
    }

    #[inline]
    fn magnitudes(&self, i: usize, j: usize, _: &mut ()) -> (f64, f64) {
        (self.0[i], self.0[j])
    }
}

/// A hidden metric, compared by `[a, b, c, d]` quadruplet queries.
#[derive(Debug, Clone)]
pub struct Distances<M>(pub(crate) M);

impl<M> Sealed for Distances<M> {}

impl<M: Metric> Source for Distances<M> {
    type Hidden = M;
    type Query = [usize; 4];
    /// The dominant round shape (k-center committee scoring, Count-Max
    /// scans against a fixed pivot) repeats one right-hand pair across
    /// the round, so its distance is read once per run of repeats.
    type Right = Option<((usize, usize), f64)>;

    fn new(metric: M) -> Self {
        Self(metric)
    }

    fn records(&self) -> usize {
        self.0.len()
    }

    fn nonnegative(&self) -> bool {
        true
    }

    // Forced: left to itself the compiler keeps this out of line in the
    // engines' hot loops, one call per query around two cache reads.
    #[inline(always)]
    fn magnitudes(
        &self,
        l: (usize, usize),
        r: (usize, usize),
        right: &mut Self::Right,
    ) -> (f64, f64) {
        let dr = match *right {
            Some((p, d)) if p == r => d,
            _ => {
                let d = self.0.dist(r.0, r.1);
                *right = Some((r, d));
                d
            }
        };
        (self.0.dist(l.0, l.1), dr)
    }
}

/// Absorbs `words` into the [`nco_metric::hashing::mix`] stream `h`:
/// `absorb(mix_seed(s), w) == mix(s, w)` bit for bit.
#[inline]
pub(crate) fn absorb(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, &w| splitmix64(h ^ w))
}

/// A model's round: every lane gets `answer`'s scalar answer, with one
/// right-hand magnitude cache across the round.
pub(crate) fn round<S: Source>(
    queries: &[S::Query],
    out: &mut Vec<bool>,
    mut answer: impl FnMut(S::Query, &mut S::Right) -> bool,
) {
    out.reserve(queries.len());
    let mut right = S::Right::default();
    for &q in queries {
        let ans = answer(q, &mut right);
        out.push(ans);
    }
}

/// Implements [`crate::ComparisonOracle`] over [`Values`] and
/// [`crate::QuadrupletOracle`] over [`Distances`] for a noise model, with
/// its `values()` / `metric()` accessors:
/// `noise_traits!(Model[G: Bound, ...])`, where the model's first type
/// parameter is its source and `G, ...` are the rest. The model provides
/// `fn answer(&self, q, right: &mut S::Right) -> bool` and a `source`
/// field.
macro_rules! noise_traits {
    ($model:ident [$($g:ident: $b:path),*]) => {
        noise_traits!(@one $model [$($g: $b),*] [] $crate::source::Values;
            ComparisonOracle, (usize, usize), [i, j], (i, j), ());
        noise_traits!(@one $model [$($g: $b),*] [M: nco_metric::Metric]
            $crate::source::Distances<M>;
            QuadrupletOracle, [usize; 4], [a, b, c, d], [a, b, c, d], None);

        impl<$($g: $b),*> $model<$crate::source::Values $(, $g)*> {
            /// Ground-truth values (evaluation only — algorithms must never
            /// read these).
            pub fn values(&self) -> &[f64] {
                &self.source.0
            }
        }

        impl<M: nco_metric::Metric $(, $g: $b)*> $model<$crate::source::Distances<M> $(, $g)*> {
            /// The hidden metric (evaluation only).
            pub fn metric(&self) -> &M {
                &self.source.0
            }
        }
    };
    (@one $model:ident [$($g:ident: $b:path),*] [$($m:ident: $mb:path)?] $src:ty;
        $tr:ident, $q:ty, [$($x:ident),+], $query:expr, $fresh:expr) => {
        impl<$($m: $mb,)? $($g: $b),*> $crate::$tr for $model<$src $(, $g)*> {
            fn n(&self) -> usize {
                $crate::source::Source::records(&self.source)
            }

            #[inline]
            fn le(&mut self, $($x: usize),+) -> bool {
                self.answer($query, &mut $fresh)
            }

            fn le_batch(&mut self, queries: &[$q], out: &mut Vec<bool>) {
                $crate::source::round::<$src>(queries, out, |q, right| self.answer(q, right));
            }
        }
    };
}
