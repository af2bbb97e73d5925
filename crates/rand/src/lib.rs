//! # rand (offline shim)
//!
//! The build environment for this workspace has no access to a cargo
//! registry, so this path crate stands in for the upstream `rand` 0.9
//! crate. It implements exactly the API subset the workspace uses, with
//! the upstream names and semantics:
//!
//! * [`RngCore`] / [`Rng`] with `random`, `random_range`, `random_bool`;
//! * [`SeedableRng`] with `seed_from_u64` (and `from_seed`);
//! * [`rngs::StdRng`] — here a xoshiro256\*\* generator seeded through
//!   splitmix64 (upstream uses ChaCha12; any stream is allowed, upstream
//!   explicitly does not promise portability of `StdRng` streams);
//! * [`seq::SliceRandom::shuffle`] — Fisher–Yates, matching upstream's
//!   `O(n)` in-place shuffle.
//!
//! Everything is deterministic in the seed, which is what the workspace's
//! reproducibility guarantees rely on. If the real `rand` becomes
//! available, deleting this crate and pointing the workspace manifests at
//! the registry version should be a drop-in swap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random `u64`s (subset of upstream `rand::RngCore`).
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// User-facing random value generation (subset of upstream `rand::Rng`).
pub trait Rng: RngCore {
    /// Samples a value of type `T` from its standard distribution
    /// (`f64`/`f32`: uniform in `[0, 1)`; integers: uniform over the full
    /// range; `bool`: fair coin).
    fn random<T: StandardUniform>(&mut self) -> T {
        T::standard(self)
    }

    /// Samples uniformly from a half-open `lo..hi` or inclusive `lo..=hi`
    /// range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "random_bool: p = {p} not in [0, 1]"
        );
        f64::standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types samplable from their "standard" distribution (upstream's
/// `StandardUniform` distribution, exposed here as a bound on
/// [`Rng::random`]).
pub trait StandardUniform: Sized {
    /// Draws one standard-distributed value from `rng`.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardUniform for f64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardUniform for f32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardUniform for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardUniform for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardUniform for u32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardUniform for usize {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

/// Ranges [`Rng::random_range`] can sample from (upstream's
/// `SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Scalar types with a uniform-over-interval sampler (upstream's
/// `SampleUniform`).
pub trait SampleUniform: Sized {
    /// Uniform sample from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform sample from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Unbiased uniform draw from `[0, n)` via Lemire's widening-multiply
/// method with rejection.
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    // Rejection zone: draws whose low product word falls below
    // `2^64 mod n` would bias the high word; redraw them.
    let threshold = n.wrapping_neg() % n;
    loop {
        let x = rng.next_u64();
        let wide = (x as u128) * (n as u128);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "random_range: empty range {lo}..{hi}");
                let span = (hi as i128 - lo as i128) as u64;
                lo.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "random_range: empty range {lo}..={hi}");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Full-width range: every 64-bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64_below(rng, span as u64) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "random_range: empty range {lo}..{hi}");
                let u = <$t as StandardUniform>::standard(rng);
                let x = lo + (hi - lo) * u;
                // `lo + span * u` can round up to `hi` when the range is a
                // few ULPs wide; the half-open contract excludes `hi`.
                if x >= hi { hi.next_down() } else { x }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "random_range: empty range {lo}..={hi}");
                let u = <$t as StandardUniform>::standard(rng);
                lo + (hi - lo) * u
            }
        }
    )*};
}

impl_sample_uniform_float!(f64, f32);

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Deterministically seedable generators (subset of upstream
/// `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Seed material for [`SeedableRng::from_seed`].
    type Seed: AsMut<[u8]> + Default;

    /// Builds the generator from raw seed bytes.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded through splitmix64
    /// (upstream's documented expansion for this method).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = splitmix64(&mut state);
            for (b, s) in chunk.iter_mut().zip(word.to_le_bytes()) {
                *b = s;
            }
        }
        Self::from_seed(seed)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named generator types (subset of upstream `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A **counter-mode** generator: output `i` is a pure function of
    /// `(seed, stream, i)`, with no sequential state dependency.
    ///
    /// Keyed substreams ([`CounterRng::stream`]) give independent,
    /// reproducible sequences addressed by an index rather than by draw
    /// order: the hierarchy engine keys its per-merge randomness by merge
    /// index, and the perf suite derives per-rep seeds the same way.
    ///
    /// Each output is one splitmix64 finalisation of the 64-bit counter
    /// XOR-folded with the (seed, stream) key — the same BigCrush-passing
    /// mixer as `StdRng`'s seeding path.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CounterRng {
        key: u64,
        ctr: u64,
    }

    fn mix1(x: u64) -> u64 {
        let mut s = x;
        super::splitmix64(&mut s)
    }

    impl CounterRng {
        /// Builds the generator for a (seed, stream) pair.
        pub fn new(seed: u64, stream: u64) -> Self {
            // Decorrelate seed and stream through one mixing round each so
            // (seed=1, stream=0) and (seed=0, stream=1) share no structure.
            let key = mix1(seed ^ 0x9e37_79b9_7f4a_7c15)
                ^ mix1(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            Self { key, ctr: 0 }
        }

        /// A derived generator for substream `w` of the same seed.
        pub fn stream(&self, w: u64) -> Self {
            Self {
                key: mix1(self.key ^ w.wrapping_mul(0x94d0_49bb_1331_11eb)),
                ctr: 0,
            }
        }

        /// Repositions the counter (outputs are a pure function of it).
        pub fn set_counter(&mut self, ctr: u64) {
            self.ctr = ctr;
        }

        /// The current counter value.
        pub fn counter(&self) -> u64 {
            self.ctr
        }
    }

    impl RngCore for CounterRng {
        fn next_u64(&mut self) -> u64 {
            let out = super::splitmix64(&mut (self.key ^ self.ctr));
            self.ctr = self.ctr.wrapping_add(1);
            out
        }
    }

    impl SeedableRng for CounterRng {
        type Seed = [u8; 16];

        fn from_seed(seed: Self::Seed) -> Self {
            let lo = u64::from_le_bytes(seed[..8].try_into().unwrap());
            let hi = u64::from_le_bytes(seed[8..].try_into().unwrap());
            Self::new(lo, hi)
        }
    }

    /// The workspace's standard deterministic generator: xoshiro256\*\*.
    ///
    /// Upstream's `StdRng` is ChaCha12; upstream explicitly reserves the
    /// right to change the algorithm, so no code may depend on the exact
    /// stream — only on determinism in the seed, which holds here.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks(8)) {
                *word = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            // xoshiro requires a nonzero state; an all-zero seed would
            // otherwise emit a constant stream.
            if s == [0; 4] {
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0x6A09_E667_F3BC_C909,
                    0xBB67_AE85_84CA_A73B,
                    0x3C6E_F372_FE94_F82B,
                ];
            }
            StdRng { s }
        }
    }
}

/// Sequence-related helpers (subset of upstream `rand::seq`).
pub mod seq {
    use super::{Rng, SampleUniform};

    /// Extension methods on slices (subset of upstream `SliceRandom`).
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates, `O(n)`).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = usize::sample_inclusive(rng, 0, i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[usize::sample_half_open(rng, 0, self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn determinism_in_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..32).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.random()).collect();
        assert_eq!(xs, ys);
        let mut c = StdRng::seed_from_u64(43);
        let zs: Vec<u64> = (0..32).map(|_| c.random()).collect();
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_interval_and_bool_probability() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut heads = 0usize;
        for _ in 0..20_000 {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
            if rng.random_bool(0.3) {
                heads += 1;
            }
        }
        let rate = heads as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "p=0.3 coin came up {rate}");
    }

    #[test]
    fn ranges_respect_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let k = rng.random_range(0..5usize);
            seen[k] = true;
            let x = rng.random_range(-2.5..2.5f64);
            assert!((-2.5..2.5).contains(&x));
            let inc = rng.random_range(3..=4u32);
            assert!(inc == 3 || inc == 4);
        }
        assert!(seen.iter().all(|&s| s), "0..5 not fully covered: {seen:?}");
    }

    #[test]
    fn uniformity_is_roughly_flat() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut counts = [0usize; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[rng.random_range(0..10usize)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let p = c as f64 / draws as f64;
            assert!((p - 0.1).abs() < 0.01, "bucket {k} has mass {p}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut v: Vec<usize> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(5);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut w: Vec<usize> = (0..50).collect();
        let mut rng2 = StdRng::seed_from_u64(5);
        w.shuffle(&mut rng2);
        assert_eq!(v, w);
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50-element shuffle left input in order"
        );
    }

    #[test]
    fn float_half_open_excludes_upper_bound_even_at_ulp_width() {
        // A range a few ULPs wide: `lo + span * u` rounds up to `hi` for
        // large u, which the half-open contract must never return.
        let lo = 1.0e16f64;
        let hi = lo.next_up();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..1_000 {
            let x = rng.random_range(lo..hi);
            assert!(x >= lo && x < hi, "{x} escaped [{lo}, {hi})");
        }
    }

    #[test]
    fn counter_rng_streams_are_deterministic_and_independent() {
        use super::rngs::CounterRng;
        use super::RngCore;
        fn take(mut r: CounterRng, n: usize) -> Vec<u64> {
            (0..n).map(|_| r.next_u64()).collect()
        }
        let base = CounterRng::new(42, 0);
        // Same (seed, stream) -> identical sequence.
        let a = take(base.stream(3), 16);
        let b = take(base.stream(3), 16);
        assert_eq!(a, b);
        // Different streams -> different sequences.
        let c = take(base.stream(4), 16);
        assert_ne!(a, c);
        // Different seeds -> different sequences.
        let d = take(CounterRng::new(43, 0).stream(3), 16);
        assert_ne!(a, d);
        // Counter repositioning replays the exact same outputs.
        let mut r = base.stream(3);
        let first: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        r.set_counter(0);
        let replay: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(first, replay);
        assert_eq!(r.counter(), 8);
    }

    #[test]
    fn counter_rng_is_roughly_uniform() {
        use super::rngs::CounterRng;
        let mut rng = CounterRng::new(7, 1);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.random_range(0..8usize)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let p = c as f64 / 80_000.0;
            assert!((p - 0.125).abs() < 0.01, "bucket {k} has mass {p}");
        }
    }

    #[test]
    fn counter_rng_seedable_from_bytes() {
        use super::rngs::CounterRng;
        use super::RngCore;
        let mut seed = [0u8; 16];
        seed[0] = 9;
        let mut a = CounterRng::from_seed(seed);
        let mut b = CounterRng::new(9, 0);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forwarding_through_mut_refs() {
        fn takes_rng(rng: &mut impl Rng) -> usize {
            rng.random_range(0..100usize)
        }
        let mut rng = StdRng::seed_from_u64(3);
        let a = takes_rng(&mut rng);
        let b = takes_rng(&mut &mut rng);
        assert!(a < 100 && b < 100);
        assert!([0usize; 0].choose(&mut rng).is_none());
    }
}
