//! Offline stand-in for the `rand` crate.
//!
//! Supplies the subset the workspace uses — a seedable deterministic
//! RNG ([`rngs::StdRng`]) and uniform sampling over half-open ranges —
//! with no external dependencies. The generator is SplitMix64
//! (Steele et al.), which passes BigCrush-scale statistical tests and
//! is more than adequate for synthetic workload generation and
//! property tests. Streams differ from the real crate's ChaCha12
//! `StdRng`: das-net's backoff jitter and das-load's schedules and
//! payloads pin this generator's exact values in their tests.

use std::ops::Range;

/// Types that can seed an RNG (subset of the real trait).
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A source of randomness with uniform range sampling.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from `[range.start, range.end)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_uniform(self, range)
    }

    /// A uniformly random value of a primitive type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// Types with a natural "any value" distribution.
pub trait Standard: Sized {
    /// Draw one value.
    fn from_rng<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types uniformly sampleable over a half-open range.
pub trait SampleUniform: Sized {
    /// Uniform sample from `[range.start, range.end)`.
    fn sample_uniform<R: Rng>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: Rng>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Multiply-shift bounded sampling; bias is < 2^-64 per
                // draw, irrelevant at workload-generation scale.
                let x = rng.next_u64() as u128;
                range.start + ((x * span) >> 64) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f32 {
    fn sample_uniform<R: Rng>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        let unit = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        range.start + unit * (range.end - range.start)
    }
}

impl SampleUniform for f64 {
    fn sample_uniform<R: Rng>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }
}

/// RNG implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic RNG (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_in_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.gen_range(-3i64..17);
            assert!((-3..17).contains(&x));
            let f = rng.gen_range(0.25f32..0.75);
            assert!((0.25..0.75).contains(&f));
            let u = rng.gen_range(0usize..5);
            assert!(u < 5);
        }
    }

    #[test]
    fn float_range_covers_span() {
        let mut rng = StdRng::seed_from_u64(2);
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for _ in 0..4000 {
            let v = rng.gen_range(-1.0f32..1.0);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo < -0.9 && hi > 0.9);
    }
}
