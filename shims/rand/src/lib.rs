//! Minimal `rand` stand-in.
//!
//! The workspace must build with no network access, so the real crate cannot
//! be downloaded. This shim provides a deterministic [`rngs::SmallRng`]
//! (splitmix64-seeded xoshiro256**) with the `Rng`/`SeedableRng` surface the
//! workspace uses: `gen::<f64>()`, `gen::<u64>()`, `gen_bool`, and
//! `gen_range` over integer and float ranges.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    /// Small, fast, deterministic PRNG (xoshiro256**).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        pub(crate) s: [u64; 4],
    }

    impl SmallRng {
        pub(crate) fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

use rngs::SmallRng;

/// Construction of RNGs from seeds.
pub trait SeedableRng: Sized {
    /// Deterministically build an RNG from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 expansion, the standard way to seed xoshiro.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SmallRng {
            s: [next(), next(), next(), next()],
        }
    }
}

/// Types samplable uniformly over their whole domain ([`Rng::gen`]).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample(rng: &mut SmallRng) -> Self;
}

impl Standard for u64 {
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut SmallRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample(rng: &mut SmallRng) -> Self {
        // 53 mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draw one value inside the range.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_int_range!(u64, u32, usize, i64);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// The sampling methods the workspace uses on its RNGs.
pub trait Rng {
    /// Draw a uniform value over `T`'s domain (`[0, 1)` for floats).
    fn gen<T: Standard>(&mut self) -> T;
    /// Draw a value uniformly inside `range`.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output;
    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for SmallRng {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

/// `rand::prelude` equivalent: the traits plus the small RNG.
pub mod prelude {
    pub use super::rngs::SmallRng;
    pub use super::{Rng, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..7);
            assert!((3..7).contains(&v));
            let w = rng.gen_range(0u64..=5);
            assert!(w <= 5);
            let f = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!(c > 700 && c < 1300, "skewed bucket: {c}");
        }
    }
}
