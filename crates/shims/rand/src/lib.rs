//! Offline shim for the `rand` crate.
//!
//! The build environment resolves crates without network access, so this
//! workspace vendors the subset of `rand`'s API it actually uses:
//! [`RngCore`], [`Rng`] (`gen`, `gen_bool`, `gen_range`, `fill`),
//! [`SeedableRng`] (with the SplitMix64-based `seed_from_u64` the real
//! crate documents), and [`seq::SliceRandom`] (`shuffle`, `choose`).
//!
//! Algorithms follow the published `rand` 0.8 behavior where it matters
//! for quality (53-bit float generation, Fisher–Yates shuffling); exact
//! stream-compatibility with upstream is *not* a goal — every consumer and
//! producer of randomness in this workspace goes through this shim, so
//! determinism only has to hold internally.

pub mod seq;

/// The core of a random number generator.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A random number generator seedable from a fixed-size byte seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it with SplitMix64
    /// exactly like `rand` 0.8 does.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            // SplitMix64 (Vigna); rand uses this to spread entropy over
            // the full seed so nearby u64 seeds give unrelated streams.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = (z as u32).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types that can be sampled uniformly from the generator's raw output
/// (the shim's stand-in for `Standard: Distribution<T>`).
pub trait StandardSample: Sized {
    /// Draws one uniformly distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty => $via:ident),*) => {$(
        impl StandardSample for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}

impl_standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32,
                   i8 => next_u32, i16 => next_u32, i32 => next_u32,
                   u64 => next_u64, i64 => next_u64,
                   usize => next_u64, isize => next_u64);

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random bits scaled into [0, 1), as in rand's `Standard`.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges (and range-likes) that can produce a uniform sample.
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX as u64 {
                    return rng.next_u64() as $t;
                }
                lo + (uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

macro_rules! impl_range_int {
    ($($t:ty : $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_range_uint!(u8, u16, u32, u64, usize);
impl_range_int!(i8: u8, i16: u16, i32: u32, i64: u64, isize: usize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as StandardSample>::sample_standard(rng);
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let unit = <$t as StandardSample>::sample_standard(rng);
                lo + unit * (hi - lo)
            }
        }
    )*};
}

impl_range_float!(f32, f64);

/// Uniform integer in `[0, span)` via widening multiply (Lemire); unbiased
/// enough for every use in this workspace and branch-free in the common
/// case.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Widening multiply maps the 64-bit output onto [0, span) almost
    // uniformly; rejecting a low word below `2^64 mod span` removes the
    // residual bias. That threshold is below `span`, so the division that
    // computes it runs only when the low word is (Lemire's nearly
    // divisionless test); outputs and words consumed are unchanged.
    let mut m = u128::from(rng.next_u64()) * u128::from(span);
    if (m as u64) < span {
        let threshold = span.wrapping_neg() % span;
        while (m as u64) < threshold {
            m = u128::from(rng.next_u64()) * u128::from(span);
        }
    }
    (m >> 64) as u64
}

/// User-facing generator methods; blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0, 1]");
        <f64 as StandardSample>::sample_standard(self) < p
    }

    /// Draws a uniform value from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Fills `dest` with random data.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Counter(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w: i64 = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        let mut rng = Counter(7);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Counter(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }
}
