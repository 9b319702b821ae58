//! The deterministic PRNG: SplitMix64 seeding a xoshiro256++ core.
//!
//! Every random decision in the workspace — coin flips in Ben-Or, drawn
//! values in Itai–Rodeh, adversarial schedules, channel loss — flows through
//! [`DetRng`]. A run is a pure function of its seed: same seed, same
//! transcript, on every platform, forever. See the crate docs for the
//! seeding discipline and the stream-splitting rationale.

use core::ops::{Range, RangeInclusive};

/// Golden-ratio increment used by SplitMix64.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output function (Steele–Lea–Flood mixing constants).
///
/// Used both to expand a 64-bit seed into xoshiro's 256-bit state and to
/// decorrelate stream identifiers in [`DetRng::stream`].
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded deterministic random number generator.
///
/// The core is xoshiro256++ (Blackman–Vigna): 256 bits of state, period
/// `2^256 − 1`, passes BigCrush, and is a few instructions per draw. The
/// 64-bit seed is expanded into the initial state with SplitMix64, which
/// guarantees a nonzero, well-mixed state for *every* seed — including the
/// adjacent seeds (`0, 1, 2, ...`) that experiment sweeps use.
///
/// ```
/// use impossible_det::DetRng;
/// let mut a = DetRng::seed_from_u64(42);
/// let mut b = DetRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed ⇒ same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// A generator deterministically derived from `seed`.
    ///
    /// The name matches the convention the workspace's simulators were
    /// written against, so call sites read identically after the hermetic
    /// migration.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// An independent generator for stream `stream_id` under `seed`.
    ///
    /// Use this when several entities (processes, adversaries, channels) in
    /// one simulation each need private coins: `stream(seed, i)` for entity
    /// `i` gives streams that are reproducible from `(seed, i)` alone and
    /// statistically independent even for adjacent ids. Both coordinates go
    /// through the SplitMix64 finalizer before combining, so `(seed=1, id=2)`
    /// and `(seed=2, id=1)` do not collide the way naive `seed + id`
    /// schemes do.
    pub fn stream(seed: u64, stream_id: u64) -> Self {
        let mut a = seed;
        let mut b = stream_id ^ 0x6A09_E667_F3BC_C909; // √2 fractional bits
        Self::seed_from_u64(splitmix64(&mut a).wrapping_add(splitmix64(&mut b).rotate_left(32)))
    }

    /// Split off an independent child generator, advancing `self`.
    ///
    /// Each call draws one value from `self` and seeds a fresh generator
    /// from it, so a parent can hand out per-process generators in a loop
    /// while remaining deterministic: the k-th split is a function of the
    /// parent's seed and k.
    pub fn split(&mut self) -> Self {
        let seed = self.next_u64();
        Self::seed_from_u64(seed)
    }

    /// The next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Top 53 bits scaled by 2^-53: the standard uniform-double recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An unbiased uniform draw from `[0, n)` (`n > 0`).
    ///
    /// Lemire's multiply-shift rejection method: a single widening multiply
    /// in the common case, with rejection only in the biased zone.
    #[inline]
    pub fn bounded_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "bounded_u64: n must be positive");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform draw from `range` (integer or float, `..` or `..=`).
    ///
    /// ```
    /// use impossible_det::DetRng;
    /// let mut rng = DetRng::seed_from_u64(7);
    /// let coin: u64 = rng.gen_range(0..=1);
    /// assert!(coin <= 1);
    /// let jitter = rng.gen_range(-1.0..1.0);
    /// assert!((-1.0..1.0).contains(&jitter));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on an empty range (and, for floats, on non-finite bounds).
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} not in [0, 1]");
        // next_f64 < 1.0 always holds, so p = 1.0 is always true and
        // p = 0.0 always false, as expected.
        self.next_f64() < p
    }

    /// `true` with probability `num/den`, in exact integer arithmetic.
    ///
    /// This is the float-free sibling of [`gen_bool`](Self::gen_bool) for
    /// engine and protocol crates (which the `det-float` lint keeps free
    /// of `f64`): the bias is a ratio of integers, so the acceptance set
    /// is exact — `gen_ratio(300, 1000)` is *precisely* 300 of the 1000
    /// equiprobable outcomes, with no rounding and no platform-shaped
    /// threshold. `gen_ratio(1, 2)` is a fair coin; `gen_ratio(0, d)` is
    /// always false and `gen_ratio(d, d)` always true.
    ///
    /// ```
    /// use impossible_det::DetRng;
    /// let mut rng = DetRng::seed_from_u64(7);
    /// let hits = (0..1000).filter(|_| rng.gen_ratio(1, 4)).count();
    /// assert!((150..350).contains(&hits));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or `num > den`.
    #[inline]
    pub fn gen_ratio(&mut self, num: u32, den: u32) -> bool {
        assert!(
            den > 0 && num <= den,
            "gen_ratio: {num}/{den} is not a probability"
        );
        self.bounded_u64(u64::from(den)) < u64::from(num)
    }

    /// Fisher–Yates shuffle of `xs` in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A range that [`DetRng::gen_range`] can sample a `T` from.
///
/// Implemented for `Range` and `RangeInclusive` over the integer types the
/// workspace uses and over `f64`. Integer sampling is exact (no modulo
/// bias); float sampling is `lo + u·(hi − lo)` with the half-open upper
/// bound enforced.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample(self, rng: &mut DetRng) -> T;
}

macro_rules! impl_sample_int {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range {:?}", self);
                // Two's-complement subtraction gives the span for signed
                // types too; it always fits in the unsigned twin.
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                self.start.wrapping_add(rng.bounded_u64(span as u64) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut DetRng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let span = (hi as $u).wrapping_sub(lo as $u).wrapping_add(1);
                if span as u64 == 0 {
                    // Full 64-bit domain: every output is valid.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.bounded_u64(span as u64) as $t)
            }
        }
    )*};
}

impl_sample_int!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut DetRng) -> f64 {
        assert!(
            self.start.is_finite() && self.end.is_finite() && self.start < self.end,
            "gen_range: bad float range {:?}",
            self
        );
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // Floating-point rounding can land exactly on the excluded upper
        // bound; clamp just below it.
        if v >= self.end {
            self.end.next_down()
        } else {
            v
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample(self, rng: &mut DetRng) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "gen_range: bad float range {lo}..={hi}"
        );
        lo + rng.next_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(123);
        let mut b = DetRng::seed_from_u64(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = DetRng::seed_from_u64(9);
        for _ in 0..5000 {
            let x = rng.gen_range(3u64..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let z = rng.gen_range(0usize..1);
            assert_eq!(z, 0);
            let f = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&f));
            let g = rng.gen_range(1.25..=1.25);
            assert_eq!(g, 1.25);
        }
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..600 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn gen_bool_frequency_tracks_p() {
        let mut rng = DetRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn gen_ratio_is_exact_at_the_edges_and_tracks_the_ratio() {
        let mut rng = DetRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_ratio(3, 10)).count();
        assert!((2_500..3_500).contains(&hits), "hits {hits}");
        assert!(!rng.gen_ratio(0, 7));
        assert!(rng.gen_ratio(7, 7));
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn gen_ratio_rejects_improper_fractions() {
        DetRng::seed_from_u64(0).gen_ratio(3, 2);
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut xs: Vec<u32> = (0..50).collect();
        DetRng::seed_from_u64(77).shuffle(&mut xs);
        let mut ys: Vec<u32> = (0..50).collect();
        DetRng::seed_from_u64(77).shuffle(&mut ys);
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "a 50-element shuffle should move something");
    }

    #[test]
    fn streams_and_splits_are_independent() {
        let mut s0 = DetRng::stream(42, 0);
        let mut s1 = DetRng::stream(42, 1);
        assert_ne!(
            (0..8).map(|_| s0.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| s1.next_u64()).collect::<Vec<_>>()
        );
        // Symmetric (seed, id) pairs must not collide.
        let mut a = DetRng::stream(1, 2);
        let mut b = DetRng::stream(2, 1);
        assert_ne!(a.next_u64(), b.next_u64());

        let mut parent = DetRng::seed_from_u64(6);
        let mut c0 = parent.split();
        let mut c1 = parent.split();
        assert_ne!(c0.next_u64(), c1.next_u64());
        // Replaying the parent replays the children.
        let mut parent2 = DetRng::seed_from_u64(6);
        assert_eq!(parent2.split(), DetRng::seed_from_u64({
            let mut p = DetRng::seed_from_u64(6);
            p.next_u64()
        }));
    }

    #[test]
    fn bounded_u64_is_roughly_uniform() {
        let mut rng = DetRng::seed_from_u64(8);
        let n = 7u64;
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.bounded_u64(n) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        DetRng::seed_from_u64(0).gen_range(5u64..5);
    }
}
