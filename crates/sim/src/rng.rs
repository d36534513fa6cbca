//! Seeded, splittable random-number utilities.
//!
//! Every stochastic component of the reproduction (topology generation, workflow generation,
//! gossip peer sampling, churn, ...) draws from its own [`SimRng`], derived from a single
//! experiment seed plus a component label.  Deriving independent streams — rather than sharing
//! one RNG — means that changing the number of random draws in one component does not perturb
//! any other component, which keeps regression tests meaningful.
//!
//! The generator is an in-tree ChaCha8 stream cipher RNG (the build environment is offline, so
//! no `rand` / `rand_chacha` dependency): fast, high quality, portable and reproducible across
//! platforms.  The 64-bit ChaCha nonce doubles as the *stream number*, which is what makes the
//! cheap [`SimRng::derive`] label-splitting possible.

/// The ChaCha8 core: 512-bit state, 8 rounds, 64-bit block counter + 64-bit stream nonce.
#[derive(Debug, Clone)]
struct ChaCha8 {
    key: [u32; 8],
    stream: u64,
    counter: u64,
    buf: [u32; 16],
    /// Next unread word of `buf`; 16 means "refill before use".
    idx: usize,
}

/// `"expand 32-byte k"` in little-endian words.
const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8 {
    fn new(key: [u32; 8], stream: u64) -> Self {
        ChaCha8 {
            key,
            stream,
            counter: 0,
            buf: [0; 16],
            idx: 16,
        }
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = self.stream as u32;
        state[15] = (self.stream >> 32) as u32;
        let input = state;
        for _ in 0..4 {
            // One double round: a column round followed by a diagonal round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.buf = state;
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

/// Expand a 64-bit seed into key material (splitmix64, the conventional seed expander).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic random-number generator for simulation components.
///
/// Internally a ChaCha8 stream cipher RNG: fast, high quality, portable and reproducible
/// across platforms.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8,
}

impl SimRng {
    /// Create a generator from a raw 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let w = splitmix64(&mut s);
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        SimRng {
            inner: ChaCha8::new(key, 0),
        }
    }

    /// Derive an independent generator for a named sub-component.
    ///
    /// The derivation hashes the label into the ChaCha stream number, so `derive("gossip")` and
    /// `derive("churn")` from the same parent never overlap.  The child depends only on the
    /// parent's key and the label — never on how many values the parent has already produced.
    pub fn derive(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng {
            inner: ChaCha8::new(self.inner.key, h),
        }
    }

    /// Derive an independent generator for an indexed sub-component (e.g. per node).
    pub fn derive_indexed(&self, label: &str, index: u64) -> SimRng {
        self.derive(&format!("{label}#{index}"))
    }

    /// Sample a value uniformly from `range`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        let (lo, hi, inclusive) = range.bounds();
        T::sample_in(self, lo, hi, inclusive)
    }

    /// Sample a uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Sample a uniform `u64`.
    pub fn gen_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Return `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.gen_f64() < p
    }

    /// Choose a uniformly random element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.uniform_u64(slice.len() as u64) as usize;
            Some(&slice[i])
        }
    }

    /// Choose `amount` distinct elements of `slice` uniformly at random (fewer if the slice is
    /// shorter), preserving no particular order.
    pub fn choose_multiple<'a, T>(&mut self, slice: &'a [T], amount: usize) -> Vec<&'a T> {
        let amount = amount.min(slice.len());
        // Partial Fisher–Yates over an index vector: the first `amount` positions end up
        // holding a uniform sample without replacement.
        let mut idx: Vec<usize> = (0..slice.len()).collect();
        for i in 0..amount {
            let j = i + self.uniform_u64((slice.len() - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx[..amount].iter().map(|&i| &slice[i]).collect()
    }

    /// Uniform integer in `[0, span)` (`span == 0` means the full 64-bit range), using Lemire's
    /// nearly-divisionless rejection method so every value is exactly equally likely.
    fn uniform_u64(&mut self, span: u64) -> u64 {
        if span == 0 {
            return self.inner.next_u64();
        }
        loop {
            let x = self.inner.next_u64();
            let m = (x as u128) * (span as u128);
            let low = m as u64;
            if low < span {
                let threshold = span.wrapping_neg() % span;
                if low < threshold {
                    continue;
                }
            }
            return (m >> 64) as u64;
        }
    }
}

/// Types that [`SimRng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy {
    /// Sample uniformly from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    ///
    /// For integers the inclusive upper bound is honoured exactly.  For floats the
    /// distinction is measure-zero, so both range forms sample the continuous `[lo, hi)`
    /// (a degenerate `lo..=lo` returns `lo`).
    fn sample_in(rng: &mut SimRng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

/// Range types accepted by [`SimRng::gen_range`].
pub trait SampleRange<T> {
    /// Decompose into `(low, high, inclusive)`.
    fn bounds(self) -> (T, T, bool);
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        let (lo, hi) = self.into_inner();
        (lo, hi, true)
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in(rng: &mut SimRng, lo: Self, hi: Self, inclusive: bool) -> Self {
                let span = (hi as i128) - (lo as i128) + if inclusive { 1 } else { 0 };
                assert!(span > 0, "gen_range called with an empty range");
                // span <= 2^64 for every supported width; 2^64 truncates to 0, which
                // uniform_u64 treats as "full range".
                let offset = rng.uniform_u64(span as u64);
                ((lo as i128) + offset as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in(rng: &mut SimRng, lo: Self, hi: Self, inclusive: bool) -> Self {
                assert!(
                    if inclusive { lo <= hi } else { lo < hi },
                    "gen_range called with an empty range"
                );
                let v = lo + (hi - lo) * (rng.gen_f64() as $t);
                // `lo + (hi-lo)*f` can round up to exactly `hi` (and the f64→f32 narrowing can
                // round a draw up to 1.0), which would leak the excluded upper bound of the
                // half-open contract; clamp to the largest value below `hi`.
                if v >= hi && hi > lo {
                    hi.next_down()
                } else {
                    v
                }
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..32).map(|_| a.gen_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.gen_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.gen_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derived_streams_are_independent_and_reproducible() {
        let root = SimRng::seed_from_u64(7);
        let mut g1 = root.derive("gossip");
        let mut g2 = root.derive("gossip");
        let mut c1 = root.derive("churn");
        let a: Vec<u64> = (0..16).map(|_| g1.gen_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| g2.gen_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| c1.gen_u64()).collect();
        assert_eq!(a, b, "same label must reproduce the same stream");
        assert_ne!(a, c, "different labels must give different streams");
    }

    #[test]
    fn derive_is_position_independent() {
        // Deriving after consuming values must give the same child stream as deriving first:
        // the child depends only on the key and the label, never on the parent's position.
        let root = SimRng::seed_from_u64(7);
        let mut before = root.derive("x");
        let mut consumed = root.clone();
        let _ = consumed.gen_u64();
        let mut after = consumed.derive("x");
        assert_eq!(before.gen_u64(), after.gen_u64());
    }

    #[test]
    fn derive_indexed_distinguishes_indices() {
        let root = SimRng::seed_from_u64(7);
        let mut n0 = root.derive_indexed("node", 0);
        let mut n1 = root.derive_indexed("node", 1);
        assert_ne!(n0.gen_u64(), n1.gen_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x: u64 = rng.gen_range(100..=10_000);
            assert!((100..=10_000).contains(&x));
            let f: f64 = rng.gen_range(0.1..10.0);
            assert!((0.1..10.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.gen_bool(2.0));
        assert!(!rng.gen_bool(-1.0));
    }

    #[test]
    fn choose_picks_from_the_slice() {
        let mut rng = SimRng::seed_from_u64(11);
        let items = [1, 2, 3, 4, 5];
        assert!(items.contains(rng.choose(&items).unwrap()));
        assert!(rng.choose::<u32>(&[]).is_none());
        let picked = rng.choose_multiple(&items, 3);
        assert_eq!(picked.len(), 3);
        let picked_all = rng.choose_multiple(&items, 50);
        assert_eq!(picked_all.len(), items.len());
    }

    #[test]
    fn choose_multiple_is_without_replacement() {
        let mut rng = SimRng::seed_from_u64(13);
        let items: Vec<u32> = (0..50).collect();
        for _ in 0..20 {
            let picked = rng.choose_multiple(&items, 10);
            let unique: std::collections::HashSet<_> = picked.iter().collect();
            assert_eq!(unique.len(), 10, "sampled element twice");
        }
    }

    #[test]
    fn uniform_distribution_is_roughly_flat() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[rng.gen_range(0usize..10)] += 1;
        }
        for &count in &buckets {
            assert!(
                (800..=1200).contains(&count),
                "bucket count {count} is far from the expected 1000"
            );
        }
    }
}
