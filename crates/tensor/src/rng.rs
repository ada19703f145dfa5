//! Deterministic pseudo-random number generation.
//!
//! The reproduction needs bitwise-reproducible initialization streams that
//! are identical whether a weight matrix is materialized on one device or
//! assembled from per-rank partitions. An in-tree xoshiro256** keeps the
//! stream stable across dependency upgrades (external RNG crates change
//! their value streams between major versions).

/// SplitMix64, used to expand a single `u64` seed into xoshiro state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 256-bit state.
#[derive(Clone, Debug)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the generator via SplitMix64 so that any `u64` seed (including
    /// zero) produces a well-mixed state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)` with 24 bits of mantissa entropy (exact for f32).
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform in `[0, 1)` with 53 bits of mantissa entropy.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)` for `lo < hi`. `lo + (hi − lo)·u` can round
    /// up to `hi` when the range is narrow against `lo`'s magnitude; such a
    /// draw becomes the largest `f32` below `hi` instead.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let x = lo + (hi - lo) * self.next_f32();
        if x < hi {
            x
        } else {
            hi.next_down().max(lo)
        }
    }

    /// Uniform integer in `[0, n)` via rejection-free Lemire reduction.
    /// Slightly biased for astronomically large `n`; fine for data shuffling.
    pub fn next_usize(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal via Box–Muller. Uses f64 internally for accuracy.
    pub fn normal(&mut self) -> f32 {
        loop {
            let u1 = self.next_f64();
            if u1 > 1e-12 {
                let u2 = self.next_f64();
                let r = (-2.0 * u1.ln()).sqrt();
                return (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Derives an independent child generator; used to give every rank /
    /// every parameter its own stream from one experiment seed.
    pub fn fork(&mut self, stream: u64) -> Self {
        let mix = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Self::seed_from_u64(mix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn uniform_never_returns_hi_on_a_narrow_range() {
        let (lo, hi) = (1.0, 1.0 + f32::EPSILON);
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x4E_A770);
        for draw in 0..100_000 {
            let x = rng.uniform(lo, hi);
            assert!(lo <= x && x < hi, "draw {draw}: {x} outside [{lo}, {hi})");
        }
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn next_usize_covers_range() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.next_usize(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Xoshiro256StarStar::seed_from_u64(5);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
