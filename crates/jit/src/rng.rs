//! Deterministic PRNG for workload generation.
//!
//! A hand-rolled xoshiro256** (seeded via SplitMix64) instead of the
//! `rand` crate, so that generated corpora — and every deterministic
//! number `repro` prints — do not move with `rand`'s major versions;
//! `tests/determinism.rs` checks that they are bit-stable run to run.

/// xoshiro256** by Blackman & Vigna; state seeded with SplitMix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// A generator seeded deterministically from `seed`.
    pub fn new(seed: u64) -> Xoshiro256 {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 { s: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit value.
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

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "range must be non-empty");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform integer in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Index drawn proportionally to `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Geometric-flavoured positive integer with the given mean, capped.
    ///
    /// Used for block lengths: many small blocks, a tail of large ones.
    pub fn skewed_len(&mut self, mean: f64, max: usize) -> usize {
        debug_assert!(mean >= 1.0);
        let u = self.next_f64().max(1e-12);
        let len = 1.0 + (-u.ln()) * (mean - 1.0);
        (len as usize).clamp(1, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Xoshiro256::new(7);
        let mut b = Xoshiro256::new(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::new(8);
        assert_ne!(Xoshiro256::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::new(1);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_and_range_bounds() {
        let mut r = Xoshiro256::new(2);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
        }
        assert_eq!(r.range(4, 4), 4);
    }

    #[test]
    fn weighted_respects_zero_weight() {
        let mut r = Xoshiro256::new(3);
        for _ in 0..500 {
            let i = r.weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_roughly_proportional() {
        let mut r = Xoshiro256::new(4);
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[r.weighted(&[1.0, 3.0])] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((0.70..0.80).contains(&frac), "got {frac}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xoshiro256::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn skewed_len_mean_and_bounds() {
        let mut r = Xoshiro256::new(6);
        let n = 20_000;
        let mut sum = 0usize;
        for _ in 0..n {
            let l = r.skewed_len(8.0, 40);
            assert!((1..=40).contains(&l));
            sum += l;
        }
        let mean = sum as f64 / n as f64;
        assert!((6.0..10.0).contains(&mean), "mean {mean} drifted");
    }
}
