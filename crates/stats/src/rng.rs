//! Seedable random number generation.
//!
//! All stochastic behaviour in BDPS flows through [`SimRng`] so that a run is
//! fully reproducible from a single `u64` seed. Simulation sweeps derive one
//! independent stream per cell via [`SimRng::split`], which hashes the parent
//! seed with a stream index (SplitMix64) — cells can then run in parallel
//! without sharing any RNG state.

/// A seedable RNG with convenience helpers used throughout the workspace.
///
/// The generator is xoshiro256++ seeded through SplitMix64, implemented
/// in-crate so the workspace stays dependency-free; all that matters for the
/// simulations is determinism and reasonable equidistribution, both of which
/// xoshiro provides.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// The SplitMix64 finaliser, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            seed,
        }
    }

    /// The next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3x = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3x;
        s2 ^= t;
        self.state = [s0, s1, s2, s3x.rotate_left(45)];
        result
    }

    /// The seed this RNG was created from (for reporting / reproducibility).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The current internal state words — the generator's exact stream
    /// position. Used by the model-checking explorer to include RNG
    /// progression in its state digests, so two branches only deduplicate
    /// when their futures draw identical random values.
    pub fn state_words(&self) -> [u64; 4] {
        self.state
    }

    /// Derives an independent child RNG for the given stream index.
    ///
    /// Uses the SplitMix64 finaliser over `seed ⊕ golden-ratio·(index+1)`,
    /// which decorrelates nearby indices.
    pub fn split(&self, stream: u64) -> SimRng {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed_from(z)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`. `lo` must be `<= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform_range requires lo <= hi");
        if lo == hi {
            lo
        } else {
            let x = lo + self.uniform() * (hi - lo);
            // Floating-point rounding can land exactly on `hi`; clamp to the
            // next representable value below it to keep the interval half-open.
            if x >= hi {
                lo.max(hi.next_down())
            } else {
                x
            }
        }
    }

    /// A uniform integer in `[lo, hi)`. `lo` must be `< hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "uniform_usize requires lo < hi");
        let span = (hi - lo) as u64;
        // Unbiased-enough widening multiply (Lemire reduction without the
        // rejection step; bias is < 2^-64 per draw, far below anything the
        // simulations can resolve).
        let wide = (self.next_u64() as u128) * (span as u128);
        lo + (wide >> 64) as usize
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// A standard-normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        // Box-Muller: avoid u1 == 0 so that ln(u1) is finite.
        let u1 = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// An exponential sample with the given rate (events per unit time).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Chooses one element of a non-empty slice uniformly at random.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.uniform_usize(0, items.len())]
    }

    /// Chooses `k` distinct indices out of `0..n` uniformly at random
    /// (partial Fisher–Yates). Returns fewer than `k` if `k > n`.
    pub fn choose_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = self.uniform_usize(i, n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let root = SimRng::seed_from(99);
        let mut c1 = root.split(0);
        let c2 = root.split(1);
        let mut c1_again = root.split(0);
        assert_eq!(c1.uniform().to_bits(), c1_again.uniform().to_bits());
        assert_ne!(c1.seed(), c2.seed());
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1_000 {
            let x = rng.uniform_range(50.0, 100.0);
            assert!((50.0..100.0).contains(&x));
        }
        assert_eq!(rng.uniform_range(3.0, 3.0), 3.0);
        // The half-open contract holds even when the span is tiny relative
        // to the magnitude (where any fixed-epsilon clamp would round back
        // to `hi`).
        let lo = 1e9f64;
        let hi = lo.next_up();
        for _ in 0..100 {
            assert_eq!(rng.uniform_range(lo, hi), lo);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(7.0));
    }

    #[test]
    fn exponential_mean_is_one_over_rate() {
        let mut rng = SimRng::seed_from(11);
        let rate = 0.25;
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::seed_from(13);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn choose_picks_from_the_slice() {
        let mut rng = SimRng::seed_from(17);
        let items = [1, 2, 3, 4, 5];
        for _ in 0..50 {
            assert!(items.contains(rng.choose(&items)));
        }
    }

    #[test]
    fn choose_distinct_returns_unique_indices() {
        let mut rng = SimRng::seed_from(23);
        for _ in 0..100 {
            let picked = rng.choose_distinct(8, 2);
            assert_eq!(picked.len(), 2);
            assert_ne!(picked[0], picked[1]);
            assert!(picked.iter().all(|&i| i < 8));
        }
        assert_eq!(rng.choose_distinct(3, 10).len(), 3);
        assert!(rng.choose_distinct(0, 2).is_empty());
    }
}
