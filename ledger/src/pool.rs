//! Seeded inputs. The programs under test see only what is generated
//! here; the same seed gives the same inputs on every host.

/// Vectors per input pool. Ops cycle through the pool.
pub const POOL_SIZE: usize = 256;

/// SplitMix64: small, seedable, and identical everywhere.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-0.4, 0.4)`, the range of the demo models' inputs.
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.8
    }
}

/// `POOL_SIZE` input vectors of `dim` elements drawn from `seed`.
pub fn input_pool(seed: u64, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(seed);
    (0..POOL_SIZE)
        .map(|_| (0..dim).map(|_| rng.next_f32()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        let a = input_pool(42, 16);
        assert_eq!(a, input_pool(42, 16));
        assert_ne!(a, input_pool(43, 16));
        assert_eq!(a.len(), POOL_SIZE);
        assert!(a.iter().all(|v| v.len() == 16));
        assert!(a.iter().flatten().all(|x| (-0.4..0.4).contains(x)));
        assert_ne!(a[0], a[1]);
    }
}
