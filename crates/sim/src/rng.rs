//! Deterministic pseudo-random number generation.
//!
//! Experiments must be reproducible from a single `u64` seed, independent of
//! the `rand` crate's unspecified `StdRng` algorithm, so the generator is
//! implemented here: xoshiro256++ seeded through SplitMix64 (the reference
//! seeding procedure). [`rand::RngCore`] is implemented so the generator still
//! composes with `rand` distributions where convenient.

/// SplitMix64: used to expand a 64-bit seed into xoshiro state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
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

/// xoshiro256++ 1.0, a fast, high-quality, small-state generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Deterministically seed from a single 64-bit value.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = sm.next_u64();
        }
        // All-zero state is invalid for xoshiro; SplitMix64 cannot produce
        // four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Derive an independent stream for a subcomponent. Streams with distinct
    /// `stream_id`s are statistically independent for practical purposes.
    pub fn derive(&self, stream_id: u64) -> SimRng {
        // Mix the current state with the stream id through SplitMix64.
        let mut sm = SplitMix64::new(
            self.s[0] ^ self.s[2].rotate_left(17) ^ stream_id.wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = sm.next_u64();
        }
        SimRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, bound). Panics if bound is zero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range [lo, hi].
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Exponentially distributed sample with the given mean (for Poisson
    /// inter-arrival times in the cross-traffic generators).
    pub fn exp_with_mean(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "invalid mean {mean}");
        // Inversion: -mean * ln(1 - U), with U in [0,1) so the argument is
        // in (0,1] and the log is finite.
        -mean * (1.0 - self.next_f64()).ln()
    }
}

impl rand::RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        SimRng::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&SimRng::next_u64(self).to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = SimRng::next_u64(self).to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_independent_and_deterministic() {
        let root = SimRng::seed_from_u64(7);
        let mut s1 = root.derive(1);
        let mut s1b = root.derive(1);
        let mut s2 = root.derive(2);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_unbiased_coverage() {
        let mut r = SimRng::seed_from_u64(13);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.next_below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8000..12000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = SimRng::seed_from_u64(17);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match r.range_inclusive(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn exp_mean_close() {
        let mut r = SimRng::seed_from_u64(19);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp_with_mean(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(23);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn rngcore_fill_bytes_deterministic() {
        use rand::RngCore;
        let mut a = SimRng::seed_from_u64(31);
        let mut b = SimRng::seed_from_u64(31);
        let mut ba = [0u8; 13];
        let mut bb = [0u8; 13];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
    }
}
