//! SplitMix64: the harness's only source of randomness, so a `--seed`
//! fixes every generated input byte for byte.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-generator `k` of this seed.
    pub fn fork(seed: u64, k: u64) -> Self {
        let mut r = Rng(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}
