//! A tiny deterministic PRNG for the test crates, which build offline
//! without a property-testing framework. Each crate uses a subset.
#![allow(dead_code)]

/// A tiny deterministic PRNG (splitmix64) — good enough statistical
/// quality for test-case generation, no dependencies, and fully
/// reproducible from the seed.
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Prng {
        Prng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// A vec of `range(lo, hi)` values with random length in
    /// `[min_len, max_len)`.
    pub fn vec(&mut self, lo: u64, hi: u64, min_len: usize, max_len: usize) -> Vec<u64> {
        let n = self.usize_range(min_len, max_len);
        (0..n).map(|_| self.range(lo, hi)).collect()
    }
}

/// Runs `body` for `cases` seeded cases, labelling failures.
pub fn check(cases: u64, body: impl Fn(&mut Prng)) {
    for seed in 0..cases {
        let mut rng = Prng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&mut rng);
        }));
        if let Err(e) = result {
            eprintln!("property failed for seed {seed}");
            std::panic::resume_unwind(e);
        }
    }
}
