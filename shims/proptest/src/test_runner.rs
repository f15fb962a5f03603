//! Deterministic test runner state: per-case RNG, config, and the
//! error type `prop_assert!` returns.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration. Only the case count is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed property case (no shrinking: carries the message only).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Fail the current case with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Deterministic per-case RNG: the rand shim's [`StdRng`] seeded from
/// the test's fully qualified name and the case index. The same test
/// sees the same inputs on every run and every machine.
#[derive(Debug, Clone)]
pub struct TestRng {
    rng: StdRng,
}

impl TestRng {
    /// RNG for case `case` of the named test.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        // FNV-1a over the name, then fold in the case index.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut rng = TestRng {
            rng: StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E3779B97F4A7C15)),
        };
        rng.next_u64(); // decorrelate nearby seeds
        rng
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform value in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "TestRng::below(0)");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Uniform usize in `[lo, hi)`. Panics if the range is empty.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::TestRng;

    #[test]
    fn per_case_streams_differ_but_repeat() {
        let mut a = TestRng::for_case("mod::t", 0);
        let mut a2 = TestRng::for_case("mod::t", 0);
        let mut b = TestRng::for_case("mod::t", 1);
        assert_eq!(a.next_u64(), a2.next_u64());
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn streams_are_the_ones_property_tests_have_always_seen() {
        let mut rng = TestRng::for_case("mod::t", 0);
        let first = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(first, [0xd13d3b13ad9372f5, 0xfe4abd70af5a431e, 0xa64d8ec81f7dea49]);
    }

    #[test]
    fn below_is_bounded() {
        let mut rng = TestRng::for_case("bounds", 3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            let v = rng.usize_in(2, 5);
            assert!((2..5).contains(&v));
        }
    }
}
