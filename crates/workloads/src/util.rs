//! Shared helpers for workload construction: a deterministic PRNG for
//! input generation (inputs must be reproducible without pulling `rand`
//! into the library), and builder conveniences.

/// A tiny xorshift64* generator for deterministic input synthesis.
#[derive(Clone, Debug)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Seeds the generator (zero seeds are fixed up).
    pub fn new(seed: u64) -> Self {
        XorShift {
            state: seed | 0x9E37_79B9,
        }
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `i64` in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Bernoulli draw with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range(-5, 5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = XorShift::new(1);
        let hits = (0..10_000).filter(|_| r.chance(1, 4)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }
}
