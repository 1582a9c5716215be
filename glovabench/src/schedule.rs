//! Benchmark inputs derived from the workload seed: campaign seeds,
//! shuffles and the open-loop arrival schedule. The generator is the
//! benchmark's own, so the inputs do not change when the program's RNG
//! helpers do.

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `(seed, stream)`; distinct streams of one seed are
    /// independent input families (campaign seeds, shuffles, arrivals).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_f64() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Due times (seconds from the schedule start) of `n` arrivals of an
/// open-loop Poisson process at `rate` requests per second, given that
/// all `n` fall in the window `[0, n / rate)`. The cumulative sums of
/// `n + 1` exponential gaps, scaled so that the last sum lands on the
/// window's end, are distributed as `n` sorted uniform draws on the
/// window: the law of a Poisson process given its count. Every schedule
/// therefore spans the same window and offers the same load; the seed
/// moves only where in it the arrivals bunch.
pub fn arrival_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    assert!(rate > 0.0, "need a positive rate");
    let mut rng = SplitMix64::new(seed, 0xA771);
    let mut t = 0.0;
    let sums: Vec<f64> = (0..=n)
        .map(|_| {
            // Inverse-CDF exponential gap; 1 − u ∈ (0, 1] keeps ln finite.
            t += -(1.0 - rng.next_f64()).ln();
            t
        })
        .collect();
    let scale = n as f64 / rate / t;
    sums[..n].iter().map(|s| s * scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(arrival_schedule(7, 4.0, 120), arrival_schedule(7, 4.0, 120));
        assert_ne!(arrival_schedule(7, 4.0, 120), arrival_schedule(8, 4.0, 120));
    }

    #[test]
    fn schedule_is_positive_and_increasing() {
        let due = arrival_schedule(3, 5.0, 100);
        assert_eq!(due.len(), 100);
        assert!(due[0] > 0.0);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn schedule_fills_its_window() {
        // 10 000 arrivals at 4/s span [0, 2500 s); the gap after the last
        // one has mean 0.25 s.
        let due = arrival_schedule(11, 4.0, 10_000);
        let last = *due.last().expect("arrivals");
        assert!((2490.0..2500.0).contains(&last), "last arrival at {last} s");
        // Half the arrivals in each half of the window (σ = 50).
        let early = due.iter().filter(|&&t| t < 1250.0).count();
        assert!((4750..5250).contains(&early), "{early} arrivals in the first half");
    }

    #[test]
    fn streams_differ_and_repeat() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(1, 0);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = SplitMix64::new(1, 0);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix64::new(1, 0).next_u64(), SplitMix64::new(1, 1).next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut xs: Vec<usize> = (0..20).collect();
        SplitMix64::new(9, 2).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
