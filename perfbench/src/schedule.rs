//! Seeded inputs: a small PRNG and the open-loop arrival schedule.
//!
//! Every input a workload hands the program is drawn from [`Rng`]
//! seeded by `--seed`, so one seed always produces the same captures,
//! requests and send times.

/// SplitMix64: tiny, seedable, and enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`, so one request can be
    /// regenerated from its index without replaying the whole sequence.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Send offsets, in seconds from the start of a timed phase, of a
/// Poisson arrival process at `rate` per second over `seconds`,
/// conditioned on its mean count `round(rate × seconds)`.
///
/// Given its count, a Poisson process's arrival times are sorted
/// independent uniforms. Fixing the count fixes the sample size, so the
/// tail percentile a run reports is the same one on every seed, while
/// the gaps stay exponential: fixed-interval pacing made p50 jump
/// between two modes on identical code.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut t: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    t.sort_by(f64::total_cmp);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_an_identical_schedule() {
        let a = poisson_schedule(&mut Rng::stream(7, 0), 100.0, 10.0);
        let b = poisson_schedule(&mut Rng::stream(7, 0), 100.0, 10.0);
        let c = poisson_schedule(&mut Rng::stream(8, 0), 100.0, 10.0);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_ne!(a, c);
    }

    #[test]
    fn realised_rate_is_within_two_percent_and_gaps_are_exponential() {
        for (seed, rate, seconds) in [(1, 100.0, 10.0), (2, 400.0, 10.0), (3, 100.0, 5.0)] {
            let t = poisson_schedule(&mut Rng::stream(seed, 0), rate, seconds);
            assert!(t.windows(2).all(|w| w[0] <= w[1]));
            assert!(t.iter().all(|&x| (0.0..seconds).contains(&x)));
            let realised = (t.len() - 1) as f64 / (t[t.len() - 1] - t[0]);
            assert!(
                (realised / rate - 1.0).abs() < 0.02,
                "seed {seed}: realised {realised} vs {rate}"
            );
            // Half the gaps of an exponential lie below ln2 / rate; a
            // fixed-interval schedule has none there.
            let gaps: Vec<f64> = t.windows(2).map(|w| w[1] - w[0]).collect();
            let short = gaps.iter().filter(|&&g| g < std::f64::consts::LN_2 / rate);
            let share = short.count() as f64 / gaps.len() as f64;
            assert!((share - 0.5).abs() < 0.05, "seed {seed}: share {share}");
        }
    }
}
