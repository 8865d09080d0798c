//! Random distributions used by the workload and churn models.
//!
//! Implemented here (rather than pulling `rand_distr`) to keep the
//! dependency set minimal: exponential and normal draws for inter-arrival
//! and lifetime models, Zipf for content popularity, plus
//! distinct-sampling helpers.

use rand::Rng;

/// Draws from an exponential distribution with the given `mean` (> 0).
///
/// Used for Poisson query inter-arrival times (the paper's 0.3
/// queries/minute/peer workload).
///
/// # Panics
///
/// Panics if `mean` is not finite and positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
    // Inverse-CDF; `1 - u` avoids ln(0).
    let u: f64 = rng.gen::<f64>();
    -mean * (1.0 - u).ln()
}

/// Draws from a normal distribution via the Box–Muller transform.
///
/// # Panics
///
/// Panics if `std_dev` is negative or either parameter is non-finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0);
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std_dev * z
}

/// Normal draw clamped to `[lo, hi]` — the paper's peer-lifetime model
/// (mean 10 minutes, variance mean/2, never negative).
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn clamped_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    std_dev: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    assert!(lo <= hi, "empty clamp range");
    normal(rng, mean, std_dev).clamp(lo, hi)
}

/// Precomputed Zipf sampler over ranks `0..n` with exponent `s`.
///
/// Rank `k` (0-based) has probability proportional to `1/(k+1)^s`. Used
/// for content popularity: a few objects are requested constantly, most
/// rarely.
///
/// # Examples
///
/// ```
/// use ace_engine::rng::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = Zipf::new(100, 0.8);
/// let mut rng = StdRng::seed_from_u64(4);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s.is_finite() && s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there is exactly one rank (sampling is then constant).
    pub fn is_empty(&self) -> bool {
        false // constructor guarantees n > 0
    }

    /// Draws a 0-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite cdf"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Samples `k` distinct values from `0..n` (Floyd's algorithm). Returns all
/// of `0..n` when `k >= n`. Output order is unspecified but deterministic
/// for a given RNG state.
pub fn sample_distinct<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if chosen.contains(&t) {
            chosen.push(j);
        } else {
            chosen.push(t);
        }
    }
    chosen
}

/// `splitmix64` finalizer — the workspace's standard deterministic hash
/// (probe jitter and stream seeds call it; every fold chains it through
/// [`crate::digest`]).
/// `#[inline]` because the workspace builds without LTO and the fault
/// model calls it on the probe path of every round.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| exponential(&mut r, mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() < 0.15, "got {got}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = rng();
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn clamped_normal_respects_bounds() {
        let mut r = rng();
        for _ in 0..2000 {
            let v = clamped_normal(&mut r, 0.0, 100.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn zipf_front_ranks_dominate() {
        let zipf = Zipf::new(1000, 1.0);
        let mut r = rng();
        let mut counts = vec![0usize; 1000];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut r)] += 1;
        }
        let top10: usize = counts[..10].iter().sum();
        let bottom500: usize = counts[500..].iter().sum();
        assert!(top10 > bottom500, "top {top10} bottom {bottom500}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let zipf = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((3500..=6500).contains(&c), "count {c}");
        }
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut r = rng();
        for _ in 0..200 {
            let mut v = sample_distinct(&mut r, 50, 12);
            assert_eq!(v.len(), 12);
            assert!(v.iter().all(|&x| x < 50));
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), 12);
        }
    }

    #[test]
    fn sample_distinct_saturates() {
        let mut r = rng();
        let mut v = sample_distinct(&mut r, 5, 10);
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }
}
