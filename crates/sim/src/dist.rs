//! Sampling distributions used across the workspace.
//!
//! Only `rand`'s core uniform machinery is assumed; everything else
//! (exponential, log-normal, geometric, Zipf, arbitrary discrete) is
//! implemented here so the workspace avoids an extra `rand_distr`
//! dependency (see DESIGN.md's dependency policy). Each distribution is a
//! small, `Copy`-or-cheaply-`Clone` value with a `sample(&mut impl Rng)`
//! method and validated constructor.
//!
//! Where these are used:
//!
//! * [`Exponential`] — inter-arrival times of players (Poisson processes).
//! * [`LogNormal`] — session lengths and lifetime play (heavy-tailed
//!   engagement, the empirical shape behind ALP).
//! * [`Zipf`] — word/tag frequency in player vocabularies, the standard
//!   model for label popularity in the ESP Game's folksonomy.
//! * [`Geometric`] — number of rounds until a player quits, retry counts.
//! * [`DiscreteDist`] — ground-truth label distributions of synthetic
//!   stimuli.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Error returned by distribution constructors on invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError {
    what: &'static str,
}

impl ParamError {
    fn new(what: &'static str) -> Self {
        ParamError { what }
    }
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for ParamError {}

/// An exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `rate` is not finite and positive.
    pub fn new(rate: f64) -> Result<Self, ParamError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(ParamError::new("exponential rate must be finite and > 0"));
        }
        Ok(Exponential { rate })
    }

    /// The rate parameter λ.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The mean `1/λ`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Draws one sample via inverse-CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // gen::<f64>() is in [0, 1); use 1-u to avoid ln(0).
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.rate
    }
}

/// A log-normal distribution: `exp(N(mu, sigma^2))`.
///
/// Session lengths and player lifetimes are strongly right-skewed; the
/// log-normal is the conventional fit and drives the ALP (average lifetime
/// play) measurements of experiment T1/F6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given log-space mean and standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `mu` is non-finite or `sigma` is not finite
    /// and non-negative.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(ParamError::new(
                "log-normal requires finite mu and sigma >= 0",
            ));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// The linear-space mean `exp(mu + sigma^2/2)`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    /// The linear-space median `exp(mu)`.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Draws one sample (Box–Muller on the underlying normal).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Draws one standard-normal variate via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue; // avoid ln(0)
        }
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        return r * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// A geometric distribution on `{1, 2, 3, ...}`: number of Bernoulli(`p`)
/// trials up to and including the first success.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates a geometric with success probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `0 < p <= 1`.
    pub fn new(p: f64) -> Result<Self, ParamError> {
        if !p.is_finite() || p <= 0.0 || p > 1.0 {
            return Err(ParamError::new("geometric requires 0 < p <= 1"));
        }
        Ok(Geometric { p })
    }

    /// The mean `1/p`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// Draws one sample via inverse-CDF (capped at `u64::MAX`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u: f64 = rng.gen();
        // ceil(ln(1-u) / ln(1-p)); 1-u in (0,1].
        let k = ((1.0 - u).ln() / (1.0 - self.p).ln()).ceil();
        if k < 1.0 {
            1
        } else if k >= u64::MAX as f64 {
            u64::MAX
        } else {
            k as u64
        }
    }
}

/// A Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = k) ∝ 1 / (k+1)^s`.
///
/// Sampling is by binary search over a precomputed CDF — O(log n) per draw
/// and exact, which matters because player vocabularies are sampled billions
/// of times across a campaign sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    cdf: Vec<f64>,
    exponent: f64,
}

impl Zipf {
    /// Creates a Zipf over `n` ranks with exponent `s`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `n == 0` or `s` is not finite and
    /// non-negative (`s = 0` degenerates to uniform).
    pub fn new(n: usize, s: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::new("zipf requires n >= 1"));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(ParamError::new("zipf exponent must be finite and >= 0"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against rounding leaving the last entry below 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Zipf { cdf, exponent: s })
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` when there is a single rank (degenerate distribution).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false // constructor guarantees n >= 1
    }

    /// The exponent `s`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of a given rank, or 0 outside the support.
    #[must_use]
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank >= self.cdf.len() {
            return 0.0;
        }
        let hi = self.cdf[rank];
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] }; // hc-analyze: allow(P1): rank == 0 guard on this line bounds the subtraction
        hi - lo
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// An arbitrary discrete distribution over indices `0..n`, built from
/// non-negative weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscreteDist {
    cdf: Vec<f64>,
}

impl DiscreteDist {
    /// Creates a distribution proportional to `weights`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `weights` is empty, contains a negative or
    /// non-finite entry, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, ParamError> {
        if weights.is_empty() {
            return Err(ParamError::new("discrete distribution needs >= 1 weight"));
        }
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(weights.len());
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(ParamError::new("weights must be finite and >= 0"));
            }
            acc += w;
            cdf.push(acc);
        }
        if acc <= 0.0 {
            return Err(ParamError::new("weights must not all be zero"));
        }
        for c in &mut cdf {
            *c /= acc;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(DiscreteDist { cdf })
    }

    /// Number of outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` if there are no outcomes (never: constructor rejects empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of outcome `i`, or 0 outside the support.
    #[must_use]
    pub fn pmf(&self, i: usize) -> f64 {
        if i >= self.cdf.len() {
            return 0.0;
        }
        let hi = self.cdf[i];
        let lo = if i == 0 { 0.0 } else { self.cdf[i - 1] }; // hc-analyze: allow(P1): i == 0 guard on this line bounds the subtraction
        hi - lo
    }

    /// Draws one outcome index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xD15C)
    }

    #[test]
    fn constructors_reject_bad_parameters() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(LogNormal::new(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::new(0.0, -0.1).is_err());
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(1.5).is_err());
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(DiscreteDist::new(&[]).is_err());
        assert!(DiscreteDist::new(&[0.0, 0.0]).is_err());
        assert!(DiscreteDist::new(&[1.0, -0.5]).is_err());
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = rng();
        let e = Exponential::new(2.0).unwrap();
        let mean: f64 = (0..50_000).map(|_| e.sample(&mut r)).sum::<f64>() / 50_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
        assert_eq!(e.mean(), 0.5);
    }

    #[test]
    fn lognormal_moments_match_parameters() {
        // median = exp(mu), mean = exp(mu + sigma^2 / 2).
        let sigma = (2.0 * (91.0f64 / 40.0).ln()).sqrt();
        let ln = LogNormal::new(40.0f64.ln(), sigma).unwrap();
        assert!((ln.mean() - 91.0).abs() < 1e-9);
        assert!((ln.median() - 40.0).abs() < 1e-9);

        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| ln.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 91.0).abs() / 91.0 < 0.05, "sampled mean={mean}");
    }

    #[test]
    fn geometric_mean_matches() {
        let mut r = rng();
        let g = Geometric::new(0.25).unwrap();
        let mean: f64 = (0..50_000).map(|_| g.sample(&mut r) as f64).sum::<f64>() / 50_000.0;
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
        assert_eq!(Geometric::new(1.0).unwrap().sample(&mut r), 1);
    }

    #[test]
    fn geometric_support_starts_at_one() {
        let mut r = rng();
        let g = Geometric::new(0.9).unwrap();
        assert!((0..10_000).all(|_| g.sample(&mut r) >= 1));
    }

    #[test]
    fn zipf_pmf_is_normalized_and_monotone() {
        let z = Zipf::new(100, 1.07).unwrap();
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..100 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12, "pmf not monotone at {k}");
        }
        assert_eq!(z.pmf(100), 0.0);
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let mut r = rng();
        let z = Zipf::new(1000, 1.2).unwrap();
        let n = 50_000;
        let zero_hits = (0..n).filter(|_| z.sample(&mut r) == 0).count();
        let freq = zero_hits as f64 / n as f64;
        assert!(
            (freq - z.pmf(0)).abs() < 0.01,
            "freq={freq} pmf0={}",
            z.pmf(0)
        );
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn discrete_dist_matches_weights() {
        let d = DiscreteDist::new(&[1.0, 3.0, 0.0, 4.0]).unwrap();
        assert!((d.pmf(0) - 0.125).abs() < 1e-12);
        assert!((d.pmf(1) - 0.375).abs() < 1e-12);
        assert_eq!(d.pmf(2), 0.0);
        assert!((d.pmf(3) - 0.5).abs() < 1e-12);

        let mut r = rng();
        let n = 40_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[d.sample(&mut r)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight outcome must never be drawn");
        assert!((counts[3] as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn param_error_displays() {
        let err = Exponential::new(-1.0).unwrap_err();
        assert!(err.to_string().contains("exponential"));
    }
}
