//! Row-sampling strategies.
//!
//! Two samplers back the paper's two levels of stochasticity:
//!
//! - [`UniformSampler`] — uniform row subsets for the *outer* problem
//!   reduction (Algorithm 1). Uniform sampling is justified when the data
//!   has low coherence (paper refs \[16\]\[17\]): computing true leverage
//!   scores would be as expensive as solving the problem.
//! - [`NormSampler`] — rows drawn with probability proportional to their
//!   squared Euclidean norm (Eq. (11)), the randomized-Kaczmarz
//!   distribution used by the *inner* stochastic CG solver.

use rand::Rng;

/// Uniform sampling of row subsets without replacement.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSampler;

impl UniformSampler {
    /// Creates a sampler.
    pub fn new() -> Self {
        Self
    }

    /// Draws `k` distinct row indices from `0..m` uniformly at random
    /// (partial Fisher–Yates). If `k ≥ m`, returns all rows in order.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, m: usize, k: usize) -> Vec<usize> {
        if k >= m {
            return (0..m).collect();
        }
        let mut pool: Vec<usize> = (0..m).collect();
        for i in 0..k {
            let j = rng.random_range(i..m);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Draws a `ratio` fraction of `0..m` (at least one row when `m > 0`).
    pub fn sample_ratio<R: Rng + ?Sized>(&self, rng: &mut R, m: usize, ratio: f64) -> Vec<usize> {
        if m == 0 {
            return Vec::new();
        }
        let k = ((m as f64 * ratio).ceil() as usize).clamp(1, m);
        self.sample(rng, m, k)
    }
}

/// Sampling with probability proportional to fixed non-negative weights
/// (squared row norms), with replacement.
///
/// A draw maps one uniform `u ∈ [0, total)` to the first row whose
/// cumulative weight exceeds `u`. A guide table (one bucket per row,
/// each holding the first row past its lower edge) starts that search a
/// step or two from the answer instead of bisecting the whole CDF.
#[derive(Debug, Clone)]
pub struct NormSampler {
    cdf: Vec<f64>,
    total: f64,
    /// `guide[b]`: the first row whose cumulative weight exceeds
    /// `b / scale`, the lower edge of bucket `b`.
    guide: Vec<u32>,
    /// Buckets per unit of cumulative weight (`len / total`).
    scale: f64,
}

impl NormSampler {
    /// Builds the sampler from squared row norms (Eq. (11) of the paper).
    ///
    /// Rows with zero weight are never drawn. Returns `None` if every
    /// weight is zero (the system has no information).
    pub fn new(weights_sq: &[f64]) -> Option<Self> {
        let mut cdf = Vec::with_capacity(weights_sq.len());
        let mut acc = 0.0;
        for &w in weights_sq {
            debug_assert!(w >= 0.0, "weights must be non-negative");
            acc += w;
            cdf.push(acc);
        }
        if acc <= 0.0 {
            return None;
        }
        let scale = cdf.len() as f64 / acc;
        let mut row = 0;
        let guide = (0..cdf.len())
            .map(|b| {
                let edge = b as f64 / scale;
                while row < cdf.len() && cdf[row] <= edge {
                    row += 1;
                }
                row as u32
            })
            .collect();
        Some(Self {
            cdf,
            total: acc,
            guide,
            scale,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The probability of drawing row `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let lo = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        (self.cdf[i] - lo) / self.total
    }

    /// Draws one row index.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random_range(0.0..self.total);
        self.locate(u)
    }

    /// The first row whose cumulative weight exceeds `u` (clamped to the
    /// last row), exactly `cdf.partition_point(|&c| c <= u)`. The guide
    /// entry of `u`'s bucket is only a starting point: rounding in the
    /// bucket index can put it past the answer, so step back while the
    /// previous row's cumulative weight still exceeds `u`, then scan
    /// forward past every row whose cumulative weight does not.
    fn locate(&self, u: f64) -> usize {
        let b = ((u * self.scale) as usize).min(self.guide.len() - 1);
        let mut i = self.guide[b] as usize;
        while i > 0 && self.cdf[i - 1] > u {
            i -= 1;
        }
        while i < self.cdf.len() && self.cdf[i] <= u {
            i += 1;
        }
        i.min(self.cdf.len() - 1)
    }

    /// Draws `k` rows with replacement.
    pub fn draw_many<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> Vec<usize> {
        (0..k).map(|_| self.draw(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn uniform_sample_is_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = UniformSampler::new();
        let rows = s.sample(&mut rng, 100, 10);
        assert_eq!(rows.len(), 10);
        let set: HashSet<_> = rows.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(rows.iter().all(|&r| r < 100));
    }

    #[test]
    fn uniform_sample_saturates() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = UniformSampler::new();
        assert_eq!(s.sample(&mut rng, 5, 10), vec![0, 1, 2, 3, 4]);
        assert!(s.sample_ratio(&mut rng, 0, 0.5).is_empty());
        // Tiny ratio still yields at least one row.
        assert_eq!(s.sample_ratio(&mut rng, 1000, 1e-9).len(), 1);
    }

    #[test]
    fn ratio_sampling_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = UniformSampler::new();
        assert_eq!(s.sample_ratio(&mut rng, 1000, 0.1).len(), 100);
    }

    #[test]
    fn norm_sampler_respects_probabilities() {
        let sampler = NormSampler::new(&[1.0, 3.0, 0.0, 6.0]).unwrap();
        assert_eq!(sampler.len(), 4);
        assert!((sampler.probability(0) - 0.1).abs() < 1e-12);
        assert!((sampler.probability(1) - 0.3).abs() < 1e-12);
        assert_eq!(sampler.probability(2), 0.0);
        assert!((sampler.probability(3) - 0.6).abs() < 1e-12);

        let mut rng = StdRng::seed_from_u64(4);
        let draws = sampler.draw_many(&mut rng, 20_000);
        let mut counts = [0usize; 4];
        for d in draws {
            counts[d] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight row must never be drawn");
        let f1 = counts[1] as f64 / 20_000.0;
        let f3 = counts[3] as f64 / 20_000.0;
        assert!((f1 - 0.3).abs() < 0.02, "empirical {f1} vs 0.3");
        assert!((f3 - 0.6).abs() < 0.02, "empirical {f3} vs 0.6");
    }

    /// The pre-guide-table search every draw must reproduce.
    fn reference(s: &NormSampler, u: f64) -> usize {
        s.cdf.partition_point(|&c| c <= u).min(s.cdf.len() - 1)
    }

    /// Checks `locate` at every bucket edge and CDF value and at the
    /// three floats on either side: where a rounded bucket index can
    /// start the search past the answer.
    fn check_boundaries(s: &NormSampler) {
        let mut probes = vec![0.0];
        for k in 0..s.len() {
            for base in [k as f64 / s.scale, s.cdf[k]] {
                let (mut up, mut down) = (base, base);
                for _ in 0..3 {
                    probes.push(up);
                    up = f64::from_bits(up.to_bits() + 1);
                    if down > 0.0 {
                        down = f64::from_bits(down.to_bits() - 1);
                        probes.push(down);
                    }
                }
            }
        }
        for u in probes.into_iter().filter(|&u| u < s.total) {
            assert_eq!(s.locate(u), reference(s, u), "u {u} of {}", s.total);
        }
    }

    #[test]
    fn norm_sampler_draw_matches_partition_point() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut draws = 0;
        for shape in 0..20u64 {
            let m = 1 + (shape as usize * 37) % 300;
            // Every third row (and a run at the front) carries no weight;
            // the rest span four orders of magnitude.
            let weights: Vec<f64> = (0..m)
                .map(|i| {
                    if i % 3 == 1 || i < (shape as usize % 4) {
                        0.0
                    } else {
                        10f64.powf(rng.random_range(-2.0..2.0))
                    }
                })
                .collect();
            let Some(s) = NormSampler::new(&weights) else {
                continue;
            };
            // The same RNG stream through `draw` and through the
            // reference search.
            let mut a = StdRng::seed_from_u64(shape);
            let mut b = StdRng::seed_from_u64(shape);
            for _ in 0..5000 {
                let u: f64 = b.random_range(0.0..s.total);
                assert_eq!(s.draw(&mut a), reference(&s, u), "shape {shape} u {u}");
                draws += 1;
            }
            check_boundaries(&s);
        }
        assert!(draws >= 100_000, "{draws} draws");
        // Equal weights put CDF values on bucket edges, up to rounding:
        // with 0.1 and 20 rows a bucket's guide entry overshoots.
        for w in [0.1, 1.0 / 3.0, 0.7] {
            for m in 1..=150 {
                check_boundaries(&NormSampler::new(&vec![w; m]).unwrap());
            }
        }
    }

    #[test]
    fn norm_sampler_rejects_all_zero() {
        assert!(NormSampler::new(&[0.0, 0.0]).is_none());
        assert!(NormSampler::new(&[]).is_none());
    }

    #[test]
    fn uniform_sampling_is_seed_deterministic() {
        let s = UniformSampler::new();
        let a = s.sample(&mut StdRng::seed_from_u64(9), 50, 5);
        let b = s.sample(&mut StdRng::seed_from_u64(9), 50, 5);
        assert_eq!(a, b);
    }
}
