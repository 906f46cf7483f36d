//! Order statistics over latency samples.

/// Percentile ladder for tail latencies, highest first. Coarse rungs keep
/// the chosen percentile the same from run to run when the op count only
/// drifts a little; the top rung is p95 because a run of these workloads
/// completes a few hundred to about a thousand ops, right where a p99
/// rung would come and go.
const TAIL_LADDER: [f64; 4] = [95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even lengths); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile of an ascending slice, with the number of
/// samples strictly after its rank.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Latency at the percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples beyond the percentile's rank.
    pub beyond: usize,
}

impl Tail {
    /// Describes the percentile, e.g. `p95 of 412 ops, 21 beyond`.
    pub fn note(&self, what: &str) -> String {
        format!(
            "p{} of {} {what}, {} beyond",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// The tail of `values`, or `None` when even the median has fewer than
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(&v, p);
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            value,
            percentile: p,
            samples: v.len(),
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v).expect("200 samples have a tail");
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(tail(&small).is_none());
    }
}
