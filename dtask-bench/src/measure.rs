//! The arithmetic every reported number goes through: medians and
//! quartiles, the tail percentile rule, and the segment rate.

/// Median of `values` (mean of the two middle values for an even count).
/// `0.0` for an empty slice, so a missing layer reads as zero, not NaN.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The sample at rank `floor(q·n)` of the sorted values (`q` in `[0, 1]`):
/// `quantile(v, 0.25)` is the lower quartile, `0.75` the upper. `0.0` for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64) as usize).min(v.len() - 1);
    v[rank]
}

/// A tail reading and how much evidence stands behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// The percentile that rank is, in `[50, 100)`.
    pub percentile: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
    /// Samples in total.
    pub n: usize,
}

/// The highest percentile that still has at least ten samples — and at least
/// a twentieth of the samples — beyond it: the ten-beyond rule, capped at
/// p95. Uncapped, a storm's six thousand rounds put the reading at p99.8,
/// where it is the eleventh-worst stall of the run and moves by a third
/// between runs of the same build. Below twenty samples ten cannot lie beyond
/// anything above the median, so the rule degrades to "half the samples
/// beyond" — the median — instead of reporting a maximum that one
/// neighbour's burst decides.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 50.0,
            beyond: 0,
            n,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let beyond = 10.max(n / 20).min(n / 2);
    let rank = n - 1 - beyond;
    Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond,
        n,
    }
}

/// Upper quartile over segments of `work / seconds`: the rate of the
/// segments the box left alone. On the two-core box the threads of a cluster
/// flip between sharing a core and not every few hundred milliseconds, and
/// the share of time spent in the slow placement varies between 30% and 60%
/// from run to run — a median over segments moves with that share, the upper
/// quartile does not until three segments in four are disturbed.
pub fn segment_rate(segments: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = segments
        .iter()
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(work, secs)| work / secs)
        .collect();
    quantile(&rates, 0.75)
}

/// Median of the last tenth of `values` over the median of the first tenth:
/// how much a unit slows over the lifetime of the state it runs against.
/// `1.0` when there are too few samples to cut tenths.
pub fn growth_ratio(values: &[f64]) -> f64 {
    let tenth = values.len() / 10;
    if tenth == 0 {
        return 1.0;
    }
    let first = median(&values[..tenth]);
    let last = median(&values[values.len() - tenth..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// Deterministic generator for workload inputs (splitmix64). The benchmark
/// owns its generator so the same `--seed` gives the same inputs on every
/// build of the repository.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_stops_at_p95() {
        // 100 samples 1..=100: value 90 has exactly ten beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond, t.percentile), (90.0, 10, 90.0));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        // 1000 samples: ten beyond would be p99; the cap holds it at p95.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond, t.percentile), (950.0, 50, 95.0));
        // Exactly twenty: the tenth value, the median's lower neighbour.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond, t.percentile), (10.0, 10, 50.0));
    }

    #[test]
    fn tail_below_twenty_samples_is_the_median_not_the_max() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.beyond, 6);
        assert_eq!(t.value, 6.0);
        assert_eq!(tail(&[7.0]).value, 7.0);
    }

    #[test]
    fn quantile_picks_ranks() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 3.0);
        assert_eq!(quantile(&v, 0.75), 7.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 8.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn segment_rate_ignores_disturbed_segments() {
        // Six of ten segments stalled to a hundredth of the rate: the mean
        // and the median collapse, the upper quartile does not move.
        let mut segs = vec![(100.0, 1.0); 4];
        segs.extend(vec![(100.0, 100.0); 6]);
        assert_eq!(segment_rate(&segs), 100.0);
        assert_eq!(segment_rate(&[(100.0, 1.0); 10]), 100.0);
        assert_eq!(segment_rate(&[]), 0.0);
    }

    #[test]
    fn growth_ratio_compares_last_tenth_to_first() {
        let v: Vec<f64> = (0..100).map(|i| 1.0 + i as f64).collect();
        // first tenth 1..=10 -> 5.5, last tenth 91..=100 -> 95.5
        assert!((growth_ratio(&v) - 95.5 / 5.5).abs() < 1e-12);
        assert_eq!(growth_ratio(&[1.0, 2.0]), 1.0);
    }

    #[test]
    fn rng_repeats_per_seed_and_permutes() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut p = Rng::new(1).permutation(64);
        assert_ne!(p, Rng::new(2).permutation(64));
        p.sort_unstable();
        assert_eq!(p, (0..64).collect::<Vec<_>>());
    }
}
