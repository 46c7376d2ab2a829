//! Order statistics: nearest-rank percentiles for the samples of one run,
//! and the quartiles `compare` uses across runs.

/// Sorts a copy of `values` ascending (NaN-free input assumed: every
/// sample is a measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p` percent of the samples at or below it. `None` for no
/// samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median of unsorted `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// First quartile, median and third quartile of a set of run results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Interquartile distance as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the same rule as Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method) and `statistics.median`, so the
/// spread `compare` prints is the spread an acceptance script computes
/// from the same runs. A single run is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let data = sorted(values);
    let ld = data.len();
    let median = match ld {
        0 => return None,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    };
    if ld == 1 {
        return Some(Quartiles {
            q1: data[0],
            median,
            q3: data[0],
        });
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some(Quartiles {
        q1: cut(1),
        median,
        q3: cut(3),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_fixed_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        let odd = sorted(&[30.0, 10.0, 20.0]);
        assert_eq!(percentile(&odd, 50.0), Some(20.0));
        assert_eq!(percentile(&odd, 90.0), Some(30.0));
        // 101 samples: p90 is the 91st, so ten samples lie beyond it.
        let many: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&many, 90.0), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let q = quartiles(&[5.0, 3.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.5, 4.0, 5.5));
        let q = quartiles(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert_eq!(q.spread(), 0.0);
        assert!(quartiles(&[]).is_none());
        let q = quartiles(&[90.0, 100.0, 110.0]).unwrap();
        assert!((q.spread() - 0.2).abs() < 1e-12, "{q:?}");
    }
}
