//! Order statistics for the reported timings, and the metric-name rule.

/// Quartiles `[q1, median, q3]` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so figures printed here match
/// what a Python consumer computes from the same samples. One sample
/// yields itself three times; no samples yield `None`.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

/// Median (the middle quartile).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

/// A tail statistic and how it was chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The value.
    pub value: f64,
    /// The nearest-rank percentile it is (100 = the maximum).
    pub percentile: u32,
    /// Samples it was taken from.
    pub samples: usize,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// The highest whole nearest-rank percentile with at least ten samples
/// beyond it. With fewer than 20 samples that percentile lies below the
/// median (the label says so); with ten or fewer none exists, and the
/// maximum is reported as `p100`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 0 {
        return None;
    }
    if n <= 10 {
        return Some(Tail { value: data[n - 1], percentile: 100, samples: n, beyond: 0 });
    }
    let percentile = (100 * (n - 10) / n) as u32;
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    Some(Tail { value: data[rank - 1], percentile, samples: n, beyond: n - rank })
}

/// Geometric mean of positive ratios (`None` for an empty set).
pub fn geomean(ratios: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (sum, n) = ratios.into_iter().fold((0.0, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    (n > 0).then(|| (sum / n as f64).exp())
}

/// The metric-name rule: 1 to 64 characters from `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 4.0, 2.0, 1.0]), Some([1.25, 3.0, 7.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (90, 90.0, 10, 100));
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50, 10.0, 10));
        let v: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&v).unwrap();
        // floor(100 * 27 / 37) = 72; rank ceil(0.72 * 37) = 27.
        assert_eq!((t.percentile, t.value, t.beyond), (72, 27.0, 10));
        for n in 11..400 {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            let t = tail(&v).unwrap();
            assert!(t.beyond >= 10, "n={n}");
            // One percentile higher would leave fewer than ten beyond.
            let next = ((t.percentile as usize + 1) * n as usize).div_ceil(100);
            assert!(n as usize - next < 10, "n={n}");
        }
    }

    #[test]
    fn short_runs_fall_below_the_median_then_to_the_maximum() {
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        let t = tail(&v).unwrap();
        // floor(100 * 6 / 16) = 37; rank ceil(0.37 * 16) = 6.
        assert_eq!((t.percentile, t.value, t.beyond), (37, 6.0, 10));
        let t = tail(&[3.0, 9.0, 4.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (100, 9.0, 0, 3));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), None);
    }

    #[test]
    fn metric_name_rule() {
        for ok in ["iter_s", "sim.machine_new_s", "a", "9-x", "sim.translate.replay_slot_ratio"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "mips/s", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
