//! Order statistics with the benchmark's reporting rules.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of ascending `sorted` by nearest rank;
/// `None` when empty.
pub fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the `p`-quantile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// A percentile is reported as trustworthy only when at least ten samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// A percentile and whether it met the ten-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub samples: usize,
    pub ok: bool,
}

/// The `p`-quantile of `values` (any order), flagged when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(values: &[f64], p: f64) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Tail {
        value: quantile(&sorted, p).unwrap_or(f64::NAN),
        samples: sorted.len(),
        ok: beyond(sorted.len(), p) >= MIN_BEYOND,
    }
}

/// Fewest samples for which the `p`-quantile has ten samples beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| beyond(n, p) >= MIN_BEYOND).expect("finite")
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so that spreads read the same here and in any script
/// that checks them. One value gives that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return [f64::NAN; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let (n, m) = (4usize, d.len() + 1);
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, d.len() - 1);
        let delta = (i * m) as f64 / n as f64 - j as f64;
        *q = d[j - 1] + (d[j] - d[j - 1]) * delta.clamp(0.0, 1.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_flagged_without_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = tail(&hundred, 0.99);
        assert_eq!(p99.value, 99.0);
        assert!(!p99.ok, "one sample beyond p99 of 100 must be flagged");
        let p90 = tail(&hundred, 0.90);
        assert_eq!(p90.value, 90.0);
        assert!(p90.ok, "ten samples beyond p90 of 100 is enough");

        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(tail(&thousand, 0.99).ok);
        assert!(!tail(&thousand[..999], 0.99).ok);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.95), 200);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), [1.5, 3.0, 4.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
