//! Order statistics for timing samples.

use rvp_json::Json;

/// The `q`-quantile (`0..=1`) by linear interpolation between order
/// statistics; `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, or `None` when there are fewer than twenty.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Samples beyond the p-th percentile: n * (100 - p) / 100 >= 10.
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) >= 1000.0 - 1e-6)
}

/// A timing reported as its median plus its tail percentile, with the
/// sample count.
pub fn summary(samples: &[f64]) -> Json {
    let mut fields = vec![
        ("n", Json::from(samples.len())),
        ("p50", median(samples).into()),
        ("min", samples.iter().copied().fold(f64::INFINITY, f64::min).into()),
        ("max", samples.iter().copied().fold(f64::NEG_INFINITY, f64::max).into()),
    ];
    if let Some(p) = tail_percentile(samples.len()) {
        fields.push(("tail_pct", p.into()));
        fields.push(("tail", quantile(samples, p / 100.0).into()));
    }
    Json::obj(fields)
}

/// One line of human-readable output for a timing.
pub fn describe(samples: &[f64]) -> String {
    match tail_percentile(samples.len()) {
        Some(p) => format!(
            "p50 {:.4}  p{p} {:.4}  (n={})",
            median(samples),
            quantile(samples, p / 100.0),
            samples.len()
        ),
        None => format!(
            "p50 {:.4}  (n={}, too few for a tail percentile)",
            median(samples),
            samples.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }
}
