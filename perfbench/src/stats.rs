//! Order statistics over measured samples.

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, interpolating linearly
/// between the two nearest ranks; NaN for no samples.
pub fn percentile(mut values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(v.clone()), 3.0);
        assert_eq!(percentile(v.clone(), 0.0), 1.0);
        assert_eq!(percentile(v.clone(), 1.0), 5.0);
        assert_eq!(percentile(v, 0.125), 1.5);
        assert!(median(Vec::new()).is_nan());
    }
}
