//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between order statistics; `NaN` for an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Number of samples strictly above the `q`-quantile — a percentile is only
/// reported when at least ten samples lie beyond it.
#[must_use]
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Times `op` in batches of `batch` calls until `budget_s` seconds have
/// passed (at least `min_batches` batches) and returns the time per call of
/// the fastest batch, in nanoseconds. Batching keeps the clock's own cost
/// out of short operations; every batch does the same work, and
/// interference from the scheduler and other tenants only adds time, so the
/// fastest batch is the steadiest estimate.
pub fn ns_per_call(batch: usize, min_batches: usize, budget_s: f64, mut op: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    let mut batches = 0;
    let mut fastest = f64::INFINITY;
    while batches < min_batches.max(1) || start.elapsed().as_secs_f64() < budget_s {
        let t = std::time::Instant::now();
        for _ in 0..batch {
            op();
        }
        fastest = fastest.min(t.elapsed().as_nanos() as f64 / batch as f64);
        batches += 1;
    }
    fastest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn beyond_counts_the_tail() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(beyond(&s, 0.9), 10);
    }
}
