//! Order statistics over latency samples.

/// Linear-interpolated percentile (`p` in 0..=100) of `samples`; 0 when
/// there are none. Sorts a copy, so callers keep arrival order.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it — the tail a sample of this size can
/// support. `None` below 20 samples (only the median is meaningful).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille and in integers: 100 samples do have 10 beyond p90.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Open-loop latency of one request, timed from when it was *due* to be
/// sent: the time `submit` returned late (generator lateness plus any
/// admission blocking) plus what the service itself reports. A stall
/// therefore charges every request scheduled behind it.
pub fn due_time_latency_s(due_s: f64, submitted_s: f64, queue_wait_s: f64, service_s: f64) -> f64 {
    (submitted_s - due_s).max(0.0) + queue_wait_s + service_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_ignores_order() {
        let s = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert_eq!(median(&s), 25.0);
        assert!((percentile(&s, 90.0) - 37.0).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_identical_values_is_exact() {
        // Exact metrics rely on this: no rounding from a sum/divide.
        let x = 763.625_312_345_678_9;
        assert_eq!(median(&[x; 27]).to_bits(), x.to_bits());
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(3_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn latency_counts_from_due_time() {
        // On time: only the service's own numbers.
        assert_eq!(due_time_latency_s(1.0, 1.0, 0.002, 0.010), 0.012);
        // Generator ran 5 ms late (or submit blocked): the request pays.
        assert!((due_time_latency_s(1.0, 1.005, 0.002, 0.010) - 0.017).abs() < 1e-12);
        // Clock jitter never yields a negative lateness.
        assert_eq!(due_time_latency_s(1.0, 0.999, 0.0, 0.010), 0.010);
    }
}
