//! Order statistics for latency samples.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `q` percent of the samples at or below it. NaN when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] of unsorted samples; NaN samples (missing answers) are
/// left out.
pub fn percentile_of(samples: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// The median over segments of each segment's `q`-th percentile. One slow
/// segment (a neighbour's burst on a shared machine) moves this by at most
/// one rank, where it would drag a percentile of all samples pooled.
pub fn segment_median(segments: &[&[f64]], q: f64) -> f64 {
    let per_segment: Vec<f64> = segments.iter().map(|s| percentile_of(s, q)).collect();
    percentile_of(&per_segment, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0, "rank clamps to the first sample");
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn unsorted_input_and_missing_samples() {
        assert_eq!(percentile_of(&[3.0, f64::NAN, 1.0, 2.0], 50.0), 2.0);
        assert!(percentile_of(&[f64::NAN], 50.0).is_nan());
    }

    #[test]
    fn segment_median_ignores_one_outlying_segment() {
        let calm = [1.0, 1.0, 2.0, 2.0];
        let burst = [50.0, 60.0, 70.0, 80.0];
        let segs: Vec<&[f64]> = vec![&calm, &burst, &calm, &calm, &calm];
        assert_eq!(segment_median(&segs, 90.0), 2.0);
        assert_eq!(segment_median(&segs, 50.0), 1.0);
    }
}
