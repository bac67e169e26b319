//! Order statistics with a sample-count rule, and peak-RSS probes.

/// Samples a percentile must have strictly above its rank before it is
/// reported: a p99 needs at least 1000 samples, a p50 at least 20.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must be inside (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count). Used for per-run summaries of a few repeated passes, where
/// no percentile rule applies.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Sum over parts of each part's median across passes: `passes[p][i]` is
/// the time of part `i` in pass `p`. Every pass repeats the same parts, so
/// a burst of machine noise that hits one part in a minority of passes
/// drops out, where a plain per-pass median would keep whole noisy passes.
pub fn sum_of_medians(passes: &[Vec<f64>]) -> f64 {
    assert!(!passes.is_empty(), "at least one pass");
    let parts = passes[0].len();
    assert!(passes.iter().all(|p| p.len() == parts), "passes repeat the same parts");
    (0..parts).map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>())).sum()
}

/// Peak resident set size of process `pid` (`"self"` for this one) in MB,
/// read from the kernel's `VmHWM` line.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("bad VmHWM line '{line}'"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p50_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(100);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn sum_of_medians_drops_a_burst_in_one_pass() {
        let quiet = vec![1.0, 2.0, 3.0];
        let burst = vec![1.0, 9.0, 3.0];
        let passes = vec![quiet.clone(), burst, quiet];
        assert_eq!(sum_of_medians(&passes), 6.0);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
