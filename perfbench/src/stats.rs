//! Small statistics helpers: order statistics, medians and the memory
//! readings the benchmark reports.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. `None` when the
/// sample is empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly above percentile `q`. A percentile is only
/// reported when at least ten samples lie beyond it.
pub fn beyond(sorted: &[u64], q: f64) -> usize {
    match percentile(sorted, q) {
        Some(p) => sorted.len() - sorted.partition_point(|&v| v <= p),
        None => 0,
    }
}

/// Median of a sample (mean of the two middle values for even sizes).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `part / whole` as a percentage, 0 when `whole` is 0.
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Peak resident set size of this process, in MiB, from
/// `/proc/self/status` `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v, 1.0), Some(1000));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.99), Some(7));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(beyond(&v, 0.99), 10);
        let v: Vec<u64> = (1..=999).collect();
        assert!(beyond(&v, 0.99) < 10);
        // Ties at the percentile are not "beyond" it.
        let mut v = vec![5u64; 995];
        v.extend(6..=10);
        assert_eq!(percentile(&v, 0.99), Some(5));
        assert_eq!(beyond(&v, 0.99), 5);
    }

    #[test]
    fn median_and_pct() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(1, 0), 0.0);
    }
}
