//! Order statistics and the process-level readings (`/proc/self`).

use std::time::Duration;

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `p` percent of the samples at or below it. 0 for no
/// samples, so an empty probe reads as "nothing measured", not a panic.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] of unsorted samples.
pub fn percentile_of(mut values: Vec<f64>, p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, p)
}

/// Median of per-segment values: the middle one, or the mean of the two
/// middle ones for an even count. One disturbed segment cannot move it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// User + system CPU time of this process (all threads), in
/// milliseconds. `/proc/self/stat` counts in `USER_HZ` ticks, which the
/// Linux ABI fixes at 100 per second.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) * 10.0
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 51.0), 2.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile_of(vec![3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0, 100.0]), 7.0);
    }

    #[test]
    fn process_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_ms();
        let mut x = 0u64;
        while process_cpu_ms() - before < 20.0 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_ms() > before);
    }
}
