//! Order statistics, the output digest and process memory.

/// Median of `v` (sorts in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of the `keep` smallest values of `v` (sorts in place); 0 for
/// an empty slice.
pub fn median_of_fastest(v: &mut [f64], keep: usize) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = keep.max(1).min(v.len());
    median(&mut v[..n])
}

/// The tail of a sample: the highest value with at least ten samples
/// above it, i.e. the 11th-largest, with the percentile it sits at.
/// Below 11 samples there is no such value and the maximum is returned
/// at the 100th percentile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(v: &mut [f64]) -> Tail {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        },
        1..=10 => Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        },
        _ => Tail {
            value: v[n - 11],
            percentile: 100.0 * (n - 10) as f64 / n as f64,
            samples: n,
        },
    }
}

/// Order-sensitive 64-bit fold of a run's deterministic outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x6a09_e667_f3bc_c908)
    }
}

impl Digest {
    pub fn word(&mut self, v: u64) {
        // SplitMix64 finaliser over the rotated state.
        let mut z = self.0.rotate_left(23) ^ v;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-RSS mark to the current RSS (Linux `clear_refs` 5);
/// a no-op where that is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&mut v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(tail(&mut few).value, 3.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_of_fastest_keeps_the_smallest() {
        assert_eq!(median_of_fastest(&mut [5.0, 1.0, 4.0, 2.0, 3.0], 3), 2.0);
        assert_eq!(median_of_fastest(&mut [4.0, 3.0, 2.0, 1.0], 1), 1.0);
        assert_eq!(median_of_fastest(&mut [4.0, 3.0], 9), 3.5);
        assert_eq!(median_of_fastest(&mut [], 2), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }

    #[test]
    fn rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
