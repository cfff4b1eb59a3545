//! Order statistics and the digest the correctness checks compare.

/// Fewest samples that must lie beyond the reported p99.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// integer per-mille so that e.g. p99.9 of 10,000 is rank 9,990 exactly.
fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100] of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest rank of `p` among `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// Median of unordered values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Streaming FNV-1a, used to compare flight-record bytes between legs
/// without keeping every export in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feed bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Digest of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_keeps_ten_samples_beyond_from_1000_samples() {
        // 1,920 samples (5 passes of 384): p99.9 has 1 beyond, p99 has 19.
        assert_eq!(beyond(99.9, 1920), 1);
        assert_eq!(beyond(99.0, 1920), 19);
        assert_eq!(beyond(99.0, 1000), MIN_BEYOND);
        assert_eq!(beyond(99.0, 999), MIN_BEYOND - 1);
    }

    #[test]
    fn fnv_streams_like_one_shot() {
        let mut h = Fnv::default();
        h.write(b"ab");
        h.write(b"c");
        assert_eq!(h.finish(), Fnv::of(b"abc"));
        assert_ne!(Fnv::of(b"abc"), Fnv::of(b"abd"));
    }
}
