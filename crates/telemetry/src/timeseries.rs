//! Time-binned series for "metric over time" figures.

use crate::histogram::LogHistogram;

/// A series of latency observations bucketed into fixed-width time bins,
/// each bin holding a full histogram — this is what regenerates
/// "p95 latency vs. time" plots (Fig. 3 of the paper).
#[derive(Debug, Clone)]
pub struct BinnedSeries {
    bin_width_ns: u64,
    bins: Vec<LogHistogram>,
}

impl BinnedSeries {
    /// Creates a series with the given bin width (nanoseconds).
    pub fn new(bin_width_ns: u64) -> Self {
        assert!(bin_width_ns > 0, "bin width must be positive");
        BinnedSeries {
            bin_width_ns,
            bins: Vec::new(),
        }
    }

    /// Bin width in nanoseconds.
    pub fn bin_width_ns(&self) -> u64 {
        self.bin_width_ns
    }

    /// Records `value` observed at absolute time `t_ns`.
    pub fn record(&mut self, t_ns: u64, value: u64) {
        let idx = (t_ns / self.bin_width_ns) as usize;
        if idx >= self.bins.len() {
            self.bins.resize_with(idx + 1, LogHistogram::new);
        }
        self.bins[idx].record(value);
    }

    /// Number of bins (up to the latest recorded time).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if no bins exist.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// The histogram of bin `idx`, if it exists.
    pub fn bin(&self, idx: usize) -> Option<&LogHistogram> {
        self.bins.get(idx)
    }

    /// Iterates `(bin_start_ns, quantile_value)` for non-empty bins.
    pub fn quantile_series(&self, q: f64) -> Vec<(u64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
            .map(|(i, h)| (i as u64 * self.bin_width_ns, h.quantile(q)))
            .collect()
    }

    /// Iterates `(bin_start_ns, count)` for all bins.
    pub fn count_series(&self) -> Vec<(u64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, h)| (i as u64 * self.bin_width_ns, h.count()))
            .collect()
    }

    /// The `q` quantile over the bins that start in `[lo_ns, hi_ns)` —
    /// e.g. the p95 before and after an injection at `t`:
    /// `quantile_between(0, t, 0.95)` and `quantile_between(t, u64::MAX,
    /// 0.95)`.
    pub fn quantile_between(&self, lo_ns: u64, hi_ns: u64, q: f64) -> u64 {
        let mut h = LogHistogram::new();
        for (i, bin) in self.bins.iter().enumerate() {
            let start = i as u64 * self.bin_width_ns;
            if start >= lo_ns && start < hi_ns {
                h.merge(bin);
            }
        }
        h.quantile(q)
    }

    /// Merges all bins into one histogram (whole-run distribution).
    pub fn merged(&self) -> LogHistogram {
        let mut out = LogHistogram::new();
        for b in &self.bins {
            out.merge(b);
        }
        out
    }
}

/// An append-only series of `(time, value)` points for scalar signals such
/// as controller weights or the chosen ensemble timeout.
#[derive(Debug, Clone, Default)]
pub struct ScalarSeries {
    points: Vec<(u64, f64)>,
}

impl ScalarSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point; times must be non-decreasing.
    pub fn push(&mut self, t_ns: u64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            debug_assert!(t_ns >= last, "ScalarSeries times must be non-decreasing");
        }
        self.points.push((t_ns, value));
    }

    /// All points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were pushed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last value at or before `t_ns` (step interpolation), if any.
    pub fn value_at(&self, t_ns: u64) -> Option<f64> {
        match self.points.binary_search_by_key(&t_ns, |&(t, _)| t) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// The first instant at or after `at_ns` when the value is below
    /// `threshold`: `at_ns` itself if the value in force then already
    /// is, else the first later point below it. This is the Fig. 3
    /// reaction rule (threshold 0.5 on the degraded backend's weight).
    pub fn first_below(&self, at_ns: u64, threshold: f64) -> Option<u64> {
        if self.value_at(at_ns).is_some_and(|v| v < threshold) {
            return Some(at_ns);
        }
        self.points
            .iter()
            .find(|&&(t, v)| t > at_ns && v < threshold)
            .map(|&(t, _)| t)
    }

    /// The first time the value satisfies `pred` at or after `t_ns`.
    pub fn first_time_after(&self, t_ns: u64, pred: impl Fn(f64) -> bool) -> Option<u64> {
        self.points
            .iter()
            .find(|&&(t, v)| t >= t_ns && pred(v))
            .map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_split_by_time() {
        let mut s = BinnedSeries::new(1_000);
        s.record(0, 10);
        s.record(999, 20);
        s.record(1_000, 30);
        s.record(2_500, 40);
        assert_eq!(s.len(), 3);
        assert_eq!(s.bin(0).unwrap().count(), 2);
        assert_eq!(s.bin(1).unwrap().count(), 1);
        assert_eq!(s.bin(2).unwrap().count(), 1);
    }

    #[test]
    fn quantile_series_skips_empty_bins() {
        let mut s = BinnedSeries::new(100);
        s.record(0, 5);
        s.record(350, 7); // bins 1 and 2 empty
        let series = s.quantile_series(0.5);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 0);
        assert_eq!(series[1].0, 300);
    }

    #[test]
    fn merged_equals_total() {
        let mut s = BinnedSeries::new(10);
        for t in 0..100 {
            s.record(t, t);
        }
        assert_eq!(s.merged().count(), 100);
    }

    #[test]
    fn scalar_series_step_lookup() {
        let mut s = ScalarSeries::new();
        assert!(s.is_empty());
        s.push(100, 0.5);
        s.push(200, 0.4);
        s.push(300, 0.3);
        assert_eq!(s.value_at(50), None);
        assert_eq!(s.value_at(100), Some(0.5));
        assert_eq!(s.value_at(250), Some(0.4));
        assert_eq!(s.value_at(1000), Some(0.3));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn scalar_series_first_time_after() {
        let mut s = ScalarSeries::new();
        s.push(100, 0.5);
        s.push(200, 0.2);
        s.push(300, 0.1);
        assert_eq!(s.first_time_after(0, |v| v < 0.3), Some(200));
        assert_eq!(s.first_time_after(250, |v| v < 0.3), Some(300));
        assert_eq!(s.first_time_after(0, |v| v > 0.9), None);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_panics() {
        let _ = BinnedSeries::new(0);
    }
}
