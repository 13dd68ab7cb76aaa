//! Per-slice accounting: the measured time is cut into equal slices, every
//! metric is computed per slice, and the run reports the median slice.
//! Lanes record into their own [`Slices`] (4 bytes per reply, so the
//! bookkeeping stays small beside the database in `peak_rss_mb`).

use crate::stats::percentile;

/// Slices a serving run is cut into (1 s each at the nominal 16 s; the
/// disturbances of a shared 2-core box last about that long, so the
/// median of 16 shrugs them off where the median of 4 did not).
pub const SLICES: usize = 16;

#[derive(Clone, Debug, Default)]
struct SliceAcc {
    ok: u64,
    /// Latencies (ns, saturating at ~4.29 s) of the cheap operation.
    reads: Vec<u32>,
    /// Latencies of the expensive operation.
    writes: Vec<u32>,
}

/// The slices of one lane, or of a whole run once merged.
#[derive(Clone, Debug)]
pub struct Slices {
    start_ns: u64,
    width_ns: u64,
    acc: Vec<SliceAcc>,
}

/// Per-slice figures, one entry per slice that had a sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SliceStats {
    /// Successful operations per second.
    pub tput: Vec<f64>,
    /// Median latency of the cheap operation, µs.
    pub read_p50: Vec<f64>,
    /// Median latency of the expensive operation, µs.
    pub write_p50: Vec<f64>,
    /// 99th percentile over all operations, µs.
    pub p99: Vec<f64>,
}

impl Slices {
    /// `count` equal slices of `[start_ns, end_ns)`.
    #[must_use]
    pub fn new(start_ns: u64, end_ns: u64, count: usize) -> Slices {
        Slices {
            start_ns,
            width_ns: ((end_ns - start_ns) / count as u64).max(1),
            acc: vec![SliceAcc::default(); count],
        }
    }

    /// `[start, end)` of slice `i`.
    #[must_use]
    pub fn bounds(&self, i: usize) -> (u64, u64) {
        let start = self.start_ns + i as u64 * self.width_ns;
        (start, start + self.width_ns)
    }

    /// Account one operation completed at `done_ns`; operations outside
    /// every slice (warm-up, drain) are ignored.
    pub fn record(&mut self, done_ns: u64, lat_ns: u64, write: bool, ok: bool) {
        let Some(offset) = done_ns.checked_sub(self.start_ns) else {
            return;
        };
        let Some(acc) = self.acc.get_mut((offset / self.width_ns) as usize) else {
            return;
        };
        acc.ok += u64::from(ok);
        let lat = u32::try_from(lat_ns).unwrap_or(u32::MAX);
        if write {
            &mut acc.writes
        } else {
            &mut acc.reads
        }
        .push(lat);
    }

    /// Fold another lane's slices (same geometry) into these.
    pub fn merge(&mut self, other: &Slices) {
        debug_assert_eq!(
            (self.start_ns, self.width_ns),
            (other.start_ns, other.width_ns)
        );
        for (mine, theirs) in self.acc.iter_mut().zip(&other.acc) {
            mine.ok += theirs.ok;
            mine.reads.extend_from_slice(&theirs.reads);
            mine.writes.extend_from_slice(&theirs.writes);
        }
    }

    /// Per-slice throughput and latency percentiles.
    #[must_use]
    pub fn stats(mut self) -> SliceStats {
        let us = |sorted: &[u32], q: f64| f64::from(percentile(sorted, q)) / 1e3;
        let mut stats = SliceStats::default();
        for acc in &mut self.acc {
            stats
                .tput
                .push(acc.ok as f64 / (self.width_ns as f64 / 1e9));
            acc.reads.sort_unstable();
            acc.writes.sort_unstable();
            if !acc.reads.is_empty() {
                stats.read_p50.push(us(&acc.reads, 0.50));
            }
            if !acc.writes.is_empty() {
                stats.write_p50.push(us(&acc.writes, 0.50));
            }
            let mut all = std::mem::take(&mut acc.reads);
            all.append(&mut acc.writes);
            all.sort_unstable();
            if !all.is_empty() {
                stats.p99.push(us(&all, 0.99));
            }
        }
        stats
    }
}

/// Median traced-slice throughput over median untraced-slice throughput:
/// traced runs record spans in the odd slices only.
#[must_use]
pub fn traced_over_untraced(tput: &[f64]) -> f64 {
    let even: Vec<f64> = tput.iter().copied().step_by(2).collect();
    let odd: Vec<f64> = tput.iter().copied().skip(1).step_by(2).collect();
    crate::stats::median(&odd) / crate::stats::median(&even)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_cut_by_completion_time() {
        let mut s = Slices::new(100, 300, 2);
        s.record(50, 9_000, false, true); // warm-up, ignored
        s.record(100, 1_000, false, true); // slice 0
        s.record(150, 3_000, true, true); // slice 0
        s.record(199, 2_000, false, false); // slice 0, not ok
        let mut other = Slices::new(100, 300, 2);
        other.record(200, 5_000, false, true); // slice 1
        other.record(300, 7_000, false, true); // past the end, ignored
        s.merge(&other);
        assert_eq!(s.bounds(1), (200, 300));
        let stats = s.stats();
        assert_eq!(stats.tput, vec![2.0 / 100e-9, 1.0 / 100e-9]);
        assert_eq!(stats.read_p50, vec![1.0, 5.0]);
        assert_eq!(stats.write_p50, vec![3.0]);
        assert_eq!(stats.p99, vec![3.0, 5.0]);
    }

    #[test]
    fn overhead_ratio_compares_odd_with_even_slices() {
        assert_eq!(traced_over_untraced(&[100.0, 90.0, 100.0, 110.0]), 1.0);
        assert_eq!(traced_over_untraced(&[100.0, 50.0]), 0.5);
    }
}
