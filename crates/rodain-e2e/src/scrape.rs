//! Reading the `rodain-obs` registry from outside: the text rendering a
//! `Metrics` wire op (or `MetricsSnapshot::render_text`) returns, parsed
//! back into counters and histogram totals.

/// Count, sum and p99 of one histogram series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistTotals {
    /// Observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// 99th percentile as the registry renders it.
    pub p99: u64,
}

impl HistTotals {
    /// Mean observed value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One scrape: every counter and histogram line of a text rendering.
/// Series keep their full names, label block included.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, HistTotals)>,
}

fn base_name(series: &str) -> &str {
    series.split('{').next().unwrap_or(series)
}

impl Scrape {
    /// Parse `counter name v` and `hist name count=… sum=… … p99=… max=…`
    /// lines; gauge and event lines are skipped.
    #[must_use]
    pub fn parse(text: &str) -> Scrape {
        let mut scrape = Scrape::default();
        for line in text.lines() {
            let mut words = line.split(' ');
            match (words.next(), words.next()) {
                (Some("counter"), Some(name)) => {
                    if let Some(v) = words.next().and_then(|v| v.parse().ok()) {
                        scrape.counters.push((name.to_string(), v));
                    }
                }
                (Some("hist"), Some(name)) => {
                    let mut totals = HistTotals::default();
                    for field in words {
                        match field.split_once('=') {
                            Some(("count", v)) => totals.count = v.parse().unwrap_or(0),
                            Some(("sum", v)) => totals.sum = v.parse().unwrap_or(0),
                            Some(("p99", v)) => totals.p99 = v.parse().unwrap_or(0),
                            _ => {}
                        }
                    }
                    scrape.hists.push((name.to_string(), totals));
                }
                _ => {}
            }
        }
        scrape
    }

    /// Fold another scrape in (series are kept side by side; the accessors
    /// below add them up).
    pub fn merge(&mut self, other: Scrape) {
        self.counters.extend(other.counters);
        self.hists.extend(other.hists);
    }

    /// Sum of every counter series named `base`, whatever its labels
    /// (`{protocol=…}`, `{shard=…}`). 0 when none is registered.
    #[must_use]
    pub fn total(&self, base: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| base_name(name) == base)
            .map(|(_, v)| v)
            .sum()
    }

    /// Combined totals of the histogram series named `base` that carry no
    /// `tier=` label (the per-tier `engine_commit_wait_ns` series repeat
    /// the unlabelled one). p99 is the largest of the merged series.
    #[must_use]
    pub fn dist(&self, base: &str) -> HistTotals {
        let mut out = HistTotals::default();
        for (name, h) in &self.hists {
            if base_name(name) == base && !name.contains("tier=") {
                out.count += h.count;
                out.sum += h.sum;
                out.p99 = out.p99.max(h.p99);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_and_histograms_and_sums_labels() {
        let text = "counter txn_committed_total{shard=\"0\"} 5\n\
                    counter txn_committed_total{shard=\"1\"} 7\n\
                    gauge txn_active 3\n\
                    hist engine_commit_wait_ns count=4 sum=400 min=50 p50=100 p95=150 p99=190 max=200\n\
                    hist engine_commit_wait_ns{tier=\"mirror_acked\"} count=4 sum=400 min=50 p50=100 p95=150 p99=190 max=200\n\
                    event 1 2 takeover primary failed\n";
        let s = Scrape::parse(text);
        assert_eq!(s.total("txn_committed_total"), 12);
        assert_eq!(s.total("missing_total"), 0);
        let h = s.dist("engine_commit_wait_ns");
        assert_eq!((h.count, h.sum, h.p99), (4, 400, 190));
        assert_eq!(h.mean(), 100.0);
        assert_eq!(s.dist("absent_ns").mean(), 0.0);
    }
}
