//! Spans recorded by the benchmark around its own calls into each layer
//! (README "Reading the span file"). Spans stay in memory while a run
//! measures and are written as JSON-lines when it ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The span file keeps the spans of every `FILE_SAMPLE`-th request.
pub const FILE_SAMPLE: u64 = 16;

/// One timed interval. `parent` is the index (the `id` in the span file)
/// of the span that caused this one; spans of one request share `req`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `client.wait`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<u32>,
    /// Identifier shared by a root and its children: the request's (or
    /// cycle's) sequence number `<< 8 |` its lane.
    pub req: u64,
}

/// An append-only list of spans; the index of a span is its id.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

/// Per-name totals of a [`SpanLog`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanSummary {
    /// Spans with this name.
    pub count: u64,
    /// Mean duration (ns).
    pub mean_ns: f64,
    /// Mean self time (ns): duration minus the part children cover.
    pub mean_self_ns: f64,
}

impl SpanLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    /// Record a span; returns its id for children to name as parent.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Record a root span and its back-to-back children in one call:
    /// `marks` are the boundaries (`marks[0]` = root start, last = root
    /// end) and `names[i]` covers `marks[i]..marks[i + 1]`.
    pub fn push_chain(
        &mut self,
        root: &'static str,
        names: &[&'static str],
        marks: &[u64],
        req: u64,
    ) {
        debug_assert_eq!(names.len() + 1, marks.len());
        let parent = self.push(Span {
            name: root,
            start_ns: marks[0],
            end_ns: marks[marks.len() - 1],
            parent: None,
            req,
        });
        for (name, pair) in names.iter().zip(marks.windows(2)) {
            self.push(Span {
                name,
                start_ns: pair[0],
                end_ns: pair[1],
                parent: Some(parent),
                req,
            });
        }
    }

    /// Number of spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans, in id order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append `other`'s spans, re-basing their parent ids.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in id order: its duration minus the part of
    /// its interval that its direct children cover (overlapping children
    /// are counted once, children are clipped to the parent).
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                if end > start {
                    children[parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Count, mean duration and mean self time per span name.
    #[must_use]
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let mut sums: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let entry = sums.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.end_ns - span.start_ns;
            entry.2 += self_ns;
        }
        sums.into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name,
                    SpanSummary {
                        count,
                        mean_ns: total as f64 / count as f64,
                        mean_self_ns: own as f64 / count as f64,
                    },
                )
            })
            .collect()
    }

    /// Write one JSON object per span:
    /// `{"id":…,"name":…,"start_ns":…,"end_ns":…,"parent":…|null,"req":…}`.
    /// Every span is recorded and summarised, but the file keeps the spans
    /// of one request in [`FILE_SAMPLE`] (by sequence number, `req >> 8`),
    /// which bounds it to a few megabytes.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            if (s.req >> 8) % FILE_SAMPLE != 0 {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        let root = log.push(span("request", 0, 100, None));
        log.push(span("a", 10, 30, Some(root)));
        log.push(span("b", 20, 50, Some(root))); // overlaps a by 10
        log.push(span("c", 90, 120, Some(root))); // clipped to the parent
        let selfs = log.self_times();
        // children cover [10,50) and [90,100) = 50 of 100.
        assert_eq!(selfs[root as usize], 50);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[3], 30);
    }

    #[test]
    fn chain_children_tile_the_root() {
        let mut log = SpanLog::new();
        log.push_chain("request", &["x", "y", "z"], &[5, 10, 40, 45], 9);
        assert_eq!(log.len(), 4);
        assert_eq!(log.self_times()[0], 0);
        let summary = log.summary();
        assert_eq!(summary["y"].mean_ns, 30.0);
        assert_eq!(summary["request"].mean_self_ns, 0.0);
        assert!(log.spans().iter().all(|s| s.req == 9));
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = SpanLog::new();
        a.push_chain("r", &["k"], &[0, 1], 1);
        let mut b = SpanLog::new();
        b.push_chain("r", &["k"], &[2, 3], 2);
        a.merge(b);
        assert_eq!(a.spans()[3].parent, Some(2));
    }
}
