//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps a span around each public call it makes into the
//! pipeline (name, start, end, parent span, and the job it belongs to).
//! Spans stay in memory until the run ends; then they are written out
//! one JSON object per line, each with its self time: its duration minus
//! the part of its interval that child spans cover. A disabled recorder
//! only runs the wrapped call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are seconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub job: Option<usize>,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: None,
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            job: self.job,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        result
    }

    /// Runs `f` inside a `job` span; spans opened within carry `job` as
    /// their job id.
    pub fn job<R>(&mut self, job: usize, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let outer = self.job.replace(job);
        let result = self.span("job", f);
        self.job = outer;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = span.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.seconds() - covered
        })
        .collect()
}

/// Per span name: `(count, total seconds, self seconds)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (span, self_s) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.seconds();
        entry.2 += self_s;
    }
    out
}

/// The spans as JSON lines, each with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, (span, self_s)) in spans.iter().zip(self_times(spans)).enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
            span.name,
            opt(span.job),
            opt(span.parent),
            span.start,
            span.end,
            self_s
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            job: None,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("job", 0.0, 10.0, None),
            span("engine.new", 1.0, 3.0, Some(0)),
            span("engine.check", 4.0, 9.0, Some(0)),
            span("inner", 5.0, 6.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("parent", 0.0, 10.0, None),
            span("a", 2.0, 6.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("late", 9.0, 12.0, Some(0)),
        ];
        // Covered: [2, 8] plus [9, 10] = 7 of 10.
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn recorder_nests_spans_and_tags_jobs() {
        let mut tracer = Tracer::new(true);
        let value = tracer.job(7, |t| t.span("engine.check", |t| t.span("inner", |_| 42)));
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["job", "engine.check", "inner"]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.job == Some(7) && s.end >= s.start));
        assert_eq!(totals(spans)["inner"].0, 1);
        assert_eq!(to_jsonl(spans).lines().count(), 3);
    }

    #[test]
    fn disabled_recorder_only_runs_the_call() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.job(1, |t| t.span("x", |_| 5)), 5);
        assert!(tracer.spans().is_empty());
    }
}
