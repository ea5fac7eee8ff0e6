//! The traced run's span list: name, start, end and parent of every timed
//! interval, kept in memory and written as JSON when the run ends. Spans are
//! recorded from the benchmark's own files, around the calls into each layer.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Seconds since the log was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// A stack-disciplined span recorder; only the traced run has one.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self times of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time(&self.spans, i))
            .collect()
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("workload", Json::str(workload)),
                        ("name", Json::str(s.name.clone())),
                        ("start_s", Json::Num(s.start)),
                        ("end_s", Json::Num(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_s", Json::Num(self_time(&self.spans, id))),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's duration minus the part of its interval its direct children
/// cover. Children may overlap each other (parallel work) or nest; the
/// covered part is the union of their intervals clipped to the parent.
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut frontier = me.start;
    for (a, b) in kids {
        if b > frontier {
            covered += b - a.max(frontier);
            frontier = b;
        }
    }
    (me.end - me.start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("fit", 0.0, 10.0, None),
            span("cse", 1.0, 2.0, Some(0)),
            span("execute", 4.0, 9.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 4.0);
        assert_eq!(self_time(&spans, 1), 1.0);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        let spans = vec![
            span("wave", 0.0, 10.0, None),
            span("part0", 1.0, 6.0, Some(0)),
            span("part1", 4.0, 8.0, Some(0)),
            // Wholly inside part0's interval: adds nothing.
            span("part2", 2.0, 3.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 3.0);
    }

    #[test]
    fn grandchildren_belong_to_their_own_parent() {
        let spans = vec![
            span("fit", 0.0, 10.0, None),
            span("profile", 2.0, 8.0, Some(0)),
            span("sample", 3.0, 5.0, Some(1)),
        ];
        assert_eq!(self_time(&spans, 0), 4.0);
        assert_eq!(self_time(&spans, 1), 4.0);
        assert_eq!(self_time(&spans, 2), 2.0);
    }

    #[test]
    fn child_is_clipped_to_the_parent_interval() {
        let spans = vec![
            span("phase", 2.0, 6.0, None),
            span("late", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 3.0);
    }

    #[test]
    fn scopes_nest() {
        let mut log = SpanLog::new();
        let v = log.scope("outer", |log| log.scope("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        assert_eq!(log.durations("inner").len(), 1);
        assert_eq!(log.self_times("outer").len(), 1);
    }
}
