//! The Chrome trace-event export of one [`ExecContext`]: see
//! [`chrome_trace_json`].

use keystone_dataflow::json::JVal;

use crate::context::ExecContext;
use crate::trace::TraceEvent;

/// Whole microseconds of `secs`, clamped at zero.
fn micros(secs: f64) -> u64 {
    (secs * 1e6).max(0.0) as u64
}

/// One process group: its named threads and its complete events.
#[derive(Default)]
struct Process {
    pid: u64,
    threads: Vec<(u64, String)>,
    events: Vec<JVal>,
}

impl Process {
    /// Appends a `"ph":"X"` event spanning `(ts, dur)` microseconds on the
    /// thread named `lane.0`, created on first use with id `lane.1` (the
    /// next free id when `None`).
    fn push(
        &mut self,
        lane: (String, Option<u64>),
        name: String,
        cat: &str,
        (ts, dur): (u64, u64),
        args: Vec<(&str, JVal)>,
    ) {
        let tid = match self.threads.iter().find(|(_, t)| *t == lane.0) {
            Some(&(tid, _)) => tid,
            None => {
                let tid = lane.1.unwrap_or(self.threads.len() as u64);
                self.threads.push((tid, lane.0));
                tid
            }
        };
        self.events.push(JVal::obj(vec![
            ("name", JVal::Str(name)),
            ("cat", JVal::str(cat)),
            ("ph", JVal::str("X")),
            ("pid", JVal::UInt(self.pid)),
            ("tid", JVal::UInt(tid)),
            ("ts", JVal::UInt(ts)),
            ("dur", JVal::UInt(dur)),
            ("args", JVal::obj(args)),
        ]));
    }

    /// Appends the group's metadata events, then its complete events.
    fn render(self, name: &str, out: &mut Vec<JVal>) {
        let meta = |kind: &str, tid: Option<u64>, value: &str| {
            let mut pairs = vec![
                ("name", JVal::str(kind)),
                ("ph", JVal::str("M")),
                ("pid", JVal::UInt(self.pid)),
                ("args", JVal::obj(vec![("name", JVal::str(value))])),
            ];
            pairs.extend(tid.map(|t| ("tid", JVal::UInt(t))));
            JVal::obj(pairs)
        };
        out.push(meta("process_name", None, name));
        for (tid, thread) in &self.threads {
            out.push(meta("thread_name", Some(*tid), thread));
        }
        out.extend(self.events);
    }
}

/// Serializes the context's whole run as one Perfetto-loadable Chrome
/// trace-event JSON array of three process groups, each with `"ph":"M"`
/// events naming it and its threads:
/// * `pid 1` — measured worker lanes: one track per static lane (a
///   region's contiguous chunk of partitions, not an OS thread), one
///   complete (`"ph":"X"`) event per `TaskSpan` at wall-clock microseconds.
///   Two threads may run partitions of one lane at once, so a lane's
///   slices can overlap;
/// * `pid 2` — the simulated cluster: the `SimClock` timeline, one thread
///   per stage prefix (`recovery:` and `serve:` included);
/// * `pid 3` — serving (virtual), only when the tracer holds serving
///   events: each [`ServeBatch`](TraceEvent::ServeBatch) wave from its open
///   on `serve:batches`, each [`ServeReject`](TraceEvent::ServeReject) as an
///   instant on `serve:rejects`.
pub fn chrome_trace_json(ctx: &ExecContext) -> String {
    let [mut workers, mut sim, mut serve] = [1, 2, 3].map(|pid| Process {
        pid,
        ..Default::default()
    });
    for s in ctx.metrics.spans() {
        let lane = (format!("worker-{}", s.worker), Some(s.worker as u64));
        let name = format!("{}[p{}]", s.stage, s.partition);
        let span = (s.start_us, s.end_us.saturating_sub(s.start_us));
        let args = vec![
            ("partition", JVal::UInt(s.partition as u64)),
            ("items_in", JVal::UInt(s.items_in)),
            ("items_out", JVal::UInt(s.items_out)),
            ("bytes", JVal::UInt(s.bytes)),
            ("retries", JVal::UInt(u64::from(s.retries))),
        ];
        workers.push(lane, name, s.op, span, args);
    }

    for (start_secs, e) in ctx.sim.timeline() {
        let lane = format!("sim:{}", e.stage.split(':').next().unwrap_or(&e.stage));
        let span = (micros(start_secs), micros(e.exec_secs + e.coord_secs));
        let args = vec![
            ("exec_secs", JVal::Num(e.exec_secs)),
            ("coord_secs", JVal::Num(e.coord_secs)),
        ];
        sim.push((lane, None), e.stage.to_string(), "sim", span, args);
    }

    for traced in ctx.tracer.events() {
        match traced.event {
            TraceEvent::ServeBatch {
                batch,
                size,
                dispatch_secs,
                linger_secs,
                execute_secs,
            } => {
                let open_secs = (dispatch_secs - linger_secs).max(0.0);
                let span = (micros(open_secs), micros(linger_secs + execute_secs));
                let args = vec![
                    ("size", JVal::UInt(size as u64)),
                    ("linger_secs", JVal::Num(linger_secs)),
                    ("execute_secs", JVal::Num(execute_secs)),
                ];
                let lane = ("serve:batches".to_string(), None);
                serve.push(lane, format!("batch-{batch}"), "serve", span, args);
            }
            TraceEvent::ServeReject {
                request,
                at_secs,
                queue_depth,
            } => {
                let args = vec![
                    ("request", JVal::UInt(request)),
                    ("queue_depth", JVal::UInt(queue_depth as u64)),
                ];
                let lane = ("serve:rejects".to_string(), None);
                let name = format!("reject-{request}");
                serve.push(lane, name, "serve", (micros(at_secs), 0), args);
            }
            _ => {}
        }
    }

    let mut out = Vec::new();
    workers.render("workers (measured)", &mut out);
    sim.render("simulated cluster", &mut out);
    if !serve.events.is_empty() {
        serve.render("serving (virtual)", &mut out);
    }
    JVal::Arr(out).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use keystone_dataflow::json::{parse, Value};
    use keystone_dataflow::metrics::TaskSpan;
    use std::collections::{HashMap, HashSet};

    fn span(partition: usize, worker: usize) -> TaskSpan {
        TaskSpan {
            stage: "transform:x".into(),
            op: "map",
            op_seq: 0,
            stage_id: Some(1),
            partition,
            worker,
            start_us: 0,
            end_us: 1_000 * (partition as u64 + 1),
            items_in: 10,
            items_out: 10,
            bytes: 80,
            retries: 0,
        }
    }

    fn num(e: &Value, key: &str) -> u64 {
        e.get(key).and_then(Value::as_f64).expect(key) as u64
    }

    /// Parses the export and checks its invariants: one complete event per
    /// task span on pid 1, per `SimClock` entry on pid 2 and per serving
    /// event on pid 3 — which renders only when there are serving events —
    /// and a `thread_name` for every `(pid, tid)` an event lands on.
    fn check(ctx: &ExecContext) -> Vec<Value> {
        let serving = ctx.tracer.events().into_iter().filter(|t| {
            matches!(
                t.event,
                TraceEvent::ServeBatch { .. } | TraceEvent::ServeReject { .. }
            )
        });
        let mut expected = HashMap::from([(1, ctx.metrics.span_count()), (2, ctx.sim.mark())]);
        let serving = serving.count();
        if serving > 0 {
            expected.insert(3, serving);
        }
        let doc = parse(&chrome_trace_json(ctx)).expect("trace must parse");
        let events = doc.as_arr().expect("trace is an array").to_vec();
        let ph = |e: &Value| e.get("ph").and_then(Value::as_str).map(str::to_string);
        let mut per_pid: HashMap<u64, usize> = HashMap::new();
        let mut named: HashSet<(u64, u64)> = HashSet::new();
        for e in &events {
            match ph(e).as_deref() {
                Some("X") => *per_pid.entry(num(e, "pid")).or_default() += 1,
                Some("M") if e.get("name").and_then(Value::as_str) == Some("thread_name") => {
                    named.insert((num(e, "pid"), num(e, "tid")));
                }
                Some("M") => {}
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert_eq!(per_pid, expected);
        for e in events.iter().filter(|e| ph(e).as_deref() == Some("X")) {
            let lane = (num(e, "pid"), num(e, "tid"));
            assert!(named.contains(&lane), "lane {lane:?} has no thread_name");
        }
        events
    }

    #[test]
    fn every_ledger_entry_renders_once_on_a_named_lane() {
        let ctx = ExecContext::default_cluster();
        ctx.metrics
            .record_spans(vec![span(0, 0), span(1, 1), span(2, 0)]);
        ctx.sim.charge_seconds("solve:iter0", 1.5, 0.5);
        ctx.sim.charge_seconds("recovery:solve", 0.5, 0.0);
        ctx.sim.charge_seconds("featurize", 1.0, 0.0);
        assert!(!check(&ctx).iter().any(|e| num(e, "pid") == 3));

        ctx.tracer.record(TraceEvent::ServeBatch {
            batch: 0,
            size: 3,
            dispatch_secs: 0.5,
            linger_secs: 0.2,
            execute_secs: 1.0,
        });
        ctx.tracer.record(TraceEvent::ServeReject {
            request: 7,
            at_secs: 0.25,
            queue_depth: 4,
        });
        let events = check(&ctx);

        let named = |name: &str| {
            let name = Some(name);
            events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == name)
                .unwrap_or_else(|| panic!("no event named {name:?}"))
        };
        // Sim entries sit end to end: 2.0s, then 0.5s, then 1.0s.
        assert_eq!(num(named("featurize"), "ts"), 2_500_000);
        // A wave spans linger + execute from its open (dispatch - linger).
        let wave = named("batch-0");
        assert_eq!((num(wave, "ts"), num(wave, "dur")), (300_000, 1_200_000));
        let reject = named("reject-7");
        assert_eq!((num(reject, "ts"), num(reject, "dur")), (250_000, 0));
    }
}
