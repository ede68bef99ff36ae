//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer
//! of the simulator. Spans nest on one stack (every span is opened
//! and closed on the main thread), carry the id of the workload
//! iteration they belong to, and are written out once, at the end,
//! as a Chrome trace through `dvh_obs::chrome`.

use dvh_obs::chrome::ChromeTrace;
use dvh_obs::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, as `<crate>.<call>`.
    pub name: &'static str,
    /// What the call ran on (an op, an app and configuration, ...).
    pub tag: &'static str,
    /// The workload iteration this span belongs to.
    pub iter: u32,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Host nanoseconds the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Storage is reserved up front so that recording
/// a span never allocates inside a region whose allocations are
/// counted.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    iter: u32,
}

/// Spans reserved per recorder; a traced suite records about 20k.
const RESERVED: usize = 1 << 18;

impl Spans {
    fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::with_capacity(RESERVED),
            stack: Vec::with_capacity(64),
            iter: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Self time of every span: its duration minus the durations of
    /// its direct children. Children never overlap, since one stack
    /// opens and closes them all.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.dur_ns();
            }
        }
        own
    }

    /// Per span name: (count, total ns, self ns), by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// The spans as a Chrome trace document. `ts` and `dur` are in
    /// nanoseconds; `tid` is the iteration id; `args` hold the tag,
    /// the parent span index and the self time.
    pub fn to_chrome(&self) -> String {
        let own = self.self_ns();
        let mut doc = ChromeTrace::new();
        doc.set_process_name(1, "perfbench");
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(Value::Null, |p| Value::Int(p as i64));
            let args = vec![
                ("id".to_string(), Value::Int(i as i64)),
                ("tag".to_string(), Value::Str(s.tag.to_string())),
                ("parent".to_string(), parent),
                ("self_ns".to_string(), Value::Int(own as i64)),
            ];
            doc.span(
                s.name,
                cat,
                1,
                s.iter as usize,
                s.start_ns,
                s.dur_ns(),
                args,
            );
        }
        doc.to_json()
    }
}

/// Spans when tracing, nothing otherwise: the untraced path costs one
/// branch per call site.
pub struct Tracer(Option<Spans>);

impl Tracer {
    /// A recorder that keeps nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer(Some(Spans::new()))
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Starts a new workload iteration: later spans carry a new id.
    pub fn next_iteration(&mut self) {
        if let Some(s) = &mut self.0 {
            s.iter += 1;
        }
    }

    /// Opens a span.
    #[inline]
    pub fn enter(&mut self, name: &'static str, tag: &'static str) {
        if let Some(s) = &mut self.0 {
            let start_ns = s.now_ns();
            let idx = s.spans.len() as u32;
            s.spans.push(Span {
                name,
                tag,
                iter: s.iter,
                parent: s.stack.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            s.stack.push(idx);
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if let Some(s) = &mut self.0 {
            let end = s.now_ns();
            let idx = s.stack.pop().expect("exit matches an enter");
            s.spans[idx as usize].end_ns = end;
        }
    }

    /// The recorded spans, if tracing.
    pub fn spans(&self) -> Option<&Spans> {
        self.0.as_ref()
    }

    /// Spans recorded since `mark` (a value of [`Tracer::mark`]).
    pub fn since(&self, mark: usize) -> &[Span] {
        self.0.as_ref().map_or(&[], |s| &s.spans[mark..])
    }

    /// The number of spans recorded so far.
    pub fn mark(&self) -> usize {
        self.0.as_ref().map_or(0, |s| s.spans.len())
    }
}

/// Durations, in nanoseconds, of the spans in `spans` named `name`
/// with tag `tag`.
pub fn durations(spans: &[Span], name: &str, tag: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.tag == tag)
        .map(Span::dur_ns)
        .collect()
}

/// Sum of [`durations`], in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str, tag: &str) -> u64 {
    durations(spans, name, tag).iter().sum()
}
