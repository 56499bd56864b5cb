//! Spans recorded from the benchmark's side of each crate boundary.
//!
//! A span is `name, start, end, parent, rep, count`. Spans are held in memory
//! and written out once, after the last repetition. `enter`/`exit` always
//! read the clock (two reads per span, tens of nanoseconds) because the
//! workloads need a few coarse durations in every mode; a span is *stored*
//! only while tracing is on, and the fine-grained spans (per-trial phases,
//! codec probes) are only entered on the traced path.

use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate the call goes into.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The repetition the span belongs to (0 = probes after the last one).
    pub rep: u32,
    /// Work done inside the span, counted at the same boundary (events,
    /// bytes, records, calls); 0 when the call has no natural count.
    pub count: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span that has been entered and not yet left.
#[must_use = "an entered span must be passed to Tracer::exit"]
pub struct Open {
    index: Option<u32>,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: false,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being stored; workloads take their instrumented
    /// path exactly when this is true.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Turns recording on or off for the repetition `rep` that follows.
    pub fn start_rep(&mut self, rep: u32, recording: bool) {
        assert!(self.stack.is_empty(), "a span is still open");
        self.rep = rep;
        self.recording = recording;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep: self.rep,
                count: 0,
            });
            self.stack.push(index);
            index
        });
        Open { index, start }
    }

    /// Leaves `open`, which must be the innermost open span, and returns how
    /// long it lasted.
    pub fn exit(&mut self, open: Open, count: u64) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans must nest");
            let span = &mut self.spans[index as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            span.count = count;
        }
        elapsed
    }

    /// Records one call into a layer as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let result = f();
        self.exit(open, 0);
        result
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::duration_s).collect()
    }

    /// Total seconds and total count over every span called `name`.
    pub fn totals(&self, name: &str) -> (f64, u64) {
        self.named(name)
            .fold((0.0, 0), |(s, c), sp| (s + sp.duration_s(), c + sp.count))
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Share of the root spans' time that their direct children cover: what
    /// is left is the benchmark's own glue between calls into the layers.
    pub fn coverage_frac(&self) -> f64 {
        let mut roots = 0u64;
        let mut covered = 0u64;
        for span in &self.spans {
            match span.parent {
                None => roots += span.end_ns - span.start_ns,
                Some(p) if self.spans[p as usize].parent.is_none() => {
                    covered += span.end_ns - span.start_ns;
                }
                Some(_) => {}
            }
        }
        if roots == 0 {
            0.0
        } else {
            covered as f64 / roots as f64
        }
    }

    /// The span file: one JSON object, spans in start order.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"rep\": {}, \"count\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.rep,
                s.count,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}
