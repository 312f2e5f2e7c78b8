//! In-memory span recorder, written out as Chrome trace-event JSON.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! simulator's public API (setup steps, forks, driver calls); nothing
//! is added inside the program. The file loads in Perfetto or
//! `chrome://tracing`.

use std::fmt::Write as _;
use std::time::Instant;

/// One span.
struct Span {
    /// Layer-qualified name of the call, e.g. `core.build`.
    name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Operation the span belongs to (`None` for setup spans).
    op: Option<u64>,
    /// Numeric annotations (per-layer self times of an op span).
    args: Vec<(String, f64)>,
}

/// Records nested spans. `begin`/`end` pair like a stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str, op: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close in order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Close every span still open (an op that panicked mid-span).
    pub fn unwind(&mut self) {
        while let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Attach a numeric annotation to a span.
    pub fn annotate(&mut self, id: usize, key: impl Into<String>, value: f64) {
        self.spans[id].args.push((key.into(), value));
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// span, timestamps in microseconds, plus `metadata` key/values.
    pub fn to_chrome_json(&self, metadata: &[(String, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(op) = s.op {
                let _ = write!(out, ",\"op\":{op}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("],\"metadata\":{");
        for (i, (k, v)) in metadata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":\"{v}\"");
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::default();
        let a = t.begin("outer", Some(3));
        let b = t.begin("inner", Some(3));
        t.end(b);
        t.annotate(a, "x.self_ms", 1.5);
        t.end(a);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let json = t.to_chrome_json(&[("seed".into(), "7".into())]);
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"x.self_ms\":1.5"));
        assert!(json.contains("\"seed\":\"7\""));
    }
}
