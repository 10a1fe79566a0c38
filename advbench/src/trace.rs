//! In-memory span recorder for `--trace 1` runs.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer of the system; nothing inside the program is instrumented. All
//! spans stay in memory and are written out as JSON lines when the run
//! ends, so recording costs one `Vec` push per span.

use advcomp_serve::json::{Json, JsonObj};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Groups the spans of one operation (a request or a sweep point).
    pub trace_id: u64,
    /// Unique within the run.
    pub span_id: u64,
    /// The span that caused this one, `None` for a trace root.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `compress.apply.dns`.
    pub name: String,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered by the span, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder with one time epoch. A disabled recorder keeps nothing
/// and times nothing, so untraced runs share the traced code path at the
/// cost of a branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from now; `enabled = false`
    /// records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an already finished span; returns its id (0 when
    /// disabled).
    pub fn record(
        &mut self,
        trace_id: u64,
        parent: Option<u64>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let span_id = self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            trace_id,
            span_id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        });
        span_id
    }

    /// Opens a span that [`Tracer::close`] ends; children may name it as
    /// their parent in between.
    pub fn open(&mut self, trace_id: u64, parent: Option<u64>, name: impl Into<String>) -> u64 {
        let now = Instant::now();
        self.record(trace_id, parent, name, now, now)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, span_id: u64) {
        if !self.enabled {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[(span_id - 1) as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn within<T>(
        &mut self,
        trace_id: u64,
        parent: Option<u64>,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(trace_id, parent, name, start, Instant::now());
        out
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = JsonObj::new()
                .set("trace_id", Json::Num(s.trace_id as f64))
                .set("span_id", Json::Num(s.span_id as f64))
                .set(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                )
                .set("name", Json::Str(s.name.clone()))
                .set("start_ns", Json::Num(s.start_ns as f64))
                .set("end_ns", Json::Num(s.end_ns as f64))
                .build();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Per-span self time: duration minus the part of it covered by the
/// union of its children's intervals. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.span_id, i))
        .collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.clamp(reach, s.end_ns), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            trace_id: 1,
            span_id: id,
            parent,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60), // overlaps span 2 by 10
            span(4, Some(3), 35, 45),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 20, 10]);
    }

    #[test]
    fn open_close_nest() {
        let mut off = Tracer::new(false);
        assert_eq!(off.within(1, None, "x", || 5), 5);
        assert!(off.spans().is_empty());

        let mut t = Tracer::new(true);
        let root = t.open(7, None, "root");
        let v = t.within(7, Some(root), "leaf", || 3);
        t.close(root);
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert!(s[0].end_ns >= s[1].end_ns);
        assert!(self_times_ns(s).iter().all(|&d| d <= s[0].duration_ns()));
    }
}
