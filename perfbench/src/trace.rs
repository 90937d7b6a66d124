//! In-memory spans for the traced run.
//!
//! A span records a name, start, end, its parent span and the request it
//! belongs to. Spans are kept in memory and written out when the run ends;
//! a layer's self time is its span time minus the time its child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `scan.solve`.
    pub name: &'static str,
    /// Request (schedule op, build repetition or probe) it belongs to.
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans around closures.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: usize,
    /// Their summed duration (ms).
    pub total_ms: f64,
    /// Their summed self time (ms).
    pub self_ms: f64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens are its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans named `name`, summed per request, in
    /// request order.
    pub fn per_request_ms(&self, name: &str) -> Vec<f64> {
        let mut by_request: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_request.entry(s.request).or_default() += s.ns();
        }
        by_request.values().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += s.ns() as f64 / 1e6;
            t.self_ms += s.ns().saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as a TSV row: name, request, span index, parent
    /// index (-1 for roots), start and end in ns.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "name\trequest\tspan\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                f,
                "{}\t{}\t{i}\t{parent}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = t.layer_times();
        let outer = times["outer"];
        let inner = times["inner"];
        assert_eq!(inner.count, 2);
        assert!(outer.total_ms >= inner.total_ms);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.per_request_ms("inner").len(), 1);
    }
}
