//! In-memory spans recorded around every call the benchmark makes into a
//! layer's public functions, and the per-layer self-time table built
//! from them.
//!
//! Each client thread owns one [`Tracer`]; nothing is shared or locked
//! while a pass runs. A disabled tracer records nothing, so the untraced
//! passes that give the end-to-end numbers pay only a branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes the same tracer's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The op the call served (0 for set-up spans).
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A client's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub client: usize,
    pub spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool, client: usize) -> Self {
        Tracer { epoch, enabled, client, spans: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span that later spans nest under; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.ns(Instant::now());
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Record a finished call under the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, op };
        self.spans.push(span);
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children of one client never overlap).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans.iter().zip(child_ns).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }
}

/// Per-name totals over every tracer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerRow {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_table(tracers: &[&Tracer]) -> BTreeMap<&'static str, LayerRow> {
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for t in tracers {
        for (s, self_ns) in t.spans.iter().zip(t.self_times()) {
            let row = rows.entry(s.name).or_default();
            row.calls += 1;
            row.total_ns += s.duration_ns();
            row.self_ns += self_ns;
        }
    }
    rows
}

/// The self-time table as printable lines.
pub fn format_table(rows: &BTreeMap<&'static str, LayerRow>) -> String {
    let all_self: u64 = rows.values().map(|r| r.self_ns).sum::<u64>().max(1);
    let mut out = format!(
        "{:<14} {:>9} {:>12} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total_ms", "self_ms", "self_us/call", "self%"
    );
    for (name, r) in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>12.3} {:>12.3} {:>12.3} {:>6.2}%",
            name,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.self_ns as f64 / 1e3 / r.calls.max(1) as f64,
            100.0 * r.self_ns as f64 / all_self as f64,
        );
    }
    out
}

/// Write every span as one CSV row: `client,op,name,start_ns,end_ns,parent`
/// (`parent` is the row index within the same client, or -1).
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "client,op,name,start_ns,end_ns,parent")?;
    for t in tracers {
        for s in &t.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(w, "{},{},{},{},{},{}", t.client, s.op, s.name, s.start_ns, s.end_ns, parent)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), true, 0);
        t.begin("op", 1);
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        t.record("serve", 1, a, Instant::now());
        t.end();
        let (op, serve) = (t.spans[0], t.spans[1]);
        assert_eq!(serve.parent, Some(0));
        assert!(serve.duration_ns() >= 2_000_000);
        assert_eq!(t.self_times()[0], op.duration_ns() - serve.duration_ns());
        assert_eq!(t.self_times()[1], serve.duration_ns());
        let rows = layer_table(&[&t]);
        assert_eq!(rows["serve"].calls, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 0);
        t.begin("op", 1);
        t.record("serve", 1, Instant::now(), Instant::now());
        t.end();
        assert!(t.spans.is_empty());
    }
}
