//! Spans recorded from outside the library, around the calls into each
//! layer's public functions. A span has a name (`layer.call`), a start and
//! an end on a monotonic clock, the span that was open when it started
//! (its parent), and the id of the operation it served (a journey or a
//! stream pass). Spans stay in memory; [`Tracer::write`] saves them once,
//! at the end of the run.
//!
//! A disabled tracer records nothing: `enter` returns a dummy id and `exit`
//! ignores it, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for operation `op`, as a child of the
    /// innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the span `id` (which must be the innermost open one).
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id.0), "spans close innermost first");
        self.open.pop();
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Hands back and forgets the recorded spans (no span may be open).
    pub fn drain(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty());
        std::mem::take(&mut self.spans)
    }

    /// Writes `spans` as tab-separated lines (`id name op parent start_ns
    /// end_ns self_ns`) to `path`, creating its directory.
    pub fn write(spans: &[Span], path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children never overlap (one thread, properly nested).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p as usize] = self_ns[p as usize].saturating_sub(s.duration_ns());
        }
    }
    self_ns
}

/// Self time per layer, in nanoseconds, summed over `spans`.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer()).or_insert(0) += ns;
    }
    by_layer
}

/// Total duration of the spans named `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span { name: "journey", start_ns: 0, end_ns: 100, parent: None, op: 0 },
            Span { name: "frozen", start_ns: 10, end_ns: 60, parent: Some(0), op: 0 },
            Span { name: "frozen.freeze", start_ns: 20, end_ns: 40, parent: Some(1), op: 0 },
            Span { name: "csv.read_csv_str", start_ns: 60, end_ns: 90, parent: Some(0), op: 0 },
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 30]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["frozen"], 50);
        assert_eq!(layers["journey"], 20);
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let x = tracer.span("csv.read_csv_str", 1, || 7);
        assert_eq!(x, 7);
        assert!(tracer.drain().is_empty());
    }
}
