//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and batch id. Spans nest through
//! an explicit stack: [`Tracer::begin`] opens a span under the innermost open one and
//! [`Tracer::end`] closes it. A disabled tracer records nothing and costs one branch
//! per call. A span's *self time* is its duration minus the durations of its direct
//! children; a phase span's own self time is the part of the phase no layer span
//! covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Prefix of the top-level span that brackets one timed phase.
const PHASE_PREFIX: &str = "phase.";

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    batch: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, batch: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now_ns(),
            end: 0,
            parent: self.stack.last().copied(),
            batch,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span; it must be the innermost open one.
    pub fn end(&mut self, open: Open) {
        let Open(Some(id)) = open else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Self time in nanoseconds per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += (s.end - s.start) - child_ns[i];
        }
        out
    }

    /// Per phase (the part of a phase span's name after [`PHASE_PREFIX`]): its span
    /// count, its traced time, the time no child span covers, and the self time of
    /// every layer span below it, all in nanoseconds.
    pub fn phase_breakdown(&self) -> BTreeMap<&'static str, PhaseBreakdown> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        // Phase of each span: its own if it is a phase span, else its parent's.
        let mut phase_of: Vec<Option<&'static str>> = vec![None; self.spans.len()];
        let mut out: BTreeMap<&'static str, PhaseBreakdown> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = (s.end - s.start) - child_ns[i];
            if let Some(phase) = s.name.strip_prefix(PHASE_PREFIX) {
                phase_of[i] = Some(phase);
                let b = out.entry(phase).or_default();
                b.spans += 1;
                b.traced_ns += s.end - s.start;
                b.uncovered_ns += self_ns;
            } else if let Some(phase) = s.parent.and_then(|p| phase_of[p]) {
                phase_of[i] = Some(phase);
                *out.entry(phase)
                    .or_default()
                    .layer_self_ns
                    .entry(s.name)
                    .or_insert(0) += self_ns;
            }
        }
        out
    }

    /// Write every span as tab-separated text.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tbatch")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.batch
            )?;
        }
        Ok(())
    }
}

/// How one phase's traced time divides among layers.
#[derive(Debug, Default, Clone)]
pub struct PhaseBreakdown {
    pub spans: u64,
    pub traced_ns: u64,
    pub uncovered_ns: u64,
    pub layer_self_ns: BTreeMap<&'static str, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_a_phase() {
        let mut t = Tracer::new(true);
        let phase = t.begin("phase.query", 0);
        let a = t.begin("layer-a", 0);
        let b = t.begin("layer-b", 0);
        std::hint::black_box((0..1000).sum::<u64>());
        t.end(b);
        t.end(a);
        let c = t.begin("layer-b", 1);
        t.end(c);
        t.end(phase);
        let phases = t.phase_breakdown();
        let q = &phases["query"];
        assert_eq!(q.spans, 1);
        assert_eq!(
            q.layer_self_ns.values().sum::<u64>() + q.uncovered_ns,
            q.traced_ns
        );
        assert_eq!(q.layer_self_ns.len(), 2);
        let total: u64 = t.self_times().values().sum();
        assert_eq!(total, q.traced_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("phase.insert", 0);
        t.end(s);
        assert!(t.spans.is_empty());
        assert!(t.phase_breakdown().is_empty());
    }
}
