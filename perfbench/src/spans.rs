//! In-memory spans around the public calls the benchmark makes.
//!
//! A span is `{name, start, end, parent, op}`; a layer's self time is its
//! span minus the part its child spans cover. Spans stay in memory during
//! the run and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `verifier.discharge`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op the span belongs to.
    pub op: u32,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tags the spans recorded from here on with `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    /// Opens a span; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end = end;
    }

    /// Number of spans recorded so far (a cursor for [`Spans::self_times`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Duration of span `id`, ns.
    pub fn duration(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end - s.start
    }

    /// Self time per layer name over the spans recorded since `from`.
    pub fn self_times(&self, from: usize) -> Vec<(&'static str, u64)> {
        let recent = &self.spans[from..];
        let mut child = vec![0u64; recent.len()];
        for s in recent {
            if let Some(p) = s.parent.map(|p| p as usize).filter(|&p| p >= from) {
                child[p - from] += s.end - s.start;
            }
        }
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, c) in recent.iter().zip(child) {
            *by_name.entry(s.name).or_default() += (s.end - s.start).saturating_sub(c);
        }
        by_name.into_iter().collect()
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\top\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Optional span recording: the untraced passes run the same code with
/// `None`, which records nothing.
pub struct Tracer<'a>(pub Option<&'a mut Spans>);

impl Tracer<'_> {
    /// Opens a span when tracing.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        self.0.as_mut().map_or(0, |s| s.enter(name))
    }

    /// Closes a span when tracing.
    pub fn exit(&mut self, id: u32) {
        if let Some(s) = self.0.as_mut() {
            s.exit(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        let root = s.enter("op");
        let child = s.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(child);
        s.exit(root);
        let times: BTreeMap<_, _> = s.self_times(0).into_iter().collect();
        assert_eq!(times["op"] + times["child"], s.duration(root));
        assert!(times["child"] >= 2_000_000);
    }
}
