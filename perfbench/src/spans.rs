//! In-memory spans for the traced run.
//!
//! Each thread records into its own [`SpanBuf`] (no shared state on the
//! hot path); finished buffers are merged into a [`SpanLog`], which
//! computes self time and writes everything out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use parking_lot::Mutex;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`"codec.encode"`, `"client.publish"`, …).
    pub name: &'static str,
    /// Start, in ns since the log's base instant.
    pub start_ns: u64,
    /// End, in ns since the log's base instant.
    pub end_ns: u64,
    /// Index of the enclosing span in the merged log, if any.
    pub parent: Option<usize>,
    /// The workload event index the call worked on (`u64::MAX` = none).
    pub event: u64,
    /// Duration minus the durations of direct children.
    pub self_ns: u64,
}

/// The shared log all threads merge into.
#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log timed from now.
    pub fn new() -> Self {
        SpanLog {
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording buffer for the calling thread.
    pub fn buf(&self) -> SpanBuf<'_> {
        SpanBuf {
            log: self,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Every merged span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Mean self time per span name, in ns.
    pub fn mean_self_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut acc: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in self.spans.lock().iter() {
            let e = acc.entry(s.name).or_default();
            e.0 += s.self_ns;
            e.1 += 1;
        }
        acc.into_iter()
            .map(|(k, (sum, n))| (k, sum as f64 / n as f64))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let event = if s.event == u64::MAX {
                "null".to_owned()
            } else {
                s.event.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"event\":{event},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.self_ns
            )?;
        }
        out.flush()
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

/// A per-thread span recorder. Spans nest by call order: a span opened
/// while another is open becomes its child.
#[derive(Debug)]
pub struct SpanBuf<'a> {
    log: &'a SpanLog,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanBuf<'_> {
    /// Opens a span; close it with [`SpanBuf::exit`].
    pub fn enter(&mut self, name: &'static str, event: u64) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            event,
            self_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, event: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, event);
        let out = f();
        self.exit();
        out
    }

    fn now(&self) -> u64 {
        self.log.base.elapsed().as_nanos() as u64
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut merged = self.log.spans.lock();
        let offset = merged.len();
        for (i, mut s) in self.spans.drain(..).enumerate() {
            s.self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            s.parent = s.parent.map(|p| p + offset);
            merged.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let log = SpanLog::new();
        {
            let mut buf = log.buf();
            buf.enter("outer", 1);
            buf.time("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            buf.exit();
        }
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        let outer = &spans[0];
        let inner = &spans[1];
        assert_eq!(inner.parent, Some(0));
        assert!(inner.self_ns >= 5_000_000);
        assert!(outer.self_ns < inner.self_ns);
        assert_eq!(outer.self_ns + inner.self_ns, outer.end_ns - outer.start_ns);
    }
}
