//! The per-run recorder: operation counts, failures, latency samples and —
//! on a traced run — in-memory spans around every call the harness makes
//! into the system, written out as JSON lines when the run ends.
//!
//! Spans are recorded from the harness's side of each layer boundary
//! (spans inside the program are a later change). A span's *self time* is
//! its duration minus the part its direct children cover; summing self
//! times by name and comparing with the window's wall time is the
//! reconciliation the report prints.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Harness thread that recorded it (0 for single-threaded workloads).
    pub thread: u32,
    /// Operation (one caller-visible request) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// How many failure messages a run keeps verbatim (all are counted).
const KEPT_FAILURES: usize = 8;

/// Counts, samples and (optionally) spans of one run on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    /// Caller-observed latency of every answered query, in ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    spans: Option<Vec<Span>>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    /// A recorder whose span clock starts at `epoch`; spans are kept only
    /// when `traced`.
    pub fn new(epoch: Instant, thread: u32, traced: bool) -> Recorder {
        Recorder {
            epoch,
            thread,
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            spans: traced.then(Vec::new),
            open: Vec::new(),
            op: 0,
        }
    }

    /// An empty recorder for harness thread `thread` of the same run: same
    /// span clock, tracing on or off alike. Merge it back when done.
    pub fn for_thread(&self, thread: u32) -> Recorder {
        Recorder::new(self.epoch, thread, self.spans.is_some())
    }

    /// Starts the next operation: counts it as attempted and gives its
    /// spans a fresh operation id.
    pub fn begin_op(&mut self) {
        self.attempted += 1;
        self.op += 1;
    }

    /// Records that the current operation (or a post-window check) failed.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why());
        }
    }

    /// Counts a check made outside any operation (an audit cell, the
    /// reopen verification) as one more attempted unit, failed or not.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why);
        }
    }

    /// Runs `f` inside a span named `name` (a plain call when untraced).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let Some(spans) = self.spans.as_mut() else {
            return f(self);
        };
        let id = spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            thread: self.thread,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        if let Some(spans) = self.spans.as_mut() {
            spans[id as usize].end_ns = end_ns;
        }
        out
    }

    /// Folds another thread's recorder into this one. Span parents index
    /// into the recording thread's own list, so they are rebased.
    pub fn merge(&mut self, other: Recorder) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(f);
            }
        }
        if let (Some(mine), Some(theirs)) = (self.spans.as_mut(), other.spans) {
            let base = mine.len() as u32;
            mine.extend(theirs.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Total self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Writes one JSON object per span to `path` (parent directories are
/// created).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"thread\":{},\"op\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.thread, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            thread: 0,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("op", None, 0, 100),
            span("client.bind", Some(0), 10, 30),
            span("client.run", Some(0), 30, 90),
            span("wire", Some(2), 40, 50),
            span("op", None, 100, 150),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (100 - 20 - 60) + 50);
        assert_eq!(t["client.bind"], 20);
        assert_eq!(t["client.run"], 50);
        assert_eq!(t["wire"], 10);
        assert_eq!(t.values().sum::<u64>(), 150);
    }

    #[test]
    fn recorder_nests_spans_and_rebases_parents_on_merge() {
        let mut a = Recorder::new(Instant::now(), 0, true);
        a.begin_op();
        a.span("op", |r| r.span("inner", |_| ()));
        let mut b = Recorder::new(Instant::now(), 1, true);
        b.begin_op();
        b.span("op", |r| r.span("inner", |r| r.fail(|| "boom".to_owned())));
        a.merge(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].thread, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!((a.attempted, a.failed), (2, 1));
        assert_eq!(a.failures, ["boom"]);
    }

    #[test]
    fn untraced_recorder_keeps_no_spans() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        assert_eq!(r.span("op", |_| 7), 7);
        assert!(r.spans().is_empty());
        r.check(true, || unreachable!());
        r.check(false, || "bad".to_owned());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }
}
