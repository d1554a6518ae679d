//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a crate's public API in a
//! span (name, start, end, parent, job). Spans of the current job are
//! kept until the job ends; then each span's self time (its duration
//! minus the union of its children's intervals, children on other
//! threads included) is folded into per-name totals and the span moves
//! to the output buffer, which is written out once the run ends.
//! Recording is off in the untraced run: `open` then returns `None`
//! without reading the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub job: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every finished job.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Spans recorded on a worker thread, merged into the job afterwards.
#[derive(Clone)]
pub struct ThreadSpans {
    epoch: Instant,
    parent: u32,
    spans: Vec<(&'static str, u64, u64)>,
}

impl ThreadSpans {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push((name, start_ns, end_ns));
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u32,
    job: u32,
    /// Spans of the job in progress.
    current: Vec<Span>,
    /// Indices into `current` of the open spans, innermost last.
    stack: Vec<usize>,
    totals: BTreeMap<&'static str, Totals>,
    kept: Vec<Span>,
    cap: usize,
    dropped: u64,
}

/// Spans kept for the output file; totals stay exact beyond it.
const KEEP_CAP: usize = 200_000;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: 1,
            job: 0,
            current: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            kept: Vec::new(),
            cap: KEEP_CAP,
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let parent = self.stack.last().map_or(0, |&i| self.current[i].id);
        let idx = self.current.len();
        self.current.push(Span {
            name,
            id: self.next_id,
            parent,
            job: self.job,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.next_id += 1;
        self.stack.push(idx);
        Some(idx)
    }

    pub fn close(&mut self, token: Option<usize>) {
        if let Some(idx) = token {
            let end = self.now();
            self.current[idx].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.open(name);
        let r = f();
        self.close(t);
        r
    }

    /// A worker-thread recorder whose spans become children of the
    /// innermost open span; `None` when tracing is off.
    pub fn thread_spans(&self) -> Option<ThreadSpans> {
        self.on.then(|| ThreadSpans {
            epoch: self.epoch,
            parent: self.stack.last().map_or(0, |&i| self.current[i].id),
            spans: Vec::new(),
        })
    }

    pub fn adopt(&mut self, t: ThreadSpans) {
        for (name, start_ns, end_ns) in t.spans {
            self.current.push(Span {
                name,
                id: self.next_id,
                parent: t.parent,
                job: self.job,
                start_ns,
                end_ns,
            });
            self.next_id += 1;
        }
    }

    /// Ends the current job: folds self times into the totals and moves
    /// the job's spans to the output buffer.
    pub fn end_job(&mut self) {
        self.job += 1;
        if self.current.is_empty() {
            return;
        }
        assert!(self.stack.is_empty(), "job ended with an open span");
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.current {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        for s in &self.current {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| union_within(iv, s.start_ns, s.end_ns));
            let t = self.totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        let room = self.cap.saturating_sub(self.kept.len());
        let n = self.current.len();
        self.kept.extend(self.current.drain(..).take(room));
        self.dropped += n.saturating_sub(room) as u64;
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the kept spans as tab-separated lines, plus a trailer with
    /// the per-name totals.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# name\tid\tparent\tjob\tstart_ns\tend_ns")?;
        for s in &self.kept {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.parent, s.job, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "# dropped\t{}", self.dropped)?;
        for (name, t) in &self.totals {
            writeln!(
                w,
                "# total\t{name}\tcount={}\ttotal_ns={}\tself_ns={}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_within(&mut iv, 0, 25), 3 + 7 + 5);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let a = t.open("outer");
        let b = t.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(b);
        t.close(a);
        t.end_job();
        let (o, i) = (t.totals("outer"), t.totals("inner"));
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.self_ns >= 2_000_000);
        assert!(o.self_ns < o.total_ns && o.self_ns + i.total_ns == o.total_ns);
    }
}
