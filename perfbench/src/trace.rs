//! In-memory spans recorded by the benchmark around each call it makes into
//! a module of the program.  Each thread owns a [`Trace`]; the runs merge
//! them and write them out when the run ends.  With tracing off `begin`
//! returns `None` and nothing is timed.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op (request) the span belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Clone)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(name, op, value)` counts taken at the same boundaries as spans.
    pub counts: Vec<(&'static str, u64, u64)>,
}

impl Trace {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a span that began at `start_ns` (since the epoch), possibly
    /// on another thread, and ends now.
    pub fn record(&mut self, name: &'static str, op: u64, start_ns: u64) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                op,
                parent: None,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records a count (only with tracing on).
    pub fn count(&mut self, name: &'static str, op: u64, value: u64) {
        if self.enabled {
            self.counts.push((name, op, value));
        }
    }

    /// Closes a span and returns its duration in ns (0 with tracing off).
    pub fn end(&mut self, id: Option<usize>) -> u64 {
        let Some(id) = id else { return 0 };
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Moves another thread's spans into this list, keeping parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.counts.extend(other.counts);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap: they run one
    /// after another on the span's thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::duration_ns)
    }

    /// Values of every count called `name`.
    pub fn counts_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.counts.iter().filter(move |c| c.0 == name).map(|c| c.2)
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_absorb_keeps_links() {
        let mut a = Trace::new(true, Instant::now());
        a.spans.push(Span {
            name: "x",
            op: 1,
            parent: None,
            start_ns: 0,
            end_ns: 10,
        });
        let mut b = Trace::new(true, Instant::now());
        b.spans.push(Span {
            name: "op",
            op: 2,
            parent: None,
            start_ns: 0,
            end_ns: 100,
        });
        b.spans.push(Span {
            name: "child",
            op: 2,
            parent: Some(0),
            start_ns: 10,
            end_ns: 40,
        });
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 70, 30]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, Instant::now());
        let id = t.begin("x", 0, None);
        assert_eq!(t.end(id), 0);
        assert!(t.spans.is_empty());
    }
}
