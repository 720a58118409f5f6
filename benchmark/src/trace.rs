//! Outside-in spans: one record around every public call a workload makes
//! into the program, kept in a pre-allocated buffer and written as a
//! chrome-trace (`chrome://tracing`, Perfetto) when the run ends.
//!
//! The same clock pair serves both runs: [`Tracer::end`] always returns
//! the call's duration (the end-to-end latencies come from it) and only
//! additionally pushes a span while tracing is on.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a span nobody caused.
pub const ROOT: u32 = u32::MAX;

/// One timed call into the program.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Operation id shared by the spans of one update op / sweep.
    pub op: u32,
    /// Recording thread (0 = client, 1.. = rank threads).
    pub tid: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A call in flight: handed out by [`Tracer::begin`], closed by
/// [`Tracer::end`].
pub struct Open {
    id: u32,
    start: Instant,
}

impl Open {
    /// Span id to parent other threads' spans under ([`ROOT`] when off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    tid: u32,
    /// Parent given to this tracer's top-level spans (set by `fork`).
    base_parent: u32,
    /// [`LOCAL`] on a fork (its parent links index its own buffer until
    /// `absorb` re-bases them), 0 on the recorder that absorbs.
    local_mark: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            on: false,
            tid: 0,
            base_parent: ROOT,
            local_mark: 0,
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Switch recording on or off (between segments, never inside a span).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread sharing this one's clock; its
    /// top-level spans hang under `parent`. Merge back with `absorb`.
    pub fn fork(&self, tid: u32, parent: u32, capacity: usize) -> Tracer {
        Tracer {
            epoch: self.epoch,
            on: self.on,
            tid,
            base_parent: parent,
            local_mark: LOCAL,
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Append a forked recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, child: Tracer) {
        let offset = self.spans.len() as u32;
        for mut s in child.spans {
            // Links to the fork's own spans shift; links to spans of this
            // recorder (the fork's `base_parent`) already index it.
            if s.parent != ROOT && s.parent & LOCAL != 0 {
                s.parent = (s.parent & !LOCAL) + offset;
            }
            self.spans.push(s);
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u32) -> Open {
        if !self.on {
            return Open { id: ROOT, start: Instant::now() };
        }
        let id = self.spans.len() as u32;
        let parent = match self.stack.last() {
            Some(&p) => p | self.local_mark,
            None => self.base_parent,
        };
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op, tid: self.tid });
        self.stack.push(id);
        let start = Instant::now();
        self.spans[id as usize].start_ns = (start - self.epoch).as_nanos() as u64;
        Open { id, start }
    }

    /// Close the call; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let dur = open.start.elapsed();
        if open.id != ROOT {
            let s = &mut self.spans[open.id as usize];
            s.end_ns = s.start_ns + dur.as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(open.id), "spans must close innermost first");
        }
        dur.as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Marks a parent link that indexes a fork's own buffer until `absorb`
/// re-bases it (span counts stay far below 2^31).
const LOCAL: u32 = 1 << 31;

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Durations (ms) of the spans called `name` inside the timed window
/// (set-up spans carry op 0).
pub fn window_durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name && s.op > 0).map(Span::ms).collect()
}

/// Self time (ns) of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children — ranks
/// running side by side — are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut edge = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Write the spans as chrome-trace "complete" events (µs timestamps).
pub fn write_chrome_trace(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{workload}\"}},")?;
    writeln!(out, "\"traceEvents\":[")?;
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op,
            *self_ns as f64 / 1e3,
        )?;
        writeln!(out, "{}", if i + 1 < spans.len() { "," } else { "" })?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0, tid: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("serve.sweep", 0, 100, ROOT),
            span("serve.submit", 10, 30, 0),
            span("serve.drain", 40, 90, 0),
            span("inner", 50, 60, 2), // grandchild: charged to drain, not sweep
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("comm.world_run", 100, 200, ROOT),
            span("rank0", 110, 160, 0),
            span("rank1", 130, 180, 0),  // overlaps rank0 on [130, 160)
            span("late", 190, 250, 0),   // sticks out past the parent
            span("nested", 120, 125, 0), // inside rank0's interval
        ];
        // Covered: [110, 180) and [190, 200) = 80 of 100.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_links_parents_and_rebases_forks() {
        let mut main = Tracer::new(8);
        main.set_on(true);
        let world = main.begin("comm.world_run", 7);
        let mut rank = main.fork(1, world.id(), 8);
        let update = rank.begin("core.update", 7);
        let inner = rank.begin("core.query", 7);
        rank.end(inner);
        rank.end(update);
        main.end(world);
        let before = main.begin("core.initialize", 8);
        main.end(before);
        main.absorb(rank);
        let s = main.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].name, s[0].parent), ("comm.world_run", ROOT));
        assert_eq!((s[1].name, s[1].parent), ("core.initialize", ROOT));
        assert_eq!((s[2].name, s[2].parent, s[2].tid), ("core.update", 0, 1));
        assert_eq!((s[3].name, s[3].parent), ("core.query", 2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    }

    #[test]
    fn off_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new(4);
        let o = t.begin("core.update", 0);
        assert_eq!(o.id(), ROOT);
        assert!(t.end(o) >= 0.0);
        assert!(t.spans().is_empty());
    }
}
