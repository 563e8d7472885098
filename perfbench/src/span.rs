//! Spans recorded by the benchmark's own code around each call into a
//! layer's public API (the runtime is not instrumented from inside).
//!
//! A span has a name, start, end and parent; all spans of one op share an
//! op id. Spans stay in memory for one traced round; at the end of the
//! round their durations and self times (duration minus the part of the
//! interval covered by child spans) are folded into per-name sample
//! stores, and the last round's spans are kept to be written out when the
//! run ends.

use crate::json::Json;
use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// Self time of every span in `spans`: its duration minus the union of
/// its children's intervals clipped to its own. Children point at their
/// parent by index into `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(k) = kids.get_mut(s.parent as usize) {
            k.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in k.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-rank span recorder. Off, every call is one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    next_op: u64,
    durs: BTreeMap<&'static str, Samples>,
    selfs: BTreeMap<&'static str, Samples>,
    last_round: Vec<Span>,
}

/// Largest number of spans held in memory in one traced round.
pub const ROUND_CAP: usize = 50_000;
/// Largest number of samples kept per span name (for shipping).
const KEEP: usize = 1 << 16;

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
            cap: ROUND_CAP,
            next_op: 0,
            durs: BTreeMap::new(),
            selfs: BTreeMap::new(),
            last_round: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Start a traced round (spans of the previous round were folded).
    pub fn start_round(&mut self) {
        self.on = true;
        self.spans.clear();
    }

    /// The round's span store is full; the caller should end the round.
    pub fn full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// `t` in nanoseconds since the epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh op id.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Record a finished span; returns its index (for children), or
    /// [`ROOT`] when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        start: u64,
        end: u64,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is not known yet (close with [`Tracer::close`]).
    pub fn open(&mut self, name: &'static str, op: u64, parent: u32, start: u64) -> u32 {
        self.record(name, op, parent, start, u64::MAX)
    }

    pub fn close(&mut self, idx: u32, end: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end = end;
        }
    }

    /// End a traced round: fold the round's closed spans into the per-name
    /// stores and keep them as the latest round for [`Tracer::write`].
    pub fn end_round(&mut self) {
        self.on = false;
        let mut spans = std::mem::take(&mut self.spans);
        // A span still open (its op had not finished when the round ended)
        // is dropped; its children then count as roots.
        let open: Vec<bool> = spans.iter().map(|s| s.end == u64::MAX).collect();
        for s in spans.iter_mut() {
            if open.get(s.parent as usize) == Some(&true) {
                s.parent = ROOT;
            }
        }
        let selfs = self_times(&spans);
        for (s, own) in spans.iter().zip(selfs) {
            if s.end == u64::MAX {
                continue;
            }
            let new = || Samples::new(KEEP);
            self.durs
                .entry(s.name)
                .or_insert_with(new)
                .push(s.end - s.start);
            self.selfs.entry(s.name).or_insert_with(new).push(own);
        }
        self.last_round = spans;
    }

    /// Per-name summary for the record: count, p50 duration and p50 self
    /// time in ns.
    pub fn summary(&self) -> Json {
        let mut out = Json::obj();
        for (name, d) in &self.durs {
            out.set(
                name,
                Json::obj()
                    .with("count", d.seen())
                    .with("dur_p50_ns", d.percentile(50.0).unwrap_or(0))
                    .with(
                        "self_p50_ns",
                        self.selfs[name].percentile(50.0).unwrap_or(0),
                    ),
            );
        }
        out
    }

    /// Kept duration samples per name, for shipping out of a rank.
    pub fn export(&self) -> Json {
        let mut out = Json::obj();
        for (name, d) in &self.durs {
            out.set(name, d.kept());
        }
        out
    }

    /// Write the latest round's spans as JSON lines.
    pub fn write(&self, path: &std::path::Path, rank: usize) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.last_round.iter().enumerate() {
            let parent = if s.parent == ROOT {
                Json::Null
            } else {
                Json::from(s.parent as u64)
            };
            let line = Json::obj()
                .with("rank", rank)
                .with("idx", i)
                .with("name", s.name)
                .with("op", s.op)
                .with("parent", parent)
                .with("start_ns", s.start)
                .with("end_ns", s.end);
            writeln!(f, "{}", line.to_line())?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = [
            sp("op", ROOT, 0, 100),
            sp("issue", 0, 0, 10),
            // Two overlapping children: covered [40, 90) once, not twice.
            sp("wait", 0, 40, 80),
            sp("wait", 0, 60, 90),
            // A grandchild counts against its parent only.
            sp("progress", 2, 50, 70),
            // A child sticking out of its parent is clipped.
            sp("late", 0, 95, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 10 - 50 - 5);
        assert_eq!(st[1], 10);
        assert_eq!(st[2], 40 - 20);
        assert_eq!(st[4], 20);
        assert_eq!(st[5], 35);
    }

    #[test]
    fn rounds_fold_closed_spans_and_drop_open_ones() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.record("x", 1, ROOT, 0, 5), ROOT, "off records nothing");
        t.start_round();
        let op = t.new_op();
        let root = t.open("op", op, ROOT, 0);
        t.record("issue", op, root, 0, 4);
        t.close(root, 10);
        let dangling = t.open("op", t.next_op + 1, ROOT, 20);
        t.record("issue", 2, dangling, 20, 23);
        t.end_round();
        let durs = t.export();
        assert_eq!(durs.u64s("op"), [10]);
        assert_eq!(durs.u64s("issue"), [4, 3]);
        let sum = t.summary();
        assert_eq!(sum.get("op").unwrap().f("self_p50_ns"), 6.0);
        assert_eq!(sum.get("issue").unwrap().f("count"), 2.0);
        assert!(!t.on());
    }
}
