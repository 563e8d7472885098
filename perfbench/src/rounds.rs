//! What every rank-side loop shares: the time plan (one untraced phase, or
//! untraced and traced rounds in alternation), runtime counter diffs, gauge
//! maxima, and the blocking wait with its progress spans.

use crate::json::Json;
use crate::span::Tracer;
use crate::stats::Samples;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// How long a rank-side loop runs and whether it traces.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seconds: f64,
    pub traced: bool,
}

/// Length of one round when untraced and traced rounds alternate.
const ROUND: Duration = Duration::from_millis(250);
/// Length of one slice of an untraced run. End-to-end figures are medians
/// over slices, so a burst of interference from outside the benchmark
/// moves a few slices and not the figure.
const SLICE: Duration = Duration::from_millis(500);

/// Latency samples (ns) of the running slice; op completions push here.
/// Bounded, so the benchmark's own memory does not grow with the op rate.
pub type LatSink = Rc<RefCell<Samples>>;
const SLICE_KEEP: usize = 1 << 16;

/// Counters of `upcxx::metrics::snapshot()` the benchmark diffs.
pub const COUNTERS: [&str; 9] = [
    "rma_ops",
    "rma_eager",
    "rpcs",
    "bytes_out",
    "comp_items",
    "progress_calls",
    "agg_msgs",
    "agg_batches",
    "eager_fallbacks",
];

fn counters() -> [u64; 9] {
    let s = upcxx::metrics::snapshot();
    [
        s.rma_ops,
        s.rma_eager,
        s.rpcs,
        s.bytes_out,
        s.comp_items,
        s.progress_calls,
        s.agg_msgs,
        s.agg_batches,
        s.eager_fallbacks,
    ]
}

/// Gauges of the snapshot whose maxima the traced side samples.
pub const GAUGES: [&str; 4] = [
    "compq_depth",
    "inbox_depth",
    "staging_used",
    "backlog_bytes",
];

/// Ops, wall time and counter diffs of one side (untraced or traced).
#[derive(Clone, Debug, Default)]
pub struct Side {
    pub ops: u64,
    pub secs: f64,
    pub ctr: [u64; 9],
}

impl Side {
    fn to_json(&self) -> Json {
        let mut o = Json::obj().with("ops", self.ops).with("secs", self.secs);
        for (k, v) in COUNTERS.iter().zip(self.ctr) {
            o.set(k, v);
        }
        o
    }
}

/// One closed untraced slice: ops, seconds, and latency p50/p99 in ns
/// (0 when the slice completed no op with a latency).
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub ops: u64,
    pub secs: f64,
    pub p50: u64,
    pub p99: u64,
}

/// The round scheduler of one rank.
pub struct Rounds {
    alternate: bool,
    end: Instant,
    round_end: Instant,
    side_start: Instant,
    snap0: [u64; 9],
    /// Index of the running side: 0 untraced, 1 traced.
    cur: usize,
    pub sides: [Side; 2],
    pub gauge_max: [u64; 4],
    lat: LatSink,
    slice_ops: u64,
    pub slices: Vec<Slice>,
}

impl Rounds {
    /// Start the plan now (untraced side first).
    pub fn start(plan: Plan) -> Rounds {
        let now = Instant::now();
        let end = now + Duration::from_secs_f64(plan.seconds);
        Rounds {
            alternate: plan.traced,
            end,
            round_end: now + if plan.traced { ROUND } else { SLICE },
            side_start: now,
            snap0: counters(),
            cur: 0,
            sides: Default::default(),
            gauge_max: [0; 4],
            lat: Rc::new(RefCell::new(Samples::new(SLICE_KEEP))),
            slice_ops: 0,
            slices: Vec::new(),
        }
    }

    /// Where finished ops put their issue-to-ready latency.
    pub fn lat_sink(&self) -> LatSink {
        self.lat.clone()
    }

    /// Is the running side traced?
    pub fn tracing(&self) -> bool {
        self.cur == 1
    }

    /// Account `ops` finished ops at time `now`; switch sides at round
    /// boundaries. Returns false once the plan's time is up.
    pub fn tick(&mut self, ops: u64, now: Instant, tr: &mut Tracer) -> bool {
        self.sides[self.cur].ops += ops;
        self.slice_ops += ops;
        let over = now >= self.end;
        if !(over || now >= self.round_end || (self.cur == 1 && tr.full())) {
            return true;
        }
        let snap = counters();
        let secs = now.duration_since(self.side_start).as_secs_f64();
        let mut lat = self.lat.borrow_mut();
        if self.cur == 0 {
            self.slices.push(Slice {
                ops: self.slice_ops,
                secs,
                p50: lat.percentile(50.0).unwrap_or(0),
                p99: lat.percentile(99.0).unwrap_or(0),
            });
        }
        lat.clear();
        drop(lat);
        self.slice_ops = 0;
        let side = &mut self.sides[self.cur];
        side.secs += secs;
        for (acc, (b, a)) in side.ctr.iter_mut().zip(snap.iter().zip(self.snap0)) {
            *acc += b - a;
        }
        if self.cur == 1 {
            tr.end_round();
        }
        if over {
            return false;
        }
        if self.alternate {
            self.cur ^= 1;
            if self.cur == 1 {
                tr.start_round();
            }
        }
        self.round_end = now + if self.alternate { ROUND } else { SLICE };
        self.side_start = Instant::now();
        self.snap0 = counters();
        true
    }

    /// Sample the gauges (traced side only; a snapshot is not free).
    pub fn sample_gauges(&mut self) {
        let s = upcxx::metrics::snapshot();
        let g = [
            s.comp_q_depth as u64,
            s.inbox_depth,
            s.staging_used,
            s.backlog_bytes,
        ];
        for (m, v) in self.gauge_max.iter_mut().zip(g) {
            *m = (*m).max(v);
        }
    }

    pub fn to_json(&self) -> Json {
        let mut g = Json::obj();
        for (k, v) in GAUGES.iter().zip(self.gauge_max) {
            g.set(k, v);
        }
        let slices: Vec<Json> = self
            .slices
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    s.ops.into(),
                    s.secs.into(),
                    s.p50.into(),
                    s.p99.into(),
                ])
            })
            .collect();
        Json::obj()
            .with("slices", Json::Arr(slices))
            .with("untraced", self.sides[0].to_json())
            .with("traced", self.sides[1].to_json())
            .with("gauge_max", g)
    }
}

/// Block until `ready()` the way `Future::wait` does (user progress,
/// yielding every 32 polls), recording one `ctx.progress` span per
/// progress call under `parent` when tracing. Returns when ready.
pub fn wait_ready(ready: impl Fn() -> bool, tr: &std::cell::RefCell<Tracer>, op: u64, parent: u32) {
    let tracing = tr.borrow().on();
    let mut spins = 0u32;
    let mut a = if tracing {
        Instant::now()
    } else {
        tr.borrow().epoch()
    };
    while !ready() {
        upcxx::progress();
        if tracing {
            let b = Instant::now();
            let mut t = tr.borrow_mut();
            let (sa, sb) = (t.ns(a), t.ns(b));
            t.record("ctx.progress", op, parent, sa, sb);
            a = b;
        }
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(32) {
            std::thread::yield_now();
        }
    }
}
