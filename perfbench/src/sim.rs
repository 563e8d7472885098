//! `sim_fig4_knl`: the Fig. 4 knl DHT weak-scaling loop (`pgas_dht::insert`
//! of 256 B values, insert-block-repeat) swept over powers of two up to
//! 4096 simulated ranks in one process, as the `fig4` harness does. Each
//! point's virtual MB/s must equal its row of `results/fig4_knl.txt`
//! exactly.
//!
//! Each world runs in slices of virtual time so the wall cost per simulated
//! insert can be sampled while it runs.

use crate::json::Json;
use crate::span::{Tracer, ROOT};
use crate::world::rss_kib;
use netsim::MachineConfig;
use pgas_des::Time;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use upcxx::SimRuntime;

/// `fig4`'s fixed inserted volume per rank and the value size swept here.
const VOLUME_PER_RANK: usize = 16 << 10;
const SIZE: usize = 256;
/// Inserts per rank per point.
const ITERS: usize = VOLUME_PER_RANK / SIZE;
/// Virtual length of one run slice.
const SLICE: Time = Time::from_ns(5_000);

fn splitmix(x: u64) -> u64 {
    pgas_des::rng::splitmix64(x)
}

/// Recorded MB/s by rank count, as printed.
pub type Rows = BTreeMap<usize, String>;

/// The 256 B column of a recorded `fig4` table.
pub fn expected_rows(table: &str) -> Rows {
    table
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let p = f.next()?.parse().ok()?;
            let mbs = f.next()?;
            mbs.parse::<f64>().ok()?;
            Some((p, mbs.to_string()))
        })
        .collect()
}

/// Result of one sweep.
#[derive(Default)]
pub struct Sweep {
    /// Rank counts of the points swept, and of those whose MB/s differs
    /// from the recorded row (with what was printed instead).
    pub points: Vec<usize>,
    pub mismatched: Vec<(usize, String)>,
    pub inserts: u64,
    pub run_s: f64,
    pub build_s: f64,
    pub events: u64,
    pub msgs: u64,
    /// `(ranks, wall ns, inserts completed)` of every run slice that
    /// completed an insert.
    pub slices: Vec<(usize, u64, u64)>,
    pub per_point: Vec<(usize, f64, u64)>,
    pub kib_per_rank: f64,
    pub retained_mib: f64,
}

/// Sweep 1, 2, 4, ... `max_p` ranks (the 1-rank point is `fig4`'s serial
/// baseline, computed without a world) and check every point's MB/s.
pub fn sweep(max_p: usize, rows: &Rows, tr: &mut Tracer) -> Sweep {
    let cfg = MachineConfig::cori_knl();
    let mut out = Sweep::default();
    let rss_first = rss_kib().0;
    let mut p = 1;
    while p <= max_p {
        let mbs = if p == 1 {
            serial_mbs(&cfg)
        } else {
            point(&cfg, p, &mut out, tr)
        };
        let got = format!("{mbs:.1}");
        out.points.push(p);
        if rows.get(&p) != Some(&got) {
            out.mismatched.push((p, got));
        }
        p *= 2;
    }
    out.retained_mib = rss_kib().0.saturating_sub(rss_first) as f64 / 1024.0;
    out
}

/// `fig4`'s serial point: no UPC++ calls, a modelled hash-map insert.
fn serial_mbs(cfg: &MachineConfig) -> f64 {
    let per_insert = Time::from_ns(120) + Time::from_ns_f64(0.05).scale(SIZE as f64);
    let total = per_insert.scale(cfg.cpu_factor) * ITERS as u64;
    VOLUME_PER_RANK as f64 / total.as_ns_f64() * 1e9 / (1 << 20) as f64
}

fn point(cfg: &MachineConfig, p: usize, out: &mut Sweep, tr: &mut Tracer) -> f64 {
    let op = tr.new_op();
    let t_point = Instant::now();
    let root = tr.open("sim.point", op, ROOT, tr.ns(t_point));
    let rss0 = rss_kib().0;
    let t0 = Instant::now();
    let rt = SimRuntime::new(cfg.clone(), p, 64 << 10);
    let t1 = Instant::now();
    tr.record("runtime.sim_world_build", op, root, tr.ns(t0), tr.ns(t1));
    out.build_s += t1.duration_since(t0).as_secs_f64();

    let done_at = Rc::new(Cell::new(Time::ZERO));
    let done = Rc::new(Cell::new(0u64));
    for r in 0..p {
        let (done_at, done) = (done_at.clone(), done.clone());
        rt.spawn(r, move || {
            pgas_dht::enable_recycling();
            // The paper's benchmark loop: insert, block, repeat.
            fn step(
                r: usize,
                i: usize,
                iters: usize,
                done_at: Rc<Cell<Time>>,
                done: Rc<Cell<u64>>,
            ) {
                if i == iters {
                    let t = upcxx::sim_now().expect("sim world");
                    done_at.set(done_at.get().max(t));
                    return;
                }
                let key = splitmix((r as u64) << 24 | i as u64);
                pgas_dht::insert(key, vec![0xa5u8; SIZE]).then(move |_| {
                    done.set(done.get() + 1);
                    step(r, i + 1, iters, done_at, done)
                });
            }
            step(r, 0, ITERS, done_at, done);
        });
    }
    let total = (p * ITERS) as u64;
    let t_run = Instant::now();
    let mut deadline = Time::ZERO;
    let mut a = t_run;
    // A stalled world stops after a virtual second; its row then differs.
    while done.get() < total && deadline < Time::from_ns(1_000_000_000) {
        let before = done.get();
        deadline += SLICE;
        rt.world().run_until(deadline);
        let b = Instant::now();
        tr.record("des.run_slice", op, root, tr.ns(a), tr.ns(b));
        let k = done.get() - before;
        if k > 0 {
            out.slices
                .push((p, b.duration_since(a).as_nanos() as u64, k));
        }
        a = b;
    }
    // Drain what is left (the last acks) and let the runtime quiesce.
    rt.run();
    let t_end = Instant::now();
    tr.record("des.run_slice", op, root, tr.ns(a), tr.ns(t_end));
    let run_s = t_end.duration_since(t_run).as_secs_f64();
    out.run_s += run_s;
    out.inserts += total;
    out.events += rt.world().events_executed();
    out.msgs += rt.world().msg_count();
    out.per_point.push((p, run_s, rt.world().events_executed()));
    // Footprint of the largest world: growth while building and running it.
    out.kib_per_rank = rss_kib().0.saturating_sub(rss0) as f64 / p as f64;
    let td = Instant::now();
    drop(rt);
    let te = Instant::now();
    tr.record("runtime.sim_world_drop", op, root, tr.ns(td), tr.ns(te));
    tr.close(root, tr.ns(te));
    (p * VOLUME_PER_RANK) as f64 / done_at.get().as_ns_f64() * 1e9 / (1 << 20) as f64
}

impl Sweep {
    /// Inserts of every point, the serial one included.
    pub fn attempted_inserts(&self) -> u64 {
        self.points.iter().map(|&p| (p * ITERS) as u64).sum()
    }

    /// A point whose row differs fails all its inserts.
    pub fn failed_inserts(&self) -> u64 {
        self.mismatched
            .iter()
            .map(|&(p, _)| (p * ITERS) as u64)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        let pts: Vec<Json> = self
            .per_point
            .iter()
            .map(|&(p, s, ev)| {
                Json::obj()
                    .with("ranks", p)
                    .with("run_s", s)
                    .with("events", ev)
            })
            .collect();
        Json::obj()
            .with("points", self.points.len())
            .with(
                "mismatched",
                Json::Arr(
                    self.mismatched
                        .iter()
                        .map(|(p, got)| Json::from(format!("{p} ranks: {got} MB/s")))
                        .collect(),
                ),
            )
            .with("inserts", self.inserts)
            .with("run_s", self.run_s)
            .with("build_s", self.build_s)
            .with("events", self.events)
            .with("msgs", self.msgs)
            .with("kib_per_rank", self.kib_per_rank)
            .with("retained_mib", self.retained_mib)
            .with("per_point", pts)
            .with(
                "slices",
                Json::Arr(
                    self.slices
                        .iter()
                        .map(|&(p, ns, k)| Json::Arr(vec![p.into(), ns.into(), k.into()]))
                        .collect(),
                ),
            )
    }
}
