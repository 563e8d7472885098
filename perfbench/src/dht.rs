//! `dht_smp` / `dht_proc`: both ranks issue windows of `pgas_dht` inserts
//! and finds plus `rpc_ff` inserts on their own key ranges, blocking on
//! each window.
//!
//! Checks: every find is compared with the issuing rank's own expected
//! map; `rpc_ff` inserts are counted by their owner, and the run waits
//! (with `upcxx::wait_until`, i.e. user progress) until each owner's
//! applied count equals what the world issued to it. A barrier does not
//! promise that a peer's `rpc_ff`s have run, so the check never relies on
//! one. Last, every key a rank wrote is read back and checked.

use crate::gen::{dht_idx, ff_len, make_value, value_matches, DhtGen, DhtKind, DHT_KEYS};
use crate::json::Json;
use crate::rounds::{wait_ready, Plan, Rounds};
use crate::span::{Tracer, ROOT};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};
use upcxx::Future;

/// Owner-side count of applied `rpc_ff` inserts.
#[derive(Default)]
struct FfApplied(Cell<u64>);

fn applied() -> u64 {
    upcxx::rank_state::<FfApplied>(Default::default).0.get()
}

fn ff_insert(args: (u64, Vec<u8>)) {
    pgas_dht::local_map()
        .inline
        .borrow_mut()
        .insert(args.0, args.1);
    let a = upcxx::rank_state::<FfApplied>(Default::default);
    a.0.set(a.0.get() + 1);
}

fn add_counts(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// How long the end-of-run check waits for `rpc_ff` inserts to land before
/// it counts the rest as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

fn span_name(kind: DhtKind) -> (&'static str, &'static str) {
    match kind {
        DhtKind::InsertRpc => ("dht.insert_rpc", "dht.insert_rpc.issue"),
        DhtKind::InsertRma => ("dht.insert_rma", "dht.insert_rma.issue"),
        DhtKind::FindRpc => ("dht.find_rpc", "dht.find_rpc.issue"),
        DhtKind::FindRma => ("dht.find_rma", "dht.find_rma.issue"),
        DhtKind::InsertFf => ("dht.insert_ff", "dht.insert_ff.issue"),
    }
}

/// What a key should hold: `(version, len)` of its last insert, or nothing.
type Want = Option<(u64, usize)>;
/// What one rank expects its RPC-class and RMA-class keys to hold.
type Expect = [Vec<Want>; 2];

/// Rank body of the DHT workloads (every rank calls it).
pub fn rank_body(plan: Plan, seed: u64, kernel: &str) -> Json {
    let (me, n) = (upcxx::rank_me(), upcxx::rank_n());
    upcxx::set_agg_config(upcxx::AggConfig {
        enabled: true,
        max_bytes: 4096,
    });
    pgas_dht::enable_recycling();
    upcxx::barrier();

    let tr = Rc::new(RefCell::new(Tracer::new(Instant::now())));
    let failed = Rc::new(Cell::new(0u64));
    let mut expect: Expect = [vec![None; DHT_KEYS as usize], vec![None; DHT_KEYS as usize]];
    let mut ff_issued = vec![0u64; n];
    let mut ff_keys = BTreeSet::new();
    let (mut attempted, mut self_targeted, mut version) = (0u64, 0u64, 0u64);
    let mut gen = DhtGen::new(seed, me);
    let mut rounds = Rounds::start(plan);
    let lat = rounds.lat_sink();
    loop {
        let window = gen.next_window();
        let tracing = rounds.tracing();
        let tw = Instant::now();
        let (wop, wspan) = {
            let mut t = tr.borrow_mut();
            let op = t.new_op();
            let s = t.ns(tw);
            (op, t.open("dht.window", op, ROOT, s))
        };
        let mut futs: Vec<Future<()>> = Vec::with_capacity(window.len());
        let mut applied_here = Vec::new();
        for op in &window {
            let target = pgas_dht::get_target(op.key, n);
            self_targeted += (target == me) as u64;
            let value = (op.len > 0).then(|| {
                version += 1;
                let id_version = if op.kind == DhtKind::InsertFf {
                    0
                } else {
                    version
                };
                make_value(op.key, id_version, op.len)
            });
            let (op_name, issue_name) = span_name(op.kind);
            let t0 = Instant::now();
            let fut: Option<Future<()>> = match op.kind {
                DhtKind::InsertRpc | DhtKind::InsertRma => {
                    applied_here.push((op.kind.class(), dht_idx(op.key), version, op.len));
                    let v = value.expect("inserts carry a value");
                    Some(if op.kind == DhtKind::InsertRpc {
                        pgas_dht::insert_rpc(op.key, v)
                    } else {
                        pgas_dht::insert(op.key, v)
                    })
                }
                DhtKind::FindRpc | DhtKind::FindRma => {
                    let want = expect[op.kind.class() as usize][dht_idx(op.key)];
                    let found = if op.kind == DhtKind::FindRpc {
                        pgas_dht::find_rpc(op.key)
                    } else {
                        pgas_dht::find(op.key)
                    };
                    let (key, failed) = (op.key, failed.clone());
                    Some(found.then(move |got| {
                        if !find_ok(got.as_deref(), key, want) {
                            failed.set(failed.get() + 1);
                        }
                    }))
                }
                DhtKind::InsertFf => {
                    upcxx::rpc_ff(
                        target,
                        ff_insert,
                        (op.key, value.expect("inserts carry a value")),
                    );
                    ff_issued[target] += 1;
                    ff_keys.insert(op.key);
                    None
                }
            };
            let op_span = if tracing {
                let ti = Instant::now();
                let mut t = tr.borrow_mut();
                let (s0, si) = (t.ns(t0), t.ns(ti));
                let id = t.new_op();
                let sp = if fut.is_some() {
                    t.open(op_name, id, wspan, s0)
                } else {
                    wspan
                };
                t.record(issue_name, id, sp, s0, si);
                sp
            } else {
                ROOT
            };
            if let Some(f) = fut {
                let (tr, lat) = (tr.clone(), lat.clone());
                futs.push(f.then(move |_| {
                    let t1 = Instant::now();
                    lat.borrow_mut()
                        .push(t1.duration_since(t0).as_nanos() as u64);
                    if tracing {
                        let mut t = tr.borrow_mut();
                        let s1 = t.ns(t1);
                        t.close(op_span, s1);
                    }
                }));
            }
        }
        traced_call(&tr, tracing, "agg.flush", wop, wspan, upcxx::flush_all);
        let all = traced_call(&tr, tracing, "future.when_all", wop, wspan, || {
            upcxx::when_all_vec(futs)
        });
        if tracing {
            rounds.sample_gauges();
        }
        let wait_start = Instant::now();
        let wait_span = {
            let mut t = tr.borrow_mut();
            let s = t.ns(wait_start);
            t.open("ctx.wait", wop, wspan, s)
        };
        wait_ready(|| all.is_ready(), &tr, wop, wait_span);
        let tend = Instant::now();
        {
            let mut t = tr.borrow_mut();
            let s = t.ns(tend);
            t.close(wait_span, s);
            t.close(wspan, s);
        }
        for (class, idx, ver, len) in applied_here {
            expect[class as usize][idx] = Some((ver, len));
        }
        attempted += window.len() as u64;
        if !rounds.tick(window.len() as u64, tend, &mut tr.borrow_mut()) {
            break;
        }
    }

    // rpc_ff completion: wait for every owner to have applied what the
    // world issued to it.
    let drain_start = Instant::now();
    upcxx::flush_all();
    let issued_to = upcxx::reduce_all(ff_issued, add_counts).wait();
    let expected_here = issued_to[me];
    upcxx::wait_until(|| applied() >= expected_here || drain_start.elapsed() > DRAIN_LIMIT);
    let drain_us = drain_start.elapsed().as_secs_f64() * 1e6;
    let ff_missing = expected_here.abs_diff(applied());
    upcxx::barrier();

    // Read back every key this rank wrote.
    let readback_failed = readback(&expect, &ff_keys, me);
    upcxx::barrier();

    let t = tr.borrow();
    if plan.traced {
        let _ = t.write(&crate::spans_path(kernel, me), me);
    }
    rounds
        .to_json()
        .with("attempted", attempted)
        .with("failed", failed.get() + ff_missing + readback_failed)
        .with("ff_missing", ff_missing)
        .with("readback_failed", readback_failed)
        .with("self_targeted", self_targeted)
        .with("drain_us", drain_us)
        .with("durs", t.export())
        .with("spans", t.summary())
}

fn find_ok(got: Option<&[u8]>, key: u64, want: Want) -> bool {
    match (got, want) {
        (None, None) => true,
        (Some(v), Some((ver, len))) => value_matches(v, key, ver, len),
        _ => false,
    }
}

/// Call `f` inside a span named `name` when tracing.
fn traced_call<R>(
    tr: &RefCell<Tracer>,
    tracing: bool,
    name: &'static str,
    op: u64,
    parent: u32,
    f: impl FnOnce() -> R,
) -> R {
    if !tracing {
        return f();
    }
    let a = Instant::now();
    let r = f();
    let b = Instant::now();
    let mut t = tr.borrow_mut();
    let (sa, sb) = (t.ns(a), t.ns(b));
    t.record(name, op, parent, sa, sb);
    r
}

/// Find every key this rank wrote and count the ones that read back wrong.
fn readback(expect: &Expect, ff_keys: &BTreeSet<u64>, me: usize) -> u64 {
    let mut checks: Vec<(u64, bool, Want)> = Vec::new();
    for class in 0..2u64 {
        for (idx, want) in expect[class as usize].iter().enumerate() {
            if want.is_some() {
                checks.push((
                    crate::gen::dht_key(me, class, idx as u64),
                    class == 1,
                    *want,
                ));
            }
        }
    }
    checks.extend(ff_keys.iter().map(|&k| (k, false, Some((0, ff_len(k))))));
    let bad = Rc::new(Cell::new(0u64));
    for chunk in checks.chunks(64) {
        let futs: Vec<Future<()>> = chunk
            .iter()
            .map(|&(key, rma, want)| {
                let found = if rma {
                    pgas_dht::find(key)
                } else {
                    pgas_dht::find_rpc(key)
                };
                let bad = bad.clone();
                found.then(move |got| {
                    if !find_ok(got.as_deref(), key, want) {
                        bad.set(bad.get() + 1);
                    }
                })
            })
            .collect();
        upcxx::flush_all();
        upcxx::when_all_vec(futs).wait();
    }
    bad.get()
}
