//! `rma_smp`: rank 0 issues blocking `rput`/`rget` against rank 1's
//! segment. One op writes a fresh value to a slot and reads the slot back,
//! so puts and gets are exactly half each, and every `rget` is checked
//! against the last value put to its slot. (Ops that were a put or a get
//! at random would put the latency median on the boundary between the put
//! and the get populations, where it jumps between them from run to run.)
//! Rank 1 waits at the closing barrier.

use crate::gen::{fill_value, value_matches, RmaGen, RMA_SIZES, RMA_SLOTS};
use crate::json::Json;
use crate::rounds::{wait_ready, Plan, Rounds};
use crate::span::{Tracer, ROOT};
use std::cell::RefCell;
use std::time::Instant;
use upcxx::{Future, GlobalPtr};

/// Span names by size class: the op, and its put and its get.
const OP_NAMES: [&str; 3] = ["rma.op_8B", "rma.op_1KiB", "rma.op_64KiB"];
const PUT_NAMES: [&str; 3] = ["rma.put_8B", "rma.put_1KiB", "rma.put_64KiB"];
const GET_NAMES: [&str; 3] = ["rma.get_8B", "rma.get_1KiB", "rma.get_64KiB"];

/// Rank body of `rma_smp` (both ranks call it).
pub fn rank_body(plan: Plan, seed: u64) -> Json {
    // Rank 1 owns the slots: one region per size class.
    let regions: Vec<GlobalPtr<u8>> = (0..3)
        .map(|c| upcxx::allgather(upcxx::allocate::<u8>(RMA_SIZES[c] * RMA_SLOTS[c]))[1])
        .collect();
    let slot = |c: usize, s: usize| regions[c].add(s * RMA_SIZES[c]);
    // Rank 1 has nothing to do but wait at the barrier, as a UPC++ rank
    // does. (A target that slept instead left its vCPU idle, and the
    // issuer's latency median then spread 2.4 times as much over six
    // seeds on a shared 2-vCPU host.)
    let out = if upcxx::rank_me() == 0 {
        issue_loop(plan, seed, &slot)
    } else {
        Json::obj()
    };
    upcxx::barrier();
    out
}

fn slot_id(class: usize, slot: usize) -> u64 {
    (class as u64) << 32 | slot as u64
}

fn issue_loop(plan: Plan, seed: u64, slot: &dyn Fn(usize, usize) -> GlobalPtr<u8>) -> Json {
    let mut bufs: Vec<Vec<u8>> = RMA_SIZES.iter().map(|&n| vec![0u8; n]).collect();
    let tr = RefCell::new(Tracer::new(Instant::now()));
    let mut gen = RmaGen::new(seed);
    let (mut attempted, mut failed, mut version) = (0u64, 0u64, 0u64);
    let mut rounds = Rounds::start(plan);
    let lat = rounds.lat_sink();
    loop {
        let op = gen.next_op();
        let (c, dst, id) = (
            op.class,
            slot(op.class, op.slot),
            slot_id(op.class, op.slot),
        );
        version += 1;
        fill_value(&mut bufs[c], id, version);
        let tracing = rounds.tracing();
        let t0 = Instant::now();
        let (op_id, root) = if tracing {
            let mut t = tr.borrow_mut();
            let (op_id, s0) = (t.new_op(), t.ns(t0));
            (op_id, t.open(OP_NAMES[c], op_id, ROOT, s0))
        } else {
            (0, ROOT)
        };
        blocking(&tr, PUT_NAMES[c], op_id, root, || {
            upcxx::rput(&bufs[c], dst)
        });
        let got = blocking(&tr, GET_NAMES[c], op_id, root, || {
            upcxx::rget(dst, RMA_SIZES[c])
        });
        let t1 = Instant::now();
        lat.borrow_mut()
            .push(t1.duration_since(t0).as_nanos() as u64);
        if tracing {
            let mut t = tr.borrow_mut();
            let s1 = t.ns(t1);
            t.close(root, s1);
            drop(t);
            if op_id % 16 == 0 {
                rounds.sample_gauges();
            }
        }
        if !value_matches(&got, id, version, RMA_SIZES[c]) {
            failed += 1;
        }
        attempted += 1;
        if !rounds.tick(1, t1, &mut tr.borrow_mut()) {
            break;
        }
    }
    let t = tr.borrow();
    if plan.traced {
        let _ = t.write(&crate::spans_path("rma", 0), 0);
    }
    rounds
        .to_json()
        .with("attempted", attempted)
        .with("failed", failed)
        .with("durs", t.export())
        .with("spans", t.summary())
}

/// Issue one RMA and block on it. When tracing, span it as `name` under
/// `parent`, with an `rma.issue` child and an `rma.wait` child holding the
/// wait's `ctx.progress` spans.
fn blocking<T: Clone + 'static>(
    tr: &RefCell<Tracer>,
    name: &'static str,
    op: u64,
    parent: u32,
    issue: impl FnOnce() -> Future<T>,
) -> T {
    if !tr.borrow().on() {
        let f = issue();
        wait_ready(|| f.is_ready(), tr, 0, ROOT);
        return f.wait();
    }
    let a = Instant::now();
    let f = issue();
    let b = Instant::now();
    let (span, wait) = {
        let mut t = tr.borrow_mut();
        let (sa, sb) = (t.ns(a), t.ns(b));
        let span = t.open(name, op, parent, sa);
        t.record("rma.issue", op, span, sa, sb);
        (span, t.open("rma.wait", op, span, sb))
    };
    wait_ready(|| f.is_ready(), tr, op, wait);
    let mut t = tr.borrow_mut();
    let end = t.ns(Instant::now());
    t.close(wait, end);
    t.close(span, end);
    f.wait()
}
