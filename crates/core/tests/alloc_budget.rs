//! Steady-state heap-allocation budgets of the runtime's hot paths.
//!
//! A counting `#[global_allocator]` wraps the system allocator; a 1-rank
//! smp world warms every path up (buffer pools, queue capacities, map
//! tables), then counts the allocations of `REPS` repetitions of each op
//! and reports the mean per op:
//!
//! * a self-`rpc` round trip with aggregation on and with it off;
//! * an `rpc_ff` up to the execution of its handler;
//! * an eager `rput` plus `wait`;
//! * one `then` link (the marginal cost of a longer chain);
//! * a `when_all_vec` of 8 ready futures.
//!
//! Under default knobs the test asserts the budgets below. Under
//! `UPCXX_SAN=1`, `UPCXX_PROGRESS=1`, `UPCXX_EAGER=0` or `UPCXX_TRACE=1` it
//! still runs every op and checks its result, but only prints the counts:
//! the sanitizer snapshots vector clocks into every message, the progress
//! persona parks reply handlers in a handoff queue on another thread, the
//! deferred RMA path stages payloads and boxes completions, and tracing
//! records events — each adds allocations by design, so a budget set for
//! the default path would not describe them.
//!
//! Everything runs inside one `#[test]`: the counter is process-wide, and a
//! second test running on another thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim (see the impl's comment).
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Repetitions per op for the warm-up and for the counted run.
const REPS: u64 = 256;
/// Links in the long `then` chain (the short one has none).
const LINKS: u64 = 8;

/// Budgets under default knobs: allocations per op.
const RPC_AGG_ON_MAX: f64 = 6.0;
const THEN_LINK_MAX: f64 = 2.0;

fn echo(x: u64) -> u64 {
    x + 1
}

/// Sum of every `rpc_ff` argument delivered so far. An atomic, not a
/// thread-local: under `UPCXX_PROGRESS=1` the handler runs on the rank's
/// progress thread.
static FF_SEEN: AtomicU64 = AtomicU64::new(0);

fn ff_bump(x: u64) {
    FF_SEEN.fetch_add(x, Ordering::Relaxed);
}

/// Mean allocations per call of `op` over `REPS` calls, after `REPS`
/// warm-up calls.
fn per_op(mut op: impl FnMut(u64)) -> f64 {
    for i in 0..REPS {
        op(i);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..REPS {
        op(i);
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / REPS as f64
}

/// A promise-fed chain of `links` `then`s; returns the chain's result.
fn then_chain(links: u64, seed: u64) -> u64 {
    let p = upcxx::Promise::<u64>::new();
    let mut f = p.get_future();
    for _ in 0..links {
        f = f.then(|v| v + 1);
    }
    p.fulfill(seed);
    f.try_get().expect("chain of ready links is ready")
}

fn rpc_round_trip(agg: bool) -> f64 {
    upcxx::set_agg_config(upcxx::AggConfig {
        enabled: agg,
        ..upcxx::AggConfig::default()
    });
    let n = per_op(|i| assert_eq!(upcxx::rpc(0, echo, i).wait(), i + 1));
    upcxx::set_agg_config(upcxx::AggConfig::default());
    n
}

#[test]
fn steady_state_allocation_budgets() {
    let mut cfg = upcxx::Config::from_env();
    cfg.conduit = upcxx::ConduitKind::Smp;
    let default_knobs = cfg.eager && !cfg.progress && !cfg.san.enabled && !cfg.trace.enabled;
    let counts = std::sync::Mutex::new(Vec::new());
    upcxx::run_spmd_with(1, cfg, || {
        let mut out = Vec::new();
        out.push(("rpc round trip, agg on", rpc_round_trip(true)));
        out.push(("rpc round trip, agg off", rpc_round_trip(false)));

        let ff = per_op(|i| {
            let want = FF_SEEN.load(Ordering::Relaxed) + i;
            upcxx::rpc_ff(0, ff_bump, i);
            upcxx::wait_until(|| FF_SEEN.load(Ordering::Relaxed) == want);
        });
        out.push(("rpc_ff + handler", ff));

        let dst = upcxx::allocate::<u64>(1);
        // Checked once afterwards: a local read allocates buffers of its own.
        let put = per_op(|i| upcxx::rput(&[i], dst).wait());
        assert_eq!(dst.try_local_value(), Some(REPS - 1));
        out.push(("eager rput + wait", put));

        let short = per_op(|i| assert_eq!(then_chain(0, i), i));
        let long = per_op(|i| assert_eq!(then_chain(LINKS, i), i + LINKS));
        out.push(("then link", (long - short) / LINKS as f64));

        let all = per_op(|i| {
            let futs = (0..8).map(|k| upcxx::make_future(i + k)).collect();
            let got = upcxx::when_all_vec(futs).wait();
            assert_eq!(got, (0..8).map(|k| i + k).collect::<Vec<_>>());
        });
        out.push(("when_all_vec of 8", all));
        upcxx::deallocate(dst);
        *counts.lock().unwrap() = out;
    });
    let counts = counts.into_inner().unwrap();
    let mode = if default_knobs {
        "default knobs: budgets asserted"
    } else {
        "non-default knobs: counts reported only"
    };
    println!("allocations per op ({mode}):");
    for (op, n) in &counts {
        println!("  {op:<24} {n:>6.2}");
    }
    if !default_knobs {
        return;
    }
    let get = |name: &str| counts.iter().find(|(op, _)| *op == name).unwrap().1;
    let rpc = get("rpc round trip, agg on");
    assert!(
        rpc <= RPC_AGG_ON_MAX,
        "self-rpc round trip (agg on) allocates {rpc:.2} per op (budget {RPC_AGG_ON_MAX})"
    );
    let link = get("then link");
    assert!(
        link <= THEN_LINK_MAX,
        "one then link allocates {link:.2} (budget {THEN_LINK_MAX})"
    );
}
