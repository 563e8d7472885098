//! Progress-persona equivalence suite: the opt-in progress thread
//! (`UPCXX_PROGRESS` / `upcxx::set_progress_thread`) must be observationally
//! identical to the default user-driven path — same data movement and RPC
//! results, same trace event counts per (kind, phase), same sanitizer
//! true-positive/true-negative reports — while actually servicing traffic
//! for an inattentive master (the stress test: only rank 0 ever calls
//! `progress()` and every RPC still completes).
//!
//! Convention (mirrors `tests/rma_fastpath.rs`): smp sanitizer tests use
//! Count mode so no rank dies while peers wait in a barrier; sim tests
//! assert the knob is inert (figures byte-identical either way).

use netsim::MachineConfig;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;
use upcxx::san::{self, SanConfig, SanMode};
use upcxx::trace;
use upcxx::{OpKind, Phase, SimRuntime, TraceConfig};

fn test_rt(n: usize) -> SimRuntime {
    SimRuntime::new(MachineConfig::test_2x4(), n, 1 << 16)
}

fn tracing_on() -> TraceConfig {
    TraceConfig {
        enabled: true,
        capacity: 1 << 14,
    }
}

fn san_cfg(mode: SanMode) -> SanConfig {
    SanConfig {
        enabled: true,
        mode,
    }
}

/// Per-rank count of RPC handler executions. Handlers run on whichever
/// persona drains them from the inbox; `rank_state` itself takes the engine
/// lock, so a master-side `hits()` call after all senders waited their
/// futures is ordered after every progress-persona increment.
struct Hits(Cell<u64>);

fn hits() -> Rc<Hits> {
    upcxx::rank_state(|| Hits(Cell::new(0)))
}

fn rpc_double(x: u64) -> u64 {
    let h = hits();
    h.0.set(h.0.get() + 1);
    x.wrapping_mul(2)
}

// ----------------------------------------------------- smp: data equivalence

/// One mixed RMA+RPC workload, parameterized by the knob: rput a slice to
/// the right neighbor, rget it back, send 16 waited RPCs, count handler
/// executions. Returns everything observed so the two knob states can be
/// compared.
fn mixed_workload(progress_thread: bool) -> (Vec<u64>, u64, u64) {
    upcxx::set_progress_thread(progress_thread);
    let me = upcxx::rank_me();
    let n = upcxx::rank_n();
    let right = (me + 1) % n;
    let base = hits().0.get(); // quiescent: no traffic in flight yet
    let slot = upcxx::allocate::<u64>(4);
    let slots = upcxx::allgather(slot);
    upcxx::barrier();
    let src: Vec<u64> = (0..4).map(|i| me as u64 * 10 + i).collect();
    upcxx::rput(&src, slots[right]).wait();
    upcxx::barrier();
    let got = upcxx::rget(slot, 4).wait();
    let mut sum = 0u64;
    for i in 0..16u64 {
        sum += upcxx::rpc(right, rpc_double, i).wait();
    }
    upcxx::barrier();
    // Every sender waited its futures before the barrier, so all handlers
    // have run; the engine-lock acquisition inside `hits()` orders this
    // read after any progress-persona increments.
    let handled = hits().0.get() - base;
    upcxx::barrier();
    upcxx::deallocate(slot);
    upcxx::barrier();
    upcxx::set_progress_thread(false);
    (got, sum, handled)
}

#[test]
fn smp_progress_thread_on_off_same_results() {
    upcxx::run_spmd_default(3, || {
        let on = mixed_workload(true);
        let off = mixed_workload(false);
        assert_eq!(on, off, "both personas must produce identical results");
        let left = ((upcxx::rank_me() + 2) % 3) as u64;
        let expect: Vec<u64> = (0..4).map(|i| left * 10 + i).collect();
        assert_eq!(on.0, expect);
        assert_eq!(on.1, (0..16u64).map(|i| i * 2).sum::<u64>());
        assert_eq!(on.2, 16, "the left neighbor sent us 16 rpcs");
    });
}

// ------------------------------------------- smp: trace-shape equivalence

/// Traced windows rank 0 has closed so far. Rank 1 waits for each before
/// it enters the next barrier: otherwise its barrier flag can land inside
/// rank 0's traced window and add `SysAm` events to one knob state's
/// counts only.
static TRACED_WINDOWS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Count trace events per (kind, phase) for one traced put+get+rpc sequence
/// under the given knob state, and collect the persona ids stamped on them.
/// Runs on rank 0 only. Keys are the Debug renderings — `OpKind`/`Phase`
/// deliberately don't implement `Ord`.
fn traced_counts(
    window: usize,
    progress_thread: bool,
) -> (BTreeMap<(String, String), usize>, Vec<u8>) {
    upcxx::set_progress_thread(progress_thread);
    let slot = upcxx::allocate::<u64>(4);
    let slots = upcxx::allgather(slot);
    upcxx::barrier();
    let mut counts = BTreeMap::new();
    let mut personas = Vec::new();
    if upcxx::rank_me() == 0 {
        trace::set_config(tracing_on());
        upcxx::rput(&[9u64, 8, 7, 6], slots[1]).wait();
        assert_eq!(upcxx::rget(slots[1], 4).wait(), vec![9, 8, 7, 6]);
        assert_eq!(upcxx::rpc(1, rpc_double, 21).wait(), 42);
        for e in trace::take_local() {
            *counts
                .entry((format!("{:?}", e.kind), format!("{:?}", e.phase)))
                .or_insert(0) += 1;
            personas.push(e.persona);
        }
        trace::set_config(TraceConfig::default());
        TRACED_WINDOWS.store(window, std::sync::atomic::Ordering::SeqCst);
    } else {
        upcxx::wait_until(|| TRACED_WINDOWS.load(std::sync::atomic::Ordering::SeqCst) >= window);
    }
    upcxx::barrier();
    upcxx::deallocate(slot);
    upcxx::barrier();
    upcxx::set_progress_thread(false);
    (counts, personas)
}

#[test]
fn smp_trace_event_counts_match_across_knob() {
    upcxx::run_spmd_default(2, || {
        let (on, on_personas) = traced_counts(1, true);
        let (off, off_personas) = traced_counts(2, false);
        if upcxx::rank_me() == 0 {
            assert_eq!(on, off, "per-(kind, phase) event counts must match");
            // The progress persona changes *who* records an event, never
            // whether it is recorded: one put and one get, four phases each.
            for ph in [
                Phase::Inject,
                Phase::Conduit,
                Phase::Deliver,
                Phase::Complete,
            ] {
                let key = |k: OpKind| (format!("{k:?}"), format!("{ph:?}"));
                assert_eq!(on.get(&key(OpKind::Put)), Some(&1), "{ph:?}");
                assert_eq!(on.get(&key(OpKind::Get)), Some(&1), "{ph:?}");
            }
            assert!(
                off_personas.iter().all(|&p| p == 0),
                "thread off: every event is stamped with the master persona"
            );
            assert!(
                on_personas.iter().all(|&p| p <= 1),
                "thread on: persona ids are master (0) or progress (1)"
            );
        }
    });
}

// ------------------------------------------- smp: sanitizer equivalence

/// The racy-rput scenario of `tests/san.rs`, under an explicit knob state:
/// ranks 0 and 1 both write rank 2's word with no ordering edge. Exactly
/// one injection must be diagnosed whether or not a progress thread drains
/// the target — `check_rma` runs at injection time on both paths.
fn racy_pair_races(progress_thread: bool) -> u64 {
    upcxx::set_progress_thread(progress_thread);
    san::set_config(san_cfg(SanMode::Count));
    let base = san::san_report();
    upcxx::barrier();
    let words = upcxx::allocate::<u64>(2);
    words.local_write(&[0, 0]);
    let all = upcxx::allgather(words);
    if upcxx::rank_me() < 2 {
        upcxx::rput_val(upcxx::rank_me() as u64, all[2]).wait();
        let done = all[2].add(1);
        let ad = upcxx::AtomicDomain::all();
        ad.fetch_add(done, 1).wait();
        while ad.load(done).wait() < 2 {}
    }
    upcxx::barrier();
    // Counters are cumulative per rank: report the delta so the scenario can
    // run under both knob states in one world.
    let races = upcxx::reduce_all(san::san_report().races - base.races, |a, b| a + b).wait();
    let c = san::san_report();
    assert_eq!((c.uaf, c.oob, c.bad_frees), (0, 0, 0), "{c:?}");
    san::set_config(SanConfig::default());
    upcxx::barrier();
    upcxx::set_progress_thread(false);
    races
}

#[test]
fn smp_san_true_positive_matches_across_knob() {
    upcxx::run_spmd_default(3, || {
        let threaded = racy_pair_races(true);
        assert_eq!(threaded, 1, "progress persona must still diagnose the race");
        let user_driven = racy_pair_races(false);
        assert_eq!(threaded, user_driven, "same TP count on both paths");
    });
}

#[test]
fn smp_san_true_negative_matches_across_knob() {
    upcxx::run_spmd_default(2, || {
        for threaded in [true, false] {
            upcxx::set_progress_thread(threaded);
            san::set_config(san_cfg(SanMode::Count));
            upcxx::barrier();
            let slot = upcxx::allocate::<u64>(4);
            let slots = upcxx::allgather(slot);
            upcxx::barrier(); // ordering edge before ...
            if upcxx::rank_me() == 0 {
                upcxx::rput(&[1u64, 2, 3, 4], slots[1]).wait();
            }
            upcxx::barrier(); // ... and after: no race to report.
            assert_eq!(upcxx::rget(slot, 4).wait().len(), 4);
            upcxx::barrier();
            assert_eq!(
                san::san_report(),
                upcxx::SanCounters::default(),
                "clean workload must stay clean (threaded={threaded})"
            );
            san::set_config(SanConfig::default());
            upcxx::deallocate(slot);
            upcxx::barrier();
            upcxx::set_progress_thread(false);
        }
    });
}

// ------------------------------------------- smp: inattentive-target stress

/// Only rank 0 ever calls `progress()` (via the waits on its futures); rank 1
/// never does inside the window — its progress persona alone services 200
/// RPCs and the completion flag. Rank 1 detects the end of the window by
/// polling a segment word with `local_read` (a plain local access, not
/// progress) that rank 0 sets with an atomic store — the sanctioned
/// flag-polling idiom, so the suite stays clean under `UPCXX_SAN=1`.
#[test]
fn smp_inattentive_target_rpcs_complete() {
    upcxx::run_spmd_default(2, || {
        upcxx::set_progress_thread(true);
        let flag = upcxx::allocate::<u64>(1);
        flag.local_write(&[0]);
        let flags = upcxx::allgather(flag);
        let base = hits().0.get();
        upcxx::barrier();
        if upcxx::rank_me() == 0 {
            let futs: Vec<_> = (0..200u64).map(|i| upcxx::rpc(1, rpc_double, i)).collect();
            for (i, f) in futs.into_iter().enumerate() {
                assert_eq!(f.wait(), i as u64 * 2);
            }
            let ad = upcxx::AtomicDomain::all();
            ad.store(flags[1], 1).wait();
        } else {
            let mut v = [0u64; 1];
            loop {
                flag.local_read(&mut v);
                if v[0] == 1 {
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        // Joining the thread happens-before this read, so the handler count
        // is safe to inspect directly.
        upcxx::set_progress_thread(false);
        if upcxx::rank_me() == 1 {
            assert_eq!(hits().0.get() - base, 200, "all rpcs ran while inattentive");
        }
        upcxx::barrier();
        upcxx::deallocate(flag);
        upcxx::barrier();
    });
}

// ----------------------------------- smp: attentiveness reset + comp chunks

#[test]
fn smp_attentiveness_resets_and_tracks_both_personas() {
    upcxx::run_spmd_default(1, || {
        // Force a known state: `UPCXX_PROGRESS=1` starts the thread at init.
        upcxx::set_progress_thread(false);
        trace::set_config(tracing_on());
        upcxx::progress();
        std::thread::sleep(Duration::from_millis(2));
        upcxx::progress();
        let s = upcxx::runtime_stats();
        assert!(
            s.max_progress_gap_ps >= 1_000_000_000,
            "a >=1 ms master gap must be recorded, got {} ps",
            s.max_progress_gap_ps
        );
        assert_eq!(
            s.max_progress_gap_prog_ps, 0,
            "thread off: the progress persona never runs"
        );
        // A fresh set_config starts a new measurement world: back-to-back
        // worlds must not inherit the previous world's max gap.
        trace::set_config(tracing_on());
        let s = upcxx::runtime_stats();
        assert_eq!(s.max_progress_gap_ps, 0, "reset must clear the master gap");
        assert_eq!(s.max_progress_gap_prog_ps, 0);
        // With the thread on, the progress persona's attentiveness is
        // tracked separately from the master's.
        upcxx::set_progress_thread(true);
        std::thread::sleep(Duration::from_millis(5));
        upcxx::set_progress_thread(false);
        let s = upcxx::runtime_stats();
        assert!(
            s.max_progress_gap_prog_ps > 0,
            "progress persona gaps must be measured while the thread runs"
        );
        trace::set_config(TraceConfig::default());
    });
}

#[test]
fn smp_comp_chunks_exposed_in_stats() {
    upcxx::run_spmd_default(2, || {
        upcxx::set_eager(false); // deferred path: completions retire via compQ
        let slot = upcxx::allocate::<u64>(1);
        let slots = upcxx::allgather(slot);
        upcxx::barrier();
        upcxx::rput_val(7u64, slots[(upcxx::rank_me() + 1) % 2]).wait();
        upcxx::barrier();
        let s = upcxx::runtime_stats();
        assert!(
            s.comp_chunks >= 1,
            "bounded compQ drain must report its chunks, got {}",
            s.comp_chunks
        );
        upcxx::deallocate(slot);
        upcxx::barrier();
    });
}

// --------------------------------------------------- sim: knob is inert

fn sim_hit(_: u64) {}

/// One deterministic sim workload; returns the virtual end time.
fn sim_elapsed(enable_thread: bool) -> impl PartialEq + std::fmt::Debug {
    let rt = test_rt(2);
    rt.spawn(0, move || {
        // Must be a no-op on the modeled conduit: no thread, no figure drift.
        upcxx::set_progress_thread(enable_thread);
        let p = upcxx::allocate::<u64>(4);
        upcxx::rput(&[1u64, 2, 3, 4], p)
            .then_fut(move |()| upcxx::rget(p, 4))
            .then(|got| assert_eq!(got, vec![1, 2, 3, 4]));
        for i in 0..20u64 {
            upcxx::rpc_ff(1, sim_hit, i);
        }
    });
    rt.run()
}

#[test]
fn sim_progress_thread_is_inert() {
    let off = sim_elapsed(false);
    let on = sim_elapsed(true);
    assert_eq!(
        on, off,
        "sim figures must be byte-identical across the knob"
    );
}
