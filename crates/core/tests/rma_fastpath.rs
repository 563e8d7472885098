//! Eager fast-path equivalence suite: the zero-copy injection-time RMA path
//! (`UPCXX_EAGER`, smp conduit only) must be observationally identical to
//! the deferred three-queue path — same data movement, same trace event
//! counts per (kind, phase), same sanitizer true-positive/true-negative
//! reports — plus `rget_into` coverage on both conduits and an alignment
//! regression with a 16-byte-aligned Pod element.
//!
//! Convention (mirrors `tests/san.rs`): smp sanitizer tests use Count mode
//! so no rank dies while peers wait in a barrier.

use netsim::MachineConfig;
use std::collections::BTreeMap;
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

/// A Pod element whose alignment (16) exceeds every scalar the runtime
/// traffics in — exercises `pod_to_bytes`/`pod_from_bytes` and the eager
/// raw-pointer copies against over-aligned element types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, align(16))]
struct Al16 {
    a: u64,
    b: u32,
    // Explicit tail bytes: rounding size_of to 16 with implicit padding
    // would ship uninitialized memory through the raw-pointer copies.
    pad: [u8; 4],
}

unsafe impl upcxx::Pod for Al16 {}

fn al16(seed: u64) -> Al16 {
    Al16 {
        a: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        b: seed as u32 ^ 0xdead_beef,
        pad: [0; 4],
    }
}

// ----------------------------------------------------- smp: data equivalence

/// One contiguous-RMA workload, parameterized by the knob: rput a slice,
/// read it back three ways (rget, rget_val, rget_into), rput_val a scalar.
/// Returns everything observed so the two knob states can be compared.
fn rma_workload(eager: bool) -> (Vec<u64>, u64, Vec<u64>, u64) {
    upcxx::set_eager(eager);
    assert_eq!(upcxx::eager_enabled(), eager, "knob must stick on smp");
    let slot = upcxx::allocate::<u64>(8);
    let slots = upcxx::allgather(slot);
    upcxx::barrier();
    let me = upcxx::rank_me() as u64;
    let n = upcxx::rank_n();
    let peer = slots[(upcxx::rank_me() + 1) % n];
    let src: Vec<u64> = (0..8).map(|i| me * 100 + i).collect();
    upcxx::rput(&src, peer).wait();
    upcxx::barrier();
    let got = upcxx::rget(slot, 8).wait();
    let head = upcxx::rget_val(slot).wait();
    let mut into = vec![0u64; 8];
    upcxx::rget_into(slot, &mut into).wait();
    upcxx::barrier(); // reads above done everywhere before slot[7] is retargeted
    upcxx::rput_val(me * 1000, peer.add(7)).wait();
    upcxx::barrier();
    let tail = upcxx::rget_val(slot.add(7)).wait();
    upcxx::barrier();
    upcxx::deallocate(slot);
    upcxx::barrier();
    (got, head, into, tail)
}

#[test]
fn smp_eager_on_off_same_results() {
    upcxx::run_spmd_default(3, || {
        let on = rma_workload(true);
        let off = rma_workload(false);
        assert_eq!(on, off, "eager and deferred paths must agree bit-for-bit");
        let left = ((upcxx::rank_me() + 3 - 1) % 3) as u64;
        let expect: Vec<u64> = (0..8).map(|i| left * 100 + i).collect();
        assert_eq!(on.0, expect);
        assert_eq!(on.1, expect[0]);
        assert_eq!(on.2, expect);
        assert_eq!(on.3, left * 1000, "slot[7] carries the left neighbor's id");
    });
}

// ------------------------------------------- smp: trace-shape equivalence

/// Traced windows rank 0 has closed so far. Rank 1 waits for each before
/// it enters the next barrier: otherwise its barrier flag can land inside
/// rank 0's traced window and add `SysAm` events to one knob state's
/// counts only.
static TRACED_WINDOWS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Count trace events per (kind, phase) for one traced put+get+get_into
/// sequence under the given knob state. Runs on rank 0 only. Keys are the
/// Debug renderings — `OpKind`/`Phase` deliberately don't implement `Ord`.
fn traced_counts(window: usize, eager: bool) -> BTreeMap<(String, String), usize> {
    upcxx::set_eager(eager);
    let slot = upcxx::allocate::<u64>(4);
    let slots = upcxx::allgather(slot);
    upcxx::barrier();
    let mut counts = BTreeMap::new();
    if upcxx::rank_me() == 0 {
        trace::set_config(tracing_on());
        upcxx::rput(&[9u64, 8, 7, 6], slots[1]).wait();
        assert_eq!(upcxx::rget(slots[1], 4).wait(), vec![9, 8, 7, 6]);
        let mut buf = [0u64; 4];
        upcxx::rget_into(slots[1], &mut buf).wait();
        assert_eq!(buf, [9, 8, 7, 6]);
        for e in trace::take_local() {
            *counts
                .entry((format!("{:?}", e.kind), format!("{:?}", e.phase)))
                .or_insert(0) += 1;
        }
        trace::set_config(TraceConfig::default());
        TRACED_WINDOWS.store(window, std::sync::atomic::Ordering::SeqCst);
    } else {
        upcxx::wait_until(|| TRACED_WINDOWS.load(std::sync::atomic::Ordering::SeqCst) >= window);
    }
    upcxx::barrier();
    upcxx::deallocate(slot);
    upcxx::barrier();
    counts
}

#[test]
fn smp_trace_event_counts_match_across_knob() {
    upcxx::run_spmd_default(2, || {
        let on = traced_counts(1, true);
        let off = traced_counts(2, false);
        if upcxx::rank_me() == 0 {
            assert_eq!(on, off, "per-(kind, phase) event counts must match");
            // The telescoped fast path still emits the full quartet: one
            // put and two gets, four phases each.
            for ph in [
                Phase::Inject,
                Phase::Conduit,
                Phase::Deliver,
                Phase::Complete,
            ] {
                let key = |k: OpKind| (format!("{k:?}"), format!("{ph:?}"));
                assert_eq!(on.get(&key(OpKind::Put)), Some(&1), "{ph:?}");
                assert_eq!(on.get(&key(OpKind::Get)), Some(&2), "{ph:?}");
            }
        }
    });
}

// ------------------------------------------- smp: sanitizer equivalence

/// The racy-rput scenario of `tests/san.rs`, under an explicit knob state:
/// ranks 0 and 1 both write rank 2's word with no ordering edge. Exactly
/// one injection must be diagnosed, eager or not — `check_rma` runs at
/// injection time on both paths.
fn racy_pair_races(eager: bool) -> u64 {
    upcxx::set_eager(eager);
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
    races
}

#[test]
fn smp_san_true_positive_matches_across_knob() {
    upcxx::run_spmd_default(3, || {
        let eager = racy_pair_races(true);
        assert_eq!(eager, 1, "eager path must still diagnose the race");
        let deferred = racy_pair_races(false);
        assert_eq!(eager, deferred, "same TP count on both paths");
    });
}

#[test]
fn smp_san_true_negative_matches_across_knob() {
    upcxx::run_spmd_default(2, || {
        for eager in [true, false] {
            upcxx::set_eager(eager);
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
                "clean workload must stay clean (eager={eager})"
            );
            san::set_config(SanConfig::default());
            upcxx::deallocate(slot);
            upcxx::barrier();
        }
    });
}

// --------------------------------------------------- sim: knob is inert

#[test]
fn sim_knob_is_inert_and_rget_into_works() {
    let rt = test_rt(2);
    rt.spawn(0, || {
        assert!(!upcxx::eager_enabled(), "sim never runs the eager path");
        upcxx::set_eager(true); // must be a no-op on the modeled conduit
        assert!(!upcxx::eager_enabled());
        let p = upcxx::allocate::<u64>(4);
        p.local_write(&[5, 6, 7, 8]);
        let mut out = vec![0u64; 4];
        upcxx::rget_into(p, &mut out).then(move |()| {
            assert_eq!(out, vec![5, 6, 7, 8]);
        });
    });
    rt.run();
}

// --------------------------------------------- both conduits: alignment

#[test]
fn smp_overaligned_pod_round_trips() {
    assert_eq!(std::mem::size_of::<Al16>(), 16);
    assert_eq!(std::mem::align_of::<Al16>(), 16);
    upcxx::run_spmd_default(2, || {
        for eager in [true, false] {
            upcxx::set_eager(eager);
            let slot = upcxx::allocate::<Al16>(3);
            let slots = upcxx::allgather(slot);
            upcxx::barrier();
            let me = upcxx::rank_me();
            let src = [al16(me as u64), al16(42), al16(u64::MAX)];
            upcxx::rput(&src, slots[1 - me]).wait();
            upcxx::barrier();
            let peer = 1 - me;
            let got = upcxx::rget(slot, 3).wait();
            assert_eq!(got, vec![al16(peer as u64), al16(42), al16(u64::MAX)]);
            let head = upcxx::rget_val(slot).wait();
            assert_eq!(head, al16(peer as u64));
            let mut into = [al16(0); 3];
            upcxx::rget_into(slot, &mut into).wait();
            assert_eq!(into.as_slice(), got.as_slice());
            upcxx::barrier();
            upcxx::deallocate(slot);
            upcxx::barrier();
        }
    });
}

#[test]
fn sim_overaligned_pod_round_trips() {
    let rt = test_rt(2);
    rt.spawn(0, || {
        let p = upcxx::allocate::<Al16>(2);
        upcxx::rput(&[al16(1), al16(2)], p)
            .then_fut(move |()| upcxx::rget(p, 2))
            .then(|got| assert_eq!(got, vec![al16(1), al16(2)]));
    });
    rt.run();
}

#[test]
fn pod_bytes_round_trip_preserves_overaligned_values() {
    let src = [al16(3), al16(0), al16(999)];
    let bytes = upcxx::ser::pod_to_bytes(&src);
    assert_eq!(bytes.len(), 48);
    // pod_from_bytes must land values correctly even when the source byte
    // buffer is arbitrarily aligned: probe a deliberately offset copy.
    let mut shifted = vec![0u8; bytes.len() + 1];
    shifted[1..].copy_from_slice(&bytes);
    let back: Vec<Al16> = upcxx::ser::pod_from_bytes(&shifted[1..]);
    assert_eq!(back.as_slice(), src.as_slice());
}
