//! The host stamp and the 1 KiB `rput` cost ladder.
//!
//! Each rung adds one layer to the one below it: a plain memcpy, the
//! conduit's `put_bytes`, `rput` injection alone, a blocking `rput`, and the
//! same with the runtime's event trace on, then with its sanitizer on. The
//! two calibration rungs (memcpy and `put_bytes`) are also part of every
//! record's host stamp, so a bound can be set relative to them.

use crate::json::Json;
use crate::stats::median;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use upcxx::{Config, SanConfig, SanMode, TraceConfig};

const KIB: usize = 1024;
/// Timed batches per rung; the rung reports the median batch.
const BATCHES: usize = 31;

/// Median over [`BATCHES`] batches of the mean ns per call of `f` over
/// `per_batch` calls (after one untimed batch).
fn rung(per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut batch = || {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        t0.elapsed().as_nanos() as f64 / per_batch as f64
    };
    batch();
    let v: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&v)
}

/// ns per `Instant::now()`.
pub fn clock_read_ns() -> f64 {
    rung(10_000, || {
        black_box(Instant::now());
    })
}

/// ns per 1 KiB `copy_from_slice`.
pub fn memcpy_1kib_ns() -> f64 {
    let src = vec![7u8; KIB];
    let mut dst = vec![0u8; KIB];
    rung(20_000, || {
        black_box(&mut dst).copy_from_slice(black_box(&src));
    })
}

/// Streaming copy bandwidth in GB/s over 32 MiB buffers (median of 5).
pub fn memcpy_gbps() -> f64 {
    let len = 32 << 20;
    let src = vec![1u8; len];
    let mut dst = vec![0u8; len];
    dst.copy_from_slice(&src);
    let v: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(&mut dst).copy_from_slice(black_box(&src));
            len as f64 / t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&v)
}

/// ns per 1 KiB `RankHandle::put_bytes` into the peer's segment, on a
/// bare 2-rank `gasnet::smp` world (no upcxx layer).
pub fn put_bytes_1kib_ns() -> f64 {
    let out = Mutex::new(0.0);
    gasnet::smp::launch(2, gasnet::smp::SmpConfig { seg_size: 1 << 20 }, |h| {
        if h.rank_me() == 0 {
            let src = vec![7u8; KIB];
            *out.lock().expect("rung result lock") =
                rung(20_000, || h.put_bytes(1, 0, black_box(&src)));
        }
        h.barrier();
    });
    out.into_inner().expect("rung result lock")
}

/// The ladder's `rput` rungs, all ns per 1 KiB op (the two calibration
/// rungs below them are in [`host_stamp`]).
pub fn rma_rungs() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    // Plain world: injection alone, blocking, then with the event trace on.
    let plain = Mutex::new(Vec::new());
    upcxx::run_spmd_with(2, Config::default(), || {
        let dst = upcxx::allgather(upcxx::allocate::<u8>(KIB))[1];
        if upcxx::rank_me() == 0 {
            let data = vec![7u8; KIB];
            // Issue 64 puts back to back per timed group; completing them
            // happens outside the timed part.
            let issue = {
                let mut futs = Vec::with_capacity(64);
                let mut group = || {
                    let t0 = Instant::now();
                    for _ in 0..64 {
                        futs.push(upcxx::rput(black_box(&data), dst));
                    }
                    let ns = t0.elapsed().as_nanos() as f64 / 64.0;
                    for f in futs.drain(..) {
                        f.wait();
                    }
                    ns
                };
                group();
                let v: Vec<f64> = (0..BATCHES * 16).map(|_| group()).collect();
                median(&v)
            };
            let blocking = rung(4_000, || upcxx::rput(black_box(&data), dst).wait());
            upcxx::trace::set_config(TraceConfig {
                enabled: true,
                capacity: 1 << 16,
            });
            let traced = rung(4_000, || upcxx::rput(black_box(&data), dst).wait());
            upcxx::trace::set_config(TraceConfig::default());
            *plain.lock().expect("rung result lock") = vec![
                ("rma.rput_1KiB_issue_ns", issue),
                ("rma.rput_1KiB_ns", blocking),
                ("trace.rput_1KiB_ns", traced),
            ];
        }
        upcxx::barrier();
    });
    out.extend(plain.into_inner().expect("rung result lock"));
    // The sanitizer has to be on in every rank from launch.
    let san = Mutex::new(0.0);
    let cfg = Config::default().with_san(SanConfig {
        enabled: true,
        mode: SanMode::Panic,
    });
    upcxx::run_spmd_with(2, cfg, || {
        let dst = upcxx::allgather(upcxx::allocate::<u8>(KIB))[1];
        if upcxx::rank_me() == 0 {
            let data = vec![7u8; KIB];
            *san.lock().expect("rung result lock") =
                rung(4_000, || upcxx::rput(black_box(&data), dst).wait());
        }
        upcxx::barrier();
    });
    out.push((
        "san.rput_1KiB_ns",
        san.into_inner().expect("rung result lock"),
    ));
    out
}

/// ns per `Ser::ser` of an `(u64, Vec<u8>)` DHT insert argument.
pub fn ser_encode_ns(len: usize) -> f64 {
    use upcxx::Ser;
    let arg = (42u64, vec![5u8; len]);
    let mut buf = Vec::with_capacity(len + 64);
    rung(if len > KIB { 2_000 } else { 20_000 }, || {
        buf.clear();
        black_box(&arg).ser(&mut buf);
        black_box(&buf);
    })
}

/// The host stamp of every record.
pub fn host_stamp(rev: Option<String>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_default();
    Json::obj()
        .with("nproc", nproc)
        .with("cpu", cpu)
        .with("clock_read_ns", clock_read_ns())
        .with("memcpy_gbps", memcpy_gbps())
        .with("host.memcpy_1KiB_ns", memcpy_1kib_ns())
        .with("gasnet.put_bytes_1KiB_ns", put_bytes_1kib_ns())
        .with("rev", rev.map_or(Json::Null, Json::Str))
}
