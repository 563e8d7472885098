//! Cross-process DHT insert throughput — the acceptance benchmark for the
//! proc conduit. Same shape as `dht_kmer_count`'s insert phase: every rank
//! fire-and-forgets `INSERTS` keyed updates at hash-owned ranks, flushes,
//! and waits until every owner has applied what the world issued to it;
//! rank 0 times the phase and reports aggregate inserts/s.
//!
//! Run: `UPCXX_CONDUIT=proc UPCXX_RANKS=4 cargo run --release --example
//! bench_proc` (drop `UPCXX_CONDUIT` for the smp-conduit comparison point).
//! Rank 0 appends nothing and overwrites nothing by surprise: it writes
//! `results/BENCH_proc.json` only when that directory exists (i.e. when run
//! from the repo root), otherwise it just prints.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const INSERTS: usize = 50_000;

/// How long an owner waits for issued inserts to land before it calls them
/// lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

type Table = RefCell<HashMap<u64, u64>>;

fn table() -> std::rc::Rc<Table> {
    upcxx::rank_state::<Table>(|| RefCell::new(HashMap::new()))
}

/// Owner-side count of applied inserts.
#[derive(Default)]
struct Applied(Cell<u64>);

fn applied() -> u64 {
    upcxx::rank_state::<Applied>(Default::default).0.get()
}

fn insert(args: (u64, u64)) {
    let (k, v) = args;
    *table().borrow_mut().entry(k).or_insert(0) += v;
    let a = upcxx::rank_state::<Applied>(Default::default);
    a.0.set(a.0.get() + 1);
}

fn add_counts(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

fn total(_: ()) -> u64 {
    let t = table().borrow().values().sum();
    t
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 31)
}

fn main() {
    let ranks = std::env::var("UPCXX_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    upcxx::run_spmd_default(ranks, || {
        let me = upcxx::rank_me();
        let n = upcxx::rank_n();
        let conduit = if std::env::var("UPCXX_CONDUIT").as_deref() == Ok("proc") {
            "proc"
        } else {
            "smp"
        };

        // Inserts this rank issued to each owner, warm-up included.
        let mut issued = vec![0u64; n];

        // Warm-up round so first-connection costs (proc: socket dials) stay
        // out of the timed window.
        for i in 0..1000u64 {
            let k = mix(me as u64 * 1_000_003 + i);
            let owner = (k % n as u64) as usize;
            upcxx::rpc_ff(owner, insert, (k, 0));
            issued[owner] += 1;
        }
        upcxx::flush_all();
        upcxx::barrier();

        let t0 = Instant::now();
        for i in 0..INSERTS as u64 {
            let k = mix(me as u64 * 7_000_007 + i);
            let owner = (k % n as u64) as usize;
            upcxx::rpc_ff(owner, insert, (k, 1));
            issued[owner] += 1;
        }
        upcxx::flush_all();
        // A barrier does not promise that earlier rpc_ffs have run: each
        // owner waits, making progress, until it has applied every insert
        // the world issued to it.
        let expected = upcxx::reduce_all(issued, add_counts).wait()[me];
        upcxx::wait_until(|| applied() >= expected || t0.elapsed() > DRAIN_LIMIT);
        assert_eq!(applied(), expected, "lost inserts");
        upcxx::barrier();
        let elapsed = t0.elapsed();

        // Correctness: the world-wide sum of stored values must equal the
        // number of timed inserts.
        let mine = total(());
        let grand = upcxx::reduce_all(mine, upcxx::ops::add_u64).wait();
        assert_eq!(grand, (n * INSERTS) as u64, "lost inserts");

        if me == 0 {
            let total_inserts = n * INSERTS;
            let per_sec = total_inserts as f64 / elapsed.as_secs_f64();
            println!(
                "bench_proc [{conduit}]: {n} ranks x {INSERTS} inserts in {:.1} ms -> {:.0} inserts/s",
                elapsed.as_secs_f64() * 1e3,
                per_sec
            );
            if std::path::Path::new("results").is_dir() && conduit == "proc" {
                let json = format!(
                    "{{\n  \"description\": \"Cross-process DHT insert throughput (proc conduit acceptance): every rank rpc_ff-inserts {INSERTS} hashed keys into a distributed hash table, flush + barrier bracketed; aggregate inserts/s as timed by rank 0. cargo run --release --example bench_proc with UPCXX_CONDUIT=proc.\",\n  \"machine\": \"this container (1 vCPU; ranks are real OS processes over shm segments + Unix-domain sockets)\",\n  \"unit\": \"inserts/s\",\n  \"results\": {{\n    \"conduit\": \"{conduit}\",\n    \"ranks\": {n},\n    \"inserts_per_rank\": {INSERTS},\n    \"elapsed_ms\": {:.1},\n    \"inserts_per_sec\": {:.0}\n  }}\n}}\n",
                    elapsed.as_secs_f64() * 1e3,
                    per_sec
                );
                std::fs::write("results/BENCH_proc.json", json).expect("write BENCH_proc.json");
                println!("bench_proc: wrote results/BENCH_proc.json");
            }
        }
        upcxx::barrier();
    });
}
