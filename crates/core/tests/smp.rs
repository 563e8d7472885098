//! Integration tests of the full UPC++ API over the smp conduit (real
//! threads, real memory). Each test spins up a small SPMD world; patterns
//! mirror the paper's listings (DHT insert chain, flood promises, Fig. 7
//! conjunction loops).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn rput_rget_roundtrip() {
    upcxx::run_spmd_default(2, || {
        let me = upcxx::rank_me();
        let slot = upcxx::allocate::<u64>(8);
        let slots = upcxx::allgather(slot);
        if me == 0 {
            let data: Vec<u64> = (0..8).map(|i| i * 7).collect();
            upcxx::rput(&data, slots[1]).wait();
            let back = upcxx::rget(slots[1], 8).wait();
            assert_eq!(back, data);
        }
        upcxx::barrier();
    });
}

#[test]
fn rput_val_visible_after_barrier() {
    upcxx::run_spmd_default(4, || {
        let me = upcxx::rank_me();
        let n = upcxx::rank_n();
        let slot = upcxx::allocate::<u64>(1);
        let slots = upcxx::allgather(slot);
        upcxx::rput_val(me as u64 + 100, slots[(me + 1) % n]).wait();
        upcxx::barrier();
        assert_eq!(
            slot.try_local_value(),
            Some(((me + n - 1) % n) as u64 + 100)
        );
        upcxx::barrier();
    });
}

fn double_it(x: u64) -> u64 {
    x * 2
}

#[test]
fn rpc_returns_value() {
    upcxx::run_spmd_default(2, || {
        if upcxx::rank_me() == 0 {
            let got = upcxx::rpc(1, double_it, 21u64).wait();
            assert_eq!(got, 42);
        }
        upcxx::barrier();
    });
}

fn whoami(_: ()) -> u64 {
    upcxx::rank_me() as u64
}

#[test]
fn rpc_executes_on_target_rank() {
    upcxx::run_spmd_default(4, || {
        let me = upcxx::rank_me();
        let n = upcxx::rank_n();
        for dst in 0..n {
            if dst != me {
                assert_eq!(upcxx::rpc(dst, whoami, ()).wait(), dst as u64);
            }
        }
        upcxx::barrier();
    });
}

type LocalMap = RefCell<HashMap<u64, Vec<u8>>>;

fn map_insert(args: (u64, Vec<u8>)) {
    let map = upcxx::rank_state::<LocalMap>(|| RefCell::new(HashMap::new()));
    map.borrow_mut().insert(args.0, args.1);
}

fn map_find(key: u64) -> Option<Vec<u8>> {
    let map = upcxx::rank_state::<LocalMap>(|| RefCell::new(HashMap::new()));
    let v = map.borrow().get(&key).cloned();
    v
}

#[test]
fn rpc_hash_table_pattern() {
    // The paper's §IV-C RPC-only DHT insert/find, distilled.
    upcxx::run_spmd_default(4, || {
        let me = upcxx::rank_me();
        let n = upcxx::rank_n();
        let key = me as u64 * 1000;
        let target = (key as usize) % n;
        upcxx::rpc(target, map_insert, (key, vec![me as u8; 16])).wait();
        upcxx::barrier();
        let found = upcxx::rpc(target, map_find, key).wait();
        assert_eq!(found, Some(vec![me as u8; 16]));
        let missing = upcxx::rpc(target, map_find, key + 1).wait();
        assert_eq!(missing, None);
        upcxx::barrier();
    });
}

fn make_lz(len: usize) -> upcxx::GlobalPtr<u8> {
    upcxx::allocate::<u8>(len)
}

#[test]
fn dht_landing_zone_chain() {
    // The paper's RMA-enabled insert: RPC for the landing zone, then() chains
    // the rput — the exact future composition of §IV-C.
    upcxx::run_spmd_default(2, || {
        if upcxx::rank_me() == 0 {
            let val = vec![0xabu8; 256];
            let fut =
                upcxx::rpc(1, make_lz, val.len()).then_fut(move |dest| upcxx::rput(&val, dest));
            fut.wait();
        }
        upcxx::barrier();
    });
}

static FF_HITS: AtomicU64 = AtomicU64::new(0);

fn ff_handler(x: u64) {
    FF_HITS.fetch_add(x, Ordering::SeqCst);
}

#[test]
fn rpc_ff_fire_and_forget() {
    FF_HITS.store(0, Ordering::SeqCst);
    upcxx::run_spmd_default(3, || {
        if upcxx::rank_me() != 0 {
            upcxx::rpc_ff(0, ff_handler, upcxx::rank_me() as u64);
        }
        upcxx::barrier();
        if upcxx::rank_me() == 0 {
            // rpc_ff has no ack; the barrier orders delivery here because
            // target progress runs during the barrier spin.
            assert_eq!(FF_HITS.load(Ordering::SeqCst), 1 + 2);
        }
        upcxx::barrier();
    });
}

#[test]
fn promise_counts_flood_of_puts() {
    // The flood-bandwidth idiom from §IV-B: many rputs tracked by one
    // promise, finalized and waited once.
    upcxx::run_spmd_default(2, || {
        if upcxx::rank_me() == 0 {
            let dest = upcxx::rpc(1, make_lz, 8 * 64).wait();
            let dest = dest.cast::<u64>();
            let p = upcxx::Promise::<()>::new();
            for i in 0..64u64 {
                upcxx::rput_promise(&[i], dest.add(i as usize), &p);
                if i % 10 == 0 {
                    upcxx::progress();
                }
            }
            p.finalize().wait();
            let back = upcxx::rget(dest, 64).wait();
            assert_eq!(back, (0..64).collect::<Vec<u64>>());
        }
        upcxx::barrier();
    });
}

#[test]
fn when_all_conjoins_rpcs() {
    upcxx::run_spmd_default(3, || {
        if upcxx::rank_me() == 0 {
            let a = upcxx::rpc(1, double_it, 5u64);
            let b = upcxx::rpc(2, double_it, 7u64);
            let both = upcxx::when_all(&a, &b);
            assert_eq!(both.wait(), (10, 14));
        }
        upcxx::barrier();
    });
}

#[test]
fn conjoin_loop_like_fig7() {
    // f_conj = when_all(f_conj, fut) in a loop, then wait — Fig. 7 lines 5-14.
    upcxx::run_spmd_default(4, || {
        let me = upcxx::rank_me();
        let n = upcxx::rank_n();
        if me == 0 {
            let mut f_conj = upcxx::make_ready_future();
            for dst in 1..n {
                let fut = upcxx::rpc(dst, double_it, dst as u64).ignore();
                f_conj = upcxx::conjoin(&f_conj, &fut);
            }
            f_conj.wait();
        }
        upcxx::barrier();
    });
}

#[test]
fn barrier_orders_one_sided_writes() {
    upcxx::run_spmd_default(8, || {
        let me = upcxx::rank_me();
        let n = upcxx::rank_n();
        let slot = upcxx::allocate::<u64>(n);
        let slots = upcxx::allgather(slot);
        // All-to-all scatter of rank ids by one-sided puts.
        let p = upcxx::Promise::<()>::new();
        for slot in &slots {
            upcxx::rput_promise(&[me as u64], slot.add(me), &p);
        }
        p.finalize().wait();
        upcxx::barrier();
        let mut got = vec![0u64; n];
        slot.local_read(&mut got);
        assert_eq!(got, (0..n as u64).collect::<Vec<u64>>());
        upcxx::barrier();
    });
}

#[test]
fn broadcast_delivers_roots_value() {
    upcxx::run_spmd_default(6, || {
        let me = upcxx::rank_me();
        let v = upcxx::broadcast(
            2,
            if me == 2 {
                Some(String::from("hello"))
            } else {
                None
            },
        )
        .wait();
        assert_eq!(v, "hello");
        upcxx::barrier();
    });
}

#[test]
fn reduce_all_sums_ranks() {
    upcxx::run_spmd_default(7, || {
        let me = upcxx::rank_me() as u64;
        let total = upcxx::reduce_all(me, upcxx::ops::add_u64).wait();
        assert_eq!(total, (0..7).sum::<u64>());
        upcxx::barrier();
    });
}

#[test]
fn reduce_one_at_root() {
    upcxx::run_spmd_default(5, || {
        let me = upcxx::rank_me() as u64;
        let fut = upcxx::reduce_one(3, me + 1, upcxx::ops::add_u64);
        let v = fut.wait();
        if upcxx::rank_me() == 3 {
            assert_eq!(v, (1..=5).sum::<u64>());
        }
        upcxx::barrier();
    });
}

#[test]
fn remote_atomics_sum() {
    upcxx::run_spmd_default(6, || {
        let me = upcxx::rank_me();
        let counter = upcxx::allocate::<u64>(1);
        let counters = upcxx::allgather(counter);
        let ad = upcxx::AtomicDomain::all();
        // Everyone adds into rank 0's counter.
        ad.fetch_add(counters[0], (me + 1) as u64).wait();
        upcxx::barrier();
        if me == 0 {
            assert_eq!(ad.load(counters[0]).wait(), (1..=6).sum::<u64>());
        }
        upcxx::barrier();
    });
}

#[test]
fn atomic_cas_elects_single_winner() {
    upcxx::run_spmd_default(4, || {
        let me = upcxx::rank_me() as u64;
        let word = upcxx::allocate::<u64>(1);
        let words = upcxx::allgather(word);
        let ad = upcxx::AtomicDomain::all();
        let old = ad.compare_exchange(words[0], 0, me + 1).wait();
        upcxx::barrier();
        let winner = ad.load(words[0]).wait();
        if old == 0 {
            // I won; the stored value must be mine.
            assert_eq!(winner, me + 1);
        }
        assert_ne!(winner, 0);
        upcxx::barrier();
    });
}

#[test]
fn strided_put_lands_in_pattern() {
    upcxx::run_spmd_default(2, || {
        if upcxx::rank_me() == 0 {
            let dest = upcxx::rpc(1, make_lz, 8 * 32).wait();
            let dest = dest.cast::<u64>();
            // 4 chunks of 2 elements, source stride 2 (dense), dest stride 8.
            let src: Vec<u64> = (0..8).collect();
            upcxx::rput_strided(&src, 2, dest, 8, 2, 4).wait();
            let all = upcxx::rget(dest, 32).wait();
            for c in 0..4u64 {
                assert_eq!(all[(c * 8) as usize], c * 2);
                assert_eq!(all[(c * 8 + 1) as usize], c * 2 + 1);
            }
        }
        upcxx::barrier();
    });
}

fn sum_view(v: upcxx::View<u64>) -> u64 {
    v.iter().sum()
}

#[test]
fn view_rpc_sums_at_target() {
    upcxx::run_spmd_default(2, || {
        if upcxx::rank_me() == 0 {
            let data: Vec<u64> = (1..=100).collect();
            let s = upcxx::rpc(1, sum_view, upcxx::make_view(&data)).wait();
            assert_eq!(s, 5050);
        }
        upcxx::barrier();
    });
}

#[test]
fn teams_split_even_odd() {
    upcxx::run_spmd_default(6, || {
        let me = upcxx::rank_me();
        let team = upcxx::Team::world().split_by(|r| (r % 2) as u64);
        assert_eq!(team.rank_n(), 3);
        assert_eq!(team.rank_me(), me / 2);
        assert_eq!(team.world_rank(team.rank_me()), me);
        // Team-scoped reduction.
        let sum = upcxx::reduce_all_team(&team, me as u64, upcxx::ops::add_u64).wait();
        let expect: u64 = (0..6u64).filter(|r| *r as usize % 2 == me % 2).sum();
        assert_eq!(sum, expect);
        upcxx::barrier();
    });
}

#[test]
fn team_barrier_works() {
    upcxx::run_spmd_default(4, || {
        let team = upcxx::Team::world().split_by(|r| (r < 2) as u64);
        upcxx::barrier_async_team(&team).wait();
        upcxx::barrier();
    });
}

fn read_dist_counter(c: std::rc::Rc<RefCell<u64>>) -> u64 {
    *c.borrow()
}

#[test]
fn dist_object_fetch() {
    upcxx::run_spmd_default(3, || {
        let me = upcxx::rank_me() as u64;
        let obj = upcxx::DistObject::new(RefCell::new(me * 11));
        upcxx::barrier(); // ensure all representatives exist
        let v = obj
            .fetch_map((upcxx::rank_me() + 1) % 3, read_dist_counter)
            .wait();
        assert_eq!(v, (((upcxx::rank_me() + 1) % 3) as u64) * 11);
        upcxx::barrier();
    });
}

#[test]
fn global_ptr_arithmetic_and_locality() {
    upcxx::run_spmd_default(2, || {
        let p = upcxx::allocate::<u64>(10);
        assert!(p.is_local());
        let q = p.add(3);
        assert_eq!(q.elems_from(&p), 3);
        assert_eq!(q.offset_elems(-3), p);
        assert_eq!(q.rank(), upcxx::rank_me());
        p.local_write(&(0..10u64).collect::<Vec<_>>());
        let mut out = vec![0u64; 10];
        p.local_read(&mut out);
        assert_eq!(out[9], 9);
        upcxx::deallocate(p);
        upcxx::barrier();
    });
}

#[test]
fn rget_irregular_gathers_chunks() {
    upcxx::run_spmd_default(2, || {
        if upcxx::rank_me() == 0 {
            let dest = upcxx::rpc(1, make_lz, 8 * 16).wait();
            let dest = dest.cast::<u64>();
            upcxx::rput(&(0..16u64).collect::<Vec<_>>(), dest).wait();
            let parts = upcxx::rget_irregular(&[(dest, 2), (dest.add(8), 3)]).wait();
            assert_eq!(parts, vec![vec![0, 1], vec![8, 9, 10]]);
        }
        upcxx::barrier();
    });
}

#[test]
fn single_rank_world_works() {
    upcxx::run_spmd_default(1, || {
        let p = upcxx::allocate::<u64>(4);
        upcxx::rput(&[9, 9, 9, 9], p).wait();
        assert_eq!(upcxx::rget(p, 4).wait(), vec![9; 4]);
        assert_eq!(upcxx::reduce_all(5u64, upcxx::ops::add_u64).wait(), 5);
        upcxx::barrier();
    });
}

/// What rank 0's failed barrier said, for the test below.
static DEAD_PEER_MSG: std::sync::Mutex<String> = std::sync::Mutex::new(String::new());

#[test]
fn panicking_rank_fails_peer_barrier_instead_of_hanging() {
    // Rank 1 panics before the barrier rank 0 waits in. Rank 0's wait must
    // panic, naming rank 1, and the world must fail. The world runs on a
    // helper thread with a deadline, so a hang fails this test instead of
    // stalling the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let world = std::thread::spawn(move || {
        let r = std::panic::catch_unwind(|| {
            upcxx::run_spmd_default(2, || {
                if upcxx::rank_me() == 1 {
                    panic!("rank 1 failing on purpose");
                }
                let err = std::panic::catch_unwind(upcxx::barrier)
                    .expect_err("a barrier with a dead peer must fail");
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                *DEAD_PEER_MSG.lock().unwrap() = msg;
            });
        });
        let _ = tx.send(r.is_err());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(failed) => assert!(failed, "a world with a panicked rank must fail"),
        Err(_) => panic!("barrier on a dead rank still blocked after 10 s"),
    }
    world
        .join()
        .expect("helper thread catches the world's panic");
    let msg = DEAD_PEER_MSG.lock().unwrap().clone();
    assert!(msg.contains("rank 1 panicked"), "{msg:?}");
}
