//! The **sim conduit**: every rank is an actor on a discrete-event simulator.
//!
//! The paper's headline scaling results use up to 34816 processes — far more
//! than one OS thread each on a laptop. This conduit multiplexes all ranks on
//! one thread under virtual time ([`pgas_des::SharedSim`]) and charges
//! communication costs through the Aries-like [`netsim::Machine`]:
//!
//! * software (CPU) costs — injection overheads, AM dispatch, handler
//!   execution, application compute — serialize on each rank's
//!   [`pgas_des::CpuClock`], so an inattentive rank (one busy computing)
//!   delays incoming RPC execution exactly as §III of the paper describes;
//! * wire costs — NIC gaps, per-byte time, latency, per-node injection
//!   contention — come from the network model.
//!
//! Rank programs are written in the continuation style (the `upcxx` crate's
//! futures/`then` chains); blocking `wait()` is a spin on progress and only
//! exists on the smp conduit. Segments are real memory here too: an `rput`
//! truly lands bytes in the target rank's segment at the modeled delivery
//! time, so large-scale simulations still check data correctness, not just
//! timing.
//!
//! ## Execution-time approximation
//!
//! A delivered item runs *at its delivery event* in simulator order, with its
//! CPU charges folded into the rank clock (`rank_now` reflects them). Two
//! items for the same rank can therefore execute in arrival order even when
//! the charged windows would interleave with other arrivals. This is the
//! standard activity-scan approximation; it preserves per-rank serialization
//! and all cross-rank causality (outgoing messages are stamped with the
//! post-charge clock).

use crate::Rank;
use netsim::{Machine, MachineConfig};
use pgas_des::{CpuClock, SharedSim, Time};
use std::cell::RefCell;
use std::rc::Rc;

/// A unit of work delivered to a simulated rank. Unlike the cross-thread
/// [`Item`], sim items never change threads, so they need not be `Send` —
/// drivers may capture the [`SimWorld`] handle directly. `Send` closures
/// coerce into this type, so runtime code shared with the smp conduit works
/// unchanged.
pub type LocalItem = Box<dyn FnOnce()>;

/// Wrapper installed by the `upcxx` runtime to establish the acting rank's
/// thread-local context around item execution.
pub type ExecWrapper = Rc<dyn Fn(Rank, LocalItem)>;

/// The atomic operations the simulated NIC can execute (the subset of the
/// Aries AMO set that the `upcxx` atomics domain exposes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmoOp {
    /// Fetch the old value, add the operand.
    FetchAdd,
    /// Unconditionally store the operand (returns the old value).
    Store,
    /// Pure read.
    Load,
    /// Store the operand iff the current value equals `compare`.
    CompareExchange,
}

thread_local! {
    static CURRENT: RefCell<Option<(SimWorld, Rank)>> = const { RefCell::new(None) };
}

/// The world and rank whose item is currently executing on this thread, if
/// any. Items are `Send` closures and thus cannot capture the (`Rc`-based)
/// world handle; they reach back to the simulation through this accessor —
/// the same pattern the `upcxx` runtime uses to find its rank context.
pub fn current() -> Option<(SimWorld, Rank)> {
    CURRENT.with(|c| c.borrow().clone())
}

struct RankState {
    cpu: CpuClock,
    items_run: u64,
    /// Virtual time deliveries to this rank spent parked behind a busy CPU
    /// (the conduit-level cost of inattentiveness; the per-hop waits
    /// telescope to the true arrival-to-execution delay).
    deferred: Time,
}

struct Inner {
    machine: Machine,
    ranks: Vec<RankState>,
    exec: Option<ExecWrapper>,
}

struct WorldInner {
    sim: SharedSim,
    cfg: MachineConfig,
    seg_size: usize,
    segs: Vec<RefCell<Box<[u8]>>>,
    st: RefCell<Inner>,
}

/// A simulated PGAS world. Cloning the handle is cheap; all clones share the
/// same simulation. Single-threaded by construction (`!Send`).
#[derive(Clone)]
pub struct SimWorld(Rc<WorldInner>);

impl SimWorld {
    /// Create a world of `n_ranks` ranks on the given machine, each with a
    /// `seg_size`-byte shared segment.
    pub fn new(cfg: MachineConfig, n_ranks: usize, seg_size: usize) -> SimWorld {
        let machine = Machine::new(cfg.clone(), n_ranks);
        let cpu_factor = cfg.cpu_factor;
        SimWorld(Rc::new(WorldInner {
            sim: SharedSim::new(),
            cfg,
            seg_size,
            segs: (0..n_ranks)
                .map(|_| RefCell::new(vec![0u8; seg_size].into_boxed_slice()))
                .collect(),
            st: RefCell::new(Inner {
                machine,
                ranks: (0..n_ranks)
                    .map(|_| RankState {
                        cpu: CpuClock::new(cpu_factor),
                        items_run: 0,
                        deferred: Time::ZERO,
                    })
                    .collect(),
                exec: None,
            }),
        }))
    }

    /// World size.
    pub fn rank_n(&self) -> usize {
        self.0.segs.len()
    }
    /// Segment size per rank.
    pub fn seg_size(&self) -> usize {
        self.0.seg_size
    }
    /// The machine configuration (for software-cost constants).
    pub fn config(&self) -> &MachineConfig {
        &self.0.cfg
    }
    /// Current global virtual time.
    pub fn now(&self) -> Time {
        self.0.sim.now()
    }
    /// Total simulation events executed.
    pub fn events_executed(&self) -> u64 {
        self.0.sim.events_executed()
    }
    /// Messages routed by the network model so far.
    pub fn msg_count(&self) -> u64 {
        self.0.st.borrow().machine.msg_count()
    }
    /// Items executed by `rank` so far.
    pub fn items_run(&self, rank: Rank) -> u64 {
        self.0.st.borrow().ranks[rank].items_run
    }

    /// Install the execution wrapper (the `upcxx` runtime's context switch).
    pub fn set_exec_wrapper(&self, w: ExecWrapper) {
        self.0.st.borrow_mut().exec = Some(w);
    }

    /// `rank`'s local view of time: the later of global time and the moment
    /// its CPU becomes free. Outgoing operations are stamped with this.
    pub fn rank_now(&self, rank: Rank) -> Time {
        self.0.st.borrow().ranks[rank]
            .cpu
            .free_at()
            .max(self.0.sim.now())
    }

    /// Busy time accumulated by `rank`'s CPU.
    pub fn rank_busy(&self, rank: Rank) -> Time {
        self.0.st.borrow().ranks[rank].cpu.busy_total()
    }

    /// Total virtual time deliveries to `rank` spent waiting for its busy
    /// CPU before executing — the conduit's view of how much incoming work
    /// an inattentive rank delayed (§III).
    pub fn rank_deferred(&self, rank: Rank) -> Time {
        self.0.st.borrow().ranks[rank].deferred
    }

    /// Queue-occupancy probe matching [`crate::Conduit::depths`] so the
    /// observability layer reports all conduits uniformly. The sim conduit
    /// executes deliveries at their arrival events (inattentiveness is
    /// modeled as deferred *time*, [`Self::rank_deferred`], not queued
    /// entries), so every depth is legitimately zero.
    pub fn depths(&self, _rank: Rank) -> crate::ConduitDepths {
        crate::ConduitDepths::default()
    }

    /// Charge `cost` of CPU work to `rank` (scaled by the machine's CPU
    /// factor), starting no earlier than now. Returns the completion time.
    pub fn charge(&self, rank: Rank, cost: Time) -> Time {
        let now = self.0.sim.now();
        self.0.st.borrow_mut().ranks[rank].cpu.charge(now, cost)
    }

    /// Model application compute on `rank` (alias of [`charge`](Self::charge),
    /// named for driver readability).
    pub fn compute(&self, rank: Rank, cost: Time) -> Time {
        self.charge(rank, cost)
    }

    /// Schedule `item` to execute on `rank` at absolute time `at` (or when the
    /// rank's CPU frees up, whichever is later). Used to start rank drivers.
    pub fn spawn_at(&self, rank: Rank, at: Time, item: LocalItem) {
        let w = self.clone();
        self.0
            .sim
            .schedule_at(at, Box::new(move || w.deliver(rank, item, Time::ZERO)));
    }

    /// Read `len` bytes from `rank`'s segment at `off` (instantaneous; local
    /// accesses and handler-side accumulation use this).
    pub fn seg_read(&self, rank: Rank, off: usize, dst: &mut [u8]) {
        let seg = self.0.segs[rank].borrow();
        let end = off.checked_add(dst.len()).expect("offset overflow");
        assert!(end <= seg.len(), "seg_read out of bounds");
        dst.copy_from_slice(&seg[off..end]);
    }

    /// Write bytes into `rank`'s segment at `off` (instantaneous).
    pub fn seg_write(&self, rank: Rank, off: usize, src: &[u8]) {
        let mut seg = self.0.segs[rank].borrow_mut();
        let end = off.checked_add(src.len()).expect("offset overflow");
        assert!(end <= seg.len(), "seg_write out of bounds");
        seg[off..end].copy_from_slice(src);
    }

    /// Fill `len` bytes of `rank`'s segment at `off` with `byte`
    /// (instantaneous; the sanitizer's quarantine poisoning).
    pub fn seg_fill(&self, rank: Rank, off: usize, len: usize, byte: u8) {
        let mut seg = self.0.segs[rank].borrow_mut();
        let end = off.checked_add(len).expect("offset overflow");
        assert!(end <= seg.len(), "seg_fill out of bounds");
        seg[off..end].fill(byte);
    }

    /// Run a closure with mutable access to a window of `rank`'s segment
    /// (zero-copy accumulate for the extend-add motif).
    pub fn seg_with_mut<R>(
        &self,
        rank: Rank,
        off: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        let mut seg = self.0.segs[rank].borrow_mut();
        let end = off.checked_add(len).expect("offset overflow");
        assert!(end <= seg.len(), "seg_with_mut out of bounds");
        f(&mut seg[off..end])
    }

    /// One-sided put from `src_rank`: lands `data` in `dst_rank`'s segment at
    /// the modeled delivery time; `on_done` runs on `src_rank` when the
    /// remote-completion acknowledgment returns (this is what a blocking
    /// `rput().wait()` observes). `o_inject` is the initiator software cost.
    pub fn put(
        &self,
        src_rank: Rank,
        dst_rank: Rank,
        dst_off: usize,
        data: Vec<u8>,
        o_inject: Time,
        on_done: LocalItem,
    ) {
        let (arrive, _txd) = {
            let mut st = self.0.st.borrow_mut();
            let now = self.0.sim.now();
            let ready = st.ranks[src_rank].cpu.charge(now, o_inject);
            let d = st.machine.transfer(src_rank, dst_rank, data.len(), ready);
            (d.arrive, d.tx_done)
        };
        let w = self.clone();
        self.0.sim.schedule_at(
            arrive,
            Box::new(move || {
                w.seg_write(dst_rank, dst_off, &data);
                // Remote completion ack back to the initiator (NIC-level).
                let ack_at = w.0.st.borrow_mut().machine.ack(dst_rank, src_rank, arrive);
                let w2 = w.clone();
                w.0.sim.schedule_at(
                    ack_at,
                    Box::new(move || w2.deliver(src_rank, on_done, Time::ZERO)),
                );
            }),
        );
    }

    /// One-sided get: `src_rank` requests `len` bytes at `src_off` from
    /// `target`; `on_done` runs on `src_rank` with the data when it arrives.
    /// Pure RDMA — no target CPU involvement.
    pub fn get(
        &self,
        src_rank: Rank,
        target: Rank,
        src_off: usize,
        len: usize,
        o_inject: Time,
        on_done: Box<dyn FnOnce(Vec<u8>)>,
    ) {
        let req_arrive = {
            let mut st = self.0.st.borrow_mut();
            let now = self.0.sim.now();
            let ready = st.ranks[src_rank].cpu.charge(now, o_inject);
            // 16-byte descriptor to the target NIC.
            st.machine.transfer(src_rank, target, 16, ready).arrive
        };
        let w = self.clone();
        self.0.sim.schedule_at(
            req_arrive,
            Box::new(move || {
                let mut data = vec![0u8; len];
                w.seg_read(target, src_off, &mut data);
                let back = {
                    let mut st = w.0.st.borrow_mut();
                    st.machine
                        .transfer(target, src_rank, len, req_arrive)
                        .arrive
                };
                let w2 = w.clone();
                w.0.sim.schedule_at(
                    back,
                    Box::new(move || {
                        w2.deliver(src_rank, Box::new(move || on_done(data)), Time::ZERO)
                    }),
                );
            }),
        );
    }

    /// Remote atomic on a `u64` in `target`'s segment (8-byte aligned `off`),
    /// modeling Aries NIC offload: the operation applies at the target NIC at
    /// delivery time with **no target CPU involvement** (the paper highlights
    /// this offload as the scalability win for remote atomics), and the prior
    /// value returns to the initiator, where `on_done` receives it.
    #[allow(clippy::too_many_arguments)] // mirrors the conduit AMO signature
    pub fn amo(
        &self,
        src_rank: Rank,
        target: Rank,
        off: usize,
        op: AmoOp,
        operand: u64,
        compare: u64,
        o_inject: Time,
        on_done: Box<dyn FnOnce(u64)>,
    ) {
        assert_eq!(off % 8, 0, "atomic offset must be 8-byte aligned");
        let arrive = {
            let mut st = self.0.st.borrow_mut();
            let now = self.0.sim.now();
            let ready = st.ranks[src_rank].cpu.charge(now, o_inject);
            // AMO rides a small command packet.
            st.machine.transfer(src_rank, target, 16, ready).arrive
        };
        let w = self.clone();
        self.0.sim.schedule_at(
            arrive,
            Box::new(move || {
                let mut word = [0u8; 8];
                w.seg_read(target, off, &mut word);
                let old = u64::from_le_bytes(word);
                let new = match op {
                    AmoOp::FetchAdd => old.wrapping_add(operand),
                    AmoOp::Store => operand,
                    AmoOp::Load => old,
                    AmoOp::CompareExchange => {
                        if old == compare {
                            operand
                        } else {
                            old
                        }
                    }
                };
                w.seg_write(target, off, &new.to_le_bytes());
                // Result returns as a NIC-level reply.
                let back = w.0.st.borrow_mut().machine.ack(target, src_rank, arrive);
                let w2 = w.clone();
                w.0.sim.schedule_at(
                    back,
                    Box::new(move || {
                        w2.deliver(src_rank, Box::new(move || on_done(old)), Time::ZERO)
                    }),
                );
            }),
        );
    }

    /// Active message: run `item` on `target` after a modeled transfer of
    /// `payload_bytes`. `o_inject` is the initiator software cost;
    /// the dispatch cost at the target comes from the machine config.
    /// The `upcxx` aggregation layer ships a batch through here as one item
    /// running all its members: the whole batch pays a single injection, a
    /// single transfer and a single dispatch — the per-message amortization
    /// it models — and counts as one delivered item in `items_run`.
    pub fn am(
        &self,
        src_rank: Rank,
        target: Rank,
        payload_bytes: usize,
        o_inject: Time,
        item: LocalItem,
    ) {
        let arrive = {
            let mut st = self.0.st.borrow_mut();
            let now = self.0.sim.now();
            let ready = st.ranks[src_rank].cpu.charge(now, o_inject);
            st.machine
                .transfer(src_rank, target, payload_bytes, ready)
                .arrive
        };
        let dispatch = self.0.cfg.sw.gex_am_dispatch;
        let w = self.clone();
        self.0
            .sim
            .schedule_at(arrive, Box::new(move || w.deliver(target, item, dispatch)));
    }

    /// Schedule `item` to run on `rank` after a virtual delay (a pure
    /// timer: models pipelined internal latencies such as an MPI progress
    /// hop; charges no CPU by itself).
    pub fn after(&self, rank: Rank, delay: Time, item: LocalItem) {
        let w = self.clone();
        self.0
            .sim
            .schedule_after(delay, Box::new(move || w.deliver(rank, item, Time::ZERO)));
    }

    /// Run all scheduled activity to quiescence; returns final virtual time.
    pub fn run(&self) -> Time {
        self.0.sim.run()
    }

    /// Run until `deadline` (events beyond it stay queued).
    pub fn run_until(&self, deadline: Time) -> Time {
        self.0.sim.run_until(deadline)
    }

    /// Execute `item` on `rank`: if the rank's CPU is busy (computing, or
    /// still working through earlier deliveries), defer to the moment it
    /// frees — this is the paper's *attentiveness*: an inattentive rank
    /// executes incoming work late, and every timestamp observed inside the
    /// item reflects that. When the CPU is free, charge the dispatch cost
    /// and run under the exec wrapper (so the `upcxx` context is installed)
    /// with [`current`] pointing at this world and rank.
    fn deliver(&self, rank: Rank, item: LocalItem, dispatch_cost: Time) {
        let free_at = self.0.st.borrow().ranks[rank].cpu.free_at();
        let now = self.0.sim.now();
        if free_at > now {
            // Account the wait: successive hops telescope to the full
            // arrival-to-execution delay this delivery experienced.
            {
                let mut st = self.0.st.borrow_mut();
                let d = st.ranks[rank].deferred;
                st.ranks[rank].deferred = d + free_at.saturating_sub(now);
            }
            let w = self.clone();
            self.0.sim.schedule_at(
                free_at,
                Box::new(move || w.deliver(rank, item, dispatch_cost)),
            );
            return;
        }
        let exec = {
            let mut st = self.0.st.borrow_mut();
            st.ranks[rank].cpu.charge(now, dispatch_cost);
            st.ranks[rank].items_run += 1;
            st.exec.clone()
        };
        let prev = CURRENT.with(|c| c.borrow_mut().replace((self.clone(), rank)));
        match exec {
            Some(w) => w(rank, item),
            None => item(),
        }
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    fn world(n: usize) -> SimWorld {
        SimWorld::new(MachineConfig::test_2x4(), n, 1 << 16)
    }

    /// Virtual "now" observed from inside an item (items are Send and reach
    /// the world through the thread-local accessor).
    fn now_ps() -> u64 {
        let (w, _) = current().expect("not inside an item");
        w.now().as_ps()
    }

    #[test]
    fn put_lands_data_and_completes() {
        let w = world(8);
        let done_at = Arc::new(AtomicU64::new(0));
        let d = done_at.clone();
        let w2 = w.clone();
        w.spawn_at(
            0,
            Time::ZERO,
            Box::new(move || {
                let d2 = d.clone();
                w2.put(
                    0,
                    4, // other node in test_2x4
                    64,
                    vec![7u8; 32],
                    Time::from_ns(100),
                    Box::new(move || d2.store(now_ps(), Ordering::SeqCst)),
                );
            }),
        );
        w.run();
        let mut out = vec![0u8; 32];
        w.seg_read(4, 64, &mut out);
        assert_eq!(out, vec![7u8; 32]);
        // Completion requires inject + transfer + ack; must exceed 2x latency.
        let done = Time::from_ps(done_at.load(Ordering::SeqCst));
        assert!(done > Time::from_ns(2000), "done at {done}");
    }

    #[test]
    fn intra_node_put_is_faster_than_inter_node() {
        let timed_put = |dst: Rank| {
            let w = world(8);
            let t = Arc::new(AtomicU64::new(0));
            let t2 = t.clone();
            let w2 = w.clone();
            w.spawn_at(
                0,
                Time::ZERO,
                Box::new(move || {
                    let t3 = t2.clone();
                    w2.put(
                        0,
                        dst,
                        0,
                        vec![1u8; 8],
                        Time::from_ns(100),
                        Box::new(move || t3.store(now_ps(), Ordering::SeqCst)),
                    );
                }),
            );
            w.run();
            t.load(Ordering::SeqCst)
        };
        assert!(timed_put(1) < timed_put(4));
    }

    #[test]
    fn get_returns_remote_bytes() {
        let w = world(8);
        w.seg_write(5, 100, &[9, 8, 7, 6]);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        let w2 = w.clone();
        w.spawn_at(
            0,
            Time::ZERO,
            Box::new(move || {
                let g2 = g.clone();
                w2.get(
                    0,
                    5,
                    100,
                    4,
                    Time::from_ns(100),
                    Box::new(move |data| *g2.lock().unwrap() = data),
                );
            }),
        );
        w.run();
        assert_eq!(*got.lock().unwrap(), vec![9, 8, 7, 6]);
    }

    #[test]
    fn am_runs_on_target_with_dispatch_cost() {
        let w = world(8);
        let ran = Arc::new(AtomicBool::new(false));
        let r = ran.clone();
        let w2 = w.clone();
        w.spawn_at(
            0,
            Time::ZERO,
            Box::new(move || {
                let r2 = r.clone();
                w2.am(
                    0,
                    4,
                    64,
                    Time::from_ns(200),
                    Box::new(move || {
                        let (_, rank) = current().unwrap();
                        assert_eq!(rank, 4);
                        r2.store(true, Ordering::SeqCst);
                    }),
                );
            }),
        );
        w.run();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(w.items_run(4), 1);
        assert!(w.rank_busy(4) >= w.config().sw.gex_am_dispatch);
    }

    #[test]
    fn busy_rank_delays_item_execution() {
        // Attentiveness: rank 4 computes for 1ms; an AM arriving meanwhile
        // must not run until the compute window ends.
        let w = world(8);
        let exec_time = Arc::new(AtomicU64::new(0));
        {
            let w2 = w.clone();
            w.spawn_at(
                4,
                Time::ZERO,
                Box::new(move || {
                    w2.compute(4, Time::from_ms(1));
                }),
            );
        }
        {
            let w2 = w.clone();
            let et = exec_time.clone();
            w.spawn_at(
                0,
                Time::ZERO,
                Box::new(move || {
                    let et2 = et.clone();
                    w2.am(
                        0,
                        4,
                        8,
                        Time::from_ns(100),
                        Box::new(move || {
                            let (world, rank) = current().unwrap();
                            et2.store(world.rank_now(rank).as_ps(), Ordering::SeqCst);
                        }),
                    );
                }),
            );
        }
        w.run();
        let t = Time::from_ps(exec_time.load(Ordering::SeqCst));
        assert!(
            t >= Time::from_ms(1),
            "AM ran at {t} during the compute window"
        );
    }

    #[test]
    fn injections_serialize_on_source_cpu() {
        // Two puts issued back-to-back: completion of the second reflects the
        // serialized injection overheads.
        let w = world(8);
        let t1 = Arc::new(AtomicU64::new(0));
        let t2 = Arc::new(AtomicU64::new(0));
        let (a, b) = (t1.clone(), t2.clone());
        let w2 = w.clone();
        w.spawn_at(
            0,
            Time::ZERO,
            Box::new(move || {
                let a2 = a.clone();
                w2.put(
                    0,
                    4,
                    0,
                    vec![0; 8],
                    Time::from_us(1),
                    Box::new(move || a2.store(now_ps(), Ordering::SeqCst)),
                );
                let b2 = b.clone();
                w2.put(
                    0,
                    4,
                    8,
                    vec![0; 8],
                    Time::from_us(1),
                    Box::new(move || b2.store(now_ps(), Ordering::SeqCst)),
                );
            }),
        );
        w.run();
        let (ta, tb) = (
            Time::from_ps(t1.load(Ordering::SeqCst)),
            Time::from_ps(t2.load(Ordering::SeqCst)),
        );
        assert!(
            tb >= ta + Time::from_us(1) - Time::from_ns(1),
            "ta={ta} tb={tb}"
        );
    }

    #[test]
    fn exec_wrapper_sees_every_item() {
        let w = world(4);
        let wrapped = Arc::new(AtomicU64::new(0));
        let wr = wrapped.clone();
        w.set_exec_wrapper(Rc::new(move |_rank, item| {
            wr.fetch_add(1, Ordering::SeqCst);
            item();
        }));
        let w2 = w.clone();
        w.spawn_at(
            0,
            Time::ZERO,
            Box::new(move || {
                w2.am(0, 1, 8, Time::ZERO, Box::new(|| {}));
            }),
        );
        w.run();
        // Both the spawned driver and the delivered AM go through the wrapper.
        assert_eq!(wrapped.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn knl_charges_scale_with_cpu_factor() {
        let w = SimWorld::new(MachineConfig::cori_knl(), 4, 1 << 12);
        w.charge(0, Time::from_ns(100));
        assert_eq!(w.rank_busy(0), Time::from_ns(280));
    }

    #[test]
    fn deterministic_final_time() {
        let run_once = || {
            let w = world(8);
            for r in 0..8 {
                let w2 = w.clone();
                w.spawn_at(
                    r,
                    Time::ZERO,
                    Box::new(move || {
                        for i in 0..20usize {
                            let dst = (r + i) % 8;
                            w2.put(
                                r,
                                dst,
                                i * 8,
                                vec![r as u8; 8],
                                Time::from_ns(150),
                                Box::new(|| {}),
                            );
                        }
                    }),
                );
            }
            w.run()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn seg_write_bounds_checked() {
        let w = world(2);
        w.seg_write(0, (1 << 16) - 4, &[0u8; 8]);
    }

    #[test]
    fn current_is_scoped_to_item_execution() {
        assert!(current().is_none());
        let w = world(2);
        let w2 = w.clone();
        w.spawn_at(
            1,
            Time::ZERO,
            Box::new(move || {
                let (world, rank) = current().expect("inside an item");
                assert_eq!(rank, 1);
                assert_eq!(world.rank_n(), 2);
                let _ = w2.rank_n();
            }),
        );
        w.run();
        assert!(current().is_none());
    }
}
