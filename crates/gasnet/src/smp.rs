//! The **smp conduit**: one OS thread per rank inside a single process.
//!
//! This is the "real" conduit. Shared segments are genuine memory; an
//! [`RankHandle::put_bytes`] is a true one-sided copy performed by the
//! initiating thread with no target involvement (exactly the RDMA semantics
//! GASNet-EX exposes on Aries); active messages travel through lock-free
//! MPSC inboxes and execute on the target thread only when it polls — so the
//! paper's *attentiveness* requirement (§III) is physically real here: a rank
//! that stops polling stops executing incoming RPCs.
//!
//! # Memory model and safety
//!
//! PGAS semantics place shared-segment bytes outside Rust's aliasing
//! guarantees: any rank may read or write any segment at any time, and
//! synchronization is the *application's* job (the paper says the same of
//! UPC++ global pointers — "references made via global pointers may be
//! subject to race conditions"). We therefore treat segment memory the way an
//! RDMA NIC does: raw bytes accessed through `unsafe` copies that are
//! bounds-checked (so runtime state can never be corrupted) but not
//! race-checked. The public `upcxx` crate documents the synchronization
//! contract; all tests and examples synchronize through futures/RPC replies
//! like real UPC++ programs do.

use crate::{Am, AmMode, Batch, Item, Rank};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A node of the lock-free push list. An aggregated batch is one item that
/// runs all its members, so it travels as one node like any other AM.
struct Node {
    item: Item,
    next: *mut Node,
}

/// An MPSC inbox of deliverable items: many ranks push, the owner pops from
/// its own inbox during progress. Lock-free with std atomics only (the
/// workspace is hermetic): producers push onto a Treiber-style LIFO list
/// with one CAS; the single consumer takes the whole list with one `swap`
/// and reverses it into a private FIFO stash. The stash refills **only when
/// empty** — entries still on the shared list are always newer than
/// everything stashed, so arrival order per producer is preserved. The
/// atomic length keeps emptiness probes O(1) and lets the drain return
/// without touching the contended head in the common empty case; like the
/// previous mutex design it is a racy hint, never a synchronization point.
///
/// Cache-line aligned, so the `head`/`len` words that other ranks' sends
/// write never share a line with a neighbouring rank's inbox.
#[repr(align(64))]
struct Inbox {
    head: AtomicPtr<Node>,
    len: AtomicU64,
    /// Consumer-private reversal stash — the *serialized-consumer* contract
    /// of [`Inbox::pop_n`]: at most one thread may be draining this inbox at
    /// a time, and consecutive drains from different threads must be ordered
    /// by a happens-before edge. `RankHandle::poll` only drains `self.me`'s
    /// inbox; when a layer above polls the same rank from a second thread
    /// (the `upcxx` runtime's opt-in progress thread does), that layer must
    /// hold its per-rank serialization lock around `poll`, which provides
    /// both the mutual exclusion and the ordering the stash needs.
    stash: UnsafeCell<Vec<Item>>,
    /// Consumer-private drain buffer of [`RankHandle::poll`], kept between
    /// polls so a non-empty poll allocates nothing. Same serialized-consumer
    /// contract as `stash`.
    drained: UnsafeCell<Vec<Item>>,
}

// SAFETY: `head` and `len` are atomics; `stash` and `drained` are accessed
// only under the serialized-consumer contract above (one draining thread at
// a time, drains ordered by the caller's lock when threads alternate). List nodes are
// heap allocations handed off through the atomic head with Release/Acquire
// pairing, so the consumer sees fully-written nodes.
unsafe impl Send for Inbox {}
unsafe impl Sync for Inbox {}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            head: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicU64::new(0),
            stash: UnsafeCell::new(Vec::new()),
            drained: UnsafeCell::new(Vec::new()),
        }
    }

    /// Producer side: push one item (any thread, no lock).
    fn push(&self, item: Item) {
        let node = Box::into_raw(Box::new(Node {
            item,
            next: std::ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is exclusively ours until the CAS publishes it.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => head = cur,
            }
        }
        self.len.fetch_add(1, Ordering::Release);
    }

    /// Consumer side: ensure the stash holds entries, swapping the shared
    /// list out and reversing it if the stash ran dry. Returns whether any
    /// entries are available.
    ///
    /// # Safety
    /// Single-consumer only, and no reference into the stash may be live.
    unsafe fn refill(&self) -> bool {
        let stash = unsafe { &mut *self.stash.get() };
        if !stash.is_empty() {
            return true;
        }
        let mut node = self.head.swap(std::ptr::null_mut(), Ordering::Acquire);
        // The taken list is newest-first; pushing in list order leaves the
        // oldest entry at the stash's tail, so `Vec::pop` yields FIFO.
        while !node.is_null() {
            // SAFETY: nodes reached from the swapped-out head are
            // exclusively ours; each was boxed exactly once in `push`.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
            stash.push(boxed.item);
        }
        !stash.is_empty()
    }

    /// Pop up to `max` entries in arrival order into `out`; returns how many
    /// were taken. One refill (a single atomic swap) amortizes the whole
    /// batch — this is [`RankHandle::poll`]'s drain, replacing a lock
    /// round-trip per item. Single consumer: the owning rank's thread only.
    fn pop_n(&self, out: &mut Vec<Item>, max: usize) -> usize {
        if max == 0 || self.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        // SAFETY: called only from the owner's thread (see `poll`); the
        // stash borrow inside `refill` ends before it returns.
        if !unsafe { self.refill() } {
            return 0;
        }
        // SAFETY: same single-consumer contract; `refill`'s borrow is dead.
        let stash = unsafe { &mut *self.stash.get() };
        let take = max.min(stash.len());
        for _ in 0..take {
            out.push(stash.pop().expect("stash underflow"));
        }
        self.len.fetch_sub(take as u64, Ordering::Release);
        take
    }

    fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        // Free whatever never got polled (a world can tear down with
        // traffic still queued once every rank main has returned).
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            // SAFETY: exclusive access in Drop; each node boxed once.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
        }
    }
}

/// Configuration for an smp world.
#[derive(Clone, Debug)]
pub struct SmpConfig {
    /// Size in bytes of each rank's shared segment.
    pub seg_size: usize,
}

impl Default for SmpConfig {
    fn default() -> Self {
        SmpConfig {
            seg_size: 8 << 20, // 8 MiB per rank
        }
    }
}

/// One rank's shared segment: a fixed, heap-allocated byte region addressable
/// by every thread in the world.
struct Segment {
    base: *mut u8,
    len: usize,
}

// SAFETY: the segment is a plain byte region with a stable address for the
// world's lifetime. Cross-thread access is performed only through the
// bounds-checked raw copies below; torn reads/writes under application-level
// races affect only application bytes, never the runtime's own structures.
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    fn new(len: usize) -> Segment {
        let mut v = vec![0u8; len].into_boxed_slice();
        let base = v.as_mut_ptr();
        std::mem::forget(v);
        Segment { base, len }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // SAFETY: reconstructing exactly what `new` forgot.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.base, self.len,
            )));
        }
    }
}

struct Shared {
    n: usize,
    seg_size: usize,
    segments: Vec<Segment>,
    inboxes: Vec<Inbox>,
    /// The first rank whose main panicked, or [`NO_RANK`]: set by the
    /// drop guard in [`launch`], read by [`RankHandle::dead_rank`].
    dead: AtomicUsize,
    /// Generation-counting central barrier (see [`RankHandle::barrier`]):
    /// `bar_count` counts arrivals in the current episode, `bar_gen` is
    /// bumped by the last arrival to release the waiters. No per-rank sense
    /// flag is needed — waiters spin on the generation they read on entry.
    bar_count: AtomicU64,
    bar_gen: AtomicU64,
    /// The world's common clock epoch, captured in [`launch`] **before** any
    /// rank thread spawns. Every rank's trace clock ([`RankHandle::wall_ps`])
    /// measures against this one instant, so per-rank timelines from one
    /// world are mutually comparable (and worlds launched sequentially in one
    /// process each restart at zero instead of inheriting a process-global
    /// epoch).
    epoch: Instant,
}

/// A per-rank handle to the smp world: the conduit endpoint the `upcxx`
/// runtime talks to. Cloneable; all clones refer to the same world.
#[derive(Clone)]
pub struct RankHandle {
    sh: Arc<Shared>,
    me: Rank,
}

impl RankHandle {
    /// This rank's id.
    #[inline]
    pub fn rank_me(&self) -> Rank {
        self.me
    }
    /// World size.
    #[inline]
    pub fn rank_n(&self) -> usize {
        self.sh.n
    }
    /// Size of every rank's shared segment.
    #[inline]
    pub fn seg_size(&self) -> usize {
        self.sh.seg_size
    }
    /// The first rank of this world whose main panicked, if any.
    pub fn dead_rank(&self) -> Option<Rank> {
        let r = self.sh.dead.load(Ordering::Acquire);
        (r != NO_RANK).then_some(r)
    }

    /// Base pointer of `rank`'s segment. The smp conduit has a flat address
    /// space, so "downcasting" a global address to a local pointer — which the
    /// paper allows only on the owning process — is also how the initiating
    /// thread implements one-sided transfers.
    #[inline]
    pub fn seg_base(&self, rank: Rank) -> *mut u8 {
        self.sh.segments[rank].base
    }

    /// One-sided put: copy `src` into `dst_rank`'s segment at `dst_off`.
    /// Bounds-checked; completes synchronously (shared memory).
    ///
    /// Application-level data races on the destination bytes are the caller's
    /// responsibility (PGAS contract, see module docs).
    pub fn put_bytes(&self, dst_rank: Rank, dst_off: usize, src: &[u8]) {
        let seg = &self.sh.segments[dst_rank];
        assert!(
            dst_off
                .checked_add(src.len())
                .is_some_and(|end| end <= seg.len),
            "put out of segment bounds: off={dst_off} len={} seg={}",
            src.len(),
            seg.len
        );
        // SAFETY: range checked above; segment memory is valid for the world's
        // lifetime; src is a live borrow and cannot overlap the destination
        // unless the caller aliased the segment, which the bounds make local.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), seg.base.add(dst_off), src.len());
        }
    }

    /// One-sided get: copy from `src_rank`'s segment at `src_off` into `dst`.
    pub fn get_bytes(&self, src_rank: Rank, src_off: usize, dst: &mut [u8]) {
        let seg = &self.sh.segments[src_rank];
        assert!(
            src_off
                .checked_add(dst.len())
                .is_some_and(|end| end <= seg.len),
            "get out of segment bounds: off={src_off} len={} seg={}",
            dst.len(),
            seg.len
        );
        // SAFETY: as in put_bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(seg.base.add(src_off), dst.as_mut_ptr(), dst.len());
        }
    }

    /// Fill `len` bytes of `rank`'s segment at `off` with `byte` (the
    /// sanitizer's quarantine poisoning). Bounds-checked.
    pub fn fill_bytes(&self, rank: Rank, off: usize, len: usize, byte: u8) {
        let seg = &self.sh.segments[rank];
        assert!(
            off.checked_add(len).is_some_and(|end| end <= seg.len),
            "fill out of segment bounds: off={off} len={len} seg={}",
            seg.len
        );
        // SAFETY: range checked above; segment memory is valid for the
        // world's lifetime.
        unsafe {
            std::ptr::write_bytes(seg.base.add(off), byte, len);
        }
    }

    /// Atomically fetch-add a `u64` stored at `off` in `rank`'s segment.
    /// Backs the `upcxx` remote-atomics domain on this conduit: Aries would
    /// offload this to the NIC; shared memory lets us use a real CPU atomic.
    /// `off` must be 8-byte aligned.
    pub fn atomic_fetch_add_u64(&self, rank: Rank, off: usize, val: u64) -> u64 {
        let a = self.atomic_at(rank, off);
        a.fetch_add(val, Ordering::AcqRel)
    }

    /// Atomic load of a `u64` in a remote segment (8-byte aligned offset).
    pub fn atomic_load_u64(&self, rank: Rank, off: usize) -> u64 {
        self.atomic_at(rank, off).load(Ordering::Acquire)
    }

    /// Atomic store of a `u64` in a remote segment (8-byte aligned offset).
    pub fn atomic_store_u64(&self, rank: Rank, off: usize, val: u64) {
        self.atomic_at(rank, off).store(val, Ordering::Release)
    }

    /// Atomic compare-exchange of a `u64` in a remote segment. Returns the
    /// previous value (success iff it equals `expected`).
    pub fn atomic_cas_u64(&self, rank: Rank, off: usize, expected: u64, new: u64) -> u64 {
        match self.atomic_at(rank, off).compare_exchange(
            expected,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(v) => v,
            Err(v) => v,
        }
    }

    fn atomic_at(&self, rank: Rank, off: usize) -> &AtomicU64 {
        let seg = &self.sh.segments[rank];
        assert!(off + 8 <= seg.len, "atomic out of segment bounds");
        assert_eq!(off % 8, 0, "atomic offset must be 8-byte aligned");
        // SAFETY: in-bounds, aligned, and AtomicU64 accesses never tear; all
        // cross-rank accesses to this word go through the same atomic type.
        unsafe { &*(seg.base.add(off) as *const AtomicU64) }
    }

    /// Deliver an item to `target`'s inbox. It runs when the target polls.
    pub fn send_item(&self, target: Rank, item: Item) {
        self.sh.inboxes[target].push(item);
    }

    /// Execute up to `budget` pending inbox entries from *this rank's*
    /// inbox (a batch is one item, as it is one conduit message).
    /// Returns the number executed. This is the conduit half of progress;
    /// the `upcxx` runtime calls it from `progress()` — and, when the
    /// opt-in progress thread is enabled, from that thread too, holding the
    /// runtime's per-rank engine lock so the inbox's serialized-consumer
    /// contract holds across both threads.
    ///
    /// Entries are drained in one batched `pop_n` into the inbox's kept
    /// drain buffer and then executed in arrival order. Runtime-made items
    /// never re-enter `poll` (they park their effects in the progress
    /// engine's completion queue), so the drained prefix cannot be overtaken
    /// by a nested drain; the buffer is moved out while items run, so even a
    /// nested poll would only find it empty.
    pub fn poll(&self, budget: usize) -> usize {
        let q = &self.sh.inboxes[self.me];
        if q.is_empty() {
            return 0;
        }
        // SAFETY: only the owner's thread (or a thread holding the layer
        // above's serialization lock) polls this inbox; no reference into
        // the buffer outlives this statement.
        let mut drained = std::mem::take(unsafe { &mut *q.drained.get() });
        let ran = q.pop_n(&mut drained, budget);
        for item in drained.drain(..) {
            item();
        }
        // SAFETY: as above.
        unsafe { *q.drained.get() = drained };
        ran
    }

    /// Whether this rank's inbox currently has pending items (racy hint).
    pub fn inbox_nonempty(&self) -> bool {
        !self.sh.inboxes[self.me].is_empty()
    }

    /// Number of items currently waiting in this rank's inbox (racy gauge;
    /// the conduit-backlog figure surfaced by `upcxx::runtime_stats`).
    pub fn inbox_depth(&self) -> u64 {
        self.sh.inboxes[self.me].len.load(Ordering::Acquire)
    }

    /// Wall-clock picoseconds since this **world's** launch epoch — the smp
    /// conduit's trace clock. All ranks of one world share the epoch
    /// (captured before any rank thread starts), so timestamps recorded on
    /// different ranks merge into one monotone, causally ordered timeline:
    /// a send's stamp precedes the matching delivery's stamp because both
    /// derive from the same monotonic `Instant`.
    pub fn wall_ps(&self) -> u64 {
        (self.sh.epoch.elapsed().as_nanos() as u64).saturating_mul(1000)
    }

    /// Conduit-level world barrier: generation-counting central barrier over
    /// the shared handle. This is the transport primitive behind
    /// [`crate::Conduit::barrier`]; the `upcxx` layer's user-facing barrier
    /// is a dissemination collective over AMs and does not use it.
    pub fn barrier(&self) {
        let gen = self.sh.bar_gen.load(Ordering::Acquire);
        if self.sh.bar_count.fetch_add(1, Ordering::AcqRel) + 1 == self.sh.n as u64 {
            self.sh.bar_count.store(0, Ordering::Release);
            self.sh.bar_gen.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sh.bar_gen.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// The unified-transport view of an smp rank: closures move verbatim
/// ([`AmMode::Items`]), so `poll` executes entries itself and the frame
/// `sink` is never fed.
impl crate::Conduit for RankHandle {
    fn rank_me(&self) -> Rank {
        self.me
    }
    fn rank_n(&self) -> usize {
        self.sh.n
    }
    fn seg_size(&self) -> usize {
        RankHandle::seg_size(self)
    }
    fn am_mode(&self) -> AmMode {
        AmMode::Items
    }
    fn seg_base(&self, rank: Rank) -> *mut u8 {
        RankHandle::seg_base(self, rank)
    }
    fn put_bytes(&self, dst_rank: Rank, dst_off: usize, src: &[u8]) {
        RankHandle::put_bytes(self, dst_rank, dst_off, src)
    }
    fn get_bytes(&self, src_rank: Rank, src_off: usize, dst: &mut [u8]) {
        RankHandle::get_bytes(self, src_rank, src_off, dst)
    }
    fn fill_bytes(&self, rank: Rank, off: usize, len: usize, byte: u8) {
        RankHandle::fill_bytes(self, rank, off, len, byte)
    }
    fn atomic_fetch_add_u64(&self, rank: Rank, off: usize, val: u64) -> u64 {
        RankHandle::atomic_fetch_add_u64(self, rank, off, val)
    }
    fn atomic_load_u64(&self, rank: Rank, off: usize) -> u64 {
        RankHandle::atomic_load_u64(self, rank, off)
    }
    fn atomic_store_u64(&self, rank: Rank, off: usize, val: u64) {
        RankHandle::atomic_store_u64(self, rank, off, val)
    }
    fn atomic_cas_u64(&self, rank: Rank, off: usize, expected: u64, new: u64) -> u64 {
        RankHandle::atomic_cas_u64(self, rank, off, expected, new)
    }
    fn send_am(&self, target: Rank, am: Am) {
        match am {
            Am::Item(item) => self.send_item(target, item),
            Am::Frame(_) => unreachable!("smp is an in-process conduit; AMs travel as items"),
        }
    }
    fn send_am_batch(&self, target: Rank, batch: Batch) {
        match batch {
            Batch::Item(item) => self.send_item(target, item),
            Batch::Frame(_) => unreachable!("smp is an in-process conduit; AMs travel as items"),
        }
    }
    fn poll(&self, budget: usize, _sink: &mut dyn FnMut(Vec<u8>)) -> usize {
        RankHandle::poll(self, budget)
    }
    fn inbox_nonempty(&self) -> bool {
        RankHandle::inbox_nonempty(self)
    }
    fn inbox_depth(&self) -> u64 {
        RankHandle::inbox_depth(self)
    }
    fn wall_ps(&self) -> u64 {
        RankHandle::wall_ps(self)
    }
    fn barrier(&self) {
        RankHandle::barrier(self)
    }
    fn dead_rank(&self) -> Option<Rank> {
        RankHandle::dead_rank(self)
    }
}

/// [`Shared::dead`]'s "no rank has died" value.
const NO_RANK: usize = usize::MAX;

/// Marks its rank dead in the world if dropped during a panic, so peers
/// blocked on it fail instead of hanging (see [`RankHandle::dead_rank`]).
struct DeathWatch<'a> {
    sh: &'a Shared,
    me: Rank,
}

impl Drop for DeathWatch<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The first death is the root cause; later ones are its echoes.
            let _ = self.sh.dead.compare_exchange(
                NO_RANK,
                self.me,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }
}

/// Run an SPMD world of `n` ranks, one OS thread each. `f` is the rank main;
/// it receives that rank's conduit handle. Returns when every rank main has
/// returned. A panic on any rank propagates to the caller, and marks the
/// rank dead for its peers ([`RankHandle::dead_rank`]).
pub fn launch<F>(n: usize, cfg: SmpConfig, f: F)
where
    F: Fn(RankHandle) + Send + Sync,
{
    assert!(n > 0, "world needs at least one rank");
    let shared = Arc::new(Shared {
        n,
        seg_size: cfg.seg_size,
        segments: (0..n).map(|_| Segment::new(cfg.seg_size)).collect(),
        inboxes: (0..n).map(|_| Inbox::new()).collect(),
        dead: AtomicUsize::new(NO_RANK),
        bar_count: AtomicU64::new(0),
        bar_gen: AtomicU64::new(0),
        epoch: Instant::now(),
    });
    std::thread::scope(|scope| {
        for me in 0..n {
            let sh = shared.clone();
            let f = &f;
            scope.spawn(move || {
                let _watch = DeathWatch { sh: &sh, me };
                f(RankHandle { sh: sh.clone(), me });
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn launch_runs_every_rank_once() {
        let hits = AtomicUsize::new(0);
        launch(6, SmpConfig::default(), |h| {
            assert_eq!(h.rank_n(), 6);
            assert!(h.rank_me() < 6);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn put_get_roundtrip_cross_rank() {
        let barrier = Barrier::new(2);
        launch(2, SmpConfig { seg_size: 4096 }, |h| {
            if h.rank_me() == 0 {
                let data: Vec<u8> = (0..=255).collect();
                h.put_bytes(1, 128, &data);
                barrier.wait();
            } else {
                barrier.wait();
                let mut out = vec![0u8; 256];
                h.get_bytes(1, 128, &mut out);
                assert_eq!(out, (0..=255).collect::<Vec<u8>>());
            }
        });
    }

    #[test]
    fn items_run_on_target_when_polled() {
        let seen = AtomicUsize::new(usize::MAX);
        let barrier = Barrier::new(2);
        launch(2, SmpConfig::default(), |h| {
            if h.rank_me() == 0 {
                let tid = std::thread::current().id();
                h.send_item(
                    1,
                    Box::new(move || {
                        // Runs on rank 1's thread, not the sender's.
                        assert_ne!(std::thread::current().id(), tid);
                    }),
                );
                h.send_item(1, Box::new(|| {}));
                barrier.wait();
            } else {
                barrier.wait();
                let mut total = 0;
                while total < 2 {
                    total += h.poll(16);
                    std::thread::yield_now();
                }
                seen.store(total, Ordering::SeqCst);
            }
        });
        assert_eq!(seen.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn poll_respects_budget() {
        launch(1, SmpConfig::default(), |h| {
            for _ in 0..10 {
                h.send_item(0, Box::new(|| {}));
            }
            assert_eq!(h.poll(3), 3);
            assert_eq!(h.poll(100), 7);
            assert_eq!(h.poll(100), 0);
        });
    }

    #[test]
    #[should_panic]
    fn put_bounds_checked() {
        // The panic originates on a rank thread; thread::scope re-raises it
        // in the caller but the payload string is not guaranteed to survive,
        // so no `expected` substring here.
        launch(1, SmpConfig { seg_size: 16 }, |h| {
            h.put_bytes(0, 10, &[0u8; 8]);
        });
    }

    #[test]
    fn atomics_sum_under_contention() {
        let n = 8;
        launch(n, SmpConfig::default(), |h| {
            // Every rank adds its rank id 100 times into rank 0's counter at
            // offset 0; then rank 0 validates once all adds are visible by
            // spinning on the expected total.
            for _ in 0..100 {
                h.atomic_fetch_add_u64(0, 0, h.rank_me() as u64);
            }
            let expected: u64 = 100 * (0..n as u64).sum::<u64>();
            while h.atomic_load_u64(0, 0) != expected {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn atomic_cas_behaviour() {
        launch(1, SmpConfig::default(), |h| {
            h.atomic_store_u64(0, 8, 5);
            assert_eq!(h.atomic_cas_u64(0, 8, 5, 9), 5); // success
            assert_eq!(h.atomic_load_u64(0, 8), 9);
            assert_eq!(h.atomic_cas_u64(0, 8, 5, 1), 9); // failure: returns current
            assert_eq!(h.atomic_load_u64(0, 8), 9);
        });
    }

    #[test]
    fn all_to_all_items_stress() {
        let n = 4;
        let per_pair = 200;
        launch(n, SmpConfig::default(), |h| {
            let me = h.rank_me();
            // Each delivered item bumps the *executor's* tally (counting
            // receptions keeps ranks self-sufficient: once my tally is full
            // I have drained everything addressed to me and may exit).
            for dst in 0..n {
                for _ in 0..per_pair {
                    let h2 = h.clone();
                    h.send_item(
                        dst,
                        Box::new(move || {
                            h2.atomic_fetch_add_u64(dst, 0, 1);
                        }),
                    );
                }
            }
            let expected = (n * per_pair) as u64;
            while h.atomic_load_u64(me, 0) != expected {
                h.poll(64);
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn inbox_stress_per_producer_fifo() {
        // N producers blast rank 0 with sequence-tagged items, mixing
        // singles and aggregated batches; every item asserts its producer's
        // slot in rank 0's segment steps by exactly one — the lock-free
        // inbox's per-producer FIFO contract under real contention.
        let n = 5;
        let per: u64 = 600;
        launch(n, SmpConfig::default(), |h| {
            let me = h.rank_me();
            if me == 0 {
                let expect = (n as u64 - 1) * per;
                while h.atomic_load_u64(0, 0) < expect {
                    h.poll(32);
                    std::thread::yield_now();
                }
                for r in 1..n {
                    assert_eq!(h.atomic_load_u64(0, r * 8), per);
                }
            } else {
                let mk = |s: u64| -> Item {
                    let h2 = h.clone();
                    Box::new(move || {
                        // Runs on rank 0's thread. CAS from s-1 to s: fails
                        // loudly if any earlier item from this producer has
                        // not executed yet (reordering) or ran twice.
                        let prev = h2.atomic_cas_u64(0, h2.rank_me() * 8, s - 1, s);
                        assert_eq!(prev, s - 1, "producer {} out of order", h2.rank_me());
                        h2.atomic_fetch_add_u64(0, 0, 1);
                    })
                };
                let mut seq = 0u64;
                while seq < per {
                    if seq % 7 == 3 && seq + 3 <= per {
                        let items: Vec<Item> = (0..3).map(|j| mk(seq + j + 1)).collect();
                        crate::Conduit::send_am_batch(&h, 0, batch_of(items));
                        seq += 3;
                    } else {
                        seq += 1;
                        h.send_item(0, mk(seq));
                    }
                }
            }
        });
    }

    /// One batch item running `items` in order, as the aggregation layer
    /// above builds them.
    fn batch_of(items: Vec<Item>) -> Batch {
        Batch::Item(Box::new(move || items.into_iter().for_each(|item| item())))
    }

    #[test]
    fn batch_counts_as_one_poll_entry() {
        launch(1, SmpConfig::default(), |h| {
            let items = (0..4).map(|_| Box::new(|| {}) as Item).collect();
            crate::Conduit::send_am_batch(&h, 0, batch_of(items));
            h.send_item(0, Box::new(|| {}));
            // The batch is one conduit message: one unit of poll budget.
            assert_eq!(h.poll(1), 1);
            assert_eq!(h.poll(8), 1);
            assert_eq!(h.poll(8), 0);
        });
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        launch(3, SmpConfig::default(), |h| {
            if h.rank_me() == 1 {
                panic!("rank main failed");
            }
        });
    }

    #[test]
    fn counters_track_traffic() {
        launch(2, SmpConfig::default(), |h| {
            if h.rank_me() == 0 {
                h.send_item(1, Box::new(|| {}));
            } else {
                while h.poll(8) == 0 {
                    std::thread::yield_now();
                }
            }
        });
    }
}
