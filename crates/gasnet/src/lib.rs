//! # gasnet — a GASNet-EX-like communication substrate
//!
//! The UPC++ runtime in the paper sits on GASNet-EX, which provides exactly
//! two data-movement primitives (§III): one-sided **RMA** (put/get into
//! remotely allocated shared segments) and **Active Messages** (run a handler
//! with a payload on a remote process). This crate reproduces that contract
//! with three interchangeable conduits:
//!
//! * [`smp`] — every rank is an OS thread inside one process; shared segments
//!   are real memory, puts are real one-sided `memcpy`s performed by the
//!   initiating thread, AMs travel through lock-free (Treiber-list) MPSC
//!   inboxes and run on the target thread when it polls. This conduit is
//!   *real*: it exercises every runtime code path under true concurrency and
//!   real time, and backs the hand-rolled microbenchmark harness, the
//!   examples and most tests.
//!
//! * [`proc`] — every rank is an OS process; segments are mmap'd shared
//!   files, so puts stay one-sided `memcpy`s, and AMs travel as serialized
//!   frames over Unix-domain sockets (large ones rendezvous through shm).
//!
//! * [`sim`] — every rank is an actor on a [`pgas_des::Sim`] discrete-event
//!   loop under virtual time; communication costs come from a
//!   [`netsim::Machine`] (Aries-like model). This conduit reproduces the
//!   paper's *scale*: 34816-rank DHT weak scaling and 2048-rank extend-add
//!   runs execute on a laptop with faithful contention structure.
//!
//! All three conduits share the same vocabulary:
//!
//! * a **segment** per rank — a flat byte array remotely addressable by
//!   `(rank, offset)` pairs (the `upcxx` crate builds `GlobalPtr<T>` and its
//!   shared-heap allocator on top);
//! * an **item** ([`Item`]) — a boxed one-shot closure delivered to a rank and
//!   executed when that rank makes progress. The `upcxx` runtime encodes
//!   incoming RPCs, RPC replies, and operation-completion notifications as
//!   items, so *attentiveness* (the paper's term for a rank's obligation to
//!   call progress) behaves identically over both conduits.
//!
//! The substrate never interprets item contents and never spawns hidden
//! threads — progress happens only when a rank explicitly polls (smp) or when
//! the simulation delivers an arrival event (sim), mirroring the paper's
//! "no hidden threads" design principle. (The `upcxx` layer above may opt
//! into polling a rank's inbox from a dedicated progress thread; even then
//! the substrate itself spawns nothing and only sees serialized `poll`
//! calls — see the inbox's serialized-consumer contract in [`smp`].)

pub mod proc;
pub mod sim;
pub mod smp;

/// A PGAS process identifier, dense in `0..rank_n`.
pub type Rank = usize;

/// A unit of deliverable work: runs on the destination rank during progress.
///
/// Items must be `Send` because the smp conduit moves them across real
/// threads. Closures should capture only `Send` data (byte buffers, plain
/// values, rank/operation identifiers) and resolve any rank-local state
/// (promise tables, local maps) through the target rank's thread-local
/// context at execution time.
pub type Item = Box<dyn FnOnce() + Send>;

/// How a conduit accepts Active Messages ([`Conduit::am_mode`]).
///
/// In-process conduits move closures directly ([`AmMode::Items`]); the
/// process-per-rank conduit cannot ship a closure across an address-space
/// boundary, so the layer above serializes each AM into a self-describing
/// byte frame ([`AmMode::Frames`]) that the destination decodes and runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmMode {
    /// AMs are boxed closures executed verbatim on the target rank.
    Items,
    /// AMs are serialized byte frames; the target decodes them via the
    /// `sink` passed to [`Conduit::poll`].
    Frames,
}

/// One Active Message, in whichever representation the conduit accepts.
pub enum Am {
    /// A closure (conduits with [`AmMode::Items`]).
    Item(Item),
    /// A serialized frame (conduits with [`AmMode::Frames`]).
    Frame(Vec<u8>),
}

/// A batch of Active Messages delivered as one conduit-level entry.
pub enum Batch {
    /// One closure that runs every member in order (and whatever bracket
    /// the layer above wraps around them): a single inbox entry.
    Item(Item),
    /// One pre-concatenated container frame holding every member.
    Frame(Vec<u8>),
}

/// A uniform snapshot of a conduit's internal queue occupancy, probed on
/// demand by the observability layer above ([`Conduit::depths`]). Every
/// conduit reports its inbox depth; fields a conduit has no equivalent of
/// stay 0 (an smp inbox has no socket backlog; sim executes deliveries at
/// their arrival event, so nothing ever waits in an inbox).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConduitDepths {
    /// Entries waiting in this rank's inbox (items/frames not yet polled).
    pub inbox: u64,
    /// Outbound bytes accepted but not yet flushed to the wire (proc: the
    /// sum of per-peer socket `pending` buffers).
    pub backlog_bytes: u64,
    /// Rendezvous-staging bytes currently in use (proc only).
    pub staging_used: u64,
    /// Rendezvous-staging capacity in bytes (proc only; 0 = no staging).
    pub staging_cap: u64,
    /// Sends that wanted the rendezvous path but fell back to eager wire
    /// framing because staging was exhausted (proc only).
    pub eager_fallbacks: u64,
}

/// The unified transport contract every gasnet conduit implements.
///
/// This is the GASNet-EX substrate surface the `upcxx` core dispatches
/// through: segment byte access + remote atomics (one-sided RMA), AM and
/// batched-AM injection, explicit polling, a world barrier, and rank
/// topology. The `smp` (thread-per-rank) and `proc` (process-per-rank)
/// conduits implement it directly; the `sim` conduit keeps its bespoke
/// virtual-time API because its callers cannot block. A fourth conduit
/// plugs in by implementing this trait — the core has no conduit-specific
/// branches beyond `Cond` vs `Sim`.
///
/// # Safety & contracts
///
/// * `seg_base(r)` must stay valid for the life of the handle, point at
///   `seg_size()` addressable bytes, and reference memory physically shared
///   with rank `r` (same mapping or same process).
/// * `put/get/fill` must be genuine one-sided byte copies — no remote CPU
///   involvement — and must panic on out-of-segment ranges.
/// * `send_am`/`send_am_batch` must preserve per-(sender, target) FIFO
///   order and must never execute AMs inline on the sending rank.
/// * `poll` executes/delivers at most `budget` entries (a batch counts as
///   one) and returns the number consumed. For [`AmMode::Frames`] conduits
///   each received frame is handed to `sink`; `Items` conduits run the
///   closures directly and ignore `sink`.
/// * `barrier` is a full-world rendezvous over all ranks of this conduit.
pub trait Conduit: Send + Sync {
    /// This rank's id, dense in `0..rank_n()`.
    fn rank_me(&self) -> Rank;
    /// World size.
    fn rank_n(&self) -> usize;
    /// Bytes in every rank's shared segment.
    fn seg_size(&self) -> usize;
    /// Whether this conduit moves AMs as closures or serialized frames.
    fn am_mode(&self) -> AmMode;
    /// Base address of `rank`'s segment as mapped in this address space.
    fn seg_base(&self, rank: Rank) -> *mut u8;
    /// One-sided write of `src` into `dst_rank`'s segment at `dst_off`.
    fn put_bytes(&self, dst_rank: Rank, dst_off: usize, src: &[u8]);
    /// One-sided read from `src_rank`'s segment at `src_off` into `dst`.
    fn get_bytes(&self, src_rank: Rank, src_off: usize, dst: &mut [u8]);
    /// One-sided memset of `len` bytes at `(rank, off)` to `byte`.
    fn fill_bytes(&self, rank: Rank, off: usize, len: usize, byte: u8);
    /// Sequentially-consistent remote fetch-add on an aligned u64.
    fn atomic_fetch_add_u64(&self, rank: Rank, off: usize, val: u64) -> u64;
    /// Sequentially-consistent remote load of an aligned u64.
    fn atomic_load_u64(&self, rank: Rank, off: usize) -> u64;
    /// Sequentially-consistent remote store of an aligned u64.
    fn atomic_store_u64(&self, rank: Rank, off: usize, val: u64);
    /// Sequentially-consistent remote compare-and-swap; returns the
    /// previous value.
    fn atomic_cas_u64(&self, rank: Rank, off: usize, expected: u64, new: u64) -> u64;
    /// Inject one AM toward `target` (FIFO per sender/target pair).
    fn send_am(&self, target: Rank, am: Am);
    /// Inject a pre-aggregated batch toward `target` as one entry.
    fn send_am_batch(&self, target: Rank, batch: Batch);
    /// Drain up to `budget` inbox entries; `sink` receives serialized
    /// frames on [`AmMode::Frames`] conduits. Returns entries consumed.
    fn poll(&self, budget: usize, sink: &mut dyn FnMut(Vec<u8>)) -> usize;
    /// Cheap hint: are entries waiting in this rank's inbox?
    fn inbox_nonempty(&self) -> bool;
    /// Number of entries currently queued for this rank.
    fn inbox_depth(&self) -> u64;
    /// Queue-occupancy probe for observability. The default covers any
    /// conduit whose only queue is its inbox; conduits with more internal
    /// buffering (proc: socket backlog, rendezvous staging) override it.
    fn depths(&self) -> ConduitDepths {
        ConduitDepths {
            inbox: self.inbox_depth(),
            ..ConduitDepths::default()
        }
    }
    /// Monotonic-ish wall clock in picoseconds since conduit start,
    /// comparable across ranks of one world.
    fn wall_ps(&self) -> u64;
    /// Full-world rendezvous: returns after every rank has entered.
    fn barrier(&self);
    /// The first rank of this world known to have died (its rank main
    /// panicked), if any. Blocking loops above the conduit poll this so a
    /// dead peer fails them instead of hanging them. The default reports
    /// none: conduits whose launcher already reaps a failed world (proc)
    /// need no in-world signal.
    fn dead_rank(&self) -> Option<Rank> {
        None
    }
}

#[cfg(test)]
mod lib_tests {
    /// `Item` must stay an alias for a Send closure; this is a compile-time
    /// guarantee test.
    #[test]
    fn item_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<super::Item>();
    }
}
