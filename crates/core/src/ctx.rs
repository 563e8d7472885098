//! The per-rank runtime context and progress engine (§III of the paper).
//!
//! Every rank owns a [`RankCtx`] holding its shared-segment allocator, the
//! three progress queues, the RPC reply table, distributed-object registry
//! and collective state. User code reaches it through a thread-local — the
//! same discipline as UPC++'s per-persona state.
//!
//! ## The three queues
//!
//! The paper's Progress Engine keeps operations in three unordered queues:
//!
//! * **defQ** — operations injected but not yet handed to GASNet-EX. Our
//!   [`RankCtx::def_q`] holds [`DefOp`]s; *internal progress* (which runs at
//!   every communication call and at explicit [`progress`]) drains it into
//!   the conduit.
//! * **actQ** — operations the conduit owns. We track the count
//!   ([`RankCtx::active_ops`]); completion is signaled by conduit callbacks.
//! * **compQ** — completed operations whose user-visible effects (future
//!   fulfillment, `.then` callbacks, incoming RPC bodies) are pending. Our
//!   [`RankCtx::comp_q`] is drained **only by user-level progress**
//!   ([`progress`] or a blocking `wait`), reproducing the paper's
//!   *attentiveness* requirement: a rank that computes without calling
//!   progress stalls its incoming RPCs (physically true on the smp conduit;
//!   modeled through CPU-clock serialization on the sim conduit).

use crate::future::Future;
use crate::trace::{Phase, TraceEvent, TraceState, TraceTag};
use gasnet::{sim::SimWorld, Conduit, Rank};
use netsim::config::SwCosts;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Which conduit this rank runs over.
///
/// Real-time conduits (smp's thread-per-rank, proc's process-per-rank, any
/// future transport) plug in through the [`gasnet::Conduit`] trait object —
/// the runtime has no conduit-specific branches beyond `Cond` vs `Sim`. The
/// sim conduit keeps its bespoke virtual-time API because its completion
/// callbacks re-enter the engine under simulated time and can never block.
pub(crate) enum Backend {
    /// A real transport behind the unified [`gasnet::Conduit`] trait.
    Cond(Arc<dyn Conduit>),
    /// Discrete-event simulation; virtual time.
    Sim(SimWorld),
}

/// A deferred operation (an entry of the paper's defQ).
pub(crate) enum DefOp {
    /// One-sided put of `bytes` into `target`'s segment.
    Put {
        target: Rank,
        dst_off: usize,
        bytes: Vec<u8>,
        done: Box<dyn FnOnce()>,
    },
    /// One-sided get of `len` bytes from `target`'s segment.
    Get {
        target: Rank,
        src_off: usize,
        len: usize,
        done: Box<dyn FnOnce(Vec<u8>)>,
    },
    /// Active message (RPC, RPC reply, or an internal collective flag) in
    /// the conduit's representation — a closure on in-process conduits, a
    /// serialized frame on the proc conduit. `wire_bytes` is the modeled
    /// payload size.
    Am {
        target: Rank,
        wire_bytes: usize,
        am: gasnet::Am,
    },
    /// An aggregated batch of active messages for one target (built by
    /// `crate::agg`): members execute in order at the target, but the whole
    /// batch costs **one** conduit injection — one inbox push on smp, one
    /// socket message on proc, one modeled transfer (single NIC gap +
    /// dispatch) on sim. `wire_bytes` is the accounted batch size (one
    /// header + per-record framing + payloads).
    AmBatch {
        target: Rank,
        wire_bytes: usize,
        batch: gasnet::Batch,
    },
    /// Remote atomic operation on a u64 in `target`'s segment.
    Amo {
        target: Rank,
        off: usize,
        op: gasnet::sim::AmoOp,
        operand: u64,
        compare: u64,
        done: Box<dyn FnOnce(u64)>,
    },
}

/// A defQ entry: the deferred operation plus its trace identity and the
/// injection timestamp (0 when tracing is off) for the time-in-queue
/// histogram.
pub(crate) struct Queued {
    pub(crate) tag: TraceTag,
    pub(crate) t_inject: u64,
    pub(crate) op: DefOp,
}

/// A compQ entry's user-visible effect. Almost everything is a parked
/// closure; the eager RMA fast path gets a dedicated variant so completing a
/// put (or `rget_into`) costs no closure allocation at all.
pub(crate) enum CompEff {
    /// Run a parked closure (the general case).
    Thunk(Box<dyn FnOnce()>),
    /// Eager-RMA completion: fulfill one anonymous dependency on `p` after
    /// marking `(me, op)` against `target` complete in the sanitizer (when
    /// it was enabled at injection). The data itself already moved at
    /// injection time — this record is only the attentiveness gate.
    EagerRma {
        p: crate::future::Promise<()>,
        target: Rank,
        op: u64,
        san: bool,
    },
}

/// A compQ entry: the user-visible effect plus its trace identity and the
/// delivery timestamp (0 when tracing is off).
pub(crate) struct CompItem {
    tag: TraceTag,
    t_deliver: u64,
    eff: CompEff,
}

/// A parked continuation.
pub(crate) type Thunk = Box<dyn FnOnce()>;

/// A map keyed by runtime-made integers (op ids, ranks, type ids, team ids,
/// epochs, dist-object ids), hashed with [`MulHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// A multiplicative (Fx-style) hasher for maps whose keys the runtime makes
/// itself: sequence numbers, ranks, type ids and team ids. Nothing outside the
/// program chooses those keys, so SipHash's resistance to crafted
/// collisions buys nothing there, while its cost shows on every RPC.
#[derive(Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl MulHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        // The product's high bits are the well-mixed ones; the table indexes
        // buckets by the low bits, which repeat for keys whose own low bits
        // do (multiples of a power of two).
        self.0.rotate_left(26)
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Per-rank collective-operation state (dissemination barrier, broadcast and
/// reduction slots). See `coll.rs` for the algorithms.
#[derive(Default)]
pub(crate) struct CollState {
    /// Next barrier epoch per team id.
    pub barrier_epoch: FastMap<u64, u64>,
    /// Arrived dissemination flags: (team, epoch, round) -> ().
    pub barrier_flags: FastMap<(u64, u64, u32), ()>,
    /// Parked barrier continuations keyed like the flags.
    pub barrier_waiters: FastMap<(u64, u64, u32), Thunk>,
    /// Next broadcast/reduce sequence number per team id.
    pub coll_seq: FastMap<u64, u64>,
    /// Broadcast slots: (team, seq) -> slot.
    pub bcast: FastMap<(u64, u64), BcastSlot>,
    /// Reduction slots: (team, seq) -> slot.
    pub reduce: FastMap<(u64, u64), ReduceSlot>,
}

/// In-flight broadcast state on one rank.
#[derive(Default)]
pub(crate) struct BcastSlot {
    /// Serialized payload, once known.
    pub value: Option<Vec<u8>>,
    /// Local collective call's continuation (fulfills the caller's promise).
    pub waiter: Option<Box<dyn FnOnce(Vec<u8>)>>,
}

/// In-flight reduction state on one rank.
pub(crate) struct ReduceSlot {
    /// Combined partial value (type-erased).
    pub partial: Option<Box<dyn Any>>,
    /// Contributions still expected from tree children.
    pub pending_children: usize,
    /// Pending incoming child payloads that arrived before the local call
    /// (we cannot combine them until the local call supplies the combine fn).
    pub early: Vec<Vec<u8>>,
    /// Local call's continuation: combines + forwards + maybe fulfills.
    pub on_child: Option<Rc<dyn Fn(Vec<u8>)>>,
}

/// Raw runtime counters. Snapshot through [`crate::trace::runtime_stats`];
/// the counters themselves are crate-plumbing.
#[derive(Default)]
pub struct CtxStats {
    /// rput/rget operations injected.
    pub rma_ops: Cell<u64>,
    /// RPCs injected (including `rpc_ff`).
    pub rpcs: Cell<u64>,
    /// Bytes serialized into outgoing messages.
    pub bytes_out: Cell<u64>,
    /// Bytes received: rget data, incoming RPC args, incoming replies.
    pub bytes_in: Cell<u64>,
    /// Items executed from compQ by user progress.
    pub comp_items: Cell<u64>,
    /// Messages routed through the aggregation layer's buffers.
    pub agg_msgs: Cell<u64>,
    /// Aggregated batches shipped (each one wire message carrying >1 payload).
    pub agg_batches: Cell<u64>,
    /// defQ depth high-water mark (tracked only while tracing is enabled,
    /// like every other per-event gauge — the disabled path stays at one
    /// branch per hook).
    pub def_q_hwm: Cell<u64>,
    /// Conduit-owned (actQ) operation-count high-water mark (tracing only).
    pub act_q_hwm: Cell<u64>,
    /// compQ depth high-water mark (tracing only).
    pub comp_q_hwm: Cell<u64>,
    /// Attentiveness: largest gap between user-progress calls (ps; tracked
    /// only while tracing is enabled).
    pub max_progress_gap_ps: Cell<u64>,
    /// Timestamp of the previous user-progress call (ps; tracing only).
    pub last_progress_ps: Cell<u64>,
    /// compQ chunks drained by user progress. Each chunk is at most 64
    /// items — the bound that keeps one progress call from running
    /// arbitrarily long on a flooded rank (smp conduit).
    pub comp_chunks: Cell<u64>,
    /// Attentiveness of the *progress persona*: largest gap between the
    /// progress thread's conduit-poll iterations (ps; tracked only while
    /// tracing is enabled and the thread is running; 0 otherwise).
    pub max_progress_gap_prog_ps: Cell<u64>,
    /// Timestamp of the progress persona's previous poll (ps).
    pub last_progress_prog_ps: Cell<u64>,
}

/// The per-rank runtime state. One per rank; reached via the thread-local.
pub struct RankCtx {
    pub(crate) backend: Backend,
    pub(crate) me: Rank,
    pub(crate) n: usize,
    pub(crate) alloc: RefCell<crate::alloc::SegAlloc>,
    pub(crate) def_q: RefCell<VecDeque<Queued>>,
    pub(crate) comp_q: RefCell<VecDeque<CompItem>>,
    pub(crate) active_ops: Cell<usize>,
    /// Next per-origin span id. Declared here, **allocated only by**
    /// `crate::trace::new_span_id` (lint-enforced) so span identity, RPC
    /// reply matching and sanitizer access records share one sequence.
    pub(crate) next_op: Cell<u64>,
    /// The span of the delivered item currently executing on this rank
    /// (`(origin, op)`; `(0, 0)` = none). Maintained by
    /// `crate::trace::SpanGuard` around RPC/reply/system-AM handlers; read
    /// by `crate::trace::new_tag` to record causal parentage.
    pub(crate) cur_span: Cell<(u32, u64)>,
    /// Promises of in-flight RPCs, keyed by op id, awaiting their replies.
    pub(crate) reply_tbl: RefCell<FastMap<u64, Rc<dyn crate::future::ReplySink>>>,
    pub(crate) dist_next: Cell<u64>,
    pub(crate) dist_tbl: RefCell<FastMap<u64, Rc<dyn Any>>>,
    /// Continuations parked until a dist-object id is registered (RPCs that
    /// raced ahead of local construction; UPC++ queues these too).
    pub(crate) dist_waiters: RefCell<FastMap<u64, Vec<Thunk>>>,
    pub(crate) coll: RefCell<CollState>,
    pub(crate) rank_state: RefCell<FastMap<std::any::TypeId, Rc<dyn Any>>>,
    /// Per-target RPC aggregation buffers (see `crate::agg`).
    pub(crate) agg: RefCell<crate::agg::AggState>,
    /// Statistics counters.
    pub stats: CtxStats,
    /// Always-on metrics registry and flight recorder (see `crate::metrics`).
    /// Counter cells follow the same single-writer engine-lock discipline as
    /// [`CtxStats`]; the flight ring inside is relaxed atomics so the panic
    /// hook can read it from any thread.
    pub(crate) metrics: crate::metrics::Metrics,
    /// Event-trace ring buffer and in-queue histograms (see `crate::trace`).
    pub(crate) trace: RefCell<TraceState>,
    /// Fast gate every trace hook checks: the *only* cost tracing adds to
    /// the hot path while disabled.
    pub(crate) trace_on: Cell<bool>,
    /// Whether contiguous RMA takes the eager fast path (smp only; always
    /// `false` under sim so modeled timings never depend on a host knob).
    /// Seeded from `UPCXX_EAGER` (unset/`1` = on, `0` = off); togglable per
    /// rank via `crate::rma::set_eager` for A/B measurement.
    pub(crate) eager: Cell<bool>,
    /// Sanitizer state: config, counters, retained reports (see
    /// `crate::san`).
    pub(crate) san: RefCell<crate::san::SanCtx>,
    /// Fast gate every sanitizer hook checks (same discipline as
    /// `trace_on`): the only cost the sanitizer adds while disabled.
    pub(crate) san_on: Cell<bool>,
    /// Restricted-context depth: >0 while an RPC/reply/system-AM callback
    /// executes on this rank (maintained unconditionally; *checked* only
    /// when the sanitizer is enabled).
    pub(crate) san_depth: Cell<u32>,
    /// Handle to the world-shared shadow state.
    pub(crate) san_shared: crate::san::SanShared,
    /// Whether the sanitizer's shadow state actually mirrors *remote*
    /// ranks. True on in-process conduits (one shared `SanWorld`); false on
    /// the proc conduit, where each process sees only its own allocations —
    /// remote-target shadow checks would false-positive and are skipped
    /// (local checks, restricted-context and vector clocks still run).
    pub(crate) san_remote: bool,
    /// Cached `am_mode() == Frames`: AMs must ship as serialized frames
    /// (proc) rather than boxed closures (smp/sim).
    pub(crate) frames: bool,
    /// Gated re-entrant engine lock serializing the master and progress
    /// personas over this context (see `crate::persona`). Skipped entirely
    /// (one predicted branch) while `progress_on` is false.
    pub(crate) engine: crate::persona::EngineLock,
    /// Lock-free handoff queue of thunks the progress persona parked for
    /// the master persona (reply handlers, collective continuations —
    /// everything that fulfills user-visible futures).
    pub(crate) handoff: crate::persona::Handoff,
    /// Fast gate: `true` while the opt-in progress thread is running.
    pub(crate) progress_on: AtomicBool,
    /// The running progress thread, if any (master-persona state).
    pub(crate) progress_thread: RefCell<Option<crate::persona::ProgressThread>>,
}

// SAFETY: `RankCtx` is shared between exactly two threads — the rank's
// master thread and its opt-in progress thread (`crate::persona`). Every
// access to its interior-mutable state (`RefCell`s / `Cell`s) from either
// thread happens while holding the per-rank engine lock whenever the
// progress thread is enabled (`progress_on`); while it is disabled (the
// default) only the master thread touches the context, exactly as before
// this type was `Send`/`Sync`. The engine lock's Acquire/Release pair
// provides the happens-before edge for all non-atomic state, including the
// smp conduit inbox stash and the sanitizer's shadow handles.
unsafe impl Send for RankCtx {}
unsafe impl Sync for RankCtx {}

thread_local! {
    static CTX: RefCell<Option<Arc<RankCtx>>> = const { RefCell::new(None) };
}

/// The calling thread's (or simulated rank's) context. Panics outside a
/// UPC++ world — i.e. outside `run_spmd` rank mains or sim drivers.
pub(crate) fn ctx() -> Arc<RankCtx> {
    try_ctx().expect("no upcxx context on this thread: call inside run_spmd / SimRuntime drivers")
}

/// Like [`ctx`] but returns `None` outside a world.
pub(crate) fn try_ctx() -> Option<Arc<RankCtx>> {
    CTX.with(|c| c.borrow().clone())
}

/// Panic-proof variant of [`try_ctx`] for the flight-recorder panic hook:
/// returns `None` instead of panicking when the thread-local is mid-teardown
/// or its slot is already borrowed (a `with_ctx` swap in progress). A plain
/// `try_ctx` there could double-panic inside the hook and abort before the
/// flight dump is written.
pub(crate) fn panic_ctx() -> Option<Arc<RankCtx>> {
    CTX.try_with(|c| c.try_borrow().ok().and_then(|s| s.clone()))
        .ok()
        .flatten()
}

/// Install `c` for the duration of `f` (restores the previous context after;
/// the sim conduit nests these when ranks trigger one another synchronously).
pub(crate) fn with_ctx(c: Arc<RankCtx>, f: impl FnOnce()) {
    let prev = CTX.with(|slot| slot.borrow_mut().replace(c));
    f();
    CTX.with(|slot| *slot.borrow_mut() = prev);
}

impl RankCtx {
    /// Build a rank context over a real-transport conduit. `cfg` is the
    /// typed knob set (see [`crate::config::Config`]) — the single place
    /// `UPCXX_*` env vars are interpreted.
    pub(crate) fn new_cond(
        h: Arc<dyn Conduit>,
        san_shared: crate::san::SanShared,
        cfg: &crate::config::Config,
    ) -> Arc<RankCtx> {
        let seg = h.seg_size();
        let san_cfg = cfg.san;
        let mut san = crate::san::SanCtx::new();
        san.cfg = san_cfg;
        let frames = h.am_mode() == gasnet::AmMode::Frames;
        Arc::new(RankCtx {
            me: h.rank_me(),
            n: h.rank_n(),
            backend: Backend::Cond(h),
            alloc: RefCell::new(crate::alloc::SegAlloc::new(seg)),
            def_q: RefCell::new(VecDeque::new()),
            comp_q: RefCell::new(VecDeque::new()),
            active_ops: Cell::new(0),
            next_op: Cell::new(1),
            cur_span: Cell::new((0, 0)),
            reply_tbl: RefCell::new(FastMap::default()),
            dist_next: Cell::new(0),
            dist_tbl: RefCell::new(FastMap::default()),
            dist_waiters: RefCell::new(FastMap::default()),
            coll: RefCell::new(CollState::default()),
            rank_state: RefCell::new(FastMap::default()),
            agg: RefCell::new(crate::agg::AggState::new()),
            stats: CtxStats::default(),
            metrics: crate::metrics::Metrics::new(),
            trace: RefCell::new(TraceState::new()),
            trace_on: Cell::new(false),
            eager: Cell::new(cfg.eager),
            san_on: Cell::new(san_cfg.enabled),
            san: RefCell::new(san),
            san_depth: Cell::new(0),
            san_shared,
            // Shadow state mirrors remote ranks only when every rank shares
            // this process's SanWorld — i.e. on in-process conduits.
            san_remote: !frames,
            frames,
            engine: crate::persona::EngineLock::new(),
            handoff: crate::persona::Handoff::new(),
            progress_on: AtomicBool::new(false),
            progress_thread: RefCell::new(None),
        })
    }

    pub(crate) fn new_sim(
        w: SimWorld,
        me: Rank,
        san_shared: crate::san::SanShared,
    ) -> Arc<RankCtx> {
        let seg = w.seg_size();
        let n = w.rank_n();
        let san_cfg = crate::san::env_config();
        let mut san = crate::san::SanCtx::new();
        san.cfg = san_cfg;
        Arc::new(RankCtx {
            me,
            n,
            backend: Backend::Sim(w),
            alloc: RefCell::new(crate::alloc::SegAlloc::new(seg)),
            def_q: RefCell::new(VecDeque::new()),
            comp_q: RefCell::new(VecDeque::new()),
            active_ops: Cell::new(0),
            next_op: Cell::new(1),
            cur_span: Cell::new((0, 0)),
            reply_tbl: RefCell::new(FastMap::default()),
            dist_next: Cell::new(0),
            dist_tbl: RefCell::new(FastMap::default()),
            dist_waiters: RefCell::new(FastMap::default()),
            coll: RefCell::new(CollState::default()),
            rank_state: RefCell::new(FastMap::default()),
            agg: RefCell::new(crate::agg::AggState::new()),
            stats: CtxStats::default(),
            metrics: crate::metrics::Metrics::new(),
            trace: RefCell::new(TraceState::new()),
            trace_on: Cell::new(false),
            eager: Cell::new(false),
            san_on: Cell::new(san_cfg.enabled),
            san: RefCell::new(san),
            san_depth: Cell::new(0),
            san_shared,
            san_remote: true,
            frames: false,
            engine: crate::persona::EngineLock::new(),
            handoff: crate::persona::Handoff::new(),
            progress_on: AtomicBool::new(false),
            progress_thread: RefCell::new(None),
        })
    }

    /// This rank's id.
    pub fn rank_me(&self) -> Rank {
        self.me
    }
    /// World size.
    pub fn rank_n(&self) -> usize {
        self.n
    }

    /// Software-cost table when running simulated; `None` on real conduits
    /// (real costs are real there).
    pub(crate) fn sw(&self) -> Option<SwCosts> {
        match &self.backend {
            Backend::Cond(_) => None,
            Backend::Sim(w) => Some(w.config().sw.clone()),
        }
    }

    /// Charge serialization cost for `bytes` (no-op on smp — the copy itself
    /// is the cost there).
    pub(crate) fn charge_ser(&self, bytes: usize) {
        if let Backend::Sim(w) = &self.backend {
            let per = w.config().sw.ser_per_byte;
            w.charge(self.me, per * bytes as u64);
        }
    }

    /// The trace clock: virtual picoseconds of this rank's local view of
    /// time under sim (monotone per rank), wall picoseconds since the
    /// world's launch epoch on smp (one epoch per world, shared by all
    /// ranks — see `smp::RankHandle::wall_ps`). Called by the tracer's
    /// (gated) hooks and by the always-on flight recorder's injection stamp.
    pub(crate) fn now_ps(&self) -> u64 {
        match &self.backend {
            Backend::Cond(h) => h.wall_ps(),
            Backend::Sim(w) => w.rank_now(self.me).as_ps(),
        }
    }

    /// Record one trace event for `tag` with this rank as origin. Returns
    /// the timestamp, or 0 when tracing is disabled (the single-branch gate
    /// every hook pays).
    #[inline]
    pub(crate) fn emit(&self, phase: Phase, tag: TraceTag) -> u64 {
        if tag.tid == 0 || !self.trace_on.get() {
            return 0;
        }
        self.emit_slow(phase, tag, self.me as u32, crate::trace::FlushReason::None)
    }

    /// Record one trace event with an explicit origin rank (target-side
    /// events of RPC-family ops) and/or flush reason (aggregation events).
    #[inline]
    pub(crate) fn emit_from(
        &self,
        phase: Phase,
        tag: TraceTag,
        origin: u32,
        reason: crate::trace::FlushReason,
    ) -> u64 {
        if tag.tid == 0 || !self.trace_on.get() {
            return 0;
        }
        self.emit_slow(phase, tag, origin, reason)
    }

    /// Out-of-line so the disabled-path branch in `emit`/`emit_from` stays
    /// a compact forward jump in the progress engine's hot code.
    #[cold]
    #[inline(never)]
    fn emit_slow(
        &self,
        phase: Phase,
        tag: TraceTag,
        origin: u32,
        reason: crate::trace::FlushReason,
    ) -> u64 {
        let ts = self.now_ps();
        self.trace.borrow_mut().push(TraceEvent {
            rank: self.me as u32,
            origin,
            op: tag.tid,
            kind: tag.kind,
            phase,
            peer: tag.peer,
            bytes: tag.bytes,
            reason,
            ts_ps: ts,
            parent_origin: tag.parent_origin,
            parent_op: tag.parent_op,
            persona: crate::persona::current_id(),
        });
        ts
    }

    /// Build the trace identity for a new operation and emit its `Inject`
    /// event. Ids are allocated unconditionally — an op's identity must
    /// survive the wire so a *traced* rank can record deliveries from ranks
    /// that are not tracing — but all *trace* emission gates on the
    /// recording rank's `trace_on`. The always-on metrics layer records the
    /// injection too (flight ring + payload histogram, a few relaxed/cell
    /// writes — see `crate::metrics`); when tracing is disabled that plus
    /// one branch is the whole injection hook.
    #[inline]
    pub(crate) fn op_tag(&self, kind: crate::trace::OpKind, peer: u32, bytes: u32) -> TraceTag {
        let tag = crate::trace::new_tag(self, kind, peer, bytes);
        crate::metrics::on_inject(self, tag);
        if self.trace_on.get() {
            self.emit_inject(tag);
        }
        tag
    }

    /// Traced arm of [`Self::op_tag`].
    #[cold]
    #[inline(never)]
    fn emit_inject(&self, tag: TraceTag) {
        self.emit_slow(
            Phase::Inject,
            tag,
            self.me as u32,
            crate::trace::FlushReason::None,
        );
    }

    /// Traced arm of [`Self::issue`]: `Conduit` event, defQ-wait histogram
    /// sample, actQ high-water mark.
    #[cold]
    #[inline(never)]
    fn issue_traced(&self, tag: TraceTag, t_inject: u64) {
        let ts = self.emit_slow(
            Phase::Conduit,
            tag,
            self.me as u32,
            crate::trace::FlushReason::None,
        );
        self.trace
            .borrow_mut()
            .def_q_wait
            .record(ts.saturating_sub(t_inject));
        let act = self.active_ops.get() as u64;
        if act > self.stats.act_q_hwm.get() {
            self.stats.act_q_hwm.set(act);
        }
    }

    /// Enqueue an operation in defQ and run internal progress (every
    /// communication call is an internal-progress opportunity — §III).
    /// The caller has already emitted the op's `Inject` event.
    ///
    /// The engine is monomorphized over traced-ness: one `trace_on` load
    /// here selects either the traced instantiation of the inject → issue →
    /// complete chain or an untraced one whose machine code carries no trace
    /// state at all — the disabled hot path pays exactly this one branch.
    pub(crate) fn inject(&self, op: DefOp, tag: TraceTag) {
        if self.trace_on.get() {
            self.inject_go::<true>(op, tag);
        } else {
            self.inject_go::<false>(op, tag);
        }
    }

    fn inject_go<const TRACED: bool>(&self, op: DefOp, tag: TraceTag) {
        if TRACED && tag.tid != 0 {
            self.inject_traced(op, tag);
        } else {
            self.def_q.borrow_mut().push_back(Queued {
                tag,
                t_inject: 0,
                op,
            });
        }
        self.progress_internal_go::<TRACED>();
    }

    /// Traced arm of [`Self::inject`], out-of-line so the disabled path stays
    /// a bare queue push.
    #[cold]
    #[inline(never)]
    fn inject_traced(&self, op: DefOp, tag: TraceTag) {
        let t_inject = self.now_ps();
        let mut q = self.def_q.borrow_mut();
        q.push_back(Queued { tag, t_inject, op });
        let d = q.len() as u64;
        if d > self.stats.def_q_hwm.get() {
            self.stats.def_q_hwm.set(d);
        }
    }

    /// Internal progress: drain defQ into the conduit (defQ -> actQ).
    pub(crate) fn progress_internal(&self) {
        if self.trace_on.get() {
            self.progress_internal_go::<true>();
        } else {
            self.progress_internal_go::<false>();
        }
    }

    fn progress_internal_go<const TRACED: bool>(&self) {
        loop {
            let op = self.def_q.borrow_mut().pop_front();
            let Some(op) = op else { break };
            self.issue::<TRACED>(op);
        }
    }

    /// Hand one operation to the conduit. In the untraced instantiation the
    /// tag fields are dead: the compiler drops every trace read from the
    /// conduit arms, restoring the pre-trace code shape.
    fn issue<const TRACED: bool>(&self, q: Queued) {
        let Queued { tag, t_inject, op } = q;
        self.active_ops.set(self.active_ops.get() + 1);
        if TRACED && tag.tid != 0 {
            self.issue_traced(tag, t_inject);
        }
        match (&self.backend, op) {
            (
                Backend::Cond(h),
                DefOp::Put {
                    target,
                    dst_off,
                    bytes,
                    done,
                },
            ) => {
                // Shared memory: the one-sided copy completes synchronously;
                // user-visible completion still goes through compQ. The
                // staging buffer came from the serialization pool (deferred
                // path) and is returned the moment the copy lands.
                h.put_bytes(target, dst_off, &bytes);
                crate::ser::recycle_buf(bytes);
                self.complete::<TRACED>(tag, done);
            }
            (
                Backend::Cond(h),
                DefOp::Get {
                    target,
                    src_off,
                    len,
                    done,
                },
            ) => {
                let mut buf = crate::ser::pooled_filled(len);
                h.get_bytes(target, src_off, &mut buf);
                self.stats
                    .bytes_in
                    .set(self.stats.bytes_in.get() + len as u64);
                self.complete::<TRACED>(tag, Box::new(move || done(buf)));
            }
            (Backend::Cond(h), DefOp::Am { target, am, .. }) => {
                h.send_am(target, am);
                self.active_ops.set(self.active_ops.get() - 1);
            }
            (Backend::Cond(h), DefOp::AmBatch { target, batch, .. }) => {
                h.send_am_batch(target, batch);
                self.active_ops.set(self.active_ops.get() - 1);
            }
            (
                Backend::Cond(h),
                DefOp::Amo {
                    target,
                    off,
                    op,
                    operand,
                    compare,
                    done,
                },
            ) => {
                use gasnet::sim::AmoOp::*;
                let old = match op {
                    FetchAdd => h.atomic_fetch_add_u64(target, off, operand),
                    Load => h.atomic_load_u64(target, off),
                    Store => {
                        let old = h.atomic_load_u64(target, off);
                        h.atomic_store_u64(target, off, operand);
                        old
                    }
                    CompareExchange => h.atomic_cas_u64(target, off, compare, operand),
                };
                self.complete::<TRACED>(tag, Box::new(move || done(old)));
            }
            (
                Backend::Sim(w),
                DefOp::Put {
                    target,
                    dst_off,
                    bytes,
                    done,
                },
            ) => {
                let sw = &w.config().sw;
                let o = sw.gex_rma_inject + sw.upcxx_op_overhead;
                let me = self.me;
                // Completion lands in compQ and drains at the next progress
                // (delivery events on the sim conduit run with our ctx).
                w.put(
                    me,
                    target,
                    dst_off,
                    bytes,
                    o,
                    Box::new(move || {
                        let c = ctx();
                        c.complete::<TRACED>(tag, done);
                        c.progress_user();
                    }),
                );
            }
            (
                Backend::Sim(w),
                DefOp::Get {
                    target,
                    src_off,
                    len,
                    done,
                },
            ) => {
                let sw = &w.config().sw;
                let o = sw.gex_rma_inject + sw.upcxx_op_overhead;
                w.get(
                    self.me,
                    target,
                    src_off,
                    len,
                    o,
                    Box::new(move |data| {
                        let c = ctx();
                        c.stats
                            .bytes_in
                            .set(c.stats.bytes_in.get() + data.len() as u64);
                        c.complete::<TRACED>(tag, Box::new(move || done(data)));
                        c.progress_user();
                    }),
                );
            }
            (
                Backend::Sim(w),
                DefOp::Am {
                    target,
                    wire_bytes,
                    am,
                },
            ) => {
                let gasnet::Am::Item(item) = am else {
                    unreachable!("sim is an in-process conduit; AMs travel as items")
                };
                let sw = &w.config().sw;
                let o = sw.gex_am_inject + sw.upcxx_op_overhead;
                w.am(self.me, target, wire_bytes, o, item);
                self.active_ops.set(self.active_ops.get() - 1);
            }
            (
                Backend::Sim(w),
                DefOp::AmBatch {
                    target,
                    wire_bytes,
                    batch,
                },
            ) => {
                // One injection overhead and one modeled transfer for the
                // whole batch — the per-message gap amortization that makes
                // aggregation pay off on the fine-grained path.
                let gasnet::Batch::Item(item) = batch else {
                    unreachable!("sim is an in-process conduit; AMs travel as items")
                };
                let sw = &w.config().sw;
                let o = sw.gex_am_inject + sw.upcxx_op_overhead;
                w.am(self.me, target, wire_bytes, o, item);
                self.active_ops.set(self.active_ops.get() - 1);
            }
            (
                Backend::Sim(w),
                DefOp::Amo {
                    target,
                    off,
                    op,
                    operand,
                    compare,
                    done,
                },
            ) => {
                let sw = &w.config().sw;
                let o = sw.gex_rma_inject + sw.upcxx_op_overhead;
                w.amo(
                    self.me,
                    target,
                    off,
                    op,
                    operand,
                    compare,
                    o,
                    Box::new(move |old| {
                        let c = ctx();
                        c.complete::<TRACED>(tag, Box::new(move || done(old)));
                        c.progress_user();
                    }),
                );
            }
        }
    }

    /// Move a finished operation's user-visible effect to compQ
    /// (actQ -> compQ transition), emitting its `Deliver` event. `TRACED` is
    /// sampled where the op entered the engine (sim completion callbacks run
    /// later and keep the instantiation they were issued under).
    /// Force-inlined: the seed inlined this push into the conduit arms of
    /// [`Self::issue`], and an out-of-line call here is measurable on the
    /// smp fast path.
    #[inline(always)]
    fn complete<const TRACED: bool>(&self, tag: TraceTag, eff: Box<dyn FnOnce()>) {
        self.active_ops.set(self.active_ops.get().saturating_sub(1));
        if TRACED && tag.tid != 0 {
            self.complete_traced(tag, CompEff::Thunk(eff));
        } else {
            self.comp_q.borrow_mut().push_back(CompItem {
                tag,
                t_deliver: 0,
                eff: CompEff::Thunk(eff),
            });
        }
    }

    /// Traced arm of [`Self::complete`]: `Deliver` event plus the compQ
    /// high-water mark.
    #[cold]
    #[inline(never)]
    fn complete_traced(&self, tag: TraceTag, eff: CompEff) {
        let t_deliver = self.emit_slow(
            Phase::Deliver,
            tag,
            self.me as u32,
            crate::trace::FlushReason::None,
        );
        let mut q = self.comp_q.borrow_mut();
        q.push_back(CompItem {
            tag,
            t_deliver,
            eff,
        });
        let d = q.len() as u64;
        if d > self.stats.comp_q_hwm.get() {
            self.stats.comp_q_hwm.set(d);
        }
    }

    /// compQ entry for an operation whose data already moved at injection
    /// (the eager RMA fast path): no defQ traversal, no actQ epoch — but
    /// user-visible completion still waits for user-level progress, so the
    /// paper's attentiveness semantics hold exactly. The traced arm emits
    /// the `Conduit` and `Deliver` phases here, telescoped onto the
    /// injection timestamp, and records a truthful zero defQ-wait sample so
    /// eager and deferred runs stay comparable histogram-for-histogram.
    #[inline]
    pub(crate) fn eager_complete(&self, tag: TraceTag, eff: CompEff) {
        if self.trace_on.get() && tag.tid != 0 {
            self.eager_complete_traced(tag, eff);
        } else {
            self.comp_q.borrow_mut().push_back(CompItem {
                tag,
                t_deliver: 0,
                eff,
            });
        }
    }

    /// Traced arm of [`Self::eager_complete`].
    #[cold]
    #[inline(never)]
    fn eager_complete_traced(&self, tag: TraceTag, eff: CompEff) {
        self.emit_slow(
            Phase::Conduit,
            tag,
            self.me as u32,
            crate::trace::FlushReason::None,
        );
        // Zero time spent deferred — by construction, not by omission.
        self.trace.borrow_mut().def_q_wait.record(0);
        self.complete_traced(tag, eff);
    }

    /// Track the gap between consecutive user-progress calls — the paper's
    /// *attentiveness* concern (§VII), tracked only while tracing is on.
    #[cold]
    #[inline(never)]
    fn note_progress_gap(&self) {
        let ts = self.now_ps();
        let last = self.stats.last_progress_ps.get();
        if last != 0 {
            let gap = ts.saturating_sub(last);
            if gap > self.stats.max_progress_gap_ps.get() {
                self.stats.max_progress_gap_ps.set(gap);
            }
        }
        self.stats.last_progress_ps.set(ts);
    }

    /// Progress-persona twin of [`Self::note_progress_gap`]: the gap between
    /// the progress thread's poll iterations (tracing only; called from the
    /// progress loop while it holds the engine lock).
    #[cold]
    #[inline(never)]
    pub(crate) fn note_progress_gap_prog(&self) {
        let ts = self.now_ps();
        let last = self.stats.last_progress_prog_ps.get();
        if last != 0 {
            let gap = ts.saturating_sub(last);
            if gap > self.stats.max_progress_gap_prog_ps.get() {
                self.stats.max_progress_gap_prog_ps.set(gap);
            }
        }
        self.stats.last_progress_prog_ps.set(ts);
    }

    /// User-level progress: aggregation flush, internal progress, conduit
    /// poll (smp), handoff drain, compQ drain. This is the only place
    /// `.then` callbacks, future fulfillments and (on the master persona)
    /// incoming RPC bodies execute.
    pub(crate) fn progress_user(&self) {
        // Serialize against the opt-in progress persona. One predicted
        // branch when the thread is off; re-entrant, so nested progress from
        // inside drained effects is fine. Never held across a wait() spin —
        // each progress_user call acquires and releases it independently.
        let _g = crate::persona::lock(self);
        // Always-on metrics: one counter bump; the spacing probe and the
        // interval dump hide behind their own amortized/disabled gates.
        crate::metrics::on_progress(self);
        // One flag load covers the entry and exit stamps; the per-item check
        // in the drain loop below stays live because a drained effect may
        // itself reconfigure tracing.
        let tracing = self.trace_on.get();
        if tracing {
            self.note_progress_gap();
        }
        // Buffered aggregated payloads leave at every progress opportunity,
        // so a blocking wait can never deadlock on this rank's own buffers.
        crate::agg::flush_all_ctx(self, crate::trace::FlushReason::Progress);
        self.progress_internal();
        if let Backend::Cond(h) = &self.backend {
            // Incoming items run here (and enqueue any effects into compQ).
            // Frame-mode conduits hand serialized AMs to the decoder instead.
            h.poll(64, &mut crate::frame::exec_frame_sink);
        }
        // Thunks the progress persona parked for the master persona: reply
        // handlers and collective continuations that fulfill user-visible
        // futures run here, preserving single-threaded callback semantics.
        crate::persona::drain_handoff(self);
        let mut drained: u64 = 0;
        loop {
            // Bound the smp drain at one 64-item chunk per call so a flooded
            // rank cannot make a single user-progress call arbitrarily long
            // (`wait()` spins on progress, so blocked callers still drain
            // everything). The sim conduit drains fully: its per-delivery
            // progress calls would otherwise strand effects at quiescence.
            if drained == 64 && matches!(self.backend, Backend::Cond(_)) {
                break;
            }
            let item = self.comp_q.borrow_mut().pop_front();
            let Some(CompItem {
                tag,
                t_deliver,
                eff,
            }) = item
            else {
                break;
            };
            self.stats.comp_items.set(self.stats.comp_items.get() + 1);
            match eff {
                CompEff::Thunk(f) => f(),
                CompEff::EagerRma { p, target, op, san } => {
                    if san {
                        crate::san::mark_complete(self, target, op);
                    }
                    p.fulfill_anonymous(1);
                }
            }
            drained += 1;
            if tracing && tag.tid != 0 {
                self.drain_traced(tag, t_deliver);
            }
        }
        if drained > 0 {
            self.stats
                .comp_chunks
                .set(self.stats.comp_chunks.get() + drained.div_ceil(64));
        }
        // Handlers executed above may have buffered replies or forwards;
        // pushing them out now keeps round-trip latency at one progress call.
        crate::agg::flush_all_ctx(self, crate::trace::FlushReason::Progress);
        self.progress_internal();
        if tracing {
            self.stamp_progress_exit();
        }
    }

    /// Traced arm of the compQ drain loop: `Complete` event plus the
    /// compQ-wait histogram sample.
    #[cold]
    #[inline(never)]
    fn drain_traced(&self, tag: TraceTag, t_deliver: u64) {
        let ts = self.emit_slow(
            Phase::Complete,
            tag,
            self.me as u32,
            crate::trace::FlushReason::None,
        );
        // `t_deliver == 0` marks an item delivered before tracing was
        // enabled; its wait would be measured against the epoch, not the
        // delivery, so it is excluded from the histogram.
        if t_deliver != 0 {
            self.trace
                .borrow_mut()
                .comp_q_wait
                .record(ts.saturating_sub(t_deliver));
        }
    }

    /// Stamp the exit of a user-progress call, so compQ drain time is not
    /// itself counted as inattentiveness.
    #[cold]
    #[inline(never)]
    fn stamp_progress_exit(&self) {
        self.stats.last_progress_ps.set(self.now_ps());
    }
}

/// This rank's id within the world (paper: `upcxx::rank_me()`).
pub fn rank_me() -> Rank {
    ctx().me
}

/// Number of ranks in the world (paper: `upcxx::rank_n()`).
pub fn rank_n() -> usize {
    ctx().n
}

/// Make user-level progress: advance deferred operations and run completed
/// operations' callbacks and incoming RPCs (paper: `upcxx::progress()`).
pub fn progress() {
    let c = ctx();
    // Re-entrant user-level progress from inside an RPC/reply callback is
    // the paper's restricted-context violation; with the sanitizer on it is
    // diagnosed instead of silently re-entering the engine.
    if c.san_on.get() && c.san_depth.get() > 0 {
        crate::san::restricted_violation(&c, "progress()");
    }
    c.progress_user();
}

/// Spin on user progress until `pred` holds (the engine behind
/// `Future::wait`; the paper notes `wait` "is simply a spin loop around
/// progress"). Only the smp conduit supports blocking; under sim this
/// panics unless the predicate is already true. Public so layers above
/// (e.g. the v0.1 compatibility events) can block on their own conditions.
///
/// On smp, if another rank of the world has panicked, the wait panics too
/// (naming that rank) instead of spinning on a peer that will never answer.
pub fn wait_until(pred: impl Fn() -> bool) {
    if pred() {
        return;
    }
    let c = ctx();
    // A blocking wait inside an RPC/reply callback can never be satisfied:
    // the callback *is* the progress engine's current item, so spinning on
    // progress here self-deadlocks (smp) or hangs the virtual timeline
    // (sim). The check sits after the fast path above on purpose — waiting
    // on an already-ready future inside a callback is harmless.
    if c.san_on.get() && c.san_depth.get() > 0 {
        crate::san::restricted_violation(&c, "wait()/barrier()");
    }
    match &c.backend {
        Backend::Cond(h) => {
            let mut spins: u32 = 0;
            while !pred() {
                c.progress_user();
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(32) {
                    // A dead peer may be the one this wait needs: fail the
                    // wait rather than spin forever.
                    if let Some(dead) = h.dead_rank() {
                        panic!(
                            "upcxx: rank {} cannot finish wait()/barrier(): rank {dead} panicked",
                            c.me
                        );
                    }
                    std::thread::yield_now();
                }
            }
        }
        Backend::Sim(_) => {
            // One chance: deferred work may satisfy the predicate without
            // needing virtual time to pass.
            c.progress_user();
            assert!(
                pred(),
                "blocking wait() cannot advance virtual time under the sim conduit; \
                 restructure the driver with then()-chains"
            );
        }
    }
}

/// Per-rank user state keyed by type: returns (creating on first use via
/// `init`) this rank's instance of `T`. This is how applications keep
/// "process-local" state (like the DHT's `local_map`) that RPC handlers can
/// reach — the moral equivalent of a C++ global in SPMD UPC++ programs,
/// made rank-correct under the sim conduit where many ranks share one thread.
pub fn rank_state<T: 'static>(init: impl FnOnce() -> T) -> Rc<T> {
    let c = ctx();
    // Handlers running on the progress persona reach rank state through this
    // same map; the engine lock serializes the registry's Rc bookkeeping.
    // (Ownership of the *values* follows the persona rules — DESIGN.md §4.)
    let _g = crate::persona::lock(&c);
    let key = std::any::TypeId::of::<T>();
    if let Some(v) = c.rank_state.borrow().get(&key) {
        return v
            .clone()
            .downcast::<T>()
            .expect("rank_state type confusion");
    }
    let v: Rc<T> = Rc::new(init());
    c.rank_state.borrow_mut().insert(key, v.clone());
    v
}

/// A `Future<()>` that is already complete — start of a conjunction chain
/// (paper Fig. 7 line 6: `f_conj = upcxx::make_future()`).
pub fn make_ready_future() -> Future<()> {
    crate::future::make_future(())
}
