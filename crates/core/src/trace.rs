//! Progress-engine observability: structured event tracing and the typed
//! [`RuntimeStats`] snapshot.
//!
//! The paper's central structural claim (§III, §VII) is that a user-driven
//! three-queue progress engine delivers attentiveness and overlap without
//! hidden threads. This module makes that claim *observable*: every
//! operation the runtime injects gets an id and emits one event per queue
//! transition —
//!
//! * [`Phase::Inject`] — the operation enters the deferred queue (defQ); for
//!   aggregated RPC payloads this is the moment the payload enters the
//!   per-target coalescing buffer (morally part of defQ);
//! * [`Phase::Conduit`] — internal progress hands the operation to the
//!   conduit (defQ → actQ); for buffered payloads, the flush that ships the
//!   carrying batch (the event records the [`FlushReason`]);
//! * [`Phase::Deliver`] — the conduit reports the operation: an RMA
//!   completion callback lands in compQ at the initiator, or an incoming
//!   RPC/system-AM handler begins executing at the target (actQ → compQ);
//! * [`Phase::Complete`] — the user-visible effect runs: user-level progress
//!   drains the compQ entry at the initiator, an RPC's reply fulfills its
//!   promise, or a fire-and-forget handler returns at the target.
//!
//! Every operation therefore produces **exactly four events**, possibly
//! split across two ranks (an `rpc`'s Deliver is recorded by the target).
//! Events carry the recording rank, the originating rank + per-origin
//! sequence number (together a global op id), the op kind, a peer rank, a
//! byte count and a timestamp: **virtual picoseconds** under the sim conduit
//! (`SimWorld::rank_now`, monotone per rank) or wall-clock picoseconds since
//! process start on smp. Events land in a per-rank ring buffer — single
//! writer, no locks, overwrite-oldest beyond [`TraceConfig::capacity`] — and
//! export as Chrome-trace JSON ([`export_chrome`]) loadable in Perfetto or
//! `chrome://tracing`.
//!
//! Tracing is runtime-gated: [`set_config`] flips a per-rank flag, and every
//! hook in the hot path is a single load-and-branch when disabled (verified
//! by the `rput` latency microbenches in `crates/bench`). Alongside the
//! stream, the engine keeps per-queue depth high-water marks, time-in-queue
//! histograms ([`LatencyHist`]) and an *attentiveness* metric — the maximum
//! gap between user-progress calls, §VII's concern — all surfaced through
//! [`runtime_stats`].
//!
//! ## Causal spans
//!
//! Every operation is a **span** identified by `(origin, op)`; the id rides
//! the wire inside the modeled AM header ([`crate::wire::SPAN_BYTES`]), so a
//! remote Deliver is always attributable to its originating Inject. On top
//! of identity, spans record **parentage**: while a delivered item (RPC
//! body, reply continuation, system-AM handler) executes, the rank's
//! *current span* is set to that item's span, and any operation injected
//! inside it — the reply an RPC sends back, an rput issued from a handler, a
//! `.then`-chained follow-up RPC — records it as `(parent_origin,
//! parent_op)`. Those links are what [`crate::prof`] walks to reconstruct
//! cross-rank causal chains (critical paths) and what [`export_chrome`]
//! turns into Perfetto *flow events* (cross-rank arrows). Span ids are
//! allocated **only** in this module ([`new_span_id`]; lint-enforced), which
//! keeps the id space and the reply-matching key space unified.

use crate::ctx::{ctx, Backend, RankCtx};
use std::io::{self, Write};

/// Runtime configuration of the tracing subsystem (per rank).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record events at all. Off by default: every hook reduces to one
    /// branch on a per-rank flag.
    pub enabled: bool,
    /// Ring-buffer capacity in events; beyond it the oldest events are
    /// overwritten (the drop count is reported in [`RuntimeStats`]).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 1 << 16,
        }
    }
}

/// Which queue transition an event records (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Operation entered defQ (or the aggregation buffer).
    Inject,
    /// Operation handed to the conduit (defQ → actQ).
    Conduit,
    /// Conduit reported the operation (actQ → compQ / handler start).
    Deliver,
    /// User-visible effect ran (compQ drain / promise fulfilled / handler
    /// returned).
    Complete,
}

impl Phase {
    /// Stable name (used in the Chrome export and CI greps).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Inject => "Inject",
            Phase::Conduit => "Conduit",
            Phase::Deliver => "Deliver",
            Phase::Complete => "Complete",
        }
    }
}

/// What kind of operation an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// One-sided put.
    Put,
    /// One-sided get.
    Get,
    /// Remote atomic.
    Amo,
    /// Round-trip RPC (its Complete is the initiator-side promise
    /// fulfillment; the reply travels as a separate [`OpKind::Reply`] op).
    Rpc,
    /// Fire-and-forget RPC.
    RpcFf,
    /// An RPC reply in flight back to the initiator.
    Reply,
    /// Internal system AM (collective flags and payloads).
    SysAm,
    /// An aggregated batch shipped by `upcxx::agg` (the member payloads keep
    /// their own ids; the batch is one more traced op).
    Batch,
}

impl OpKind {
    /// Stable name (used in the Chrome export).
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Put => "Put",
            OpKind::Get => "Get",
            OpKind::Amo => "Amo",
            OpKind::Rpc => "Rpc",
            OpKind::RpcFf => "RpcFf",
            OpKind::Reply => "Reply",
            OpKind::SysAm => "SysAm",
            OpKind::Batch => "Batch",
        }
    }
}

/// Why an aggregation buffer was flushed (recorded on the Conduit event of
/// each flushed member and on the batch's Inject event).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// Not a flush-related event.
    None,
    /// The buffer reached `AggConfig::max_bytes`.
    Threshold,
    /// An oversize payload (or a system AM) forced the buffer out first to
    /// preserve per-target ordering.
    Ordering,
    /// User-level progress ran.
    Progress,
    /// The rank entered a barrier (quiescence).
    Barrier,
    /// Explicit `upcxx::flush_all()`.
    Explicit,
    /// The tail of a delivered item/batch flushed buffered replies.
    ItemTail,
    /// `set_agg_config` drained buffers before reconfiguring.
    Reconfig,
}

impl FlushReason {
    /// Stable name (used in the Chrome export).
    pub fn as_str(self) -> &'static str {
        match self {
            FlushReason::None => "None",
            FlushReason::Threshold => "Threshold",
            FlushReason::Ordering => "Ordering",
            FlushReason::Progress => "Progress",
            FlushReason::Barrier => "Barrier",
            FlushReason::Explicit => "Explicit",
            FlushReason::ItemTail => "ItemTail",
            FlushReason::Reconfig => "Reconfig",
        }
    }
}

/// The per-op identity and accounting the runtime threads through its
/// queues: assigned once at the API entry point, carried by the deferred-
/// queue entry, completion-queue entry and item closures.
///
/// Ids are allocated unconditionally (an op's identity must survive the
/// wire so a traced rank can record deliveries originated by ranks that are
/// not tracing); whether events are *recorded* gates on the recording
/// rank's `trace_on` — see `RankCtx::op_tag` and the monomorphized
/// inject → issue → complete chain in `ctx.rs`. `tid == 0` never names a
/// real op and is treated as untraceable wherever it appears.
#[derive(Clone, Copy)]
pub(crate) struct TraceTag {
    /// Per-origin sequence number, starting at 1 ((origin, tid) is
    /// globally unique); 0 never names a real op.
    pub tid: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// The other rank involved (target for outgoing, initiator for replies).
    pub peer: u32,
    /// Payload bytes accounted to the op.
    pub bytes: u32,
    /// Origin rank of the causal parent span (the delivered item whose
    /// handler injected this op); meaningful only when `parent_op != 0`.
    pub parent_origin: u32,
    /// Parent span's per-origin sequence number; 0 = injected outside any
    /// delivered item (application top level).
    pub parent_op: u64,
}

/// Allocate a fresh span id on rank `c`. This is the **only** allocation
/// site of the per-origin sequence (lint-enforced: `next_op` is read/written
/// here alone) — RPC reply matching, sanitizer access records and event
/// tracing all draw from this one sequence, so a span id doubles as the
/// reply-table key and `(origin, id)` is globally unique across all uses.
pub(crate) fn new_span_id(c: &RankCtx) -> u64 {
    let id = c.next_op.get();
    c.next_op.set(id + 1);
    id
}

/// Build the trace identity for a new operation on rank `c`: a fresh span id
/// plus the causal parent (the span of the delivered item currently
/// executing on this rank, if any).
pub(crate) fn new_tag(c: &RankCtx, kind: OpKind, peer: u32, bytes: u32) -> TraceTag {
    let (parent_origin, parent_op) = c.cur_span.get();
    TraceTag {
        tid: new_span_id(c),
        kind,
        peer,
        bytes,
        parent_origin,
        parent_op,
    }
}

/// RAII marker that a delivered item's handler is executing on rank `c`:
/// sets the rank's *current span* so everything injected inside the handler
/// records `(origin, op)` as its causal parent; restores the previous span
/// on drop (items can nest — a batch bracket around member handlers).
pub(crate) struct SpanGuard<'a> {
    c: &'a RankCtx,
    prev: (u32, u64),
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(c: &'a RankCtx, origin: u32, op: u64) -> SpanGuard<'a> {
        let prev = c.cur_span.replace((origin, op));
        SpanGuard { c, prev }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.c.cur_span.set(self.prev);
    }
}

/// One recorded queue-transition event.
///
/// `repr(C)`: events cross ranks when `prof.rs` gathers per-rank buffers,
/// so the layout must not depend on the compilation's field ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct TraceEvent {
    /// The rank that recorded the event.
    pub rank: u32,
    /// The rank that initiated the operation.
    pub origin: u32,
    /// Per-origin operation sequence number; `(origin, op)` is unique.
    pub op: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Queue transition.
    pub phase: Phase,
    /// The other rank involved in the operation.
    pub peer: u32,
    /// Payload bytes.
    pub bytes: u32,
    /// Flush reason (aggregation events only; `None` otherwise).
    pub reason: FlushReason,
    /// Timestamp in picoseconds: virtual time (sim) or wall time since the
    /// world's launch epoch (smp; one epoch per world, captured before any
    /// rank thread starts). Monotone per recording rank and mutually
    /// comparable across ranks of one world.
    pub ts_ps: u64,
    /// Origin rank of the causal parent span (see module docs); meaningful
    /// only when `parent_op != 0`.
    pub parent_origin: u32,
    /// Parent span's sequence number; 0 = no recorded parent (the op was
    /// injected outside any delivered item).
    pub parent_op: u64,
    /// Which persona of the recording rank recorded the event: 0 = master
    /// (the application thread), 1 = the opt-in progress persona
    /// ([`crate::persona`]). Always 0 while the progress thread is off.
    pub persona: u8,
}

/// A log2-bucketed latency histogram (picoseconds). Bucket `i` counts
/// samples in `[2^i, 2^(i+1))`; bucket 0 additionally holds zeros.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencyHist {
    counts: [u64; 64],
    max_ps: u64,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: [0; 64],
            max_ps: 0,
            total: 0,
        }
    }
}

impl LatencyHist {
    /// Record one sample.
    pub(crate) fn record(&mut self, ps: u64) {
        let b = if ps == 0 {
            0
        } else {
            63 - ps.leading_zeros() as usize
        };
        self.counts[b] += 1;
        self.total += 1;
        if ps > self.max_ps {
            self.max_ps = ps;
        }
    }
    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }
    /// Largest sample seen, in picoseconds.
    pub fn max_ps(&self) -> u64 {
        self.max_ps
    }
    /// The per-bucket counts (bucket `i` covers `[2^i, 2^(i+1))` ps).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.counts
    }
}

impl std::fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LatencyHist {{ total: {}, max_ps: {} }}",
            self.total, self.max_ps
        )
    }
}

/// Per-rank trace state: the ring buffer plus the time-in-queue histograms
/// (touched only while tracing is enabled). Lives in `RankCtx`; single
/// writer (the owning rank), so no locks.
pub(crate) struct TraceState {
    pub(crate) cfg: TraceConfig,
    /// Ring storage; `head` is the next overwrite position once full.
    buf: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    emitted: u64,
    /// defQ residency (Inject → Conduit) per drained op.
    pub(crate) def_q_wait: LatencyHist,
    /// compQ residency (Deliver → Complete) per drained op.
    pub(crate) comp_q_wait: LatencyHist,
    /// Tags of the RPCs injected while tracing, until their replies emit
    /// their `Complete` events (kept out of the reply table, whose entries
    /// every RPC pays for).
    pub(crate) rpc_tags: crate::ctx::FastMap<u64, TraceTag>,
}

impl TraceState {
    pub(crate) fn new() -> TraceState {
        TraceState {
            cfg: TraceConfig::default(),
            buf: Vec::new(),
            head: 0,
            dropped: 0,
            emitted: 0,
            def_q_wait: LatencyHist::default(),
            comp_q_wait: LatencyHist::default(),
            rpc_tags: Default::default(),
        }
    }

    /// Install a new configuration, resetting the ring (histograms and the
    /// counters persist until `take`).
    pub(crate) fn reconfig(&mut self, cfg: TraceConfig) {
        self.cfg = cfg;
        self.buf = Vec::with_capacity(if cfg.enabled { cfg.capacity.max(1) } else { 0 });
        self.head = 0;
    }

    pub(crate) fn push(&mut self, ev: TraceEvent) {
        self.emitted += 1;
        let cap = self.cfg.capacity.max(1);
        if self.buf.len() < cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the ring in chronological order.
    pub(crate) fn take(&mut self) -> Vec<TraceEvent> {
        let head = std::mem::take(&mut self.head);
        let buf = std::mem::take(&mut self.buf);
        if head == 0 {
            return buf;
        }
        // Oldest events start at `head` once the ring has wrapped.
        let mut out = Vec::with_capacity(buf.len());
        out.extend_from_slice(&buf[head..]);
        out.extend_from_slice(&buf[..head]);
        out
    }
}

/// One typed snapshot of the calling rank's runtime counters — the coherent
/// replacement for the deprecated loose `stats_*` free functions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// The rank this snapshot describes.
    pub rank: usize,
    /// rput/rget/atomic operations injected.
    pub rma_ops: u64,
    /// RPCs injected (including `rpc_ff`).
    pub rpcs: u64,
    /// Bytes serialized into outgoing messages (RMA payloads + RPC args).
    pub bytes_out: u64,
    /// Bytes received by this rank: rget data, incoming RPC arguments and
    /// incoming RPC replies.
    pub bytes_in: u64,
    /// Items executed from compQ by user progress.
    pub comp_items: u64,
    /// Messages routed through the aggregation layer's buffers.
    pub agg_msgs: u64,
    /// Aggregated batches shipped (each one wire message carrying >1
    /// payload).
    pub agg_batches: u64,
    /// Deferred-queue depth high-water mark.
    pub def_q_hwm: u64,
    /// Active-operation (conduit-owned) high-water mark.
    pub act_q_hwm: u64,
    /// Completion-queue depth high-water mark.
    pub comp_q_hwm: u64,
    /// Conduit inbound backlog right now: items waiting in this rank's smp
    /// inbox (always 0 under sim, where delivery is event-driven).
    pub conduit_backlog: u64,
    /// Total virtual time deliveries to this rank spent parked behind a busy
    /// CPU (sim conduit's attentiveness cost; 0 on smp).
    pub deliver_deferred_ps: u64,
    /// Attentiveness of the **master persona**: the largest observed gap
    /// between consecutive user-progress calls, in picoseconds. Tracked only
    /// while tracing is enabled (0 otherwise — the disabled hot path stays
    /// one branch). Reset by [`set_config`], so back-to-back worlds (or A/B
    /// phases within one world) never inherit a previous phase's gap.
    pub max_progress_gap_ps: u64,
    /// Attentiveness of the **progress persona**: the largest gap between
    /// consecutive progress-thread poll iterations, in picoseconds. Zero
    /// unless the progress thread ([`crate::persona`]) ran while tracing was
    /// enabled. Also reset by [`set_config`].
    pub max_progress_gap_prog_ps: u64,
    /// Bounded-drain accounting: how many compQ chunks (of at most 64
    /// completions each) user-progress calls have retired. A flooded rank
    /// shows `comp_chunks` ≈ `comp_items / 64`; an attentive one shows one
    /// chunk per progress call that found completions.
    pub comp_chunks: u64,
    /// Trace events emitted since tracing was (re)configured.
    pub trace_events: u64,
    /// Trace events overwritten because the ring filled. A profile built
    /// from a ring that dropped events is incomplete — `prof::report`
    /// prints a warning per affected rank.
    pub dropped_events: u64,
    /// defQ residency histogram (Inject → Conduit), tracing only.
    pub def_q_wait: LatencyHist,
    /// compQ residency histogram (Deliver → Complete), tracing only.
    pub comp_q_wait: LatencyHist,
    /// Sanitizer findings on this rank (all zero unless `upcxx::san` is —
    /// or was — enabled; see [`crate::san::san_report`]).
    pub san: crate::san::SanCounters,
}

/// Snapshot the calling rank's runtime statistics
/// (paper-level analogue: the introspection hooks DASH and HPX-style
/// runtimes grew to diagnose progress starvation).
pub fn runtime_stats() -> RuntimeStats {
    let c = ctx();
    let _g = crate::persona::lock(&c);
    let san = c.san.borrow().counters;
    let tr = c.trace.borrow();
    let (conduit_backlog, deliver_deferred_ps) = match &c.backend {
        Backend::Cond(h) => (h.inbox_depth(), 0),
        Backend::Sim(w) => (0, w.rank_deferred(c.me).as_ps()),
    };
    RuntimeStats {
        rank: c.me,
        rma_ops: c.stats.rma_ops.get(),
        rpcs: c.stats.rpcs.get(),
        bytes_out: c.stats.bytes_out.get(),
        bytes_in: c.stats.bytes_in.get(),
        comp_items: c.stats.comp_items.get(),
        agg_msgs: c.stats.agg_msgs.get(),
        agg_batches: c.stats.agg_batches.get(),
        def_q_hwm: c.stats.def_q_hwm.get(),
        act_q_hwm: c.stats.act_q_hwm.get(),
        comp_q_hwm: c.stats.comp_q_hwm.get(),
        conduit_backlog,
        deliver_deferred_ps,
        max_progress_gap_ps: c.stats.max_progress_gap_ps.get(),
        max_progress_gap_prog_ps: c.stats.max_progress_gap_prog_ps.get(),
        comp_chunks: c.stats.comp_chunks.get(),
        trace_events: tr.emitted(),
        dropped_events: tr.dropped(),
        def_q_wait: tr.def_q_wait,
        comp_q_wait: tr.comp_q_wait,
        san,
    }
}

/// Install a tracing configuration on the **current rank** (each rank
/// configures its own ring; a driver that wants whole-world traces enables
/// tracing on every rank). Resets the ring buffer.
pub fn set_config(cfg: TraceConfig) {
    let c = ctx();
    let _g = crate::persona::lock(&c);
    c.trace_on.set(cfg.enabled);
    // Reset the attentiveness tracking of both personas: the gap metric
    // describes the phase being traced, not whatever ran before it (a
    // previous world in the same process, or a previous A/B phase).
    c.stats.last_progress_ps.set(0);
    c.stats.max_progress_gap_ps.set(0);
    c.stats.last_progress_prog_ps.set(0);
    c.stats.max_progress_gap_prog_ps.set(0);
    c.trace.borrow_mut().reconfig(cfg);
}

/// The current rank's tracing configuration.
pub fn config() -> TraceConfig {
    let c = ctx();
    let _g = crate::persona::lock(&c);
    let cfg = c.trace.borrow().cfg;
    cfg
}

/// Drain the current rank's recorded events (chronological order). The ring
/// keeps recording afterwards if tracing is enabled.
pub fn take_local() -> Vec<TraceEvent> {
    let c = ctx();
    let _g = crate::persona::lock(&c);
    let events = c.trace.borrow_mut().take();
    events
}

/// Serialize `events` as Chrome-trace JSON (the "JSON Array Format" with a
/// `traceEvents` wrapper) loadable in Perfetto / `chrome://tracing`. Each
/// trace event becomes one instant event named `<Kind>.<Phase>` on
/// `pid = recording rank` (one metadata track per rank), with timestamps
/// converted from picoseconds to the format's microseconds; op identity,
/// causal parent, peer, bytes and flush reason ride in `args`.
///
/// **Cross-rank arrows**: for every span whose Deliver was recorded on a
/// rank other than its origin, the export emits a Perfetto *flow* — a
/// `ph:"s"` start bound to the origin-side hand-off (the span's Conduit
/// event, falling back to Inject) and a `ph:"f"` finish bound to the remote
/// Deliver, sharing one `id`. Flow endpoints bind to enclosing slices, so
/// each endpoint is also materialized as a minimal `ph:"X"` slice at the
/// same timestamp; both ends of a flow are emitted or neither, so flow ids
/// always pair up exactly.
pub fn export_chrome<W: Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    let mut ranks: Vec<u32> = events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    // Origin-side hand-off event per span: Conduit preferred, Inject as the
    // fallback (aggregated members may drop their Conduit to ring overwrite).
    let mut send: std::collections::BTreeMap<(u32, u64), &TraceEvent> =
        std::collections::BTreeMap::new();
    for e in events {
        if e.rank == e.origin && e.op != 0 {
            match e.phase {
                Phase::Conduit => {
                    send.insert((e.origin, e.op), e);
                }
                Phase::Inject => {
                    send.entry((e.origin, e.op)).or_insert(e);
                }
                _ => {}
            }
        }
    }
    // (send event, remote deliver event) pairs, in deterministic span order.
    let mut flows: Vec<(&TraceEvent, &TraceEvent)> = Vec::new();
    for e in events {
        if e.phase == Phase::Deliver && e.rank != e.origin && e.op != 0 {
            if let Some(s) = send.get(&(e.origin, e.op)) {
                flows.push((s, e));
            }
        }
    }
    flows.sort_by_key(|(_, d)| (d.origin, d.op, d.rank));
    w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    let mut first = true;
    for r in &ranks {
        if !first {
            w.write_all(b",\n")?;
        }
        first = false;
        write!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{r},\"tid\":0,\
             \"args\":{{\"name\":\"rank {r}\"}}}}"
        )?;
    }
    for e in events {
        if !first {
            w.write_all(b",\n")?;
        }
        first = false;
        let ts = e.ts_ps as f64 / 1e6; // ps -> us
        write!(
            w,
            "{{\"name\":\"{kind}.{phase}\",\"cat\":\"{kind}\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{ts:.6},\"pid\":{pid},\"tid\":0,\"args\":{{\"op\":\"{origin}:{op}\",\
             \"parent\":\"{pori}:{pop}\",\
             \"phase\":\"{phase}\",\"peer\":{peer},\"bytes\":{bytes},\"reason\":\"{reason}\",\
             \"persona\":{persona}}}}}",
            kind = e.kind.as_str(),
            phase = e.phase.as_str(),
            pid = e.rank,
            origin = e.origin,
            op = e.op,
            pori = e.parent_origin,
            pop = e.parent_op,
            peer = e.peer,
            bytes = e.bytes,
            reason = e.reason.as_str(),
            persona = e.persona,
        )?;
    }
    for (id, (s, d)) in flows.iter().enumerate() {
        let id = id as u64 + 1;
        let kind = d.kind.as_str();
        let ts_s = s.ts_ps as f64 / 1e6;
        let ts_d = d.ts_ps as f64 / 1e6;
        // Anchor slices for the flow endpoints (flows bind to slices, not to
        // instants), then the s/f pair itself.
        write!(
            w,
            ",\n{{\"name\":\"{kind} send {o}:{op}\",\"cat\":\"{kind}\",\"ph\":\"X\",\
             \"ts\":{ts_s:.6},\"dur\":0.001,\"pid\":{sp},\"tid\":0}},\n\
             {{\"name\":\"{kind} recv {o}:{op}\",\"cat\":\"{kind}\",\"ph\":\"X\",\
             \"ts\":{ts_d:.6},\"dur\":0.001,\"pid\":{dp},\"tid\":0}},\n\
             {{\"name\":\"{kind} {o}:{op}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\
             \"ts\":{ts_s:.6},\"pid\":{sp},\"tid\":0}},\n\
             {{\"name\":\"{kind} {o}:{op}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{id},\"ts\":{ts_d:.6},\"pid\":{dp},\"tid\":0}}",
            o = d.origin,
            op = d.op,
            sp = s.rank,
            dp = d.rank,
        )?;
    }
    w.write_all(b"\n]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: u64, ts: u64) -> TraceEvent {
        TraceEvent {
            rank: 0,
            origin: 0,
            op,
            kind: OpKind::Put,
            phase: Phase::Inject,
            peer: 1,
            bytes: 8,
            reason: FlushReason::None,
            ts_ps: ts,
            parent_origin: 0,
            parent_op: 0,
            persona: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_takes_in_order() {
        let mut st = TraceState::new();
        st.reconfig(TraceConfig {
            enabled: true,
            capacity: 4,
        });
        for i in 0..6u64 {
            st.push(ev(i, i * 10));
        }
        assert_eq!(st.emitted(), 6);
        assert_eq!(st.dropped(), 2);
        let got = st.take();
        assert_eq!(
            got.iter().map(|e| e.op).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn hist_buckets_and_max() {
        let mut h = LatencyHist::default();
        h.record(0);
        h.record(1);
        h.record(1023);
        h.record(1024);
        assert_eq!(h.total(), 4);
        assert_eq!(h.max_ps(), 1024);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[9], 1); // 512..1024
        assert_eq!(h.buckets()[10], 1); // 1024..2048
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let events = vec![ev(0, 1_000_000), ev(1, 2_000_000)];
        let mut out = Vec::new();
        export_chrome(&events, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"displayTimeUnit\""));
        assert!(s.contains("\"name\":\"Put.Inject\""));
        assert!(s.contains("\"ts\":1.000000"));
        assert!(s.trim_end().ends_with("]}"));
        // Balanced braces (poor man's JSON parse — no external deps).
        let opens = s.matches('{').count();
        let closes = s.matches('}').count();
        assert_eq!(opens, closes);
    }
}
