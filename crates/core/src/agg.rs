//! Per-target RPC aggregation: coalescing many small AM payloads into one
//! wire message.
//!
//! The paper's fine-grained benchmarks (Fig. 4's 8–64 B RPC throughput, the
//! DHT's one-element inserts) are dominated by per-message costs: on the
//! modeled machine every AM pays an injection gap, a [`crate::wire::RPC_HDR`]
//! framing charge and a dispatch overhead at the target, regardless of how
//! few payload bytes it carries. This module buffers outgoing RPC payloads
//! per destination rank and ships each buffer as a **single batch**: one
//! conduit injection (one inbox push on smp, one modeled transfer — hence one
//! NIC gap — on sim), one header, one dispatch, `n` payloads.
//!
//! ## What is batched
//!
//! `rpc`, `rpc_ff` and RPC replies go through [`submit`]. Internal system AMs
//! (barrier flags, collective payloads) never aggregate — they are latency-
//! critical control traffic — but they flush the destination's buffer first
//! so per-target injection order is preserved. A payload at or above the
//! flush threshold also bypasses the buffer (again flushing first).
//!
//! ## When a buffer flushes
//!
//! Every flush records *why* (the [`FlushReason`] rides on the trace events
//! of the flushed members and of the batch itself):
//!
//! * its accounted wire size reaches [`AggConfig::max_bytes`]
//!   (`Threshold`);
//! * an oversize payload or a system AM needs the buffer drained first to
//!   preserve per-target order (`Ordering`);
//! * the application calls [`flush_all`] (`Explicit`) or
//!   [`set_agg_config`] (`Reconfig`);
//! * the rank enters a barrier (`Barrier`,
//!   [`crate::coll::barrier_async_team`]);
//! * user-level progress runs (`Progress`; [`crate::progress`], blocking
//!   waits);
//! * a batch finishes executing at its target (`ItemTail`: the tail of
//!   every batch flushes whatever the handlers buffered — typically replies
//!   — so a passive rank cannot strand them; on the sim conduit every
//!   delivered item additionally flushes on exit for the same reason).
//!
//! Aggregation is **opt-in** ([`AggConfig::enabled`] defaults to `false`):
//! it trades latency for throughput, exactly the trade the paper leaves to
//! the application.

use crate::ctx::{ctx, try_ctx, DefOp, FastMap, RankCtx};
use crate::trace::{FlushReason, OpKind, Phase, TraceTag};
use crate::wire;
use gasnet::{Am, Batch, Rank};
use std::cell::RefCell;

/// Configuration of the per-target aggregation layer (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggConfig {
    /// Whether outgoing RPC traffic is coalesced at all. Off by default:
    /// unaggregated behavior is bit-identical to a runtime without this
    /// module.
    pub enabled: bool,
    /// Flush threshold on the accounted wire size (header + packed records)
    /// of one target's buffer. Payloads whose lone batch would already
    /// exceed this bypass the aggregator.
    pub max_bytes: usize,
}

impl Default for AggConfig {
    fn default() -> Self {
        AggConfig {
            enabled: false,
            max_bytes: 4096,
        }
    }
}

/// One destination's coalescing buffer.
#[derive(Default)]
struct TargetBuf {
    /// Buffered payloads in injection order, in the conduit's AM
    /// representation (closures in-process, encoded frames on proc).
    items: Vec<Am>,
    /// The trace identity of each buffered payload (parallel to `items`);
    /// members emit their `Conduit` event when the buffer flushes.
    tags: Vec<TraceTag>,
    /// Accounted record bytes: Σ [`wire::batch_rec_size`] over `items`.
    rec_bytes: usize,
}

/// Per-rank aggregation state (lives in [`RankCtx`]).
pub(crate) struct AggState {
    cfg: AggConfig,
    /// Non-empty buffers only: a flushed buffer leaves the map.
    bufs: FastMap<Rank, TargetBuf>,
    /// Targets with non-empty buffers, in first-touch order. Flushing in
    /// this deterministic order (never HashMap iteration order) keeps sim
    /// runs reproducible.
    order: Vec<Rank>,
}

thread_local! {
    /// The last buffer flushed on this thread, emptied but keeping its
    /// capacity; the next target to buffer starts from it. One per thread,
    /// not one per target (nor per rank: sim ranks share a thread), so a
    /// rank that talks to thousands of peers retains no buffers at all.
    static SPARE: RefCell<TargetBuf> = RefCell::new(TargetBuf::default());
}

impl AggState {
    pub(crate) fn new() -> AggState {
        AggState {
            cfg: AggConfig::default(),
            bufs: FastMap::default(),
            order: Vec::new(),
        }
    }
}

/// Payloads currently parked in this rank's aggregation buffers — the
/// metrics layer's `agg_pending` gauge, probed at snapshot time.
pub(crate) fn pending_items(c: &RankCtx) -> usize {
    c.agg.borrow().bufs.values().map(|b| b.items.len()).sum()
}

/// Route one outgoing AM payload: buffer it when aggregation is on and the
/// payload is small, otherwise inject it directly (flushing the target's
/// buffer first so per-target order is preserved). `tag` is the payload's
/// trace identity — its `Inject` event was emitted by the API entry point;
/// its `Conduit` event fires when the payload actually leaves.
pub(crate) fn submit(c: &RankCtx, target: Rank, payload: usize, am: Am, tag: TraceTag) {
    let cfg = c.agg.borrow().cfg;
    if !cfg.enabled {
        inject_single(c, target, payload, am, tag);
        return;
    }
    let rec = wire::batch_rec_size(payload);
    if wire::RPC_HDR + rec >= cfg.max_bytes {
        // Oversize: would fill (or overflow) a batch on its own. Keep order
        // by draining what is already queued for this target, then go direct.
        flush_target(c, target, FlushReason::Ordering);
        inject_single(c, target, payload, am, tag);
        return;
    }
    // Would this record push the queued batch over the threshold? Ship what
    // is queued first, so no batch ever exceeds `max_bytes`.
    let would_overflow = c
        .agg
        .borrow()
        .bufs
        .get(&target)
        .is_some_and(|b| wire::RPC_HDR + b.rec_bytes + rec > cfg.max_bytes);
    if would_overflow {
        flush_target(c, target, FlushReason::Threshold);
    }
    let full = {
        let mut st = c.agg.borrow_mut();
        let AggState { bufs, order, .. } = &mut *st;
        // Invariant: `order` lists exactly the targets in `bufs`, whose
        // buffers are never empty.
        let buf = bufs.entry(target).or_insert_with(|| {
            order.push(target);
            SPARE.with(|s| std::mem::take(&mut *s.borrow_mut()))
        });
        buf.items.push(am);
        buf.tags.push(tag);
        buf.rec_bytes += rec;
        wire::RPC_HDR + buf.rec_bytes >= cfg.max_bytes
    };
    c.stats.agg_msgs.set(c.stats.agg_msgs.get() + 1);
    if full {
        flush_target(c, target, FlushReason::Threshold);
    }
}

/// Inject a plain single-payload AM (the unaggregated path). The `Conduit`
/// event fires in the progress engine when the op leaves defQ.
fn inject_single(c: &RankCtx, target: Rank, payload: usize, am: Am, tag: TraceTag) {
    c.inject(
        DefOp::Am {
            target,
            wire_bytes: wire::am_wire_size(payload),
            am,
        },
        tag,
    );
}

/// Ship `target`'s buffer now, if non-empty. A one-item buffer degenerates to
/// a plain AM (charged exactly like the unaggregated path); larger buffers
/// become one [`DefOp::AmBatch`] whose tail flushes the receiver's own
/// aggregator, so buffered replies flow without waiting for the receiver to
/// reach progress. The batch is itself a traced op ([`OpKind::Batch`]):
/// `Inject`/`Conduit` at the source (carrying `reason`), `Deliver`/`Complete`
/// bracketing the member executions at the target.
pub(crate) fn flush_target(c: &RankCtx, target: Rank, reason: FlushReason) {
    let mut buf = {
        let mut st = c.agg.borrow_mut();
        let Some(buf) = st.bufs.remove(&target) else {
            return;
        };
        st.order.retain(|&t| t != target);
        buf
    };
    // A non-empty buffer is actually leaving: count the flush by reason
    // (a one-item buffer still counts — the *flush* happened; it merely
    // degenerates to a plain AM on the wire).
    crate::metrics::count_flush(c, reason);
    if buf.items.len() == 1 {
        let payload = buf.rec_bytes - wire::AGG_REC_HDR;
        let am = buf.items.pop().expect("one buffered item");
        let tag = buf.tags[0];
        keep_spare(buf);
        inject_single(c, target, payload, am, tag);
        return;
    }
    let rec_bytes = buf.rec_bytes;
    let wire_bytes = wire::RPC_HDR + rec_bytes;
    // The batch gets an id unconditionally (its target may be tracing even
    // when this rank is not); emission below gates on this rank's config.
    // Built through `trace::new_tag`, so a flush triggered from inside a
    // delivered item (ItemTail) records that item as the batch's parent.
    let batch_tag = crate::trace::new_tag(c, OpKind::Batch, target as u32, wire_bytes as u32);
    if c.trace_on.get() {
        // The members leave the coalescing buffer here: this is their
        // defQ -> conduit hand-off, stamped with why the flush happened.
        for t in &buf.tags {
            c.emit_from(Phase::Conduit, *t, c.me as u32, reason);
        }
        c.emit_from(Phase::Inject, batch_tag, c.me as u32, reason);
    }
    let origin = c.me as u32;
    let batch = if c.frames {
        // Frame-mode conduit: the members are already encoded frames; pack
        // them into one container whose decoder reproduces the same
        // Deliver / members / Complete / ItemTail bracket built below for
        // closure mode (see `crate::frame::exec_frame_sink`).
        Batch::Frame(crate::frame::encode_batch(&buf.items, batch_tag, origin))
    } else {
        // One item brackets the member executions with the batch's
        // target-side events; the members travel inside it.
        let items = std::mem::take(&mut buf.items);
        Batch::Item(Box::new(move || run_batch(items, batch_tag, origin)))
    };
    keep_spare(buf);
    c.stats.agg_batches.set(c.stats.agg_batches.get() + 1);
    c.inject(
        DefOp::AmBatch {
            target,
            wire_bytes,
            batch,
        },
        batch_tag,
    );
}

/// Target side of a closure-mode batch: the batch's `Deliver`, the members
/// in order, its `Complete`, then an `ItemTail` flush of whatever the
/// members buffered (typically replies).
fn run_batch(items: Vec<Am>, batch_tag: TraceTag, origin: u32) {
    let rc = try_ctx();
    if let Some(rc) = &rc {
        rc.emit_from(Phase::Deliver, batch_tag, origin, FlushReason::None);
    }
    for am in items {
        match am {
            Am::Item(item) => item(),
            Am::Frame(_) => unreachable!("frame AM buffered on a closure-mode conduit"),
        }
    }
    if let Some(rc) = &rc {
        rc.emit_from(Phase::Complete, batch_tag, origin, FlushReason::None);
        flush_all_ctx(rc, FlushReason::ItemTail);
    }
}

/// Keep a flushed (emptied) buffer's capacity as this thread's spare.
fn keep_spare(mut buf: TargetBuf) {
    buf.items.clear();
    buf.tags.clear();
    buf.rec_bytes = 0;
    SPARE.with(|s| *s.borrow_mut() = buf);
}

/// Flush every non-empty buffer of `c`, in first-touch order.
pub(crate) fn flush_all_ctx(c: &RankCtx, reason: FlushReason) {
    loop {
        let Some(target) = c.agg.borrow_mut().order.first().copied() else {
            break;
        };
        flush_target(c, target, reason);
    }
}

/// Flush all of the **current rank's** aggregation buffers immediately
/// (paper-level analogue: conduit message coalescing always pairs a buffer
/// with an explicit flush). Safe (a no-op) when nothing is buffered or
/// aggregation is disabled.
pub fn flush_all() {
    let c = ctx();
    let _g = crate::persona::lock(&c);
    flush_all_ctx(&c, FlushReason::Explicit);
}

/// The current rank's aggregation configuration.
pub fn agg_config() -> AggConfig {
    let c = ctx();
    let _g = crate::persona::lock(&c);
    let cfg = c.agg.borrow().cfg;
    cfg
}

/// Install a new aggregation configuration for the current rank. Any
/// buffered payloads are flushed first, so no traffic is stranded by
/// disabling or shrinking the aggregator.
pub fn set_agg_config(cfg: AggConfig) {
    let c = ctx();
    let _g = crate::persona::lock(&c);
    flush_all_ctx(&c, FlushReason::Reconfig);
    assert!(
        !cfg.enabled || cfg.max_bytes > wire::RPC_HDR + wire::AGG_REC_HDR,
        "AggConfig::max_bytes too small to hold any record"
    );
    c.agg.borrow_mut().cfg = cfg;
}
