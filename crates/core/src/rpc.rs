//! Generalized Remote Procedure Call (§II–III, Fig. 2).
//!
//! `rpc(target, f, args)` ships `f` plus serialized `args` to `target`,
//! executes it there during the target's user-level progress, and returns a
//! future carrying the (serialized, shipped-back) result — the progression of
//! Fig. 2: initiator defQ → actQ → AM → target compQ → execute → reply AM →
//! initiator compQ.
//!
//! Rust spelling of the C++ restriction: UPC++ lambdas sent by RPC must be
//! trivially serializable (no captured heap state); here `f` is a plain
//! `fn` item — stateless closures coerce — and all data travels through the
//! explicit `args`, which implement [`crate::ser::Ser`]. Arguments really
//! are serialized to bytes and deserialized at the target (so the sim
//! conduit charges true wire sizes and `View` arguments are zero-copy on
//! arrival, as in the paper's extend-add).
//!
//! `rpc_ff` is the paper's fire-and-forget variant (footnote 5): no
//! acknowledgment, "its progress is more like rget/rput".
//!
//! Every outgoing AM is built as a [`crate::frame::AmDesc`]: a monomorphized
//! target-side trampoline (`deliver_rpc`, `deliver_ff`, `deliver_reply`,
//! `deliver_sys`) plus its environment. In-process conduits ship the desc as
//! a closure; the proc conduit serializes it to a frame — either way the
//! identical trampoline runs at the target (see `crate::frame`).
//!
//! Trace anatomy (see [`crate::trace`]): an `rpc` op emits Inject/Conduit at
//! the initiator, Deliver at the target when the handler starts, and
//! Complete back at the initiator when the reply fulfills the promise; the
//! reply itself travels as a separate [`OpKind::Reply`] op. `rpc_ff` and
//! system AMs complete at the target when their handler returns.
//!
//! Causal spans: every message carries its span id `(origin, op)` on the
//! wire (modeled inside [`wire::RPC_HDR`]); the RPC's span id doubles as its
//! reply-table key, so the reply wire already names its causal parent. While
//! a handler executes, a [`crate::trace::SpanGuard`] marks its span as the
//! rank's current span — anything the handler injects (the reply itself, an
//! rput, a follow-up RPC from a `.then` chain) records that span as its
//! `(parent_origin, parent_op)`, which is how `upcxx::prof` stitches
//! cross-rank causal chains.

use crate::ctx::{ctx, DefOp};
use crate::frame::{AmDesc, FrameEnv};
use crate::future::{Future, Promise};
use crate::san;
use crate::ser::{from_bytes, to_bytes, Reader, Ser};
use crate::trace::{FlushReason, OpKind, Phase};
use crate::wire;
use gasnet::Rank;

/// Target-side body of [`rpc`]: deserialize, execute, ship the reply.
/// `env.user` is the shipped `fn(A) -> R`; `env.origin` the initiator.
fn deliver_rpc<A, R>(env: FrameEnv)
where
    A: Ser,
    R: Ser + Clone + 'static,
{
    // SAFETY: `env.user` round-trips the `fn(A) -> R` passed to `rpc` in
    // this same binary (anchor-offset encoding on the proc conduit, the
    // original address in-process); `A`/`R` are pinned by the trampoline's
    // own monomorphization, which traveled alongside it.
    let f = unsafe { std::mem::transmute::<usize, fn(A) -> R>(env.user) };
    let tc = ctx();
    san::msg_join(&tc, &env.snap);
    let _restricted = san::RestrictedGuard::new(&tc);
    let _span = crate::trace::SpanGuard::enter(&tc, env.origin, env.tag.tid);
    tc.emit_from(Phase::Deliver, env.tag, env.origin, FlushReason::None);
    crate::metrics::on_deliver(&tc, env.tag, env.origin);
    tc.stats
        .bytes_in
        .set(tc.stats.bytes_in.get() + env.body.len() as u64);
    tc.charge_ser(env.body.len());
    let a: A = from_bytes(env.body);
    let ret = f(a);
    let ret_bytes = to_bytes(&ret);
    tc.charge_ser(ret_bytes.len());
    // Ship the result back (under the span guard, so the Reply op records
    // this RPC as its causal parent); at the initiator the reply
    // continuation fulfills the promise from its compQ.
    send_reply(env.origin as Rank, env.tag.tid, ret_bytes);
}

/// Execute `f(args)` on `target`; the future readies with the result after
/// the round trip (paper: `upcxx::rpc`). `target` is a world rank; see
/// [`crate::team::Team::rpc`] for team-relative addressing.
#[must_use = "the reply only exists in the returned future; use rpc_ff if no reply is needed"]
pub fn rpc<A, R>(target: Rank, f: fn(A) -> R, args: A) -> Future<R>
where
    A: Ser,
    R: Ser + Clone + 'static,
{
    let c = ctx();
    let _g = crate::persona::lock(&c);
    c.stats.rpcs.set(c.stats.rpcs.get() + 1);

    let arg_bytes = to_bytes(&args);
    c.charge_ser(arg_bytes.len());
    c.stats
        .bytes_out
        .set(c.stats.bytes_out.get() + arg_bytes.len() as u64);
    let payload = arg_bytes.len();
    let tag = c.op_tag(OpKind::Rpc, target as u32, payload as u32);

    // Park the promise (rank-local), keyed by the op's span id — one
    // sequence serves both reply matching and tracing, so the reply wire
    // names its causal parent for free. A traced RPC also parks its tag:
    // the reply closes the op's event quartet with its `Complete`.
    let p = Promise::<R>::new();
    let fut = p.get_future();
    c.reply_tbl
        .borrow_mut()
        .insert(tag.tid, p.into_reply_sink());
    if c.trace_on.get() {
        c.trace.borrow_mut().rpc_tags.insert(tag.tid, tag);
    }

    // Sanitizer: the message carries the sender's vector clock, making the
    // handler (and everything sequenced after it, e.g. a then()-chained
    // rput) ordered after everything the sender completed — the DHT motif's
    // happens-before edge.
    let desc = AmDesc {
        tramp: deliver_rpc::<A, R>,
        user: f as usize,
        aux: 0,
        tag,
        origin: c.me as u32,
        snap: san::msg_snapshot(&c),
        body: arg_bytes,
    };
    crate::agg::submit(&c, target, payload, desc.into_am(c.frames), tag);
    fut
}

/// Target-side body of [`rpc_ff`]: deserialize, execute, complete in place.
fn deliver_ff<A: Ser>(env: FrameEnv) {
    // SAFETY: as in `deliver_rpc` — same binary, signature pinned by the
    // monomorphized trampoline.
    let f = unsafe { std::mem::transmute::<usize, fn(A)>(env.user) };
    let tc = ctx();
    san::msg_join(&tc, &env.snap);
    let _restricted = san::RestrictedGuard::new(&tc);
    let _span = crate::trace::SpanGuard::enter(&tc, env.origin, env.tag.tid);
    tc.emit_from(Phase::Deliver, env.tag, env.origin, FlushReason::None);
    crate::metrics::on_deliver(&tc, env.tag, env.origin);
    tc.stats
        .bytes_in
        .set(tc.stats.bytes_in.get() + env.body.len() as u64);
    tc.charge_ser(env.body.len());
    f(from_bytes(env.body));
    tc.emit_from(Phase::Complete, env.tag, env.origin, FlushReason::None);
}

/// Fire-and-forget RPC (paper: `upcxx::rpc_ff`): executes `f(args)` at the
/// target, returns nothing, sends no acknowledgment.
pub fn rpc_ff<A>(target: Rank, f: fn(A), args: A)
where
    A: Ser,
{
    let c = ctx();
    let _g = crate::persona::lock(&c);
    c.stats.rpcs.set(c.stats.rpcs.get() + 1);
    let arg_bytes = to_bytes(&args);
    c.charge_ser(arg_bytes.len());
    c.stats
        .bytes_out
        .set(c.stats.bytes_out.get() + arg_bytes.len() as u64);
    let payload = arg_bytes.len();
    let tag = c.op_tag(OpKind::RpcFf, target as u32, payload as u32);
    let desc = AmDesc {
        tramp: deliver_ff::<A>,
        user: f as usize,
        aux: 0,
        tag,
        origin: c.me as u32,
        snap: san::msg_snapshot(&c),
        body: arg_bytes,
    };
    crate::agg::submit(&c, target, payload, desc.into_am(c.frames), tag);
}

/// Initiator-side body of an RPC reply: look up the parked continuation for
/// op `env.aux` and run it on the master persona. `env.origin` is the
/// replying rank.
fn deliver_reply(env: FrameEnv) {
    let op_id = env.aux;
    let replier = env.origin;
    let tag = env.tag;
    let bytes = env.body;
    let ic = ctx();
    san::msg_join(&ic, &env.snap);
    let _restricted = san::RestrictedGuard::new(&ic);
    let _span = crate::trace::SpanGuard::enter(&ic, replier, tag.tid);
    ic.emit_from(Phase::Deliver, tag, replier, FlushReason::None);
    crate::metrics::on_deliver(&ic, tag, replier);
    ic.stats
        .bytes_in
        .set(ic.stats.bytes_in.get() + bytes.len() as u64);
    let sink = ic.reply_tbl.borrow_mut().remove(&op_id);
    match sink {
        // The continuation fulfills a user-visible promise, which belongs to
        // the master persona. `master_exec` runs it inline on the default
        // path (identical order to before personas existed); when a progress
        // persona delivered this reply, it parks the continuation in the
        // handoff queue for the initiator's next user-progress call —
        // today's single-threaded callback semantics, regardless of which
        // persona serviced the wire.
        Some(sink) => crate::persona::master_exec(&ic, move || {
            let mc = ctx();
            let _restricted = san::RestrictedGuard::new(&mc);
            let _span = crate::trace::SpanGuard::enter(&mc, replier, tag.tid);
            sink.fulfill_from(Reader::new(bytes));
            let traced = mc.trace.borrow_mut().rpc_tags.remove(&op_id);
            if let Some(rpc_tag) = traced {
                mc.emit(Phase::Complete, rpc_tag);
            }
        }),
        None => {
            // A reply with no parked continuation means the op-id
            // bookkeeping broke (double reply, or delivery to the wrong
            // rank) — a runtime bug, never an application one. Abort loudly
            // in debug builds; in release, drop the reply and diagnose on
            // stderr rather than tearing down the world.
            let here = ic.me;
            debug_assert!(
                false,
                "RPC reply for op {op_id} (from rank {replier}) arrived at \
                 rank {here} with no registered continuation"
            );
            eprintln!(
                "upcxx: dropping RPC reply for op {op_id} (from rank {replier}) \
                 at rank {here}: no registered continuation"
            );
        }
    }
    ic.emit_from(Phase::Complete, tag, replier, FlushReason::None);
}

/// Internal: deliver `bytes` to `initiator`'s reply continuation `op_id`
/// (the parent RPC's span id — reply matching and span identity share one
/// key space). Replies ride the aggregation layer too (they are exactly the
/// kind of tiny message batching exists for); the end-of-batch and
/// end-of-item flush hooks guarantee they leave the replying rank promptly.
fn send_reply(initiator: Rank, op_id: u64, bytes: Vec<u8>) {
    let c = ctx();
    let payload = bytes.len();
    // Called under the RPC handler's span guard, so this tag's parent is the
    // RPC being answered.
    let tag = c.op_tag(OpKind::Reply, initiator as u32, payload as u32);
    let desc = AmDesc {
        tramp: deliver_reply,
        user: 0,
        aux: op_id,
        tag,
        origin: c.me as u32,
        snap: san::msg_snapshot(&c),
        body: bytes,
    };
    crate::agg::submit(&c, initiator, payload, desc.into_am(c.frames), tag);
}

/// Target-side body of a system AM: deserialize and run, outside the RPC
/// accounting.
fn deliver_sys<A: Ser>(env: FrameEnv) {
    // SAFETY: as in `deliver_rpc`.
    let f = unsafe { std::mem::transmute::<usize, fn(A)>(env.user) };
    let tc = ctx();
    san::msg_join(&tc, &env.snap);
    let _restricted = san::RestrictedGuard::new(&tc);
    let _span = crate::trace::SpanGuard::enter(&tc, env.origin, env.tag.tid);
    tc.emit_from(Phase::Deliver, env.tag, env.origin, FlushReason::None);
    crate::metrics::on_deliver(&tc, env.tag, env.origin);
    f(from_bytes(env.body));
    tc.emit_from(Phase::Complete, env.tag, env.origin, FlushReason::None);
}

/// Crate-internal "system AM": run a `fn(A)` on `target` outside the RPC
/// accounting (collectives' flags and payloads ride on this). System AMs are
/// latency-critical control traffic and never aggregate; they do flush the
/// target's coalescing buffer first so per-target injection order holds.
pub(crate) fn sys_am<A: Ser>(target: Rank, f: fn(A), args: A) {
    let c = ctx();
    let _g = crate::persona::lock(&c);
    crate::agg::flush_target(&c, target, FlushReason::Ordering);
    let bytes = to_bytes(&args);
    let wire = wire::am_wire_size(bytes.len());
    let tag = c.op_tag(OpKind::SysAm, target as u32, bytes.len() as u32);
    // System AMs carry clocks too: barrier flags ride here, which is what
    // gives the sanitizer its "epochs advance on barrier" rule for free —
    // the dissemination rounds propagate every rank's clock transitively.
    let desc = AmDesc {
        tramp: deliver_sys::<A>,
        user: f as usize,
        aux: 0,
        tag,
        origin: c.me as u32,
        snap: san::msg_snapshot(&c),
        body: bytes,
    };
    c.inject(
        DefOp::Am {
            target,
            wire_bytes: wire,
            am: desc.into_am(c.frames),
        },
        tag,
    );
}
