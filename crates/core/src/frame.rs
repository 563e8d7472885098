//! Self-describing Active-Message frames for address-space-crossing
//! conduits.
//!
//! The smp and sim conduits move AMs as boxed closures ([`gasnet::Item`]) —
//! possible only because every rank shares one address space. The proc
//! conduit's ranks are separate processes, so an AM must travel as bytes: a
//! **frame** carrying (a) *which handler to run*, (b) the op's trace
//! identity, (c) the sender's sanitizer clock snapshot and (d) the
//! serialized payload. This module is the single encoder/decoder.
//!
//! ## Shipping functions across processes
//!
//! Every rank of a proc world executes the *same binary* (the launcher
//! re-execs `current_exe()`), but ASLR gives each process a different image
//! base, so a raw `fn` address from one rank is garbage in another. What
//! *is* stable is the distance between two text symbols of one binary:
//! frames therefore carry each function as its offset from a fixed
//! [`code_anchor`], and the receiver adds its own anchor back. (The same
//! trick fixes [`crate::dist`]'s serialized `fn` tokens.)
//!
//! ## One code path for closures and frames
//!
//! Handler logic is **not** duplicated per representation. Every AM is
//! built as an [`AmDesc`] naming a monomorphized *trampoline*
//! `fn(FrameEnv)`; [`AmDesc::into_am`] then either wraps it in a closure
//! (`Items` conduits) or encodes it (`Frames` conduits). Either way the
//! target runs the identical trampoline with an identical [`FrameEnv`], so
//! trace shape, sanitizer joins and span bookkeeping cannot diverge between
//! conduits.
//!
//! ## Wire layout (little-endian)
//!
//! Single frame:
//!
//! ```text
//! [0u8] [u64 tramp_off] [u64 user_off]
//! [u64 tid][u8 kind][u32 peer][u32 bytes][u32 parent_origin][u64 parent_op]
//! [u32 origin] [u64 aux]
//! [u8 has_snap] { [u32 n] [n × u64] }   // sanitizer clock, if any
//! [u32 body_len] [body]
//! ```
//!
//! Batch container (built by `crate::agg` in frame mode):
//!
//! ```text
//! [1u8]
//! [u64 tid][u8 kind][u32 peer][u32 bytes][u32 parent_origin][u64 parent_op]
//! [u32 origin] [u32 count] count × { [u32 len] [single frame] }
//! ```
//!
//! The decoder brackets a batch exactly like `agg::flush_target`'s
//! closure-mode batches: batch `Deliver`, members in order, batch
//! `Complete`, then an `ItemTail` flush of whatever the members buffered.

use crate::ctx::try_ctx;
use crate::trace::{FlushReason, OpKind, Phase, TraceTag};

/// A monomorphized AM handler entry point (see module docs): receives the
/// decoded environment and runs the op's full target-side logic.
pub(crate) type Tramp = fn(FrameEnv);

/// Everything an AM trampoline needs at the target, identical whether the
/// AM arrived as a closure or as a decoded frame.
pub(crate) struct FrameEnv {
    /// The user/handler `fn` pointer as an absolute address in *this*
    /// process (already anchor-adjusted); `0` when the trampoline needs no
    /// user function (RPC replies).
    pub user: usize,
    /// Trampoline-specific word (the reply path's op id).
    pub aux: u64,
    /// The op's trace identity, as assigned at the initiator.
    pub tag: TraceTag,
    /// The initiating rank.
    pub origin: u32,
    /// Sender's sanitizer vector-clock snapshot.
    pub snap: Option<Vec<u64>>,
    /// Serialized payload.
    pub body: Vec<u8>,
}

/// One outgoing AM, representation-neutral. Built by `crate::rpc`, shipped
/// via [`AmDesc::into_am`] according to the conduit's [`gasnet::AmMode`].
pub(crate) struct AmDesc {
    /// Target-side entry point.
    pub tramp: Tramp,
    /// User `fn` passed through to the trampoline (absolute, this process).
    pub user: usize,
    /// Trampoline-specific word.
    pub aux: u64,
    /// Trace identity.
    pub tag: TraceTag,
    /// Initiating rank.
    pub origin: u32,
    /// Sanitizer clock snapshot.
    pub snap: Option<Vec<u64>>,
    /// Serialized payload.
    pub body: Vec<u8>,
}

impl AmDesc {
    /// Package for the conduit: a closure for `Items` conduits, an encoded
    /// frame for `Frames` conduits.
    pub(crate) fn into_am(self, frames: bool) -> gasnet::Am {
        if frames {
            gasnet::Am::Frame(self.encode())
        } else {
            gasnet::Am::Item(self.into_item())
        }
    }

    /// The closure form: defers straight to the trampoline.
    pub(crate) fn into_item(self) -> gasnet::Item {
        let AmDesc {
            tramp,
            user,
            aux,
            tag,
            origin,
            snap,
            body,
        } = self;
        Box::new(move || {
            tramp(FrameEnv {
                user,
                aux,
                tag,
                origin,
                snap,
                body,
            })
        })
    }

    /// The wire form (layout in module docs).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.body.len());
        out.push(0u8);
        out.extend_from_slice(&encode_fn(self.tramp as usize).to_le_bytes());
        out.extend_from_slice(&encode_fn(self.user).to_le_bytes());
        encode_tag(&mut out, self.tag);
        out.extend_from_slice(&self.origin.to_le_bytes());
        out.extend_from_slice(&self.aux.to_le_bytes());
        match &self.snap {
            None => out.push(0),
            Some(clock) => {
                out.push(1);
                out.extend_from_slice(&(clock.len() as u32).to_le_bytes());
                for w in clock {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

// ------------------------------------------------- fn <-> offset encoding

/// Fixed text-segment reference point for function encoding (module docs).
/// `#[inline(never)]` pins a real symbol whose address is meaningful.
#[inline(never)]
fn anchor_symbol() {}

/// This process's code anchor.
fn code_anchor() -> usize {
    anchor_symbol as fn() as usize
}

/// Encode a function address (or 0) as an ASLR-stable anchor offset.
pub(crate) fn encode_fn(addr: usize) -> u64 {
    (addr as u64).wrapping_sub(code_anchor() as u64)
}

/// Recover an absolute address in this process from an anchor offset.
pub(crate) fn decode_fn(off: u64) -> usize {
    off.wrapping_add(code_anchor() as u64) as usize
}

// ------------------------------------------------------- tag wire helpers

fn kind_to_u8(k: OpKind) -> u8 {
    match k {
        OpKind::Put => 0,
        OpKind::Get => 1,
        OpKind::Amo => 2,
        OpKind::Rpc => 3,
        OpKind::RpcFf => 4,
        OpKind::Reply => 5,
        OpKind::SysAm => 6,
        OpKind::Batch => 7,
    }
}

fn kind_from_u8(b: u8) -> OpKind {
    match b {
        0 => OpKind::Put,
        1 => OpKind::Get,
        2 => OpKind::Amo,
        3 => OpKind::Rpc,
        4 => OpKind::RpcFf,
        5 => OpKind::Reply,
        6 => OpKind::SysAm,
        7 => OpKind::Batch,
        other => panic!("corrupt AM frame: unknown OpKind byte {other}"),
    }
}

fn encode_tag(out: &mut Vec<u8>, tag: TraceTag) {
    out.extend_from_slice(&tag.tid.to_le_bytes());
    out.push(kind_to_u8(tag.kind));
    out.extend_from_slice(&tag.peer.to_le_bytes());
    out.extend_from_slice(&tag.bytes.to_le_bytes());
    out.extend_from_slice(&tag.parent_origin.to_le_bytes());
    out.extend_from_slice(&tag.parent_op.to_le_bytes());
}

/// Minimal cursor over a frame (panics on truncation — a malformed frame is
/// a runtime bug, never application data).
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, i: 0 }
    }
    fn u8(&mut self) -> u8 {
        let v = self.b[self.i];
        self.i += 1;
        v
    }
    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.b[self.i..self.i + 4].try_into().unwrap());
        self.i += 4;
        v
    }
    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.b[self.i..self.i + 8].try_into().unwrap());
        self.i += 8;
        v
    }
    fn bytes(&mut self, n: usize) -> &'a [u8] {
        let v = &self.b[self.i..self.i + n];
        self.i += n;
        v
    }
}

fn decode_tag(c: &mut Cur) -> TraceTag {
    TraceTag {
        tid: c.u64(),
        kind: kind_from_u8(c.u8()),
        peer: c.u32(),
        bytes: c.u32(),
        parent_origin: c.u32(),
        parent_op: c.u64(),
    }
}

fn decode_single(c: &mut Cur) -> (Tramp, FrameEnv) {
    let tramp_addr = decode_fn(c.u64());
    let user = decode_fn(c.u64());
    let tag = decode_tag(c);
    let origin = c.u32();
    let aux = c.u64();
    let snap = match c.u8() {
        0 => None,
        _ => {
            let n = c.u32() as usize;
            Some((0..n).map(|_| c.u64()).collect())
        }
    };
    let body_len = c.u32() as usize;
    let body = c.bytes(body_len).to_vec();
    // SAFETY: `tramp_addr` was produced by `encode_fn` from a `Tramp` in
    // this same binary (single-executable SPMD; module docs); the anchor
    // arithmetic restores the original address under this process's image
    // base. The signature is pinned by construction in `AmDesc`.
    let tramp: Tramp = unsafe { std::mem::transmute::<usize, Tramp>(tramp_addr) };
    (
        tramp,
        FrameEnv {
            user,
            aux,
            tag,
            origin,
            snap,
            body,
        },
    )
}

// ----------------------------------------------------------- batch frames

/// Build a batch container from already-encoded member frames (`crate::agg`
/// frame-mode flush). `batch_tag`/`origin` brand the target-side bracket.
pub(crate) fn encode_batch(members: &[gasnet::Am], batch_tag: TraceTag, origin: u32) -> Vec<u8> {
    fn frame(am: &gasnet::Am) -> &[u8] {
        match am {
            gasnet::Am::Frame(f) => f,
            gasnet::Am::Item(_) => unreachable!("closure AM buffered on a frame-mode conduit"),
        }
    }
    let total: usize = members.iter().map(|m| 4 + frame(m).len()).sum();
    let mut out = Vec::with_capacity(48 + total);
    out.push(1u8);
    encode_tag(&mut out, batch_tag);
    out.extend_from_slice(&origin.to_le_bytes());
    out.extend_from_slice(&(members.len() as u32).to_le_bytes());
    for m in members {
        let m = frame(m);
        out.extend_from_slice(&(m.len() as u32).to_le_bytes());
        out.extend_from_slice(m);
    }
    out
}

// -------------------------------------------------------------- execution

/// Decode and run one received frame (single or batch) on the current rank.
/// This is the `sink` the progress paths hand to [`gasnet::Conduit::poll`]
/// on frame-mode conduits.
pub(crate) fn exec_frame_sink(bytes: Vec<u8>) {
    let mut c = Cur::new(&bytes);
    match c.u8() {
        0 => {
            let (tramp, env) = decode_single(&mut c);
            tramp(env);
        }
        1 => exec_batch(&mut c),
        other => panic!("corrupt AM frame: unknown container byte {other}"),
    }
}

/// Run a batch container: the same Deliver/members/Complete/ItemTail
/// bracket `agg::run_batch` runs in closure mode.
fn exec_batch(c: &mut Cur) {
    let batch_tag = decode_tag(c);
    let origin = c.u32();
    let count = c.u32() as usize;
    if let Some(rc) = try_ctx() {
        rc.emit_from(Phase::Deliver, batch_tag, origin, FlushReason::None);
    }
    for _ in 0..count {
        let len = c.u32() as usize;
        let mut mc = Cur::new(c.bytes(len));
        match mc.u8() {
            0 => {
                let (tramp, env) = decode_single(&mut mc);
                tramp(env);
            }
            other => panic!("corrupt AM batch member: container byte {other}"),
        }
    }
    if let Some(rc) = try_ctx() {
        rc.emit_from(Phase::Complete, batch_tag, origin, FlushReason::None);
        crate::agg::flush_all_ctx(&rc, FlushReason::ItemTail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SEEN: AtomicU64 = AtomicU64::new(0);

    fn probe_tramp(env: FrameEnv) {
        // Record enough of the env to prove a lossless round trip.
        let first_body = env.body.first().copied().unwrap_or(0) as u64;
        SEEN.store(
            env.aux ^ env.tag.tid ^ (env.origin as u64) ^ first_body,
            Ordering::SeqCst,
        );
        assert_eq!(env.user, probe_user as fn() as usize);
        assert_eq!(env.snap.as_deref(), Some(&[7u64, 9][..]));
        assert_eq!(env.tag.kind, OpKind::SysAm);
        assert_eq!(env.tag.parent_origin, 3);
        assert_eq!(env.tag.parent_op, 44);
    }

    fn probe_user() {}

    fn desc() -> AmDesc {
        AmDesc {
            tramp: probe_tramp,
            user: probe_user as fn() as usize,
            aux: 0xA5,
            tag: TraceTag {
                tid: 21,
                kind: OpKind::SysAm,
                peer: 2,
                bytes: 3,
                parent_origin: 3,
                parent_op: 44,
            },
            origin: 6,
            snap: Some(vec![7, 9]),
            body: vec![13, 1, 2],
        }
    }

    #[test]
    fn fn_offsets_round_trip() {
        for f in [
            probe_tramp as Tramp as usize,
            probe_user as fn() as usize,
            0usize,
        ] {
            assert_eq!(decode_fn(encode_fn(f)), f);
        }
    }

    #[test]
    fn encode_decode_execute_single() {
        let bytes = desc().encode();
        exec_frame_sink(bytes);
        assert_eq!(SEEN.load(Ordering::SeqCst), 0xA5 ^ 21 ^ 6 ^ 13);
    }

    #[test]
    fn item_and_frame_agree() {
        // The closure form and the decoded-frame form must drive the same
        // trampoline with the same env (the module's core invariant).
        (desc().into_item())();
        let via_item = SEEN.swap(0, Ordering::SeqCst);
        exec_frame_sink(desc().encode());
        assert_eq!(SEEN.load(Ordering::SeqCst), via_item);
    }
}
