//! # proc conduit — one OS **process** per rank (shm + Unix sockets)
//!
//! This is the conduit that escapes the single-address-space box: every rank
//! is a real process, so a crash is isolated, the scheduler sees real
//! processes, and nothing shares a heap. It makes the same substitution the
//! paper's GASNet-EX makes — RMA and Active Messages over real transports:
//!
//! * **Segments are mmap'd files.** The launcher pre-sizes one file per rank
//!   in a bootstrap directory; every rank maps *all* of them `MAP_SHARED`.
//!   An intra-node `rput`/`rget` is therefore still a genuine one-sided
//!   `memcpy` into the target's segment — no remote CPU, no message — and
//!   remote atomics are real CPU atomics on shared pages.
//! * **AMs travel over Unix-domain sockets** as serialized frames
//!   ([`crate::AmMode::Frames`]) built by the layer above. Small frames go
//!   **eager** — inline on the stream. Frames larger than
//!   [`ProcConfig::eager_max`] go **rendezvous**: the sender stages the
//!   frame in its own shm *staging region* (the `rv_size` tail of its
//!   segment file) and sends only a tiny descriptor; the receiver pulls the
//!   payload one-sidedly through shm and acks so the slot can be reused.
//!   If the staging region is momentarily full the sender falls back to the
//!   eager path (sockets have no size limit), so the conduit never blocks
//!   on its own flow control.
//!
//! ## Bootstrap handshake
//!
//! The parent (launcher) never becomes a rank. It creates
//! `$TMPDIR/upcxx-proc-<pid>-<world>/` containing `seg.<r>` (segment +
//! staging, pre-sized) and `ctrl` (barrier generation/count + world
//! counters), then fork/execs the current binary N times with
//! `UPCXX_PROC_{DIR,RANK,N,SEG,RV,EAGER_MAX,EPOCH_NS,WORLD}` in the
//! environment. Each child maps the files, binds a listener at `sock.<r>`,
//! and enters a ctrl-region barrier; once all N arrive, every listener
//! exists and ranks may connect lazily on first send. Teardown reverses it:
//! flush outstanding socket bytes, ctrl barrier, `exit(0)`. The parent
//! reaps children and **propagates the first non-zero exit** (killing the
//! stragglers) by panicking — rank failure is process failure, visible.
//!
//! ## Wire format (per stream message)
//!
//! `[len: u32][op: u8][payload: len-1 bytes]`, little-endian, with ops:
//! `0` = eager AM frame (payload is the frame), `1` = rendezvous descriptor
//! `[sender: u32][off: u64][len: u64]`, `2` = rendezvous ack
//! `[off: u64][len: u64]`. One stream per (sender, receiver) pair keeps
//! per-pair FIFO; rendezvous pulls happen synchronously at parse time so
//! ordering survives the indirection.
//!
//! The only unsafe syscall surface (raw `mmap`/`munmap` via `asm!` — the
//! workspace is dependency-free, and `std` exposes no mapping API) lives in
//! this file, which `scripts/lint.sh` enforces.

use crate::{Am, AmMode, Batch, Conduit, Rank};
use std::collections::VecDeque;
use std::fs;
use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Signature of the crash-forensics hook in [`ProcConfig::postmortem`]:
/// `(bootstrap_dir, rank_n, failed_rank)` → a report to print, or `None`
/// when there is nothing to say (no dump files found).
pub type PostmortemFn = fn(&Path, usize, usize) -> Option<String>;

/// Knobs for a proc-conduit world (the `upcxx` layer fills these from its
/// typed `Config`).
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// Remotely addressable bytes per rank (same meaning as smp).
    pub seg_size: usize,
    /// Bytes of rendezvous staging appended to each rank's segment file.
    pub rv_size: usize,
    /// Largest frame sent inline on the socket; larger frames rendezvous.
    pub eager_max: usize,
    /// Crash-forensics hook: when a rank fails, the launcher calls this with
    /// `(bootstrap_dir, n, failed_rank)` *before* removing the directory
    /// (`failed_rank == usize::MAX` = the world timed out) and prints the
    /// returned report to stderr. The `upcxx` layer installs its
    /// flight-recorder harvest here; the conduit itself never interprets the
    /// dump files — it only owns their lifetime.
    pub postmortem: Option<PostmortemFn>,
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            seg_size: 8 << 20,
            rv_size: 4 << 20,
            eager_max: 4096,
            postmortem: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Raw mmap (the workspace has no libc; std has no mapping API).
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_mmap_shared(len: usize, fd: i32) -> *mut u8 {
    const SYS_MMAP: isize = 9;
    const PROT_READ_WRITE: usize = 0x3;
    const MAP_SHARED: usize = 0x1;
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") SYS_MMAP => ret,
        in("rdi") 0usize,
        in("rsi") len,
        in("rdx") PROT_READ_WRITE,
        in("r10") MAP_SHARED,
        in("r8") fd,
        in("r9") 0usize,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    assert!(
        !(-4095..=-1).contains(&ret),
        "mmap(len={len}, fd={fd}) failed: errno {}",
        -ret
    );
    ret as *mut u8
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_munmap(addr: *mut u8, len: usize) {
    const SYS_MUNMAP: isize = 11;
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") SYS_MUNMAP => ret,
        in("rdi") addr,
        in("rsi") len,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    debug_assert_eq!(ret, 0, "munmap failed: errno {}", -ret);
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
unsafe fn sys_mmap_shared(_len: usize, _fd: i32) -> *mut u8 {
    panic!("the proc conduit requires x86_64 linux (raw mmap syscall)")
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
unsafe fn sys_munmap(_addr: *mut u8, _len: usize) {}

/// A `MAP_SHARED` file mapping, unmapped on drop.
struct Mapping {
    base: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain shared memory with a stable address for the
// life of the value; cross-thread access discipline is the segment contract
// (same as smp's `Segment`), cross-process access goes through atomics or
// explicitly synchronized byte ranges.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    fn of_file(path: &Path, len: usize) -> Mapping {
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap_or_else(|e| panic!("proc bootstrap: open {}: {e}", path.display()));
        let base = unsafe { sys_mmap_shared(len, file.as_raw_fd()) };
        Mapping { base, len }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        unsafe { sys_munmap(self.base, self.len) };
    }
}

// ctrl-file layout (offsets of AtomicU64 cells).
const CTRL_BAR_COUNT: usize = 0;
const CTRL_BAR_GEN: usize = 8;
const CTRL_AM_SENT: usize = 16;
const CTRL_ITEMS_RUN: usize = 24;
const CTRL_BATCHES: usize = 32;
const CTRL_LEN: usize = 4096;

// Stream message ops.
const OP_EAGER: u8 = 0;
const OP_RV_PUT: u8 = 1;
const OP_RV_ACK: u8 = 2;
const MSG_HDR: usize = 4; // u32 length prefix (length counts op + payload)

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}
fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// One lazily-established outgoing stream plus its unflushed tail. Writes
/// are never blocking: what the kernel refuses lands in `pending` and is
/// retried on every poll, so AM injection cannot deadlock two mutually
/// sending ranks.
struct OutConn {
    stream: UnixStream,
    pending: VecDeque<u8>,
}

/// An accepted incoming stream and its partial-message read buffer.
struct InConn {
    stream: UnixStream,
    buf: Vec<u8>,
    closed: bool,
}

/// First-fit extent allocator over this rank's rendezvous staging region.
struct RvAlloc {
    free: Vec<(usize, usize)>, // (off, len), sorted by off, coalesced
}

impl RvAlloc {
    fn new(size: usize) -> RvAlloc {
        RvAlloc {
            free: if size > 0 {
                vec![(0, size)]
            } else {
                Vec::new()
            },
        }
    }
    fn alloc(&mut self, len: usize) -> Option<usize> {
        let i = self.free.iter().position(|&(_, flen)| flen >= len)?;
        let (off, flen) = self.free[i];
        if flen == len {
            self.free.remove(i);
        } else {
            self.free[i] = (off + len, flen - len);
        }
        Some(off)
    }
    fn free(&mut self, off: usize, len: usize) {
        let i = self.free.partition_point(|&(o, _)| o < off);
        self.free.insert(i, (off, len));
        // Coalesce with right then left neighbor.
        if i + 1 < self.free.len() && self.free[i].0 + self.free[i].1 == self.free[i + 1].0 {
            self.free[i].1 += self.free[i + 1].1;
            self.free.remove(i + 1);
        }
        if i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == self.free[i].0 {
            self.free[i - 1].1 += self.free[i].1;
            self.free.remove(i);
        }
    }
}

/// Mutable networking state, serialized under one lock. The lock is never
/// held while executing delivered frames (poll drains into a local vec
/// first), so AM handlers can re-enter the conduit freely.
struct Net {
    dir: PathBuf,
    listener: UnixListener,
    out: Vec<Option<OutConn>>,
    inbound: Vec<InConn>,
    rxq: VecDeque<Vec<u8>>,
    rv: RvAlloc,
}

/// This process's handle on a proc-conduit world (implements [`Conduit`]).
pub struct ProcHandle {
    me: Rank,
    n: usize,
    seg_size: usize,
    rv_size: usize,
    eager_max: usize,
    /// `segs[r]` maps rank r's `seg.<r>` file: `seg_size` addressable bytes
    /// followed by `rv_size` bytes of r's rendezvous staging.
    segs: Vec<Mapping>,
    ctrl: Mapping,
    epoch_ns: u64,
    net: Mutex<Net>,
    /// Sends that wanted the rendezvous path but found staging exhausted and
    /// fell back to eager wire framing (surfaced through [`Conduit::depths`]).
    eager_fallbacks: AtomicU64,
}

impl ProcHandle {
    fn ctrl_atomic(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= CTRL_LEN);
        // SAFETY: in-bounds, 8-aligned fixed offsets into a shared mapping;
        // all processes access these words through AtomicU64 only.
        unsafe { &*(self.ctrl.base.add(off) as *const AtomicU64) }
    }

    fn seg_atomic(&self, rank: Rank, off: usize) -> &AtomicU64 {
        assert!(off + 8 <= self.seg_size, "atomic out of segment bounds");
        assert_eq!(off % 8, 0, "atomic offset must be 8-byte aligned");
        // SAFETY: in-bounds, aligned; cross-process accesses to this word
        // all go through AtomicU64 on MAP_SHARED pages.
        unsafe { &*(self.segs[rank].base.add(off) as *const AtomicU64) }
    }

    fn check_range(&self, rank: Rank, off: usize, len: usize) {
        let end = off.checked_add(len).expect("segment range overflow");
        assert!(
            rank < self.n && end <= self.seg_size,
            "segment access out of bounds: rank {rank} off {off} len {len} (seg {})",
            self.seg_size
        );
    }

    /// Append one `[len][op][payload...]` message toward `target`,
    /// connecting lazily, then opportunistically flush.
    fn enqueue_msg(net: &mut Net, target: Rank, op: u8, parts: &[&[u8]]) {
        if net.out[target].is_none() {
            let path = net.dir.join(format!("sock.{target}"));
            let stream = UnixStream::connect(&path)
                .unwrap_or_else(|e| panic!("proc: connect to rank {target}: {e}"));
            stream.set_nonblocking(true).expect("set_nonblocking");
            net.out[target] = Some(OutConn {
                stream,
                pending: VecDeque::new(),
            });
        }
        let conn = net.out[target].as_mut().unwrap();
        let total: usize = 1 + parts.iter().map(|p| p.len()).sum::<usize>();
        let mut hdr = Vec::with_capacity(MSG_HDR + 1);
        put_u32(&mut hdr, total as u32);
        hdr.push(op);
        conn.pending.extend(hdr);
        for p in parts {
            conn.pending.extend(p.iter().copied());
        }
        Self::flush_conn(conn);
    }

    fn flush_conn(conn: &mut OutConn) {
        while !conn.pending.is_empty() {
            let (head, _) = conn.pending.as_slices();
            match conn.stream.write(head) {
                Ok(0) => break,
                Ok(k) => {
                    conn.pending.drain(..k);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("proc: socket write: {e}"),
            }
        }
    }

    /// Service the sockets under the net lock: flush pending writes, accept
    /// new peers, read and parse inbound messages (rendezvous descriptors
    /// are resolved — shm pull + ack — inline, preserving stream order).
    fn pump(&self, net: &mut Net) {
        for conn in net.out.iter_mut().flatten() {
            Self::flush_conn(conn);
        }
        loop {
            match net.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true).expect("set_nonblocking");
                    net.inbound.push(InConn {
                        stream,
                        buf: Vec::new(),
                        closed: false,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("proc: accept: {e}"),
            }
        }
        let mut chunk = [0u8; 16 << 10];
        // Index-based loop: parsing an OP_RV_PUT enqueues an ack via
        // `net.out`, so the inbound list cannot be mutably iterated.
        for i in 0..net.inbound.len() {
            loop {
                match net.inbound[i].stream.read(&mut chunk) {
                    Ok(0) => {
                        net.inbound[i].closed = true;
                        break;
                    }
                    Ok(k) => net.inbound[i].buf.extend_from_slice(&chunk[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == ErrorKind::ConnectionReset => {
                        net.inbound[i].closed = true;
                        break;
                    }
                    Err(e) => panic!("proc: socket read: {e}"),
                }
            }
            let mut at = 0usize;
            while net.inbound[i].buf.len() >= at + MSG_HDR {
                let mlen = get_u32(&net.inbound[i].buf, at) as usize;
                if net.inbound[i].buf.len() < at + MSG_HDR + mlen {
                    break;
                }
                let op = net.inbound[i].buf[at + MSG_HDR];
                let body_at = at + MSG_HDR + 1;
                let body_len = mlen - 1;
                match op {
                    OP_EAGER => {
                        let frame = net.inbound[i].buf[body_at..body_at + body_len].to_vec();
                        net.rxq.push_back(frame);
                    }
                    OP_RV_PUT => {
                        let sender = get_u32(&net.inbound[i].buf, body_at) as usize;
                        let off = get_u64(&net.inbound[i].buf, body_at + 4) as usize;
                        let len = get_u64(&net.inbound[i].buf, body_at + 12) as usize;
                        assert!(
                            sender < self.n && off + len <= self.rv_size,
                            "proc: bad rendezvous descriptor"
                        );
                        let mut frame = vec![0u8; len];
                        // SAFETY: the sender staged `len` bytes at `off` in
                        // its own staging region (tail of its mapped file)
                        // and will not reuse the slot until our ack.
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                self.segs[sender].base.add(self.seg_size + off),
                                frame.as_mut_ptr(),
                                len,
                            );
                        }
                        net.rxq.push_back(frame);
                        let mut ack = Vec::with_capacity(16);
                        put_u64(&mut ack, off as u64);
                        put_u64(&mut ack, len as u64);
                        Self::enqueue_msg(net, sender, OP_RV_ACK, &[&ack]);
                    }
                    OP_RV_ACK => {
                        let off = get_u64(&net.inbound[i].buf, body_at) as usize;
                        let len = get_u64(&net.inbound[i].buf, body_at + 8) as usize;
                        net.rv.free(off, len);
                    }
                    other => panic!("proc: unknown wire op {other}"),
                }
                at += MSG_HDR + mlen;
            }
            if at > 0 {
                net.inbound[i].buf.drain(..at);
            }
        }
        net.inbound.retain(|c| !c.closed || !c.buf.is_empty());
    }

    /// Ship one serialized frame to `target`: loopback directly, eager
    /// inline when small, rendezvous through shm staging when large (with
    /// eager fallback if staging is full — never blocks).
    fn send_frame(&self, target: Rank, frame: Vec<u8>) {
        assert!(target < self.n, "send to rank {target} of {}", self.n);
        self.ctrl_atomic(CTRL_AM_SENT)
            .fetch_add(1, Ordering::Relaxed);
        let mut net = self.net.lock().unwrap();
        if target == self.me {
            net.rxq.push_back(frame);
            return;
        }
        if frame.len() <= self.eager_max {
            Self::enqueue_msg(&mut net, target, OP_EAGER, &[&frame]);
            return;
        }
        match net.rv.alloc(frame.len()) {
            Some(off) => {
                // SAFETY: `off..off+len` was just reserved in our own
                // staging region; peers only read it after the descriptor.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        frame.as_ptr(),
                        self.segs[self.me].base.add(self.seg_size + off),
                        frame.len(),
                    );
                }
                let mut desc = Vec::with_capacity(20);
                put_u32(&mut desc, self.me as u32);
                put_u64(&mut desc, off as u64);
                put_u64(&mut desc, frame.len() as u64);
                Self::enqueue_msg(&mut net, target, OP_RV_PUT, &[&desc]);
            }
            None => {
                self.eager_fallbacks.fetch_add(1, Ordering::Relaxed);
                Self::enqueue_msg(&mut net, target, OP_EAGER, &[&frame]);
            }
        }
    }

    /// True once every outgoing byte has been handed to the kernel.
    fn out_drained(&self) -> bool {
        let mut net = self.net.lock().unwrap();
        self.pump(&mut net);
        net.out.iter().flatten().all(|c| c.pending.is_empty())
    }

    fn ctrl_barrier(&self) {
        let count = self.ctrl_atomic(CTRL_BAR_COUNT);
        let gen = self.ctrl_atomic(CTRL_BAR_GEN);
        let g = gen.load(Ordering::Acquire);
        if count.fetch_add(1, Ordering::AcqRel) + 1 == self.n as u64 {
            count.store(0, Ordering::Release);
            gen.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while gen.load(Ordering::Acquire) == g {
                spins = spins.saturating_add(1);
                if spins > 1000 {
                    std::thread::sleep(Duration::from_micros(50));
                } else if spins > 64 {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Teardown rendezvous: like [`Self::ctrl_barrier`] but keeps servicing
    /// the sockets while waiting, so a slower peer whose send buffer toward
    /// us filled up can always finish flushing (we drain our receive side).
    fn teardown_barrier(&self) {
        let count = self.ctrl_atomic(CTRL_BAR_COUNT);
        let gen = self.ctrl_atomic(CTRL_BAR_GEN);
        let g = gen.load(Ordering::Acquire);
        if count.fetch_add(1, Ordering::AcqRel) + 1 == self.n as u64 {
            count.store(0, Ordering::Release);
            gen.fetch_add(1, Ordering::Release);
        } else {
            while gen.load(Ordering::Acquire) == g {
                {
                    let mut net = self.net.lock().unwrap();
                    self.pump(&mut net);
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

impl Conduit for ProcHandle {
    fn rank_me(&self) -> Rank {
        self.me
    }
    fn rank_n(&self) -> usize {
        self.n
    }
    fn seg_size(&self) -> usize {
        self.seg_size
    }
    fn am_mode(&self) -> AmMode {
        AmMode::Frames
    }
    fn seg_base(&self, rank: Rank) -> *mut u8 {
        assert!(rank < self.n);
        self.segs[rank].base
    }
    fn put_bytes(&self, dst_rank: Rank, dst_off: usize, src: &[u8]) {
        self.check_range(dst_rank, dst_off, src.len());
        // SAFETY: range checked; MAP_SHARED pages are valid for the world's
        // lifetime and the caller owns synchronization (PGAS contract).
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.segs[dst_rank].base.add(dst_off),
                src.len(),
            );
        }
    }
    fn get_bytes(&self, src_rank: Rank, src_off: usize, dst: &mut [u8]) {
        self.check_range(src_rank, src_off, dst.len());
        // SAFETY: as in put_bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.segs[src_rank].base.add(src_off),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
    }
    fn fill_bytes(&self, rank: Rank, off: usize, len: usize, byte: u8) {
        self.check_range(rank, off, len);
        // SAFETY: as in put_bytes.
        unsafe {
            std::ptr::write_bytes(self.segs[rank].base.add(off), byte, len);
        }
    }
    fn atomic_fetch_add_u64(&self, rank: Rank, off: usize, val: u64) -> u64 {
        self.seg_atomic(rank, off).fetch_add(val, Ordering::AcqRel)
    }
    fn atomic_load_u64(&self, rank: Rank, off: usize) -> u64 {
        self.seg_atomic(rank, off).load(Ordering::Acquire)
    }
    fn atomic_store_u64(&self, rank: Rank, off: usize, val: u64) {
        self.seg_atomic(rank, off).store(val, Ordering::Release)
    }
    fn atomic_cas_u64(&self, rank: Rank, off: usize, expected: u64, new: u64) -> u64 {
        match self.seg_atomic(rank, off).compare_exchange(
            expected,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(v) => v,
            Err(v) => v,
        }
    }
    fn send_am(&self, target: Rank, am: Am) {
        match am {
            Am::Frame(frame) => self.send_frame(target, frame),
            Am::Item(_) => unreachable!("proc is a cross-process conduit; AMs travel as frames"),
        }
    }
    fn send_am_batch(&self, target: Rank, batch: Batch) {
        self.ctrl_atomic(CTRL_BATCHES)
            .fetch_add(1, Ordering::Relaxed);
        match batch {
            Batch::Frame(frame) => self.send_frame(target, frame),
            Batch::Item(_) => {
                unreachable!("proc is a cross-process conduit; AMs travel as frames")
            }
        }
    }
    fn poll(&self, budget: usize, sink: &mut dyn FnMut(Vec<u8>)) -> usize {
        let frames: Vec<Vec<u8>> = {
            let mut net = self.net.lock().unwrap();
            self.pump(&mut net);
            let k = budget.min(net.rxq.len());
            net.rxq.drain(..k).collect()
        };
        let ran = frames.len();
        // Lock released: frames may re-enter the conduit (replies, acks).
        for f in frames {
            sink(f);
        }
        if ran > 0 {
            self.ctrl_atomic(CTRL_ITEMS_RUN)
                .fetch_add(ran as u64, Ordering::Relaxed);
        }
        ran
    }
    fn inbox_nonempty(&self) -> bool {
        !self.net.lock().unwrap().rxq.is_empty()
    }
    fn inbox_depth(&self) -> u64 {
        self.net.lock().unwrap().rxq.len() as u64
    }
    fn depths(&self) -> crate::ConduitDepths {
        let net = self.net.lock().unwrap();
        let free: usize = net.rv.free.iter().map(|&(_, len)| len).sum();
        crate::ConduitDepths {
            inbox: net.rxq.len() as u64,
            backlog_bytes: net
                .out
                .iter()
                .flatten()
                .map(|c| c.pending.len() as u64)
                .sum(),
            staging_used: (self.rv_size - free) as u64,
            staging_cap: self.rv_size as u64,
            eager_fallbacks: self.eager_fallbacks.load(Ordering::Relaxed),
        }
    }
    fn wall_ps(&self) -> u64 {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos() as u64;
        now.saturating_sub(self.epoch_ns).saturating_mul(1000)
    }
    fn barrier(&self) {
        self.ctrl_barrier()
    }
}

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

fn env_usize(key: &str) -> usize {
    std::env::var(key)
        .unwrap_or_else(|_| panic!("proc child: missing {key}"))
        .parse()
        .unwrap_or_else(|_| panic!("proc child: bad {key}"))
}

/// Worlds launched (parent) or encountered (child) by this process, so a
/// re-exec'd child can skip `launch` calls that belong to earlier worlds
/// and join exactly the one it was spawned for.
static WORLD_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Choose the argv a re-exec'd rank needs to reach the same `launch` call.
/// Example/bin mains run on the main thread: replay our own argv. Under
/// the libtest harness the test body runs on a thread named after the
/// test: re-run exactly that one test, serially.
fn child_args() -> Vec<String> {
    match std::thread::current().name() {
        None | Some("main") => std::env::args().skip(1).collect(),
        Some(test_name) => vec![
            test_name.to_string(),
            "--exact".to_string(),
            "--test-threads=1".to_string(),
            "-q".to_string(),
        ],
    }
}

/// Run an SPMD world of `n` ranks, **one OS process each**.
///
/// In the launching process this fork/execs the current binary `n` times
/// and blocks until every rank exits; `f` is **not** called (the launcher
/// is not a rank), and the first non-zero child exit is propagated as a
/// panic after killing the remaining ranks. In a spawned rank process this
/// joins the world, runs `f` with the rank's handle, tears the conduit
/// down collectively, and **exits the process** — code after `launch` in a
/// rank never runs. Consequence: assertions about world results belong
/// *inside* `f` (each rank), not after `launch`.
pub fn launch<F>(n: usize, cfg: ProcConfig, f: F)
where
    F: FnOnce(Arc<ProcHandle>),
{
    assert!(n > 0, "world needs at least one rank");
    let world = WORLD_COUNTER.fetch_add(1, Ordering::SeqCst);
    match std::env::var("UPCXX_PROC_RANK") {
        Ok(rank) => {
            let target_world: u64 = env_usize("UPCXX_PROC_WORLD") as u64;
            if world < target_world {
                // An earlier world in this binary's control flow: it ran in
                // a previous set of processes. Skip it; our world is ahead.
                return;
            }
            assert_eq!(
                world, target_world,
                "proc child overran its target world (launch calls diverged from parent)"
            );
            child_main(rank.parse().expect("bad UPCXX_PROC_RANK"), f);
        }
        Err(_) => parent_main(n, cfg, world),
    }
}

fn child_main<F>(me: Rank, f: F) -> !
where
    F: FnOnce(Arc<ProcHandle>),
{
    let dir = PathBuf::from(std::env::var("UPCXX_PROC_DIR").expect("missing UPCXX_PROC_DIR"));
    let n = env_usize("UPCXX_PROC_N");
    let seg_size = env_usize("UPCXX_PROC_SEG");
    let rv_size = env_usize("UPCXX_PROC_RV");
    let eager_max = env_usize("UPCXX_PROC_EAGER_MAX");
    let epoch_ns = env_usize("UPCXX_PROC_EPOCH_NS") as u64;
    assert!(me < n, "rank {me} out of range (n={n})");

    let segs: Vec<Mapping> = (0..n)
        .map(|r| Mapping::of_file(&dir.join(format!("seg.{r}")), seg_size + rv_size))
        .collect();
    let ctrl = Mapping::of_file(&dir.join("ctrl"), CTRL_LEN);

    let sock_path = dir.join(format!("sock.{me}"));
    let listener = UnixListener::bind(&sock_path)
        .unwrap_or_else(|e| panic!("proc rank {me}: bind {}: {e}", sock_path.display()));
    listener.set_nonblocking(true).expect("set_nonblocking");

    let h = Arc::new(ProcHandle {
        me,
        n,
        seg_size,
        rv_size,
        eager_max,
        segs,
        ctrl,
        epoch_ns,
        net: Mutex::new(Net {
            dir,
            listener,
            out: (0..n).map(|_| None).collect(),
            inbound: Vec::new(),
            rxq: VecDeque::new(),
            rv: RvAlloc::new(rv_size),
        }),
        eager_fallbacks: AtomicU64::new(0),
    });

    // Startup rendezvous: after this, every rank's listener exists and
    // lazy connects cannot race a missing socket file.
    h.ctrl_barrier();

    f(h.clone());

    // Collective teardown. The layer above has already run its own
    // world barrier inside `f`, so remaining traffic is conduit-internal
    // (rendezvous acks, late flushes). Hand every outgoing byte to the
    // kernel — pumping reads throughout, so no peer can wedge on a full
    // buffer — then rendezvous once more before dying.
    while !h.out_drained() {
        std::thread::sleep(Duration::from_micros(100));
    }
    h.teardown_barrier();
    let _ = std::io::stdout().flush();
    let _ = std::io::stderr().flush();
    std::process::exit(0);
}

fn parent_main(n: usize, cfg: ProcConfig, world: u64) {
    let dir = std::env::temp_dir().join(format!("upcxx-proc-{}-{world}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("proc: mkdir {}: {e}", dir.display()));
    for r in 0..n {
        let file = fs::File::create(dir.join(format!("seg.{r}")))
            .unwrap_or_else(|e| panic!("proc: create seg.{r}: {e}"));
        file.set_len((cfg.seg_size + cfg.rv_size) as u64)
            .expect("proc: size segment file");
    }
    fs::File::create(dir.join("ctrl"))
        .expect("proc: create ctrl")
        .set_len(CTRL_LEN as u64)
        .expect("proc: size ctrl");

    let exe = std::env::current_exe().expect("proc: current_exe");
    let args = child_args();
    let epoch_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64;
    let mut children: Vec<Child> = (0..n)
        .map(|r| {
            Command::new(&exe)
                .args(&args)
                .env("UPCXX_PROC_DIR", &dir)
                .env("UPCXX_PROC_RANK", r.to_string())
                .env("UPCXX_PROC_N", n.to_string())
                .env("UPCXX_PROC_SEG", cfg.seg_size.to_string())
                .env("UPCXX_PROC_RV", cfg.rv_size.to_string())
                .env("UPCXX_PROC_EAGER_MAX", cfg.eager_max.to_string())
                .env("UPCXX_PROC_EPOCH_NS", epoch_ns.to_string())
                .env("UPCXX_PROC_WORLD", world.to_string())
                .env("UPCXX_CONDUIT", "proc")
                .spawn()
                .unwrap_or_else(|e| panic!("proc: spawn rank {r}: {e}"))
        })
        .collect();

    let timeout_s: u64 = std::env::var("UPCXX_PROC_TIMEOUT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let deadline = Instant::now() + Duration::from_secs(timeout_s);
    let mut done = vec![false; n];
    let mut failure: Option<(usize, i32)> = None;
    'wait: while !done.iter().all(|&d| d) {
        for (r, child) in children.iter_mut().enumerate() {
            if done[r] {
                continue;
            }
            match child.try_wait() {
                Ok(Some(status)) => {
                    done[r] = true;
                    let code = status.code().unwrap_or(-1);
                    if code != 0 {
                        failure = Some((r, code));
                        break 'wait;
                    }
                }
                Ok(None) => {}
                Err(e) => panic!("proc: wait on rank {r}: {e}"),
            }
        }
        if timeout_s > 0 && Instant::now() > deadline {
            failure = Some((usize::MAX, -1));
            break 'wait;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    if let Some((r, code)) = failure {
        for (k, child) in children.iter_mut().enumerate() {
            if !done[k] {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        // Harvest crash dumps (flight recorders, metrics) from the bootstrap
        // dir while it still exists; the hook renders, we only print.
        if let Some(report) = cfg.postmortem.and_then(|pm| pm(&dir, n, r)) {
            eprintln!("{report}");
        }
        let _ = fs::remove_dir_all(&dir);
        if r == usize::MAX {
            panic!("proc world {world}: timed out after {timeout_s}s waiting for ranks");
        }
        panic!("proc world {world}: rank {r} exited with code {code}");
    }
    let _ = fs::remove_dir_all(&dir);
}
