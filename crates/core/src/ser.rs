//! Serialization for RPC arguments and results.
//!
//! UPC++ serializes RPC callables and arguments into Active Message payloads
//! (§III). We reproduce that with a compact little-endian codec rather than
//! `serde`, for two reasons: the network model charges per *wire byte*, so
//! the runtime must own the byte layout; and UPC++'s `view` semantics —
//! deserializing a sequence as a non-owning window into the incoming network
//! buffer — map directly onto [`View`] but poorly onto serde's data model.
//!
//! * [`Ser`] — types that can cross ranks by value (the analogue of UPC++
//!   `Serializable`).
//! * [`Pod`] — plain-old-data marker (analogue of `TriviallySerializable`):
//!   these move as raw bytes, may live in shared segments, and may be viewed
//!   zero-copy.
//! * [`View`] — the paper's `upcxx::view`: a sequence serialized from any
//!   slice and deserialized as a window into the landing buffer, traversed at
//!   the target without an intermediate owned copy (used by the extend-add
//!   motif, Fig. 6–7).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

// ------------------------------------------------------------- buffer pool
//
// Every RPC serializes its arguments with `to_bytes` and every reply does the
// same for its result — on the fine-grained hot path that is one heap
// allocation per message. The pool below recycles those buffers: `to_bytes`
// takes a pooled `Vec<u8>` and the `Reader` wrapping a fully-consumed message
// returns its buffer on drop (only when no zero-copy `View` still shares it).
// Thread-local, so the smp conduit's rank threads never contend; under sim
// all ranks share one thread and therefore one pool, which only helps.

/// Buffers kept per thread; beyond this, freed buffers go back to the heap.
const POOL_MAX_BUFS: usize = 32;
/// Buffers with more capacity than this are not retained (one giant view
/// payload must not pin megabytes forever).
const POOL_MAX_CAP: usize = 64 << 10;

thread_local! {
    static BUF_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    static POOL_HITS: Cell<u64> = const { Cell::new(0) };
    static POOL_MISSES: Cell<u64> = const { Cell::new(0) };
}

fn pool_take(cap: usize) -> Vec<u8> {
    BUF_POOL.with(|p| match p.borrow_mut().pop() {
        Some(mut b) => {
            POOL_HITS.with(|h| h.set(h.get() + 1));
            b.clear();
            b.reserve(cap);
            b
        }
        None => {
            POOL_MISSES.with(|m| m.set(m.get() + 1));
            Vec::with_capacity(cap)
        }
    })
}

fn pool_recycle(mut buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > POOL_MAX_CAP {
        return;
    }
    BUF_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_MAX_BUFS {
            buf.clear();
            pool.push(buf);
        }
    });
}

/// This thread's serialization-buffer-pool counters: `(hits, misses)` —
/// `hits` are `to_bytes` calls served with a recycled buffer, `misses` fell
/// through to a fresh allocation. Diagnostics for benches and tests.
pub fn buf_pool_stats() -> (u64, u64) {
    (POOL_HITS.with(Cell::get), POOL_MISSES.with(Cell::get))
}

/// Plain-old-data: `T` may be transported and stored as raw bytes.
///
/// # Safety
/// Implementors must be `Copy`, have no padding whose content matters, no
/// pointers/references, and tolerate any bit pattern produced by a prior
/// `Pod` store of the same type (we only ever reread bytes we wrote).
pub unsafe trait Pod: Copy + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for isize {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// Copy a `Pod` slice to raw bytes (native endianness: both "ends" are the
/// same process in this reproduction, as on a homogeneous Cray system).
pub fn pod_to_bytes<T: Pod>(src: &[T]) -> Vec<u8> {
    pod_as_bytes(src).to_vec()
}

/// Reconstruct a `Pod` vector from raw bytes (length must divide evenly).
pub fn pod_from_bytes<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let sz = std::mem::size_of::<T>();
    assert!(
        sz > 0 && bytes.len().is_multiple_of(sz),
        "byte length not a multiple of element size"
    );
    let n = bytes.len() / sz;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: Pod tolerates any previously-written bit pattern; capacity
    // reserved; read_unaligned handles arbitrary source alignment.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
        out.set_len(n);
    }
    out
}

/// View a `Pod` slice as raw bytes without copying — the eager RMA path's
/// injection-time source window.
pub(crate) fn pod_as_bytes<T: Pod>(src: &[T]) -> &[u8] {
    // SAFETY: Pod guarantees plain bytes with no invalid representations.
    unsafe { std::slice::from_raw_parts(src.as_ptr() as *const u8, std::mem::size_of_val(src)) }
}

/// View a mutable `Pod` slice as raw bytes — the `rget_into` landing window.
pub(crate) fn pod_as_bytes_mut<T: Pod>(dst: &mut [T]) -> &mut [u8] {
    // SAFETY: Pod tolerates any bit pattern, so arbitrary bytes written
    // through this view cannot form an invalid `T`; `dst` is initialized, so
    // the byte view never exposes uninitialized memory.
    unsafe {
        std::slice::from_raw_parts_mut(dst.as_mut_ptr() as *mut u8, std::mem::size_of_val(dst))
    }
}

/// [`pod_to_bytes`] drawing from the thread-local buffer pool — the deferred
/// rput path's payload staging. Pair with [`recycle_buf`] once the bytes
/// have been consumed.
pub(crate) fn pod_to_bytes_pooled<T: Pod>(src: &[T]) -> Vec<u8> {
    let mut out = pool_take(std::mem::size_of_val(src));
    out.extend_from_slice(pod_as_bytes(src));
    out
}

/// A zeroed pooled buffer of exactly `len` bytes — the deferred rget path's
/// landing buffer (the allocation, though not the memset, is amortized away).
pub(crate) fn pooled_filled(len: usize) -> Vec<u8> {
    let mut b = pool_take(len);
    b.resize(len, 0);
    b
}

/// Return a payload buffer to the thread-local pool (the pool's recycle
/// half, exposed for crate-internal callers outside this module).
pub(crate) fn recycle_buf(buf: Vec<u8>) {
    pool_recycle(buf);
}

/// A cursor over an incoming message buffer. The buffer is owned until the
/// first zero-copy [`View`] is deserialized from it; only then does it move
/// into an `Rc` that the view shares. Every other message is read and
/// recycled into the pool with no allocation of its own.
pub struct Reader {
    buf: MsgBuf,
    pos: usize,
}

/// A [`Reader`]'s buffer: owned, or shared with the views taken from it.
enum MsgBuf {
    Owned(Vec<u8>),
    Shared(Rc<Vec<u8>>),
}

impl Reader {
    /// Wrap an owned message buffer.
    pub fn new(buf: Vec<u8>) -> Reader {
        Reader {
            buf: MsgBuf::Owned(buf),
            pos: 0,
        }
    }

    fn bytes(&self) -> &[u8] {
        match &self.buf {
            MsgBuf::Owned(v) => v,
            MsgBuf::Shared(rc) => rc,
        }
    }

    /// The buffer as a shared handle for a zero-copy [`View`], moving it
    /// into an `Rc` on first use.
    fn share(&mut self) -> Rc<Vec<u8>> {
        if let MsgBuf::Owned(v) = &mut self.buf {
            self.buf = MsgBuf::Shared(Rc::new(std::mem::take(v)));
        }
        match &self.buf {
            MsgBuf::Shared(rc) => rc.clone(),
            MsgBuf::Owned(_) => unreachable!("buffer was just shared"),
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.bytes().len() - self.pos
    }

    /// Consume `n` bytes, returning their range start.
    fn take(&mut self, n: usize) -> usize {
        assert!(
            self.remaining() >= n,
            "message truncated: need {n}, have {}",
            self.remaining()
        );
        let at = self.pos;
        self.pos += n;
        at
    }

    /// Consume `n` elements of `size` bytes each, returning their byte range.
    /// A length prefix too large to describe any buffer is a truncated
    /// message, not an arithmetic overflow.
    fn take_elems(&mut self, n: usize, size: usize) -> std::ops::Range<usize> {
        let bytes = n.checked_mul(size).unwrap_or_else(|| {
            panic!(
                "message truncated: need {n} x {size} bytes, have {}",
                self.remaining()
            )
        });
        let at = self.take(bytes);
        at..at + bytes
    }

    /// Read a little-endian fixed-size array.
    fn read_arr<const N: usize>(&mut self) -> [u8; N] {
        let at = self.take(N);
        self.bytes()[at..at + N].try_into().unwrap()
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        // Recycle the message buffer into the thread's pool — but only when
        // no zero-copy `View` (or clone) still shares it. Swapping in an
        // empty `Vec` allocates nothing.
        match std::mem::replace(&mut self.buf, MsgBuf::Owned(Vec::new())) {
            MsgBuf::Owned(v) => pool_recycle(v),
            MsgBuf::Shared(rc) => {
                if let Ok(v) = Rc::try_unwrap(rc) {
                    pool_recycle(v);
                }
            }
        }
    }
}

/// Types transportable by value in RPC arguments and results.
pub trait Ser: Sized + 'static {
    /// Append this value's encoding to `out`.
    fn ser(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader.
    fn deser(r: &mut Reader) -> Self;
    /// Encoded size in bytes (drives the network model's wire charges).
    fn ser_size(&self) -> usize {
        let mut tmp = Vec::new();
        self.ser(&mut tmp);
        tmp.len()
    }
    /// Append the encodings of `items` back to back — the body of a
    /// `Vec<Self>` after its length prefix. Primitives override this with one
    /// copy of the same bytes.
    fn ser_slice(items: &[Self], out: &mut Vec<u8>) {
        ser_each(items, out);
    }
    /// Decode `n` values written by [`Ser::ser_slice`].
    fn deser_vec(r: &mut Reader, n: usize) -> Vec<Self> {
        deser_each(r, n)
    }
}

fn ser_each<T: Ser>(items: &[T], out: &mut Vec<u8>) {
    for v in items {
        v.ser(out);
    }
}

fn deser_each<T: Ser>(r: &mut Reader, n: usize) -> Vec<T> {
    // `n` comes off the wire: reserve no more than the message could hold,
    // so a corrupt prefix fails as truncated rather than as an allocation.
    let mut v = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        v.push(T::deser(r));
    }
    v
}

// A primitive's encoding is its little-endian bytes, so on little-endian
// targets a slice of them encodes as its own memory: one copy each way.
// `bool` and `usize` keep the per-element loop — not every byte is a valid
// `bool`, and a `usize` always travels as a `u64`.
macro_rules! ser_prim {
    ($($t:ty),*) => {$(
        impl Ser for $t {
            fn ser(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn deser(r: &mut Reader) -> Self {
                <$t>::from_le_bytes(r.read_arr())
            }
            fn ser_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn ser_slice(items: &[Self], out: &mut Vec<u8>) {
                if cfg!(target_endian = "little") {
                    out.extend_from_slice(pod_as_bytes(items));
                } else {
                    ser_each(items, out);
                }
            }
            fn deser_vec(r: &mut Reader, n: usize) -> Vec<Self> {
                if cfg!(target_endian = "little") {
                    let at = r.take_elems(n, std::mem::size_of::<$t>());
                    pod_from_bytes(&r.bytes()[at])
                } else {
                    deser_each(r, n)
                }
            }
        }
    )*};
}
ser_prim!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

impl Ser for usize {
    fn ser(&self, out: &mut Vec<u8>) {
        (*self as u64).ser(out);
    }
    fn deser(r: &mut Reader) -> Self {
        u64::deser(r) as usize
    }
    fn ser_size(&self) -> usize {
        8
    }
}

impl Ser for bool {
    fn ser(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn deser(r: &mut Reader) -> Self {
        let at = r.take(1);
        r.bytes()[at] != 0
    }
    fn ser_size(&self) -> usize {
        1
    }
}

impl Ser for () {
    fn ser(&self, _out: &mut Vec<u8>) {}
    fn deser(_r: &mut Reader) -> Self {}
    fn ser_size(&self) -> usize {
        0
    }
}

impl Ser for String {
    fn ser(&self, out: &mut Vec<u8>) {
        (self.len() as u64).ser(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn deser(r: &mut Reader) -> Self {
        let n = u64::deser(r) as usize;
        let at = r.take(n);
        String::from_utf8(r.bytes()[at..at + n].to_vec()).expect("invalid utf8 in message")
    }
    fn ser_size(&self) -> usize {
        8 + self.len()
    }
}

impl<T: Ser> Ser for Vec<T> {
    fn ser(&self, out: &mut Vec<u8>) {
        (self.len() as u64).ser(out);
        T::ser_slice(self, out);
    }
    fn deser(r: &mut Reader) -> Self {
        let n = u64::deser(r) as usize;
        T::deser_vec(r, n)
    }
    fn ser_size(&self) -> usize {
        8 + self.iter().map(Ser::ser_size).sum::<usize>()
    }
}

impl<T: Ser> Ser for Option<T> {
    fn ser(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.ser(out);
            }
        }
    }
    fn deser(r: &mut Reader) -> Self {
        let at = r.take(1);
        if r.bytes()[at] == 0 {
            None
        } else {
            Some(T::deser(r))
        }
    }
    fn ser_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Ser::ser_size)
    }
}

impl<T: Pod + 'static, const N: usize> Ser for [T; N] {
    fn ser(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(pod_as_bytes(self));
    }
    fn deser(r: &mut Reader) -> Self {
        let at = r.take(std::mem::size_of::<Self>());
        // SAFETY: `take` checked that `size_of::<Self>()` bytes follow `at`;
        // Pod tolerates any previously-written bit pattern; read_unaligned
        // handles arbitrary source alignment.
        unsafe { (r.bytes().as_ptr().add(at) as *const Self).read_unaligned() }
    }
    fn ser_size(&self) -> usize {
        N * std::mem::size_of::<T>()
    }
}

macro_rules! ser_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Ser),+> Ser for ($($name,)+) {
            fn ser(&self, out: &mut Vec<u8>) {
                $(self.$idx.ser(out);)+
            }
            fn deser(r: &mut Reader) -> Self {
                ($($name::deser(r),)+)
            }
            fn ser_size(&self) -> usize {
                0 $(+ self.$idx.ser_size())+
            }
        }
    };
}
ser_tuple!(A: 0);
ser_tuple!(A: 0, B: 1);
ser_tuple!(A: 0, B: 1, C: 2);
ser_tuple!(A: 0, B: 1, C: 2, D: 3);
ser_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// The paper's `upcxx::view<T>`: a serializable window over a sequence.
///
/// On the **sending** side, construct with [`make_view`] over any `Pod`
/// slice: serialization writes length + raw element bytes straight from the
/// caller's buffer. On the **receiving** side, deserialization produces a
/// `View` backed by the incoming network buffer (shared `Rc`) — no owned
/// copy. Handlers traverse it with [`View::iter`] or copy out explicitly
/// with [`View::to_vec`], matching the paper's "non-owning view into the
/// incoming network buffer" used by `accum` in the extend-add motif.
// analyze: allow(pod-transfer): View is a non-owning handle; Ser writes length + element bytes, the handle's own (Rc, offsets) layout never crosses the wire
pub struct View<T: Pod> {
    buf: Rc<Vec<u8>>,
    off: usize,
    len: usize, // element count
    _pd: std::marker::PhantomData<T>,
}

impl<T: Pod> Clone for View<T> {
    fn clone(&self) -> Self {
        View {
            buf: self.buf.clone(),
            off: self.off,
            len: self.len,
            _pd: std::marker::PhantomData,
        }
    }
}

/// Build a serializable view of `data` (paper: `upcxx::make_view`). The
/// elements are copied into the view eagerly so the view owns its bytes on
/// the send side; the zero-copy property applies on the receive side.
pub fn make_view<T: Pod>(data: &[T]) -> View<T> {
    let bytes = pod_to_bytes(data);
    View {
        buf: Rc::new(bytes),
        off: 0,
        len: data.len(),
        _pd: std::marker::PhantomData,
    }
}

impl<T: Pod> View<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }
    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element at `i` (reads unaligned from the underlying buffer).
    pub fn get(&self, i: usize) -> T {
        assert!(i < self.len, "view index {i} out of {}", self.len);
        let p = self.off + i * std::mem::size_of::<T>();
        // SAFETY: in-bounds by construction; Pod tolerates unaligned reads
        // via read_unaligned.
        unsafe { (self.buf.as_ptr().add(p) as *const T).read_unaligned() }
    }

    /// Iterate elements without materializing an owned copy.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Copy out into an owned vector.
    pub fn to_vec(&self) -> Vec<T> {
        pod_from_bytes(&self.buf[self.off..self.off + self.len * std::mem::size_of::<T>()])
    }
}

impl<T: Pod> Ser for View<T> {
    fn ser(&self, out: &mut Vec<u8>) {
        (self.len as u64).ser(out);
        let bytes = self.len * std::mem::size_of::<T>();
        out.extend_from_slice(&self.buf[self.off..self.off + bytes]);
    }
    fn deser(r: &mut Reader) -> Self {
        let len = u64::deser(r) as usize;
        let at = r.take_elems(len, std::mem::size_of::<T>());
        // Zero-copy: share the reader's buffer.
        View {
            buf: r.share(),
            off: at.start,
            len,
            _pd: std::marker::PhantomData,
        }
    }
    fn ser_size(&self) -> usize {
        8 + self.len * std::mem::size_of::<T>()
    }
}

/// Serialize a value to a buffer (recycled from the thread-local pool when
/// one is available — see the module's buffer-pool section).
pub fn to_bytes<T: Ser>(v: &T) -> Vec<u8> {
    let mut out = pool_take(v.ser_size());
    v.ser(&mut out);
    out
}

/// Deserialize a value from an owned buffer (must consume it exactly).
pub fn from_bytes<T: Ser>(buf: Vec<u8>) -> T {
    let mut r = Reader::new(buf);
    let v = T::deser(&mut r);
    assert_eq!(r.remaining(), 0, "trailing bytes after deserialization");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Ser + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(bytes.len(), v.ser_size(), "ser_size mismatch for {v:?}");
        let back: T = from_bytes(bytes);
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(-7i8);
        roundtrip(53191u16);
        roundtrip(-12345i16);
        roundtrip(0xdead_beefu32);
        roundtrip(-1_000_000i32);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(3.5f32);
        roundtrip(-2.25e300f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
        roundtrip(());
    }

    #[test]
    fn strings_and_collections_roundtrip() {
        roundtrip(String::from(""));
        roundtrip(String::from("Bonn"));
        roundtrip(String::from("ünïcødé ✓"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(vec![String::from("a"), String::from("bb")]);
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip([1u64, 2, 3, 4]);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1u32,));
        roundtrip((String::from("Germany"), String::from("Bonn")));
        roundtrip((1u8, 2u16, 3u32, 4u64, 5i64));
    }

    #[test]
    fn pod_bytes_roundtrip() {
        let v = vec![1.5f64, -2.5, 1e-300];
        let b = pod_to_bytes(&v);
        assert_eq!(b.len(), 24);
        assert_eq!(pod_from_bytes::<f64>(&b), v);
    }

    #[test]
    fn view_roundtrips_and_is_zero_copy() {
        let data: Vec<u64> = (0..100).map(|i| i * i).collect();
        let v = make_view(&data);
        assert_eq!(v.len(), 100);
        let bytes = to_bytes(&v);
        let mut r = Reader::new(bytes);
        let back = View::<u64>::deser(&mut r);
        assert_eq!(back.len(), 100);
        assert_eq!(back.to_vec(), data);
        assert_eq!(back.get(7), 49);
        // Zero-copy: the view shares the reader's buffer.
        assert_eq!(Rc::strong_count(&back.buf), 2); // reader + view
        assert_eq!(back.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn view_survives_reader_drop() {
        let data = vec![3u32, 1, 4, 1, 5];
        let bytes = to_bytes(&make_view(&data));
        let back = {
            let mut r = Reader::new(bytes);
            View::<u32>::deser(&mut r)
        };
        assert_eq!(back.to_vec(), data);
    }

    #[test]
    fn view_inside_tuple_message() {
        // The extend-add wire format: (sender_rank, view-of-doubles).
        let vals = vec![1.0f64, 2.0, 3.0];
        let msg = (7usize, make_view(&vals));
        let bytes = to_bytes(&msg);
        let mut r = Reader::new(bytes);
        let (rank, view) = <(usize, View<f64>)>::deser(&mut r);
        assert_eq!(rank, 7);
        assert_eq!(view.to_vec(), vals);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_message_panics() {
        let bytes = to_bytes(&12345u64);
        let mut r = Reader::new(bytes[..4].to_vec());
        let _ = u64::deser(&mut r);
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn trailing_bytes_detected() {
        let mut bytes = to_bytes(&1u32);
        bytes.push(99);
        let _: u32 = from_bytes(bytes);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn view_index_bounds_checked() {
        let v = make_view(&[1u8, 2]);
        let _ = v.get(2);
    }

    #[test]
    fn ser_size_matches_for_views() {
        let v = make_view(&[0u64; 13]);
        assert_eq!(v.ser_size(), 8 + 13 * 8);
        assert_eq!(to_bytes(&v).len(), v.ser_size());
    }

    /// `v`'s bytes must equal `want` — the element-by-element little-endian
    /// encoding — and decode back to `v`.
    fn golden<T: Ser + PartialEq + std::fmt::Debug>(v: T, want: Vec<u8>) {
        assert_eq!(to_bytes(&v), want, "wire bytes changed for {v:?}");
        roundtrip(v);
    }

    fn le_len(n: usize) -> Vec<u8> {
        (n as u64).to_le_bytes().to_vec()
    }

    /// A sequence encoded element by element: the u64 length prefix, then
    /// each element's little-endian bytes.
    fn le_seq<T: Copy, const W: usize>(items: &[T], le: fn(T) -> [u8; W]) -> Vec<u8> {
        let mut g = le_len(items.len());
        items.iter().for_each(|&x| g.extend_from_slice(&le(x)));
        g
    }

    #[test]
    fn primitive_sequences_keep_their_wire_bytes() {
        let bytes: Vec<u8> = (0..=255).collect();
        golden(bytes.clone(), [le_len(256), bytes.clone()].concat());
        golden(Vec::<u8>::new(), le_len(0));

        let shorts = vec![-1i16, 0, 0x1234, i16::MIN];
        golden(shorts.clone(), le_seq(&shorts, i16::to_le_bytes));
        let words = vec![0xdead_beefu32, 1, u32::MAX];
        golden(words.clone(), le_seq(&words, u32::to_le_bytes));
        let floats = vec![1.5f64, -0.0, f64::MAX, 1e-300];
        golden(floats.clone(), le_seq(&floats, f64::to_le_bytes));

        golden(
            Some(vec![7u8, 8]),
            [vec![1], le_len(2), vec![7, 8]].concat(),
        );
        golden(Option::<Vec<u8>>::None, vec![0]);
        golden(
            (0x0102_0304_0506_0708u64, vec![9u8, 10, 11]),
            [
                0x0102_0304_0506_0708u64.to_le_bytes().to_vec(),
                le_len(3),
                vec![9, 10, 11],
            ]
            .concat(),
        );
        golden(
            vec![vec![1u8], vec![], vec![2, 3]],
            [
                le_len(3),
                le_len(1),
                vec![1],
                le_len(0),
                le_len(2),
                vec![2, 3],
            ]
            .concat(),
        );
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_byte_vec_panics() {
        let bytes = to_bytes(&vec![1u8; 100]);
        let _: Vec<u8> = from_bytes(bytes[..50].to_vec());
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn huge_length_prefix_panics_as_truncated() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let _: Vec<u64> = from_bytes(bytes);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn wrapping_length_prefix_panics_as_truncated() {
        // (2^61 + 1) * 8 wraps to 8 in 64-bit arithmetic: an unchecked
        // product would read one element and report a 2^61-element vector.
        let mut bytes = ((1u64 << 61) + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        let _: Vec<u64> = from_bytes(bytes);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn huge_length_prefix_panics_as_truncated_for_bytes() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let _: Vec<u8> = from_bytes(bytes);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn huge_length_prefix_panics_as_truncated_for_bools() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1; 16]);
        let _: Vec<bool> = from_bytes(bytes);
    }

    #[test]
    fn bool_sequences_decode_per_element() {
        golden(vec![true, false, true], [le_len(3), vec![1, 0, 1]].concat());
        // Any nonzero byte is `true`: a bulk copy would make an invalid bool.
        let back: Vec<bool> = from_bytes([le_len(2), vec![2, 0]].concat());
        assert_eq!(back, vec![true, false]);
    }

    #[test]
    fn pod_arrays_and_views_keep_their_wire_bytes() {
        let arr = [0x0102u16, 0xfffe, 7];
        let seq = le_seq(&arr, u16::to_le_bytes);
        golden(arr, seq[8..].to_vec());
        assert_eq!(to_bytes(&make_view(&arr)), seq);
        assert_eq!(from_bytes::<View<u16>>(seq).to_vec(), arr);
    }

    #[test]
    fn buffer_pool_recycles_consumed_readers() {
        let v: Vec<u64> = (0..16).collect();
        // First roundtrip seeds the pool (its Reader drops fully consumed).
        let _: Vec<u64> = from_bytes(to_bytes(&v));
        let (hits_before, _) = buf_pool_stats();
        let _: Vec<u64> = from_bytes(to_bytes(&v));
        let (hits_after, _) = buf_pool_stats();
        assert!(
            hits_after > hits_before,
            "second roundtrip should reuse the recycled buffer"
        );
    }

    #[test]
    fn buffer_shared_with_view_is_not_recycled() {
        let data = vec![11u64, 22, 33];
        let bytes = to_bytes(&make_view(&data));
        let view = {
            let mut r = Reader::new(bytes);
            View::<u64>::deser(&mut r)
            // Reader drops here, but the view still shares the buffer: the
            // pool must not reclaim it out from under the zero-copy window.
        };
        // Churn the pool: if the view's bytes had been recycled, this write
        // would corrupt them.
        for _ in 0..8 {
            let _: u64 = from_bytes(to_bytes(&0xdead_beef_u64));
        }
        assert_eq!(view.to_vec(), data);
    }
}

#[cfg(test)]
mod randomized {
    //! Deterministic randomized roundtrips (replacing the former proptest
    //! suite — the workspace builds offline with no external crates).
    use super::*;
    use pgas_des::rng::Rng;

    fn rand_string(r: &mut Rng) -> String {
        let n = r.gen_range(40);
        (0..n)
            .map(|_| char::from_u32(r.gen_between(1, 0xD7FF) as u32).unwrap_or('x'))
            .collect()
    }

    #[test]
    fn u64_roundtrip_random() {
        let mut r = Rng::new(0x5e5);
        for _ in 0..256 {
            let v = r.next_u64();
            assert_eq!(from_bytes::<u64>(to_bytes(&v)), v);
        }
    }

    #[test]
    fn string_roundtrip_random() {
        let mut r = Rng::new(0x57);
        for _ in 0..128 {
            let v = rand_string(&mut r);
            assert_eq!(from_bytes::<String>(to_bytes(&v)), v);
        }
    }

    #[test]
    fn vec_f64_roundtrip_random() {
        let mut r = Rng::new(0xf64);
        for _ in 0..128 {
            let v: Vec<f64> = (0..r.gen_range(100))
                .map(|_| (r.gen_f64() - 0.5) * 1e12)
                .collect();
            let got: Vec<f64> = from_bytes(to_bytes(&v));
            assert_eq!(got, v);
        }
    }

    #[test]
    fn nested_tuple_roundtrip_random() {
        let mut r = Rng::new(0x70b1e);
        for _ in 0..128 {
            let v = (
                r.next_u64() as u32,
                rand_string(&mut r),
                (0..r.gen_range(20))
                    .map(|_| r.next_u64())
                    .collect::<Vec<u64>>(),
            );
            let got: (u32, String, Vec<u64>) = from_bytes(to_bytes(&v));
            assert_eq!(got, v);
        }
    }

    #[test]
    fn view_roundtrip_random() {
        let mut r = Rng::new(0x41e);
        for _ in 0..128 {
            let v: Vec<u64> = (0..r.gen_range(200)).map(|_| r.next_u64()).collect();
            let bytes = to_bytes(&make_view(&v));
            let mut rd = Reader::new(bytes);
            let view = View::<u64>::deser(&mut rd);
            assert_eq!(view.to_vec(), v);
        }
    }

    #[test]
    fn ser_size_always_matches_random() {
        let mut r = Rng::new(0x512e);
        for _ in 0..128 {
            let msg = (
                r.next_u64(),
                rand_string(&mut r),
                (0..r.gen_range(50))
                    .map(|_| r.next_u64() as u32)
                    .collect::<Vec<u32>>(),
            );
            assert_eq!(to_bytes(&msg).len(), msg.ser_size());
        }
    }
}
