//! Futures and promises — the asynchrony backbone of UPC++ (§II).
//!
//! Faithful to the paper's semantics:
//!
//! * A [`Future`] is the **consumer** side of a non-blocking operation: query
//!   readiness, retrieve results, chain callbacks with [`Future::then`], and
//!   conjoin with [`when_all`]. Futures are *rank-local* — "used to manage
//!   asynchronous dependencies within a thread and not for direct
//!   communication between threads or processes" — which is why they are
//!   cheap `Rc`-based handles and deliberately `!Send`.
//! * A [`Promise`] is the **producer** side. It carries a dependency counter
//!   (starting at one); [`Promise::require_anonymous`] registers extra
//!   dependencies, [`Promise::fulfill_anonymous`] retires them, and
//!   [`Promise::finalize`] retires the initial one and hands back the future.
//!   This is exactly the counter idiom of the paper's flood benchmark and the
//!   `e_add_prom` counter in its Fig. 7.
//! * Multiple futures may view one promise; a callback chained on a ready
//!   future runs immediately (the paper's `.then` may run "when the values
//!   are available", and attach-time is such a moment).
//!
//! `then` callbacks receive the value **by clone** when the future can be
//! observed again later (UPC++ hands callbacks copies of the encapsulated
//! values; `T: Clone` is the Rust spelling of that contract). When no handle
//! can observe it any more — the intermediate links of a `then` chain — the
//! last callback receives the value **by move** instead.
//!
//! ## Allocation budget
//!
//! A promise and every future viewing it share one `Rc`: the dependency
//! counter lives beside the value and callback state. A state's first
//! callback is stored inline, and a fulfillment that has to wait for a
//! running callback drain is queued as an `Rc` clone, not a boxed job. One
//! `then` link therefore costs two allocations: its output state and its
//! boxed callback.

use crate::ser::{Reader, Ser};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// A value handed to a callback.
enum Val<'a, T> {
    /// Later callbacks or other handles can still observe the value.
    Shared(&'a T),
    /// This is the last callback and no handle can observe the value again.
    Owned(T),
}

impl<T: Clone> Val<'_, T> {
    /// The value: moved when this callback owns it, cloned otherwise.
    fn into_owned(self) -> T {
        match self {
            Val::Shared(v) => v.clone(),
            Val::Owned(v) => v,
        }
    }
}

/// A callback awaiting a future's value.
type Callback<T> = Box<dyn FnOnce(Val<'_, T>)>;

/// Box `f` as a [`Callback`] (pins the closure's higher-ranked signature).
fn callback<T>(f: impl FnOnce(Val<'_, T>) + 'static) -> Callback<T> {
    Box::new(f)
}

/// Callbacks in attach order. The first is stored inline, so a state with
/// one callback — every link of a `then` chain — needs no `Vec`.
struct Callbacks<T> {
    first: Option<Callback<T>>,
    rest: Vec<Callback<T>>,
}

impl<T> Callbacks<T> {
    const fn new() -> Self {
        Callbacks {
            first: None,
            rest: Vec::new(),
        }
    }

    fn one(cb: Callback<T>) -> Self {
        Callbacks {
            first: Some(cb),
            rest: Vec::new(),
        }
    }

    fn push(&mut self, cb: Callback<T>) {
        if self.first.is_none() {
            self.first = Some(cb);
        } else {
            self.rest.push(cb);
        }
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    fn into_iter(self) -> impl Iterator<Item = Callback<T>> {
        self.first.into_iter().chain(self.rest)
    }
}

enum State<T> {
    /// Not ready. `value` holds a result supplied by [`Promise::fulfill`]
    /// while other dependencies are still outstanding.
    Pending { cbs: Callbacks<T>, value: Option<T> },
    /// Value available; its callback drain is queued behind the drain
    /// running on this thread (see [`Core::schedule`]).
    Queued { cbs: Callbacks<T>, value: T },
    /// Value available but moved out while callbacks execute; callbacks
    /// attached meanwhile queue here and run in the same drain. Only
    /// observable from *inside* a callback on the same future
    /// (single-threaded runtime).
    Running(Callbacks<T>),
    /// Value available.
    Ready(T),
}

/// The state of one promise and every future viewing it.
struct Core<T> {
    /// Outstanding dependencies; the value is released when this hits zero.
    deps: Cell<usize>,
    finalized: Cell<bool>,
    state: RefCell<State<T>>,
}

/// A queued callback drain, type-erased so one trampoline queue serves
/// futures of every value type.
trait Drain {
    fn run(self: Rc<Self>);
}

thread_local! {
    static DRAIN_DEPTH: Cell<u32> = const { Cell::new(0) };
    static PENDING: RefCell<Vec<Rc<dyn Drain>>> = const { RefCell::new(Vec::new()) };
}

impl<T: 'static> Core<T> {
    /// A pending state with the one implicit dependency of a fresh promise
    /// (for a `then` output, the callback that fulfills it).
    fn pending() -> Rc<Self> {
        Rc::new(Core {
            deps: Cell::new(1),
            finalized: Cell::new(false),
            state: RefCell::new(State::Pending {
                cbs: Callbacks::new(),
                value: None,
            }),
        })
    }

    /// Retire `n` dependencies; the value is released when none remain.
    fn retire(self: &Rc<Self>, n: usize) {
        let d = self.deps.get();
        assert!(d >= n, "fulfilled more dependencies than required");
        self.deps.set(d - n);
        if d == n {
            self.ready();
        }
    }

    /// Supply the value and retire one dependency.
    fn fulfill(self: &Rc<Self>, v: T) {
        if let State::Pending { value, .. } = &mut *self.state.borrow_mut() {
            assert!(value.is_none(), "promise value supplied twice");
            *value = Some(v);
        }
        // Not pending: already readied, so no dependency is left and
        // `retire` reports the over-fulfillment.
        self.retire(1);
    }

    /// The counter reached zero: hand the supplied value (`()` for unit
    /// promises) to the callbacks.
    fn ready(self: &Rc<Self>) {
        let (v, cbs) = {
            let mut st = self.state.borrow_mut();
            let State::Pending { cbs, value } = &mut *st else {
                unreachable!("dependency counter reached zero twice")
            };
            let v = value.take().or_else(unit_default::<T>).expect(
                "promise dependencies satisfied but no value supplied (non-unit promises need fulfill)",
            );
            (v, std::mem::replace(cbs, Callbacks::new()))
        };
        self.schedule(v, cbs);
    }

    /// Run `cbs` on `v`, trampolined: inside a running drain the work is
    /// queued for the outermost drain on this thread, which runs the queue
    /// to empty, so callback cascades (a `then` chain of depth N fulfilling
    /// N downstream states) complete in constant stack depth.
    fn schedule(self: &Rc<Self>, v: T, cbs: Callbacks<T>) {
        if DRAIN_DEPTH.with(Cell::get) > 0 {
            *self.state.borrow_mut() = State::Queued { cbs, value: v };
            PENDING.with(|p| p.borrow_mut().push(self.clone()));
            return;
        }
        *self.state.borrow_mut() = State::Running(Callbacks::new());
        struct Depth;
        impl Drop for Depth {
            fn drop(&mut self) {
                DRAIN_DEPTH.with(|d| d.set(d.get() - 1));
            }
        }
        DRAIN_DEPTH.with(|d| d.set(d.get() + 1));
        let _depth = Depth;
        self.clone().drain(v, cbs);
        while let Some(next) = PENDING.with(|p| p.borrow_mut().pop()) {
            next.run();
        }
    }

    /// Run callbacks with no borrow held (they may attach more callbacks to
    /// this same future — those land in the Running queue and drain here),
    /// then park the value as Ready. `self` is the drain's own handle: when
    /// it is the only one left and nothing is queued behind the last
    /// callback, that callback takes the value by move and nothing is
    /// parked, since nothing could read it.
    fn drain(self: Rc<Self>, v: T, mut cbs: Callbacks<T>) {
        loop {
            let n = cbs.len();
            for (i, cb) in cbs.into_iter().enumerate() {
                if i + 1 == n && self.unobservable() {
                    cb(Val::Owned(v));
                    return;
                }
                cb(Val::Shared(&v));
            }
            let mut st = self.state.borrow_mut();
            let State::Running(q) = &mut *st else {
                unreachable!("state changed under a running drain")
            };
            if q.is_empty() {
                *st = State::Ready(v);
                return;
            }
            cbs = std::mem::replace(q, Callbacks::new());
        }
    }

    /// Whether no handle but the running drain's can reach this state and
    /// no callback waits behind the one about to run.
    fn unobservable(self: &Rc<Self>) -> bool {
        Rc::strong_count(self) == 1
            && matches!(&*self.state.borrow(), State::Running(q) if q.is_empty())
    }

    fn add_callback(self: &Rc<Self>, cb: Callback<T>) {
        let v = {
            let mut st = self.state.borrow_mut();
            match &mut *st {
                State::Pending { cbs, .. } | State::Queued { cbs, .. } | State::Running(cbs) => {
                    cbs.push(cb);
                    return;
                }
                State::Ready(_) => {}
            }
            // Move the value out so the callback runs borrow-free (it may
            // re-attach to this very future).
            let State::Ready(v) = std::mem::replace(&mut *st, State::Running(Callbacks::new()))
            else {
                unreachable!()
            };
            v
        };
        self.schedule(v, Callbacks::one(cb));
    }

    /// The value, if one is available and not checked out to a drain.
    fn peek<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        match &*self.state.borrow() {
            State::Ready(v) | State::Queued { value: v, .. } => Some(f(v)),
            _ => None,
        }
    }
}

impl<T: 'static> Drain for Core<T> {
    fn run(self: Rc<Self>) {
        let State::Queued { cbs, value } = std::mem::replace(
            &mut *self.state.borrow_mut(),
            State::Running(Callbacks::new()),
        ) else {
            unreachable!("queued drain of a future that is not queued")
        };
        self.drain(value, cbs);
    }
}

/// The consumer interface to a non-blocking operation (see module docs).
///
/// Cloning a `Future` produces another view of the same eventual value.
pub struct Future<T: 'static> {
    core: Rc<Core<T>>,
}

impl<T: 'static> Clone for Future<T> {
    fn clone(&self) -> Self {
        Future {
            core: self.core.clone(),
        }
    }
}

impl<T: 'static> fmt::Debug for Future<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Future<{}>({})",
            std::any::type_name::<T>(),
            if self.is_ready() { "ready" } else { "pending" }
        )
    }
}

/// Construct an already-ready future (UPC++ `make_future`).
pub fn make_future<T: 'static>(v: T) -> Future<T> {
    Future {
        core: Rc::new(Core {
            deps: Cell::new(0),
            finalized: Cell::new(false),
            state: RefCell::new(State::Ready(v)),
        }),
    }
}

impl<T: 'static> Future<T> {
    /// Whether the value is available. `true` also while this future's own
    /// completion callbacks are executing (the value exists; it is briefly
    /// checked out to the callback drain).
    pub fn is_ready(&self) -> bool {
        !matches!(&*self.core.state.borrow(), State::Pending { .. })
    }

    /// Retrieve the value if ready (clones it; the future stays observable).
    pub fn try_get(&self) -> Option<T>
    where
        T: Clone,
    {
        // `None` while pending, or while checked out to a callback drain
        // (see is_ready).
        self.core.peek(T::clone)
    }

    /// Peek at the value by reference.
    pub fn with_value<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.core.peek(f)
    }

    /// Chain a callback: `f` runs with the value once available (immediately
    /// if already ready), producing a new future of its result. This is the
    /// paper's completion-handler mechanism.
    pub fn then<U: 'static>(&self, f: impl FnOnce(T) -> U + 'static) -> Future<U>
    where
        T: Clone,
    {
        let out = Core::<U>::pending();
        let out2 = out.clone();
        self.core.add_callback(callback(move |v: Val<'_, T>| {
            out2.fulfill(f(v.into_owned()))
        }));
        Future { core: out }
    }

    /// Like [`then`](Self::then) but for callbacks that launch further
    /// asynchronous work: the returned future readies when the *inner* future
    /// does (UPC++ `.then` auto-unwraps futures; Rust needs a second method).
    pub fn then_fut<U: Clone + 'static>(
        &self,
        f: impl FnOnce(T) -> Future<U> + 'static,
    ) -> Future<U>
    where
        T: Clone,
    {
        let out = Core::<U>::pending();
        let out2 = out.clone();
        self.core.add_callback(callback(move |v: Val<'_, T>| {
            let inner = f(v.into_owned());
            inner
                .core
                .add_callback(callback(move |u: Val<'_, U>| out2.fulfill(u.into_owned())));
        }));
        Future { core: out }
    }

    /// Block until ready and return the value. **smp conduit only**: spins on
    /// the progress engine (the paper's `wait` "is simply a spin loop around
    /// progress"). Under the sim conduit rank programs are continuation-style
    /// and this panics with guidance instead of deadlocking silently.
    pub fn wait(&self) -> T
    where
        T: Clone,
    {
        crate::ctx::wait_until(|| self.is_ready());
        self.try_get()
            .expect("wait_until returned before readiness")
    }

    /// Discard the value, yielding a `Future<()>` useful for conjoining
    /// heterogeneous completions.
    pub fn ignore(&self) -> Future<()>
    where
        T: Clone,
    {
        self.then(|_| ())
    }
}

/// The producer side of an operation, with UPC++'s anonymous-dependency
/// counter (see module docs).
pub struct Promise<T: 'static> {
    core: Rc<Core<T>>,
}

impl<T: 'static> Clone for Promise<T> {
    fn clone(&self) -> Self {
        Promise {
            core: self.core.clone(),
        }
    }
}

impl<T: 'static> Default for Promise<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: 'static> Promise<T> {
    /// Fresh promise with dependency count 1 (the implicit dependency retired
    /// by [`finalize`](Self::finalize)).
    pub fn new() -> Promise<T> {
        Promise {
            core: Core::pending(),
        }
    }

    /// The future associated with this promise (callable any number of times;
    /// all returned futures alias the same state).
    pub fn get_future(&self) -> Future<T> {
        Future {
            core: self.core.clone(),
        }
    }

    /// Register `n` additional anonymous dependencies. Must precede their
    /// fulfillment; panics after the counter has reached zero.
    pub fn require_anonymous(&self, n: usize) {
        let d = self.core.deps.get();
        assert!(d > 0, "promise already satisfied");
        self.core.deps.set(d + n);
    }

    /// Retire `n` anonymous dependencies; readies the future when the counter
    /// reaches zero (the value must have been supplied by then, or `T = ()`
    /// via the `Promise<()>` impl below).
    pub fn fulfill_anonymous(&self, n: usize) {
        self.core.retire(n);
    }

    /// Supply the result value and retire one dependency (UPC++
    /// `fulfill_result`).
    pub fn fulfill(&self, v: T) {
        self.core.fulfill(v);
    }

    /// Retire the implicit initial dependency and return the future. Call
    /// once, after registering all other dependencies (paper Fig. 7 line 14).
    pub fn finalize(&self) -> Future<T> {
        assert!(!self.core.finalized.get(), "promise finalized twice");
        self.core.finalized.set(true);
        self.core.retire(1);
        self.get_future()
    }

    /// Remaining dependency count (diagnostics).
    pub fn pending_deps(&self) -> usize {
        self.core.deps.get()
    }

    /// This promise as a [`ReplySink`], for the RPC reply table.
    pub(crate) fn into_reply_sink(self) -> Rc<dyn ReplySink>
    where
        T: Ser,
    {
        self.core
    }
}

/// A promise erased down to "decode your value from this message and
/// fulfill yourself": the RPC reply table parks the promises of every
/// result type in one map, with the typed decode in the vtable, so an entry
/// is one fat pointer and parking one allocates nothing.
pub(crate) trait ReplySink {
    fn fulfill_from(self: Rc<Self>, r: Reader);
}

impl<T: Ser> ReplySink for Core<T> {
    fn fulfill_from(self: Rc<Self>, mut r: Reader) {
        self.fulfill(T::deser(&mut r));
    }
}

/// `Promise<()>` (UPC++ `promise<>`) is a pure dependency counter: when its
/// count reaches zero no explicit value is needed. For every other `T`,
/// retiring all dependencies without supplying a value is a bug. This helper
/// produces `Some(())` exactly when `T` is the unit type.
fn unit_default<T: 'static>() -> Option<T> {
    let boxed: Box<dyn std::any::Any> = Box::new(());
    boxed.downcast::<T>().ok().map(|b| *b)
}

/// Conjoin two futures into one carrying both values (UPC++ `when_all`).
pub fn when_all<A: Clone + 'static, B: Clone + 'static>(
    a: &Future<A>,
    b: &Future<B>,
) -> Future<(A, B)> {
    let out = Core::<(A, B)>::pending();
    let out2 = out.clone();
    let b = b.core.clone();
    a.core.add_callback(callback(move |av: Val<'_, A>| {
        let av = av.into_owned();
        b.add_callback(callback(move |bv: Val<'_, B>| {
            out2.fulfill((av, bv.into_owned()))
        }));
    }));
    Future { core: out }
}

/// The shared collection state of one [`when_all_vec`].
struct Gather<T> {
    slots: RefCell<Vec<Option<T>>>,
    remaining: Cell<usize>,
    out: Rc<Core<Vec<T>>>,
}

/// Conjoin a homogeneous collection, readying with all values in input order.
pub fn when_all_vec<T: Clone + 'static>(futs: Vec<Future<T>>) -> Future<Vec<T>> {
    let n = futs.len();
    let out = Core::<Vec<T>>::pending();
    if n == 0 {
        out.fulfill(Vec::new());
        return Future { core: out };
    }
    let g = Rc::new(Gather {
        slots: RefCell::new((0..n).map(|_| None).collect()),
        remaining: Cell::new(n),
        out: out.clone(),
    });
    for (i, f) in futs.into_iter().enumerate() {
        let g = g.clone();
        f.core.add_callback(callback(move |v: Val<'_, T>| {
            g.slots.borrow_mut()[i] = Some(v.into_owned());
            let left = g.remaining.get() - 1;
            g.remaining.set(left);
            if left == 0 {
                let vals = g
                    .slots
                    .borrow_mut()
                    .iter_mut()
                    .map(|s| s.take().expect("slot unfilled"))
                    .collect();
                g.out.fulfill(vals);
            }
        }));
    }
    Future { core: out }
}

/// Conjoin unit futures — the paper's `f_conj = when_all(f_conj, fut)` idiom
/// (Fig. 7 line 29).
pub fn conjoin(a: &Future<()>, b: &Future<()>) -> Future<()> {
    when_all(a, b).then(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_future_reports_and_yields_value() {
        let f = make_future(42u32);
        assert!(f.is_ready());
        assert_eq!(f.try_get(), Some(42));
        assert_eq!(f.with_value(|v| *v + 1), Some(43));
    }

    #[test]
    fn then_on_ready_future_runs_immediately() {
        let f = make_future(10u32).then(|v| v * 3);
        assert_eq!(f.try_get(), Some(30));
    }

    #[test]
    fn then_on_pending_future_defers() {
        let p = Promise::<u32>::new();
        let seen = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let s = seen.clone();
        let f = p.get_future().then(move |v| {
            s.set(v);
            v + 1
        });
        assert!(!f.is_ready());
        assert_eq!(seen.get(), 0);
        p.fulfill(7);
        assert_eq!(seen.get(), 7);
        assert_eq!(f.try_get(), Some(8));
    }

    #[test]
    fn then_fut_flattens() {
        let outer = Promise::<u32>::new();
        let inner = Promise::<String>::new();
        let inner_fut = inner.get_future();
        let f = outer.get_future().then_fut(move |v| {
            assert_eq!(v, 1);
            inner_fut.clone()
        });
        outer.fulfill(1);
        assert!(!f.is_ready());
        inner.fulfill("done".to_string());
        assert_eq!(f.try_get(), Some("done".to_string()));
    }

    #[test]
    fn multiple_callbacks_all_run() {
        let p = Promise::<u32>::new();
        let count = std::rc::Rc::new(std::cell::Cell::new(0u32));
        for _ in 0..5 {
            let c = count.clone();
            p.get_future().then(move |v| c.set(c.get() + v));
        }
        p.fulfill(2);
        assert_eq!(count.get(), 10);
    }

    #[test]
    fn promise_anonymous_counting() {
        let p = Promise::<()>::new();
        p.require_anonymous(3);
        let f = p.get_future();
        p.fulfill_anonymous(1);
        p.fulfill_anonymous(2);
        assert!(!f.is_ready()); // initial dependency still held
        let f2 = p.finalize();
        assert!(f.is_ready());
        assert!(f2.is_ready());
    }

    #[test]
    fn promise_counting_order_is_flexible() {
        // finalize before the anonymous deps retire (flood idiom).
        let p = Promise::<()>::new();
        p.require_anonymous(2);
        let f = p.finalize();
        assert!(!f.is_ready());
        p.fulfill_anonymous(1);
        assert!(!f.is_ready());
        p.fulfill_anonymous(1);
        assert!(f.is_ready());
    }

    #[test]
    #[should_panic(expected = "finalized twice")]
    fn double_finalize_panics() {
        let p = Promise::<()>::new();
        p.require_anonymous(1);
        let _ = p.finalize();
        let _ = p.finalize();
    }

    #[test]
    #[should_panic(expected = "more dependencies than required")]
    fn over_fulfillment_panics() {
        let p = Promise::<()>::new();
        p.fulfill_anonymous(2);
    }

    #[test]
    #[should_panic(expected = "no value supplied")]
    fn non_unit_promise_requires_value() {
        let p = Promise::<u32>::new();
        let _ = p.finalize(); // counter hits zero without fulfill
    }

    #[test]
    #[should_panic(expected = "supplied twice")]
    fn double_fulfill_panics() {
        let p = Promise::<u32>::new();
        p.require_anonymous(1);
        p.fulfill(1);
        p.fulfill(2);
    }

    #[test]
    fn when_all_pairs_values() {
        let pa = Promise::<u32>::new();
        let pb = Promise::<String>::new();
        let f = when_all(&pa.get_future(), &pb.get_future());
        pb.fulfill("x".into());
        assert!(!f.is_ready());
        pa.fulfill(4);
        assert_eq!(f.try_get(), Some((4, "x".to_string())));
    }

    #[test]
    fn when_all_vec_preserves_order() {
        let ps: Vec<Promise<u32>> = (0..4).map(|_| Promise::new()).collect();
        let f = when_all_vec(ps.iter().map(|p| p.get_future()).collect());
        // Fulfill out of order.
        for i in [2usize, 0, 3, 1] {
            assert!(!f.is_ready());
            ps[i].fulfill(i as u32 * 10);
        }
        assert_eq!(f.try_get(), Some(vec![0, 10, 20, 30]));
    }

    #[test]
    fn when_all_vec_empty_is_ready() {
        let f = when_all_vec(Vec::<Future<u32>>::new());
        assert_eq!(f.try_get(), Some(vec![]));
    }

    #[test]
    fn conjoin_chain() {
        let mut f = make_future(());
        let ps: Vec<Promise<()>> = (0..3).map(|_| Promise::new()).collect();
        for p in &ps {
            p.require_anonymous(1);
            let pf = p.finalize();
            f = conjoin(&f, &pf);
        }
        for (i, p) in ps.iter().enumerate() {
            assert!(!f.is_ready(), "ready after only {i} fulfillments");
            p.fulfill_anonymous(1);
        }
        assert!(f.is_ready());
    }

    #[test]
    fn callbacks_can_chain_more_callbacks() {
        let p = Promise::<u32>::new();
        let total = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let t = total.clone();
        let f = p.get_future();
        let f2 = f.clone();
        f.then(move |v| {
            let t2 = t.clone();
            // Attaching to an already-ready future from inside a callback.
            f2.then(move |w| t2.set(t2.get() + v + w));
        });
        p.fulfill(5);
        assert_eq!(total.get(), 10);
    }

    #[test]
    fn ignore_discards_value() {
        let f = make_future(99u64).ignore();
        assert_eq!(f.try_get(), Some(()));
    }

    #[test]
    fn wait_returns_immediately_when_ready() {
        // wait() without a runtime context is fine for ready futures.
        assert_eq!(make_future(5u8).wait(), 5);
    }

    #[test]
    fn debug_formatting() {
        let p = Promise::<u32>::new();
        assert!(format!("{:?}", p.get_future()).contains("pending"));
        assert!(format!("{:?}", make_future(1u32)).contains("ready"));
    }

    thread_local! {
        static CLONES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// A value that counts its clones.
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    #[test]
    fn unobserved_then_links_move_the_value() {
        let p = Promise::<Counted>::new();
        let mut f = p.get_future();
        for _ in 0..8 {
            f = f.then(|v| Counted(v.0 + 1));
        }
        CLONES.with(|c| c.set(0));
        p.fulfill(Counted(0));
        // Only the first link clones: the promise can still read its value.
        // Every later link is the last reader of its input.
        assert_eq!(CLONES.with(|c| c.get()), 1);
        assert_eq!(f.with_value(|v| v.0), Some(8));
    }

    #[test]
    fn observed_values_are_cloned_not_moved() {
        let p = Promise::<Counted>::new();
        let f = p.get_future();
        let g = f.then(|v| v.0);
        p.fulfill(Counted(5));
        assert_eq!(g.try_get(), Some(5));
        // `f` is still held, so its value stayed behind for it.
        assert_eq!(f.with_value(|v| v.0), Some(5));
        let h = f.then_fut(|v| make_future(Counted(v.0 * 2)));
        assert_eq!(h.with_value(|v| v.0), Some(10));
        assert_eq!(f.with_value(|v| v.0), Some(5));
    }

    #[test]
    fn then_fut_recursion_over_ready_futures_is_stack_safe() {
        // Each step attaches to a ready future from inside a running
        // callback; the trampoline must queue those drains, not nest them.
        fn step(i: u32) -> Future<u32> {
            if i == 100_000 {
                return make_future(i);
            }
            make_future(()).then_fut(move |_| step(i + 1))
        }
        assert_eq!(step(0).try_get(), Some(100_000));
    }

    #[test]
    fn queued_future_is_ready_inside_the_drain() {
        // `b` readies inside `a`'s drain; its own drain is queued behind it,
        // yet its value is already observable.
        let a = Promise::<u32>::new();
        let b = Promise::<u32>::new();
        let bf = b.get_future();
        let seen = Rc::new(Cell::new(None));
        let s = seen.clone();
        let _keep = bf.then(|v| v);
        let _chain = a.get_future().then(move |v| {
            b.fulfill(v + 1);
            s.set(bf.try_get());
        });
        a.fulfill(1);
        assert_eq!(seen.get(), Some(2));
    }

    #[test]
    fn pending_deps_reports_counter() {
        let p = Promise::<()>::new();
        assert_eq!(p.pending_deps(), 1);
        p.require_anonymous(4);
        assert_eq!(p.pending_deps(), 5);
        p.fulfill_anonymous(2);
        assert_eq!(p.pending_deps(), 3);
    }
}
