//! # upcxx — a Rust reproduction of UPC++ v1.0
//!
//! This crate reimplements the programming model of *“UPC++: A
//! High-Performance Communication Framework for Asynchronous Computation”*
//! (Bachan et al., IPDPS 2019): a Partitioned Global Address Space library
//! where
//!
//! * every rank contributes a **shared segment** addressed by non-
//!   dereferenceable [`GlobalPtr`]s ([`allocate`]/[`deallocate`]);
//! * all communication is **asynchronous by default** and explicit —
//!   one-sided RMA ([`rput`], [`rget`], strided/irregular variants),
//!   generalized RPC with return values ([`rpc`], [`rpc_ff`]), remote
//!   atomics ([`AtomicDomain`]) and non-blocking collectives
//!   ([`barrier_async`], [`broadcast`], [`reduce_all`]);
//! * asynchrony is composed through **futures and promises**
//!   ([`Future::then`], [`when_all`], [`Promise`] dependency counters);
//! * progress is **user-driven** by default — the three-queue progress
//!   engine of the paper's §III lives in [`ctx`] and advances only inside
//!   communication calls ([`progress`]) or blocking waits; an opt-in
//!   **progress persona** (`UPCXX_PROGRESS=1` / [`set_progress_thread`])
//!   services incoming traffic from a dedicated thread while user futures
//!   still complete only on the master persona (see [`persona`]);
//! * [`DistObject`] replaces non-scalable symmetric-heap constructs, and
//!   [`View`] provides zero-copy view-based RPC argument serialization.
//!
//! Three interchangeable conduits back the runtime (see the `gasnet` crate):
//! real threads + shared memory ([`run_spmd`]), real OS processes over shared
//! segments and Unix-domain sockets (`UPCXX_CONDUIT=proc`), and a
//! discrete-event simulation of a Cray-Aries-like machine ([`SimRuntime`])
//! that reproduces the paper's 34816-rank experiments on one laptop core.
//!
//! ## Quick taste (smp conduit)
//!
//! ```
//! upcxx::run_spmd_default(4, || {
//!     let me = upcxx::rank_me();
//!     let n = upcxx::rank_n();
//!     // Every rank allocates one shared slot and publishes a value into
//!     // its right neighbor's slot with a one-sided put.
//!     let slot = upcxx::allocate::<u64>(1);
//!     let slots = upcxx::allgather(slot);
//!     upcxx::rput_val(me as u64 * 10, slots[(me + 1) % n]).wait();
//!     upcxx::barrier();
//!     let got = slot.try_local_value();
//!     assert_eq!(got, Some(((me + n - 1) % n) as u64 * 10));
//!     upcxx::barrier();
//! });
//! ```

#![warn(missing_docs)]

pub mod agg;
pub mod alloc;
pub mod atomic;
pub mod coll;
pub mod config;
pub mod ctx;
pub mod dist;
pub(crate) mod frame;
pub mod future;
pub mod global_ptr;
pub mod metrics;
pub mod persona;
pub mod prof;
pub mod rma;
pub mod rpc;
pub mod runtime;
pub mod san;
pub mod ser;
pub mod team;
pub mod trace;
pub mod wire;

pub use agg::{agg_config, flush_all, set_agg_config, AggConfig};
pub use atomic::{AtomicDomain, AtomicOp};
pub use coll::{
    barrier, barrier_async, barrier_async_team, broadcast, broadcast_team, ops, reduce_all,
    reduce_all_team, reduce_one, reduce_one_team,
};
pub use config::{ConduitKind, Config};
pub use ctx::{make_ready_future, progress, rank_me, rank_n, rank_state, wait_until};
pub use dist::{
    lookup as dist_lookup, try_lookup as dist_try_lookup, when_constructed, DistId, DistObject,
};
pub use future::{conjoin, make_future, when_all, when_all_vec, Future, Promise};
pub use global_ptr::{allocate, deallocate, GlobalPtr};
pub use persona::set_progress_thread;
pub use rma::{
    eager_enabled, rget, rget_into, rget_into_promise, rget_irregular, rget_irregular_into,
    rget_irregular_into_promise, rget_irregular_promise, rget_promise, rget_strided,
    rget_strided_into, rget_strided_into_promise, rget_strided_promise, rget_val, rget_val_promise,
    rput, rput_irregular, rput_irregular_promise, rput_promise, rput_strided, rput_strided_promise,
    rput_val, rput_val_promise, set_eager,
};
pub use rpc::{rpc, rpc_ff};
pub use runtime::{
    after, compute, run_spmd, run_spmd_default, run_spmd_with, sim_now, sim_rank_now, sim_sw_costs,
    SimRuntime, SpmdConfig,
};
pub use san::{san_report, SanConfig, SanCounters, SanMode};
pub use ser::{make_view, Pod, Ser, View};
pub use team::Team;
pub use trace::{runtime_stats, LatencyHist, OpKind, Phase, RuntimeStats, TraceConfig, TraceEvent};

impl<T: ser::Pod> GlobalPtr<T> {
    /// Convenience: read the single local element, if local (tests/examples).
    pub fn try_local_value(&self) -> Option<T> {
        if self.is_local() {
            let mut out = [unsafe { std::mem::zeroed() }; 1];
            self.local_read(&mut out);
            Some(out[0])
        } else {
            None
        }
    }
}

/// Gather one `GlobalPtr` from every rank into a dense vector indexed by
/// rank — the idiomatic bootstrap for neighbor-exchange examples. Internally
/// an allreduce concatenating (rank, ptr) pairs; the pointers round-trip
/// through `GlobalPtr`'s own `Ser` impl, so this stays correct whatever the
/// pointer's wire layout. Collective.
pub fn allgather<T: ser::Pod>(mine: GlobalPtr<T>) -> Vec<GlobalPtr<T>> {
    let me = rank_me();
    let n = rank_n();
    fn merge<T: ser::Pod>(
        mut a: Vec<(usize, GlobalPtr<T>)>,
        mut b: Vec<(usize, GlobalPtr<T>)>,
    ) -> Vec<(usize, GlobalPtr<T>)> {
        a.append(&mut b);
        a
    }
    let all = reduce_all(vec![(me, mine)], merge::<T>).wait();
    let mut out = vec![GlobalPtr::<T>::null(); n];
    for (r, p) in all {
        out[r] = p;
    }
    out
}

/// Renamed to [`allgather`] — UPC++'s and MPI's name for this collective
/// shape (every rank contributes one value, every rank receives all of
/// them); "broadcast_gather" described the old dissemination internals, not
/// the semantics. Collective.
#[deprecated(since = "0.1.0", note = "renamed to `allgather`")]
pub fn broadcast_gather<T: ser::Pod>(mine: GlobalPtr<T>) -> Vec<GlobalPtr<T>> {
    allgather(mine)
}
