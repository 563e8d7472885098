//! Launching worlds and getting each rank's result back to the launcher.
//!
//! On the proc conduit ranks are processes re-executed from this binary:
//! each re-runs `main` with the same arguments, skips the worlds launched
//! before its own, runs its rank body and exits inside the launch call. So
//! every rank body writes its result as one JSON file into the run
//! directory, and the launcher reads the files once the world is down.
//! Smp worlds use the same path, so both conduits share one code path.

use crate::json::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const RUN_DIR_ENV: &str = "PERFBENCH_RUN_DIR";
/// Wall-clock ns at which the launcher started the current world; rank
/// processes inherit it, so launch-to-main time is measured the same way
/// on both conduits.
const LAUNCH_ENV: &str = "PERFBENCH_LAUNCH_NS";

fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

static WORLDS: AtomicUsize = AtomicUsize::new(0);

/// True inside a proc-conduit rank process.
pub fn is_proc_child() -> bool {
    std::env::var_os("UPCXX_PROC_RANK").is_some()
}

/// The directory rank results go to. The launcher creates it and exports
/// it, so rank processes inherit it.
pub fn init_run_dir(base: &std::path::Path) -> PathBuf {
    if let Some(d) = std::env::var_os(RUN_DIR_ENV) {
        return PathBuf::from(d);
    }
    let dir = base.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    // Set before any thread or rank process exists.
    std::env::set_var(RUN_DIR_ENV, &dir);
    dir
}

fn run_dir() -> PathBuf {
    PathBuf::from(std::env::var_os(RUN_DIR_ENV).expect("run dir initialised in main"))
}

/// Resident-set figures of this process in KiB: `(VmRSS, VmHWM)`.
pub fn rss_kib() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Run an `n`-rank world with `cfg` whose ranks return nothing; returns
/// its launch-to-teardown wall time. Nothing but `body` and the world
/// itself runs inside the timed window.
pub fn launch<F>(n: usize, cfg: upcxx::Config, body: F) -> f64
where
    F: Fn() + Send + Sync,
{
    let t0 = Instant::now();
    upcxx::run_spmd_with(n, cfg, body);
    t0.elapsed().as_secs_f64()
}

/// Run an `n`-rank world with `cfg`; every rank runs `body` and its
/// returned object (plus the rank's launch-to-main time as `launch_s` and
/// its peak RSS as `hwm_kib`) comes back indexed by rank. In a proc rank
/// process the results are empty: only the launcher reads them.
pub fn run<F>(n: usize, cfg: upcxx::Config, body: F) -> Vec<Json>
where
    F: Fn() -> Json + Send + Sync,
{
    let world = WORLDS.fetch_add(1, Ordering::SeqCst);
    let dir = run_dir();
    if !is_proc_child() {
        // Only the launcher: a rank process re-running `main` must keep
        // the value it inherited for its own world.
        std::env::set_var(LAUNCH_ENV, unix_ns().to_string());
    }
    upcxx::run_spmd_with(n, cfg, || {
        let launched: u64 = std::env::var(LAUNCH_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let launch_s = unix_ns().saturating_sub(launched) as f64 / 1e9;
        let mut out = body();
        out.set("launch_s", launch_s);
        out.set("hwm_kib", rss_kib().1);
        let path = dir.join(format!("w{world}.r{}.json", upcxx::rank_me()));
        std::fs::write(&path, out.to_line())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    });
    if is_proc_child() {
        return Vec::new();
    }
    (0..n)
        .map(|r| {
            let path = dir.join(format!("w{world}.r{r}.json"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let _ = std::fs::remove_file(&path);
            Json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
        })
        .collect()
}
