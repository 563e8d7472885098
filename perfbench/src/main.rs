//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --out <dir> [--rev <git rev>]`, run from the repository root (normally
//! through `perfbench/run.py`, which builds it). Prints one JSON result
//! line last on stdout and appends a full record to `<out>/records.jsonl`.
//! See `perfbench/README.md` for the workloads and metrics.

mod dht;
mod gen;
mod json;
mod ladder;
mod rma;
mod rounds;
mod sim;
mod span;
mod stats;
mod world;

use json::Json;
use rounds::Plan;
use span::Tracer;
use stats::{mean, median, percentile};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;
use upcxx::{ConduitKind, Config};

const WORKLOADS: [&str; 4] = ["rma_smp", "dht_smp", "dht_proc", "sim_fig4_knl"];
/// Ranks of every real-conduit world (one per vCPU of the reference host).
const RANKS: usize = 2;
/// Segment bytes per rank of the real-conduit worlds.
const SEG: usize = 64 << 20;
/// Set-up-only worlds are launched for [`SETUP_S`] seconds, and at least
/// [`SETUPS`] of them, after [`SETUP_WARMUP`] untimed ones. `setup_s` is
/// the 10th percentile of their wall times.
const SETUPS: usize = 100;
const SETUP_S: f64 = 1.0;
/// How many set-up worlds the launcher timed, for its rank processes.
const SETUP_COUNT_ENV: &str = "PERFBENCH_SETUP_WORLDS";
const SETUP_WARMUP: usize = 5;
/// Set-up-only worlds whose ranks report their launch-to-main time in a
/// traced run.
const LAUNCHES: usize = 21;
/// Largest world of the sim sweep, and of the sim probe in traced runs of
/// the other workloads.
const SIM_MAX: usize = 4096;
const SIM_PROBE_MAX: usize = 512;
/// Largest world of the small sweeps that measure the sim span overhead.
const SIM_OVERHEAD_MAX: usize = 256;
/// Smallest world whose run slices feed the sim workload's medians: smaller
/// worlds finish a slice in well under a millisecond.
const SIM_SLICE_MIN: usize = 1024;
/// Length of the traced probes of layers a workload does not exercise.
const PROBE_S: f64 = 1.0;
/// Timed barriers per traced world.
const BARRIERS: usize = 200;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    rev: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        rev: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => a.seconds = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?}: expected 0 or 1")),
                }
            }
            "--out" => a.out = PathBuf::from(val),
            "--rev" => a.rev = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(a)
}

static SPAN_PREFIX: OnceLock<PathBuf> = OnceLock::new();

/// Where a traced rank writes the spans of `kernel`.
pub fn spans_path(kernel: &str, rank: usize) -> PathBuf {
    let p = SPAN_PREFIX.get().expect("span prefix set in main");
    PathBuf::from(format!("{}-{kernel}-r{rank}.jsonl", p.display()))
}

/// One metric line of the result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    detail: Vec<(String, Json)>,
    /// Per-layer metrics taken from a probe, not from the workload.
    probed: Vec<&'static str>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
    /// A per-layer metric, taken from a probe when `probed`.
    fn layer(&mut self, probed: bool, name: &'static str, value: f64, unit: &'static str) {
        if probed {
            self.probed.push(name);
        }
        self.put(name, value, unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let rows = match std::fs::read_to_string("results/fig4_knl.txt") {
        Ok(t) => sim::expected_rows(&t),
        Err(e) => {
            eprintln!("perfbench: run from the repository root (results/fig4_knl.txt: {e})");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(args.out.join("spans")).expect("create the output directory");
    let _ = SPAN_PREFIX.set(
        args.out
            .join("spans")
            .join(format!("{}-s{}", args.workload, args.seed)),
    );
    let run_dir = world::init_run_dir(&args.out);
    let ticks0 = cpu_ticks();

    let mut o = match args.workload.as_str() {
        "rma_smp" => real(&args, &rows, Kernel::Rma, ConduitKind::Smp),
        "dht_smp" => real(&args, &rows, Kernel::Dht, ConduitKind::Smp),
        "dht_proc" => real(&args, &rows, Kernel::Dht, ConduitKind::Proc),
        _ => sim_workload(&args, &rows),
    };
    // Everything below runs in the launcher only: rank processes exit
    // inside their world.
    let (ticks1, mut host) = (cpu_ticks(), ladder::host_stamp(args.rev.clone()));
    if args.trace {
        // The ladder's two calibration rungs are the host stamp's.
        for name in ["host.memcpy_1KiB_ns", "gasnet.put_bytes_1KiB_ns"] {
            o.put(name, host.f(name), "ns");
        }
        for (name, v) in ladder::rma_rungs() {
            o.put(name, v, "ns");
        }
        o.put("ser.encode_64B_ns", ladder::ser_encode_ns(64), "ns");
        o.put("ser.encode_8KiB_ns", ladder::ser_encode_ns(8 << 10), "ns");
    }
    // Share of the machine's CPU time the hypervisor gave to others while
    // this run measured: the main source of run-to-run spread on a shared
    // host.
    let total = ticks1.0.saturating_sub(ticks0.0);
    host.set(
        "steal_frac",
        if total > 0 {
            ticks1.1.saturating_sub(ticks0.1) as f64 / total as f64
        } else {
            0.0
        },
    );
    let _ = std::fs::remove_dir_all(&run_dir);

    let correct = o.failed == 0 && o.attempted > 0;
    let mut metrics = Json::obj();
    for m in &o.metrics {
        metrics.set(
            m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("metrics", metrics);
    let mut record = Json::obj()
        .with("schema", "perfbench/1")
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("host", host)
        .with("result", result.clone())
        .with(
            "probed",
            Json::Arr(o.probed.iter().map(|&p| Json::from(p)).collect()),
        );
    for (k, v) in o.detail {
        record.set(&k, v);
    }
    let records = args.out.join("records.jsonl");
    let line = record.to_line() + "\n";
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&records)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
    {
        eprintln!("perfbench: append {}: {e}", records.display());
    }
    println!("{}", result.to_line());
}

/// `(all, steal)` CPU ticks of the machine from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.iter().take(8).sum(), v.get(7).copied().unwrap_or(0))
}

#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    Rma,
    Dht,
}

fn rank_kernel(kernel: Kernel, plan: Plan, seed: u64, name: &'static str) -> Json {
    let mut out = match kernel {
        Kernel::Rma => rma::rank_body(plan, seed),
        Kernel::Dht => dht::rank_body(plan, seed, name),
    };
    if plan.traced {
        let v: Vec<u64> = (0..BARRIERS)
            .map(|_| {
                let t = Instant::now();
                upcxx::barrier();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        out.set("barrier_ns", &v[..]);
    }
    out
}

/// The set-up-only world: launch, allocate, exchange segment pointers
/// (which dials the sockets on proc), barrier, tear down.
fn setup_body() {
    let p = upcxx::allocate::<u8>(4096);
    let all = upcxx::allgather(p);
    assert_eq!(all.len(), RANKS);
    upcxx::barrier();
}

fn config(conduit: ConduitKind) -> Config {
    Config::default().with_conduit(conduit).with_seg_size(SEG)
}

/// Wall times of the set-up-only worlds launched for [`SETUP_S`] seconds,
/// at least [`SETUPS`] of them, after [`SETUP_WARMUP`] untimed ones.
fn setup_walls(conduit: ConduitKind) -> Vec<f64> {
    // A proc rank process replays the launcher's worlds up to its own, so
    // it must launch as many as the launcher did. The launcher exports the
    // count once its loop ends; a rank process of a set-up world exits
    // inside its own world, before the count exists.
    let replay: Option<usize> = std::env::var(SETUP_COUNT_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    for _ in 0..SETUP_WARMUP {
        world::launch(RANKS, config(conduit), setup_body);
    }
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        let more = match replay {
            Some(n) => walls.len() < n,
            None => {
                world::is_proc_child()
                    || walls.len() < SETUPS
                    || t0.elapsed().as_secs_f64() < SETUP_S
            }
        };
        if !more {
            break;
        }
        walls.push(world::launch(RANKS, config(conduit), setup_body));
    }
    if !world::is_proc_child() {
        // No world is running, so no other thread reads the environment.
        std::env::set_var(SETUP_COUNT_ENV, walls.len().to_string());
    }
    walls
}

/// Launch-to-main times of the ranks of [`LAUNCHES`] set-up-only worlds.
fn launch_times(conduit: ConduitKind) -> Vec<f64> {
    (0..LAUNCHES)
        .flat_map(|_| {
            world::run(RANKS, config(conduit), || {
                setup_body();
                Json::obj()
            })
        })
        .map(|o| o.f("launch_s"))
        .collect()
}

/// `setup_s` of a real-conduit run: the 10th percentile of its set-up
/// worlds' wall times. A world's set-up takes a fraction of a millisecond
/// on smp, so a hypervisor steal or a late wake-up can multiply one
/// world's time; the low percentile is set by the work a world does.
fn setup_figure(walls: &[f64]) -> f64 {
    let ns: Vec<u64> = walls.iter().map(|&w| (w * 1e9) as u64).collect();
    percentile(&ns, 10.0).unwrap_or(0) as f64 / 1e9
}

/// Merge the rank results of one kernel run.
struct Merged {
    attempted: u64,
    failed: u64,
    ops_per_s: [f64; 2],
    /// Sum over ranks of each rank's median untraced-slice op rate.
    slice_rate: f64,
    /// Latency p50 and p99 (ns) of every untraced slice of every rank.
    slice_p50: Vec<f64>,
    slice_p99: Vec<f64>,
    durs: std::collections::BTreeMap<String, Vec<u64>>,
    traced_ctr: Json,
    gauge_max: Json,
    hwm_kib: u64,
    drain_us: f64,
    barrier_ns: Vec<u64>,
    ranks: Vec<Json>,
}

fn merge(outs: Vec<Json>) -> Merged {
    let mut m = Merged {
        attempted: 0,
        failed: 0,
        ops_per_s: [0.0; 2],
        slice_rate: 0.0,
        slice_p50: Vec::new(),
        slice_p99: Vec::new(),
        durs: Default::default(),
        traced_ctr: Json::obj(),
        gauge_max: Json::obj(),
        hwm_kib: 0,
        drain_us: 0.0,
        barrier_ns: Vec::new(),
        ranks: Vec::new(),
    };
    for o in outs {
        let slices: Vec<Vec<f64>> = match o.get("slices") {
            Some(Json::Arr(a)) => a
                .iter()
                .map(|s| match s {
                    Json::Arr(v) => v.iter().filter_map(Json::num).collect(),
                    _ => Vec::new(),
                })
                .filter(|s: &Vec<f64>| s.len() == 4 && s[0] > 0.0)
                .collect(),
            _ => Vec::new(),
        };
        if !slices.is_empty() {
            m.slice_rate += median(&slices.iter().map(|s| s[0] / s[1]).collect::<Vec<_>>());
        }
        m.slice_p50
            .extend(slices.iter().filter(|s| s[2] > 0.0).map(|s| s[2]));
        m.slice_p99
            .extend(slices.iter().filter(|s| s[3] > 0.0).map(|s| s[3]));
        m.attempted += o.f("attempted") as u64;
        m.failed += o.f("failed") as u64;
        for (i, side) in ["untraced", "traced"].iter().enumerate() {
            if let Some(s) = o.get(side) {
                if s.f("secs") > 0.0 {
                    m.ops_per_s[i] += s.f("ops") / s.f("secs");
                }
            }
        }
        if let Some(d) = o.get("durs") {
            for (k, _) in d.members() {
                m.durs.entry(k.clone()).or_default().extend(d.u64s(k));
            }
        }
        if let Some(t) = o.get("traced") {
            for &k in &rounds::COUNTERS {
                let v = m.traced_ctr.f(k) + t.f(k);
                m.traced_ctr.set(k, v);
            }
        }
        if let Some(g) = o.get("gauge_max") {
            for &k in &rounds::GAUGES {
                let v = m.gauge_max.f(k).max(g.f(k));
                m.gauge_max.set(k, v);
            }
        }
        m.hwm_kib = m.hwm_kib.max(o.f("hwm_kib") as u64);
        m.drain_us = m.drain_us.max(o.f("drain_us"));
        m.barrier_ns.extend(o.u64s("barrier_ns"));
        let mut summary = Json::obj();
        for k in [
            "attempted",
            "failed",
            "self_targeted",
            "ff_missing",
            "readback_failed",
            "drain_us",
            "hwm_kib",
        ] {
            if let Some(v) = o.get(k) {
                summary.set(k, v.clone());
            }
        }
        for k in ["slices", "untraced", "traced", "gauge_max", "spans"] {
            if let Some(v) = o.get(k) {
                summary.set(k, v.clone());
            }
        }
        m.ranks.push(summary);
    }
    m
}

fn p50(v: &[u64]) -> f64 {
    percentile(v, 50.0).unwrap_or(0) as f64
}

impl Merged {
    fn dur_p50(&self, names: &[&str]) -> f64 {
        let all: Vec<u64> = names
            .iter()
            .flat_map(|n| self.durs.get(*n).cloned().unwrap_or_default())
            .collect();
        p50(&all)
    }
    fn ctr(&self, k: &str) -> f64 {
        self.traced_ctr.f(k)
    }
    fn ratio(&self, a: &str, b: &str) -> f64 {
        if self.ctr(b) > 0.0 {
            self.ctr(a) / self.ctr(b)
        } else {
            0.0
        }
    }
    fn traced_ops(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.get("traced").map_or(0.0, |t| t.f("ops")))
            .sum()
    }
}

/// Run `kernel` on a real conduit (traced or not) and return its merged
/// rank results.
fn run_kernel(
    conduit: ConduitKind,
    kernel: Kernel,
    plan: Plan,
    seed: u64,
    name: &'static str,
) -> Merged {
    merge(world::run(RANKS, config(conduit), move || {
        rank_kernel(kernel, plan, seed, name)
    }))
}

/// `rma_smp`, `dht_smp`, `dht_proc`.
fn real(args: &Args, rows: &sim::Rows, kernel: Kernel, conduit: ConduitKind) -> Outcome {
    let name: &'static str = match (kernel, conduit) {
        (Kernel::Rma, _) => "rma",
        (Kernel::Dht, ConduitKind::Smp) => "dht_smp",
        (Kernel::Dht, ConduitKind::Proc) => "dht_proc",
    };
    let plan = Plan {
        seconds: args.seconds,
        traced: args.trace,
    };
    if !args.trace {
        let walls = setup_walls(conduit);
        let m = run_kernel(conduit, kernel, plan, args.seed, name);
        let peak_kib = m.hwm_kib.max(world::rss_kib().1);
        let mut o = Outcome {
            attempted: m.attempted,
            failed: m.failed,
            ..Default::default()
        };
        o.detail.push((
            "setup_samples_s".into(),
            Json::Arr(walls.iter().map(|&w| Json::from(w)).collect()),
        ));
        o.detail
            .push(("setup_iqr_frac".into(), Json::from(stats::iqr_frac(&walls))));
        o.put("setup_s", setup_figure(&walls), "s");
        o.put("ops_per_s", m.slice_rate, "1/s");
        // The mean, not the median, over slices: on a shared host the
        // issuer's small-op latency moves between levels about 1.5x apart
        // for seconds at a time, and a median over slices jumps between
        // them as their shares of a run cross one half.
        o.put("op_p50_us", mean(&m.slice_p50) / 1e3, "us");
        o.put("peak_rss_mib", peak_kib as f64 / 1024.0, "MiB");
        o.detail
            .push(("ops_per_s_whole_run".into(), Json::from(m.ops_per_s[0])));
        o.detail.push(("ranks".into(), Json::Arr(m.ranks)));
        return o;
    }
    let launch = launch_times(conduit);
    let m = run_kernel(conduit, kernel, plan, args.seed, name);
    let mut o = Outcome {
        attempted: m.attempted,
        failed: m.failed,
        ..Default::default()
    };
    overhead(&mut o, m.ops_per_s);
    // Tail latency does not repeat within a tenth on a 2-vCPU host, so it
    // is a per-layer figure, taken from the untraced rounds.
    o.put("op_p99_us", median(&m.slice_p99) / 1e3, "us");
    o.put("runtime.launch_s", median(&launch), "s");
    o.put("coll.barrier_us_p50", p50(&m.barrier_ns) / 1e3, "us");
    let (rma, dht) = match kernel {
        Kernel::Rma => (m, probe(&mut o, Kernel::Dht, args.seed)),
        Kernel::Dht => (probe(&mut o, Kernel::Rma, args.seed), m),
    };
    rma_layer(&mut o, &rma, kernel != Kernel::Rma);
    dht_layer(&mut o, &dht, kernel != Kernel::Dht);
    sim_probe(&mut o, rows);
    o
}

/// Run the traced `kernel` on smp for [`PROBE_S`] to measure layers the
/// workload does not exercise.
fn probe(o: &mut Outcome, kernel: Kernel, seed: u64) -> Merged {
    let plan = Plan {
        seconds: PROBE_S,
        traced: true,
    };
    let m = run_kernel(
        ConduitKind::Smp,
        kernel,
        plan,
        seed,
        if kernel == Kernel::Rma {
            "probe_rma"
        } else {
            "probe_dht"
        },
    );
    // A probe's failures are the program's failures too.
    o.failed += m.failed;
    m
}

/// Span overhead from the untraced and traced op rates of one run.
fn overhead(o: &mut Outcome, [un, tr]: [f64; 2]) {
    o.put("bench.ops_per_s_untraced", un, "1/s");
    o.put("bench.ops_per_s_traced", tr, "1/s");
    o.put(
        "bench.span_overhead_frac",
        if un > 0.0 { 1.0 - tr / un } else { 0.0 },
        "frac",
    );
}

fn rma_layer(o: &mut Outcome, m: &Merged, probed: bool) {
    let put = |o: &mut Outcome, name, v, unit| o.layer(probed, name, v, unit);
    for (metric, span) in [
        ("rma.put_8B_p50_ns", "rma.put_8B"),
        ("rma.put_1KiB_p50_ns", "rma.put_1KiB"),
        ("rma.put_64KiB_p50_ns", "rma.put_64KiB"),
        ("rma.get_8B_p50_ns", "rma.get_8B"),
        ("rma.get_1KiB_p50_ns", "rma.get_1KiB"),
        ("rma.get_64KiB_p50_ns", "rma.get_64KiB"),
        ("rma.issue_ns_p50", "rma.issue"),
        ("rma.wait_ns_p50", "rma.wait"),
    ] {
        put(o, metric, m.dur_p50(&[span]), "ns");
    }
    put(o, "rma.eager_frac", m.ratio("rma_eager", "rma_ops"), "frac");
}

fn dht_layer(o: &mut Outcome, m: &Merged, probed: bool) {
    let put = |o: &mut Outcome, name, v, unit| o.layer(probed, name, v, unit);
    let ops = m.traced_ops().max(1.0);
    let window_ops = crate::gen::DHT_WINDOW as f64;
    put(
        o,
        "rpc.issue_ns_p50",
        m.dur_p50(&[
            "dht.insert_rpc.issue",
            "dht.find_rpc.issue",
            "dht.insert_ff.issue",
        ]),
        "ns",
    );
    put(
        o,
        "rpc.roundtrip_us_p50",
        m.dur_p50(&["dht.insert_rpc", "dht.find_rpc"]) / 1e3,
        "us",
    );
    put(o, "rpc.bytes_out_per_op", m.ctr("bytes_out") / ops, "bytes");
    put(
        o,
        "future.when_all_ns_per_op",
        m.dur_p50(&["future.when_all"]) / window_ops,
        "ns",
    );
    put(
        o,
        "dht.insert_rpc_us_p50",
        m.dur_p50(&["dht.insert_rpc"]) / 1e3,
        "us",
    );
    put(
        o,
        "dht.insert_rma_us_p50",
        m.dur_p50(&["dht.insert_rma"]) / 1e3,
        "us",
    );
    put(
        o,
        "dht.find_us_p50",
        m.dur_p50(&["dht.find_rpc", "dht.find_rma"]) / 1e3,
        "us",
    );
    put(o, "dht.rpc_ff_drain_us", m.drain_us, "us");
    put(o, "ctx.progress_ns_p50", m.dur_p50(&["ctx.progress"]), "ns");
    put(
        o,
        "ctx.progress_calls_per_op",
        m.ctr("progress_calls") / ops,
        "count",
    );
    put(
        o,
        "ctx.comp_items_per_op",
        m.ctr("comp_items") / ops,
        "count",
    );
    put(
        o,
        "ctx.compq_depth_max",
        m.gauge_max.f("compq_depth"),
        "count",
    );
    put(
        o,
        "agg.msgs_per_batch",
        m.ratio("agg_msgs", "agg_batches"),
        "count",
    );
    put(
        o,
        "gasnet.eager_fallbacks",
        m.ctr("eager_fallbacks"),
        "count",
    );
    put(
        o,
        "gasnet.staging_used_max",
        m.gauge_max.f("staging_used"),
        "bytes",
    );
    put(
        o,
        "gasnet.backlog_bytes_max",
        m.gauge_max.f("backlog_bytes"),
        "bytes",
    );
    put(
        o,
        "gasnet.inbox_depth_max",
        m.gauge_max.f("inbox_depth"),
        "count",
    );
}

fn sim_layer(o: &mut Outcome, s: &sim::Sweep, probed: bool) {
    let put = |o: &mut Outcome, name, v, unit| o.layer(probed, name, v, unit);
    put(o, "des.events", s.events as f64, "count");
    put(o, "gasnet.sim_msgs", s.msgs as f64, "count");
    put(o, "des.events_per_s", s.events as f64 / s.run_s, "1/s");
    put(o, "runtime.sim_world_build_s", s.build_s, "s");
    put(o, "runtime.sim_kib_per_rank", s.kib_per_rank, "KiB");
    put(o, "runtime.sim_rss_retained_mib", s.retained_mib, "MiB");
}

/// Sim layers for a traced real-conduit run: a short sweep.
fn sim_probe(o: &mut Outcome, rows: &sim::Rows) {
    let s = sim::sweep(SIM_PROBE_MAX, rows, &mut Tracer::new(Instant::now()));
    o.failed += s.failed_inserts();
    sim_layer(o, &s, true);
}

/// Wall ns per simulated insert of every run slice of the largest worlds.
/// The sim workload's figures are medians over these, like the per-slice
/// medians of the real-conduit workloads.
fn slice_costs(s: &sim::Sweep) -> Vec<f64> {
    s.slices
        .iter()
        .filter(|sl| sl.0 >= SIM_SLICE_MIN)
        .map(|&(_, ns, k)| ns as f64 / k as f64)
        .collect()
}

/// `sim_fig4_knl`.
fn sim_workload(args: &Args, rows: &sim::Rows) -> Outcome {
    // Span overhead of a traced run: small sweeps before the main sweep, one
    // untimed to grow the heap (the first sweep of a process pays its page
    // faults), then untraced and traced in (u, t, t, u) order.
    let (mut pair_rates, mut pair_failed) = ([0.0; 2], 0);
    if args.trace {
        let mut sides = [(0u64, 0.0f64); 2];
        for side in [None, Some(false), Some(true), Some(true), Some(false)] {
            let mut t = Tracer::new(Instant::now());
            if side == Some(true) {
                t.start_round();
            }
            let small = sim::sweep(SIM_OVERHEAD_MAX, rows, &mut t);
            pair_failed += small.failed_inserts();
            if let Some(traced) = side {
                sides[traced as usize].0 += small.inserts;
                sides[traced as usize].1 += small.run_s;
            }
        }
        pair_rates = sides.map(|(ins, secs)| ins as f64 / secs);
    }
    let mut tr = Tracer::new(Instant::now());
    if args.trace {
        tr.start_round();
    }
    let s = sim::sweep(SIM_MAX, rows, &mut tr);
    let peak_kib = world::rss_kib().1;
    let mut o = Outcome {
        attempted: s.attempted_inserts(),
        failed: s.failed_inserts() + pair_failed,
        ..Default::default()
    };
    o.detail.push(("sweep".into(), s.to_json()));
    if !args.trace {
        // Medians over the run slices of the largest worlds, like the
        // per-slice medians of the real-conduit workloads. A simulated
        // insert has no wall-clock issue→ready latency, but every result
        // carries every end-to-end metric: `op_p50_us` here is wall µs per
        // simulated insert, the reciprocal of `ops_per_s`.
        o.put("setup_s", s.build_s, "s");
        o.put("ops_per_s", 1e9 / median(&slice_costs(&s)), "1/s");
        o.put("op_p50_us", median(&slice_costs(&s)) / 1e3, "us");
        o.detail.push((
            "ops_per_s_whole_run".into(),
            Json::from(s.inserts as f64 / s.run_s),
        ));
        o.put("peak_rss_mib", peak_kib as f64 / 1024.0, "MiB");
        return o;
    }
    tr.end_round();
    let _ = tr.write(&spans_path("sim", 0), 0);
    o.detail.push(("spans".into(), tr.summary()));
    sim_layer(&mut o, &s, false);
    let costs: Vec<u64> = slice_costs(&s).iter().map(|&c| c as u64).collect();
    o.put(
        "op_p99_us",
        percentile(&costs, 99.0).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    overhead(&mut o, pair_rates);
    // Real-conduit layers come from probes.
    let launch = launch_times(ConduitKind::Smp);
    o.layer(true, "runtime.launch_s", median(&launch), "s");
    let rma = probe(&mut o, Kernel::Rma, args.seed);
    rma_layer(&mut o, &rma, true);
    let dht = probe(&mut o, Kernel::Dht, args.seed);
    dht_layer(&mut o, &dht, true);
    o.layer(
        true,
        "coll.barrier_us_p50",
        p50(&dht.barrier_ns) / 1e3,
        "us",
    );
    o
}
