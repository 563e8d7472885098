#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (perfbench/Cargo.toml) against the
repository's crates, runs one workload and prints its result as the last
line of standard output. Full records go to perfbench/out/records.jsonl,
spans of traced runs to perfbench/out/spans/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["rma_smp", "dht_smp", "dht_proc", "sim_fig4_knl"]
# The binary must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
# Rank processes of a stuck proc world are killed before the run timeout.
PROC_TIMEOUT_S = "150"
# Files the benchmark builds and checks against; without them there is
# nothing to measure.
NEEDED = ["Cargo.toml", "crates/core/Cargo.toml", "crates/dht/Cargo.toml",
          "results/fig4_knl.txt", "perfbench/Cargo.toml"]


def source_rev():
    """The git commit when run in a git checkout, else a digest of the
    sources the benchmark builds from."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src", "perfbench/Cargo.toml"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if f.endswith((".rs", ".toml", ".lock")))
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        sys.exit(f"perfbench: run from the repository root; missing {', '.join(missing)}")

    # Nothing from the caller's UPCXX_* environment may change what runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("UPCXX_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")

    # Proc-conduit worlds put their segment files and sockets in TMPDIR;
    # keep them inside the checkout.
    tmp = os.path.join(target, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["UPCXX_PROC_TIMEOUT"] = PROC_TIMEOUT_S
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--out", "perfbench/out", "--rev", source_rev()]
    # Own process group, so a timeout also stops the rank processes.
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        sys.exit(f"perfbench: {a.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        sys.exit(f"perfbench: {a.workload} exited with {p.returncode}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: no result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
