#!/usr/bin/env python3
"""Study benchmark driver.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-repro --seed 2021 --seconds 10 --trace 0

It builds the perfbench program from source (Go caches and temporary
files stay under .bench_build/ in the checkout), starts it in fresh
processes, and prints one JSON object as the last line of standard
output: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics BENCHMARK.json lists, with --trace 1
its per-layer metrics. See perfbench/README.md for the workloads and
what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("paper-repro", "universe-1m")

# set-up is timed in this many fresh processes per run (the measuring
# process included) and reported as their median.
SETUP_SAMPLES = 5

# The perfbench processes of one run must all finish inside this budget,
# which leaves room under the 180 s a run may take; the build, which
# only the first run in a checkout pays, has its own.
RUN_BUDGET_S = 165
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def go_env(root):
    """Environment for the go command that keeps every cache, temporary
    file and config read inside the checkout."""
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
    }
    for var, sub in dirs.items():
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOENV="off", GOFLAGS="", GOWORK="off", GOPROXY="off",
               GOTOOLCHAIN="local", CGO_ENABLED="0", TMPDIR=env["GOTMPDIR"])
    return env


def build(root, env):
    binary = os.path.join(root, ".bench_build", "perfbench")
    try:
        proc = subprocess.run(["go", "build", "-o", binary, "."],
                              cwd=os.path.join(root, "perfbench"), env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout.decode(errors="replace"))
    return binary


def source_digest(root):
    """Commit stand-in for checkouts without git metadata: a digest of
    every Go source and module file."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def commit(root):
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, timeout=10, check=True)
            return out.stdout.decode().strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return source_digest(root)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fs_type(path):
    """Filesystem type of path, from the longest matching mount point."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mnt = fields[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                    best, kind = mnt, fields[2]
    except OSError:
        pass
    return kind


def child(binary, env, args, work, k, deadline):
    """Runs one perfbench process, killing it at deadline; returns (the
    time from spawn to its "ready" line, the rest of its output)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([binary] + args + ["-dir", os.path.join(work, str(k))],
                            env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        setup = None
        for line in proc.stdout:
            if line.strip() == "ready":
                setup = time.perf_counter() - t0
                break
            print(line, end="", file=sys.stderr)
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    if time.perf_counter() >= deadline:
        fail("perfbench ran past its %d s budget" % RUN_BUDGET_S)
    if proc.returncode != 0:
        fail("perfbench process exited with %d" % proc.returncode)
    if setup is None:
        fail("perfbench process never became ready")
    return setup, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("perfbench process printed no result")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("perfbench result is not JSON: " + lines[-1][:200])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative", 2)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    gomod = os.path.join(root, "go.mod")
    if not (os.path.isfile(gomod) and os.path.isfile(spec_path)):
        fail("run from the root of a checkout of the repository (no go.mod or BENCHMARK.json here)", 2)
    with open(gomod) as f:
        if "module piileak\n" not in f.read():
            fail("go.mod here is not the piileak module", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if a.trace else spec["end_to_end"]

    env = go_env(root)
    binary = build(root, env)
    work = os.path.join(root, ".bench_build", "work", "%s-%d" % (a.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    args = ["-workload", a.workload, "-seed", str(a.seed), "-seconds", repr(a.seconds)]
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        if a.trace:
            _, out = child(binary, env, args + ["-mode", "trace"], work, 0, deadline)
            res = last_json(out)
            measured = dict(res["metrics"])
        else:
            setups = []
            for k in range(SETUP_SAMPLES - 1):
                s, _ = child(binary, env, args + ["-mode", "setup"], work, k, deadline)
                setups.append(s)
            s, out = child(binary, env, args + ["-mode", "run"], work, SETUP_SAMPLES - 1, deadline)
            setups.append(s)
            res = last_json(out)
            measured = dict(res["metrics"], setup_s=statistics.median(setups))
            res.setdefault("notes", {})["setup_samples_s"] = setups
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("machine: cpu=%r nproc=%d GOMAXPROCS=%d go=%s commit=%s workdir_fs=%s" % (
        cpu_model(), len(os.sched_getaffinity(0)), res["gomaxprocs"], res["go_version"],
        commit(root), fs_type(work)))
    print("workload=%s seed=%d seconds=%s trace=%d reference_seed=2021 held_out_seed=7349" % (
        a.workload, a.seed, a.seconds, a.trace))
    for key, val in sorted(res.get("notes", {}).items()):
        print("note %s=%s" % (key, json.dumps(val)))
    for err in res.get("errors", []):
        print("failed: " + err)
    attempted, failed = res["ops"], res["failed"]
    print("failed_frac=%s (%d of %d operations)" % (failed / attempted if attempted else 1.0, failed, attempted))

    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print("%-36s %s %s" % (m["name"], repr(measured[m["name"]]), m["unit"]))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
