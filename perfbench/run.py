#!/usr/bin/env python3
"""Build and run the snapshot-stack benchmark; print one JSON result line.

    python3 perfbench/run.py --workload mem|abd-sim|cluster --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is compiled from the repository's own sources into
.bench_build/ at the repository root (CMake + Ninja, incremental), then run
in a process group of its own with a fresh state directory. On every exit
path, timeout and interruption included, the group is killed and waited
for and the state directory removed. With --trace 1 the result also holds
loc.<module>: non-blank, non-comment lines of each src/ module and of
tools/abd_replicad.cpp. See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("mem", "abd-sim", "cluster")
MODULES = ("abd", "apps", "chaos", "cl", "common", "core", "hazard", "lin",
           "mvcc", "net", "reg", "sched", "shard", "spec", "svc", "trace")
DEADLINE_S = 170  # the whole invocation, build included, ends before 180 s
SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}/src; cannot build")
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for cmd in steps:
            # Build logs go to stderr: stdout ends with the result line.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
            if proc.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return os.path.isfile(BINARY)


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                  text, flags=re.S)
    return re.sub(r"//.*", "", text)


def count_loc(paths):
    lines = 0
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines += sum(1 for line in strip_comments(f.read()).splitlines()
                         if line.strip())
    return lines


def loc_metrics():
    metrics = {}
    for module in MODULES:
        files = []
        for dirpath, _, names in os.walk(os.path.join(ROOT, "src", module)):
            files += [os.path.join(dirpath, n) for n in sorted(names)
                      if n.endswith(SOURCE_SUFFIXES)]
        metrics[f"loc.{module}"] = count_loc(files)
    daemon = os.path.join(ROOT, "tools", "abd_replicad.cpp")
    metrics["loc.abd_replicad"] = count_loc(
        [daemon] if os.path.isfile(daemon) else [])
    return {k: {"value": v, "unit": "lines"} for k, v in metrics.items()}


def stop_group(proc):
    """SIGTERM the benchmark's process group, SIGKILL after a deadline."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=5)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")

    deadline = time.monotonic() + DEADLINE_S
    # An interrupted run unwinds through the finally blocks below.
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda s, _: sys.exit(128 + s))
    if not build(deadline):
        return 2
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"]).returncode

    # Write back what earlier work left dirty (the build, a previous run's
    # deleted WALs), so the cluster's fsyncs do not wait behind it.
    os.sync()
    state_dir = tempfile.mkdtemp(prefix="state-", dir=BUILD_ROOT)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir]
    proc = None
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run exceeded its deadline")
        return 3
    finally:
        if proc is not None:
            stop_group(proc)
        shutil.rmtree(state_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if args.trace == 1:
        result["metrics"].update(loc_metrics())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
