#!/usr/bin/env python3
"""Builds the mco benchmark from the checkout's sources and runs one workload.

Usage (from the repo root):

    python3 perfbench/run.py --workload build-wp --seed 1 --seconds 10 --trace 0

Workloads: build-wp, build-pm, fleet, daemon-warm. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; build logs
and progress go to stderr. Everything the run writes stays under
.bench_build/ in the current directory.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.abspath(".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds mco_perfbench and mco-buildd."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no mco sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", "4", "--target",
                    "mco_perfbench", "mco-buildd"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(CMAKE_DIR, "mco_perfbench"),
            os.path.join(CMAKE_DIR, "mco-buildd"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["build-wp", "build-pm", "fleet", "daemon-warm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--mutate-span", action="store_true",
                    help="self-test: corrupt span_0's result; ops must fail")
    a = ap.parse_args()

    # Keep compiler and daemon temporaries inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        bench, buildd = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        sys.exit(2)

    work = os.path.join(BUILD, f"work-{os.getpid()}")
    spans = os.path.join(BUILD, f"spans-{a.workload}-{a.seed}.jsonl")
    cmd = [bench, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--buildd", buildd, "--work", work, "--spans", spans]
    if a.mutate_span:
        cmd.append("--mutate-span")
    # Own process group: mco_perfbench and any mco-buildd it spawned can be
    # killed together if the run overstays or is interrupted.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        log("run aborted or timed out")
        sys.exit(3)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # Strays, if any.
    except ProcessLookupError:
        pass
    shutil.rmtree(work, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        sys.exit(proc.returncode or 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
