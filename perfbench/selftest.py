#!/usr/bin/env python3
"""Self-test of the benchmark: run from the repo root,

    python3 perfbench/selftest.py

1. A short run of every workload, with tracing off and on, prints exactly
   the result keys, every end-to-end / per-layer metric of BENCHMARK.json
   with its unit, and no failed op.
2. text_bytes and span_cycles_* repeat exactly for one seed.
3. The oracle catches wrong code: with span_0's return immediate changed,
   build-wp and build-pm report a failed op and fleet an incorrect run.
4. No mco-buildd and no work directory outlives a run.

Exits 0 when every check passes; prints each failure otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
BUILD = os.path.join(ROOT, ".bench_build")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace=0, seconds=2, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        check(False, f"{workload} trace={trace} exits 0 with a result "
                     f"(exit {p.returncode}: {p.stderr[-400:]})")
        return None
    return json.loads(lines[-1])


def leftovers():
    daemons = subprocess.run(["pgrep", "-f", "perfbench/mco-buildd"],
                             capture_output=True, text=True).stdout.split()
    works = [d for d in os.listdir(BUILD) if d.startswith("work-")]
    return daemons, works


def main():
    for w in [x["name"] for x in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w, 7, trace)
            if r is None:
                continue
            check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                  f"{w} trace={trace}: result keys")
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{w} trace={trace}: {r['attempted']} ops, none failed")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            diff = set(got.items()) ^ set(want.items())
            check(got == want, f"{w} trace={trace}: every {key} metric with "
                               f"its unit (diff {diff})")
            d, wk = leftovers()
            check(not d and not wk, f"{w} trace={trace}: nothing left behind "
                                    f"(daemons {d}, work dirs {wk})")

    a, b = run("build-wp", 3), run("build-wp", 3)
    if a and b:
        for m in ("text_bytes", "span_cycles_p50", "span_cycles_p95"):
            check(a["metrics"][m]["value"] == b["metrics"][m]["value"],
                  f"build-wp: {m} repeats for one seed")

    for w in ("build-wp", "build-pm", "fleet"):
        r = run(w, 7, extra=["--mutate-span"])
        if r is not None:
            check(not r["correct"] and r["failed"] >= 1,
                  f"{w}: a changed span return is caught "
                  f"({r['failed']} of {r['attempted']} ops failed)")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
