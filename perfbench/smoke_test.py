#!/usr/bin/env python3
"""Smoke test of the benchmark: a few-round instance of every workload,
including wide_market, which BENCHMARK.json leaves out (README.md).

    python3 perfbench/smoke_test.py

Run from the repository root; it builds through run.py. For every workload
it checks that every gate passes, that the metric names and units printed
match BENCHMARK.json, that the traced layer self times sum to no more than
the traced round time, and that the deterministic end-to-end metrics
repeat exactly across two runs and across market thread caps 1 and nproc.
It also checks that run.py rejects an unknown workload or flag and prints
usage for --help without running. Exits nonzero on the first failure.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (every runnable workload)
SMALL = ["--seconds", "1", "--quality-rounds", "6", "--max-rounds", "4"]
DETERMINISTIC = ("unserved_share", "covered_unit_share", "sim_wait_s_mean",
                 "social_cost_per_round")


def fail(msg):
    sys.exit(f"smoke_test: FAIL: {msg}")


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "3", "--trace", str(trace),
                 *SMALL, *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload}: result not correct: {result}")
    if not all(v for k, v in info["gates"].items() if isinstance(v, bool)):
        fail(f"{workload}: a gate failed: {info['gates']}")
    return info, result["metrics"]


def expect_names(workload, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        fail(f"{workload}: printed metrics {got} differ from BENCHMARK.json "
             f"{want}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS)
    nproc = str(len(os.sched_getaffinity(0)))

    for bad in (["--workload", "nope"],
                ["--workload", names[0], "--regionz", "1"]):
        out = subprocess.run(RUN + bad + ["--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0 or out.stdout.strip():
            fail(f"run.py accepted {bad}")
    out = subprocess.run(RUN + ["--help"], cwd=ROOT, capture_output=True,
                         text=True)
    if out.returncode != 0 or "usage" not in out.stdout:
        fail("run.py --help did not print usage")

    for w in names:
        _, e2e = run(w, 0, "--threads", nproc)
        expect_names(w, e2e, spec["end_to_end"])
        _, again = run(w, 0, "--threads", nproc)
        _, serial = run(w, 0, "--threads", "1")
        for m in DETERMINISTIC:
            values = {e2e[m]["value"], again[m]["value"], serial[m]["value"]}
            if len(values) != 1:
                fail(f"{w}: {m} differs between runs or thread caps: {values}")

        info, layers = run(w, 1)
        expect_names(w, layers, spec["per_layer"])
        total = layers["trace.round_ms"]["value"]
        summed = layers["trace.layers_ms"]["value"]
        if not 0 < summed <= total:
            fail(f"{w}: layer self times {summed} ms exceed round {total} ms")
        if abs(layers["trace.remainder_ms"]["value"] - (total - summed)) > 1e-6:
            fail(f"{w}: remainder does not close the round")
        print(f"smoke_test: {w}: ok ({info['round_samples']} timed rounds, "
              f"layers {summed:.3f} of {total:.3f} ms)")
    print("smoke_test: all workloads ok")


if __name__ == "__main__":
    main()
