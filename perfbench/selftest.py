"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs each workload at n=3 (six queries for adhoc-queries), untraced and
traced, and checks that every metric BENCHMARK.json names is emitted with
its unit and that the outputs pass their gates. Then it runs the tiny
workloads again with a deliberately wrong expected value and checks that
each operation is counted as failed. Exits 0 when all of that holds; writes
nothing.
"""
from __future__ import annotations

import dataclasses
import json
import sys

from run import ROOT, measure
from workloads import WORKLOADS

TINY = {
    "reproduce-n5": {"n": 3, "expect": {
        "betti": [1, 1, 14], "critical": [1, 6, 19], "rank_d2": 5,
        "nc_verified_dims": 9}},
    "morse-n6": {"n": 3, "expect": {
        "betti": [1, 1, 14], "critical": [1, 6, 19], "rank_d2": 5}},
    "verify-n4": {"n": 3, "expect": {"checks": 9}},
    "adhoc-queries": {"queries": 6},
}
WRONG = {"reproduce-n5": ("rank_d2", 6), "morse-n6": ("betti", [1, 1, 15]),
         "verify-n4": ("checks", 10)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert sorted(TINY) == sorted(w["name"] for w in spec["workloads"])
    problems = []
    for name, tiny in TINY.items():
        w = dataclasses.replace(WORKLOADS[name], **tiny)
        for trace in (0, 1):
            result, _ = measure(w, seed=1, seconds=0.5, trace=bool(trace))
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != units[trace]:
                problems.append(f"{name} trace={trace}: metrics {got}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} "
                                f"of {result['attempted']} operations failed")
        if name in WRONG:
            key, value = WRONG[name]
            bad = dataclasses.replace(w, expect={**w.expect, key: value})
            result, _ = measure(bad, seed=1, seconds=0.5, trace=False)
            if result["correct"] or result["failed"] != result["attempted"]:
                problems.append(f"{name}: wrong expected {key} not counted "
                                f"as failure ({result})")
        print(f"{name}: checked", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
