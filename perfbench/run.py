"""Benchmark of expmorse: cold-process workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports expmorse from ``src`` there.
Samples run one at a time, each in a fresh interpreter (child.py), because
the pipeline memoizes every stage per n and a command-line user pays the
cold cost. Samples are started until the next one would end after
``--seconds`` (at least MIN_SAMPLES of them). Between samples a fixed
reference job (calibrate.py) measures how fast the host runs, and every
reported time is scaled by it (see measure).

``--trace 0`` reports the end-to-end metrics over the samples. ``--trace 1``
runs untraced samples for a reference wall time, then one traced sample, and
reports the per-layer metrics from its spans (see tracer.py). Either way the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a summary goes to stderr, and every sample (and
span) to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from calibrate import REFERENCE_S
from tracer import per_layer_metrics
from workloads import WORKLOADS, Workload, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Two, not more: on a machine running at half speed, three samples of
# reproduce-n5 would take about a minute.
MIN_SAMPLES = 2
# Reference-job time run after each sample, as a share of the sample's time.
CAL_SHARE = 0.25
# A traced sample is budgeted as this many untraced ones.
TRACED_COST = 1.3
# Whole runs must end within 180 s; a child still running near that is killed.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "queries_per_s": "1/s", "query_p50_ms": "ms",
                    "query_p90_ms": "ms"}


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    code: int
    result: Optional[dict]  # the child's last stdout line, parsed


def _run(args: List[str], timeout_s: float):
    """Run one child to its end: (wall s, peak RSS MB, exit code, last line)."""
    t0 = time.monotonic()
    # The child measures its setup time from T0, the clock just before spawn.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PERFBENCH_T0=repr(t0))
    proc = subprocess.Popen([sys.executable] + args, stdout=subprocess.PIPE,
                            cwd=ROOT, env=env)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
        # the largest over every child so far.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    result = None
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, result


def spawn(w: Workload, seed: int, batch: int, trace: bool, timeout_s: float,
          setup_only: bool = False) -> Sample:
    """Run one sample in a fresh interpreter and wait for it to end.

    With ``setup_only`` the child stops once its inputs are ready: a probe
    of setup time alone.
    """
    spec = {"kind": w.kind, "n": w.n, "queries": w.queries, "seed": seed,
            "batch": batch, "trace": trace, "setup_only": setup_only,
            "src": str(SRC)}
    return Sample(*_run([str(HERE / "child.py"), json.dumps(spec)], timeout_s))


def calibrate(timeout_s: float) -> float:
    """Seconds the reference job of calibrate.py takes right now."""
    _, _, code, result = _run([str(HERE / "calibrate.py")], timeout_s)
    if result is None:
        raise RuntimeError(f"calibrate.py failed with exit code {code}")
    return result["cal_s"]


def _p90(values: List[float]) -> float:
    """The 90th percentile, or the median when under ten values lie beyond it."""
    if len(values) < 100:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(samples: List[Sample], setups: List[float],
                       scale: float) -> dict:
    """The end-to-end metrics of one run, its times multiplied by ``scale``.

    Times are means over samples of each sample's own value, because the
    machine's slow spells add to a sample's time as they add to the
    reference job's (see measure); ``queries_per_s`` pools every operation
    of the run. ``setup_s`` is the median over the setup probes and samples.
    """
    ok = [s for s in samples if s.result is not None]
    if not ok:
        return {}
    ms = [[op["ms"] * scale for op in s.result["ops"]] for s in ok]
    values = {
        "wall_s": statistics.mean(s.wall_s for s in ok) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(s.rss_mb for s in ok),
        "queries_per_s": sum(map(len, ms)) / (sum(map(sum, ms)) / 1000.0),
        "query_p50_ms": statistics.mean(map(statistics.median, ms)),
        "query_p90_ms": statistics.mean(map(_p90, ms)),
    }
    return {k: {"value": values[k], "unit": unit}
            for k, unit in END_TO_END_UNITS.items()}


def measure(w: Workload, seed: int, seconds: float, trace: bool):
    """One benchmark run: (result line, full record).

    Before the first sample and after each one, the reference job of
    calibrate.py runs, each time followed by a probe that sets the workload
    up without running it, until the reference jobs have taken CAL_SHARE of
    the sample just run. Every time is then scaled by REFERENCE_S over the
    mean time of the reference job, so the figures read as seconds on the
    reference machine. A shared host can run up to 1.9x slower for seconds
    to minutes at a time (NOTES.md), and the slow share of a run lengthens
    its samples and its reference jobs alike.
    """
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    cals: List[float] = []
    setups: List[float] = []

    def between(batch: int, last_wall_s: float) -> None:
        spent = 0.0
        while spent == 0.0 or spent < CAL_SHARE * last_wall_s:
            cals.append(calibrate(left()))
            spent += cals[-1]
            probe = spawn(w, seed, batch, False, left(), setup_only=True)
            if probe.result is not None:
                setups.append(probe.result["setup_s"])

    samples: List[Sample] = []
    between(0, 0.0)
    while True:
        samples.append(spawn(w, seed, len(samples), False, left()))
        between(len(samples), samples[-1].wall_s)
        est = (time.monotonic() - start) / len(samples)
        reserve = TRACED_COST * est if trace else 0.0
        enough = len(samples) >= (1 if trace else MIN_SAMPLES)
        if enough and time.monotonic() - start + est + reserve > seconds:
            break
    traced = spawn(w, seed, 0, True, left()) if trace else None
    scale = REFERENCE_S / statistics.mean(cals)

    attempted = failed = 0
    for s in samples + ([traced] if traced else []):
        if s.result is None:
            attempted += max(w.queries, 1)
            failed += max(w.queries, 1)
            continue
        setups.append(s.result["setup_s"])
        for op in s.result["ops"]:
            attempted += 1
            failed += not check(w, op["obs"])

    if traced is None:
        metrics = end_to_end_metrics(samples, setups, scale)
    elif traced.result is None:
        metrics = {}
    else:
        metrics = per_layer_metrics(
            traced.result["spans"], traced.result["nc_betti"],
            traced.wall_s, [s.wall_s for s in samples], scale)
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(), "result": result, "scale": scale,
        "cal_s": cals, "setup_s": setups,
        "samples": [{"wall_s": s.wall_s, "rss_mb": s.rss_mb, "code": s.code,
                     "ops_ms": s.result and [op["ms"] for op in s.result["ops"]]}
                    for s in samples],
    }
    if traced is not None:
        record["traced"] = {"wall_s": traced.wall_s, "rss_mb": traced.rss_mb,
                            "code": traced.code,
                            "spans": traced.result and traced.result["spans"]}
    return result, record


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": os.cpu_count(), "cpu": model,
            "ram_gb": round(ram / 2 ** 30, 1),
            "python": platform.python_version()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "expmorse" / "__init__.py").is_file():
        print(f"error: no expmorse sources under {SRC}; run this from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    result, record = measure(w, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    summary = ", ".join(f"{k}={m['value']:.6g}{m['unit']}"
                        for k, m in result["metrics"].items())
    print(f"{w.name} seed={args.seed}: {len(record['samples'])} samples, "
          f"{result['attempted']} ops, {result['failed']} failed; {summary}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
