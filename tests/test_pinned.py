"""Outputs pinned to fixed bytes, and the names the traced benchmark wraps.

The files under tests/pinned/ are the exact stdout of the commands below.
Other tests compare runs with each other; these compare against fixed bytes,
so a refactor that reorders, renames or drops a crosscheck fails here.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expmorse.cli import main
from expmorse.pipeline import LEMMA_KEYS, theorem1_report

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "pinned"

REPORT_CROSSCHECKS = (
    "matching-valid", "matching-acyclic", "critical-census",
    "facet-count-formulas", "column-weight-two", "column-sums-even",
    "incidence-rank", "rank-d2-consistent", "two-path-targets",
    "paths-avoid-first-constant", "transposition-ordering",
    "betti-delta-bruteforce")


PINNED_COMMANDS = {
    "reproduce-n3.json": ["reproduce", "--n", "3"],
    "reproduce-n4.json": ["reproduce", "--n", "4"],
    "reproduce-n5.json": ["reproduce", "--n", "5"],
    "reproduce-n3.csv": ["reproduce", "--n", "3", "--format", "csv"],
    "reproduce-n4-morse.csv": ["reproduce", "--n", "4", "--method", "morse",
                               "--format", "csv"],
    "reproduce-n5-morse.csv": ["reproduce", "--n", "5", "--method", "morse",
                               "--format", "csv"],
    "reproduce-n5-m3.json": ["reproduce", "--n", "5", "--m", "3"],
    "verify-n3-all.txt": ["verify", "--n", "3", "--lemma", "all"],
    "verify-n4-all.txt": ["verify", "--n", "4", "--lemma", "all"],
    "compute-exp-3-2.json": ["compute", "homology", "--exp", "3", "2", "--max-dim", "2"],
    "compute-hom-k2-k6.json": ["compute", "hom", "--g", "k2", "--h", "k6"],
    "compute-c9.csv": ["compute", "homology", "--graph", "c9", "--format", "csv"],
    "compute-k3-max-dim-5.csv": ["compute", "homology", "--graph", "k3", "--max-dim", "5",
                                 "--format", "csv"],
    "compute-k4-max-faces-24.csv": ["compute", "homology", "--graph", "k4",
                                    "--max-faces", "24", "--format", "csv"],
}


@pytest.mark.parametrize("pinned", PINNED_COMMANDS)
def test_stdout_matches_pinned_bytes(capsys, pinned):
    assert main(PINNED_COMMANDS[pinned]) == 0
    assert capsys.readouterr().out == (PINNED / pinned).read_text(encoding="utf-8")


def test_budget_below_any_verified_dimension_pinned(capsys):
    # NC(K4) needs 12 vertex and 12 edge estimates to verify dimension 0.
    assert main(["compute", "homology", "--graph", "k4", "--max-faces", "23",
                 "--format", "csv"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "resource limit: face budget 23 too small to verify any dimension\n"


def test_report_crosscheck_names_n3_without_nc():
    rep = theorem1_report(3, include_bruteforce=False)
    assert tuple(name for name, _ in rep.crosschecks) == REPORT_CROSSCHECKS


def test_report_crosscheck_names_n4(timed_report4):
    names = tuple(name for name, _ in timed_report4[0].crosschecks)
    assert names == REPORT_CROSSCHECKS + ("betti-ncomplex-bruteforce-dims-0-3",)


def test_report_crosscheck_names_n5(timed_report5):
    names = tuple(name for name, _ in timed_report5[0].crosschecks)
    assert names == REPORT_CROSSCHECKS + ("betti-ncomplex-bruteforce-dims-0-1",)


def test_benchmark_tracer_installs_on_the_real_modules():
    # perfbench/tracer.py wraps module attributes by name; a renamed or
    # deleted one fails its install. It also lists NC's faces itself after a
    # traced report; each of those spans must count what faces_by_dim lists.
    # A fresh interpreter keeps the wrappers out of this test process.
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracer import Tracer\n"
        "from expmorse import cli, complexes, gf2, graphs, homc, pipeline\n"
        "t = Tracer()\n"
        "t.install(cli, pipeline, graphs, complexes, gf2, homc)\n"
        "assert cli.main(['verify', '--n', '3', '--lemma', 'census']) == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['reproduce', '--n', '3']) == 0\n"
        "t.enumerate_nc_faces()\n"
        "want = [len(level) for C, _ in t.nc_calls for level in C.faces_by_dim()]\n"
        "got = [s[4]['faces'] for s in t.spans if s[0] == 'complexes.enum']\n"
        "print(json.dumps([got, want]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    census, counts = proc.stdout.splitlines()
    assert census == "census: pass"
    got, want = json.loads(counts)
    assert got == want == [28, 270, 576, 624, 528, 336, 144, 36, 4]


def _load_benchmark_module(name):
    # Both modules import nothing from expmorse; loading them runs no benchmark.
    # The module is registered only while it runs, which its dataclasses need.
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_copies_of_the_verify_keys_match():
    # The tracer names one span per verify key, and the verify-n4 gate counts
    # the lines verify prints; both keep their own copy of the key list.
    keys = tuple(k for k in LEMMA_KEYS if k != "all")
    assert _load_benchmark_module("tracer").LEMMA_KEYS == keys
    gate = _load_benchmark_module("workloads").WORKLOADS["verify-n4"]
    assert gate.expect["checks"] == len(keys)
