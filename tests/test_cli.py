from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expmorse import cli
from expmorse.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reproduce_json_schema(capsys):
    code, out, _ = _run(capsys, "reproduce", "--n", "3")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"n", "facets", "critical", "rank_d2", "betti",
                      "acyclic", "crosschecks"}
    assert d["betti"] == [1, 1, 14]
    assert all(set(c) == {"name", "pass"} for c in d["crosschecks"])


def test_reproduce_csv(capsys):
    code, out, _ = _run(capsys, "reproduce", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    assert "critical,1 6 19" in lines
    assert any(line.startswith("crosscheck:") for line in lines)


def test_reproduce_corollary(capsys):
    code, out, _ = _run(capsys, "reproduce", "--n", "5", "--cor1", "--m", "3")
    assert code == 0
    d = json.loads(out)
    assert d["case"] == "m<n" and d["betti"] == [1, 1]


def test_verify_lines_and_exit(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "3", "--lemma", "census")
    assert code == 0
    assert out == "census: pass\n"
    code, out, _ = _run(capsys, "verify", "--n", "4", "--lemma", "all")
    assert code == 0
    assert len(out.strip().split("\n")) == 9


def test_compute_ncomplex(capsys):
    code, out, _ = _run(capsys, "compute", "ncomplex", "--graph", "k3")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 3


def test_compute_homology_of_exponential_core(capsys):
    code, out, _ = _run(capsys, "compute", "homology", "--exp", "3", "2",
                        "--max-dim", "2")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 2, 1]


def test_compute_hom(capsys):
    code, out, _ = _run(capsys, "compute", "hom", "--g", "k2", "--h", "k3")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1]


def test_compute_fold_and_exp_graph(capsys):
    code, out, _ = _run(capsys, "compute", "exp-graph", "--g", "k2", "--h", "k2")
    assert code == 0
    assert len(json.loads(out)["labels"]) == 4
    code, out, _ = _run(capsys, "compute", "fold", "--graph", "c4",
                        "--format", "csv")
    assert code == 0
    assert out.strip().split("\n") == ["u,v", "0,1"]


def test_graph_json_file_input(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"labels": ["a", "b"], "edges": [[0, 1]],
                             "loops": []}))
    code, out, _ = _run(capsys, "compute", "ncomplex", "--graph", str(p))
    assert code == 0
    assert json.loads(out)["facets"] == [[0], [1]]


def test_invalid_arguments_exit_two(capsys):
    assert _run(capsys, "reproduce", "--n", "9")[0] == 2
    assert _run(capsys, "reproduce", "--n", "3", "--cor1")[0] == 2
    assert _run(capsys, "compute", "fold", "--graph", "zzz")[0] == 2
    assert _run(capsys, "compute", "hom", "--g", "k2")[0] == 2
    for argv in (["compute", "nosuch", "--graph", "k3"],
                 ["verify", "--n", "3", "--lemma", "wn", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_resource_limit_exit_three(capsys):
    code, _, err = _run(capsys, "compute", "homology", "--graph", "k4",
                        "--max-faces", "2")
    assert code == 3
    assert "resource" in err.lower()


def test_mismatch_exit_one(monkeypatch, capsys):
    class Fake:
        ok = False

        def to_json_dict(self):
            return {"n": 3, "crosschecks": [{"name": "x", "pass": False}]}

    monkeypatch.setattr(cli, "theorem1_report", lambda n, **kw: Fake())
    assert _run(capsys, "reproduce", "--n", "3")[0] == 1


def test_results_boilerplate_free_stdout(capsys):
    # logs stay on stderr, stdout parses as one json document
    code, out, _ = _run(capsys, "compute", "homology", "--graph", "c5")
    assert code == 0
    json.loads(out)


def test_byte_identical_across_runs(capsys):
    runs = [_run(capsys, "reproduce", "--n", "3")[1] for _ in range(4)]
    assert len(set(runs)) == 1


def test_console_entry_point_subprocess():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "expmorse.cli", "verify", "--n", "3",
         "--lemma", "wn"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "wn: pass\n"
