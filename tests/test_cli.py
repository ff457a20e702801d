from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from expmorse import cli
from expmorse.cli import main
from expmorse.graphs import complete_graph, graph_to_json
from oracles import categorical_product


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
    code, out, _ = _run(capsys, "reproduce", "--n", "5", "--m", "3")
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
    assert _run(capsys, "compute", "fold", "--graph", "zzz")[0] == 2
    # "both" is written as a literal, the same object as an argparse default
    # of "both" would be: --m must still exclude it.
    for argv in (["reproduce", "--n", "3", "--cor1"],
                 ["reproduce", "--n", "3", "--m", "3", "--method", "both"],
                 ["compute", "hom", "--g", "k2"],
                 ["compute", "nosuch", "--graph", "k3"],
                 ["verify", "--n", "3", "--lemma", "wn", "--format", "csv"],
                 # checks only the report runs
                 *(["verify", "--n", "4", "--lemma", key] for key in
                   ("facet-counts", "rank-d2", "delta-bruteforce", "nc-bruteforce"))):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# Each compute target takes only the flags it reads, --graph and --exp
# exclude each other, and so do reproduce's --m and --method.
UNREAD_FLAGS = [
    "compute exp-graph --g k2 --h k3 --graph k3",
    "compute exp-graph --g k2 --h k3 --exp 3 2",
    "compute exp-graph --g k2 --h k3 --max-dim 1",
    "compute exp-graph --g k2 --h k3 --max-faces 5",
    "compute fold --graph k3 --g k2",
    "compute fold --graph k3 --h k3",
    "compute fold --graph k3 --max-dim 1",
    "compute fold --graph k3 --max-faces 5",
    "compute ncomplex --graph k3 --g k2",
    "compute ncomplex --graph k3 --h k3",
    "compute ncomplex --graph k3 --max-dim 1",
    "compute ncomplex --graph k3 --max-faces 5",
    "compute homology --graph k3 --g k2",
    "compute homology --graph k3 --h k9",
    "compute hom --g k2 --h k3 --graph k3",
    "compute hom --g k2 --h k3 --exp 3 2",
    "compute fold --graph k3 --exp 3 2",
    "reproduce --n 3 --m 3 --method morse",
]


@pytest.mark.parametrize("command", UNREAD_FLAGS)
def test_flag_a_command_does_not_read_exits_two(command):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    commands = [line.split("#")[0].split() for block in blocks
                for line in block.splitlines() if line.startswith("expmorse ")]
    assert len(commands) >= 10
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


@pytest.mark.parametrize("graph", [
    {"labels": [1, 2, 3], "edges": [[0, 1]], "loops": []},
    {"labels": ["a", "b", "c"], "edges": [[0, 1.5]], "loops": []},
    {"labels": ["a", "b", "c"], "edges": [], "loops": [True]},
    {"labels": ["a", "b", "c"], "edges": [["0", "2"]], "loops": []},
])
def test_malformed_graph_json_exits_two(tmp_path, capsys, graph):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph))
    code, out, err = _run(capsys, "compute", "ncomplex", "--graph", str(p),
                          "--format", "csv")
    assert code == 2
    assert out == ""
    assert "malformed graph JSON" in err


def _graph_file(path, n, edges):
    path.write_text(json.dumps({"labels": [str(v) for v in range(n)],
                                "edges": edges, "loops": []}))
    return str(path)


@pytest.fixture(scope="module")
def big_graph_file(tmp_path_factory):
    return _graph_file(tmp_path_factory.mktemp("big") / "big.json", 70_000,
                       [[v, v + 1] for v in range(0, 70_000, 2)])


@pytest.mark.parametrize("command", ["compute homology --exp 11 11",
                                     "reproduce --n 11 --m 11",
                                     "compute exp-graph --g k6 --h k7",
                                     "compute homology --exp 9 8",
                                     "compute fold --graph k70000",
                                     "compute homology --graph c70000",
                                     "compute ncomplex --graph {big}",
                                     "compute fold --graph {big}"])
def test_core_over_the_vertex_bound_exits_three_at_once(capsys, big_graph_file, command):
    # The core of K_11^{K_11} has 11 + 11! vertices, K_7^{K_6} has 7^6, the
    # core of K_9^{K_8} 9 + 9! vertices, and the atoms and the file 70,000 each.
    start = time.perf_counter()
    code, out, err = _run(capsys, *command.format(big=big_graph_file).split())
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "over the bound 65536" in err


def _child(*argv, **kw):
    """Run the CLI in a fresh interpreter; it must end within 20 s."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "expmorse.cli", *argv],
                          capture_output=True, text=True, timeout=20, env=env, **kw)


@pytest.mark.parametrize("n,m", [(30, 3), (11, 6)])
def test_core_of_many_maps_into_few_values_ends(n, m):
    # the core is the m constants; the maps it is built from may not be walked
    proc = _child("reproduce", "--n", str(n), "--m", str(m))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["crosschecks"] == [{"name": "sphere-betti", "pass": True}]


def test_hom_of_edge_times_clique_through_the_command(tmp_path):
    for n in (4, 5):
        P = categorical_product(complete_graph(2), complete_graph(n))
        (tmp_path / f"k2xk{n}.json").write_text(json.dumps(graph_to_json(P)))
    proc = _child("compute", "hom", "--g", str(tmp_path / "k2xk4.json"), "--h", "k3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["betti"] == [1, 1, 0, 0, 0]
    # 1,572 cells of dimension up to 5; the core's order complex is a
    # 12-cycle, but the Betti numbers still run to the cells' dimension
    proc = _child("compute", "hom", "--g", str(tmp_path / "k2xk5.json"), "--h", "k3")
    assert proc.returncode == 0
    assert proc.stdout == ('{\n  "method": "bruteforce",\n  "betti": [\n    1,\n    1,\n'
                           '    0,\n    0,\n    0,\n    0\n  ],\n  "max_verified_dim": 5\n}\n')
    proc = _child("compute", "hom", "--g", str(tmp_path / "k2xk5.json"), "--h", "k4")
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_hom_from_a_deep_source_graph_ends(tmp_path):
    # one level per vertex of G, so 2,000 vertices cost no stack
    path = _graph_file(tmp_path / "path.json", 2000, [[v, v + 1] for v in range(1999)])
    start = time.perf_counter()
    proc = _child("compute", "hom", "--g", path, "--h", "k2")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["betti"] == [2]
    # 3^u partial cells on u isolated vertices pass the count long before the end
    proc = _child("compute", "hom", "--g", _graph_file(tmp_path / "dots.json", 1200, []),
                  "--h", "k2")
    assert proc.returncode == 3
    assert proc.stdout == ""


def _cap_memory():
    # runs in the child between fork and exec, so only the child is capped
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command", ["compute homology --exp 9 8",
                                     "compute homology --exp 8 7",
                                     "compute exp-graph --g k6 --h k7",
                                     "reproduce --n 11 --m 11"])
def test_command_past_a_budget_ends_under_a_memory_cap(command):
    start = time.perf_counter()
    proc = _child(*command.split(), preexec_fn=_cap_memory)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "out of memory" not in proc.stderr


def test_reproduce_m_obeys_the_size_rule_of_its_full_report(capsys):
    # --m N+1 runs the full report at N, so N = 6 is refused as --n 6 is
    start = time.perf_counter()
    code, out, err = _run(capsys, "reproduce", "--n", "6", "--m", "7")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == _run(capsys, "reproduce", "--n", "6")[2]
    # N = 2 runs no full report and is not sized
    assert _run(capsys, "reproduce", "--n", "2", "--m", "3")[0] == 0


def test_resource_limit_exit_three(capsys):
    code, _, err = _run(capsys, "compute", "homology", "--graph", "k4",
                        "--max-faces", "2")
    assert code == 3
    assert "resource" in err.lower()


def test_max_dim_over_the_budget_exits_three_at_once(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, "compute", "homology", "--graph", "k3",
                          "--max-dim", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert "over the face budget" in err


def test_hom_order_complex_over_budget_exits_three(capsys):
    # 6,050 cells pass the cell bound; their 2,580,480 maximal chains do not
    # fit the default face budget.
    code, out, err = _run(capsys, "compute", "hom", "--g", "k2", "--h", "k8")
    assert code == 3
    assert out == ""
    assert "resource" in err.lower()


def test_out_of_memory_exits_three(monkeypatch, capsys):
    def exhausted(n, **kw):
        raise MemoryError

    monkeypatch.setattr(cli, "theorem1_report", exhausted)
    code, out, err = _run(capsys, "reproduce", "--n", "3")
    assert code == 3
    assert out == ""
    assert err == "resource limit: out of memory\n"


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
