"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 perfbench/child.py '<spec as JSON>'

The spec gives the workload's kind, n and query count, the seed and batch
of its generated inputs, whether to trace, whether to stop once set up, and
the checkout's ``src`` directory. The environment variable PERFBENCH_T0 is
the monotonic clock read just before this process was spawned, so setup time
counts interpreter start-up too. The last line on stdout is one JSON object:
``setup_s``, one record per operation (its time and what it output) and,
when tracing, every span. The program's own stdout is captured
for the correctness gates; its stderr passes through.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def _run_op(fn):
    """Time one operation; an exception is recorded as a failed operation."""
    start = time.monotonic()
    try:
        obs = fn()
    except Exception as exc:  # one failed operation must not end the sample
        traceback.print_exc()
        obs = {"error": f"{type(exc).__name__}: {exc}"}
    return {"ms": (time.monotonic() - start) * 1000.0, "obs": obs}


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = float(os.environ["PERFBENCH_T0"])
    from expmorse import cli, complexes, gf2, graphs, homc, pipeline
    if not os.path.abspath(pipeline.__file__).startswith(spec["src"] + os.sep):
        print(f"expmorse imported from {pipeline.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 2
    import workloads

    kind, n = spec["kind"], spec["n"]
    if kind == "queries":
        K2 = graphs.complete_graph(2)
        inputs = [graphs.Graph.from_edges([str(v) for v in range(nv)], edges)
                  for nv, edges in workloads.query_graphs(
                      spec["seed"], spec["batch"], spec["queries"])]
    ready = time.monotonic()
    if spec["setup_only"]:
        sys.stdout.write(json.dumps({"setup_s": ready - t0, "ops": []}) + "\n")
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.add("setup", t0, ready)
        tracer.install(cli, pipeline, graphs, complexes, gf2, homc)

    def command(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def reproduce():
        code, out = command(["reproduce", "--n", str(n)])
        try:
            report = json.loads(out)
        except ValueError:
            report = None
        return {"code": code, "report": report}

    def report():
        rep = pipeline.theorem1_report(n, include_bruteforce=False)
        return {"ok": rep.ok, "betti": list(rep.betti),
                "critical": list(rep.critical), "rank_d2": rep.rank_d2}

    def verify():
        code, out = command(["verify", "--n", str(n), "--lemma", "all"])
        return {"code": code, "lines": out.splitlines()}

    def homology(C):
        # What `expmorse compute homology|hom` does with its default bounds.
        return gf2.betti_bounded(C, max(C.dim, 0))

    def query(g):
        def run():
            nc = homology(complexes.neighborhood_complex(g))
            folded = homology(complexes.neighborhood_complex(graphs.fold_reduce(g)))
            hom = homology(homc.order_complex_of_hom(
                homc.enumerate_hom_cells(K2, g)))
            return {"agree": nc.agrees_with(hom) and folded.agrees_with(nc)}
        return run

    if kind == "queries":
        fns = [query(g) for g in inputs]
    else:
        fns = [{"reproduce": reproduce, "report": report, "verify": verify}[kind]]
    traced_queries = tracer is not None and kind == "queries"
    ops = []
    for fn in fns:
        with tracer.span("query") if traced_queries else contextlib.nullcontext():
            ops.append(_run_op(fn))

    result = {"setup_s": ready - t0, "ops": ops}
    if tracer is not None:
        tracer.enumerate_nc_faces()
        result["spans"] = tracer.spans
        result["nc_betti"] = [list(t.betti) for _, t in tracer.nc_calls]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
