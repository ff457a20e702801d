"""Spans around calls into expmorse, and the per-layer metrics derived from them.

A traced sample wraps the public functions of each layer at the module
attribute its caller looks up, so the program's own code is unchanged and
every call still does exactly the work it does untraced. Spans stay in memory
in the child; the parent turns the finished span list into metrics.

A span is ``[name, start, end, parent, counts]``: ``start`` and ``end`` are
``time.monotonic()`` readings, ``parent`` is the index of the enclosing span
(-1 at top level) and ``counts`` holds the work counted at that boundary.
Every ``_s`` metric is self time: the span's duration minus the time its
child spans cover. Importing this module imports nothing from expmorse.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

LEMMA_KEYS = ("free-faces", "trichotomy", "matching", "acyclic", "census",
              "paths", "avoid-one", "incidence", "wn")

# (metric, unit, how) -- how is ("self", span name), ("sum" | "max", count key)
# or ("derived", None) for the ratios computed in per_layer_metrics.
PER_LAYER = (
    [
        ("graphs.core_s", "s", ("self", "graphs.core")),
        ("graphs.core_vertices", "count", ("max", "core_vertices")),
        ("graphs.fold_s", "s", ("self", "graphs.fold")),
        ("graphs.fold_removed", "count", ("sum", "fold_removed")),
        ("complexes.delta_s", "s", ("self", "complexes.delta")),
        ("complexes.delta_facets", "count", ("max", "delta_facets")),
        ("complexes.nc_s", "s", ("self", "complexes.nc")),
        ("complexes.nc_facets", "count", ("sum", "nc_facets")),
        ("complexes.enum_s", "s", ("self", "complexes.enum")),
        ("complexes.faces", "count", ("sum", "faces")),
        ("complexes.collapse_s", "s", ("self", "complexes.collapse")),
        ("gf2.betti_nc_s", "s", ("self", "gf2.betti_nc")),
        ("gf2.betti_delta_s", "s", ("self", "gf2.betti_delta")),
        ("gf2.betti_small_s", "s", ("self", "gf2.betti_small")),
        ("gf2.betti_chain_s", "s", ("self", "gf2.betti_chain")),
        ("gf2.rank_s", "s", ("self", "gf2.rank")),
        ("gf2.nc_verified_dims", "count", ("max", "nc_verified_dims")),
        ("gf2.nc_columns", "count", ("derived", None)),
        ("gf2.pivot_ratio", "ratio", ("derived", None)),
        ("morse.poset_s", "s", ("self", "morse.poset")),
        ("morse.poset_cells", "count", ("max", "poset_cells")),
        ("morse.validate_s", "s", ("self", "morse.validate")),
        ("morse.acyclic_s", "s", ("self", "morse.acyclic")),
        ("morse.critical_s", "s", ("self", "morse.critical")),
        ("morse.critical_cells", "count", ("max", "critical_cells")),
        ("morse.matched_pairs", "count", ("max", "matched_pairs")),
        ("morse.boundaries_s", "s", ("self", "morse.boundaries")),
        ("homc.cells_s", "s", ("self", "homc.cells")),
        ("homc.cells", "count", ("sum", "cells")),
        ("homc.order_complex_s", "s", ("self", "homc.order_complex")),
        ("homc.chains", "count", ("sum", "chains")),
        ("pipeline.matching_s", "s", ("self", "pipeline.matching")),
        ("pipeline.census_s", "s", ("self", "pipeline.census")),
        ("pipeline.incidence_s", "s", ("self", "pipeline.incidence")),
        ("pipeline.report_s", "s", ("self", "pipeline.report")),
    ]
    + [(f"pipeline.verify.{k}_s", "s", ("self", f"pipeline.verify.{k}"))
       for k in LEMMA_KEYS]
    + [
        ("cli.self_s", "s", ("self", "cli.main")),
        ("trace.coverage", "ratio", ("derived", None)),
        ("trace.overhead_s", "s", ("derived", None)),
    ]
)


class Tracer:
    """Records spans in memory; one instance per traced child process."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._deltas: set = set()
        self.nc_calls: List[tuple] = []  # (complex, BettiTable) per NC reduction

    def add(self, name: str, start: float, end: float, **counts) -> None:
        """Record an already finished top-level span."""
        self.spans.append([name, start, end, -1, counts])

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, None, self._stack[-1] if self._stack else -1, {}]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.monotonic()
        try:
            yield rec[4]
        finally:
            rec[2] = time.monotonic()
            self._stack.pop()

    def wrap(self, module, attr: str, name, count: Optional[Callable] = None):
        """Replace module.attr by a span-recording wrapper around it.

        ``name`` is a span name or a function of the call's arguments giving
        one; ``count(result, *args)`` returns the counts to attach.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label) as counts:
                out = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(out, *args))
            return out

        setattr(module, attr, traced)

    def install(self, cli, pipeline, graphs, complexes, gf2, homc) -> None:
        """Wrap every layer call the workloads make, at the caller's binding."""
        w = self.wrap
        core_graph = lambda out, *a: {"core_vertices": out.vertex_count}
        core_list = lambda out, *a: {"core_vertices": len(out)}
        nc = lambda out, *a: {"nc_facets": len(out.facets)}
        for mod in (pipeline, complexes):
            w(mod, "fold_core_exponential", "graphs.core", core_graph)
            w(mod, "core_vertices", "graphs.core", core_list)
            w(mod, "neighborhood_complex", "complexes.nc", nc)
        w(graphs, "fold_reduce", "graphs.fold",
          lambda out, g: {"fold_removed": g.vertex_count - out.vertex_count})

        def delta(out, *a):
            self._deltas.add(id(out))
            return {"delta_facets": len(out.facets)}

        w(pipeline, "delta_facet_families", "complexes.delta")
        w(pipeline, "build_delta", "complexes.delta", delta)
        w(complexes, "delta_via_collapse", "complexes.collapse")

        def nc_betti(out, C, *a):
            if id(C) in self._deltas:
                return {}
            self.nc_calls.append((C, out))
            return {"nc_verified_dims": out.max_verified_dim + 1}

        w(pipeline, "betti_bounded",
          lambda C, *a: ("gf2.betti_delta" if id(C) in self._deltas
                         else "gf2.betti_nc"), nc_betti)
        w(gf2, "betti_bounded", "gf2.betti_small")
        w(pipeline, "betti_of_chain", "gf2.betti_chain")
        w(pipeline, "rank_gf2", "gf2.rank")

        w(pipeline, "face_poset", "morse.poset",
          lambda out, *a: {"poset_cells": out.size})
        w(pipeline, "validate_matching", "morse.validate")
        w(pipeline, "is_acyclic", "morse.acyclic")
        w(pipeline, "critical_cells", "morse.critical",
          lambda out, *a: {"critical_cells": out.total})
        w(pipeline, "DescentCache", "morse.boundaries")
        w(pipeline, "morse_boundaries", "morse.boundaries")

        w(homc, "enumerate_hom_cells", "homc.cells",
          lambda out, *a: {"cells": len(out)})
        w(homc, "order_complex_of_hom", "homc.order_complex",
          lambda out, *a: {"chains": len(out.facets)})

        w(pipeline, "build_matching_mu", "pipeline.matching",
          lambda out, *a: {"matched_pairs": len(out)})
        w(pipeline, "closed_form_critical", "pipeline.census")
        # theorem1_report computes the incidence matrix through this cached
        # helper, not through the public incidence_matrix_A.
        w(pipeline, "_incidence", "pipeline.incidence")
        for mod in (cli, pipeline):
            w(mod, "theorem1_report", "pipeline.report")
        w(cli, "main", "cli.main")

        verify_lemma = cli.verify_lemma

        def verify_per_key(n, which, *rest):
            # verify_lemma(n, "all") is the concatenation of the single-key
            # calls, so one span per key costs no extra work.
            keys = LEMMA_KEYS if which == "all" else (which,)
            out = []
            for k in keys:
                with self.span(f"pipeline.verify.{k}"):
                    out.extend(verify_lemma(n, k, *rest))
            return out

        cli.verify_lemma = verify_per_key

    def enumerate_nc_faces(self) -> None:
        """Time NC face enumeration for every dimension betti_bounded reduced.

        Those are the materialized dimensions plus the one streamed into the
        last rank; each dimension is a separate top-level call.
        """
        for C, table in self.nc_calls:
            for d in range(min(table.max_verified_dim + 1, C.dim) + 1):
                start = time.monotonic()
                faces = sum(1 for _ in C.iter_faces_of_dim(d))
                self.add("complexes.enum", start, time.monotonic(),
                         faces=faces, dim=d)


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _pivot(spans: List[list], nc_betti: List[List[int]]):
    """Columns reduced on NC and the share of them that are pivots.

    Ranks follow from face counts and Betti numbers: r_1 = f_0 - b_0 and
    r_{k+1} = f_k - r_k - b_k. Columns are the faces of dimensions 1..V+1,
    where V is the highest verified dimension.
    """
    if not nc_betti:
        return 0, 0.0
    faces: Dict[int, int] = {}
    for s in spans:
        if s[0] == "complexes.enum":
            faces[s[4]["dim"]] = faces.get(s[4]["dim"], 0) + s[4]["faces"]
    columns = ranks = 0
    for betti in nc_betti:
        r = 0
        for k, b in enumerate(betti):
            r = faces.get(k, 0) - r - b
            ranks += r
            columns += faces.get(k + 1, 0)
    return columns, (ranks / columns if columns else 0.0)


def per_layer_metrics(spans: List[list], nc_betti: List[List[int]],
                      traced_wall_s: float, untraced_walls: List[float],
                      scale: float) -> dict:
    """Every PER_LAYER metric from one traced child's spans.

    Times are multiplied by ``scale``, as the end-to-end ones are (run.py).
    """
    selfs = self_times(spans)
    time_by: Dict[str, float] = {}
    for s, t in zip(spans, selfs):
        time_by[s[0]] = time_by.get(s[0], 0.0) + t
    columns, ratio = _pivot(spans, nc_betti)
    top_level = sum(s[2] - s[1] for s in spans if s[3] < 0)
    derived = {
        "gf2.nc_columns": columns,
        "gf2.pivot_ratio": ratio,
        "trace.coverage": top_level / traced_wall_s,
        "trace.overhead_s": traced_wall_s - statistics.median(untraced_walls),
    }
    out = {}
    for metric, unit, (how, key) in PER_LAYER:
        if how == "self":
            value = time_by.get(key, 0.0)
        elif how == "derived":
            value = derived[metric]
        else:
            vals = [s[4][key] for s in spans if key in s[4]]
            value = (sum(vals) if how == "sum" else max(vals)) if vals else 0
        if unit == "s":
            value *= scale
        out[metric] = {"value": value, "unit": unit}
    return out
