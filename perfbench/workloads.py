"""The benchmark's workloads: what one sample runs and how its answers are checked.

Each sample is a fresh interpreter, because the pipeline memoizes every
stage per n and every command-line user pays the cold cost. This module is
imported by the driver (for the gates) and by the child (for the generated
graphs); it imports nothing from expmorse.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from typing import List, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind is "reproduce" (``expmorse reproduce --n N``), "report"
    (``theorem1_report(N, include_bruteforce=False)``, called directly
    because the command line rejects n > 5), "verify" (``expmorse verify
    --n N --lemma all``) or "queries" (a batch of ad-hoc homology queries
    on generated graphs per sample). ``expect`` holds the answers the gate
    compares against.
    """

    name: str
    kind: str
    n: int = 0
    queries: int = 0
    expect: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    # The headline case with every crosscheck. About 95% of it is brute-force
    # GF(2) reduction on the uncollapsed complex NC; the Morse route is ~3%.
    Workload("reproduce-n5", "reproduce", n=5, expect={
        "betti": [1, 1, 1081, 0, 1], "critical": [1, 120, 1200, 0, 1],
        "rank_d2": 119, "nc_verified_dims": 2}),
    # The Morse route at the largest size it handles: the collapsed model, its
    # face poset, matching, descent and Delta brute force; no NC brute force.
    Workload("morse-n6", "report", n=6, expect={
        "betti": [1, 1, 10081, 0, 0, 1], "critical": [1, 720, 10800, 0, 0, 1],
        "rank_d2": 719}),
    # The only workload that runs the NC -> Delta collapse trace (~85% of it)
    # and the lemma-check registry.
    Workload("verify-n4", "verify", n=4, expect={"checks": 9}),
    # Thousands of small reductions instead of one huge one, and the only
    # workload that builds Hom complexes.
    Workload("adhoc-queries", "queries", queries=540),
)}


def check(w: Workload, obs: dict) -> bool:
    """Whether one operation's observed output is correct."""
    if "error" in obs:
        return False
    e = w.expect
    if w.kind == "reproduce":
        rep = obs["report"]
        if obs["code"] != 0 or rep is None:
            return False
        checks = rep["crosschecks"]
        nc = [c["name"] for c in checks
              if c["name"].startswith("betti-ncomplex-bruteforce-dims-0-")]
        return (rep["betti"] == e["betti"] and rep["critical"] == e["critical"]
                and rep["rank_d2"] == e["rank_d2"]
                and all(c["pass"] for c in checks)
                and len(nc) == 1
                and int(nc[0].rsplit("-", 1)[1]) + 1 >= e["nc_verified_dims"])
    if w.kind == "report":
        return (obs["ok"] and obs["betti"] == e["betti"]
                and obs["critical"] == e["critical"]
                and obs["rank_d2"] == e["rank_d2"])
    if w.kind == "verify":
        lines = obs["lines"]
        return (obs["code"] == 0 and len(lines) == e["checks"]
                and all(line.endswith(": pass") for line in lines))
    return obs["agree"]


VERTEX_COUNTS = (5, 6)


def edge_quota(nv: int, count: int) -> List[int]:
    """Graphs per edge count among ``count`` draws of G(nv, 1/2).

    The binomial expectation, rounded by largest remainder, so every batch
    has the same mix of sizes and a run's cost does not hinge on how many
    rare dense graphs one seed happens to draw.
    """
    pairs = nv * (nv - 1) // 2
    exact = [count * comb(pairs, m) / 2 ** pairs for m in range(pairs + 1)]
    quota = [int(x) for x in exact]
    by_remainder = sorted(range(pairs + 1), key=lambda m: quota[m] - exact[m])
    for m in by_remainder[:count - sum(quota)]:
        quota[m] += 1
    return quota


def query_graphs(seed: int, batch: int, count: int
                 ) -> List[Tuple[int, List[Tuple[int, int]]]]:
    """The (vertex count, edge list) of each query graph of one batch.

    Erdos-Renyi graphs with 5-6 vertices and p = 1/2, drawn by stratified
    sampling: edge counts follow edge_quota and each graph is a uniform
    random edge set of its size. Same seed and batch, same graphs.
    """
    rng = random.Random(seed * 1_000_003 + batch)
    graphs = []
    per = [count // len(VERTEX_COUNTS)] * len(VERTEX_COUNTS)
    for i in range(count % len(VERTEX_COUNTS)):
        per[i] += 1
    for nv, c in zip(VERTEX_COUNTS, per):
        pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
        for m, q in enumerate(edge_quota(nv, c)):
            graphs.extend((nv, sorted(rng.sample(pairs, m))) for _ in range(q))
    rng.shuffle(graphs)
    return graphs
