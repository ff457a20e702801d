"""Finite graphs with loops, maps between vertex sets, exponential graphs, and folds.

Vertices are indices 0..n-1 with string labels. Neighborhoods are stored as
int bitsets, so subset tests and common-neighbor intersections are single
big-int operations. A map [n] -> [m] is its tuple of 1-based values.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Sequence, Tuple

from .errors import InvalidArgumentError, ResourceLimitError

__all__ = [
    "Graph",
    "Map",
    "map_label",
    "missing_value",
    "complete_graph",
    "cycle_graph",
    "exponential_graph",
    "variant",
    "neighborhood",
    "fold_reduce",
    "core_vertices",
    "fold_core_exponential",
    "graph_to_json",
    "graph_from_json",
    "DEFAULT_VERTEX_BOUND",
]

# A Graph keeps one V-bit neighbour mask per vertex, V^2 bits in all, so
# 2^16 vertices keep the masks at or under 512 MB.
DEFAULT_VERTEX_BOUND = 2**16

Map = Tuple[int, ...]


class Graph:
    """Undirected graph, loops allowed. Immutable once built."""

    __slots__ = ("labels", "_nbr")

    def __init__(self, labels: Sequence[str], nbr: Sequence[int]):
        if len(labels) != len(nbr):
            raise InvalidArgumentError("labels and adjacency rows differ in length")
        self.labels = tuple(labels)
        self._nbr = tuple(nbr)

    @classmethod
    def from_edges(cls, labels: Sequence[str], edges: Iterable[Tuple[int, int]],
                   loops: Iterable[int] = ()) -> "Graph":
        n = len(labels)
        nbr = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidArgumentError(f"edge ({u},{v}) out of range")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        for v in loops:
            if not 0 <= v < n:
                raise InvalidArgumentError(f"loop vertex {v} out of range")
            nbr[v] |= 1 << v
        return cls(labels, nbr)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def has_loop(self, v: int) -> bool:
        return bool(self._nbr[v] >> v & 1)

    def neighbor_mask(self, v: int) -> int:
        return self._nbr[v]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return _bits(self._nbr[v])

    def edges(self) -> List[Tuple[int, int]]:
        """Unordered non-loop edges as (u, v) with u < v, sorted."""
        out = []
        for u in range(len(self.labels)):
            m = self._nbr[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return out

    def loops(self) -> List[int]:
        return [v for v in range(len(self.labels)) if self.has_loop(v)]

    def induced(self, keep: Sequence[int]) -> "Graph":
        """Induced subgraph on `keep`, vertices renumbered in the given order."""
        keep = list(keep)
        pos = {v: i for i, v in enumerate(keep)}
        if len(pos) != len(keep):
            raise InvalidArgumentError("duplicate vertices in induced set")
        nbr = [0] * len(keep)
        for i, v in enumerate(keep):
            m = self._nbr[v]
            for w, j in pos.items():
                if m >> w & 1:
                    nbr[i] |= 1 << j
        return Graph([self.labels[v] for v in keep], nbr)


def _bits(mask: int) -> Tuple[int, ...]:
    """Positions of the set bits, lowest first, one step per set bit."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def map_label(f: Map) -> str:
    """`<x>` for the constant x, else the values run together, comma-joined past 9."""
    if len(set(f)) == 1:
        return f"<{f[0]}>"
    if max(f) <= 9:
        return "".join(map(str, f))
    return ",".join(map(str, f))


def missing_value(f: Map, m: int) -> int:
    """The least value in 1..m outside the image of f."""
    return next(x for x in range(1, m + 1) if x not in f)


def variant(f: Map, k: int, x: int) -> Map:
    """Replace position k (1-based) of an injective map by a value outside its image."""
    if len(set(f)) != len(f):
        raise InvalidArgumentError(f"variant requires an injective map, got {f}")
    if not 1 <= k <= len(f):
        raise InvalidArgumentError(f"position {k} out of range for domain size {len(f)}")
    if x in f:
        raise InvalidArgumentError(f"value {x} already in the image of {f}")
    return f[:k - 1] + (x,) + f[k:]


def _bounded(total: int, what: str) -> None:
    """Refuse a graph of `total` vertices over DEFAULT_VERTEX_BOUND, before building it."""
    if total > DEFAULT_VERTEX_BOUND:
        raise ResourceLimitError(f"{what} would have {total} vertices, "
                                 f"over the bound {DEFAULT_VERTEX_BOUND}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidArgumentError("complete graph needs at least one vertex")
    _bounded(n, "complete graph")
    full = (1 << n) - 1
    return Graph([str(i + 1) for i in range(n)], [full ^ (1 << i) for i in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidArgumentError("cycle graph needs at least three vertices")
    _bounded(n, "cycle graph")
    return Graph.from_edges([str(i + 1) for i in range(n)],
                            [(i, (i + 1) % n) for i in range(n)])


def _map_graph(verts: Sequence[Map], G: Graph, H: Graph) -> Graph:
    """The graph on the maps `verts`, in that order, labeled by `map_label`.

    f ~ g iff every edge (u,v) of G (loops included) has f(u) ~ g(v) in H.
    `at[v][b]` masks the maps that send v to b + 1. The maps that fit f at v
    are the OR of `at[v]` over the values H allows there (over the others,
    complemented, when more than half are allowed), and f's neighbors are
    the AND over v: O(|verts|·(|E(G)| + |V(G)|·|V(H)|)) big-int operations.
    """
    nh, full = H.vertex_count, (1 << H.vertex_count) - 1
    every = (1 << len(verts)) - 1
    at = [[0] * nh for _ in range(G.vertex_count)]
    for i, f in enumerate(verts):
        for v, x in enumerate(f):
            at[v][x - 1] |= 1 << i
    around = [G.neighbors(v) for v in range(G.vertex_count)]
    nbr = []
    for f in verts:
        acc = every
        for v, us in enumerate(around):
            allowed = full
            for u in us:
                allowed &= H.neighbor_mask(f[u] - 1)
            flip = 2 * allowed.bit_count() > nh
            fit = 0
            for b in _bits(allowed ^ full if flip else allowed):
                fit |= at[v][b]
            acc &= every ^ fit if flip else fit
        nbr.append(acc)
    return Graph([map_label(f) for f in verts], nbr)


def exponential_graph(G: Graph, H: Graph) -> Graph:
    """The graph H^G on all maps V(G) -> V(H), in lexicographic order (see `_map_graph`)."""
    n = G.vertex_count
    m = H.vertex_count
    if n == 0 or m == 0:
        raise InvalidArgumentError("exponential graph needs nonempty G and H")
    _bounded(m ** n, "exponential graph")
    return _map_graph(list(itertools.product(range(1, m + 1), repeat=n)), G, H)


def neighborhood(G: Graph, A: Iterable[int]) -> Tuple[int, ...]:
    """Common neighbors of A; the empty set has every vertex as a neighbor."""
    mask = (1 << G.vertex_count) - 1
    for v in A:
        if not 0 <= v < G.vertex_count:
            raise InvalidArgumentError(f"vertex {v} out of range")
        mask &= G.neighbor_mask(v)
    return _bits(mask)


def fold_reduce(G: Graph) -> Graph:
    """Delete fold vertices (smallest-index rule) until none remain.

    Each step deletes u for the first pair (u, v), u != v, with N(u) a subset
    of N(v), smallest u, then smallest v. It runs on a live-vertex mask, so
    neighborhoods are not rebuilt per step.
    """
    alive = list(range(G.vertex_count))
    nbr = list(G._nbr)
    while True:
        u = next((u for u in alive
                  if any(v != u and nbr[u] & ~nbr[v] == 0 for v in alive)), None)
        if u is None:
            return G.induced(alive)
        alive.remove(u)
        for v in alive:
            nbr[v] &= ~(1 << u)


def core_vertices(m: int, n: int) -> List[Map]:
    """Constant maps <1>..<m> first, then injective maps in lexicographic order.

    Refuses before listing any map when there would be more than
    DEFAULT_VERTEX_BOUND of them, the bound exponential_graph puts on m^n.
    """
    if m < 1 or n < 1:
        raise InvalidArgumentError("need m >= 1 and n >= 1")
    _bounded(m + math.perm(m, n) if n > 1 else m, f"core of K_{m}^{{K_{n}}}")
    verts = [(x,) * n for x in range(1, m + 1)]
    if n > 1:
        verts.extend(itertools.permutations(range(1, m + 1), n))
    return verts


def fold_core_exponential(m: int, n: int) -> Graph:
    """Subgraph of K_m^{K_n} induced on constant and injective maps."""
    return _map_graph(core_vertices(m, n), complete_graph(n), complete_graph(m))


def graph_to_json(G: Graph) -> dict:
    return {
        "labels": list(G.labels),
        "edges": [[u, v] for u, v in G.edges()],
        "loops": G.loops(),
    }


def graph_from_json(data: dict) -> Graph:
    """The graph of {labels, edges, loops}: a list of strings and int vertex ids."""
    try:
        labels = data["labels"]
        edges = [(u, v) for u, v in data["edges"]]
        loops = list(data.get("loops", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise InvalidArgumentError("malformed graph JSON: labels must be a list of strings")
    _bounded(len(labels), "graph JSON")
    for v in [v for e in edges for v in e] + loops:
        if type(v) is not int:  # bool is an int subclass; JSON true is no vertex id
            raise InvalidArgumentError(f"malformed graph JSON: vertex id {v!r} is not an int")
    return Graph.from_edges(labels, edges, loops)
