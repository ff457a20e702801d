"""Finite graphs with loops, map vertices, exponential graphs, and folds.

Vertices are indices 0..n-1 with string labels. Neighborhoods are stored as
int bitsets, so subset tests and common-neighbor intersections are single
big-int operations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvalidArgumentError, ResourceLimitError

__all__ = [
    "Graph",
    "FnVertex",
    "complete_graph",
    "cycle_graph",
    "categorical_product",
    "exponential_graph",
    "variant",
    "neighborhood",
    "find_fold",
    "fold_reduce",
    "core_vertices",
    "fold_core_exponential",
    "graph_to_json",
    "graph_from_json",
    "DEFAULT_VERTEX_BOUND",
]

DEFAULT_VERTEX_BOUND = 10**6


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

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self._nbr[u] >> v & 1)

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

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.labels == other.labels and self._nbr == other._nbr)

    def __hash__(self):
        return hash((self.labels, self._nbr))

    def __repr__(self) -> str:
        return f"Graph({len(self.labels)} vertices, {len(self.edges())} edges, {len(self.loops())} loops)"


def _bits(mask: int) -> Tuple[int, ...]:
    """Positions of the set bits, lowest first, one step per set bit."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


@dataclass(frozen=True, order=True)
class FnVertex:
    """A map [n] -> [m], stored as 1-based values; position i holds the image of i+1."""

    values: Tuple[int, ...]

    @property
    def domain_size(self) -> int:
        return len(self.values)

    @property
    def is_constant(self) -> bool:
        return len(set(self.values)) == 1

    @property
    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    @property
    def image(self) -> frozenset:
        return frozenset(self.values)

    def missing_values(self, m: int) -> Tuple[int, ...]:
        im = set(self.values)
        return tuple(x for x in range(1, m + 1) if x not in im)

    def label(self) -> str:
        if self.is_constant:
            return f"<{self.values[0]}>"
        if max(self.values) <= 9:
            return "".join(str(x) for x in self.values)
        return ",".join(str(x) for x in self.values)


def variant(f: FnVertex, k: int, x: int) -> FnVertex:
    """Replace position k (1-based) of an injective map by a value outside its image."""
    if not f.is_injective:
        raise InvalidArgumentError(f"variant requires an injective map, got {f.values}")
    if not 1 <= k <= f.domain_size:
        raise InvalidArgumentError(f"position {k} out of range for domain size {f.domain_size}")
    if x in f.image:
        raise InvalidArgumentError(f"value {x} already in the image of {f.values}")
    vals = list(f.values)
    vals[k - 1] = x
    return FnVertex(tuple(vals))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidArgumentError("complete graph needs at least one vertex")
    full = (1 << n) - 1
    return Graph([str(i + 1) for i in range(n)], [full ^ (1 << i) for i in range(n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidArgumentError("cycle graph needs at least three vertices")
    return Graph.from_edges([str(i + 1) for i in range(n)],
                            [(i, (i + 1) % n) for i in range(n)])


def categorical_product(G: Graph, H: Graph) -> Graph:
    """(u,v) ~ (u',v') iff u ~ u' in G and v ~ v' in H. Index of (u,v) is u*|H|+v."""
    nh = H.vertex_count
    labels = [f"({gu},{hv})" for gu in G.labels for hv in H.labels]
    nbr = [0] * (G.vertex_count * nh)
    for u in range(G.vertex_count):
        gm = G.neighbor_mask(u)
        for v in range(nh):
            m = 0
            for u2 in _bits(gm):
                m |= H.neighbor_mask(v) << (u2 * nh)
            nbr[u * nh + v] = m
    return Graph(labels, nbr)


def _map_adjacency(verts: Sequence[Tuple[int, ...]], index: Dict[Tuple[int, ...], int],
                   G: Graph, H: Graph) -> List[int]:
    """Adjacency among map vertices: f ~ g iff every edge (u,v) of G has f(u) ~ g(v) in H.

    For each f the valid partners form a product set, one independent choice
    per position, so neighbors are enumerated rather than tested pairwise.
    """
    n = G.vertex_count
    m = H.vertex_count
    full = (1 << m) - 1
    nbr = [0] * len(verts)
    for i, values in enumerate(verts):
        allowed: List[List[int]] = []
        empty = False
        for v in range(n):
            mask = full
            gm = G.neighbor_mask(v)
            u = 0
            while gm:
                if gm & 1:
                    mask &= H.neighbor_mask(values[u] - 1)
                gm >>= 1
                u += 1
            if mask == 0:
                empty = True
                break
            allowed.append([b + 1 for b in _bits(mask)])
        if empty:
            continue
        acc = 0
        for combo in itertools.product(*allowed):
            t = index.get(combo)
            if t is not None:
                acc |= 1 << t
        nbr[i] = acc
    return nbr


def exponential_graph(G: Graph, H: Graph, max_vertices: int = DEFAULT_VERTEX_BOUND) -> Graph:
    """The graph H^G on all maps V(G) -> V(H).

    f ~ g iff every edge (u,v) of G (loops included) has f(u) ~ g(v) in H.
    Vertices are ordered lexicographically by value tuple and labeled in map
    notation ("<x>" for constants, value strings otherwise).
    """
    n = G.vertex_count
    m = H.vertex_count
    if n == 0 or m == 0:
        raise InvalidArgumentError("exponential graph needs nonempty G and H")
    total = m ** n
    if total > max_vertices:
        raise ResourceLimitError(
            f"exponential graph would have {total} vertices, over the bound {max_vertices}",
            bound=max_vertices)
    verts = list(itertools.product(range(1, m + 1), repeat=n))
    index = {v: i for i, v in enumerate(verts)}
    nbr = _map_adjacency(verts, index, G, H)
    labels = [FnVertex(v).label() for v in verts]
    return Graph(labels, nbr)


def neighborhood(G: Graph, A: Iterable[int]) -> Tuple[int, ...]:
    """Common neighbors of A; the empty set has every vertex as a neighbor."""
    mask = (1 << G.vertex_count) - 1
    for v in A:
        if not 0 <= v < G.vertex_count:
            raise InvalidArgumentError(f"vertex {v} out of range")
        mask &= G.neighbor_mask(v)
    return _bits(mask)


def find_fold(G: Graph) -> Optional[Tuple[int, int]]:
    """First pair (u, v), u != v, with N(u) a subset of N(v); smallest u, then smallest v."""
    n = G.vertex_count
    for u in range(n):
        nu = G.neighbor_mask(u)
        for v in range(n):
            if v == u:
                continue
            if nu & ~G.neighbor_mask(v) == 0:
                return (u, v)
    return None


def fold_reduce(G: Graph) -> Graph:
    """Delete fold vertices (smallest-index rule) until none remain.

    Equivalent to repeating find_fold + induced-subgraph deletion, but runs on
    a live-vertex mask so neighborhoods are not rebuilt per step.
    """
    n = G.vertex_count
    alive = list(range(n))
    nbr = list(G._nbr)
    while True:
        found = None
        for u in alive:
            nu = nbr[u]
            for v in alive:
                if v == u:
                    continue
                if nu & ~nbr[v] == 0:
                    found = u
                    break
            if found is not None:
                break
        if found is None:
            break
        dead = ~(1 << found)
        alive.remove(found)
        for v in alive:
            nbr[v] &= dead
    return G.induced(alive)


def core_vertices(m: int, n: int) -> List[FnVertex]:
    """Constant maps <1>..<m> first, then injective maps in lexicographic order."""
    if m < 1 or n < 1:
        raise InvalidArgumentError("need m >= 1 and n >= 1")
    verts = [FnVertex((x,) * n) for x in range(1, m + 1)]
    if n > 1:
        verts.extend(FnVertex(p) for p in itertools.permutations(range(1, m + 1), n))
    return verts


def fold_core_exponential(m: int, n: int) -> Graph:
    """Subgraph of K_m^{K_n} induced on constant and injective maps."""
    verts = core_vertices(m, n)
    index = {v.values: i for i, v in enumerate(verts)}
    G = complete_graph(n)
    H = complete_graph(m)
    nbr = _map_adjacency([v.values for v in verts], index, G, H)
    return Graph([v.label() for v in verts], nbr)


def graph_to_json(G: Graph) -> dict:
    return {
        "labels": list(G.labels),
        "edges": [[u, v] for u, v in G.edges()],
        "loops": G.loops(),
    }


def graph_from_json(data: dict) -> Graph:
    try:
        labels = list(data["labels"])
        edges = [(int(u), int(v)) for u, v in data["edges"]]
        loops = [int(v) for v in data.get("loops", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed graph JSON: {exc}") from exc
    return Graph.from_edges(labels, edges, loops)
