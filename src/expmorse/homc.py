"""Hom complexes of graphs and their order complexes.

Cells of Hom(G, H) assign to each vertex of G a nonempty set of vertices of
H such that every product of assigned sets along an edge of G lands inside
the edge set of H. The face relation is componentwise inclusion; taking the
order complex of this poset gives a simplicial model whose homology is the
standard one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .complexes import DEFAULT_MAX_FACES, Complex
from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import Graph, _bits

__all__ = [
    "HomCell",
    "enumerate_hom_cells",
    "hom_cover_digraph",
    "order_complex_of_hom",
    "DEFAULT_MAX_CONFIGS",
]

DEFAULT_MAX_CONFIGS = 1_000_000


@dataclass(frozen=True, order=True)
class HomCell:
    """A multihomomorphism: per vertex of the source, a set of target vertices."""

    assignment: Tuple[Tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return sum(len(s) - 1 for s in self.assignment)

    def label(self) -> str:
        return "|".join(" ".join(str(v) for v in s) for s in self.assignment)

    def refines(self, other: "HomCell") -> bool:
        """Componentwise containment of this cell's sets in the other's."""
        return all(set(a) <= set(b)
                   for a, b in zip(self.assignment, other.assignment))


def enumerate_hom_cells(G: Graph, H: Graph,
                        max_configs: int = DEFAULT_MAX_CONFIGS) -> List[HomCell]:
    """All cells of Hom(G, H), sorted. Backtracks over vertices of G in order.

    A partial choice of sets is pruned through the target adjacency: once
    S_u is fixed, any later neighbor v of u may only use vertices adjacent
    to all of S_u.
    """
    ng, nh = G.vertex_count, H.vertex_count
    if ng == 0 or nh == 0:
        raise InvalidArgumentError("hom cells need nonempty graphs")
    # Crude upper bound on the search tree: each vertex picks a nonempty subset.
    if (2 ** nh - 1) ** ng > max_configs:
        raise ResourceLimitError(
            f"hom cell enumeration bound exceeded: (2^{nh}-1)^{ng} configurations",
            bound=max_configs)
    full = (1 << nh) - 1
    subsets = [m for m in range(1, full + 1)]

    def common_mask(s: int) -> int:
        allowed = full
        for v in _bits(s):
            allowed &= H.neighbor_mask(v)
        return allowed

    common = {s: common_mask(s) for s in subsets}
    earlier = [tuple(w for w in G.neighbors(u) if w < u) for u in range(ng)]
    cells: List[HomCell] = []
    chosen: List[int] = []

    def place(u: int):
        if u == ng:
            cells.append(HomCell(tuple(_bits(s) for s in chosen)))
            return
        allowed = full
        for w in earlier[u]:
            allowed &= common[chosen[w]]
        # looped vertex: the set must span mutually adjacent vertices
        looped = G.has_loop(u)
        for s in subsets:
            if s & allowed == s and not (looped and common[s] & s != s):
                chosen.append(s)
                place(u + 1)
                chosen.pop()

    place(0)
    cells.sort()
    return cells


def hom_cover_digraph(cells: Sequence[HomCell]) -> Dict[int, List[int]]:
    """Indices of the cells covered by each cell (one element removed from one set)."""
    index = {c: i for i, c in enumerate(cells)}
    covers: Dict[int, List[int]] = {}
    for i, c in enumerate(cells):
        found = []
        for pos, s in enumerate(c.assignment):
            if len(s) == 1:
                continue
            for drop in s:
                smaller = tuple(x for x in s if x != drop)
                cand = HomCell(c.assignment[:pos] + (smaller,) + c.assignment[pos + 1:])
                j = index.get(cand)
                if j is not None:
                    found.append(j)
        covers[i] = found
    return covers


def order_complex_of_hom(cells: Sequence[HomCell],
                         max_faces: int = DEFAULT_MAX_FACES) -> Complex:
    """Order complex of a hom cell poset.

    Vertices are the cells, facets the maximal chains under refinement.
    Raises ResourceLimitError, before listing any chain, when the maximal
    chains hold more than `max_faces` vertices in total; that total is the
    first face count `betti_bounded` checks, so nothing it would accept is
    refused.
    """
    cells = sorted(cells)
    covers = hom_cover_digraph(cells)
    parents: Dict[int, List[int]] = {i: [] for i in range(len(cells))}
    for i, below in covers.items():
        for j in below:
            parents[j].append(i)
    minimal = [i for i in range(len(cells)) if not covers[i]]
    # Chains up from each cell and the vertices they hold. A parent has one
    # dimension more than its child, so parents are counted first.
    chains = [0] * len(cells)
    held = [0] * len(cells)
    for i in sorted(parents, key=lambda i: -cells[i].dimension):
        ups = parents[i]
        chains[i] = sum(chains[j] for j in ups) if ups else 1
        held[i] = chains[i] + sum(held[j] for j in ups)
    if sum(held[i] for i in minimal) > max_faces:
        raise ResourceLimitError(
            f"maximal chains of the hom poset hold over {max_faces} vertices",
            bound=max_faces)
    facets: List[Tuple[int, ...]] = []
    chain: List[int] = []

    def extend(i: int):
        chain.append(i)
        ups = parents[i]
        if not ups:
            facets.append(tuple(chain))
        else:
            for j in ups:
                extend(j)
        chain.pop()

    for i in minimal:
        extend(i)
    labels = [c.label() for c in cells]
    return Complex(labels, facets)
