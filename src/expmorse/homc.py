"""Hom complexes of graphs and their order complexes.

A cell of Hom(G, H) assigns to each vertex of G a nonempty set of vertices
of H such that every product of assigned sets along an edge of G (loops
included) lands inside the edge set of H. A cell is a tuple of ints, one per
vertex of G, whose set bits are the vertices of H assigned to it. The face
relation is componentwise inclusion; a face one dimension down clears one
bit of one mask that has two or more. Taking the order complex of this
poset gives a simplicial model whose homology is the standard one.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from .complexes import DEFAULT_MAX_FACES, Complex
from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import Graph, _bits

__all__ = [
    "enumerate_hom_cells",
    "order_complex_of_hom",
    "DEFAULT_MAX_CONFIGS",
]

DEFAULT_MAX_CONFIGS = 1_000_000

Cell = Tuple[int, ...]


def enumerate_hom_cells(G: Graph, H: Graph) -> List[Cell]:
    """All cells of Hom(G, H), ascending. Backtracks over vertices of G in order.

    Each vertex tries its masks in ascending order, so the cells come out
    sorted. A partial choice of sets is pruned through the target adjacency:
    once S_u is fixed, any later neighbor v of u may only use vertices
    adjacent to all of S_u.
    """
    ng, nh = G.vertex_count, H.vertex_count
    if ng == 0 or nh == 0:
        raise InvalidArgumentError("hom cells need nonempty graphs")
    # Crude upper bound on the search tree: each vertex picks a nonempty subset.
    if (2 ** nh - 1) ** ng > DEFAULT_MAX_CONFIGS:
        raise ResourceLimitError(
            f"hom cell enumeration bound exceeded: (2^{nh}-1)^{ng} configurations",
            bound=DEFAULT_MAX_CONFIGS)
    full = (1 << nh) - 1
    subsets = [m for m in range(1, full + 1)]

    def common_mask(s: int) -> int:
        allowed = full
        for v in _bits(s):
            allowed &= H.neighbor_mask(v)
        return allowed

    common = {s: common_mask(s) for s in subsets}
    earlier = [tuple(w for w in G.neighbors(u) if w < u) for u in range(ng)]
    cells: List[Cell] = []
    chosen: List[int] = []

    def place(u: int):
        if u == ng:
            cells.append(tuple(chosen))
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
    return cells


def order_complex_of_hom(cells: Sequence[Cell],
                         max_faces: int = DEFAULT_MAX_FACES) -> Complex:
    """Order complex of a hom cell poset.

    Vertices are the cells, in the given order, labelled by their sets
    ("0|1 2": vertex 0 of H for the first vertex of G, 1 and 2 for the
    second); facets are the maximal chains under componentwise inclusion.
    A face of a cell that is not in `cells` is skipped. Raises
    ResourceLimitError, before listing any chain, when the maximal chains
    hold more than `max_faces` vertices in total; that total is the first
    face count `betti_bounded` checks, so nothing it would accept is refused.
    """
    index = {c: i for i, c in enumerate(cells)}
    parents: List[List[int]] = [[] for _ in cells]
    minimal = []
    for i, c in enumerate(cells):
        faces = 0
        for pos, s in enumerate(c):
            if s & (s - 1):  # two or more bits: each can be cleared
                for x in _bits(s):
                    j = index.get(c[:pos] + (s ^ (1 << x),) + c[pos + 1:])
                    if j is not None:
                        parents[j].append(i)
                        faces += 1
        if not faces:
            minimal.append(i)
    # Chains up from each cell and the vertices they hold. A parent has one
    # dimension more than its child, so parents are counted first.
    dims = [sum(s.bit_count() for s in c) - len(c) for c in cells]
    chains = [0] * len(cells)
    held = [0] * len(cells)
    for i in sorted(range(len(cells)), key=lambda i: -dims[i]):
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
    labels = ["|".join(" ".join(map(str, _bits(s))) for s in c) for c in cells]
    return Complex(labels, facets)
