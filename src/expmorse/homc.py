"""Hom complexes of graphs, their cell posets and their order complexes.

A cell of Hom(G, H) assigns to each vertex of G a nonempty set of vertices
of H such that every product of assigned sets along an edge of G (loops
included) lands inside the edge set of H. A cell is a tuple of ints, one per
vertex of G, whose set bits are the vertices of H assigned to it. The face
relation is componentwise inclusion; a face one dimension down clears one
bit of one mask that has two or more. `HomPoset` is that face rule on the
Morse engine's `FacePoset`, so matchings on Hom cells run through
`morse.DescentCache` unchanged. Taking the order complex of this poset
gives a simplicial model whose homology is the standard one.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from .complexes import DEFAULT_MAX_FACES, Complex
from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import Graph, _bits
from .morse import FacePoset

__all__ = [
    "enumerate_hom_cells",
    "HomPoset",
    "hom_poset",
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
    adjacent to all of S_u. Each placed vertex tests all 2^|H| - 1 sets;
    ResourceLimitError is raised at the first placement that would take the
    tests past DEFAULT_MAX_CONFIGS, and at once when one placement would.
    """
    ng, nh = G.vertex_count, H.vertex_count
    if ng == 0 or nh == 0:
        raise InvalidArgumentError("hom cells need nonempty graphs")
    full = (1 << nh) - 1
    over = f"hom cell search would test over {DEFAULT_MAX_CONFIGS} candidate sets"
    if full > DEFAULT_MAX_CONFIGS:
        raise ResourceLimitError(over)
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
    tested = 0

    def place(u: int):
        nonlocal tested
        if u == ng:
            cells.append(tuple(chosen))
            return
        tested += full
        if tested > DEFAULT_MAX_CONFIGS:
            raise ResourceLimitError(over)
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


class HomPoset(FacePoset):
    """Hom cells grouped by dimension, each level ascending, with the Hom face rule.

    A cell's dimension is its number of assigned vertices minus its number
    of masks; its facets clear one bit of one mask that has two or more.
    """

    __slots__ = ()

    @staticmethod
    def dim_of(cell: Cell) -> int:
        return sum(s.bit_count() for s in cell) - len(cell)

    @staticmethod
    def facets(cell: Cell) -> List[Cell]:
        out = []
        for pos, s in enumerate(cell):
            if s & (s - 1):
                head, tail = cell[:pos], cell[pos + 1:]
                rest = s
                while rest:  # each set bit of s, lowest first
                    bit = rest & -rest
                    out.append(head + (s ^ bit,) + tail)
                    rest ^= bit
        return out


def hom_poset(cells: Sequence[Cell]) -> HomPoset:
    """The given hom cells as a HomPoset, each level sorted."""
    dims = [HomPoset.dim_of(c) for c in cells]
    levels: List[List[Cell]] = [[] for _ in range(max(dims, default=-1) + 1)]
    for d, c in zip(dims, cells):
        levels[d].append(c)
    return HomPoset([sorted(level) for level in levels])


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
    P = hom_poset(cells)
    index = {c: i for i, c in enumerate(cells)}
    parents: List[List[int]] = [[] for _ in cells]
    minimal = []
    for i, c in enumerate(cells):
        faces = 0
        for f in P.facets(c):
            j = index.get(f)
            if j is not None:
                parents[j].append(i)
                faces += 1
        if not faces:
            minimal.append(i)
    # Chains up from each cell and the vertices they hold. A parent has one
    # dimension more than its child, so the levels are walked top down.
    chains = [0] * len(cells)
    held = [0] * len(cells)
    for i in (index[c] for d in range(P.dim, -1, -1) for c in P.cells(d)):
        ups = parents[i]
        chains[i] = sum(chains[j] for j in ups) if ups else 1
        held[i] = chains[i] + sum(held[j] for j in ups)
    if sum(held[i] for i in minimal) > max_faces:
        raise ResourceLimitError(
            f"maximal chains of the hom poset hold over {max_faces} vertices")
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
