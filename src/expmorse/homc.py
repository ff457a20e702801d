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
    """All cells of Hom(G, H), ascending, built one vertex of G at a time.

    Each partial cell on vertices 0..u-1 is extended by the nonempty
    submasks of its allowed mask at u, ascending, so every level is sorted.
    Once S_w is fixed, a later neighbor u of w may only use vertices
    adjacent to all of S_w, and a looped u only mutually adjacent ones;
    common-neighbor masks are memoized when first asked for. Each partial
    cell is charged 2^|H| - 1 tests, and ResourceLimitError is raised
    before building a level that would take them past DEFAULT_MAX_CONFIGS.
    """
    ng, nh = G.vertex_count, H.vertex_count
    if ng == 0 or nh == 0:
        raise InvalidArgumentError("hom cells need nonempty graphs")
    full = (1 << nh) - 1
    memo = {}

    def common(s: int) -> int:
        if s not in memo:
            allowed = full
            for v in _bits(s):
                allowed &= H.neighbor_mask(v)
            memo[s] = allowed
        return memo[s]

    cells: List[Cell] = [()]
    tested = 0
    for u in range(ng):
        tested += full * len(cells)
        if tested > DEFAULT_MAX_CONFIGS:
            raise ResourceLimitError(
                f"hom cell search would test over {DEFAULT_MAX_CONFIGS} candidate sets")
        earlier = [w for w in G.neighbors(u) if w < u]
        looped = G.has_loop(u)
        level = []
        for cell in cells:
            allowed = full
            for w in earlier:
                allowed &= common(cell[w])
            s = -allowed & allowed  # the submasks of allowed, ascending
            while s:
                if not (looped and common(s) & s != s):
                    level.append(cell + (s,))
                s = (s - allowed) & allowed
        cells = level
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
