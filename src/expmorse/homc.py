"""Hom complexes of graphs, their cell posets and their order complexes.

A cell of Hom(G, H) assigns to each vertex of G a nonempty set of vertices
of H such that every product of assigned sets along an edge of G (loops
included) lands inside the edge set of H. A cell is a tuple of ints, one per
vertex of G, whose set bits are the vertices of H assigned to it. The face
relation is componentwise inclusion; a face one dimension down clears one
bit of one mask that has two or more. `HomPoset` is that face rule on the
Morse engine's `FacePoset`, so matchings on Hom cells run through
`morse.DescentCache` unchanged. Taking the order complex of this poset
gives a simplicial model whose homology is the standard one;
`order_complex_of_hom` takes it of the poset's core, what is left once
beat points are removed, which has the same homotopy type and often far
fewer chains.
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


def _inside(a: Cell, b: Cell) -> bool:
    """Whether cell a is a face of cell b: each mask of a within b's."""
    return all(s & t == s for s, t in zip(a, b))


def order_complex_of_hom(cells: Sequence[Cell],
                         max_faces: int = DEFAULT_MAX_FACES) -> Complex:
    """Order complex of the core of a hom cell poset.

    The poset's covers are the faces `HomPoset.facets` lists; a face of a
    cell that is not in `cells` is skipped. Its beat points go first: a
    cell covered by exactly one cell, or covering exactly one. Removing one
    is a strong deformation retract of the poset (Stong, 1966) and a strong
    collapse of its order complex (Barmak & Minian, 2012), so the result
    has the homotopy type of the whole order complex, and a poset without
    beat points comes back whole. The result has no dominated vertex, so
    nothing is left for a strong collapse: were y in every maximal chain
    through x, say x < y, every cell above x would be comparable with y, so
    a maximal cell strictly between x and y, or x itself when there is
    none, would have y as its only upper cover and be a beat point.
    Vertices are the kept cells, in the given order, labelled by their sets
    ("0|1 2": vertex 0 of H for the first vertex of G, 1 and 2 for the
    second); facets are their maximal chains.
    Raises ResourceLimitError, before listing any chain, when those chains
    hold more than `max_faces` vertices in total; that total is the first
    face count `betti_bounded` checks, so nothing it would accept is refused.
    """
    P = hom_poset(cells)
    index = {c: i for i, c in enumerate(cells)}
    ups: List[List[int]] = [[] for _ in cells]
    downs: List[List[int]] = [[] for _ in cells]
    for i, c in enumerate(cells):
        for f in P.facets(c):
            j = index.get(f)
            if j is not None:
                ups[j].append(i)
                downs[i].append(j)
    kept = [True] * len(cells)
    todo = list(range(len(cells)))
    while todo:
        x = todo.pop()
        if not kept[x]:
            continue
        # x is covered by one cell y, or covers one: then near[x] == [y]. Each
        # cover z of x on the far side takes y in x's place among its near
        # covers, unless one of them already lies between z and y; only y
        # and those z have new covers to test.
        if len(ups[x]) == 1:
            near, far, rising = ups, downs, True
        elif len(downs[x]) == 1:
            near, far, rising = downs, ups, False
        else:
            continue
        kept[x] = False
        y = near[x][0]
        far[y].remove(x)
        for z in far[x]:
            near[z].remove(x)
            if not any(_inside(cells[w], cells[y]) if rising else _inside(cells[y], cells[w])
                       for w in near[z]):
                near[z].append(y)
                far[y].append(z)
            todo.append(z)
        todo.append(y)
        ups[x] = downs[x] = []
    # Chains up from each kept cell and the vertices they hold. An upper
    # cover has a higher dimension, so the levels are walked top down.
    chains = [0] * len(cells)
    held = [0] * len(cells)
    minimal = []
    for i in (index[c] for d in range(P.dim, -1, -1) for c in P.cells(d)):
        if kept[i]:
            above = ups[i]
            chains[i] = sum(chains[j] for j in above) if above else 1
            held[i] = chains[i] + sum(held[j] for j in above)
            if not downs[i]:
                minimal.append(i)
    if sum(held[i] for i in minimal) > max_faces:
        raise ResourceLimitError(
            f"maximal chains of the hom poset hold over {max_faces} vertices")
    del P, index, downs, chains, held
    keep = [i for i in range(len(cells)) if kept[i]]
    ids = {i: k for k, i in enumerate(keep)}
    ups = [[ids[j] for j in ups[i]] for i in keep]
    labels = ["|".join(" ".join(map(str, _bits(s))) for s in cells[i]) for i in keep]
    facets: List[Tuple[int, ...]] = []
    chain: List[int] = []

    def extend(i: int):
        chain.append(i)
        if not ups[i]:
            facets.append(tuple(chain))
        for j in ups[i]:
            extend(j)
        chain.pop()

    for i in minimal:
        extend(ids[i])
    del ups
    return Complex(labels, facets)
