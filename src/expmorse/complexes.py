"""Simplicial complexes in facet form, free-face collapses, and the collapsed model.

Faces are sorted tuples of vertex indices. A complex stores only its maximal
faces and one facet index: for each vertex, the set of ids (positions in
`facets`) of the facets that contain it; the vertices in no facet share one
empty frozenset. "Which facets contain this face?" intersects those sets,
smallest first; membership, cofacets, the maximality filter and free-face
collapses all ask it that way. Nothing else is kept per
facet: the cofacet vertices of a face are read off the facets that hold it,
as a sorted list, and the least of them from one scan of each such facet.
The faces of each dimension are listed once, when first asked for, and kept;
a face of a facet's own size is that facet's tuple, so each maximal face is
held once. The vertex level is the sorted union of the facets, and a higher
level reads only the facets at least its size. Edges can also be counted
without listing them, one vertex at a time. The facets given are sorted as
they come and deduplicated as adjacent equals, so a facet list that arrives
sorted is sorted in one pass, and no hash set of all of them is built.

`Complex.collapse` takes one step shape against that index: a family step
(zs, xs, ys) removes at once every face of the facet zs + xs + ys that holds
zs and two or more vertices of xs; fixing y0 in ys and pairing each such
face t with t △ {y0} spells it out as elementary collapses, from the top
dimension down. The collapsed model Δ is built directly from its four facet
families (`build_delta`), and is reached from the neighborhood complex by
three stages of family steps (`delta_via_collapse`), which certifies that
the two are homotopy equivalent.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from math import comb
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import InvalidArgumentError, PreconditionError, ResourceLimitError
from .graphs import (Graph, Map, core_vertices, fold_core_exponential, map_label,
                     missing_value, neighborhood, variant)

__all__ = [
    "Complex",
    "neighborhood_complex",
    "delta_facet_families",
    "build_delta",
    "delta_via_collapse",
    "complex_to_json",
    "DEFAULT_MAX_FACES",
]

DEFAULT_MAX_FACES = 5_000_000

Face = Tuple[int, ...]


def _holders(index: Sequence[AbstractSet[int]], face: Sequence[int]) -> AbstractSet[int]:
    """A new set of the ids of the facets containing `face` (nonempty, in range).

    Each intersection iterates over its smaller operand, so beyond two
    vertices the sets go smallest first.
    """
    if len(face) <= 2:
        return index[face[0]] & index[face[-1]]
    sets = sorted([index[v] for v in face], key=len)
    return sets[0].intersection(*sets[1:])


def _empty_index(facets: Sequence[Face], n: int) -> List[AbstractSet[int]]:
    """An empty set for each vertex of some facet; the other vertices share one frozenset."""
    index: List[AbstractSet[int]] = [frozenset()] * n
    for v in sorted(set().union(*facets)):  # the union is freed before the sets are made
        index[v] = set()
    return index


def _facet_index(facets: Sequence[Face], n: int) -> List[AbstractSet[int]]:
    index = _empty_index(facets, n)
    for j, f in enumerate(facets):
        for v in f:
            index[v].add(j)
    return index


def _faces_of_dim(facets: Sequence[Face], dim: int) -> List[Face]:
    """The sorted set of the (dim + 1)-subsets of the facets.

    A facet of exactly dim + 1 vertices is listed as itself, the same tuple
    object, not rebuilt: no other facet holds it, so no equal subset competes.
    Dim 0 is the sorted union of the facets' vertices, one 1-tuple each; a
    one-vertex facet is its own. Above dim 0, facets shorter than dim + 1
    are skipped.
    """
    if dim == 0:
        own = {f[0]: f for f in facets if len(f) == 1}
        return [own.get(v) or (v,) for v in sorted(set().union(*facets))]
    size = dim + 1
    faces: Set[Face] = set()
    for facet in facets:
        if len(facet) > size:
            faces.update(itertools.combinations(facet, size))
        elif len(facet) == size:
            faces.add(facet)
    return sorted(faces)


class Complex:
    """A simplicial complex given by its facets (pairwise incomparable maximal faces)."""

    __slots__ = ("labels", "facets", "_index", "_sizes", "_levels")

    def __init__(self, labels: Sequence[str], facets: Iterable[Iterable[int]]):
        self.labels = tuple(labels)
        n = len(self.labels)
        canon: List[Face] = []  # in input order: a sorted facet list sorts in one pass
        for f in facets:
            t = tuple(sorted(set(f)))
            if not t:
                continue
            if t[0] < 0 or t[-1] >= n:
                raise InvalidArgumentError(f"facet {t} has a vertex out of range")
            canon.append(t)
        canon.sort()
        ordered = [t for t, _ in itertools.groupby(canon)]
        # A facet can lie only inside a strictly longer facet, so sizes go
        # longest first, and each size's kept facets join the index only once
        # that size is done: the longest are all kept, and any other facet is
        # checked against longer ones alone, kept at once if one of its
        # vertices is in none of them.
        sizes = list(map(len, ordered))
        index = _empty_index(ordered, n)
        kept: List[int] = []
        by_size = sorted(range(len(ordered)), key=sizes.__getitem__, reverse=True)
        for _, group in itertools.groupby(by_size, key=sizes.__getitem__):
            fresh = list(group)
            if kept:
                fresh = [j for j in fresh if not all(map(index.__getitem__, ordered[j]))
                         or not _holders(index, ordered[j])]
            for j in fresh:
                for v in ordered[j]:
                    index[v].add(j)
            kept += fresh
        if len(kept) == len(ordered):
            self.facets, self._index = tuple(ordered), index
        else:
            self.facets = tuple(ordered[j] for j in sorted(kept))
            self._index = _facet_index(self.facets, n)
        # (facet size, facet count), ascending by size: what dim and the face estimates read
        self._sizes = tuple(sorted(Counter(map(len, self.facets)).items()))
        self._levels: Dict[int, List[Face]] = {}  # dim -> its faces, once listed

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self._sizes[-1][0] - 1 if self._sizes else -1

    def cofacet_vertices(self, face: Sequence[int]) -> List[int]:
        """The vertices v not in `face` with face + (v,) a face, ascending.

        That is the union of the facets containing `face`, minus `face`: with
        one such facet, just its vertices outside `face`. It is empty when
        `face` is not a face.
        """
        if face and (min(face) < 0 or max(face) >= len(self.labels)):
            return []
        held = _holders(self._index, face) if face else range(len(self.facets))
        if len(held) == 1:
            (j,) = held
            verts = list(self.facets[j])
            for v in set(face):
                verts.remove(v)
            return verts
        verts: Set[int] = set()
        for j in held:
            verts.update(self.facets[j])
        return sorted(verts.difference(face))

    def least_cofacet_vertex(self, face: Face) -> Optional[int]:
        """The first of `cofacet_vertices(face)` without listing them; None if there is none.

        `face` is sorted, with its vertices in range. A facet holding `face`
        agrees with it up to the first position where the two differ, and
        its vertex there is its least vertex outside `face`. A lex-lesser
        holder differs no later and there has a vertex no larger, so only
        the lex-least holder is scanned: the least id, as `facets` is sorted.
        """
        held = _holders(self._index, face) if face else range(len(self.facets))
        if not held:
            return None
        f = self.facets[min(held)]
        i = 0
        while i < len(face) and f[i] == face[i]:
            i += 1
        return f[i] if i < len(f) else None

    def face_count_estimate(self, dim: int) -> int:
        """Upper bound (before dedup) on the number of faces of one dimension.

        It is the sum over facets of comb(len(facet), dim + 1), taken once per
        facet size.
        """
        return sum(m * comb(size, dim + 1) for size, m in self._sizes)

    def edge_count(self) -> int:
        """`len(faces_of_dim(1))`, counted without listing the edges.

        The edges {u, w} with u < w are, for each vertex u, the vertices past
        u in the facets holding u. Their union is taken one vertex at a time,
        so the count costs the face estimate of dimension 1 in set inserts
        and holds at most one vertex's neighbours.
        """
        count = 0
        for u, ids in enumerate(self._index):
            tails: Set[int] = set()
            for j in ids:
                f = self.facets[j]
                tails.update(f[bisect_left(f, u) + 1:])
            count += len(tails)
        return count

    def faces_of_dim(self, dim: int) -> List[Face]:
        """Every face of one dimension, each once, in lex order, listed once and kept.

        The face poset and the brute-force pass read this one list; callers must not change it.
        """
        level = self._levels.get(dim)
        if level is None:
            level = self._levels[dim] = _faces_of_dim(self.facets, dim)
        return level

    def iter_faces_of_dim(self, dim: int) -> Iterator[Face]:
        """`faces_of_dim(dim)`, one face at a time."""
        return iter(self.faces_of_dim(dim))

    def faces_by_dim(self) -> List[List[Face]]:
        """The lists `faces_of_dim` keeps, for dimensions 0..dim.

        Refused when the face estimates of those dimensions sum past
        DEFAULT_MAX_FACES; the sum stops at the first dimension that does.
        """
        for total in itertools.accumulate(map(self.face_count_estimate, range(self.dim + 1))):
            if total > DEFAULT_MAX_FACES:
                raise ResourceLimitError(
                    f"enumerating faces up to dim {self.dim} needs at least {total} "
                    f"steps (largest facet has {self.dim + 1} vertices), over the bound "
                    f"{DEFAULT_MAX_FACES}")
        return [self.faces_of_dim(d) for d in range(self.dim + 1)]

    def collapse(self, steps: Iterable[Sequence[Sequence[int]]]) -> "Complex":
        """Apply family steps (zs, xs, ys) in order, each checked against the complex as it stands.

        A step needs disjoint parts with |xs| >= 2 and ys nonempty,
        F = zs + xs + ys to be a facet, and no other facet to contain zs
        together with two vertices of xs. It removes every face of F that
        holds zs and two or more vertices of xs: F goes, and zs + {x} + ys for
        each x in xs, and F minus each z in zs, become facets unless a
        remaining facet already contains them. This is a sequence of
        elementary collapses: fix y0 in ys and pair each removed face t with
        t △ {y0}, which is removed too. Only F holds the removed faces, so,
        taken from the top dimension down, each pair (t - {y0}, t + {y0}) is
        an elementary collapse. Conversely, for a free face σ of F with
        |σ| >= 2 and a, b in σ, the elementary collapse (σ, F) is the step
        (σ - {a, b}, {a, b}, F - σ), with the same precondition, the same
        removed faces and the same new facets {F - s : s in σ}.
        """
        n = len(self.labels)
        table = dict(enumerate(self.facets))  # id -> facet, for the facets not removed yet
        fresh = itertools.count(len(table))
        # a vertex in no facet keeps the shared frozenset: new facets lie in removed ones
        index = [set(ids) if ids else ids for ids in self._index]
        for step in steps:
            if len(step) != 3:
                raise InvalidArgumentError(f"a collapse step is (zs, xs, ys), not {step}")
            zs, xs, ys = (tuple(sorted(set(part))) for part in step)
            facet = tuple(sorted(zs + xs + ys))
            if (len(set(facet)) < len(facet) or len(xs) < 2 or not ys
                    or facet[0] < 0 or facet[-1] >= n):
                raise InvalidArgumentError(
                    f"family step {zs}, {xs}, {ys} needs disjoint parts, two or more xs, "
                    "some ys and every vertex in range")
            found = _holders(index, facet)
            j = next(iter(found), None)
            if len(found) != 1 or table[j] != facet:
                raise PreconditionError(f"{facet} is not a facet")
            # F holds zs and each x; another facet holding zs and two xs is a repeated id
            hits = [_holders(index, zs + (x,)) for x in xs]
            if len(set().union(*hits)) + len(xs) - 1 < sum(map(len, hits)):
                raise PreconditionError(f"another facet holds {zs} with two of {xs}")
            del table[j]
            for v in facet:
                index[v].discard(j)
            for rest in ([tuple(sorted(zs + (x,) + ys)) for x in xs]
                         + [tuple(v for v in facet if v != z) for z in zs]):
                if not _holders(index, rest):
                    k = next(fresh)
                    table[k] = rest
                    for v in rest:
                        index[v].add(k)
        return Complex(self.labels, table.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Complex)
                and self.labels == other.labels and self.facets == other.facets)


def neighborhood_complex(G: Graph) -> Complex:
    """Facets are the maximal neighborhoods N(v); vertices with no neighbors drop out."""
    facets = []
    for v in range(G.vertex_count):
        nb = neighborhood(G, [v])
        if nb:
            facets.append(nb)
    return Complex(G.labels, facets)


def _core_index(n: int) -> Tuple[List[Map], Dict[Map, int]]:
    """The core of K_{n+1}^{K_n} as `core_vertices` lists it, and each map's id.

    The constant <x> has id x - 1, so ids 0..n are the constants and the
    ids from n + 1 on are the injective maps. Δ's families, the collapse
    cascade, the matching and its trichotomy check read ids this way: "is
    constant" is `id <= n`.
    """
    verts = core_vertices(n + 1, n)
    return verts, {f: i for i, f in enumerate(verts)}


def delta_facet_families(n: int) -> Dict[str, List[Face]]:
    """The four facet families of the collapsed model on the core of K_{n+1}^{K_n}.

    M1: {f, f_s, <x>} for injective f missing x and each position s.
    A1: {<1>, <y>, g} for 1 and y in the image of g, y != 1.
    A2: {<2>, <y>, g} for 2 and y in the image of g, 1 not in the image, y != 2.
    A3: every n-subset of the n+1 constants.
    """
    if n < 3:
        raise InvalidArgumentError("the collapsed model is defined for n >= 3")
    verts, index = _core_index(n)
    m1: List[Face] = []
    a1: List[Face] = []
    a2: List[Face] = []
    for i in range(n + 1, len(verts)):
        f = verts[i]
        x = missing_value(f, n + 1)
        for s in range(n):  # f is injective and misses x, so each slice is a variant
            j = index[f[:s] + (x,) + f[s + 1:]]
            m1.append((x - 1, i, j) if i < j else (x - 1, j, i))
        if 1 in f:
            a1 += [(0, y - 1, i) for y in sorted(f) if y != 1]
        else:
            a2 += [(1, y - 1, i) for y in sorted(f) if y != 2]
    a3 = [tuple(sorted(c)) for c in itertools.combinations(range(n + 1), n)]
    return {"M1": sorted(m1), "A1": sorted(a1), "A2": sorted(a2), "A3": sorted(a3)}


def build_delta(n: int, families: Optional[Dict[str, List[Face]]] = None) -> Complex:
    """The collapsed model itself, built directly from its facet families.

    `families` is `delta_facet_families(n)`, listed afresh unless given.
    """
    fams = delta_facet_families(n) if families is None else families
    labels = [map_label(f) for f in core_vertices(n + 1, n)]
    return Complex(labels, [f for fam in fams.values() for f in fam])


def _cascade(n: int) -> Iterator[Tuple[Sequence[int], Sequence[int], Sequence[int]]]:
    verts, index = _core_index(n)
    injective = range(n + 1, len(verts))
    for i in injective:
        f = verts[i]
        x = missing_value(f, n + 1)
        yield (), [index[variant(f, s, x)] for s in range(1, n + 1)], (i, x - 1)
    for y in range(1, n + 2):
        yield ((), [i for i in injective if y not in verts[i]],
               [z - 1 for z in range(1, n + 2) if z != y])
    for i in injective:
        f = verts[i]
        anchor = 1 if 1 in f else 2
        yield (i,), [y - 1 for y in sorted(f) if y != anchor], (anchor - 1,)


def delta_via_collapse(n: int) -> Complex:
    """Reach the collapsed model from the neighborhood complex by checked collapses.

    Each stage is one family step (zs, xs, ys) per facet family (see
    `Complex.collapse`); constants <y> are the vertices y - 1.
    Stage 1, per injective map f (vertex i) missing x: ((), the variants of
    f, (i, <x>)) takes the neighborhood facet to triangles through i and <x>.
    Stage 2, per constant <y>: ((), the injective maps missing y, the other
    constants) takes the constants-plus-injectives facet to one star per map.
    Stage 3, per injective map f (vertex i): ((i,), the constants on f's
    image but its anchor, (anchor,)), where the anchor is <1> when f covers
    1 and <2> otherwise, leaves the triangles on i, the anchor and one more
    constant. Every step is validated as a collapse against the complex as
    it stands, so this doubles as a proof trace.
    """
    if n < 3:
        raise InvalidArgumentError("the collapse cascade is defined for n >= 3")
    C = neighborhood_complex(fold_core_exponential(n + 1, n))
    return C.collapse(_cascade(n))


def complex_to_json(C: Complex) -> dict:
    return {
        "vertex_labels": list(C.labels),
        "facets": [list(f) for f in C.facets],
    }
