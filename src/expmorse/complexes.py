"""Simplicial complexes in facet form, free-face collapses, and the collapsed model.

Faces are sorted tuples of vertex indices. A complex stores only its maximal
faces; membership queries go through per-vertex facet bitmasks, and a
collapse keeps a per-vertex set of the facets it has not yet removed.
"""
from __future__ import annotations

import itertools
import logging
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import InvalidArgumentError, PreconditionError, ResourceLimitError
from .graphs import Graph, FnVertex, core_vertices, fold_core_exponential, neighborhood, variant

__all__ = [
    "Complex",
    "neighborhood_complex",
    "delta_facet_families",
    "build_delta",
    "delta_via_collapse",
    "complex_to_json",
    "DEFAULT_MAX_FACES",
]

log = logging.getLogger(__name__)

DEFAULT_MAX_FACES = 5_000_000

Face = Tuple[int, ...]


class Complex:
    """A simplicial complex given by its facets (pairwise incomparable maximal faces)."""

    __slots__ = ("labels", "facets", "_vmask")

    def __init__(self, labels: Sequence[str], facets: Iterable[Iterable[int]]):
        self.labels = tuple(labels)
        n = len(self.labels)
        canon = set()
        for f in facets:
            t = tuple(sorted(set(f)))
            if not t:
                continue
            if t[0] < 0 or t[-1] >= n:
                raise InvalidArgumentError(f"facet {t} has a vertex out of range")
            canon.add(t)
        ordered = sorted(canon)
        vmask = [0] * n
        for j, f in enumerate(ordered):
            for v in f:
                vmask[v] |= 1 << j
        keep = []
        for j, f in enumerate(ordered):
            m = vmask[f[0]]
            for v in f[1:]:
                m &= vmask[v]
            if m == (1 << j):
                keep.append(f)
        self.facets = tuple(keep)
        self._vmask = [0] * n
        for j, f in enumerate(self.facets):
            for v in f:
                self._vmask[v] |= 1 << j

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def contains(self, face: Sequence[int]) -> bool:
        face = tuple(sorted(set(face)))
        if not face:
            return True
        if face[0] < 0 or face[-1] >= len(self.labels):
            return False
        m = self._vmask[face[0]]
        for v in face[1:]:
            m &= self._vmask[v]
        return m != 0

    def face_count_estimate(self, dim: int) -> int:
        """Upper bound (before dedup) on the number of faces of one dimension."""
        return sum(comb(len(f), dim + 1) for f in self.facets)

    def iter_faces_of_dim(self, dim: int) -> Iterator[Face]:
        """All faces of one dimension, each yielded once (owned by its first facet)."""
        k = dim + 1
        for j, facet in enumerate(self.facets):
            if len(facet) < k:
                continue
            jb = 1 << j
            vmask = self._vmask
            for face in itertools.combinations(facet, k):
                m = vmask[face[0]]
                for v in face[1:]:
                    m &= vmask[v]
                if m & (jb - 1) == 0:
                    yield face

    def faces_by_dim(self, maxdim: int, max_faces: int = DEFAULT_MAX_FACES) -> List[List[Face]]:
        """Faces of each dimension 0..maxdim, lexicographically sorted per dimension."""
        total = sum(self.face_count_estimate(d) for d in range(maxdim + 1))
        if total > max_faces:
            big = max((len(f) for f in self.facets), default=0)
            raise ResourceLimitError(
                f"enumerating faces up to dim {maxdim} needs ~{total} steps "
                f"(largest facet has {big} vertices), over the bound {max_faces}",
                bound=max_faces)
        out = []
        for d in range(maxdim + 1):
            faces = sorted(self.iter_faces_of_dim(d))
            log.debug("dim %d: %d faces", d, len(faces))
            out.append(faces)
        return out

    def collapse(self, steps: Iterable[Tuple[Sequence[int], Optional[Sequence[int]]]]
                 ) -> "Complex":
        """Apply elementary collapses in order; each is checked against the complex as it stands.

        A step (face, facet) needs `face` to be a proper nonempty subset of
        `facet` and `facet` to be the only facet containing `face`; a facet
        of None means "the only facet containing face". The step removes the
        interval between them: `facet` goes, and `facet` minus each vertex of
        `face` becomes a facet unless a remaining facet already contains it.
        """
        n = len(self.labels)
        owners: List[Set[Face]] = [set() for _ in range(n)]
        for f in self.facets:
            for v in f:
                owners[v].add(f)

        def holders(face: Sequence[int]) -> Set[Face]:
            sets = sorted((owners[v] for v in face), key=len)
            return sets[0].intersection(*sets[1:])

        for face, facet in steps:
            face = tuple(sorted(set(face)))
            if not face or face[0] < 0 or face[-1] >= n:
                raise InvalidArgumentError(f"face {face} is empty or has a vertex out of range")
            found = holders(face)
            if facet is None:
                if len(found) != 1:
                    raise PreconditionError(
                        f"face {face} should have a unique facet, found {len(found)}")
                facet = next(iter(found))
            facet = tuple(sorted(set(facet)))
            if not set(face) < set(facet):
                raise InvalidArgumentError(f"{face} is not a proper nonempty subset of {facet}")
            if found != {facet}:
                raise PreconditionError(f"{face} is not a free face of {facet}")
            for v in facet:
                owners[v].discard(facet)
            for s in face:
                rest = tuple(v for v in facet if v != s)
                if not holders(rest):
                    for v in rest:
                        owners[v].add(rest)
        return Complex(self.labels, {f for fs in owners for f in fs})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Complex)
                and self.labels == other.labels and self.facets == other.facets)

    def __hash__(self):
        return hash((self.labels, self.facets))

    def __repr__(self) -> str:
        return f"Complex({len(self.labels)} vertices, {len(self.facets)} facets, dim {self.dim})"


def neighborhood_complex(G: Graph) -> Complex:
    """Facets are the maximal neighborhoods N(v); vertices with no neighbors drop out."""
    facets = []
    for v in range(G.vertex_count):
        nb = neighborhood(G, [v])
        if nb:
            facets.append(nb)
    return Complex(G.labels, facets)


def _core_index(n: int) -> Tuple[List[FnVertex], Dict[Tuple[int, ...], int]]:
    verts = core_vertices(n + 1, n)
    return verts, {v.values: i for i, v in enumerate(verts)}


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
    for i, f in enumerate(verts):
        if not (f.is_injective and not f.is_constant):
            continue
        x = f.missing_values(n + 1)[0]
        for s in range(1, n + 1):
            fs = index[variant(f, s, x).values]
            m1.append(tuple(sorted((i, fs, x - 1))))
        im = f.image
        if 1 in im:
            for y in sorted(im - {1}):
                a1.append(tuple(sorted((0, y - 1, i))))
        else:
            for y in sorted(im - {2}):
                a2.append(tuple(sorted((1, y - 1, i))))
    a3 = [tuple(sorted(c)) for c in itertools.combinations(range(n + 1), n)]
    return {"M1": sorted(m1), "A1": sorted(a1), "A2": sorted(a2), "A3": sorted(a3)}


def build_delta(n: int) -> Complex:
    """The collapsed model itself, built directly from its facet families."""
    fams = delta_facet_families(n)
    labels = [v.label() for v in core_vertices(n + 1, n)]
    return Complex(labels, [f for fam in fams.values() for f in fam])


def _free_family_steps(xs: Sequence[int], ys: Sequence[int]) -> Iterator[Tuple[Face, Face]]:
    """Collapse steps taking the facet xs+ys down to the stars {x}+ys, one x at a time.

    Each pair {x_i, x_j} is named with the intermediate facet that the
    collapse order predicts contains it, so the step checks freeness in
    that facet.
    """
    facet = sorted(list(xs) + list(ys))
    for i in range(len(xs) - 1):
        base = [v for v in facet if v not in xs[:i]]
        for j in range(i + 1, len(xs)):
            gone = set(xs[i + 1:j])
            yield (xs[i], xs[j]), tuple(v for v in base if v not in gone)


def _cascade_steps(n: int) -> Iterator[Tuple[Face, Optional[Face]]]:
    verts, index = _core_index(n)
    for i, f in enumerate(verts):
        if not (f.is_injective and not f.is_constant):
            continue
        x = f.missing_values(n + 1)[0]
        xs = sorted(index[variant(f, s, x).values] for s in range(1, n + 1))
        yield from _free_family_steps(xs, [i, x - 1])
    for y in range(1, n + 2):
        xs = [i for i, f in enumerate(verts)
              if f.is_injective and not f.is_constant and y not in f.image]
        yield from _free_family_steps(xs, [z - 1 for z in range(1, n + 2) if z != y])
    for i, f in enumerate(verts):
        if not (f.is_injective and not f.is_constant):
            continue
        anchor = 1 if 1 in f.image else 2
        rest = [y for y in sorted(f.image) if y != anchor]
        for a in range(len(rest) - 1):
            for b in range(a + 1, len(rest)):
                yield (rest[a] - 1, rest[b] - 1, i), None


def delta_via_collapse(n: int) -> Complex:
    """Reach the collapsed model from the neighborhood complex by checked collapses.

    Stage 1 collapses each neighborhood facet to triangles through its center.
    Stage 2 collapses each constants-plus-injective facet onto its anchor
    constant (<1> when the injective map covers 1, else <2>). Stage 3 removes
    the remaining triangles on two non-anchor values of an injective map,
    each through its only facet. Every step is validated as an elementary
    collapse, so this doubles as a proof trace.
    """
    if n < 3:
        raise InvalidArgumentError("the collapse cascade is defined for n >= 3")
    C = neighborhood_complex(fold_core_exponential(n + 1, n))
    return C.collapse(_cascade_steps(n))


def complex_to_json(C: Complex) -> dict:
    return {
        "vertex_labels": list(C.labels),
        "facets": [list(f) for f in C.facets],
    }
