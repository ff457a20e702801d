"""Z2 linear algebra on bit-packed vectors, boundary matrices, Betti numbers.

Vectors are Python ints (bit i = coordinate i), and a matrix is its list of
columns, so adding one column to another is one big-int XOR. Rank is
incremental: vectors are reduced one at a time against a pivot basis keyed
by leading bit. Brute-force Betti numbers are ranked on the complex as
given: a reduction that keeps the homotopy type belongs where the complex
is built (a graph's folds before its neighborhood complex, a Hom poset's
beat points before its order complex). They read dims 0-1 off the
1-skeleton as a graph: rank ∂₁ is f₀ minus its components, counted by
union-find, and the edges that join two components are ∂₁'s pivots. Edges
are counted, not listed, unless their coboundary is reduced. Every boundary
above ∂₁, up to the one whose faces are never listed, is ranked through its
transpose, the coboundary, one level at a time: faces paired one level down
are skipped, the pivots found are the faces the next level skips. A
column's pivot is read off its face's least cofacet vertex, and the column
itself is built, from the face's sorted cofacet vertices, only where two
pivots collide. There it is a sum of sorted runs of codes (its own cofaces
and each column added to it), merged lazily: only the entries below the
next pivot are read. A column that finds a fresh pivot is stored as the set
XOR of the runs' unread tails, sorted, in one int64 array (a list of ints
where codes can pass int64); a column that never collided stays its face.

The top boundary ∂_{v+1}, whose faces are never listed, has a second
route: the boundaries of the cones on each facet's least vertex span it
(`_cone_rank`). It is taken when those cones number G_v <= f_v + rank ∂_v,
the faces of the top listed level plus the rank below it; the rule has no
tuning constant. Most cones meet a face no other kind of column holds,
which is then a pivot at once; only the rest are reduced, as bitsets over
the faces of their star chains.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, combinations, count, takewhile
from math import comb
from typing import (AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

from .complexes import DEFAULT_MAX_FACES, Complex, Face
from .errors import InvalidArgumentError, InvalidChainError, ResourceLimitError

__all__ = [
    "Gf2Matrix",
    "BettiTable",
    "rank_of_bitsets",
    "rank_gf2",
    "betti_bounded",
    "betti_of_chain",
]


class Gf2Matrix:
    """Dense matrix over GF(2); column j is an int whose bit i is the (i, j) entry."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, cols: Sequence[int], nrows: int):
        self.cols = list(cols)
        self.nrows = nrows
        self.ncols = len(self.cols)
        if nrows < 0:
            raise InvalidArgumentError("negative row count")
        for c in self.cols:
            if c >> nrows:
                raise InvalidArgumentError("column has bits beyond the row count")

    def column_weights(self) -> List[int]:
        return [c.bit_count() for c in self.cols]

    def matmul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.ncols != other.nrows:
            raise InvalidArgumentError("inner dimensions differ")
        cols = []
        for c in other.cols:
            acc = 0
            while c:
                acc ^= self.cols[(c & -c).bit_length() - 1]
                c &= c - 1
            cols.append(acc)
        return Gf2Matrix(cols, self.nrows)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def rank(self) -> int:
        return rank_of_bitsets(self.cols)


def _independent(vectors: Iterable[int]) -> Iterator[int]:
    """Indices of the vectors that are not in the span of the vectors before them.

    Each vector is reduced against a pivot basis keyed by leading bit; the
    ones that stay nonzero join the basis.
    """
    pivots: Dict[int, int] = {}
    for j, v in enumerate(vectors):
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                yield j
                break
            v ^= p


def _joins(edges: Iterable[Sequence[int]]) -> Iterator[int]:
    """Indices of the edges (a, b) that join two components of the edges before them.

    These are the edges whose ∂₁ columns `_independent` keeps, taken in the
    same order: greedy on the graphic matroid, a column is independent of
    those before it exactly when its edge closes no cycle. Components are
    kept by union-find with path halving; a vertex not yet met is a root.
    """
    parent: Dict[int, int] = {}

    def root(x: int) -> int:
        while True:
            p = parent.get(x, x)
            if p == x:
                return x
            parent[x] = x = parent.get(p, p)

    for j, (a, b) in enumerate(edges):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            yield j


def rank_of_bitsets(vectors: Iterable[int]) -> int:
    """Rank of the span of the given vectors, consumed one at a time."""
    return sum(1 for _ in _independent(vectors))


def rank_gf2(M: Gf2Matrix) -> int:
    return M.rank()


@dataclass(frozen=True)
class BettiTable:
    """Z2 Betti numbers for dimensions 0..max_verified_dim; nothing is claimed beyond."""

    betti: Tuple[int, ...]
    method: str
    max_verified_dim: int

    def __post_init__(self):
        if self.method not in ("bruteforce", "morse"):
            raise InvalidArgumentError(f"unknown method tag {self.method!r}")
        if len(self.betti) != self.max_verified_dim + 1:
            raise InvalidArgumentError("betti length and max_verified_dim disagree")

    def agrees_with(self, other: "BettiTable") -> bool:
        """Equality on every dimension both tables verify."""
        d = min(self.max_verified_dim, other.max_verified_dim)
        return self.betti[:d + 1] == other.betti[:d + 1]

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "betti": list(self.betti),
            "max_verified_dim": self.max_verified_dim,
        }


def betti_bounded(C: Complex, maxdim: int, max_faces: int = DEFAULT_MAX_FACES) -> BettiTable:
    """Brute-force Z2 Betti numbers of dimensions 0..maxdim, ranked on C as given.

    The verified dimension v is the largest d <= maxdim whose face estimates
    for dimensions 0..d+1 fit the budget. Dims 0-1 are read off the
    1-skeleton as a graph: f₀ is the number of vertices in some facet, and
    rank ∂₁ = f₀ - #components is the number of union-find joins (`_joins`),
    also at v = 0, where ∂₁ is the top. Edges are listed only where their
    coboundary is reduced (from v = 2 up, or at v = 1 on the coboundary
    route); they are joined in lex order there, and the joining edges, the
    pivots a lex-order reduction of ∂₁ finds, are the faces level 1 skips.
    Elsewhere each facet's vertices are joined to its first, and f₁ is
    counted (`Complex.edge_count`). Vertices are never listed; faces of
    dimensions 2..v always are. Every boundary above ∂₁, up to ∂_{v+1} whose
    faces are never listed, is ranked through its transpose
    (`_reduce_coboundary`), one level at a time: each level skips the faces
    paired one level below, and its pivots are the faces the next level
    skips. ∂_{v+1} is ranked from facet cones instead (`_cone_rank`) when
    their count G_v (a facet F gives C(|F| - 1, v + 1)) is at most
    f_v + rank ∂_v: the f_v faces of dimension v, plus the rank ∂_v of those
    the coboundary route skips. Neither route lists a face of dimension
    v + 1. Dimensions above `C.dim` cost nothing and have Betti number 0,
    but a maxdim above the budget itself is refused.
    """
    if maxdim < 0:
        raise InvalidArgumentError("maxdim must be nonnegative")
    top = min(maxdim, C.dim)  # the last dimension that can have faces
    # spent[d]: estimated faces of dims 0..d, up to the last sum within the budget
    spent = list(takewhile(lambda s: s <= max_faces,
                           accumulate(map(C.face_count_estimate, range(top + 2)))))
    if not spent:
        raise ResourceLimitError(
            f"cannot enumerate even the vertices within the budget {max_faces}")
    v = len(spent) - 2 if len(spent) < top + 2 else maxdim
    if v < 0:
        raise ResourceLimitError(
            f"face budget {max_faces} too small to verify any dimension")
    if v > max_faces:  # then v = maxdim > C.dim: a table of zeros longer than the budget
        raise ResourceLimitError(
            f"max dim {maxdim} is over the face budget {max_faces}")
    dims = min(v, C.dim) + 1  # the dimensions 0..v that have faces
    # the last level whose coboundary is ranked: the top only if the dimension above has faces
    last = dims - 1 if C.dim > v else dims - 2
    # dims 0..v fit the budget: counting and listing need no check here
    sizes = [len(set().union(*C.facets))]  # sizes[d] = f_d
    ranks = [0] * (dims + 2)  # ranks[d] = rank ∂_d
    if dims > 2:  # the edges' coboundary is reduced: they are listed, as are the levels above
        sizes += [len(C.faces_of_dim(d)) for d in range(1, dims)]
    else:  # rank ∂₁ = f₀ - #components, joining each facet's vertices to its first
        ranks[1] = sum(1 for _ in _joins((F[0], x) for F in C.facets for x in F[1:]))
        if dims == 2:
            sizes.append(C.edge_count())
    paired: Set[int] = set()  # codes of level k's faces paired one level down
    for k in range(1, last + 1):  # ∂_{k+1}
        # k is v only at the streamed top: cones there if G_v <= f_v + rank ∂_v
        if k == v and (sum(comb(len(F) - 1, v + 1) for F in C.facets)
                       <= sizes[v] + ranks[v]):
            ranks[v + 1] = _cone_rank(C, v)
            break
        faces = C.faces_of_dim(k)
        if k == 1:  # the edges that join two components, in lex order, are ∂₁'s pivots
            paired = {faces[j][0] * C.vertex_count + faces[j][1] for j in _joins(faces)}
            ranks[1] = len(paired)
        pivots = _reduce_coboundary(C, faces, paired)
        ranks[k + 1] = len(pivots)
        if k < last:  # the next level's skip set; the top needs none
            paired = set(pivots)

    betti = tuple(sizes[k] - ranks[k] - ranks[k + 1] for k in range(dims))
    return BettiTable(betti + (0,) * (v + 1 - dims), "bruteforce", v)


def _reduce_coboundary(C: Complex, faces: List[Face],
                       skip: AbstractSet[int]
                       ) -> Dict[int, Union[Face, array[int], List[int]]]:
    """The reduced coboundary on `faces` (every face of one dimension, in lex order).

    Returns the nonzero reduced columns keyed by their pivots, so its size is
    the rank of the boundary one dimension up and its keys are the codes of
    the faces there paired with these. A face's code reads its vertices as
    base-V digits, so codes order faces as lex order does. Columns are
    reduced in reverse lex order with the lex-least cofacet as pivot;
    homology and cohomology then pair the same faces (de Silva, Morozov &
    Vejdemo-Johansson, 2011), so a face whose code is in `skip` (one paired
    one level down) has a coboundary column that reduces to zero and is
    skipped (clearing; Chen & Kerber, 2011). As in Bauer's Ripser (2021), a
    column whose pivot is unclaimed is kept as its face alone: the pivot is
    face + (v,) for the least cofacet vertex v, coded by inserting the digit
    v where it sorts.

    It serves every listed level, and the streamed top unless `betti_bounded`
    ranks that from facet cones.

    Only a column whose pivot collides is built. It is held as a sum of
    runs: sorted, duplicate-free code lists read from the front, the face's
    own cofaces first and then each column added to it, past the pivot they
    share. The runs stay sorted by their heads, so the next pivot is the
    least head held by an odd number of runs, and only the entries below it,
    which cancel in pairs, are read. A held column kept as its face is
    rebuilt from its cofaces each time, never stored. On a fresh pivot the
    column is stored as the pivot followed by the sorted set XOR of the
    runs' unread tails: each run holds a code at most once, so the XOR
    leaves exactly the codes of odd multiplicity. It is stored as an int64
    `array` (8 bytes a code, not a list's 36 or so), or as a list of ints
    when codes of this level can pass int64 (base ** (k + 1) > 2 ** 63).
    """
    base, k = C.vertex_count, len(faces[0])
    powers = [base ** i for i in range(k + 1)]
    least = C.least_cofacet_vertex
    # every coface code is below base ** (k + 1); int64 holds them up to 2**63 - 1
    store = partial(array, "q") if base ** (k + 1) <= 2 ** 63 else list

    def code(face: Face) -> int:
        c = 0
        for x in face:
            c = c * base + x
        return c

    def cofaces(face: Face, c: int) -> List[int]:
        """Codes of face + (v,) for the cofacet vertices v, ascending; c is face's code.

        The vertices between face[p-1] and face[p] become digit p, so each
        such stretch maps to codes a + v*w for one a and w, above the stretch
        before; the vertices above the face become the last digit (w = 1).
        """
        verts = C.cofacet_vertices(face)
        out: List[int] = []
        lo = 0
        for p in range(k):
            hi = bisect_left(verts, face[p], lo)
            if hi > lo:
                w = powers[k - p]
                a = c // w * base * w + c % w
                out += [a + v * w for v in verts[lo:hi]]
                lo = hi
        a = c * base
        out += [a + v for v in verts[lo:]]
        return out

    owner: Dict[int, Union[Face, array[int], List[int]]] = {}  # pivot -> face or column
    for face in reversed(faces):
        c = code(face)
        if c in skip:
            continue
        v = least(face)
        if v is None:
            continue
        w = powers[k - bisect_left(face, v)]
        pivot = c // w * base * w + v * w + c % w
        held = owner.get(pivot)
        if held is None:
            owner[pivot] = face
            continue
        # (head, tag, rest) sorted by head; distinct tags keep the iterators uncompared
        runs: List[Tuple[int, int, Iterator[int]]] = []
        _add_run(runs, cofaces(face, c), 0)
        for tag in count(1):
            _add_run(runs, cofaces(held, code(held)) if isinstance(held, tuple) else held, tag)
            pivot = _next_pivot(runs)
            if pivot is None:
                break
            held = owner.get(pivot)
            if held is None:
                tails: Set[int] = set()
                for head, _, rest in runs:
                    tails ^= {head, *rest}
                owner[pivot] = store([pivot] + sorted(tails))
                break
    return owner


def _cone_rank(C: Complex, v: int) -> int:
    """The rank of ∂_{v+1}, from the boundaries of the cones on each facet's least vertex.

    For a facet F with least vertex a, the cones a ∪ τ over the
    (v + 1)-subsets τ of F - a span the boundary of every (v + 1)-face of F:
    a face ρ missing a has ∂ρ = Σᵢ ∂(a ∪ ρᵢ), as ∂∂(a ∪ ρ) = 0. A cone's
    boundary is τ plus its star chain, the faces a ∪ σ for the v-faces σ of
    τ; the faces a ∪ σ of facets are the star faces. A τ that is no star
    face is held by cone columns alone, so the first cone at it takes it as
    a pivot, and each later one, with another apex, adds the XOR of the two
    star chains (one with the same apex is the same face). Those vectors
    and the cones whose τ is a star face are reduced as bitsets, one bit
    for each star face they hold, numbered as first met. Cones are taken in
    batches by the least vertex x of τ: the facets holding x past their
    least vertex give the cones, those starting at x the star faces, and
    the first apex of each τ is kept only while its batch is taken.
    """
    reaching: Dict[int, List[Face]] = defaultdict(list)  # x -> facets whose cones reach x
    starting: Dict[int, List[Face]] = defaultdict(list)  # x -> facets whose least vertex is x
    for F in C.facets:
        if len(F) > v + 1:
            starting[F[0]].append(F)
            for x in F[1:]:
                reaching[x].append(F)
    free = 0  # the τ that are no star face: one pivot each

    def vectors() -> Iterator[List[Face]]:
        """The star faces of each vector to reduce, distinct, so their bits sum to it."""
        nonlocal free
        for x in sorted(reaching):  # the faces τ with least vertex x
            stars = {(x,) + s for F in starting[x] for s in combinations(F[1:], v)}
            first: Dict[Face, int] = {}  # τ -> the apex of its first cone, for τ not in stars
            for F in reaching[x]:
                a = F[0]
                for s in combinations(F[bisect_left(F, x) + 1:], v):
                    t = (x,) + s
                    if t in stars:
                        yield [t] + [(a,) + r for r in combinations(t, v)]
                    elif first.setdefault(t, a) != a:
                        yield [(b,) + r for b in (a, first[t]) for r in combinations(t, v)]
            free += len(first)

    bits: Dict[Face, int] = {}  # star face -> its bit's index, numbered as first met
    rank = rank_of_bitsets(sum(1 << bits.setdefault(f, len(bits)) for f in faces)
                           for faces in vectors())
    return rank + free  # free is counted once vectors() is consumed


def _add_run(runs: List[Tuple[int, int, Iterator[int]]], column: Sequence[int],
             tag: int) -> None:
    """Add a column to the sum, past its pivot, which the sum has just cancelled."""
    rest = iter(column)
    next(rest)
    head = next(rest, None)
    if head is not None:
        insort(runs, (head, tag, rest))


def _next_pivot(runs: List[Tuple[int, int, Iterator[int]]]) -> Optional[int]:
    """Read past the least head held by an odd number of runs, and return it.

    `runs` is sorted by head; the heads below it are held by an even number
    of runs, cancel in pairs and are read past too. None when every run is
    exhausted.
    """
    while runs:
        least = runs[0][0]
        odd = False
        while runs and runs[0][0] == least:
            _, tag, rest = runs.pop(0)
            head = next(rest, None)
            if head is not None:
                insort(runs, (head, tag, rest))
            odd = not odd
        if odd:
            return least
    return None


def betti_of_chain(boundaries: Sequence[Gf2Matrix]) -> BettiTable:
    """Betti numbers of a finite chain complex given by its boundary matrices.

    boundaries[d-1] maps chains of dimension d to dimension d-1. Shapes must
    chain together and consecutive products must vanish. Dimensions above the
    last nonzero chain group are dropped.
    """
    if not boundaries:
        raise InvalidArgumentError("need at least one boundary matrix")
    for a, b in zip(boundaries, boundaries[1:]):
        if b.nrows != a.ncols:
            raise InvalidChainError(
                f"shape mismatch: {a.nrows}x{a.ncols} followed by {b.nrows}x{b.ncols}")
        if not a.matmul(b).is_zero():
            raise InvalidChainError("consecutive boundaries do not compose to zero")
    dims = [boundaries[0].nrows] + [b.ncols for b in boundaries]
    top = max(d for d, c in enumerate(dims) if c > 0) if any(dims) else 0
    ranks = [0] * (len(dims) + 1)
    for k, b in enumerate(boundaries, start=1):
        ranks[k] = b.rank()
    betti = tuple(dims[d] - ranks[d] - ranks[d + 1] for d in range(top + 1))
    if any(b < 0 for b in betti):
        raise InvalidChainError("negative Betti number; chain data is inconsistent")
    return BettiTable(betti, "morse", top)

