"""Discrete Morse machinery: cell posets, matchings, critical cells, path parities.

A cell poset owns its face rule: `FacePoset.dim_of` and `FacePoset.facets`
give a cell's dimension and the cells one dimension down that it covers.
Every function here reads that rule from the poset, so the same engine runs
on a simplicial complex's faces and on any other poset that overrides the
two methods, such as `homc.HomPoset`. A matching is a plain dict, lower
cell -> upper cell, pairing a cell with a cofacet; acyclic matchings induce
a chain complex on the critical cells whose boundary entries count
alternating descent paths mod 2. A DescentCache holds the one memoized walk
of a matching's descent relation: the acyclicity certificate, the boundary
supports and the cells on alternating paths all read that one memo. The
memo keeps a value for each lower and critical cell the walk has met; an
upper cell's value, always empty, is never stored, and only lower cells
are expanded, each against its partner's lower and critical facets.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .complexes import Complex, Face
from .errors import InternalConsistencyError
from .gf2 import Gf2Matrix

__all__ = [
    "FacePoset",
    "CriticalSet",
    "AcyclicityResult",
    "face_poset",
    "validate_matching",
    "is_acyclic",
    "critical_cells",
    "DescentCache",
    "path_cells",
    "morse_boundaries",
]


class FacePoset:
    """All nonempty faces of a complex, grouped by dimension, each level in lex order.

    The poset owns its face rule. Here a cell is a sorted vertex tuple of
    dimension one less than its size, and its facets are its one-vertex
    deletions; a subclass whose cells are something else overrides both
    `dim_of` and `facets`.
    """

    __slots__ = ("cells_by_dim",)

    def __init__(self, cells_by_dim: Sequence[Sequence[Face]]):
        self.cells_by_dim = tuple(cells_by_dim)

    @property
    def dim(self) -> int:
        return len(self.cells_by_dim) - 1

    @property
    def size(self) -> int:
        return sum(map(len, self.cells_by_dim))

    @staticmethod
    def dim_of(cell: Face) -> int:
        return len(cell) - 1

    @staticmethod
    def facets(cell: Face) -> List[Face]:
        """The cells one dimension down that `cell` covers."""
        return [cell[:t] + cell[t + 1:] for t in range(len(cell))]

    def lookup(self, cell: Face) -> Optional[Face]:
        """The stored cell equal to `cell`, found by bisecting its dimension's sorted level.

        None when there is none. A caller that keeps the result holds the
        poset's own object, not a second copy of the cell.
        """
        d = self.dim_of(cell)
        if not 0 <= d < len(self.cells_by_dim):
            return None
        level = self.cells_by_dim[d]
        i = bisect_left(level, cell)
        return level[i] if i < len(level) and level[i] == cell else None

    def __contains__(self, cell: Face) -> bool:
        return self.lookup(cell) is not None

    def cells(self, d: int) -> Sequence[Face]:
        return self.cells_by_dim[d] if 0 <= d <= self.dim else ()


def face_poset(C: Complex) -> FacePoset:
    """Every face of the complex, its own kept face lists, under `faces_by_dim`'s face budget."""
    return FacePoset(C.faces_by_dim())


def _not_in(P: FacePoset, cells: Iterable[Face]) -> Set[Face]:
    """The given cells that are not cells of P.

    The cells are grouped by dimension and each group, sorted, is walked
    once against that dimension's sorted level.
    """
    groups: Dict[int, List[Face]] = {}
    for c in cells:
        groups.setdefault(P.dim_of(c), []).append(c)
    out: Set[Face] = set()
    for d, group in groups.items():
        level = P.cells(d)
        i, end = 0, len(level)
        for c in sorted(group):
            while i < end and level[i] < c:
                i += 1
            if i == end or level[i] != c:
                out.add(c)
    return out


def validate_matching(P: FacePoset, pairs: Dict[Face, Face]) -> List[str]:
    """All structural violations of the matching `pairs` (lower -> upper), as messages.

    Empty means the matching is valid. A pair is a cover relation when its
    upper cell is a cell of P and its lower cell is one of that cell's
    facets under P's face rule, which is applied to cells of P only.
    """
    bad = []
    absent = _not_in(P, [*pairs, *pairs.values()])
    seen_upper: Set[Face] = set()
    for low, up in pairs.items():
        if low in absent:
            bad.append(f"{low} is not a cell of the poset")
        if up in absent:
            bad.append(f"{up} is not a cell of the poset")
        if up in absent or low not in P.facets(up):
            bad.append(f"{low} -> {up} is not a cover relation")
        if up in seen_upper:
            bad.append(f"{up} is the upper cell of two pairs")
        seen_upper.add(up)
    overlap = set(pairs) & seen_upper
    for cell in sorted(overlap):
        bad.append(f"{cell} appears on both sides of the matching")
    return bad


@dataclass(frozen=True)
class AcyclicityResult:
    acyclic: bool
    cycle: Optional[Tuple[Face, ...]] = None


@dataclass(frozen=True)
class CriticalSet:
    """Unmatched cells per dimension, each level in lexicographic order."""

    by_dim: Tuple[Tuple[Face, ...], ...]

    @property
    def counts(self) -> Tuple[int, ...]:
        return tuple(len(level) for level in self.by_dim)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def cells(self, d: int) -> Tuple[Face, ...]:
        return self.by_dim[d] if 0 <= d < len(self.by_dim) else ()


def critical_cells(P: FacePoset, cache: DescentCache) -> CriticalSet:
    """The cells of P on neither side of the matching whose descent `cache` holds."""
    pairs, upper = cache.pairs, cache.upper
    return CriticalSet(tuple(
        tuple(c for c in P.cells(d) if c not in pairs and c not in upper)
        for d in range(P.dim + 1)))


_EMPTY: FrozenSet[Face] = frozenset()


def _xor(supports: Iterable[FrozenSet[Face]], memo: Dict[Face, FrozenSet[Face]]
         ) -> FrozenSet[Face]:
    """The XOR of the supports: `_EMPTY` if empty, c's own entry in `memo` if {c}."""
    acc: Set[Face] = set()
    for s in supports:
        acc ^= s
    if len(acc) > 1:
        return frozenset(acc)
    return memo[acc.pop()] if acc else _EMPTY


class DescentCache:
    """The descent of one matching on a poset, walked once and memoized.

    `pairs` maps each matched lower cell to its upper cell; an upper cell
    named twice raises InternalConsistencyError. The descent reads the
    poset's face rule.

    For a cell x, sets(x) is the set of critical cells of the same dimension
    reachable from x by descent with odd path count: a critical cell reaches
    itself, an upper cell nothing, and a matched lower cell x the XOR over
    the other facets of its partner. A cell is productive when some descent
    from it ends in a critical cell, odd count or not: when its set is
    nonempty, or when each critical cell it reaches is reached an even
    number of times, which the same walk records. The boundary support of a
    critical cell is the XOR of its facets' sets, which includes the direct
    facet case, and is memoized too. Values are shared where they can be: one
    empty set for every empty value, and a critical cell's own entry {c} for
    every value that is {c}.

    The memo holds each lower cell walked and each critical cell met, whose
    {c} is made once. An upper cell is never a key: its value, the shared
    empty set, is read off `upper`. `pairs` is asked first, so a cell on
    both sides of an invalid matching is a lower cell.

    Only a lower cell is expanded, and of its kids, the other facets of its
    partner, it keeps the lower and critical cells: an upper kid adds
    nothing to the XOR and is never cancelled. The walk is iterative, so
    path length is not bounded by the recursion limit: a cell whose kids
    are all in the memo is settled at once, and one with a kid missing
    waits on the path as a (cell, kids) frame while the walk descends into
    that kid. Meeting a cell on the path again closes a cycle, so the
    matching is cyclic; the InternalConsistencyError raised then carries
    the alternating cycle (lower, upper, ..., the first lower again) as its
    `cycle` attribute.
    """

    def __init__(self, P: FacePoset, pairs: Dict[Face, Face]):
        self.poset = P
        self.pairs = pairs
        self.upper: Dict[Face, Face] = {}
        for low, up in pairs.items():
            if up in self.upper:
                raise InternalConsistencyError(f"cell {up} is matched twice")
            self.upper[up] = low
        self._memo: Dict[Face, FrozenSet[Face]] = {}
        self._supports: Dict[Face, FrozenSet[Face]] = {}
        self._cancelled: Set[Face] = set()  # productive cells with an empty set

    def sets(self, cell: Face) -> FrozenSet[Face]:
        memo = self._memo
        s = memo.get(cell)
        if s is not None:
            return s
        pairs, upper = self.pairs, self.upper
        if cell not in pairs:
            if cell in upper:
                return _EMPTY
            s = memo[cell] = frozenset((cell,))
            return s
        cancelled, facets = self._cancelled, self.poset.facets
        path: List[Tuple[Face, List[Face]]] = []  # the frames below top, each waiting on a kid
        depth: Dict[Face, int] = {}  # lower cell -> its frame on the path
        top: Face = cell  # a lower cell not in memo
        kids: Optional[List[Face]] = None  # top's lower and critical kids, once listed
        while True:
            if kids is None:
                kids = []
                for y in facets(pairs[top]):
                    if y in pairs:
                        if y != top:
                            kids.append(y)
                    elif y not in upper:
                        if y not in memo:
                            memo[y] = frozenset((y,))
                        kids.append(y)
            for x in kids:
                if x not in memo:
                    break
            else:
                if kids:
                    memo[top] = s = _xor((memo[y] for y in kids), memo)
                    if not s and any(memo[y] or y in cancelled for y in kids):
                        cancelled.add(top)
                else:
                    memo[top] = s = _EMPTY
                if not path:
                    return s
                top, kids = path.pop()
                del depth[top]
                continue
            depth[top] = len(path)
            path.append((top, kids))
            if x in depth:
                err = InternalConsistencyError(
                    f"descent from {x} depends on itself; matching is cyclic")
                loop = [z for z, _ in path[depth[x]:]]
                err.cycle = tuple(c for z in loop for c in (z, pairs[z])) + (x,)
                raise err
            top, kids = x, None

    def productive(self, cell: Face) -> bool:
        return bool(self.sets(cell)) or cell in self._cancelled

    def boundary_support(self, tau: Face) -> FrozenSet[Face]:
        s = self._supports.get(tau)
        if s is None:
            facets = self.poset.facets(tau)
            s = self._supports[tau] = _xor((self.sets(y) for y in facets), self._memo)
        return s


def is_acyclic(cache: DescentCache) -> AcyclicityResult:
    """Check the matched digraph (up along pairs, down to other facets) for cycles.

    A directed cycle must alternate up and down moves through matched pairs,
    so it suffices to walk the descent relation from every matched lower
    cell. On failure the full alternating cell cycle is returned.
    """
    try:
        for x in cache.pairs:
            cache.sets(x)
    except InternalConsistencyError as exc:
        return AcyclicityResult(False, exc.cycle)
    return AcyclicityResult(True, None)


def path_cells(cache: DescentCache, starts: Sequence[Face]) -> Set[Face]:
    """Every cell visited by some complete alternating path out of `starts`.

    Only productive branches lie on actual paths. Requires an acyclic
    matching.
    """
    pairs, productive, facets = cache.pairs, cache.productive, cache.poset.facets
    seen: Set[Face] = set(starts)
    agenda = [y for tau in starts for y in facets(tau) if productive(y)]
    while agenda:
        x = agenda.pop()
        if x in seen:
            continue
        seen.add(x)
        up = pairs.get(x)
        if up is None:
            continue
        seen.add(up)
        agenda.extend(y for y in facets(up) if y != x and productive(y))
    return seen


def morse_boundaries(crit: CriticalSet, cache: DescentCache) -> List[Gf2Matrix]:
    """Boundary matrices of the critical-cell chain complex, dimensions 1..top.

    Rows and columns follow the critical-cell order (by dimension, then
    lexicographic). Dimensions with no critical cells yield zero-sized
    matrices so the chain stays index-aligned; ∂₁ is always there, so k
    critical 0-cells alone give a k×0 ∂₁ and Betti numbers (k,).
    """
    top = max((d for d, c in enumerate(crit.counts) if c), default=0)
    mats = []
    for d in range(1, max(top, 1) + 1):
        lows = crit.cells(d - 1)
        idx = {c: i for i, c in enumerate(lows)}
        cols = []
        for tau in crit.cells(d):
            bits = 0
            for sigma in cache.boundary_support(tau):
                bits |= 1 << idx[sigma]
            cols.append(bits)
        mats.append(Gf2Matrix(cols, len(lows)))
    return mats
