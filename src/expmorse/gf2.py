"""Z2 linear algebra on bit-packed vectors, boundary matrices, Betti numbers.

Vectors are Python ints (bit j = coordinate j), so an XOR of two rows is one
big-int operation. Rank is incremental: vectors stream into a pivot basis
keyed by leading bit, which keeps the memory footprint at rank many vectors
even when the matrix itself is never materialized.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .complexes import DEFAULT_MAX_FACES, Complex, Face
from .errors import InvalidArgumentError, InvalidChainError, ResourceLimitError

__all__ = [
    "Gf2Matrix",
    "BettiTable",
    "rank_of_bitsets",
    "rank_gf2",
    "boundary_matrix",
    "betti_bounded",
    "betti_of_chain",
]


class Gf2Matrix:
    """Dense matrix over GF(2); row i is an int whose bit j is the (i, j) entry."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[int], ncols: int):
        self.rows = list(rows)
        self.nrows = len(self.rows)
        self.ncols = ncols
        if ncols < 0:
            raise InvalidArgumentError("negative column count")
        mask = (1 << ncols) - 1
        for r in self.rows:
            if r & ~mask:
                raise InvalidArgumentError("row has bits beyond the column count")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Gf2Matrix":
        return cls([0] * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def from_columns(cls, cols: Sequence[int], nrows: int) -> "Gf2Matrix":
        rows = [0] * nrows
        for j, c in enumerate(cols):
            i = 0
            while c:
                if c & 1:
                    rows[i] |= 1 << j
                c >>= 1
                i += 1
        return cls(rows, len(cols))

    def entry(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def column(self, j: int) -> int:
        c = 0
        for i, r in enumerate(self.rows):
            c |= (r >> j & 1) << i
        return c

    def columns(self) -> List[int]:
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            ib = 1 << i
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= ib
                r &= r - 1
        return cols

    def column_weights(self) -> List[int]:
        w = [0] * self.ncols
        for r in self.rows:
            while r:
                w[(r & -r).bit_length() - 1] += 1
                r &= r - 1
        return w

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix(self.columns(), self.nrows)

    def matmul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.ncols != other.nrows:
            raise InvalidArgumentError("inner dimensions differ")
        rows = []
        for r in self.rows:
            acc = 0
            while r:
                acc ^= other.rows[(r & -r).bit_length() - 1]
                r &= r - 1
            rows.append(acc)
        return Gf2Matrix(rows, other.ncols)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def rank(self) -> int:
        return rank_of_bitsets(self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Gf2Matrix) and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ncols, tuple(self.rows)))

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.nrows}x{self.ncols})"


def rank_of_bitsets(vectors: Iterable[int]) -> int:
    """Rank of the span of the given vectors, consumed one at a time."""
    pivots: Dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                rank += 1
                break
            v ^= p
    return rank


def rank_gf2(M: Gf2Matrix) -> int:
    return M.rank()


def _column_bits(face: Face, lower_index: Dict[Face, int]) -> int:
    c = 0
    for t in range(len(face)):
        sub = face[:t] + face[t + 1:]
        c |= 1 << lower_index[sub]
    return c


def boundary_matrix(C: Complex, k: int, max_faces: int | None = None) -> Gf2Matrix:
    """The k-th boundary matrix: rows are (k-1)-faces, columns are k-faces, lex order."""
    if k < 1:
        raise InvalidArgumentError("boundary matrices start at k = 1")
    kwargs = {} if max_faces is None else {"max_faces": max_faces}
    levels = C.faces_by_dim(k, **kwargs)
    lower, upper = levels[k - 1], levels[k]
    lower_index = {f: i for i, f in enumerate(lower)}
    rows = [0] * len(lower)
    for j, face in enumerate(upper):
        jb = 1 << j
        for t in range(len(face)):
            rows[lower_index[face[:t] + face[t + 1:]]] |= jb
    return Gf2Matrix(rows, len(upper))


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
    """Brute-force Z2 Betti numbers of dimensions 0..maxdim.

    Faces of dimensions 0..maxdim are materialized; the (maxdim+1)-faces are
    only streamed through the rank computation. If a dimension would blow the
    face budget the table is truncated to what was actually verified.
    """
    if maxdim < 0:
        raise InvalidArgumentError("maxdim must be nonnegative")
    levels: List[List[Face]] = []
    spent = 0
    for d in range(maxdim + 1):
        est = C.face_count_estimate(d)
        if spent + est > max_faces:
            break
        levels.append(sorted(C.iter_faces_of_dim(d)))
        spent += est
    if not levels:
        raise ResourceLimitError(
            f"cannot enumerate even the vertices within the budget {max_faces}",
            bound=max_faces)

    top = len(levels)  # first dimension that was not materialized
    streamed = spent + C.face_count_estimate(top) <= max_faces
    verified = top - 1 if streamed else top - 2
    if verified < 0:
        raise ResourceLimitError(
            f"face budget {max_faces} too small to verify any dimension", bound=max_faces)
    ranks = [0] * (top + 2)
    for k in range(1, top + 1 if streamed else top):
        lower_index = {f: i for i, f in enumerate(levels[k - 1])}
        faces = levels[k] if k < top else C.iter_faces_of_dim(k)
        ranks[k] = rank_of_bitsets(_column_bits(face, lower_index) for face in faces)

    betti = tuple(len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(verified + 1))
    return BettiTable(betti, "bruteforce", verified)


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

