"""Reference implementations the tests check the program against.

The program never calls these. They are written plainly, so that a test
compares a fast route with a direct one: whole boundary matrices, an
exhaustive path enumerator, and the path parity it implies.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from expmorse.complexes import Complex, Face
from expmorse.errors import InvalidArgumentError, ResourceLimitError
from expmorse.gf2 import Gf2Matrix
from expmorse.morse import DescentCache, Matching


def zero_matrix(nrows: int, ncols: int) -> Gf2Matrix:
    return Gf2Matrix([0] * ncols, nrows)


def identity_matrix(n: int) -> Gf2Matrix:
    return Gf2Matrix([1 << i for i in range(n)], n)


def _subfaces(cell: Face) -> List[Face]:
    return [cell[:t] + cell[t + 1:] for t in range(len(cell))]


def boundary_matrix(C: Complex, k: int) -> Gf2Matrix:
    """The k-th boundary matrix: rows are (k-1)-faces, columns are k-faces, lex order."""
    if k < 1:
        raise InvalidArgumentError("boundary matrices start at k = 1")
    levels = C.faces_by_dim(k)
    row = {f: i for i, f in enumerate(levels[k - 1])}
    return Gf2Matrix([sum(1 << row[s] for s in _subfaces(face)) for face in levels[k]],
                     len(row))


def alternating_path_parity(M: Matching, tau: Face, sigma: Face,
                            cache: Optional[DescentCache] = None) -> int:
    """Mod-2 count of alternating paths between critical cells of adjacent dimension."""
    if len(tau) != len(sigma) + 1:
        raise InvalidArgumentError("cells must sit in adjacent dimensions")
    matched = M.matched()
    if tau in matched or sigma in matched:
        raise InvalidArgumentError("parity is defined between critical cells")
    cache = cache or DescentCache(M)
    return 1 if sigma in cache.boundary_support(tau) else 0


def enumerate_alternating_paths(M: Matching, start: Face,
                                max_paths: int = 100_000) -> List[Tuple[Face, ...]]:
    """Every alternating path from a critical cell down to critical cells.

    Exhaustive and unmemoized, so only suitable for small inputs. Paths are
    full cell sequences (start, x1, pair(x1), ..., end); the direct-facet
    path has length 2.
    """
    pairs = M.pairs
    upper = M.reverse()
    out: List[Tuple[Face, ...]] = []

    def descend(x: Face, prefix: Tuple[Face, ...]):
        if len(out) >= max_paths:
            raise ResourceLimitError(f"more than {max_paths} alternating paths",
                                     bound=max_paths)
        up = pairs.get(x)
        if up is None:
            if x not in upper:
                out.append(prefix + (x,))
            return
        for y in _subfaces(up):
            if y != x:
                descend(y, prefix + (x, up))

    for y in _subfaces(start):
        descend(y, (start,))
    return out
