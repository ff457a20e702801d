"""End-to-end pipeline on the collapsed model: matching, census, incidence, reports.

Everything here is specific to the core of K_{n+1}^{K_n}: the two-stage
matching on the collapsed complex, the closed-form critical cells, the
transposition ordering of the critical 1-cells, and the reports that tie
the Morse route to brute-force homology.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .complexes import Complex, Face, build_delta, delta_facet_families, neighborhood_complex
from .errors import (InternalConsistencyError, InvalidArgumentError,
                     LemmaViolationError)
from .gf2 import Gf2Matrix, betti_bounded, betti_of_chain, rank_gf2
from .graphs import FnVertex, core_vertices, fold_core_exponential, variant
from .morse import (AcyclicityResult, CriticalSet, DescentCache, FacePoset,
                    Matching, critical_cells, face_poset, is_acyclic,
                    morse_boundaries, path_cells, validate_matching)

__all__ = [
    "PipelineReport",
    "CorollaryReport",
    "delta_poset",
    "build_matching_mu",
    "closed_form_critical",
    "wn_transposition_ordering",
    "incidence_matrix_A",
    "theorem1_report",
    "corollary1_report",
    "verify_lemma",
    "LEMMA_KEYS",
]


@lru_cache(maxsize=None)
def _core(n: int) -> Tuple[Tuple[FnVertex, ...], Dict[Tuple[int, ...], int]]:
    verts = tuple(core_vertices(n + 1, n))
    return verts, {v.values: i for i, v in enumerate(verts)}


@lru_cache(maxsize=None)
def _delta(n: int) -> Complex:
    return build_delta(n)


@lru_cache(maxsize=None)
def delta_poset(n: int) -> FacePoset:
    """Face poset of the collapsed model, cached per n."""
    return face_poset(_delta(n))


@lru_cache(maxsize=None)
def build_matching_mu(n: int) -> Matching:
    """The two-stage matching on the collapsed model.

    Stage one pairs every cell not containing <1> with its extension by <1>
    whenever that extension is a cell. Stage two matches the surviving
    1-cells: an injective pair goes up to the larger of the two values at
    the differing position; {f,<x>} with x outside the image goes up through
    the position carrying 1; {f,<y>} with y in the image (1 not covered)
    goes up to <2>. The cells {f,<2>} with image avoiding 1 stay unmatched.
    """
    if n < 3:
        raise InvalidArgumentError("the collapsed model needs n >= 3")
    P = delta_poset(n)
    verts, index = _core(n)
    pairs: Dict[Face, Face] = {}
    used: Set[Face] = set()
    for d in range(P.dim + 1):
        for c in P.cells(d):
            if c[0] == 0:
                continue
            up = (0,) + c
            if up in P:
                pairs[c] = up
                used.add(up)

    for c in P.cells(1):
        if c in pairs or c[0] == 0:
            continue
        i, j = c
        a, b = verts[i], verts[j]
        if a.is_constant and b.is_constant:
            raise InternalConsistencyError(
                f"two-constant edge {c} survived the first stage")
        if not a.is_constant and not b.is_constant:
            diffs = [t for t in range(n) if a.values[t] != b.values[t]]
            if len(diffs) != 1:
                raise InternalConsistencyError(
                    f"injective edge {c} differs in {len(diffs)} positions")
            p = diffs[0]
            third = max(a.values[p], b.values[p]) - 1
            up = tuple(sorted((i, j, third)))
        else:
            ci, fi = (i, j) if a.is_constant else (j, i)
            f = verts[fi]
            cval = verts[ci].values[0]
            if cval not in f.image:
                if 1 not in f.image:
                    raise InternalConsistencyError(
                        f"edge {c} misses both {cval} and 1 in one injective")
                k = f.values.index(1) + 1
                up = tuple(sorted((fi, index[variant(f, k, cval).values], ci)))
            elif 1 in f.image:
                raise InternalConsistencyError(
                    f"edge {c} should have been matched in the first stage")
            elif cval != 2:
                up = tuple(sorted((fi, ci, 1)))
            else:
                continue  # {f,<2>} with 1 outside the image stays critical
        if up not in P:
            raise InternalConsistencyError(f"pair target {up} is not a cell")
        if up in used:
            raise InternalConsistencyError(f"pair target {up} claimed twice")
        pairs[c] = up
        used.add(up)
    return Matching(pairs)


@lru_cache(maxsize=None)
def _critical(n: int) -> CriticalSet:
    return critical_cells(delta_poset(n), build_matching_mu(n))


@lru_cache(maxsize=None)
def _descent(n: int) -> DescentCache:
    return DescentCache(delta_poset(n), build_matching_mu(n))


@lru_cache(maxsize=None)
def _acyclicity(n: int) -> AcyclicityResult:
    return is_acyclic(delta_poset(n), build_matching_mu(n))


@lru_cache(maxsize=None)
def closed_form_critical(n: int) -> CriticalSet:
    """Critical cells written out directly from their defining conditions.

    Dimension 0: just <1>. Dimension 1: {f,<2>} over orderings f of the
    values 2..n+1. Dimension 2: {f, f_i, <x>} where f covers 1 at position
    k, misses x, i != k and x < f(i). The all-constants cell {<2>,..,<n+1>}
    has dimension n-1, which coincides with 2 when n = 3.
    """
    if n < 3:
        raise InvalidArgumentError("the collapsed model needs n >= 3")
    verts, index = _core(n)
    top_dim = max(2, n - 1)
    by_dim: List[List[Face]] = [[] for _ in range(top_dim + 1)]
    by_dim[0].append((0,))
    for w in permutations(range(2, n + 2)):
        by_dim[1].append(tuple(sorted((1, index[w]))))
    for x in range(2, n + 2):
        others = tuple(v for v in range(1, n + 2) if v != x)
        for f in permutations(others):
            k = f.index(1)
            fx = index[f]
            for i in range(n):
                if i != k and x < f[i]:
                    fi = f[:i] + (x,) + f[i + 1:]
                    by_dim[2].append(tuple(sorted((x - 1, fx, index[fi]))))
    by_dim[n - 1].append(tuple(range(1, n + 1)))
    return CriticalSet(tuple(tuple(sorted(level)) for level in by_dim))


def wn_transposition_ordering(n: int) -> Tuple[FnVertex, ...]:
    """All orderings of the values 2..n+1, consecutive ones one swap apart.

    Plain-changes generation: repeatedly move the largest mobile element,
    so each step exchanges two adjacent positions.
    """
    if n < 2:
        raise InvalidArgumentError("the ordering is defined for n >= 2")
    vals = list(range(2, n + 2))
    perm = list(range(n))
    dirs = [-1] * n
    out = [FnVertex(tuple(vals[p] for p in perm))]
    while True:
        mv, mi = -1, -1
        for idx, v in enumerate(perm):
            t = idx + dirs[v]
            if 0 <= t < n and perm[t] < v and v > mv:
                mv, mi = v, idx
        if mv < 0:
            return tuple(out)
        t = mi + dirs[mv]
        perm[mi], perm[t] = perm[t], perm[mi]
        for v in range(mv + 1, n):
            dirs[v] = -dirs[v]
        out.append(FnVertex(tuple(vals[p] for p in perm)))


def _injective_triangles(crit: CriticalSet, n: int) -> Tuple[Face, ...]:
    return tuple(c for c in crit.cells(2) if c[-1] > n)


@lru_cache(maxsize=None)
def _incidence(n: int) -> Tuple[Gf2Matrix, Tuple[Face, ...], Tuple[Face, ...]]:
    """Alternating-path incidence between critical 2-cells and critical 1-cells.

    Rows follow the transposition ordering; columns are the critical
    triangles carrying an injective map, in cell order. Any column weight
    other than two contradicts the two-path structure and raises.
    """
    crit = _critical(n)
    cache = _descent(n)
    verts, index = _core(n)
    rows = tuple(tuple(sorted((1, index[w.values])))
                 for w in wn_transposition_ordering(n))
    if set(rows) != set(crit.cells(1)):
        raise LemmaViolationError(
            "ordered 1-cells do not coincide with the critical 1-cells")
    cols = _injective_triangles(crit, n)
    rowpos = {r: t for t, r in enumerate(rows)}
    colbits = []
    for tau in cols:
        support = cache.boundary_support(tau)
        if len(support) != 2:
            raise LemmaViolationError(
                f"column {tau} has weight {len(support)}, expected 2")
        bits = 0
        for s in support:
            bits |= 1 << rowpos[s]
        colbits.append(bits)
    return Gf2Matrix.from_columns(colbits, len(rows)), rows, cols


def incidence_matrix_A(n: int) -> Gf2Matrix:
    """Rows: critical 1-cells in transposition order; columns: critical triangles."""
    return _incidence(n)[0]


@lru_cache(maxsize=None)
def _incidence_rank(n: int) -> int:
    return rank_gf2(_incidence(n)[0])


def _two_path_targets(n: int, tau: Face) -> Optional[Set[Face]]:
    """The two 1-cells a critical triangle should reach, or None if malformed."""
    verts, index = _core(n)
    x = tau[0] + 1
    g1, g2 = verts[tau[1]], verts[tau[2]]
    if (x in g1.image) == (x in g2.image):
        return None
    f, fi = (g1, g2) if x not in g1.image else (g2, g1)
    if 1 not in f.image or 1 not in fi.image:
        return None
    k = f.values.index(1) + 1
    miss_fi = fi.missing_values(n + 1)[0]
    return {tuple(sorted((1, index[variant(f, k, x).values]))),
            tuple(sorted((1, index[variant(fi, k, miss_fi).values])))}


def _check_two_path_targets(n: int) -> bool:
    crit = _critical(n)
    cache = _descent(n)
    for tau in _injective_triangles(crit, n):
        want = _two_path_targets(n, tau)
        if want is None or set(cache.boundary_support(tau)) != want:
            return False
    return True


def _check_paths_avoid_base(n: int) -> bool:
    starts = _injective_triangles(_critical(n), n)
    return all(cell[0] != 0
               for cell in path_cells(build_matching_mu(n), starts))


def _check_wn(n: int) -> bool:
    seq = wn_transposition_ordering(n)
    if len(seq) != factorial(n) or len(set(seq)) != len(seq):
        return False
    want = frozenset(range(2, n + 2))
    if any(frozenset(w.values) != want for w in seq):
        return False
    for a, b in zip(seq, seq[1:]):
        d = [t for t in range(n) if a.values[t] != b.values[t]]
        if len(d) != 2:
            return False
        p, q = d
        if a.values[p] != b.values[q] or a.values[q] != b.values[p]:
            return False
    return True


@dataclass(frozen=True)
class PipelineReport:
    """Everything the main reproduction computes, plus its cross-check verdicts."""

    n: int
    facets: Tuple[Tuple[str, int], ...]
    critical: Tuple[int, ...]
    rank_d2: int
    betti: Tuple[int, ...]
    acyclic: bool
    crosschecks: Tuple[Tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return self.acyclic and all(p for _, p in self.crosschecks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "facets": {k: v for k, v in self.facets},
            "critical": list(self.critical),
            "rank_d2": self.rank_d2,
            "betti": list(self.betti),
            "acyclic": self.acyclic,
            "crosschecks": [{"name": k, "pass": v} for k, v in self.crosschecks],
        }


# Brute-force check depth for the uncollapsed neighborhood complex: full for
# n=3; dimension 3 at n=4 (faces of size 5 are only streamed); dimension 1 at
# n=5, where 125-vertex facets make anything deeper unreasonable.
_NCOMPLEX_BRUTE_DEPTH = {3: None, 4: 3, 5: 1}


def theorem1_report(n: int, include_bruteforce: bool = True) -> PipelineReport:
    """Run the whole pipeline at one n and cross-check every claimed structure."""
    if n < 3:
        raise InvalidArgumentError("the pipeline needs n >= 3")
    fams = delta_facet_families(n)
    facets = tuple((k, len(v)) for k, v in fams.items())
    P = delta_poset(n)
    M = build_matching_mu(n)

    checks = _run_checks(n, ("matching", "acyclic", "census"))
    checks.append(("facet-count-formulas", (
        dict(facets) == {
            "M1": factorial(n + 1) * n,
            "A1": n * factorial(n) * (n - 1),
            "A2": factorial(n) * (n - 1),
            "A3": n + 1,
        })))

    chain = morse_boundaries(P, M, _descent(n))
    rank_d2 = chain[1].rank()
    bt = betti_of_chain(chain)

    incidence = _LEMMA_CHECKS["incidence"](n)
    checks.extend(incidence)
    if incidence[0][1]:  # column-weight-two held, so the matrix has a rank
        checks.append(("rank-d2-consistent", _incidence_rank(n) == rank_d2))
    checks.extend(_run_checks(n, ("paths", "avoid-one", "wn")))

    delta_bt = betti_bounded(_delta(n), _delta(n).dim)
    checks.append(("betti-delta-bruteforce",
                   delta_bt.agrees_with(bt)
                   and delta_bt.max_verified_dim >= bt.max_verified_dim))

    if include_bruteforce:
        NC = neighborhood_complex(fold_core_exponential(n + 1, n))
        depth = _NCOMPLEX_BRUTE_DEPTH.get(n, 1)
        if depth is None:
            depth = NC.dim
        nb = betti_bounded(NC, depth)
        ok = nb.agrees_with(bt) and all(
            v == 0 for v in nb.betti[bt.max_verified_dim + 1:])
        checks.append((f"betti-ncomplex-bruteforce-dims-0-{nb.max_verified_dim}", ok))

    return PipelineReport(
        n=n,
        facets=facets,
        critical=_critical(n).counts,
        rank_d2=rank_d2,
        betti=bt.betti,
        acyclic=_acyclicity(n).acyclic,
        crosschecks=tuple(checks),
    )


@dataclass(frozen=True)
class CorollaryReport:
    """Homotopy-type spectrum of the core by the relation between m and n."""

    m: int
    n: int
    case: str
    betti: Tuple[int, ...]
    components: int
    crosschecks: Tuple[Tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(p for _, p in self.crosschecks)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "case": self.case,
            "betti": list(self.betti),
            "components": self.components,
            "crosschecks": [{"name": k, "pass": v} for k, v in self.crosschecks],
        }


def corollary1_report(m: int, n: int) -> CorollaryReport:
    """Classify the core of K_m^{K_n} and verify its homology pattern.

    m = n+1 runs the full pipeline (its nonzero first homology is the
    obstruction witness); m = n counts components (constants together,
    every bijection isolated); m < n checks the simplex-boundary pattern.
    """
    if n < 2 or m < 2 or m > n + 1:
        raise InvalidArgumentError(
            f"need 2 <= m <= n+1 and n >= 2, got m={m} n={n}")
    checks: List[Tuple[str, bool]] = []
    if m == n + 1 and n > 2:
        rep = theorem1_report(n)
        betti = rep.betti
        checks.append(("pipeline-ok", rep.ok))
    else:
        NC = neighborhood_complex(fold_core_exponential(m, n))
        betti = betti_bounded(NC, NC.dim).betti
    if m == n + 1:
        case = "m=n+1"
        checks.append(("connected", betti[0] == 1))
        checks.append(("h1-nonzero", len(betti) > 1 and betti[1] >= 1))
    elif m == n:
        case = "m=n"
        if m >= 3:
            expected = (factorial(m) + 1,) + (0,) * (m - 3) + (1,)
        else:
            expected = (4,)  # two bijections, two separated constants
        checks.append(("betti-closed-form", betti == expected))
    else:
        case = "m<n"
        expected = (2,) if m == 2 else (1,) + (0,) * (m - 3) + (1,)
        checks.append(("sphere-betti", betti == expected))
    return CorollaryReport(
        m=m, n=n, case=case, betti=betti,
        components=betti[0], crosschecks=tuple(checks))


def _check_free_faces(n: int) -> bool:
    # Imported at call time, not at the top: a benchmark tracer that replaces
    # complexes.delta_via_collapse must see its wrapper called here.
    from .complexes import delta_via_collapse
    return delta_via_collapse(n) == _delta(n)


def _check_trichotomy(n: int) -> bool:
    """Surviving 1-cells split into injective pair / missing value / covered value."""
    P = delta_poset(n)
    verts, _ = _core(n)
    M = build_matching_mu(n)
    matched = M.matched()
    for c in P.cells(1):
        if c[0] == 0 or (0,) + c in P:
            continue
        i, j = c
        a, b = verts[i], verts[j]
        if a.is_constant and b.is_constant:
            return False
        if not a.is_constant and not b.is_constant:
            critical = False  # injective pair
        else:
            f, const = (b, a) if a.is_constant else (a, b)
            cval = const.values[0]
            # a missing value is always matched; of the covered values only
            # {f,<2>} with 1 outside the image stays critical
            critical = cval in f.image and cval == 2 and 1 not in f.image
        if critical != (c not in matched):
            return False
    return True


def _check_incidence(n: int) -> List[Tuple[str, bool]]:
    try:
        A = _incidence(n)[0]
    except LemmaViolationError:
        return [("column-weight-two", False)]
    return [("column-weight-two", True),
            ("column-sums-even", all(w % 2 == 0 for w in A.column_weights())),
            ("incidence-rank", _incidence_rank(n) == factorial(n) - 1)]


# The one definition of every structural check: verify key -> the report
# crosschecks it stands for. free-faces and trichotomy are verify-only.
_LEMMA_CHECKS: Dict[str, Callable[[int], List[Tuple[str, bool]]]] = {
    "free-faces": lambda n: [("free-face-collapse", _check_free_faces(n))],
    "trichotomy": lambda n: [("one-cell-trichotomy", _check_trichotomy(n))],
    "matching": lambda n: [("matching-valid", not validate_matching(
        delta_poset(n), build_matching_mu(n)))],
    "acyclic": lambda n: [("matching-acyclic", _acyclicity(n).acyclic)],
    "census": lambda n: [("critical-census",
                          _critical(n) == closed_form_critical(n))],
    "paths": lambda n: [("two-path-targets", _check_two_path_targets(n))],
    "avoid-one": lambda n: [("paths-avoid-first-constant",
                             _acyclicity(n).acyclic
                             and _check_paths_avoid_base(n))],
    "incidence": _check_incidence,
    "wn": lambda n: [("transposition-ordering", _check_wn(n))],
}
LEMMA_KEYS = tuple(_LEMMA_CHECKS) + ("all",)


def _run_checks(n: int, keys: Sequence[str]) -> List[Tuple[str, bool]]:
    return [pair for k in keys for pair in _LEMMA_CHECKS[k](n)]


def verify_lemma(n: int, which: str) -> List[Tuple[str, bool]]:
    """Run one named structural check (or all of them) at a given n."""
    if which not in LEMMA_KEYS:
        raise InvalidArgumentError(
            f"unknown check {which!r}; choose from {', '.join(LEMMA_KEYS)}")
    if n < 3 or n > 5:
        raise InvalidArgumentError("checks are sized for 3 <= n <= 5")
    keys = tuple(_LEMMA_CHECKS) if which == "all" else (which,)
    return [(k, all(ok for _, ok in _LEMMA_CHECKS[k](n))) for k in keys]
