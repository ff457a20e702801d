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
from typing import Callable, Dict, List, Sequence, Set, Tuple

from .complexes import Complex, Face, build_delta, delta_facet_families, neighborhood_complex
from .errors import (InternalConsistencyError, InvalidArgumentError,
                     LemmaViolationError)
from .gf2 import BettiTable, Gf2Matrix, betti_bounded, betti_of_chain, rank_gf2
from .graphs import Map, core_vertices, fold_core_exponential, missing_value, variant
from .morse import (AcyclicityResult, CriticalSet, DescentCache, FacePoset,
                    critical_cells, face_poset, is_acyclic, morse_boundaries,
                    path_cells, validate_matching)

__all__ = [
    "PipelineReport",
    "CorollaryReport",
    "delta_poset",
    "build_matching_mu",
    "closed_form_critical",
    "wn_transposition_ordering",
    "theorem1_report",
    "corollary1_report",
    "verify_lemma",
    "LEMMA_KEYS",
    "SIZED_N",
]


@lru_cache(maxsize=None)
def _core(n: int) -> Tuple[Tuple[Map, ...], Dict[Map, int]]:
    """The core maps and their ids, laid out as `complexes._core_index` states."""
    verts = tuple(core_vertices(n + 1, n))
    return verts, {f: i for i, f in enumerate(verts)}


@lru_cache(maxsize=None)
def _delta_build(n: int) -> Tuple[Complex, Tuple[Tuple[str, int], ...]]:
    """The collapsed model and the size of each facet family, from one pass over the families."""
    fams = delta_facet_families(n)
    return build_delta(n, fams), tuple((k, len(v)) for k, v in fams.items())


def _delta(n: int) -> Complex:
    return _delta_build(n)[0]


@lru_cache(maxsize=None)
def delta_poset(n: int) -> FacePoset:
    """Face poset of the collapsed model, cached per n."""
    return face_poset(_delta(n))


@lru_cache(maxsize=None)
def build_matching_mu(n: int) -> Dict[Face, Face]:
    """The two-stage matching on the collapsed model, lower cell -> upper cell.

    Stage one pairs every cell not containing <1> with its extension by <1>
    whenever that extension is a cell. Stage two matches the surviving
    1-cells: an injective pair goes up to the larger of the two values at
    the differing position; {f,<x>} with x outside the image goes up through
    the position carrying 1; {f,<y>} with y in the image (1 not covered)
    goes up to <2>. The cells {f,<2>} with image avoiding 1 stay unmatched.

    Every key and value is the poset's own stored cell, not a copy. In each
    level the cells holding <1> (id 0) are the lex-first block, and their
    ends past <1> come in lex order, so one forward walk of the level below
    finds each stored lower cell; stage two takes its targets from the
    bisection that checks they are cells.
    """
    if n < 3:
        raise InvalidArgumentError("the collapsed model needs n >= 3")
    P = delta_poset(n)
    verts, index = _core(n)
    pairs: Dict[Face, Face] = {}
    used: Set[Face] = set()
    for d in range(1, P.dim + 1):
        lows, i = P.cells(d - 1), 0
        for up in P.cells(d):
            if up[0] != 0:
                break  # past the cells holding <1>
            low = up[1:]  # the cell that up extends by <1>
            while lows[i] != low:
                i += 1
            pairs[lows[i]] = up
            used.add(up)

    for c in P.cells(1):
        if c in pairs or c[0] == 0:
            continue
        i, j = c  # i < j, so i is the constant of a mixed edge
        if j <= n:
            raise InternalConsistencyError(
                f"two-constant edge {c} survived the first stage")
        if i > n:
            a, b = verts[i], verts[j]
            diffs = [t for t in range(n) if a[t] != b[t]]
            if len(diffs) != 1:
                raise InternalConsistencyError(
                    f"injective edge {c} differs in {len(diffs)} positions")
            p = diffs[0]
            third = max(a[p], b[p]) - 1
            up = tuple(sorted((i, j, third)))
        else:
            f, cval = verts[j], i + 1
            if cval not in f:
                if 1 not in f:
                    raise InternalConsistencyError(
                        f"edge {c} misses both {cval} and 1 in one injective")
                k = f.index(1) + 1
                up = tuple(sorted((j, index[variant(f, k, cval)], i)))
            elif 1 in f:
                raise InternalConsistencyError(
                    f"edge {c} should have been matched in the first stage")
            elif cval != 2:
                up = tuple(sorted((j, i, 1)))
            else:
                continue  # {f,<2>} with 1 outside the image stays critical
        cell = P.lookup(up)
        if cell is None:
            raise InternalConsistencyError(f"pair target {up} is not a cell")
        up = cell
        if up in used:
            raise InternalConsistencyError(f"pair target {up} claimed twice")
        pairs[c] = up
        used.add(up)
    return pairs


@lru_cache(maxsize=None)
def _critical(n: int) -> CriticalSet:
    return critical_cells(delta_poset(n), _descent(n))


@lru_cache(maxsize=None)
def _descent(n: int) -> DescentCache:
    """The one descent memo of the matching: acyclicity, supports and path cells read it."""
    return DescentCache(delta_poset(n), build_matching_mu(n))


@lru_cache(maxsize=None)
def _acyclicity(n: int) -> AcyclicityResult:
    return is_acyclic(_descent(n))


@lru_cache(maxsize=None)
def _morse_homology(n: int) -> Tuple[int, BettiTable]:
    """Rank of the Morse ∂₂ and the Betti numbers of the Morse chain complex."""
    chain = morse_boundaries(_critical(n), _descent(n))
    return chain[1].rank(), betti_of_chain(chain)


def _facet_counts(n: int) -> Tuple[Tuple[str, int], ...]:
    return _delta_build(n)[1]


def closed_form_critical(n: int) -> CriticalSet:
    """Critical cells written out directly from their defining conditions.

    Dimension 0: just <1>. Dimension 1: {f,<2>} over orderings f of the
    values 2..n+1. Dimension 2: {f, f_i, <x>} where f covers 1 at position
    k, misses x, i != k and x < f(i). The all-constants cell {<2>,..,<n+1>}
    has dimension n-1, which coincides with 2 when n = 3.

    Built afresh on each call, not cached: the census compares it once, and
    its cells are freed after that.
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


def wn_transposition_ordering(n: int) -> Tuple[Map, ...]:
    """All orderings of the values 2..n+1, consecutive ones one swap apart.

    Plain changes by insertion: each x = 3..n+1 goes into every ordering so
    far, right to left into those at even positions and left to right into
    the others, so each step exchanges two adjacent positions.
    """
    if n < 2:
        raise InvalidArgumentError("the ordering is defined for n >= 2")
    out = [(2,)]
    for x in range(3, n + 2):
        out = [p[:k] + (x,) + p[k:] for i, p in enumerate(out)
               for k in (range(len(p), -1, -1) if i % 2 == 0 else range(len(p) + 1))]
    return tuple(out)


def _injective_triangles(crit: CriticalSet, n: int) -> Tuple[Face, ...]:
    return tuple(c for c in crit.cells(2) if c[-1] > n)


@lru_cache(maxsize=None)
def _incidence(n: int) -> Gf2Matrix:
    """Alternating-path incidence between critical 2-cells and critical 1-cells.

    Rows follow the transposition ordering; columns are the critical
    triangles carrying an injective map, in cell order. Any column weight
    other than two contradicts the two-path structure and raises.
    """
    crit = _critical(n)
    cache = _descent(n)
    verts, index = _core(n)
    rows = tuple(tuple(sorted((1, index[w])))
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
    return Gf2Matrix(colbits, len(rows))


@lru_cache(maxsize=None)
def _incidence_rank(n: int) -> int:
    return rank_gf2(_incidence(n))


def _check_two_path_targets(n: int) -> bool:
    """Each critical triangle's descent reaches the two 1-cells its maps predict."""
    verts, index = _core(n)
    cache = _descent(n)
    for tau in _injective_triangles(_critical(n), n):
        x = tau[0] + 1
        g1, g2 = verts[tau[1]], verts[tau[2]]
        if (x in g1) == (x in g2):
            return False
        f, fi = (g1, g2) if x not in g1 else (g2, g1)
        if 1 not in f or 1 not in fi:
            return False
        k = f.index(1) + 1
        want = {tuple(sorted((1, index[variant(f, k, x)]))),
                tuple(sorted((1, index[variant(fi, k, missing_value(fi, n + 1))])))}
        if set(cache.boundary_support(tau)) != want:
            return False
    return True


def _check_paths_avoid_base(n: int) -> bool:
    starts = _injective_triangles(_critical(n), n)
    return all(cell[0] != 0 for cell in path_cells(_descent(n), starts))


def _check_wn(n: int) -> bool:
    seq = wn_transposition_ordering(n)
    if len(seq) != factorial(n) or len(set(seq)) != len(seq):
        return False
    want = frozenset(range(2, n + 2))
    if any(frozenset(w) != want for w in seq):
        return False
    for a, b in zip(seq, seq[1:]):
        d = [t for t in range(n) if a[t] != b[t]]
        if len(d) != 2:
            return False
        p, q = d
        if a[p] != b[q] or a[q] != b[p]:
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


def theorem1_report(n: int, include_bruteforce: bool = True) -> PipelineReport:
    """Run the whole pipeline at one n and cross-check every claimed structure."""
    if n < 3:
        raise InvalidArgumentError("the pipeline needs n >= 3")
    keys = _REPORT_KEYS + (("nc-bruteforce",) if include_bruteforce else ())
    checks = tuple(_run_checks(n, keys))
    rank_d2, bt = _morse_homology(n)
    return PipelineReport(
        n=n, facets=_facet_counts(n), critical=_critical(n).counts, rank_d2=rank_d2,
        betti=bt.betti, acyclic=_acyclicity(n).acyclic, crosschecks=checks)


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
    cache = _descent(n)
    for c in P.cells(1):
        if c[0] == 0 or (0,) + c in P:
            continue
        i, j = c
        if j <= n:
            return False
        # an injective pair and a missing value are always matched; of the
        # covered values only {f,<2>} with 1 outside the image stays critical
        critical = i == 1 and 2 in verts[j] and 1 not in verts[j]
        if critical != (c not in cache.pairs and c not in cache.upper):
            return False
    return True


def _check_incidence(n: int) -> List[Tuple[str, bool]]:
    try:
        A = _incidence(n)
    except LemmaViolationError:
        return [("column-weight-two", False)]
    return [("column-weight-two", True),
            ("column-sums-even", all(w % 2 == 0 for w in A.column_weights())),
            ("incidence-rank", _incidence_rank(n) == factorial(n) - 1)]


def _check_rank_d2(n: int) -> List[Tuple[str, bool]]:
    # No verdict without the incidence matrix: column-weight-two reports that.
    try:
        rank = _incidence_rank(n)
    except LemmaViolationError:
        return []
    return [("rank-d2-consistent", rank == _morse_homology(n)[0])]


def _check_delta_bruteforce(n: int) -> bool:
    bt = _morse_homology(n)[1]
    delta_bt = betti_bounded(_delta(n), _delta(n).dim)
    return delta_bt.agrees_with(bt) and delta_bt.max_verified_dim >= bt.max_verified_dim


# Face budget of the brute-force pass on the uncollapsed complex NC: it
# verifies dims 0-8, 0-3, 0-1 and 0 at n = 3, 4, 5, 6, as does any budget in
# [2,028,747, 2,503,444] (test_pipeline pins the face sums behind that).
# NC(5)'s dims 0-1 list no face: f₀, f₁ and rank ∂₁ are counted (about 6 ms)
# and ∂₂ is ranked from facet cones (about 40 ms); a budget reaching dim 2
# there lists its 1.93M triangles.
_NC_MAX_FACES = 2_250_000


@lru_cache(maxsize=None)
def _nc_betti(n: int) -> BettiTable:
    """Brute-force Betti numbers of NC within the face budget; NC itself is not kept."""
    NC = neighborhood_complex(fold_core_exponential(n + 1, n))
    return betti_bounded(NC, NC.dim, max_faces=_NC_MAX_FACES)


def _check_nc_bruteforce(n: int) -> List[Tuple[str, bool]]:
    bt = _morse_homology(n)[1]
    nb = _nc_betti(n)
    ok = nb.agrees_with(bt) and all(v == 0 for v in nb.betti[bt.max_verified_dim + 1:])
    return [(f"betti-ncomplex-bruteforce-dims-0-{nb.max_verified_dim}", ok)]


# The one definition of every crosscheck: key -> the named verdicts it yields.
# `verify` and the report each walk a tuple of these keys.
_CHECKS: Dict[str, Callable[[int], List[Tuple[str, bool]]]] = {
    "free-faces": lambda n: [("free-face-collapse", _check_free_faces(n))],
    "trichotomy": lambda n: [("one-cell-trichotomy", _check_trichotomy(n))],
    "matching": lambda n: [("matching-valid", not validate_matching(
        delta_poset(n), build_matching_mu(n)))],
    "acyclic": lambda n: [("matching-acyclic", _acyclicity(n).acyclic)],
    "census": lambda n: [("critical-census",
                          _critical(n) == closed_form_critical(n))],
    "facet-counts": lambda n: [("facet-count-formulas", dict(_facet_counts(n)) == {
        "M1": factorial(n + 1) * n, "A1": n * factorial(n) * (n - 1),
        "A2": factorial(n) * (n - 1), "A3": n + 1})],
    "paths": lambda n: [("two-path-targets", _check_two_path_targets(n))],
    "avoid-one": lambda n: [("paths-avoid-first-constant",
                             _acyclicity(n).acyclic
                             and _check_paths_avoid_base(n))],
    "incidence": _check_incidence,
    "rank-d2": _check_rank_d2,
    "wn": lambda n: [("transposition-ordering", _check_wn(n))],
    "delta-bruteforce": lambda n: [("betti-delta-bruteforce", _check_delta_bruteforce(n))],
    "nc-bruteforce": _check_nc_bruteforce,
}
_VERIFY_KEYS = ("free-faces", "trichotomy", "matching", "acyclic", "census",
                "paths", "avoid-one", "incidence", "wn")
_REPORT_KEYS = ("matching", "acyclic", "census", "facet-counts", "incidence",
                "rank-d2", "paths", "avoid-one", "wn", "delta-bruteforce")
LEMMA_KEYS = _VERIFY_KEYS + ("all",)
# The only n at which `reproduce` runs the full report and `verify` the checks.
SIZED_N = range(3, 6)


def _run_checks(n: int, keys: Sequence[str]) -> List[Tuple[str, bool]]:
    return [pair for k in keys for pair in _CHECKS[k](n)]


def verify_lemma(n: int, which: str) -> List[Tuple[str, bool]]:
    """Run one named structural check (or all of them) at a given n."""
    if which not in LEMMA_KEYS:
        raise InvalidArgumentError(
            f"unknown check {which!r}; choose from {', '.join(LEMMA_KEYS)}")
    if n not in SIZED_N:
        raise InvalidArgumentError(f"checks are sized for {SIZED_N[0]} <= n <= {SIZED_N[-1]}")
    keys = _VERIFY_KEYS if which == "all" else (which,)
    return [(k, all(ok for _, ok in _CHECKS[k](n))) for k in keys]
