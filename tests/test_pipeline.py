from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, islice

import pytest

from expmorse import complexes, pipeline
from expmorse.complexes import neighborhood_complex
from expmorse.errors import InvalidArgumentError
from expmorse.gf2 import rank_gf2
from expmorse.graphs import fold_core_exponential
from expmorse.morse import DescentCache, critical_cells, is_acyclic, validate_matching
from expmorse.pipeline import (LEMMA_KEYS, build_matching_mu,
                               closed_form_critical, corollary1_report,
                               delta_poset, theorem1_report, verify_lemma,
                               wn_transposition_ordering)
from oracles import _subfaces, enumerate_alternating_paths
from test_gf2 import _rss_rise


@pytest.mark.parametrize("n", [3, 4])
def test_matching_is_valid_and_acyclic(n):
    P = delta_poset(n)
    pairs = build_matching_mu(n)
    assert validate_matching(P, pairs) == []
    assert is_acyclic(DescentCache(P, pairs)).acyclic


@pytest.mark.parametrize("n", [3, 4, 5])
def test_critical_census_matches_closed_form(n):
    P = delta_poset(n)
    crit = critical_cells(P, DescentCache(P, build_matching_mu(n)))
    assert crit == closed_form_critical(n)
    want = [1, math.factorial(n), math.factorial(n) * n * (n - 1) // 2]
    want += [0] * (n - 4)
    if n == 3:
        want[2] += 1  # the all-constants triangle lands in dimension 2
    else:
        want.append(1)
    assert list(crit.counts) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wn_ordering_is_a_transposition_gray_code(n):
    order = wn_transposition_ordering(n)
    assert len(order) == math.factorial(n)
    vals = set(range(2, n + 2))
    seen = set()
    for w in order:
        assert set(w) == vals
        assert w not in seen
        seen.add(w)
    for a, b in zip(order, order[1:]):
        diff = [i for i in range(n) if a[i] != b[i]]
        assert len(diff) == 2
        i, j = diff
        assert a[i] == b[j] and a[j] == b[i]


def test_wn_smallest_case():
    assert wn_transposition_ordering(2) == ((2, 3), (3, 2))
    with pytest.raises(InvalidArgumentError):
        wn_transposition_ordering(1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pipeline_and_complexes_index_the_core_alike(n):
    verts, index = pipeline._core(n)
    assert (list(verts), index) == complexes._core_index(n)


@pytest.mark.parametrize("n,rank", [(3, 5), (4, 23), (5, 119)])
def test_incidence_matrix_rank_and_columns(n, rank):
    A = pipeline._incidence(n)
    assert A.nrows == math.factorial(n)
    assert rank_gf2(A) == rank == math.factorial(n) - 1
    assert all(w == 2 for w in A.column_weights())
    # column sums vanish mod 2, so rank can never reach the row count
    assert all(c.bit_count() % 2 == 0 for c in A.cols)


def test_two_path_targets_by_exhaustive_enumeration():
    n = 3
    P = delta_poset(n)
    pairs = build_matching_mu(n)
    crit = critical_cells(P, DescentCache(P, pairs))
    ones = set(crit.cells(1))
    for tau in crit.cells(2):
        constants = [v for v in tau if v <= n]
        ends = {}
        for p in enumerate_alternating_paths(pairs, _subfaces, tau):
            ends[p[-1]] = ends.get(p[-1], 0) + 1
        reached = {e for e in ends if e in ones}
        if len(constants) == 3:
            # the all-constants triangle has an empty Morse boundary
            assert not ends
            continue
        assert len(reached) == 2
        assert all(ends[e] % 2 == 1 for e in reached)


def test_paths_from_critical_triangles_never_touch_first_constant():
    n = 3
    P = delta_poset(n)
    pairs = build_matching_mu(n)
    crit = critical_cells(P, DescentCache(P, pairs))
    for tau in crit.cells(2):
        for p in enumerate_alternating_paths(pairs, _subfaces, tau):
            assert all(0 not in cell for cell in p)


def test_report_shape_and_values(timed_report3):
    rep, _ = timed_report3
    d = rep.to_json_dict()
    assert set(d) == {"n", "facets", "critical", "rank_d2", "betti",
                      "acyclic", "crosschecks"}
    assert d["facets"] == {"M1": 72, "A1": 36, "A2": 12, "A3": 4}
    assert d["critical"] == [1, 6, 19]
    assert d["rank_d2"] == 5
    assert d["betti"] == [1, 1, 14]
    assert d["acyclic"] is True
    assert rep.ok


@pytest.mark.parametrize("n", [3, 4, 5])
def test_matching_holds_the_posets_own_cells(n):
    # the matching copies no cell: each key and value is the object stored
    # at its position in the face poset's level
    P = delta_poset(n)

    def stored(cell):
        level = P.cells(len(cell) - 1)
        return level[bisect_left(level, cell)]

    pairs = build_matching_mu(n)
    assert pairs
    for low, up in pairs.items():
        assert low is stored(low)
        assert up is stored(up)


def _clear_pipeline_caches():
    for fn in vars(pipeline).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


@pytest.mark.parametrize("run", [
    lambda: pipeline.theorem1_report(3, include_bruteforce=False),
    lambda: pipeline.verify_lemma(3, "all"),
], ids=["report", "verify"])
def test_one_descent_walk_per_run(monkeypatch, run):
    built = []

    class Counting(DescentCache):
        def __init__(self, P, pairs):
            built.append(pairs)
            super().__init__(P, pairs)

    monkeypatch.setattr(pipeline, "DescentCache", Counting)
    _clear_pipeline_caches()
    try:
        run()
    finally:
        _clear_pipeline_caches()
    assert len(built) == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_each_dimension_of_delta_listed_once(monkeypatch, n):
    # the face poset and Δ's brute force read one listing per dimension
    listed = []
    faces_of_dim = complexes._faces_of_dim

    def counting(facets, dim):
        listed.append((facets, dim))
        return faces_of_dim(facets, dim)

    monkeypatch.setattr(complexes, "_faces_of_dim", counting)
    _clear_pipeline_caches()
    try:
        pipeline.theorem1_report(n, include_bruteforce=False)
        delta = pipeline._delta(n)
    finally:
        _clear_pipeline_caches()
    assert all(facets is delta.facets for facets, _ in listed)
    assert sorted(d for _, d in listed) == list(range(delta.dim + 1))


def test_verify_lemma_all_pass():
    results = verify_lemma(3, "all")
    assert [name for name, _ in results] == [k for k in LEMMA_KEYS if k != "all"]
    assert all(ok for _, ok in results)


def test_verify_lemma_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        verify_lemma(3, "nonsense")
    with pytest.raises(InvalidArgumentError):
        verify_lemma(7, "matching")
    report_only = set(pipeline._CHECKS) - set(LEMMA_KEYS)
    assert report_only == {"facet-counts", "rank-d2", "delta-bruteforce", "nc-bruteforce"}
    for key in sorted(report_only):
        with pytest.raises(InvalidArgumentError):
            verify_lemma(4, key)


# Cumulative face estimates of NC at n = 3..6, up to the first sum over the
# NC face budget, and the dimension that budget lets the report verify.
NC_FACE_SUMS = {
    3: ([156, 540, 1116, 1740, 2268, 2604, 2748, 2784, 2788, 2788], 8),
    4: ([860, 4550, 23330, 127505, 619625, 2503445], 3),
    5: ([5790, 67410, 1999110, 60172560], 1),
    6: ([45402, 2028747, 446901287], 0),
}


@pytest.mark.parametrize("n", sorted(NC_FACE_SUMS))
def test_nc_face_budget_sets_each_depth(n):
    sums, depth = NC_FACE_SUMS[n]
    NC = neighborhood_complex(fold_core_exponential(n + 1, n))
    got = list(islice(accumulate(map(NC.face_count_estimate, range(NC.dim + 2))),
                      len(sums)))
    assert got == sums
    # betti_bounded verifies d when dims 0..d+1 fit the budget (d = NC.dim if all do)
    fit = sum(1 for total in got if total <= pipeline._NC_MAX_FACES)
    assert (NC.dim if fit == NC.dim + 2 else fit - 2) == depth
    assert 2_028_747 <= pipeline._NC_MAX_FACES <= 2_503_444


def test_corollary_rejects_out_of_scope_pairs():
    for m, n in [(1, 3), (5, 3), (2, 1)]:
        with pytest.raises(InvalidArgumentError):
            corollary1_report(m, n)


@pytest.mark.parametrize("m,n,betti,comps", [
    (2, 3, (2,), 2),
    (2, 2, (4,), 4),
    (3, 4, (1, 1), 1),
    (4, 5, (1, 0, 1), 1),
    (3, 3, (7, 1), 7),
    (4, 4, (25, 0, 1), 25),
])
def test_corollary_small_cases(m, n, betti, comps):
    rep = corollary1_report(m, n)
    assert rep.ok
    d = rep.to_json_dict()
    assert tuple(d["betti"]) == betti
    assert d["components"] == comps


def test_report_rejects_tiny_n():
    with pytest.raises(InvalidArgumentError):
        theorem1_report(2)


def test_report_n6_morse_route():
    # The largest size the Morse route runs at; brute force covers Δ only.
    rep = theorem1_report(6, include_bruteforce=False)
    assert rep.ok
    assert rep.betti == (1, 1, 10081, 0, 0, 1)
    assert rep.critical == (1, 720, 10800, 0, 0, 1)
    assert rep.rank_d2 == 719


def test_report_n6_memory():
    # One listing of Δ(6) per dimension, membership by bisecting those lists,
    # shared descent values, each cell one tuple shared by Δ's facets, the
    # face levels and the matching, and no upper cell in the descent memo:
    # the rise is about 39.4 MB. It was 40.0 MB with upper cells in the memo
    # and Δ's facets deduplicated through a hash set, 47 MB with copied
    # triangles, matching cells and a cached census, and about 70 MB with a
    # second listing, a frozenset of every cell and a new set per value.
    betti, rise_kb = _rss_rise("from expmorse.pipeline import theorem1_report",
                               "theorem1_report(6, include_bruteforce=False).betti")
    assert betti == "(1, 1, 10081, 0, 0, 1)"
    assert rise_kb < 44 * 1024
