from __future__ import annotations

import inspect
import os
import random
import subprocess
import sys
import time
from array import array
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expmorse import gf2, pipeline
from expmorse.complexes import DEFAULT_MAX_FACES, Complex, build_delta, neighborhood_complex
from expmorse.errors import InvalidArgumentError, InvalidChainError, ResourceLimitError
from expmorse.gf2 import (BettiTable, Gf2Matrix, _cone_rank, _reduce_coboundary, betti_bounded,
                          betti_of_chain, rank_gf2, rank_of_bitsets)
from expmorse.graphs import Graph, complete_graph, cycle_graph, fold_core_exponential
from expmorse.homc import enumerate_hom_cells, order_complex_of_hom
from oracles import boundary_matrix, heap_reduce_coboundary, identity_matrix, zero_matrix


def _naive_rank(dense):
    """Textbook row reduction on 0/1 lists, written independently of gf2.py."""
    M = [list(row) for row in dense]
    ncols = len(M[0]) if M else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(len(M)):
            if i != rank and M[i][col]:
                M[i] = [(a + b) % 2 for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def _dense_of_columns(cols, nrows):
    """The 0/1 rows of the matrix whose column j has bit i at entry (i, j)."""
    return [[c >> i & 1 for c in cols] for i in range(nrows)]


def _columns_of_dense(dense, ncols):
    return [sum(row[j] << i for i, row in enumerate(dense)) for j in range(ncols)]


def test_rank_against_naive_elimination():
    rng = random.Random(7)
    for _ in range(150):
        nr, nc = rng.randint(1, 18), rng.randint(1, 18)
        cols = [rng.getrandbits(nr) for _ in range(nc)]
        M = Gf2Matrix(cols, nr)
        want = _naive_rank(_dense_of_columns(cols, nr))
        assert M.rank() == want
        assert rank_gf2(M) == want
        assert rank_of_bitsets(cols) == want


def test_matmul_against_naive():
    rng = random.Random(3)
    for _ in range(40):
        a, b, c = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
        A = Gf2Matrix([rng.getrandbits(a) for _ in range(b)], a)
        B = Gf2Matrix([rng.getrandbits(b) for _ in range(c)], b)
        P = A.matmul(B)
        assert (P.nrows, P.ncols) == (a, c)
        for i in range(a):
            for j in range(c):
                want = sum((A.cols[k] >> i & 1) * (B.cols[j] >> k & 1) for k in range(b)) % 2
                assert P.cols[j] >> i & 1 == want


def test_matrix_constructors_and_shapes():
    M = Gf2Matrix([0b11, 0b01], nrows=2)
    assert (M.nrows, M.ncols) == (2, 2)
    assert [M.cols[j] >> i & 1 for j in (0, 1) for i in (0, 1)] == [1, 1, 1, 0]
    assert M.column_weights() == [2, 1]
    assert identity_matrix(4).rank() == 4
    Z = zero_matrix(3, 5)
    assert Z.is_zero() and (Z.nrows, Z.ncols) == (3, 5)
    assert not hasattr(M, "rows")
    with pytest.raises(InvalidArgumentError):
        Gf2Matrix([0b100], 2)  # column overflows declared height
    with pytest.raises(InvalidArgumentError):
        identity_matrix(2).matmul(identity_matrix(3))


@st.composite
def _dense_factors(draw):
    """Dense 0/1 matrices A (m x k) and B (k x p), as lists of rows."""
    m, k, p = (draw(st.integers(0, 7)) for _ in range(3))
    bits = st.integers(0, 1)
    A = draw(st.lists(st.lists(bits, min_size=k, max_size=k), min_size=m, max_size=m))
    B = draw(st.lists(st.lists(bits, min_size=p, max_size=p), min_size=k, max_size=k))
    return A, B, m, k, p


@settings(max_examples=150)
@given(_dense_factors())
def test_column_matrix_against_dense_oracle(factors):
    A, B, m, k, p = factors
    MA = Gf2Matrix(_columns_of_dense(A, k), m)
    MB = Gf2Matrix(_columns_of_dense(B, p), k)
    At = [[A[i][j] for i in range(m)] for j in range(k)]
    assert MA.rank() == _naive_rank(A) == _naive_rank(At)
    P = MA.matmul(MB)
    assert (P.nrows, P.ncols) == (m, p)
    for i in range(m):
        for j in range(p):
            assert P.cols[j] >> i & 1 == sum(A[i][t] * B[t][j] for t in range(k)) % 2
    assert MA.column_weights() == [sum(A[i][j] for i in range(m)) for j in range(k)]
    with pytest.raises(InvalidArgumentError):
        Gf2Matrix(_columns_of_dense(A, k) + [1 << m], m)
    with pytest.raises(InvalidArgumentError):
        Gf2Matrix([], -1)


def test_boundary_matrix_entries():
    C = Complex(list("abc"), [(0, 1, 2)])
    d1 = boundary_matrix(C, 1)
    # each edge hits exactly its two endpoints
    assert d1.column_weights() == [2, 2, 2]
    d2 = boundary_matrix(C, 2)
    assert d2.column_weights() == [3]
    assert d1.matmul(d2).is_zero()


@pytest.mark.parametrize("C,want", [
    (Complex(list("ab"), [(0,), (1,)]), (2,)),
    (Complex(list("abc"), [(0, 1), (1, 2), (0, 2)]), (1, 1)),
    (Complex(list("abc"), [(0, 1, 2)]), (1, 0, 0)),
    (Complex(list("abcd"), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]), (1, 0, 1)),
])
def test_betti_on_known_spaces(C, want):
    assert betti_bounded(C, len(want) - 1).betti == want


def test_betti_projective_plane_mod2():
    facets = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5)]
    C = Complex([str(i) for i in range(7)], facets)
    # closed surface, chi = 1; over Z2 all three Betti numbers are 1
    assert betti_bounded(C, 2).betti == (1, 1, 1)


def test_betti_relabeling_invariance():
    rng = random.Random(5)
    C = neighborhood_complex(cycle_graph(7))
    base = betti_bounded(C, C.dim).betti
    perm = list(range(C.vertex_count))
    rng.shuffle(perm)
    D = Complex(C.labels, [[perm[v] for v in f] for f in C.facets])
    assert betti_bounded(D, D.dim).betti == base


def test_dimensions_above_the_complex_cost_nothing():
    C = neighborhood_complex(complete_graph(3))  # a 3-cycle: dim 1
    start = time.perf_counter()
    bt = betti_bounded(C, 10**6)
    assert time.perf_counter() - start < 2
    assert bt.max_verified_dim == 10**6
    assert bt.betti[:2] == (1, 1) and not any(bt.betti[2:])
    # a table of zeros longer than the budget is refused, not built
    with pytest.raises(ResourceLimitError, match="max dim 1000000 is over the face budget 999999"):
        betti_bounded(C, 10**6, max_faces=999_999)


def test_betti_bounded_truncates_honestly():
    C = build_delta(3)
    bt = betti_bounded(C, 2, max_faces=800)
    assert bt.max_verified_dim < 2
    assert len(bt.betti) == bt.max_verified_dim + 1


def test_budget_checks_stop_at_the_first_dimension_over_the_budget(monkeypatch):
    C = Complex([str(v) for v in range(200)], [range(200)])  # a 199-simplex
    calls = []
    estimate = Complex.face_count_estimate
    monkeypatch.setattr(Complex, "face_count_estimate",
                        lambda self, d: calls.append(d) or estimate(self, d))
    # cumulative estimates: 200, 20,100, 1,333,500, 66,018,450, ...
    for budget, match, want in ((100, "even the vertices", [0]),
                                (1000, "too small to verify", [0, 1])):
        calls.clear()
        with pytest.raises(ResourceLimitError, match=match):
            betti_bounded(C, C.dim, max_faces=budget)
        assert calls == want
    calls.clear()
    assert betti_bounded(C, C.dim, max_faces=20_100).betti == (1,)
    assert calls == [0, 1, 2]
    calls.clear()
    with pytest.raises(ResourceLimitError, match="needs at least 66018450 steps"):
        C.faces_by_dim()
    assert calls == [0, 1, 2, 3]


def _dense_betti(C, maxdim):
    """Betti numbers 0..maxdim from whole boundary matrices, ranked densely."""
    bds = [boundary_matrix(C, k) for k in range(1, maxdim + 2)]
    faces = [bds[0].nrows] + [b.ncols for b in bds]
    ranks = [0] + [rank_gf2(b) for b in bds]
    return tuple(faces[k] - ranks[k] - ranks[k + 1] for k in range(maxdim + 1))


def _check_against_dense(C, maxdim, budget):
    """betti_bounded verifies the largest d <= maxdim whose faces up to d+1 fit the budget."""
    fits = -1
    for d in range(maxdim + 1):
        if sum(C.face_count_estimate(i) for i in range(d + 2)) > budget:
            break
        fits = d
    if fits < 0:
        with pytest.raises(ResourceLimitError):
            betti_bounded(C, maxdim, max_faces=budget)
        return
    bt = betti_bounded(C, maxdim, max_faces=budget)
    assert bt.max_verified_dim == fits
    assert bt.betti == _dense_betti(C, maxdim)[:fits + 1]


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=7), min_size=1, max_size=8),
       st.integers(1, 400))
def test_betti_bounded_against_dense_ranks(facets, small_budget):
    C = Complex([str(i) for i in range(9)], facets)
    for maxdim in range(C.dim + 2):
        for budget in (DEFAULT_MAX_FACES, small_budget):
            _check_against_dense(C, maxdim, budget)


@st.composite
def shaped_complexes(draw):
    """(shape, complex) on labels 0..8: a drawn base on 0..6, kept plain or reshaped.

    A cone adds the apex 7 to every facet. A suspension holds each facet
    twice, once with 7 and once with 8. Twins add 7, and maybe 8, to every
    facet holding a drawn vertex of the base, so twin and original dominate
    each other.
    """
    base = draw(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True),
                         min_size=1, max_size=6))
    shape = draw(st.sampled_from(("plain", "cone", "suspension", "twins")))
    if shape == "cone":
        facets = [f + [7] for f in base]
    elif shape == "suspension":
        facets = [f + [a] for f in base for a in (7, 8)]
    elif shape == "twins":
        used = sorted(set().union(*base))
        twins = dict(zip((7, 8), draw(st.lists(st.sampled_from(used), min_size=1, max_size=2))))
        facets = [f + [t for t, x in twins.items() if x in f] for f in base]
    else:
        facets = base
    return shape, Complex([str(i) for i in range(9)], facets)


@settings(max_examples=150)
@given(shaped_complexes(), st.integers(1, 400))
def test_betti_bounded_on_cones_suspensions_and_twins(shaped, small_budget):
    # cones and twins have dominated vertices (a cone's base vertices under
    # its apex, twin and original under each other); betti_bounded ranks
    # them as given, and must still match the dense ranks
    _, C = shaped
    for maxdim in range(C.dim + 2):
        for budget in (DEFAULT_MAX_FACES, small_budget):
            _check_against_dense(C, maxdim, budget)


@pytest.mark.parametrize("C, top", [
    (Complex(list("abcdef"), [range(6)]), 5),                # a 5-simplex
    (Complex(list("abcdef"), [(0, 1, 2, 3, 4), (0, 1, 2, 5), (3, 4, 5)]), 4),
    (Complex([str(i) for i in range(7)],                     # RP^2
             [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5)]), 2),
    (neighborhood_complex(complete_graph(6)), 4),
    (neighborhood_complex(cycle_graph(9)), 1),
    # NC(4): ∂₂ is ranked from facet cones (2,955 cones, 2,950 edges)
    (neighborhood_complex(fold_core_exponential(5, 4)), 1),
    # Hom(K2, K5): ∂₁ and ∂₂ stay on the coboundary route (2,880 cones each,
    # against 180 vertices and 1,140 edges), ∂₃ is ranked from 960 cones
    (order_complex_of_hom(enumerate_hom_cells(complete_graph(2), complete_graph(5))), 3),
], ids=[f"C{i}" for i in range(7)])
def test_betti_bounded_streamed_top_with_clearing(C, top):
    # every maxdim below C.dim leaves a nonempty streamed dimension, ranked
    # from facet cones or through a coboundary that skips the faces paired
    # one level down; top is C.dim but for NC(4), too large for dense ranks
    for maxdim in range(top + 1):
        _check_against_dense(C, maxdim, DEFAULT_MAX_FACES)


def test_streamed_top_route_choice(monkeypatch):
    log = []  # each level betti_bounded ranks: ("cone", v) or ("coboundary", k)
    listed = []  # each dimension faces_of_dim is asked for
    cone, coboundary = gf2._cone_rank, gf2._reduce_coboundary
    faces_of_dim = Complex.faces_of_dim

    def logged_cone(C, v):
        log.append(("cone", v))
        return cone(C, v)

    def logged_coboundary(C, faces, skip):
        log.append(("coboundary", len(faces[0]) - 1))
        return coboundary(C, faces, skip)

    monkeypatch.setattr(gf2, "_cone_rank", logged_cone)
    monkeypatch.setattr(gf2, "_reduce_coboundary", logged_coboundary)
    monkeypatch.setattr(Complex, "faces_of_dim",
                        lambda self, d: listed.append(d) or faces_of_dim(self, d))
    # NC(5)'s ∂₂: 56,556 cones, against 56,175 edges (counted) plus rank ∂₁ = 725
    # (the union-find joins of the facets' vertices), so no face is listed
    assert pipeline._nc_betti.__wrapped__(5).betti == (1, 1)
    assert log == [("cone", 1)]
    assert listed == []
    # Δ(6) is ranked whole, so no dimension is streamed; the edges' coboundary
    # is reduced, so they are listed, as is every level above them
    del log[:]
    D = build_delta(6)
    assert betti_bounded(D, D.dim).betti == (1, 1, 10081, 0, 0, 1)
    assert log == [("coboundary", k) for k in range(1, D.dim)]
    assert sorted(set(listed)) == [1, 2, 3, 4, 5]
    # nor are the neighborhood and Hom complexes of G(n, 1/2) on 5 and 6
    # vertices, as the benchmark's ad hoc queries take them
    rng, K2 = random.Random(12), complete_graph(2)
    for nv in (5, 6) * 10:
        pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
        g = Graph.from_edges([str(v) for v in range(nv)], [e for e in pairs if rng.random() < 0.5])
        for C in (neighborhood_complex(g), order_complex_of_hom(enumerate_hom_cells(K2, g))):
            del log[:]
            top = betti_bounded(C, max(C.dim, 0)).max_verified_dim
            assert top == max(C.dim, 0)
            assert log == [("coboundary", k) for k in range(1, C.dim)]


def _independent_columns(cols):
    """Indices of the columns outside the span of the columns before them."""
    basis, out = {}, []
    for j, c in enumerate(cols):
        while c and c.bit_length() in basis:
            c ^= basis[c.bit_length()]
        if c:
            basis[c.bit_length()] = c
            out.append(j)
    return out


def _code(face, base):
    return sum(x * base ** (len(face) - 1 - i) for i, x in enumerate(face))


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=7), min_size=1, max_size=8))
def test_cleared_coboundary_pairs_as_dense_reduction(facets):
    # at every level k >= 2, the pivots of the coboundary on the (k-1)-faces,
    # cleared by the (k-1)-faces paired one level down, are the k-faces whose
    # boundary column is independent of the columns before it in lex order
    C = Complex([str(i) for i in range(9)], facets)
    levels = C.faces_by_dim()

    def dense_paired(k):
        cols = boundary_matrix(C, k).cols
        return {_code(levels[k][j], 9) for j in _independent_columns(cols)}

    skip = dense_paired(1) if C.dim >= 1 else set()
    for k in range(2, C.dim + 1):
        pivots = set(_reduce_coboundary(C, levels[k - 1], skip))
        assert pivots == dense_paired(k)
        skip = pivots


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=7), min_size=1, max_size=8))
def test_union_find_joins_are_the_dense_pivots_of_d1(facets):
    # greedy on the graphic matroid: in lex order, the edges that join two
    # components are the columns of ∂₁ independent of the columns before them
    C = Complex([str(i) for i in range(9)], facets)
    edges = C.faces_of_dim(1)
    assert list(gf2._joins(edges)) == _independent_columns(boundary_matrix(C, 1).cols)


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 13), min_size=1, max_size=9), min_size=1, max_size=12))
def test_edge_count_is_the_number_of_edges(facets):
    C = Complex([str(i) for i in range(14)], facets)
    counted = C.edge_count()
    assert not C._levels  # counted before any level is listed
    assert counted == len(C.faces_of_dim(1))


def _facet_lists(min_size, max_size, max_facets):
    return st.lists(st.lists(st.integers(0, 8), min_size=min_size, max_size=max_size,
                             unique=True), min_size=1, max_size=max_facets)


# the rank step's cases for dims 0-1, each with facets and maxdims that reach it
_D1_CASES = {
    # the streamed top is ∂₁: rank ∂₁ is f₀ minus the components
    "v0-streamed": (_facet_lists(2, 7, 8), st.just(0)),
    # a graph: f₁ counted, no boundary above ∂₁
    "dim-1": (st.tuples(_facet_lists(2, 2, 12), _facet_lists(1, 1, 3)).map(lambda t: t[0] + t[1]),
              st.integers(1, 3)),
    # ∂₂ ranked from facet cones: f₁ counted, no face listed
    "v1-cones": (_facet_lists(3, 5, 4), st.just(1)),
    # ∂₂ ranked through the edges' coboundary: edges listed and joined in lex order
    "v1-coboundary": (_facet_lists(6, 7, 8), st.just(1)),
    # levels 1..v listed, the edges' joins are their skip set
    "v2-up": (_facet_lists(3, 7, 8), st.integers(2, 7)),
}


@pytest.mark.parametrize("case", list(_D1_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_betti_bounded_on_each_d1_case(case, data):
    facets, maxdims = _D1_CASES[case]
    C = Complex([str(i) for i in range(9)], data.draw(facets))
    maxdim = data.draw(maxdims)
    betti = betti_bounded(C, maxdim).betti
    listed = set(C._levels)  # the dimensions faces_of_dim has listed
    dims = min(maxdim, C.dim) + 1
    if dims == 2 and C.dim >= 2:
        cones = (sum(comb(len(F) - 1, 2) for F in C.facets)
                 <= len(C.faces_of_dim(1)) + rank_gf2(boundary_matrix(C, 1)))
        reached = "v1-cones" if cones else "v1-coboundary"
    else:
        reached = {1: "v0-streamed" if C.dim >= 1 else None,
                   2: "dim-1"}.get(dims, "v2-up")
    assume(reached == case)
    assert betti == _dense_betti(C, maxdim)
    # vertices are never listed; edges only where their coboundary is reduced
    assert listed == (set(range(1, dims)) if case in ("v1-coboundary", "v2-up") else set())


def _reduces_as_heap_oracle(C, top):
    """Reduce the coboundary on levels 1..top both ways; the number of columns stored.

    Each level must give the oracle's pivots, and every column it stores
    must be the oracle's, strictly ascending from its pivot. Anything that is
    not a face (a tuple) is a stored column: an int64 array where every code
    of the level fits int64, a list of ints where one may not.
    """
    levels = [list(C.iter_faces_of_dim(d)) for d in range(top + 1)]
    skip = {_code(levels[1][j], C.vertex_count)
            for j in _independent_columns(boundary_matrix(C, 1).cols)}
    stored = 0
    for k in range(1, top + 1):
        got = _reduce_coboundary(C, levels[k], skip)
        want = heap_reduce_coboundary(C, levels[k], skip)
        assert set(got) == set(want), k
        for pivot, col in got.items():
            if not isinstance(col, tuple):
                # a column of level k holds codes of k + 2 digits
                assert isinstance(col, array) == (C.vertex_count ** (k + 2) <= 2 ** 63)
                col = list(col)
                assert col == want[pivot], (k, pivot)
                assert col[0] == pivot and all(a < b for a, b in zip(col, col[1:])), (k, pivot)
                stored += 1
        skip = set(got)
    return stored


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(0, 13), min_size=4, max_size=9, unique=True),
                min_size=4, max_size=12))
def test_coboundary_runs_against_heap_oracle(facets):
    # facets this large on 14 labels collide for several steps per column
    C = Complex([str(i) for i in range(14)], facets)
    _reduces_as_heap_oracle(C, C.dim)


_PAD = 10 ** 5


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(0, 13), min_size=4, max_size=9, unique=True),
                min_size=4, max_size=12))
def test_coboundary_runs_past_int64_against_heap_oracle(facets):
    # on the top 14 of 10^5 + 14 labels, codes of four or more digits can pass
    # int64, so those levels store their columns as lists, not arrays
    C = Complex([str(i) for i in range(_PAD + 14)], [[_PAD + v for v in f] for f in facets])
    assert C.vertex_count ** 4 > 2 ** 63
    _reduces_as_heap_oracle(C, C.dim)


_CONE_FACETS = st.lists(st.lists(st.integers(0, 13), min_size=4, max_size=9, unique=True),
                        min_size=4, max_size=12)


def _check_cone_rank(C):
    for k in range(C.dim + 1):
        want = rank_gf2(boundary_matrix(C, k + 1)) if k < C.dim else 0
        assert _cone_rank(C, k) == want, k


@settings(max_examples=60, deadline=None)
@given(_CONE_FACETS)
def test_cone_rank_against_dense_ranks(facets):
    # these facets share many faces that hold no facet's least vertex, so
    # most cone columns after the first at such a face add two star chains
    _check_cone_rank(Complex([str(i) for i in range(14)], facets))


@settings(max_examples=20, deadline=None)
@given(_CONE_FACETS)
def test_cone_rank_past_int64_against_dense_ranks(facets):
    # the same facets on the top 14 of 10^5 + 14 labels, where codes of faces
    # with four or more vertices pass int64
    _check_cone_rank(Complex([str(i) for i in range(_PAD + 14)],
                             [[_PAD + v for v in f] for f in facets]))


def test_nc4_coboundary_runs_against_heap_oracle():
    NC = neighborhood_complex(fold_core_exponential(5, 4))
    assert _reduces_as_heap_oracle(NC, 3) == 95  # all of them in the ∂₂ pass


def _vm_hwm_kb():
    """This process's peak RSS (KB) since exec, from VmHWM; None where it cannot be read."""
    try:
        with open("/proc/self/status") as f:
            return next((int(line.split()[1]) for line in f if line.startswith("VmHWM:")), None)
    except OSError:
        return None


def _rss_rise(setup, call):
    """Run `setup`, then print `call` and the peak RSS rise (KB) it caused, in a fresh process.

    The peak is the child's own VmHWM, which starts afresh at exec. Its
    ru_maxrss would not do: after exec it keeps the spawner's high-water
    mark, so under a pytest process larger than the child's own peak every
    rise read 0. Skipped where VmHWM cannot be read.
    """
    if _vm_hwm_kb() is None:
        pytest.skip("VmHWM cannot be read from /proc/self/status")
    code = (inspect.getsource(_vm_hwm_kb) + setup + "\n"
            "before = _vm_hwm_kb()\n"
            f"print({call})\n"
            "print(_vm_hwm_kb() - before)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    out, rise_kb = proc.stdout.splitlines()
    return out, int(rise_kb)


def test_delta6_brute_force_memory():
    # the coboundary reductions keep a pivot per paired face, not a dense
    # basis: Δ(6)'s ∂₂ alone once kept 45,374 pivots of up to 50,421 bits.
    # Nor does the complex keep a V-bit vertex mask per facet: those cost
    # another 20 MB here. The rise is about 4.7 MB: 3.4 MB when Δ's build
    # peaked 1.5 MB higher before the pass began (a hash set of all its
    # facets), with the same peak for the pass itself; it was 7.0 MB with
    # 55,447 rebuilt copies of the triangles.
    betti, rise_kb = _rss_rise("from expmorse.complexes import build_delta\n"
                               "from expmorse.gf2 import betti_bounded\n"
                               "C = build_delta(6)",
                               "betti_bounded(C, 5).betti")
    assert betti == "(1, 1, 10081, 0, 0, 1)"
    assert rise_kb < 5 * 1024


def test_nc5_brute_force_memory():
    # NC(5)'s pass lists no face: f₀, f₁ and rank ∂₁ are counted, and ∂₂ is
    # ranked from facet cones, storing no reduced column: it keeps the first
    # apex of each face only while the faces with its least vertex are taken,
    # and pivots over the 4,329 star faces, at most one each. The rise is
    # about 1.4 MB, nearly all of it the cones, and the bound is a quarter
    # above that plus 1 MB; it was about 6 MB when the 56,175 edges were
    # listed and ∂₁ reduced densely. On the coboundary route it was 48 MB
    # with collided columns kept as code lists, about 20 MB with only the
    # 599 reduced columns kept, and about 11 MB with those columns in int64
    # arrays.
    betti, rise_kb = _rss_rise("from expmorse.complexes import neighborhood_complex\n"
                               "from expmorse.gf2 import betti_bounded\n"
                               "from expmorse.graphs import fold_core_exponential\n"
                               "from expmorse.pipeline import _NC_MAX_FACES\n"
                               "NC = neighborhood_complex(fold_core_exponential(6, 5))",
                               "betti_bounded(NC, NC.dim, max_faces=_NC_MAX_FACES).betti")
    assert betti == "(1, 1)"
    assert rise_kb < 3 * 1024


def test_reproduce_n5_memory():
    # the paper's headline run rises about 6.3 MB above the imports now that
    # the NC(5) brute-force pass lists no face, and the bound is a quarter
    # above that plus 1 MB; it rose 11 MB with NC's edges listed and ∂₂
    # ranked from facet cones, 16.5 MB on the coboundary route, 25.5 MB
    # there with reduced columns as lists
    code, rise_kb = _rss_rise("import contextlib, io\n"
                              "from expmorse import cli\n"
                              "def run():\n"
                              "    with contextlib.redirect_stdout(io.StringIO()):\n"
                              "        return cli.main(['reproduce', '--n', '5'])",
                              "run()")
    assert code == "0"
    assert rise_kb < 9 * 1024


def test_betti_of_chain_rejects_bad_chains():
    good = boundary_matrix(Complex(list("abc"), [(0, 1, 2)]), 1)
    bad = identity_matrix(3)
    with pytest.raises(InvalidChainError):
        betti_of_chain([good, bad])
    with pytest.raises(InvalidChainError):
        betti_of_chain([zero_matrix(2, 3), zero_matrix(4, 2)])


def test_betti_of_chain_circle():
    C = Complex(list("abc"), [(0, 1), (1, 2), (0, 2)])
    chain = [boundary_matrix(C, 1)]
    assert betti_of_chain(chain).betti == (1, 1)


def test_agrees_with_compares_shared_dims():
    a = BettiTable((1, 1, 14), "morse", 2)
    b = BettiTable((1, 1), "bruteforce", 1)
    assert a.agrees_with(b) and b.agrees_with(a)
    assert not a.agrees_with(BettiTable((1, 2), "bruteforce", 1))


def test_betti_table_json_shape():
    d = BettiTable((1, 0, 1), "bruteforce", 2).to_json_dict()
    assert d == {"method": "bruteforce", "betti": [1, 0, 1], "max_verified_dim": 2}

