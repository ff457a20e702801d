from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expmorse import homc
from expmorse.complexes import neighborhood_complex
from expmorse.errors import ResourceLimitError
from expmorse.gf2 import betti_bounded
from expmorse.graphs import (Graph, _bits, complete_graph, cycle_graph,
                             fold_core_exponential)
from expmorse.homc import HomPoset, enumerate_hom_cells, hom_poset, order_complex_of_hom
from oracles import categorical_product, dominated_vertices, hom_cover_rule, hom_order_complex


def _brute_hom_cells(G: Graph, H: Graph):
    """All multihomomorphisms by raw subset enumeration."""
    ng, nh = len(G.labels), len(H.labels)
    subsets = [tuple(s) for k in range(1, nh + 1)
               for s in itertools.combinations(range(nh), k)]
    gedges = G.edges() + [(v, v) for v in G.loops()]
    out = set()
    for assign in itertools.product(subsets, repeat=ng):
        good = all(b in H.neighbors(a)
                   for (u, v) in gedges
                   for a in assign[u] for b in assign[v])
        if good:
            out.add(assign)
    return out


@pytest.mark.parametrize("G,H", [
    (complete_graph(2), complete_graph(3)),
    (complete_graph(2), cycle_graph(4)),
    (complete_graph(3), complete_graph(3)),
    (cycle_graph(4), complete_graph(3)),
])
def test_enumeration_matches_brute_force(G, H):
    want = _brute_hom_cells(G, H)
    cells = enumerate_hom_cells(G, H)
    assert {tuple(map(_bits, c)) for c in cells} == want
    assert sorted(cells) == list(cells)


@pytest.mark.parametrize("b", [2, 3, 4])
def test_edge_to_clique_cell_count_formula(b):
    # ordered pairs of disjoint nonempty subsets of [b]
    cells = enumerate_hom_cells(complete_graph(2), complete_graph(b))
    assert len(cells) == 3 ** b - 2 * 2 ** b + 1


def test_cell_count_bound():
    # Hom(K4, K6) tests 174,258 candidate sets, under DEFAULT_MAX_CONFIGS:
    # its cells are the 4-tuples of disjoint nonempty subsets of [6].
    cells = enumerate_hom_cells(complete_graph(4), complete_graph(6))
    assert len(cells) == 5 ** 6 - 4 * 4 ** 6 + 6 * 3 ** 6 - 4 * 2 ** 6 + 1
    # Hom(K2×K5, K4) would test 21.5M and is refused early in the search.
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        enumerate_hom_cells(categorical_product(complete_graph(2), complete_graph(5)),
                            complete_graph(4))
    assert time.perf_counter() - start < 1


def test_hom_search_counts_the_sets_it_tests(monkeypatch):
    # 2,766 placements of 63 candidate sets each: 174,258 tests in all
    monkeypatch.setattr(homc, "DEFAULT_MAX_CONFIGS", 174_258)
    assert len(enumerate_hom_cells(complete_graph(4), complete_graph(6))) == 3360
    monkeypatch.setattr(homc, "DEFAULT_MAX_CONFIGS", 174_257)
    with pytest.raises(ResourceLimitError):
        enumerate_hom_cells(complete_graph(4), complete_graph(6))
    # one placement of 2^20 - 1 sets is over the bound before any table is built
    monkeypatch.undo()
    with pytest.raises(ResourceLimitError):
        enumerate_hom_cells(complete_graph(1), complete_graph(20))


def _label(cell) -> str:
    return "|".join(" ".join(map(str, s)) for s in cell)


def _below(a, b) -> bool:
    """Whether cell a lies strictly below cell b (cells as vertex tuples)."""
    return a != b and all(set(x) <= set(y) for x, y in zip(a, b))


def _brute_maximal_chains(cells):
    """Maximal chains of the cells under componentwise inclusion, each a set of cells."""
    ups = {a: [b for b in cells if _below(a, b)] for a in cells}
    covers = {a: [b for b in ups[a] if not any(_below(c, b) for c in ups[a])]
              for a in cells}
    chains = []

    def extend(chain):
        if not covers[chain[-1]]:
            chains.append(frozenset(chain))
        for b in covers[chain[-1]]:
            extend(chain + [b])

    for a in cells:
        if not any(_below(c, a) for c in cells):
            extend([a])
    return chains


def _brute_core(cells):
    """The cells left once beat points are removed one at a time, each found afresh.

    A beat point has exactly one upper or exactly one lower cover among the
    cells still left; covers are read off the strict order, as bitmasks over
    positions in `cells`.
    """
    cells = list(cells)
    n = len(cells)
    above = [sum(1 << j for j in range(n) if _below(a, cells[j])) for a in cells]
    below = [sum(1 << i for i in range(n) if above[i] >> j & 1) for j in range(n)]
    live = (1 << n) - 1
    while True:
        for a in _bits(live):
            up, down = above[a] & live, below[a] & live
            ups = [b for b in _bits(up) if not up & below[b]]
            downs = [b for b in _bits(down) if not down & above[b]]
            if len(ups) == 1 or len(downs) == 1:
                live ^= 1 << a
                break
        else:
            return {cells[a] for a in _bits(live)}


@st.composite
def _graph(draw):
    n = draw(st.integers(1, 4))
    edges = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    loops = [v for v in range(n) if draw(st.booleans())]
    return Graph.from_edges([str(v) for v in range(n)], edges, loops)


@settings(max_examples=80)
@given(_graph(), _graph())
@example(complete_graph(2), complete_graph(4))
def test_hom_facets_against_brute_force_cover(G, H):
    # the poset holds every cell once, at its dimension, and each cell's
    # facets are the cells one bit below it componentwise
    cells = enumerate_hom_cells(G, H)
    assume(len(cells) <= 150)
    P = hom_poset(cells)
    rule = hom_cover_rule(cells)
    assert P.size == len(cells) and all(c in P for c in cells)
    for c in cells:
        got = P.facets(c)
        assert len(got) == len(set(got)) and set(got) == set(rule(c)), c
        assert all(P.dim_of(f) == P.dim_of(c) - 1 for f in got)


# Edges a-b, b-c, c-d, b-d: Hom(K2, G) has 20 cells and a 12-cell core.
_NESTED = Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (1, 3)])


@settings(max_examples=60)
@given(_graph(), _graph())
@example(complete_graph(2), complete_graph(3))
@example(complete_graph(2), _NESTED)
def test_order_complex_matches_brute_force_chains(G, H):
    # the order complex of the poset's core: the kept cells are a core of
    # the whole poset (no beat point left, as many cells as any core), its
    # facets are their maximal chains, no vertex of it is dominated, and its
    # homology is the whole order complex's
    cells = enumerate_hom_cells(G, H)
    assume(len(cells) <= 120)
    brute = _brute_hom_cells(G, H)
    by_label = {_label(c): c for c in brute}
    OC = order_complex_of_hom(cells)
    assert len(set(OC.labels)) == len(OC.labels) and set(OC.labels) <= set(by_label)
    kept = [by_label[lab] for lab in OC.labels]
    got = {frozenset(OC.labels[v] for v in f) for f in OC.facets}
    want = {frozenset(map(_label, chain)) for chain in _brute_maximal_chains(kept)}
    assert got == want
    assert _brute_core(kept) == set(kept)
    assert len(kept) == len(_brute_core(brute))
    assert not dominated_vertices(OC.facets)
    full = hom_order_complex(cells)
    top = max(full.dim, 0)
    assert betti_bounded(OC, top) == betti_bounded(full, top)


def test_hom_core_has_every_dimension_of_the_whole_poset():
    # The benchmark compares NC(G) with Hom(K2, G) up to the lower verified
    # dimension, which the core's order complex lowers; above its dimension
    # NC and the whole order complex must have nothing either.
    rng, K2 = random.Random(29), complete_graph(2)
    for nv in (5, 6) * 20:
        pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
        g = Graph.from_edges([str(v) for v in range(nv)], [e for e in pairs if rng.random() < 0.5])
        cells = enumerate_hom_cells(K2, g)
        top = max(map(HomPoset.dim_of, cells), default=0)
        core = betti_bounded(order_complex_of_hom(cells), top)
        assert core.max_verified_dim == top
        assert core == betti_bounded(neighborhood_complex(g), top)
        assert core == betti_bounded(hom_order_complex(cells), top)


@pytest.mark.parametrize("b,want", [(3, (1, 1)), (4, (1, 0, 1)), (5, (1, 0, 0, 1)),
                                    (6, (1, 0, 0, 0, 1))])
def test_hom_edge_to_clique_spheres(b, want):
    cells = enumerate_hom_cells(complete_graph(2), complete_graph(b))
    OC = order_complex_of_hom(cells)
    assert betti_bounded(OC, len(want) - 1).betti == want
    # a poset without beat points has an order complex without dominated
    # vertices, so there is nothing left for a strong collapse to remove
    assert not dominated_vertices(OC.facets)


def test_hom_of_disjoint_edges_is_a_torus():
    G = categorical_product(complete_graph(2), complete_graph(2))
    cells = enumerate_hom_cells(G, complete_graph(3))
    OC = order_complex_of_hom(cells)
    assert betti_bounded(OC, 2).betti == (1, 2, 1)


def _trimmed_betti(C):
    bt = betti_bounded(C, max(C.dim, 0)).betti
    while len(bt) > 1 and bt[-1] == 0:
        bt = bt[:-1]
    return bt


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)])
def test_hom_of_edge_times_clique_is_a_sphere(n, m):
    # the paper's second claim on Hom itself: Hom(K2×Kn, Km) ≃ S^{m-2} for m < n
    G = categorical_product(complete_graph(2), complete_graph(n))
    OC = order_complex_of_hom(enumerate_hom_cells(G, complete_graph(m)))
    assert _trimmed_betti(OC) == ((2,) if m == 2 else (1,) + (0,) * (m - 3) + (1,))


def test_lovasz_equivalence_on_sample():
    for G in [complete_graph(3), cycle_graph(5), cycle_graph(6),
              fold_core_exponential(3, 2)]:
        nb = _trimmed_betti(neighborhood_complex(G))
        cells = enumerate_hom_cells(complete_graph(2), G)
        hb = _trimmed_betti(order_complex_of_hom(cells))
        assert nb == hb


def test_order_complex_budget_counts_chain_vertices():
    cells = enumerate_hom_cells(complete_graph(2), complete_graph(6))
    OC = order_complex_of_hom(cells)
    assert len(OC.facets) == 11_520
    spent = OC.face_count_estimate(0)
    assert order_complex_of_hom(cells, max_faces=spent) == OC
    with pytest.raises(ResourceLimitError):
        order_complex_of_hom(cells, max_faces=spent - 1)
    with pytest.raises(ResourceLimitError):
        order_complex_of_hom(cells, max_faces=1000)
