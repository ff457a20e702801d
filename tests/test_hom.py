from __future__ import annotations

import itertools

import pytest

from expmorse.complexes import neighborhood_complex
from expmorse.errors import ResourceLimitError
from expmorse.gf2 import betti_bounded
from expmorse.graphs import (Graph, categorical_product, complete_graph,
                             cycle_graph, fold_core_exponential)
from expmorse.homc import (HomCell, enumerate_hom_cells, hom_cover_digraph,
                           order_complex_of_hom)


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
    assert {c.assignment for c in cells} == want
    assert sorted(cells) == list(cells)


@pytest.mark.parametrize("b", [2, 3, 4])
def test_edge_to_clique_cell_count_formula(b):
    # ordered pairs of disjoint nonempty subsets of [b]
    cells = enumerate_hom_cells(complete_graph(2), complete_graph(b))
    assert len(cells) == 3 ** b - 2 * 2 ** b + 1


def test_cell_count_bound():
    with pytest.raises(ResourceLimitError):
        enumerate_hom_cells(complete_graph(4), complete_graph(5), max_configs=100)


def test_homcell_refines_and_label():
    a = HomCell(((0,), (1, 2)))
    b = HomCell(((0,), (1,)))
    assert b.refines(a) and not a.refines(b)
    assert a.dimension == 1 and b.dimension == 0
    assert a.label() == "0|1 2"


def test_cover_digraph_is_the_refinement_one_step_relation():
    cells = enumerate_hom_cells(complete_graph(2), complete_graph(3))
    cover = hom_cover_digraph(cells)
    for i, downs in cover.items():
        for j in downs:
            assert cells[j].refines(cells[i])
            assert cells[j].dimension == cells[i].dimension - 1
    # every non-minimal cell covers something
    total = sum(len(v) for v in cover.values())
    assert total > 0


@pytest.mark.parametrize("b,want", [(3, (1, 1)), (4, (1, 0, 1))])
def test_hom_edge_to_clique_spheres(b, want):
    cells = enumerate_hom_cells(complete_graph(2), complete_graph(b))
    OC = order_complex_of_hom(cells)
    assert betti_bounded(OC, len(want) - 1).betti == want


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
