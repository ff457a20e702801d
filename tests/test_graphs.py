from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expmorse.complexes import neighborhood_complex
from expmorse.errors import InvalidArgumentError, ResourceLimitError
from expmorse.gf2 import betti_bounded
from expmorse.graphs import (Graph, complete_graph, core_vertices,
                             cycle_graph, exponential_graph,
                             fold_core_exponential, fold_reduce,
                             graph_from_json, graph_to_json, map_label,
                             missing_value, neighborhood, variant)
from oracles import categorical_product, find_fold


def _brute_exponential_edges(G: Graph, H: Graph):
    """Adjacency straight from the definition, maps as value tuples."""
    ng, nh = len(G.labels), len(H.labels)
    gedges = G.edges() + [(v, v) for v in G.loops()]
    maps = list(itertools.product(range(nh), repeat=ng))

    def ok(f, g):
        for (u, v) in gedges:
            if g[v] not in H.neighbors(f[u]):
                return False
            if f[v] not in H.neighbors(g[u]):
                return False
        return True

    adj = set()
    for i, f in enumerate(maps):
        for j in range(i, len(maps)):
            if ok(f, maps[j]):
                adj.add((i, j))
    return maps, adj


@pytest.mark.parametrize("g,h", [
    (complete_graph(2), complete_graph(3)),
    (complete_graph(2), cycle_graph(4)),
    (cycle_graph(3), complete_graph(3)),
    (Graph.from_edges(["a", "b"], [(0, 1)], loops=[1]), complete_graph(2)),
    (complete_graph(3), complete_graph(4)),
    (complete_graph(4), complete_graph(5)),
])
def test_exponential_graph_matches_definition(g, h):
    maps, want = _brute_exponential_edges(g, h)
    E = exponential_graph(g, h)
    assert len(E.labels) == len(maps)
    got = set()
    for u in range(len(maps)):
        for v in E.neighbors(u):
            if v >= u:
                got.add((u, v))
    assert got == want


@st.composite
def _looped_graph(draw, most: int):
    n = draw(st.integers(1, most))
    edges = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    loops = [v for v in range(n) if draw(st.booleans())]
    return Graph.from_edges([str(v) for v in range(n)], edges, loops)


@settings(max_examples=200)
@given(_looped_graph(4), _looped_graph(5))
@example(Graph.from_edges(["a", "b"], [], loops=[0]),
         Graph.from_edges(list("abcde"), [(0, 1), (1, 2), (2, 3)], loops=[0, 4]))
def test_exponential_graph_matches_definition_on_drawn_pairs(g, h):
    # A position with few neighbors in G allows over half of H's vertices
    # (the complemented OR), one with many allows few (the plain OR).
    test_exponential_graph_matches_definition(g, h)


def test_exponential_complete_loops_are_injective_maps():
    E = exponential_graph(complete_graph(3), complete_graph(4))
    # a map is self-adjacent iff distinct arguments get distinct values
    maps = list(itertools.product(range(4), repeat=3))
    want = {i for i, f in enumerate(maps) if len(set(f)) == 3}
    assert set(E.loops()) == want


def test_exponential_vertex_bound():
    with pytest.raises(ResourceLimitError):
        exponential_graph(complete_graph(10), complete_graph(10))


def test_complete_and_cycle_structure():
    k5 = complete_graph(5)
    assert len(k5.edges()) == 10 and not k5.loops()
    c6 = cycle_graph(6)
    assert sorted(c6.edges()) == sorted(
        tuple(sorted((i, (i + 1) % 6))) for i in range(6))


def test_categorical_product_is_two_disjoint_edges():
    P = categorical_product(complete_graph(2), complete_graph(2))
    assert len(P.labels) == 4
    assert len(P.edges()) == 2
    deg = sorted(len(P.neighbors(v)) for v in range(4))
    assert deg == [1, 1, 1, 1]


def test_map_helpers():
    assert map_label((3, 3, 3)) == "<3>"
    assert map_label((1, 3, 2)) == "132"
    assert map_label((1, 10)) == "1,10"
    assert map_label((10, 10)) == "<10>"
    f = (1, 3, 2)
    assert missing_value(f, 4) == 4
    assert variant(f, 1, 4) == (4, 3, 2)
    assert variant(f, 3, 4) == (1, 3, 4)
    for bad in [((1, 1, 2), 1, 4), (f, 0, 4), (f, 1, 2)]:
        with pytest.raises(InvalidArgumentError):
            variant(*bad)


def test_neighborhood_intersection():
    g = cycle_graph(5)
    assert neighborhood(g, [0]) == (1, 4)
    assert neighborhood(g, [0, 2]) == (1,)
    assert neighborhood(g, [0, 1]) == ()


def test_find_fold_oracle():
    # vertex 3 duplicates vertex 1's neighborhood inside a path
    g = Graph.from_edges(list("abcd"), [(0, 1), (1, 2), (2, 3), (0, 3)])
    found = find_fold(g)
    assert found is not None
    u, v = found
    assert set(g.neighbors(u)) <= set(g.neighbors(v))


def test_fold_reduce_reaches_stiff_graph():
    g = cycle_graph(4)
    f = fold_reduce(g)
    assert find_fold(f) is None
    assert len(f.labels) == 2 and len(f.edges()) == 1


@settings(max_examples=300)
@given(_looped_graph(9))
def test_fold_reduce_deletes_the_oracle_folds_in_order(G):
    # the oracle deletes find_fold's first vertex until no fold is left
    want = G
    while (fold := find_fold(want)) is not None:
        want = want.induced([v for v in range(want.vertex_count) if v != fold[0]])
    got = fold_reduce(G)
    assert got.labels == want.labels
    assert got.edges() == want.edges()
    assert got.loops() == want.loops()


def test_fold_preserves_neighborhood_betti():
    rng = random.Random(11)
    done = 0
    while done < 12:
        nv = rng.randint(4, 8)
        g = Graph.from_edges(
            [str(i) for i in range(nv)],
            [(i, j) for i in range(nv) for j in range(i + 1, nv)
             if rng.random() < 0.45])
        if find_fold(g) is None or not g.edges():
            continue
        b1 = betti_bounded(neighborhood_complex(g), 6).betti
        h = fold_reduce(g)
        if not h.edges() and not h.loops():
            continue
        b2 = betti_bounded(neighborhood_complex(h), 6).betti
        trim = lambda t: tuple(itertools.dropwhile(lambda x: x == 0, reversed(t)))[::-1]
        assert trim(b1) == trim(b2)
        done += 1


def _by_label(G: Graph):
    """Edges and loops named by vertex labels, so two numberings compare."""
    L = G.labels
    return {frozenset((L[u], L[v])) for u, v in G.edges()}, {L[v] for v in G.loops()}


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (4, 3)])
def test_fold_core_matches_iterated_folding(m, n):
    folded = fold_reduce(exponential_graph(complete_graph(n), complete_graph(m)))
    core = fold_core_exponential(m, n)
    assert sorted(folded.labels) == sorted(core.labels)
    assert _by_label(folded) == _by_label(core)


@pytest.mark.parametrize("m,n", [(5, 4), (6, 5), (3, 5), (5, 5), (2, 6)])
def test_core_is_induced_on_the_core_maps(m, n):
    core = fold_core_exponential(m, n)
    E = exponential_graph(complete_graph(n), complete_graph(m))
    keep = set(core_vertices(m, n))
    maps = itertools.product(range(1, m + 1), repeat=n)
    sub = E.induced([i for i, f in enumerate(maps) if f in keep])
    assert sorted(sub.labels) == sorted(core.labels)
    assert _by_label(sub) == _by_label(core)


@pytest.mark.parametrize("m,n,count", [
    (4, 3, 4 + 24), (5, 4, 5 + 120), (3, 2, 9), (2, 4, 2), (3, 5, 3),
])
def test_core_vertex_counts(m, n, count):
    assert len(core_vertices(m, n)) == count
    if m >= n:
        assert count == m + math.factorial(m) // math.factorial(m - n)


@pytest.mark.parametrize("m,n", [(4, 3), (5, 4), (3, 5), (6, 5)])
def test_core_lists_the_constants_then_the_injective_maps(m, n):
    # <x> has id x - 1 and the injective maps follow; the id tests rely on it
    verts = core_vertices(m, n)
    assert verts[:m] == [(x,) * n for x in range(1, m + 1)]
    assert verts[m:] == [f for f in itertools.product(range(1, m + 1), repeat=n)
                         if len(set(f)) == n]


def test_core_is_stiff():
    for m, n in [(4, 3), (3, 2), (5, 4), (2, 5)]:
        assert find_fold(fold_core_exponential(m, n)) is None


def test_graph_json_round_trip():
    g = Graph.from_edges(["x", "y", "z"], [(0, 1), (1, 2)], loops=[2])
    h = graph_from_json(graph_to_json(g))
    assert (h.labels, h.edges(), h.loops()) == (g.labels, g.edges(), g.loops())
    with pytest.raises(InvalidArgumentError):
        graph_from_json({"vertex_labels": ["a"]})
