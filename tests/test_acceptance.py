"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single summary line, so a
verbose run doubles as the acceptance checklist. Pinned values come from the
closed-form counts and from independently computed brute-force homology.
"""
from __future__ import annotations

import json
import math
import random

import pytest

from expmorse.complexes import (Complex, build_delta, delta_via_collapse,
                                neighborhood_complex)
from expmorse.gf2 import betti_bounded, rank_gf2
from expmorse.graphs import (Graph, complete_graph, core_vertices, cycle_graph,
                             fold_core_exponential, fold_reduce)
from expmorse.homc import enumerate_hom_cells, order_complex_of_hom
from expmorse.morse import (DescentCache, critical_cells, face_poset, is_acyclic,
                            morse_boundaries)
from expmorse.pipeline import (_incidence, build_matching_mu, closed_form_critical,
                               corollary1_report, delta_poset,
                               wn_transposition_ordering)
from expmorse.cli import main
from oracles import _subfaces, boundary_matrix, enumerate_alternating_paths, find_fold


def _crosscheck(report, name):
    for cname, ok in report.crosschecks:
        if cname == name:
            return ok
    raise AssertionError(f"missing crosscheck {name}")


def test_a01_n3_betti_by_both_routes(timed_report3):
    rep, secs = timed_report3
    assert rep.betti == (1, 1, 14)
    assert _crosscheck(rep, "betti-delta-bruteforce")
    assert _crosscheck(rep, "betti-ncomplex-bruteforce-dims-0-8")
    assert rep.ok and secs < 10
    print(f"\n[PASS] n=3 betti (1,1,14) by Morse and full brute force, {secs:.2f}s")


def test_a02_n4_betti_with_full_dimension_bruteforce(timed_report4):
    rep, secs = timed_report4
    assert rep.betti == (1, 1, 121, 1)
    assert _crosscheck(rep, "betti-delta-bruteforce")
    assert _crosscheck(rep, "betti-ncomplex-bruteforce-dims-0-3")
    assert rep.ok and secs < 300
    print(f"\n[PASS] n=4 betti (1,1,121,1), brute force on all four dims, {secs:.2f}s")


def test_a03_n5_morse_with_partial_bruteforce(timed_report5):
    rep, secs = timed_report5
    assert rep.betti == (1, 1, 1081, 0, 1)
    assert rep.critical == (1, 120, 1200, 0, 1)
    assert rep.rank_d2 == 119
    assert _crosscheck(rep, "betti-ncomplex-bruteforce-dims-0-1")
    assert rep.ok and secs < 600
    print(f"\n[PASS] n=5 betti (1,1,1081,0,1), critical (1,120,1200,0,1), "
          f"rank 119, {secs:.2f}s")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a04_critical_census_equals_closed_form(n):
    P = delta_poset(n)
    crit = critical_cells(P, DescentCache(P, build_matching_mu(n)))
    assert crit == closed_form_critical(n)
    counts = crit.counts
    assert counts[0] == 1
    assert counts[1] == math.factorial(n)
    pairs = math.factorial(n) * n * (n - 1) // 2
    assert counts[2] == pairs + (1 if n == 3 else 0)
    if n > 3:
        assert counts[n - 1] == 1 and sum(counts[3:n - 1]) == 0
    print(f"\n[PASS] n={n} critical census equals the closed form: {counts}")


@pytest.mark.parametrize("n,rank", [(3, 5), (4, 23), (5, 119)])
def test_a05_incidence_rank_lemma(n, rank):
    A = _incidence(n)
    assert rank_gf2(A) == rank == math.factorial(n) - 1
    assert all(w == 2 for w in A.column_weights())
    assert all(c.bit_count() % 2 == 0 for c in A.cols)
    print(f"\n[PASS] n={n} incidence rank {rank}, all columns weight 2, even sums")


def _replace_one(values, x):
    return tuple(x if v == 1 else v for v in values)


@pytest.mark.parametrize("n", [3, 4])
def test_a06_two_path_structure_exhaustive(n):
    P = delta_poset(n)
    pairs = build_matching_mu(n)
    crit = critical_cells(P, DescentCache(P, pairs))
    ones = set(crit.cells(1))
    verts = core_vertices(n + 1, n)
    index = {f: i for i, f in enumerate(verts)}
    checked = 0
    for tau in crit.cells(2):
        injs = [v for v in tau if v > n]
        if len(injs) != 2:
            continue  # the all-constants cell carries no paths
        want = set()
        for v in injs:
            g = verts[v]
            missing = (set(range(1, n + 2)) - set(g)).pop()
            want.add((1, index[_replace_one(g, missing)]))
        ends = {}
        for p in enumerate_alternating_paths(pairs, _subfaces, tau):
            ends[p[-1]] = ends.get(p[-1], 0) + 1
        assert set(ends) == want and want <= ones
        assert all(k % 2 == 1 for k in ends.values())
        checked += 1
    assert checked == math.factorial(n) * n * (n - 1) // 2
    print(f"\n[PASS] n={n} every critical triangle reaches exactly its two "
          f"predicted 1-cells with odd parity ({checked} cells)")


def test_a07_acyclicity_certificates():
    for n in (3, 4, 5):
        assert is_acyclic(DescentCache(delta_poset(n), build_matching_mu(n))).acyclic
    square = Complex(list("abcd"), [(0, 1), (1, 2), (2, 3), (0, 3)])
    bad = {(0,): (0, 1), (1,): (1, 2), (2,): (2, 3), (3,): (0, 3)}
    res = is_acyclic(DescentCache(face_poset(square), bad))
    assert not res.acyclic and res.cycle is not None
    assert res.cycle[0] == res.cycle[-1] and len(res.cycle) >= 5
    print(f"\n[PASS] matchings certified acyclic for n=3,4,5; cyclic fixture "
          f"rejected with cycle of {len(res.cycle) - 1} cells")


@pytest.mark.parametrize("n", [3, 4])
def test_a08_collapse_soundness(n):
    assert delta_via_collapse(n) == build_delta(n)
    delta = build_delta(n)
    db = betti_bounded(delta, delta.dim)
    NC = neighborhood_complex(fold_core_exponential(n + 1, n))
    nb = betti_bounded(NC, delta.dim, max_faces=10_000_000)
    assert db.agrees_with(nb)
    print(f"\n[PASS] n={n} free-face census exhaustive; collapsed complex and "
          f"neighborhood complex agree on dims 0..{min(db.max_verified_dim, nb.max_verified_dim)}")


def test_a09_exponential_core_spectrum():
    assert corollary1_report(3, 5).betti == (1, 1)
    assert corollary1_report(4, 6).betti == (1, 0, 1)
    rep33 = corollary1_report(3, 3)
    assert rep33.components == 7
    for n in (3, 4):
        assert corollary1_report(n + 1, n).betti[1] == 1
    # K2 x K2 is two disjoint edges, so N(K3^{K2}) is homotopy equivalent to
    # Hom(K2 x K2, K3) = Hom(K2, K3) x Hom(K2, K3) = S^1 x S^1, the torus:
    # mod-2 Betti numbers (1, 2, 1) and 0 above
    assert corollary1_report(3, 2).betti == (1, 2, 1, 0)
    print("\n[PASS] core spectrum: (3,5) circle, (4,6) sphere, (3,3) has 7 "
          "components, m=n+1 has nonvanishing H1 (rank 1 for n>2)")


def _edge_graph(n, edges):
    return Graph.from_edges([str(i) for i in range(n)], edges)


def _lovasz_corpus():
    graphs = [complete_graph(k) for k in (2, 3, 4, 5)]
    graphs += [cycle_graph(k) for k in (4, 5, 6, 7)]
    graphs.append(fold_core_exponential(3, 2))
    graphs += [
        _edge_graph(3, [(0, 1), (1, 2)]),                        # path
        _edge_graph(4, [(0, 1), (1, 2), (2, 3)]),
        _edge_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        _edge_graph(6, [(i, i + 1) for i in range(5)]),
        _edge_graph(4, [(0, 1), (0, 2), (0, 3)]),                # stars
        _edge_graph(5, [(0, i) for i in range(1, 5)]),
        _edge_graph(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)]),   # K23
        _edge_graph(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)]),  # K33
        _edge_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                        (0, 3), (1, 4), (2, 5)]),                # prism
        _edge_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                        (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]),  # wheel
        _edge_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]),  # K4 less an edge
        _edge_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),  # bowtie
        _edge_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),          # paw
        _edge_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]),  # house
    ]
    return graphs


def _trim(t):
    t = tuple(t)
    while len(t) > 1 and t[-1] == 0:
        t = t[:-1]
    return t


def test_a10_lovasz_consistency_corpus():
    corpus = _lovasz_corpus()
    assert len(corpus) >= 20
    for g in corpus:
        NC = neighborhood_complex(g)
        nb = _trim(betti_bounded(NC, max(NC.dim, 0)).betti)
        OC = order_complex_of_hom(enumerate_hom_cells(complete_graph(2), g))
        hb = _trim(betti_bounded(OC, max(OC.dim, 0)).betti)
        assert nb == hb, g.labels
    torus = neighborhood_complex(fold_core_exponential(3, 2))
    assert betti_bounded(torus, 2).betti == (1, 2, 1)
    print(f"\n[PASS] edge-hom complex matches the neighborhood complex on "
          f"{len(corpus)} graphs; N(K_3^K_2) is a mod-2 torus (1,2,1)")


def test_a11a_boundary_squares_to_zero():
    caches = [DescentCache(delta_poset(n), build_matching_mu(n)) for n in (3, 4, 5)]
    chains = [morse_boundaries(critical_cells(delta_poset(n), cache), cache)
              for n, cache in zip((3, 4, 5), caches)]
    for C in [build_delta(3), neighborhood_complex(cycle_graph(6)),
              order_complex_of_hom(
              enumerate_hom_cells(complete_graph(2), complete_graph(4)))]:
        chains.append([boundary_matrix(C, k) for k in range(1, C.dim + 1)])
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert a.matmul(b).is_zero()
    print(f"\n[PASS] boundary composition vanishes on {len(chains)} chain complexes")


def test_a11b_fold_invariance_on_random_graphs():
    rng = random.Random(2024)
    done = 0
    while done < 50:
        nv = rng.randint(4, 8)
        g = Graph.from_edges(
            [str(i) for i in range(nv)],
            [(i, j) for i in range(nv) for j in range(i + 1, nv)
             if rng.random() < 0.45])
        if find_fold(g) is None or not g.edges():
            continue
        h = fold_reduce(g)
        if not h.edges() and not h.loops():
            continue
        b1 = _trim(betti_bounded(neighborhood_complex(g), 6).betti)
        b2 = _trim(betti_bounded(neighborhood_complex(h), 6).betti)
        assert b1 == b2
        done += 1
    print("\n[PASS] neighborhood homology invariant under folding on 50 "
          "random foldable graphs")


def test_a11c_transposition_orderings():
    for n in (2, 3, 4, 5):
        order = wn_transposition_ordering(n)
        assert len(order) == math.factorial(n)
        assert len(set(order)) == len(order)
        for a, b in zip(order, order[1:]):
            diff = [i for i in range(n) if a[i] != b[i]]
            assert len(diff) == 2
            i, j = diff
            assert a[i] == b[j] and a[j] == b[i]
    print("\n[PASS] value-string orderings are transposition Gray codes for "
          "n=2..5")


def test_a11d_deterministic_reports(capsys):
    outputs = []
    for _ in range(4):
        assert main(["reproduce", "--n", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    json.loads(outputs[0])
    print("\n[PASS] reports byte-identical across repeated runs")
