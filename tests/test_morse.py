from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Callable, Dict, Sequence, Tuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expmorse.complexes import Complex, Face, build_delta, neighborhood_complex
from expmorse.errors import InternalConsistencyError, InvalidArgumentError
from expmorse.gf2 import betti_bounded, betti_of_chain
from expmorse.graphs import complete_graph, cycle_graph
from expmorse.homc import HomPoset, enumerate_hom_cells, hom_poset, order_complex_of_hom
from expmorse.morse import (_EMPTY, AcyclicityResult, DescentCache, FacePoset,
                            critical_cells, face_poset, is_acyclic, morse_boundaries,
                            path_cells, validate_matching)
from oracles import (FreshDescent, _subfaces, alternating_path_parity,
                     categorical_product, cell_set, dfs_acyclicity,
                     enumerate_alternating_paths, hom_cover_rule,
                     validate_matching_by_set)
from test_hom import _graph

SQUARE = Complex(list("abcd"), [(0, 1), (1, 2), (2, 3), (0, 3)])
CYCLIC_MATCHING = {(0,): (0, 1), (1,): (1, 2), (2,): (2, 3), (3,): (0, 3)}
# Both descents from (0, 1) end in (2, 3), so its support cancels to empty;
# (0, 5) descends only to (0, 1) and to the upper cell (1, 5). Both still lie
# on paths out of the critical triangle (0, 4, 5).
CANCELLING = (face_poset(Complex(list("abcdef"), [(0, 1, 2), (0, 2, 3), (1, 2, 3),
                                                  (0, 1, 5), (0, 4, 5)])),
              {(0, 1): (0, 1, 2), (0, 2): (0, 2, 3), (1, 2): (1, 2, 3),
               (0, 5): (0, 1, 5), (0,): (0, 3), (1,): (1, 3),
               (4,): (0, 4), (5,): (1, 5)})


def test_face_poset_structure():
    P = face_poset(build_delta(3))
    assert P.dim == 2
    assert len(P.cells(0)) == 28
    assert all(len(c) == d + 1 for d in range(3) for c in P.cells(d))
    assert (0,) in P and (0, 1) in P
    assert P.size == sum(len(P.cells(d)) for d in range(P.dim + 1))


def test_validate_matching_flags_defects():
    P = face_poset(SQUARE)
    assert validate_matching(P, CYCLIC_MATCHING) == []
    assert validate_matching(P, {(0,): (1, 2)})          # not a cover
    assert validate_matching(P, {(9,): (0, 1)})          # not a cell
    assert validate_matching(P, {(0,): (0, 1), (1,): (0, 1)})  # reused upper
    assert validate_matching(P, {(0,): (0, 1), (0, 1): (9,)})
    # an unsorted tuple is neither a cell nor a facet of any cell
    P = face_poset(Complex(list("abc"), [(0, 1, 2)]))
    assert validate_matching(P, {(1, 0): (0, 1, 2)}) == [
        "(1, 0) is not a cell of the poset", "(1, 0) -> (0, 1, 2) is not a cover relation"]


def test_validate_matching_on_hom_poset():
    # Hom(K2, K3): cells are (mask, mask) pairs, covers clear one bit of one mask
    P = hom_poset(enumerate_hom_cells(complete_graph(2), complete_graph(3)))
    assert validate_matching(P, {(0b001, 0b010): (0b001, 0b110)}) == []
    assert validate_matching(P, {(0b001, 0b010): (0b001, 0b100)}) == [
        "(1, 2) -> (1, 4) is not a cover relation"]
    # the face rule is not applied to a non-cell, whose masks may not even decode
    assert validate_matching(P, {(0b001, 0b010): (-1, 0b100)}) == [
        "(-1, 4) is not a cell of the poset", "(1, 2) -> (-1, 4) is not a cover relation"]


def test_descent_cache_rejects_duplicate_upper():
    with pytest.raises(InternalConsistencyError, match="matched twice"):
        DescentCache(face_poset(SQUARE), {(0,): (0, 1), (1,): (0, 1)})


def test_cyclic_fixture_rejected_with_explicit_cycle():
    res = is_acyclic(DescentCache(face_poset(SQUARE), CYCLIC_MATCHING))
    assert not res.acyclic
    cyc = res.cycle
    assert cyc[0] == cyc[-1] and len(cyc) >= 5 and len(cyc) % 2 == 1
    for i, cell in enumerate(cyc[:-1]):
        neigh = cyc[i + 1]
        small, big = sorted((cell, neigh), key=len)
        assert len(big) == len(small) + 1 and set(small) < set(big)
        if i % 2 == 0:
            assert CYCLIC_MATCHING[cell] == neigh  # up through the pairing
    # The memoized descent walk refuses the cycle instead of looping.
    with pytest.raises(InternalConsistencyError):
        DescentCache(face_poset(SQUARE), CYCLIC_MATCHING).sets((0,))
    with pytest.raises(InternalConsistencyError):
        path_cells(DescentCache(face_poset(SQUARE), CYCLIC_MATCHING), [(0, 1)])


def test_breaking_the_cycle_restores_acyclicity():
    P = face_poset(SQUARE)
    pairs = dict(CYCLIC_MATCHING)
    del pairs[(3,)]
    cache = DescentCache(P, pairs)
    assert is_acyclic(cache).acyclic
    crit = critical_cells(P, cache)
    assert crit.counts == (1, 1)
    chain = morse_boundaries(crit, cache)
    assert betti_of_chain(chain).betti == (1, 1)


def test_critical_cells_partition():
    P = face_poset(SQUARE)
    pairs = dict(CYCLIC_MATCHING)
    del pairs[(3,)]
    crit = critical_cells(P, DescentCache(P, pairs))
    assert crit.total + 2 * len(pairs) == P.size
    assert crit.cells(0) == ((3,),)


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5), min_size=1, max_size=6),
       st.lists(st.lists(st.integers(-1, 7), max_size=5), max_size=8))
def test_membership_by_bisection_against_frozenset(facets, queries):
    # every cell, and drawn tuples: unsorted, repeated, empty, out of range
    P = face_poset(Complex([str(i) for i in range(7)], facets))
    cells = cell_set(P)
    assert P.size == len(cells)
    for q in sorted(cells) + [tuple(q) for q in queries] + [(), tuple(range(7)), (0,) * 9]:
        assert (q in P) == (q in cells), q


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5), min_size=1, max_size=6),
       st.lists(st.tuples(st.lists(st.integers(-1, 7), max_size=4),
                          st.lists(st.integers(-1, 7), max_size=5)), max_size=10),
       st.randoms(use_true_random=False))
def test_validate_matching_against_frozenset(facets, drawn, rng):
    # cover pairs of the poset mixed with drawn pairs: non-cells, non-covers,
    # reused uppers and cells on both sides all give the oracle's messages
    P = face_poset(Complex([str(i) for i in range(7)], facets))
    cover = [(low, up) for d in range(P.dim) for up in P.cells(d + 1)
             for low in itertools.combinations(up, d + 1)]
    pairs = dict(rng.sample(cover, min(len(cover), 6)))
    pairs.update((tuple(a), tuple(b)) for a, b in drawn)
    assert validate_matching(P, pairs) == validate_matching_by_set(P, pairs)


def test_morse_chain_with_only_critical_vertices():
    # no critical cell above dimension 0: ∂₁ is a 1×0 matrix, not an empty chain
    P = face_poset(Complex(["a", "b"], [(0, 1)]))
    cache = DescentCache(P, {(0,): (0, 1)})
    crit = critical_cells(P, cache)
    assert crit.counts == (1, 0)
    chain = morse_boundaries(crit, cache)
    assert [(m.nrows, m.ncols) for m in chain] == [(1, 0)]
    assert betti_of_chain(chain).betti == (1,)
    two_points = face_poset(Complex(["a", "b"], [(0,), (1,)]))
    cache = DescentCache(two_points, {})
    chain = morse_boundaries(critical_cells(two_points, cache), cache)
    assert betti_of_chain(chain).betti == (2,)


@settings(max_examples=100)
@given(st.lists(st.sets(st.integers(1, 5), min_size=1, max_size=4), min_size=1, max_size=5),
       st.permutations(range(6)))
def test_cone_matching_collapses_to_a_point(base, relabel):
    # a cone over a drawn complex, with each face off the apex matched to its
    # join with the apex, leaves the apex as the only critical cell
    apex = relabel[0]
    facets = [[relabel[v] for v in f] + [apex] for f in base]
    C = Complex([str(i) for i in range(6)], facets)
    P = face_poset(C)
    pairs = {c: tuple(sorted(c + (apex,))) for d in range(P.dim + 1)
             for c in P.cells(d) if apex not in c}
    assert validate_matching(P, pairs) == []
    cache = DescentCache(P, pairs)
    assert is_acyclic(cache).acyclic
    crit = critical_cells(P, cache)
    assert crit.total == 1 and crit.cells(0) == ((apex,),)
    assert betti_of_chain(morse_boundaries(crit, cache)).betti == (1,)


def _check_memo_keys(cache: DescentCache) -> None:
    """After the acyclicity walk the memo holds every lower cell, some critical ones, no upper one.

    An upper cell's set is the shared empty set, answered without storing it.
    """
    assert is_acyclic(cache).acyclic
    memo, pairs, upper = cache._memo, cache.pairs, cache.upper
    assert all(cache.sets(up) is _EMPTY for up in upper)
    assert set(pairs) <= set(memo)
    assert all(c in pairs or (c not in upper and memo[c] == {c}) for c in memo)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_descent_memo_keeps_no_upper_cell_on_delta(n):
    from expmorse.pipeline import build_matching_mu, delta_poset
    _check_memo_keys(DescentCache(delta_poset(n), build_matching_mu(n)))


def test_a_cell_on_both_sides_is_walked_as_lower():
    # (0, 1) is the upper cell of (0,) and the lower cell of (0, 1, 2): pairs
    # is asked before upper, so (0, 1) is expanded, both when asked itself
    # and when met as a kid of (0, 1, 3) on the walk from (0, 3)
    P = face_poset(Complex(list("abcd"), [(0, 1, 2), (0, 1, 3)]))
    pairs = {(0,): (0, 1), (0, 1): (0, 1, 2), (0, 3): (0, 1, 3)}
    assert validate_matching(P, pairs) == ["(0, 1) appears on both sides of the matching"]
    fresh = FreshDescent(pairs, _subfaces)
    for first in [(0, 3), (0, 1)]:
        cache = DescentCache(P, pairs)
        cache.sets(first)
        assert cache._memo[(0, 1)] == {(0, 2), (1, 2)}
        for c in [(0, 3), (0, 1), (0,)]:
            assert cache.sets(c) == fresh.sets(c)
    assert fresh.sets((0, 3)) == {(1, 3), (0, 2), (1, 2)}
    assert is_acyclic(DescentCache(P, pairs)).acyclic


def _check_descent_values(P: FacePoset, pairs, rule) -> None:
    """DescentCache's values and supports against FreshDescent under the oracle's face rule."""
    _check_memo_keys(DescentCache(P, pairs))
    cache, fresh = DescentCache(P, pairs), FreshDescent(pairs, rule)
    for d in range(P.dim + 1):
        for c in P.cells(d):
            got = cache.sets(c)
            assert got == fresh.sets(c), c
            if not got:
                assert got is _EMPTY
            elif len(got) == 1:
                (only,) = got
                assert got is cache.sets(only)
    crit = critical_cells(P, cache)
    for d in range(1, P.dim + 1):
        for tau in crit.cells(d):
            support = cache.boundary_support(tau)
            assert support == fresh.boundary_support(tau)
            assert cache.boundary_support(tau) is support
            for sigma in crit.cells(d - 1):
                assert (alternating_path_parity(pairs, rule, tau, sigma, fresh)
                        == (sigma in support))


def test_descent_values_shared_against_fresh_sets():
    """Shared descent values on drawn acyclic matchings, against fresh sets by plain recursion.

    Every empty value is the one shared empty set, every one-cell value {c}
    is c's own value, and a boundary support is memoized: the same object
    each time it is asked for.
    """
    drawn = [0]

    @settings(max_examples=200)
    @given(_drawn_cases())
    @example(CANCELLING)
    def check(case):
        P, pairs = case
        if not dfs_acyclicity(pairs, _subfaces).acyclic:
            return
        _check_descent_values(P, pairs, _subfaces)
        drawn[0] += 1

    check()
    assert drawn[0] >= 20


def _random_acyclic_matching(P: FacePoset, rng: random.Random) -> Dict[Face, Face]:
    cover = [(low, up)
             for d in range(P.dim)
             for up in P.cells(d + 1)
             for low in itertools.combinations(up, d + 1)]
    rng.shuffle(cover)
    pairs = {}
    used = set()
    for low, up in cover:
        if low in used or up in used:
            continue
        trial = dict(pairs)
        trial[low] = up
        if is_acyclic(DescentCache(P, trial)).acyclic:
            pairs = trial
            used.update((low, up))
    return pairs


def _drawn_pairs(draw, cover) -> Dict[Face, Face]:
    """A matching from a drawn prefix of the cover relations `cover`, shuffled.

    A relation in the prefix is paired when neither of its cells is paired
    yet; nothing filters out cyclic matchings.
    """
    order = draw(st.permutations(cover))
    pairs, used = {}, set()
    for low, up in order[:draw(st.integers(0, len(cover)))]:
        if low not in used and up not in used:
            pairs[low] = up
            used.update((low, up))
    return pairs


@st.composite
def _drawn_cases(draw) -> Tuple[FacePoset, Dict[Face, Face]]:
    """A small face poset and a drawn matching on it."""
    facets = draw(st.lists(st.sets(st.integers(0, 5), min_size=2, max_size=4),
                           min_size=2, max_size=7))
    P = face_poset(Complex([str(i) for i in range(6)], facets))
    cover = [(low, up)
             for d in range(P.dim)
             for up in P.cells(d + 1)
             for low in itertools.combinations(up, d + 1)]
    return P, _drawn_pairs(draw, cover)


@st.composite
def _drawn_hom_cases(draw) -> Tuple[HomPoset, Dict[Face, Face], Callable]:
    """A small Hom poset, a drawn matching on it and the brute-force Hom face rule."""
    G, H = draw(_graph()), draw(_graph())
    cells = enumerate_hom_cells(G, H)
    assume(0 < len(cells) <= 60)
    P = hom_poset(cells)
    assume(P.dim >= 2)  # lower posets rarely admit a cyclic matching
    rule = hom_cover_rule(cells)
    cover = [(low, up) for d in range(P.dim) for up in P.cells(d + 1) for low in rule(up)]
    return P, _drawn_pairs(draw, cover), rule


def _is_alternating_cycle(pairs, rule, cyc) -> bool:
    """Lower, upper, lower, ..., the first lower again: up through pairs, down to other facets."""
    if cyc[0] != cyc[-1] or len(cyc) < 5 or len(cyc) % 2 == 0:
        return False
    for low, up, nxt in zip(cyc[::2], cyc[1::2], cyc[2::2]):
        if pairs.get(low) != up:
            return False
        if nxt == low or nxt not in rule(up):
            return False
    return True


def _check_cycles(P: FacePoset, pairs, rule) -> bool:
    """The descent walk's verdict and cycle against the DFS oracle; returns the verdict."""
    res = is_acyclic(DescentCache(P, pairs))
    assert res.acyclic == dfs_acyclicity(pairs, rule).acyclic
    cache = DescentCache(P, pairs)
    raised = set()
    for x in pairs:
        try:
            cache.sets(x)
        except InternalConsistencyError:
            raised.add(x)
    if res.acyclic:
        assert res.cycle is None and not raised
    else:
        assert _is_alternating_cycle(pairs, rule, res.cycle), res.cycle
        assert set(res.cycle[::2]) <= raised
    return res.acyclic


def test_descent_walk_cycles_against_dfs_oracle():
    drawn = {True: 0, False: 0}  # acyclic -> examples

    @settings(max_examples=200)
    @given(_drawn_cases())
    def check(case):
        drawn[_check_cycles(*case, _subfaces)] += 1

    check()
    print(f"\n{drawn[False]} cyclic and {drawn[True]} acyclic matchings drawn")
    assert drawn[False] >= 20 and drawn[True] >= 20


def _check_path_queries(P: FacePoset, pairs, rule) -> None:
    """Path cells and boundary supports of an acyclic matching, against every path listed.

    The case runs on two fresh caches, one certified acyclic before any
    query and one queried first; both must give the oracle's answers.
    """
    crit = critical_cells(P, DescentCache(P, pairs))
    on_paths, support = {}, {}  # d -> cells on paths out of the critical d-cells
    for d in range(1, P.dim + 1):
        on_paths[d] = set(crit.cells(d))
        for tau in crit.cells(d):
            paths = enumerate_alternating_paths(pairs, rule, tau)
            on_paths[d].update(cell for path in paths for cell in path)
            ends = Counter(path[-1] for path in paths)
            support[tau] = frozenset(s for s, k in ends.items() if k % 2)
    walked_first, queried_first = DescentCache(P, pairs), DescentCache(P, pairs)
    fresh = FreshDescent(pairs, rule)
    assert is_acyclic(walked_first) == AcyclicityResult(True, None)
    for cache in (walked_first, queried_first):
        for d in range(1, P.dim + 1):
            assert path_cells(cache, crit.cells(d)) == on_paths[d]
            for tau in crit.cells(d):
                assert cache.boundary_support(tau) == support[tau]
                for sigma in crit.cells(d - 1):
                    assert (alternating_path_parity(pairs, rule, tau, sigma, fresh)
                            == (sigma in support[tau]))
    assert is_acyclic(queried_first) == AcyclicityResult(True, None)


def test_descent_queries_against_path_enumeration():
    """Path cells and boundary supports on drawn acyclic matchings, against every path listed."""
    drawn = [0]

    @settings(max_examples=200)
    @given(_drawn_cases())
    @example(CANCELLING)
    def check(case):
        P, pairs = case
        if not dfs_acyclicity(pairs, _subfaces).acyclic:
            return
        _check_path_queries(P, pairs, _subfaces)
        drawn[0] += 1

    check()
    assert drawn[0] >= 20


def test_descent_on_drawn_hom_matchings():
    """The three descent checks above on drawn matchings of small Hom posets.

    The engine reads `HomPoset.facets`; every oracle reads the brute-force
    cover relation over all cells.
    """
    drawn = {True: 0, False: 0}  # acyclic -> examples

    @settings(max_examples=200)
    @given(_drawn_hom_cases())
    def check(case):
        acyclic = _check_cycles(*case)
        if acyclic:
            _check_descent_values(*case)
            _check_path_queries(*case)
        drawn[acyclic] += 1

    check()
    print(f"\n{drawn[False]} cyclic and {drawn[True]} acyclic Hom matchings drawn")
    assert drawn[False] >= 5 and drawn[True] >= 20


def _element_matching(cells: Sequence[Face], colours: int) -> Dict[Face, Face]:
    """The sequential element matching on Hom cells.

    For each source vertex v and each colour a < `colours` in order, each
    cell still unmatched whose mask at v lacks a is paired with the cell
    that adds a there, when that cell is unmatched too.
    """
    free = set(cells)
    pairs = {}
    for v in range(len(cells[0])):
        for a in range(colours):
            bit = 1 << a
            for c in cells:
                if c in free and not c[v] & bit:
                    up = c[:v] + (c[v] | bit,) + c[v + 1:]
                    if up in free:
                        pairs[c] = up
                        free -= {c, up}
    return pairs


def _element_matching_betti(G, H) -> Tuple[int, ...]:
    """Betti numbers of Hom(G, H) by the element matching, which must be valid and acyclic.

    They must equal the order complex's Betti numbers by brute force.
    """
    cells = enumerate_hom_cells(G, H)
    P = hom_poset(cells)
    pairs = _element_matching(cells, H.vertex_count)
    assert validate_matching(P, pairs) == []
    cache = DescentCache(P, pairs)
    assert is_acyclic(cache).acyclic
    got = betti_of_chain(morse_boundaries(critical_cells(P, cache), cache)).betti
    OC = order_complex_of_hom(cells)
    want = betti_bounded(OC, OC.dim).betti
    width = max(len(got), len(want))
    assert got + (0,) * (width - len(got)) == want + (0,) * (width - len(want))
    return got


@pytest.mark.parametrize("G,H,betti", [
    (complete_graph(2), cycle_graph(5), (1, 1)),
    (complete_graph(2), complete_graph(4), (1, 0, 1)),
    (cycle_graph(5), complete_graph(3), (2, 2)),
    (categorical_product(complete_graph(2), complete_graph(3)), complete_graph(2), (2,)),
    (categorical_product(complete_graph(2), complete_graph(5)), complete_graph(2), (2,)),
], ids=["k2-c5", "k2-k4", "c5-k3", "k2xk3-k2", "k2xk5-k2"])
def test_element_matching_on_hom_complexes(G, H, betti):
    assert _element_matching_betti(G, H) == betti


@settings(max_examples=60)
@given(_graph(), _graph())
def test_element_matching_on_drawn_hom_complexes(G, H):
    assume(0 < len(enumerate_hom_cells(G, H)) <= 150)
    _element_matching_betti(G, H)


@pytest.mark.parametrize("seed", range(6))
def test_random_acyclic_matchings_preserve_betti(seed):
    # any acyclic matching must reproduce the brute-force homology
    rng = random.Random(seed)
    C = neighborhood_complex(cycle_graph(6)) if seed % 2 else Complex(
        list("abcde"), [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 4)])
    P = face_poset(C)
    pairs = _random_acyclic_matching(P, rng)
    assert validate_matching(P, pairs) == []
    want = betti_bounded(C, C.dim).betti
    cache = DescentCache(P, pairs)
    got = betti_of_chain(morse_boundaries(critical_cells(P, cache), cache)).betti
    width = max(len(got), len(want))
    assert got + (0,) * (width - len(got)) == want + (0,) * (width - len(want))


def test_parity_matches_exhaustive_enumeration():
    n = 3
    from expmorse.pipeline import build_matching_mu, delta_poset
    P = delta_poset(n)
    pairs = build_matching_mu(n)
    cache = DescentCache(P, pairs)
    fresh = FreshDescent(pairs, _subfaces)
    crit = critical_cells(P, cache)
    on_paths = set()
    for tau in crit.cells(2):
        paths = enumerate_alternating_paths(pairs, _subfaces, tau)
        on_paths.update(cell for p in paths for cell in p)
        ends = {}
        for p in paths:
            ends[p[-1]] = ends.get(p[-1], 0) + 1
        for sigma in crit.cells(1):
            want = ends.get(sigma, 0) % 2
            assert alternating_path_parity(pairs, _subfaces, tau, sigma, fresh) == want
        assert cache.boundary_support(tau) == frozenset(
            s for s, k in ends.items() if k % 2)
    assert path_cells(cache, crit.cells(2)) == on_paths | set(crit.cells(2))


def test_parity_rejects_non_critical_or_bad_dims():
    from expmorse.pipeline import build_matching_mu, delta_poset
    P = delta_poset(3)
    pairs = build_matching_mu(3)
    crit = critical_cells(P, DescentCache(P, pairs))
    tau = crit.cells(2)[0]
    with pytest.raises(InvalidArgumentError):
        alternating_path_parity(pairs, _subfaces, tau, crit.cells(0)[0])
    with pytest.raises(InvalidArgumentError):
        alternating_path_parity(pairs, _subfaces, tau, pairs[next(iter(pairs))])


def test_morse_chain_of_delta3_gives_known_betti():
    from expmorse.pipeline import build_matching_mu, delta_poset
    P = delta_poset(3)
    cache = DescentCache(P, build_matching_mu(3))
    chain = morse_boundaries(critical_cells(P, cache), cache)
    assert all(a.matmul(b).is_zero() for a, b in zip(chain, chain[1:]))
    assert betti_of_chain(chain).betti == (1, 1, 14)
