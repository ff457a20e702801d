from __future__ import annotations

import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expmorse import complexes, pipeline
from expmorse.complexes import (Complex, build_delta, complex_to_json,
                                delta_facet_families, delta_via_collapse,
                                neighborhood_complex)
from expmorse.errors import (InvalidArgumentError, PreconditionError,
                             ResourceLimitError)
from expmorse.graphs import complete_graph, cycle_graph, fold_core_exponential
from oracles import BitmaskComplex, _cascade_steps, _free_family_steps, all_facets_maximal
from test_gf2 import _rss_rise, shaped_complexes


def _brute_faces(C: Complex):
    out = set()
    for f in C.facets:
        for k in range(1, len(f) + 1):
            out.update(itertools.combinations(f, k))
    return out


def test_constructor_canonicalizes():
    C = Complex(["a", "b", "c"], [(2, 0), (0, 2), (1,), (0,)])
    # contained facets dropped, duplicates merged, vertices sorted
    assert C.facets == ((0, 2), (1,))
    assert C.dim == 1


def test_faces_by_dim_matches_subset_enumeration():
    for C in [neighborhood_complex(cycle_graph(5)), build_delta(3)]:
        want = _brute_faces(C)
        got = set()
        levels = C.faces_by_dim()
        for level in levels:
            got.update(level)
        assert got == want
        for d, level in enumerate(levels):
            assert list(level) == sorted(level)
            assert all(len(f) == d + 1 for f in level)
            assert set(C.iter_faces_of_dim(d)) == {f for f in want if len(f) == d + 1}


@settings(max_examples=200)
@given(shaped_complexes())
def test_a_face_of_a_facets_size_is_that_facet(shaped):
    # each maximal face is held once: its level lists the facet's own tuple
    _, C = shaped
    stored = {f: f for f in C.facets}
    listed = [face for d in range(C.dim + 1) for face in C.faces_of_dim(d) if face in stored]
    assert len(listed) == len(C.facets)
    assert all(face is stored[face] for face in listed)


@settings(max_examples=200)
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)
                .map(lambda f: tuple(sorted(f))), max_size=8),
       st.integers(0, 6))
@example([(3,), (0, 4, 7), (5,), (1, 2)], 0)
@example([(3,), (0, 4, 7), (1, 2)], 4)
def test_faces_of_dim_against_combinations(facets, dim):
    # facets of mixed sizes, one-vertex ones among them, at dims up to past every facet
    want = sorted({c for f in facets for c in itertools.combinations(f, dim + 1)})
    assert complexes._faces_of_dim(facets, dim) == want


@settings(max_examples=200)
@given(st.lists(st.lists(st.integers(0, 7), max_size=6), max_size=8), st.data())
def test_maximality_against_all_facets_filter(facets, data):
    # unsorted facets with repeated vertices, repeated facets, and facets
    # nested in others (a drawn part of a drawn facet, in reversed order,
    # and its last part of the same length, often a second facet of that size)
    for f in data.draw(st.lists(st.sampled_from(facets), max_size=4)) if facets else []:
        k = data.draw(st.integers(0, len(f)))
        facets = facets + [f, list(reversed(f[:k])), f[len(f) - k:]]
    C = Complex([str(i) for i in range(8)], data.draw(st.permutations(facets)))
    assert C.facets == all_facets_maximal(facets)
    assert C._index == [{j for j, f in enumerate(C.facets) if v in f} for v in range(8)]


def test_maximality_with_equal_sizes_under_a_longer_facet():
    # three triangles and an edge inside the 4-simplex go; the triangle off
    # it, and the edge whose vertex 5 lies in no longer facet, stay
    facets = [(0, 1, 2), (1, 2, 3), (0, 2, 4), (0, 1, 2, 3, 4), (3, 4, 6), (4, 5), (2, 3)]
    C = Complex([str(i) for i in range(7)], facets)
    assert C.facets == all_facets_maximal(facets) == ((0, 1, 2, 3, 4), (3, 4, 6), (4, 5))


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=7), min_size=1, max_size=8))
def test_face_listing_against_contains(facets):
    # the oracle tests every subset of the vertex set, so it shares nothing
    # with the listing; combinations() yields them in lex order
    V = 9
    C = Complex([str(i) for i in range(V)], facets)
    O = BitmaskComplex(C.labels, C.facets)
    levels = C.faces_by_dim()
    for d in range(C.dim + 1):
        want = [c for c in itertools.combinations(range(V), d + 1) if O.contains(c)]
        assert levels[d] == want
        faces = C.iter_faces_of_dim(d)
        assert iter(faces) is faces and list(faces) == want


def test_face_count_estimate_upper_bounds_actual():
    C = build_delta(3)
    for d in range(C.dim + 1):
        assert C.face_count_estimate(d) >= len(list(C.iter_faces_of_dim(d)))


@settings(max_examples=100)
@given(st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=9), max_size=12),
       st.integers(0, 10))
def test_face_count_estimate_is_the_per_facet_sum(facets, dim):
    C = Complex([str(i) for i in range(12)], facets)
    # a face one vertex short of a facet, held by that facet alone, collapses away
    free = [(g, f) for f in C.facets if len(f) > 1
            for g in itertools.combinations(f, len(f) - 1)
            if len(C.cofacet_vertices(g)) == 1][:1]
    collapsed = BitmaskComplex(C.labels, C.facets).collapse(free)
    for K in (C, Complex(C.labels, collapsed.facets)):
        assert K.face_count_estimate(dim) == sum(math.comb(len(f), dim + 1) for f in K.facets)
        assert K.dim == max((len(f) for f in K.facets), default=0) - 1


def test_delta_and_its_family_sizes_come_from_one_family_pass(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return delta_facet_families(n)

    for module in (pipeline, complexes):
        monkeypatch.setattr(module, "delta_facet_families", counted)
    delta, sizes = pipeline._delta_build.__wrapped__(4)  # past the cache
    assert calls == [4]
    assert delta == build_delta(4)
    assert sizes == tuple((k, len(v)) for k, v in delta_facet_families(4).items())


def test_faces_budget_enforced():
    C = Complex([str(v) for v in range(30)], [range(30)])  # 2^30 - 1 faces
    with pytest.raises(ResourceLimitError):
        C.faces_by_dim()


def test_contains_and_collapse_owner_lookup():
    C = Complex(list("abcd"), [(0, 1, 2), (1, 2, 3)])
    O = BitmaskComplex(C.labels, C.facets)
    assert O.contains((1, 2))
    assert not O.contains((0, 3))
    # a step names its facet by its parts, in any order
    assert C.collapse([((), (1, 0), (2,))]).facets == ((0, 2), (1, 2, 3))
    with pytest.raises(PreconditionError):
        C.collapse([((), (1, 2), (0,))])  # two owners
    with pytest.raises(PreconditionError):
        C.collapse([((), (0, 3), (1,))])  # no owner


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=6), min_size=1, max_size=7),
       st.lists(st.integers(-1, 8), max_size=4))
def test_cofacet_vertices_against_contains(facets, extra):
    C = Complex([str(i) for i in range(8)], facets)
    O = BitmaskComplex(C.labels, C.facets)
    faces = [()] + sorted(_brute_faces(C)) + [tuple(sorted(set(extra)))]
    for face in faces:
        want = [v for v in range(8) if v not in face and O.contains(face + (v,))]
        assert C.cofacet_vertices(face) == want, face


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=7), max_size=24))
def test_least_cofacet_vertex_is_first_cofacet_vertex(facets):
    # every face, the empty face and the facets (which have none) included;
    # past 8 facets a set of facet ids no longer iterates in id order
    C = Complex([str(i) for i in range(10)], facets)
    for face in [()] + sorted(_brute_faces(C)):
        assert C.least_cofacet_vertex(face) == min(C.cofacet_vertices(face), default=None), face


def test_free_pair_oracle():
    # elementary steps (face, facet), each as the family step (face - {a, b}, {a, b}, facet - face)
    C = Complex(list("abcd"), [(0, 1, 2), (1, 2, 3)])
    C.collapse([((), (0, 1), (2,))])
    with pytest.raises(PreconditionError):
        C.collapse([((), (1, 2), (0,))])  # two owners
    with pytest.raises(PreconditionError):
        C.collapse([((), (0, 1), (2, 3))])  # not a facet
    for step in [((0,), (1, 2), ()),            # the face is the whole facet
                 ((), (), (0, 1, 2)),           # an empty face
                 ((), (-1, 0), (1, 2)), ((), (3, 4), (1, 2)),  # out of range
                 ((0, 1), (0, 1, 2)),           # two parts: an elementary step
                 ((), (0, 1), (2,), (3,))]:     # four parts
        with pytest.raises(InvalidArgumentError):
            C.collapse([step])


def test_elementary_collapse_removes_interval():
    C = Complex(list("abcd"), [(0, 1, 2), (1, 2, 3)])
    D = C.collapse([((), (0, 1), (2,))])  # the free face (0, 1) of (0, 1, 2)
    O = BitmaskComplex(D.labels, D.facets)
    assert not O.contains((0, 1)) and not O.contains((0, 1, 2))
    assert O.contains((0, 2))
    # (1, 2) is still in the other facet, so it does not become a facet
    assert D.facets == ((0, 2), (1, 2, 3))
    # each step sees the complex left by the ones before it
    with pytest.raises(PreconditionError):
        C.collapse([((), (0, 1), (2,)), ((), (0, 1), (2,))])


def test_collapse_free_family_full_simplex_to_point():
    C = Complex(list("abc"), [(0, 1, 2)])
    D = C.collapse([((), (1, 2), (0,))])
    # collapsing away vertex layers leaves a cone fragment, same homotopy type
    O = BitmaskComplex(D.labels, D.facets)
    assert O.contains((0,))
    assert not O.contains((1, 2))
    E = Complex(list("abcd"), [(0, 1, 2, 3)]).collapse([((), (1, 2, 3), (0,))])
    assert E.facets == ((0, 1), (0, 2), (0, 3))


@settings(max_examples=200)
@given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=7), min_size=1, max_size=7),
       st.data())
def test_family_step_is_its_elementary_sequence(facets, data):
    C = Complex([str(i) for i in range(8)], facets)
    # mostly a facet split three ways, so that both outcomes are drawn
    part = data.draw(st.one_of(st.sampled_from(C.facets),
                               st.lists(st.integers(0, 7), min_size=3, max_size=8, unique=True)))
    assume(len(part) >= 3)
    verts = data.draw(st.permutations(part))
    nx = data.draw(st.integers(2, len(verts) - 1))
    ny = data.draw(st.integers(1, len(verts) - nx))
    xs, ys, zs = verts[:nx], verts[nx:nx + ny], verts[nx + ny:]
    family = _outcome(lambda: C.collapse([(zs, xs, ys)]).facets)
    O = BitmaskComplex(C.labels, C.facets)
    assert family == _outcome(lambda: O.collapse(_free_family_steps(zs, xs, ys)).facets)
    assert family is PreconditionError or isinstance(family, tuple)


def test_labels_in_no_facet_share_one_index_set():
    # 10^5 labels in no facet share one empty frozenset in the facet index, so
    # building the complex and one family step each trace under 5 MB (a set
    # per label took 23 MB and 68 MB)
    labels = [str(i) for i in range(10**5 + 14)]
    tracemalloc.start()
    try:
        C = Complex(labels, [range(9)])
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        D = C.collapse([((), (0, 1), range(2, 9))])
        stepped = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.facets == ((0,) + tuple(range(2, 9)), tuple(range(1, 9)))
    assert built < 5 * 2**20 and stepped < 5 * 2**20, (built, stepped)


def test_family_step_checks():
    C = Complex(list("abcdef"), [(0, 1, 2, 3), (2, 3, 4), (1, 5)])
    assert C.collapse([((), (0, 1), (2, 3))]).facets == ((0, 2, 3), (1, 2, 3), (1, 5), (2, 3, 4))
    # a cone vertex: F minus it stays, held by no other facet
    assert C.collapse([((3,), (0, 1), (2,))]).facets == (
        (0, 1, 2), (0, 2, 3), (1, 2, 3), (1, 5), (2, 3, 4))
    for step in [((), (2, 3), (0,)),       # a face, not a facet
                 ((), (0, 4), (5,))]:      # not a face
        with pytest.raises(PreconditionError, match="is not a facet"):
            C.collapse([step])
    D = Complex(list("abcde"), [(0, 1, 2, 3), (1, 2, 3, 4)])
    for step in [((), (1, 2), (0, 3)),     # (1, 2, 3, 4) holds two xs
                 ((3,), (1, 2), (0,))]:    # ... and the cone vertex with them
        with pytest.raises(PreconditionError, match="another facet holds"):
            D.collapse([step])
    assert D.collapse([((), (0, 1), (2, 3))]).facets == ((0, 2, 3), (1, 2, 3, 4))
    for step in [((0,), (0, 1), (2,)),     # overlapping parts
                 ((), (1, 1), (0, 2)),     # one x
                 ((), (0, 1), ()),         # no ys
                 ((), (0, 1), (6,)),       # out of range
                 ((-1,), (0, 1), (2,))]:
        with pytest.raises(InvalidArgumentError):
            C.collapse([step])


def _collapse_by_definition(C: Complex, face, facet) -> Complex:
    """Drop the facet, add it minus each face vertex, keep the maximal faces.

    A facet of None stands for the only facet containing the face.
    """
    face = set(face)
    owners = [f for f in C.facets if face <= set(f)]
    if facet is None:
        if len(owners) != 1:
            raise PreconditionError("no unique owner")
        facet = owners[0]
    if not face or not face < set(facet):
        raise InvalidArgumentError("not a proper nonempty subset")
    if owners != [tuple(sorted(facet))]:
        raise PreconditionError("not free")
    rest = [f for f in C.facets if set(f) != set(facet)]
    return Complex(C.labels, rest + [[v for v in facet if v != s] for s in face])


def _outcome(fn):
    try:
        return fn()
    except (InvalidArgumentError, PreconditionError) as exc:
        return type(exc)


def test_collapse_matches_definition_on_random_complexes():
    rng = random.Random(5)
    seen = set()
    for _ in range(600):
        nv = rng.randint(2, 7)
        C = Complex([str(v) for v in range(nv)],
                    [rng.sample(range(nv), rng.randint(1, nv))
                     for _ in range(rng.randint(1, 5))])
        # up to three steps, each applied by the definition to the previous result
        want, steps, length = C, [], rng.randint(1, 3)
        while isinstance(want, Complex) and len(steps) < length:
            if want.facets and rng.random() < 0.7:
                facet = list(rng.choice(want.facets))
            else:
                facet = rng.sample(range(nv), rng.randint(1, nv))
            face = rng.sample(facet, rng.randint(1, len(facet)))
            step = (face, None if rng.random() < 0.3 else facet)
            steps.append(step)
            want = _outcome(lambda: _collapse_by_definition(want, *step))
        got = _outcome(lambda: BitmaskComplex(C.labels, C.facets).collapse(steps).facets)
        assert got == getattr(want, "facets", want), (C.facets, steps)
        seen.add(want if isinstance(want, type) else Complex)
    assert seen == {Complex, InvalidArgumentError, PreconditionError}


def _collapsed(C, steps):
    """The facets a collapse leaves, or the type of the exception it raises."""
    return _outcome(lambda: C.collapse(steps).facets)


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 7), max_size=6), max_size=7),
       st.lists(st.lists(st.integers(-1, 8), max_size=4), max_size=6),
       st.integers(0, 2**32))
def test_facet_index_against_bitmask_oracle(facets, queries, seed):
    # The oracle indexes facets by dense per-vertex bitmasks, so it shares no
    # code with the facet-id sets that `Complex` answers every query from.
    labels = [str(i) for i in range(8)]
    rng = random.Random(seed)
    if rng.random() < 0.1:
        facets = facets + [[rng.choice([-1, 8])] + facets[0] if facets else [-1]]
    try:
        C = Complex(labels, facets)
    except InvalidArgumentError as exc:
        with pytest.raises(InvalidArgumentError, match=re.escape(str(exc))):
            BitmaskComplex(labels, facets)
        return
    O = BitmaskComplex(labels, facets)
    assert C.facets == O.facets
    for face in [()] + sorted(_brute_faces(C)) + [tuple(q) for q in queries]:
        mask = O.cofacet_vertices(face)
        assert C.cofacet_vertices(face) == [v for v in range(8) if mask >> v & 1], face
    # a chain of up to four elementary steps (face, facet), each drawn from the
    # oracle's complex as it stands; `Complex` takes each as the family step
    # (face - {a, b}, {a, b}, facet - face) for two vertices a, b of the face
    elementary, family, state = [], [], O
    while state is not None and len(elementary) < 4:
        big = [f for f in state.facets if len(f) >= 2]
        if big and rng.random() < 0.9:
            facet = list(rng.choice(big))
        else:
            facet = rng.sample(range(8), rng.randint(2, 5))
        # a proper subset where there is one, else the whole facet
        top = len(facet) - 1 if len(facet) > 2 and rng.random() < 0.85 else len(facet)
        face = rng.sample(facet, rng.randint(2, top))
        elementary.append((face, facet))
        family.append((face[2:], face[:2], [v for v in facet if v not in face]))
        try:
            state = state.collapse(elementary[-1:])
        except (InvalidArgumentError, PreconditionError):
            state = None
    for i in range(1, len(elementary) + 1):  # every prefix: the complexes left or the failure
        assert _collapsed(C, family[:i]) == _collapsed(O, elementary[:i]), elementary[:i]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_delta_family_counts(n):
    fams = delta_facet_families(n)
    assert list(fams) == ["M1", "A1", "A2", "A3"]
    assert len(fams["M1"]) == math.factorial(n + 1) * n
    assert len(fams["A1"]) == n * math.factorial(n) * (n - 1)
    assert len(fams["A2"]) == math.factorial(n) * (n - 1)
    assert len(fams["A3"]) == n + 1
    seen = set()
    for fam in fams.values():
        for face in fam:
            assert len(face) == 3 or (len(face) == n and fam is fams["A3"])
            assert face not in seen
            seen.add(face)


def test_delta_n3_exact_counts():
    fams = delta_facet_families(3)
    assert tuple(len(fams[k]) for k in ("M1", "A1", "A2", "A3")) == (72, 36, 12, 4)


# The peak RSS rise (MB) allowed to delta_via_collapse(n) above Δ(n): a
# quarter above the fresh-process reading plus 1 MB, rounded up. The
# readings are 0.0, 0.4, 3.9 and 35.8 MB for n = 3..6.
_COLLAPSE_RISE_MB = {3: 1, 4: 2, 5: 6, 6: 46}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_collapse_route_agrees_with_direct_build(n):
    # In a fresh process, so that the rise of peak memory above Δ(n) is
    # bounded too: at n=6 the collapse route takes about 3.5 s in family
    # steps, and did not finish in 300 s as elementary steps.
    same, rise_kb = _rss_rise("from expmorse.complexes import build_delta, delta_via_collapse\n"
                              f"D = build_delta({n})", f"delta_via_collapse({n}) == D")
    assert same == "True"
    assert rise_kb < _COLLAPSE_RISE_MB[n] * 1024


@pytest.mark.parametrize("n", [3, 4, 5])
def test_collapse_route_agrees_with_elementary_cascade(n):
    NC = neighborhood_complex(fold_core_exponential(n + 1, n))
    O = BitmaskComplex(NC.labels, NC.facets).collapse(_cascade_steps(n))
    assert O.facets == delta_via_collapse(n).facets


def test_neighborhood_complex_facets_are_maximal_neighborhoods():
    g = cycle_graph(6)
    C = neighborhood_complex(g)
    want = set()
    hoods = [tuple(g.neighbors(v)) for v in range(6)]
    for h in hoods:
        if h and not any(set(h) < set(h2) for h2 in hoods):
            want.add(h)
    assert set(C.facets) == want


def test_neighborhood_complex_of_complete_graph():
    C = neighborhood_complex(complete_graph(4))
    assert C.facets == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_complex_json_shape():
    assert set(complex_to_json(build_delta(3))) == {"vertex_labels", "facets"}
