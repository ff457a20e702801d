from __future__ import annotations

import itertools
import math
import random

import pytest

from expmorse.complexes import (Complex, _free_family_steps, build_delta,
                                complex_to_json, delta_facet_families,
                                delta_via_collapse, neighborhood_complex)
from expmorse.errors import (InvalidArgumentError, PreconditionError,
                             ResourceLimitError)
from expmorse.graphs import complete_graph, cycle_graph


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
        levels = C.faces_by_dim(C.dim)
        for level in levels:
            got.update(level)
        assert got == want
        for d, level in enumerate(levels):
            assert list(level) == sorted(level)
            assert all(len(f) == d + 1 for f in level)
            assert set(C.iter_faces_of_dim(d)) == {f for f in want if len(f) == d + 1}


def test_face_count_estimate_upper_bounds_actual():
    C = build_delta(3)
    for d in range(C.dim + 1):
        assert C.face_count_estimate(d) >= len(list(C.iter_faces_of_dim(d)))


def test_faces_budget_enforced():
    C = build_delta(3)
    with pytest.raises(ResourceLimitError):
        C.faces_by_dim(2, max_faces=10)


def test_contains_and_collapse_owner_lookup():
    C = Complex(list("abcd"), [(0, 1, 2), (1, 2, 3)])
    assert C.contains((1, 2))
    assert not C.contains((0, 3))
    # a step without a facet collapses through the only facet containing the face
    assert C.collapse([((1, 0), None)]) == C.collapse([((0, 1), (0, 1, 2))])
    with pytest.raises(PreconditionError):
        C.collapse([((1, 2), None)])  # two owners
    with pytest.raises(PreconditionError):
        C.collapse([((0, 3), None)])  # no owner


def test_free_pair_oracle():
    C = Complex(list("abcd"), [(0, 1, 2), (1, 2, 3)])
    C.collapse([((0, 1), (0, 1, 2))])
    with pytest.raises(PreconditionError):
        C.collapse([((1, 2), (0, 1, 2))])  # two owners
    with pytest.raises(PreconditionError):
        C.collapse([((0, 1), (0, 1, 2, 3))])  # not a facet
    for face, facet in [((0, 1, 2), (0, 1, 2)), ((), (0, 1, 2)),
                        ((-1,), (0, 1, 2)), ((4,), (1, 2, 3, 4)),
                        ((0, 3), (0, 1, 2)), ((0, 1, 2), None)]:
        with pytest.raises(InvalidArgumentError):
            C.collapse([(face, facet)])


def test_elementary_collapse_removes_interval():
    C = Complex(list("abcd"), [(0, 1, 2), (1, 2, 3)])
    D = C.collapse([((0, 1), (0, 1, 2))])
    assert not D.contains((0, 1)) and not D.contains((0, 1, 2))
    assert D.contains((0, 2))
    # (1, 2) is still in the other facet, so it does not become a facet
    assert D.facets == ((0, 2), (1, 2, 3))
    # each step sees the complex left by the ones before it
    with pytest.raises(PreconditionError):
        C.collapse([((0, 1), (0, 1, 2)), ((0, 1), (0, 1, 2))])


def test_collapse_free_family_full_simplex_to_point():
    C = Complex(list("abc"), [(0, 1, 2)])
    D = C.collapse(_free_family_steps([1, 2], [0]))
    # collapsing away vertex layers leaves a cone fragment, same homotopy type
    assert D.contains((0,))
    assert not D.contains((1, 2))
    E = Complex(list("abcd"), [(0, 1, 2, 3)]).collapse(
        _free_family_steps([1, 2, 3], [0]))
    assert E.facets == ((0, 1), (0, 2), (0, 3))


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
        got = _outcome(lambda: C.collapse(steps))
        assert got == want, (C.facets, steps)
        seen.add(got if isinstance(got, type) else Complex)
    assert seen == {Complex, InvalidArgumentError, PreconditionError}


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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_collapse_route_agrees_with_direct_build(n):
    assert delta_via_collapse(n) == build_delta(n)


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
