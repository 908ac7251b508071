import hypothesis.strategies as st
import pytest
from hypothesis import given

from dhmeasure import polycone
from dhmeasure.rational import rat, vdot


def quadrant_with_cap():
    return polycone.polyhedron(
        2,
        [
            ((1, 0), 0),
            ((0, 1), 0),
            ((1, 1), -2),
        ],
    )


def test_feasibility_and_witness():
    P = quadrant_with_cap()
    assert polycone.is_feasible(P)
    x = polycone.feasible_point(P)
    for h in P.halfspaces:
        assert vdot(h.normal, x) >= h.offset


def test_infeasible_sandwich():
    P = polycone.polyhedron(1, [((1,), 3), ((-1,), -1)])
    assert not polycone.is_feasible(P)
    assert polycone.feasible_point(P) is None


def test_asymptotic_cone_drops_offsets():
    P = quadrant_with_cap()
    C = polycone.asymptotic_cone(P)
    assert polycone.cone_is_proper(C)
    # recession directions are exactly the first quadrant
    assert polycone.interior_point(C) is not None


def test_box_is_compact_with_trivial_asymptotic_cone():
    box = polycone.polyhedron(
        2,
        [((1, 0), 0), ((-1, 0), -3), ((0, 1), -1), ((0, -1), -2)],
    )
    assert polycone.is_compact(box)
    C = polycone.asymptotic_cone(box)
    assert not polycone.lineality_space(C)
    assert not polycone.extreme_rays(C)


def test_dual_cone_of_quadrant_is_quadrant():
    C = polycone.cone_from_generators(2, [(1, 0), (0, 1)])
    D = polycone.dual_cone(C)
    rays = set(polycone.extreme_rays(D))
    assert rays == {(1, 0), (0, 1)}


def test_dual_dual_round_trip():
    C = polycone.cone_from_normals(2, [(2, 1), (1, 3)])
    DD = polycone.dual_cone(polycone.dual_cone(C))
    assert DD.normals == C.normals
    assert set(polycone.extreme_rays(DD)) == set(polycone.extreme_rays(C))


def test_halfplane_is_not_proper():
    C = polycone.cone_from_normals(2, [(1, 0)])
    assert not polycone.cone_is_proper(C)
    assert polycone.lineality_space(C) != ()


def test_extreme_rays_keep_orientation():
    # valid ray is (-1,-1); a sign-normalized answer would leave the cone
    C = polycone.cone_from_normals(2, [(-2, -2), (2, -2)])
    rays = polycone.extreme_rays(C)
    assert rays
    for r in rays:
        for n in C.normals:
            assert vdot(n, r) >= 0


def test_interior_point_strictness():
    C = polycone.cone_from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    x = polycone.interior_point(C)
    assert all(v > 0 for v in x)


def test_bounded_below_and_projection():
    P = quadrant_with_cap()
    assert polycone.bounded_below(P, (1, 1))
    assert not polycone.bounded_below(P, (-1, 0))
    assert polycone.proper_projection_directions(P, (1, 1))
    assert not polycone.proper_projection_directions(P, (-1, 0))


def test_strict_positive_functional():
    eta = polycone.strict_positive_functional([(1, 0), (1, 1), (0, 1)])
    assert eta is not None
    for v in [(1, 0), (1, 1), (0, 1)]:
        assert vdot(eta, v) > 0
    assert polycone.strict_positive_functional([(1,), (-1,)]) is None


def test_representation_consistency():
    C = polycone.cone_from_normals(2, [(1, 0), (-1, 2)])
    assert polycone.cone_consistency_check(C)


def test_json_round_trip():
    P = quadrant_with_cap()
    Q = polycone.polyhedron_from_json(polycone.polyhedron_to_json(P))
    assert Q.dim == P.dim
    assert [(h.normal, h.offset) for h in Q.halfspaces] == [
        (h.normal, h.offset) for h in P.halfspaces
    ]
    C = polycone.cone_from_generators(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)])
    C2 = polycone.cone_from_json(polycone.cone_to_json(C))
    assert C2.generators == C.generators
    H = polycone.cone_from_normals(2, [(1, 0), (-1, 3)])
    H2 = polycone.cone_from_json(polycone.cone_to_json(H))
    assert set(polycone.extreme_rays(H2)) == set(polycone.extreme_rays(H))


def test_rational_offsets():
    P = polycone.polyhedron(1, [((1,), rat(-7, 2)), ((-1,), rat(-9, 2))])
    assert polycone.is_compact(P)


small_normals = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    ).filter(lambda v: any(v)),
    min_size=1,
    max_size=5,
)


@given(small_normals)
def test_extreme_rays_always_inside(normals):
    C = polycone.cone_from_normals(2, normals)
    if not polycone.cone_is_proper(C):
        return
    for r in polycone.extreme_rays(C):
        for n in C.normals:
            assert vdot(n, r) >= 0


@given(small_normals)
def test_interior_point_inside_when_it_exists(normals):
    C = polycone.cone_from_normals(2, normals)
    try:
        x = polycone.interior_point(C)
    except polycone.NotFullDimensionalError:
        return
    for n in C.normals:
        assert vdot(n, x) > 0


@given(small_normals)
def test_dual_pairing_nonnegative(normals):
    C = polycone.cone_from_normals(2, normals)
    if not polycone.cone_is_proper(C):
        return
    D = polycone.dual_cone(C)
    for r in polycone.extreme_rays(C):
        for g in D.generators:
            assert vdot(r, g) >= 0


def test_not_full_dimensional_guard():
    flat = polycone.cone_from_normals(2, [(1, 1), (-1, -1)])
    with pytest.raises(polycone.NotFullDimensionalError):
        polycone.interior_point(flat)


def test_interior_point_solves_one_lp_per_cone(monkeypatch):
    from dhmeasure import lp

    calls = []
    real = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: calls.append(a) or real(*a, **k))
    polycone._slack_interior_point.cache_clear()
    normals = [(1, 0, 2), (0, 1, -1), (1, 1, 1)]
    first = polycone.interior_point(polycone.cone_from_normals(3, normals))
    # a maximisation is one minimisation, which solve_lp runs by a call
    # to itself
    assert len(calls) == 2
    second = polycone.interior_point(polycone.cone_from_normals(3, normals))
    assert len(calls) == 2
    assert first == second and type(second) is tuple
    assert all(vdot(n, first) > 0 for n in normals)
    flat = polycone.cone_from_normals(2, [(1, 1), (-1, -1)])
    for expected_calls in (4, 6):
        with pytest.raises(polycone.NotFullDimensionalError):
            polycone.interior_point(flat)
        assert len(calls) == expected_calls
