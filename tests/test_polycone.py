import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from dhmeasure import cli, lp, polycone
from dhmeasure.rational import nullspace, rank, rat, vdot


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


def test_dual_cone_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("dual_cone solved an LP")

    monkeypatch.setattr(lp, "solve_lp", no_lp)
    for C in (
        polycone.cone_from_normals(2, [(2, 1), (1, 3)]),
        polycone.cone_from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]),
        polycone.cone_from_generators(2, [(1, 0), (1, 1)]),
    ):
        D = polycone.dual_cone(C)
        assert (D.generators, D.normals) == (C.normals, C.generators)


def test_dual_dual_round_trip():
    C = polycone.cone_from_normals(2, [(2, 1), (1, 3)])
    DD = polycone.dual_cone(polycone.dual_cone(C))
    assert DD.normals == C.normals
    assert set(polycone.extreme_rays(DD)) == set(polycone.extreme_rays(C))


def test_halfplane_is_not_proper():
    C = polycone.cone_from_normals(2, [(1, 0)])
    assert not polycone.cone_is_proper(C)
    assert polycone.lineality_space(C) != ()


def test_extreme_rays_in_dimensions_zero_and_one():
    assert polycone.extreme_rays(polycone.cone_from_normals(0, [])) == []
    assert polycone.extreme_rays(polycone.cone_from_normals(1, [(2,)])) == [(1,)]
    assert polycone.extreme_rays(polycone.cone_from_normals(1, [(-3,), (-1,)])) == [(-1,)]
    assert polycone.extreme_rays(polycone.cone_from_normals(1, [(1,), (-1,)])) == []
    with pytest.raises(ValueError):
        polycone.extreme_rays(polycone.cone_from_normals(1, []))


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


def test_generator_rule_equals_the_halfspace_route():
    # a spanning G's cone in halfspace form too: its normals are the extreme
    # rays of the dual cone {y : <g, y> >= 0}, which is pointed as G spans
    rng = np.random.default_rng(32)
    seen = set()
    for _ in range(80):
        dim = int(rng.integers(1, 4))
        gens = [tuple(int(x) for x in rng.integers(-2, 3, size=dim))
                for _ in range(int(rng.integers(dim, dim + 3)))]
        if rank(gens) < dim:
            continue
        normals = polycone.extreme_rays(polycone.cone_from_normals(dim, gens))
        both = polycone.Cone(dim, normals=tuple(normals),
                             generators=polycone.cone_from_generators(dim, gens).generators)
        assert polycone.cone_consistency_check(both)
        P = polycone.PolyhedralSet(dim, tuple(polycone.halfspace(n) for n in normals))
        live = [g for g in gens if any(g)]
        xis = [tuple(int(x) for x in rng.integers(-2, 3, size=dim)), (0,) * dim]
        xis += [nullspace([list(live[0])], ncols=dim)[0]] if dim > 1 else []
        for xi in xis:
            got = polycone.generator_directions(polycone.cone_from_generators(dim, gens), xi)
            assert got == (polycone.bounded_below(P, xi),
                           polycone.proper_projection_directions(P, xi)), (gens, xi)
            seen.add(got)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_strict_positive_functional():
    eta = polycone.strict_positive_functional([(1, 0), (1, 1), (0, 1)])
    assert eta is not None
    for v in [(1, 0), (1, 1), (0, 1)]:
        assert vdot(eta, v) > 0
    assert polycone.strict_positive_functional([(1,), (-1,)]) is None


def test_representation_consistency():
    C = polycone.cone_from_normals(2, [(1, 0), (-1, 2)])
    assert polycone.cone_consistency_check(C)


def _both(dim, normals, generators):
    return polycone.cone_from_json({
        "dim": dim,
        "halfspaces": [{"normal": list(n), "offset": 0} for n in normals],
        "generators": [list(g) for g in generators],
    })


@pytest.mark.parametrize("dim,normals,generators,same", [
    # the half-plane x1 >= 0 against the line through e2
    (2, [(1, 0)], [(0, 1), (0, -1)], False),
    (2, [(1, 0)], [(0, 1), (0, -1), (1, 0)], True),
    (2, [(1, 0)], [(0, 1), (1, -1), (1, 0)], False),
    (2, [(1, 0)], [(0, 1), (1, -1), (0, -3)], True),
    # the whole plane, cut out by no normal
    (2, [], [(1, 0), (0, 1), (-1, -1)], True),
    (2, [], [(1, 0), (0, 1), (-1, 0)], False),
    # a wedge times the line through e3
    (3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)], True),
    (3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], False),
    (3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 1), (0, 1, 1), (0, 0, -1)], False),
    (3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 1), (0, 1, 1), (0, 0, -1), (0, 0, 2)], True),
    # a half-plane inside R^3 with a line through e2
    (3, [(1, 0, 0), (0, 0, 1), (0, 0, -1)], [(1, 0, 0), (0, 1, 0), (0, -1, 0)], True),
    (3, [(1, 0, 0), (0, 0, 1), (0, 0, -1)], [(1, 0, 0), (0, 1, 0)], False),
    # pointed: a quadrant, and the same normals against too few generators
    (2, [(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)], True),
    (2, [(1, 0), (0, 1)], [(1, 0), (1, 1)], False),
    (2, [(1, 0), (0, 1)], [(1, 0), (0, 1), (-1, 1)], False),
])
def test_consistency_decides_pointed_and_non_pointed_cones(dim, normals, generators, same):
    assert polycone.cone_consistency_check(_both(dim, normals, generators)) is same


def test_json_round_trip():
    P = quadrant_with_cap()
    Q = polycone.polyhedron_from_json({"dim": 2, "halfspaces": [
        {"normal": ["1", "0"], "offset": "0"},
        {"normal": [0, 1], "offset": 0},
        {"normal": ["1", "1"], "offset": "-2"},
    ]})
    assert Q.dim == P.dim
    assert [(h.normal, h.offset) for h in Q.halfspaces] == [
        (h.normal, h.offset) for h in P.halfspaces
    ]
    C = polycone.cone_from_generators(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)])
    C2 = polycone.cone_from_json({"dim": 3, "generators": [["1", "0", "0"], [1, 1, 0], [1, 1, 1]]})
    assert C2.generators == C.generators
    H = polycone.cone_from_normals(2, [(1, 0), (-1, 3)])
    H2 = polycone.cone_from_json({"dim": 2, "halfspaces": [
        {"normal": ["1", "0"], "offset": "0"}, {"normal": ["-1", "3"]},
    ]})
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


def _trivial_by_coordinate_lps(normals, dim, extra_eq=None):
    """The former decision: a nonzero member of the cone can be scaled so
    some coordinate is +-1, so 2*dim feasibility LPs decide triviality."""
    base = [lp.constraint(n, lp.GE, 0) for n in normals]
    if extra_eq is not None:
        base.append(lp.constraint(extra_eq, lp.EQ, 0))
    for j in range(dim):
        for s in (1, -1):
            e = [0] * dim
            e[j] = s
            cons = base + [lp.constraint(e, lp.EQ, 1)]
            if lp.feasibility(cons, dim=dim).status == lp.OPTIMAL:
                return False
    return True


def _drawn_cones(rng, dim):
    """Normal lists of one dimension: empty, random, positively spanning,
    non-pointed (every normal orthogonal to one v) and lower-dimensional
    (a normal and its negative)."""
    def draw(k):
        out = []
        while len(out) < k:
            n = tuple(int(x) for x in rng.integers(-2, 3, size=dim))
            if any(n):
                out.append(n)
        return out

    yield []
    if dim == 0:
        return
    for k in (1, dim, dim + 1, dim + 3):
        yield draw(k)
    spanning = draw(dim + 1)
    yield spanning + [tuple(-sum(c) for c in zip(*spanning))]
    yield [tuple(int(i == j) for j in range(dim)) for i in range(dim)] + [(-1,) * dim]
    v = draw(1)[0]
    lineal = (tuple(vdot(v, v) * a - vdot(u, v) * b for a, b in zip(u, v))
              for u in draw(dim + 1))
    yield [n for n in lineal if any(n)]
    n = draw(1)[0]
    yield [n, tuple(-x for x in n)] + draw(dim - 1)


def test_cone_is_trivial_equals_coordinate_enumeration():
    rng = np.random.default_rng(14)
    seen = set()
    for dim in range(5):
        for _ in range(3):
            for normals in _drawn_cones(rng, dim):
                extras = [None, tuple(int(x) for x in rng.integers(-2, 3, size=dim))]
                if normals:
                    extras.append(tuple(a - b for a, b in zip(normals[0], normals[-1])))
                for extra in extras:
                    got = polycone._cone_is_trivial(normals, dim, extra)
                    assert got == _trivial_by_coordinate_lps(normals, dim, extra), (
                        normals, dim, extra)
                    seen.add((dim, extra is None, got))
    # both answers occur, with and without the equation, in every dimension >= 1
    assert {(d, e, g) for d in range(1, 5) for e in (True, False)
            for g in (True, False)} <= seen
    assert (0, True, True) in seen and (0, False, True) in seen


def test_zero_dimensional_set_is_compact():
    P = polycone.polyhedron(0, [])
    assert polycone.is_compact(P)
    assert polycone.is_proper(P)
    assert polycone.proper_projection_directions(P, ())


def test_cones_run_solves_feasibility_once_and_one_lp_per_question(tmp_path, monkeypatch):
    halfspaces = [([s * int(i == j) for j in range(4)], -2) for i in range(4) for s in (1, -1)]
    box = polycone.polyhedron(4, halfspaces)
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"dim": 4, "halfspaces": [
        {"normal": normal, "offset": offset} for normal, offset in halfspaces
    ]}))
    calls = []
    real = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: calls.append(a) or real(*a, **k))
    argv = ["cones", "--input", str(path), "--out", str(tmp_path / "report.json"),
            "--xi=1,2,3,4", "--xi=-1,0,0,0"]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["compact"] and report["proper"]
    assert [d["proper_projection"] for d in report["directions"]] == [True, True]
    # feasibility once, is_compact one, and per --xi bounded_below one;
    # proper_projection_directions reads the set's compactness answer and
    # is_proper solves none
    assert len(calls) == 4
    feasibility = [c for c in calls if not any(c[0]) and list(c[1]) == box.constraints()]
    assert len(feasibility) == 1


def test_predicates_share_one_feasibility_solve(monkeypatch):
    calls = []
    real = lp.feasibility
    monkeypatch.setattr(lp, "feasibility", lambda *a, **k: calls.append(a) or real(*a, **k))
    P = quadrant_with_cap()
    assert polycone.is_feasible(P) and polycone.feasible_point(P) is not None
    assert not polycone.is_compact(P) and polycone.is_proper(P)
    assert polycone.proper_projection_directions(P, (1, 1))
    feasibility = [c for c in calls if list(c[0]) == P.constraints()]
    assert len(feasibility) == 1
    empty = polycone.polyhedron(1, [((1,), 3), ((-1,), -1)])
    for predicate in (polycone.is_compact, polycone.is_proper):
        with pytest.raises(polycone.InfeasibleSetError):
            predicate(empty)
    assert polycone.feasible_point(empty) is None
    assert len([c for c in calls if list(c[0]) == empty.constraints()]) == 1
