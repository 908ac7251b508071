import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dhmeasure.rational import (
    mat_vec,
    primitive,
    primitive_ray,
    rat,
    rat_str,
    solve,
    vdot,
    vec,
)


@pytest.mark.parametrize("args", [("1/0",), ("-3/0",), (" 2/0 ",), (1, 0)])
def test_rat_rejects_zero_denominator(args):
    with pytest.raises(ValueError, match="zero denominator"):
        rat(*args)


def test_rat_parses_strings_and_fractions():
    assert rat("3/2") == rat(3, 2)
    assert rat("-7") == -7
    assert float(rat(1, 4)) == 0.25


def test_rat_str_round_trip():
    q = rat(-22, 6)
    assert rat(rat_str(q)) == q


def test_vdot_exact():
    assert vdot((rat(1, 3), 2), (3, rat(1, 2))) == 2


def test_primitive_ray_keeps_orientation():
    assert primitive_ray((-2, -2)) == (-1, -1)
    assert primitive_ray((rat(1, 2), rat(-3, 2))) == (1, -3)


def test_primitive_canonicalizes_sign():
    assert primitive((-2, -2)) == (1, 1)
    assert primitive((0, -4, 2)) == (0, 2, -1)


nonzero_vecs = st.lists(
    st.integers(min_value=-30, max_value=30), min_size=1, max_size=5
).filter(lambda v: any(v))


@given(nonzero_vecs, st.integers(min_value=1, max_value=7))
def test_primitive_ray_scale_invariant(v, c):
    assert primitive_ray(v) == primitive_ray([c * x for x in v])


@given(nonzero_vecs)
def test_primitive_ray_points_the_same_way(v):
    p = primitive_ray(v)
    # same ray: cross terms vanish and the pairing is positive
    assert vdot(p, v) > 0
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            assert p[i] * v[j] == p[j] * v[i]


def test_mat_vec():
    m = ((1, 2), (0, rat(1, 2)))
    assert mat_vec(m, (2, 4)) == (10, 2)


def test_vec_rejects_bad_entries():
    with pytest.raises((ValueError, TypeError)):
        vec(("a_string_not_a_number_x",))


def _column_solves(rows, rhs):
    cols = [solve(rows, [r[j] for r in rhs]) for j in range(len(rhs[0]))]
    if any(c is None for c in cols):
        return None
    return tuple(tuple(c[i] for c in cols) for i in range(len(rows[0])))


def test_solve_with_matrix_rhs_equals_column_by_column_solves():
    rng = random.Random(8)

    def entry():
        return rat(rng.randint(-9, 9), rng.randint(1, 4))

    for _ in range(40):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        A = [[entry() for _ in range(m)] for _ in range(n)]
        # right-hand sides in the column space, so rank-deficient and
        # over-determined systems stay consistent
        X = [[entry() for _ in range(k)] for _ in range(m)]
        B = [[vdot(a, [x[j] for x in X]) for j in range(k)] for a in A]
        got = solve(A, B)
        assert got is not None and got == _column_solves(A, B)
        assert [[vdot(a, [x[j] for x in got]) for j in range(k)] for a in A] == B
    # rank 1; the second column of the right-hand side is not in its span
    A = [[rat(1), rat(2)], [rat(2), rat(4)]]
    assert solve(A, [[rat(1), rat(1)], [rat(2), rat(3)]]) is None
    assert solve(A, [rat(1), rat(3)]) is None
    assert solve(A, [[rat(1)], [rat(2)]]) == ((rat(1),), (rat(0),))
