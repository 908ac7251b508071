import random

import hypothesis.strategies as st
import pytest
from fraction_plan import fraction_det
from hypothesis import given

from dhmeasure.rational import (
    det,
    integer_vector,
    mat_vec,
    primitive,
    primitive_ray,
    rank,
    rat,
    rat_str,
    rref,
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


class _Index:
    """An integral type that is not an int, as gmpy2.mpz is not."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


def test_rat_accepts_integral_types():
    assert rat(_Index(-3)) == -3 and type(rat(_Index(2))) is type(rat(0))
    with pytest.raises(TypeError):
        rat(object())


@pytest.mark.parametrize("value", [True, False])
def test_rat_refuses_booleans(value):
    # JSON true and false used to read as 1 and 0
    with pytest.raises(TypeError, match="boolean"):
        rat(value)


def test_integer_vector_gives_python_ints():
    ints, scale = integer_vector([rat(1, 2), rat(-3, 4), rat(5)])
    assert ints == [2, -3, 20] and scale == 4
    assert all(type(i) is int for i in [*ints, scale])


def test_mpq_backend_reads_integers_off_mpz():
    gmpy2 = pytest.importorskip("gmpy2")
    v = (gmpy2.mpq(1, 2), gmpy2.mpq(-3, 2))
    assert primitive_ray(v) == (1, -3) and primitive((-v[0], -v[1])) == (1, -3)
    assert all(type(x) is type(gmpy2.mpq(0)) for x in primitive_ray(v))
    assert rank([v, (gmpy2.mpq(1), gmpy2.mpq(-3))]) == 1
    assert rat(gmpy2.mpz(7)) == 7


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


def _fraction_rref(rows):
    """Gauss-Jordan in Fractions, the elimination rref ran before it went
    fraction-free."""
    m = [[rat(x) for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def test_fraction_free_rref_and_rank_match_fraction_elimination():
    rng = random.Random(7)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rat(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
                for _ in range(rng.randint(0, m))]
        if len(rows) >= 2 and rng.random() < 0.5:
            # a combination of two rows keeps the rank below the row count
            f = rat(rng.randint(-3, 3), rng.randint(1, 4))
            rows.append([a + f * b for a, b in zip(rows[0], rows[1])])
        rng.shuffle(rows)
        expected = _fraction_rref(rows)
        assert rref(rows) == expected
        assert rank(rows) == len(expected[1])
        # the leading square block: 0x0 when there are no rows, singular
        # when it holds the combination row and the two rows it combines
        k = min(len(rows), n)
        square = [r[:k] for r in rows[:k]]
        got = det(square)
        assert got == fraction_det(square) and type(got) is type(rat(0))
    assert rank([]) == 0 and rank([[0, 0], [0, 0]]) == 0
    assert det([]) == 1 and det([[1, 2], [2, 4]]) == 0 and det([["1/2", 1], [3, "-2/3"]]) == rat(-10, 3)
    with pytest.raises(ValueError, match="square"):
        det([[1, 2]])
    assert rank([(1, 2.5), ("1/3", "5/6")]) == 1
