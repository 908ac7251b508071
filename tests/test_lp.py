"""Exact LP: pinned results, variable bounds against HiGHS, and the
certificate checks' negative controls."""

import random
from fractions import Fraction

import pytest
from scipy.optimize import linprog

from dhmeasure import lp
from dhmeasure.rational import rat, rat_str, vdot

KINDS = ("mixed", "infeasible", "unbounded", "redundant", "maximize", "boxed", "homogeneous")


def _scalar(rng, lo, hi):
    v = rng.randint(lo, hi)
    if rng.random() < 0.25:
        return Fraction(v, rng.randint(2, 4))
    return v


def seeded_lp(k):
    """LP number k: (objective, constraints, maximize). The kinds cycle;
    "redundant" adds an EQ row and a multiple of it (the rows the drive-out
    of artificials drops), "homogeneous" zero right-hand sides (degenerate
    phase 1, artificials left basic at 0)."""
    rng = random.Random(k)
    kind = KINDS[k % len(KINDS)]
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 4)):
        rows.append(([_scalar(rng, -3, 3) for _ in range(n)],
                     rng.choice((lp.GE, lp.LE, lp.EQ)), _scalar(rng, -4, 4)))
    if kind == "infeasible":
        a = [_scalar(rng, -3, 3) for _ in range(n)]
        r = _scalar(rng, -4, 4)
        rows.insert(rng.randint(0, len(rows)), (a, lp.GE, r + 1))
        rows.append(([2 * v for v in a], lp.LE, 2 * r))
    elif kind == "unbounded":
        rows = [(c, lp.GE, b) for c, _, b in rows[:2]]
    elif kind == "redundant":
        a = [_scalar(rng, -3, 3) for _ in range(n)]
        b = _scalar(rng, -4, 4)
        f = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
        rows.insert(rng.randint(0, len(rows)), (a, lp.EQ, b))
        rows.append(([f * v for v in a], lp.EQ, f * b))
    elif kind == "homogeneous":
        rows = [(c, rel, 0) for c, rel, _ in rows]
        rows.append(([_scalar(rng, -3, 3) for _ in range(n)], lp.EQ, rng.choice((0, 1))))
    if kind == "boxed" or (kind == "maximize" and k % 2):
        for j in range(n):
            e = [int(i == j) for i in range(n)]
            rows.append((e, lp.LE, rng.randint(1, 5)))
            rows.append((e, lp.GE, -rng.randint(0, 5)))
    objective = [_scalar(rng, -3, 3) for _ in range(n)]
    cons = [lp.constraint(c, rel, b) for c, rel, b in rows]
    return objective, cons, kind == "maximize"


def summary(res):
    """Every field of an LPResult, exact, in one line."""
    parts = [res.status]
    for name in ("x", "objective", "ray", "farkas"):
        v = getattr(res, name)
        if v is None:
            continue
        text = rat_str(v) if name == "objective" else ",".join(rat_str(t) for t in v)
        parts.append(f"{name}={text}")
    return " ".join(parts)


# solve_lp on seeded_lp(k) for k = 0, 1, ..., as the Fraction tableau that
# preceded the integer one solved them. Counted on that solver, 27 of them
# drop redundant rows after phase 1 and 8 drive an artificial out on a
# negative pivot.
PINNED = (
    'unbounded ray=-20/21,-16/7,1/7,-59/42',
    'infeasible farkas=0,2,-1',
    'optimal x=0 objective=0',
    'unbounded ray=-1,0',
    'infeasible farkas=1,-3/4,-9/8',
    'optimal x=1,22/15,-3/10 objective=19/60',
    'optimal x=0 objective=0',
    'unbounded ray=-1,0,0',
    'infeasible farkas=-1,0,1,3/4,-1',
    'unbounded ray=0,0,1,0',
    'infeasible farkas=1,0,-1,15/8,0,-1',
    'optimal x=1,-2,4/21,-59/21 objective=307/42',
    'optimal x=26/9,14/9,-2,-4 objective=-112/9',
    'unbounded ray=-2,2,1',
    'unbounded ray=1',
    'infeasible farkas=0,1,-1/2',
    'unbounded ray=-2/3,0,1',
    'unbounded ray=143/41,190/41,-54/41,-1',
    'unbounded ray=-1,-3',
    'optimal x=0 objective=0',
    'optimal x=0,0 objective=0',
    'infeasible farkas=1,0,-1/6,2/3',
    'infeasible farkas=-1/2,5/3,1,-1',
    'unbounded ray=0,1,0',
    'unbounded ray=-5,82/5,-1,12/5',
    'optimal x=-5,2,5,-4 objective=12',
    'infeasible farkas=1,0,0,0,0,1',
    'unbounded ray=136/9,-46/3,43/9,-1',
    'optimal x=-1/3 objective=-1',
    'infeasible farkas=-1,1,0,1,-1/3',
    'unbounded ray=1,1/2,0',
    'infeasible farkas=0,0,0,0,-1,-1',
    'infeasible farkas=1,-2/3',
    'infeasible farkas=-1/3,1,0,0,0,1',
    'unbounded ray=-2,-11/4,-1',
    'unbounded ray=3/5,1,-4/5',
    'infeasible farkas=0,1,-1/2',
    'optimal x=2 objective=4',
    'unbounded ray=1,0,3,-3',
    'infeasible farkas=1,1,1,0,0,0,0',
    'optimal x=2,1,0,2 objective=-26/3',
    'optimal x=-18/11,-3/2,-171/44,-9/2 objective=33/4',
    'optimal x=-1 objective=-2',
    'infeasible farkas=0,-25/8,-1,1,-1',
    'unbounded ray=1,0,4,0',
    'optimal x=2/11,-12/11,4/11 objective=-36/11',
    'infeasible farkas=1/6,-1,0,1',
    'optimal x=0,-2,-2 objective=2',
    'unbounded ray=2/3,-3/2,1',
    'infeasible farkas=0,1,-1',
    'infeasible farkas=0,0,0,1,-1/2',
    'unbounded ray=-1,1',
    'unbounded ray=0,0,1',
    'infeasible farkas=1/5,0,14/5,-1,0,0,0,0',
    'infeasible farkas=0,1,-2/3,0,0,2/3,0,0',
    'infeasible farkas=-1/8,1,1',
    'infeasible farkas=1,2/3,0,0',
    'infeasible farkas=1,1,0,-1,0',
    'unbounded ray=1/3,1',
    'optimal x=-4/3,4/3 objective=-5/3',
    'unbounded ray=11/2,-5/4,-1',
    'optimal x=-9/11,3,32/11,2 objective=-105/11',
    'optimal x=0,0 objective=0',
    'unbounded ray=58/133,16/7,1,417/266',
    'infeasible farkas=2,0,-1',
    'unbounded ray=-3,1,0,1',
    'infeasible farkas=1,0,0,1/2,-1',
    'optimal x=-3 objective=0',
    'optimal x=1,5,9/8,3 objective=-91/8',
    'infeasible farkas=-4,1',
    'infeasible farkas=0,0,1',
    'infeasible farkas=2,0,-1',
    'optimal x=-1 objective=-2',
    'unbounded ray=-1/3,-1/3,-1',
    'infeasible farkas=1/3,1,-1',
    'infeasible farkas=-23/20,1,-2/5,1/10,0,0,0,0,-1/10,0,0,0',
    'optimal x=1,-4/3,13/3 objective=1/3',
    'unbounded ray=6/11,-15/11,1',
    'infeasible farkas=0,1,-1/2',
    'optimal x=-4,10 objective=1/6',
    'infeasible farkas=-1/3,-1/2,-4,0,-1,1',
    'optimal x=4,-2,36/13,-7/13 objective=27/2',
    'optimal x=3,-1 objective=4',
    'unbounded ray=3/10,1/5,0,-7/20',
    'unbounded ray=-1,0,0',
    'infeasible farkas=1,0,-1/2',
    'infeasible farkas=1,1',
    'optimal x=40/23,33/23 objective=113/23',
    'unbounded ray=3/14,-1,0,5/14',
    'optimal x=1 objective=-1',
    'optimal x=0,0 objective=0',
    'unbounded ray=-1',
    'infeasible farkas=1,0,0,0,-1/2',
    'unbounded ray=1,15,21,0',
    'optimal x=1,1 objective=1',
    'infeasible farkas=0,-1,-1,1,0,0,0,5/6',
    'infeasible farkas=1,2/3,1/6,0,0,0,5/3,0,0',
    'optimal x=0,0 objective=0',
    'unbounded ray=0,-1,0',
    'infeasible farkas=-155/212,5/106,-47/53,1,1,-187/424',
    'unbounded ray=-1,-1/2',
    'infeasible farkas=-1/24,0,1,-2/3,1',
    'infeasible farkas=-1,1,3/2',
    'optimal x=3/10,0,-1,-3/10 objective=-4/5',
    'infeasible farkas=-1,1,1',
    'unbounded ray=-1,-1,0',
    'infeasible farkas=1,0,-1/2',
    'optimal x=-2,3/2 objective=-1',
    'unbounded ray=-1,-2',
    'infeasible farkas=1,0,0,0,0,3/4,0,0',
    'optimal x=5,11/3,-2,2 objective=-34/3',
    'infeasible farkas=-3,-14,1,1',
    'unbounded ray=-11/16,-1,-9/8,-7/8',
    'infeasible farkas=1,0,-2/3,0,0',
    'unbounded ray=-1,1/2',
    'optimal x=-98/41,-72/41,25/41 objective=228/41',
    'unbounded ray=2/3,0,1',
    'optimal x=-3,4 objective=-8',
    'optimal x=0,0 objective=0',
    'unbounded ray=1,0,-2/3',
    'infeasible farkas=5/7,-1,1,-19/14',
    'optimal x=-2 objective=0',
    'infeasible farkas=2/9,-1/6,1,1,-1',
    'infeasible farkas=-1/12,1,1,0,0',
    'optimal x=3,1,7/3 objective=-16/3',
    'optimal x=1/2,1/6 objective=-4/3',
    'unbounded ray=1/2',
    'infeasible farkas=1,-1,-7/8',
    'unbounded ray=0,1',
    'unbounded ray=-3,-1,-7/3',
    'unbounded ray=6,0,-1,-18',
    'optimal x=7/12,-2,3/4 objective=-5/2',
    'unbounded ray=-9/5,12/5,1,7/5',
    'unbounded ray=1,2,2,0',
    'infeasible farkas=0,0,1,-1/2',
    'unbounded ray=-3/2,9/2,1',
    'unbounded ray=10/9,1/3,-1,0',
    'optimal x=-1/3 objective=2/3',
    'optimal x=19/27,-1/9 objective=-20/27',
    'infeasible farkas=0,0,-2/3,1',
    'unbounded ray=-1',
    'infeasible farkas=-1,-4/3,1,1,-1,0',
    'unbounded ray=-1,0,0,0',
    'optimal x=4,-4/3 objective=4',
    'unbounded ray=0,-1,2/3,0',
    'optimal x=-1,-4,2,4 objective=-13',
    'optimal x=0,-1/3 objective=2/3',
    'optimal x=-1/6,0 objective=1/3',
    'infeasible farkas=1,0,-1/2',
    'unbounded ray=-1',
    'infeasible farkas=2,0,0,-2/3,-1,-1',
    'optimal x=1,-1,5,17/4 objective=15/2',
    'optimal x=8/3,-5,4,1 objective=-23',
    'unbounded ray=5/12,3/4,-1,0',
    'unbounded ray=1,3/2',
    'infeasible farkas=-1,1,-166/205,266/205,0,-79/82',
    'unbounded ray=2,-2/3,0,1',
    'unbounded ray=-9/31,1,-172/93,134/93',
    'unbounded ray=-1,-1',
    'optimal x=0,2,-1/2,2 objective=-25/4',
    'infeasible farkas=0,0,1/3,1',
    'unbounded ray=-1/4,1/4',
    'infeasible farkas=1,1,0,-4/9',
    'unbounded ray=5/3,1,6,0',
    'infeasible farkas=-1,-13/2,0,-1,1',
    'optimal x=3/4 objective=-3/4',
    'optimal x=-2,2 objective=-2',
    'optimal x=0,0 objective=0',
    'infeasible farkas=0,-1,1/2',
    'infeasible farkas=0,1,0,-1/2',
    'unbounded ray=1,-1/3,0',
    'unbounded ray=-58/47,-36/47,21/47,66/47',
    'unbounded ray=-1/2,1,1',
    'infeasible farkas=65/68,41/68,-43/68,1,0,0,0,0,0,0',
    'optimal x=0 objective=0',
    'unbounded ray=-5/18,-1/4,-1,0',
    'infeasible farkas=0,1,-1/2',
    'unbounded ray=1/3,0',
    'infeasible farkas=1,1,-1,1,0,-1',
    'optimal x=-2,-4 objective=8',
    'optimal x=2,1 objective=-5',
    'optimal x=0 objective=0',
    'unbounded ray=33/140,15/28,-11/35,1',
    'infeasible farkas=2,0,-1',
    'unbounded ray=0,1/2,1',
    'infeasible farkas=-7/16,1,-1,-1',
    'unbounded ray=9/5,1/5,2',
    'optimal x=5,-7/2,-2 objective=-24',
    'optimal x=0,0 objective=0',
    'unbounded ray=87/184,-17/23,-1,-25/92',
    'infeasible farkas=-1/3,1,-1,0',
    'unbounded ray=1/3,0',
    'infeasible farkas=1/36,11/4,-3/4,-1,1',
    'optimal x=5/7,-2,-4/7,0 objective=2/7',
    'optimal x=-2 objective=0',
    'unbounded ray=-4,2/3,1,0',
    'infeasible farkas=-1,1',
    'infeasible farkas=-1,3/2,1,-1',
    'unbounded ray=-1/3',
    'optimal x=-7/9,2/3,20/27 objective=-5',
    'optimal x=0 objective=0',
    'optimal x=-3/4 objective=3/4',
    'optimal x=0,0,0,0 objective=0',
    'optimal x=-4/3 objective=-4/3',
    'infeasible farkas=0,1,-1/2',
    'unbounded ray=-36/5,-1,0,8/5',
    'optimal x=-3/2 objective=3/2',
    'optimal x=-4,2 objective=3',
    'optimal x=4,-2,5 objective=-13/2',
    'infeasible farkas=0,0,1',
    'unbounded ray=0,0,1,1',
    'infeasible farkas=1,0,0,-1/2',
    'unbounded ray=1/2,1,0,0',
    'infeasible farkas=1,-35/16,1,-1,-9/16,-1',
    'optimal x=49/5,10,53/5 objective=-2',
    'infeasible farkas=0,-1,1,0,0',
    'unbounded ray=-3/2,-1',
    'unbounded ray=0,1,-1',
    'infeasible farkas=0,2,0,-1',
    'unbounded ray=0,0,1',
    'infeasible farkas=1,0,1,1',
    'infeasible farkas=0,-1,0,-2/3,0,0,0,0',
    'infeasible farkas=1,1/2,0,0',
    'unbounded ray=-1/12,-1/4,1',
    'unbounded ray=1/2',
    'infeasible farkas=0,2,0,-1',
    'unbounded ray=1/3,0,1,0',
    'unbounded ray=-2/3,-11/9,4/9,-1',
    'unbounded ray=2/7,-3/7',
    'optimal x=3,0 objective=-6',
    'infeasible farkas=1/4,-11/18,1,1',
    'unbounded ray=-1/3',
    'infeasible farkas=1,0,-1/2',
    'unbounded ray=1,1/4',
    'optimal x=0,-4,-7/2 objective=-71/8',
    'optimal x=4,-5,-5 objective=23',
    'optimal x=-1,-3/4,0 objective=-15/4',
    'unbounded ray=1,-13/4,-43/4,3/2',
    'unbounded ray=1,0,0',
    'infeasible farkas=-1,0,1,0',
    'optimal x=-2 objective=4/3',
    'infeasible farkas=0,8/9,1,0,-1',
    'unbounded ray=-1,0,0',
    'optimal x=2/3,-2,0 objective=-7/3',
    'unbounded ray=-105/142,-33/71,24/71,57/142',
    'unbounded ray=-1,0',
    'infeasible farkas=1,-1,0,1,0,0',
    'unbounded ray=0,-1,0,0',
    'optimal x=-16/31,-26/31,30/31,107/186 objective=156/31',
    'infeasible farkas=-3/4,1/12,-1,0,0,0,0,-1/12,0',
    'optimal x=4,-3,-4,-3 objective=-9',
    'infeasible farkas=-23/7,1,-80/77,-120/77,9/11',
    'optimal x=0 objective=0',
    'infeasible farkas=0,0,1,0,0,-1/2',
    'unbounded ray=9/8,1,1/4',
    'infeasible farkas=-1/4,1,1,0,-1',
    'unbounded ray=1/3,-2,1,-2',
    'optimal x=-2/3,1,0 objective=-7/6',
    'optimal x=0 objective=0',
    'infeasible farkas=-1',
    'infeasible farkas=1,1,-1/2',
    'unbounded ray=1,2,0,0',
    'optimal x=-1/3,-5/9,-1/3 objective=-11/9',
    'optimal x=48/37,-12/37,-13/37,1 objective=-137/37',
    'optimal x=-2/3,1,-14/9 objective=-6',
    'unbounded ray=0,-1,-3/8,-1/8',
    'infeasible farkas=1',
    'infeasible farkas=1,0,-1/2',
    'unbounded ray=0,1,1',
    'infeasible farkas=1,-8/9,-1',
    'optimal x=80/9,-22/9 objective=-19/2',
    'optimal x=4,21/20,37/16,-97/40 objective=-185/16',
    'unbounded ray=-1/18,10/9,1/3,-5/6',
    'unbounded ray=0,1',
    'infeasible farkas=-1,0,1,-75/32,1,-13/32',
    'unbounded ray=1',
    'unbounded ray=1,1/3,-1',
    'infeasible farkas=1,-1/2,0,1',
    'infeasible farkas=5/27,11/27,4/27,0,0,0,0,1,0,0',
    'optimal x=54/247,-3/13,84/247,141/247 objective=3/2',
)


def test_pinned_lps():
    statuses = [p.split()[0] for p in PINNED]
    assert min(statuses.count(s) for s in (lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED)) >= 50
    got = []
    for k in range(len(PINNED)):
        objective, cons, maximize = seeded_lp(k)
        got.append(summary(lp.solve_lp(objective, cons, maximize=maximize)))
    assert [k for k, (g, p) in enumerate(zip(got, PINNED)) if g != p] == []


def _bounded_lp(k):
    rng = random.Random(1000 + k)
    n = rng.randint(1, 4)
    lower = [rng.choice((None, 0, 1, -2, Fraction(1, 2))) for _ in range(n)]
    rows = [([_scalar(rng, -3, 3) for _ in range(n)], rng.choice((lp.GE, lp.LE, lp.EQ)),
             _scalar(rng, -4, 4)) for _ in range(rng.randint(1, 4))]
    if k % 2:
        rows += [([int(i == j) for i in range(n)], lp.LE, 5) for j in range(n)]
    objective = [_scalar(rng, -3, 3) for _ in range(n)]
    return objective, [lp.constraint(*r) for r in rows], lower


def _highs(objective, cons, lower):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for c in cons:
        row = [float(a) for a in c.coeffs]
        if c.rel == lp.EQ:
            a_eq.append(row)
            b_eq.append(float(c.rhs))
        else:
            s = -1.0 if c.rel == lp.GE else 1.0
            a_ub.append([s * a for a in row])
            b_ub.append(s * float(c.rhs))
    return linprog([float(c) for c in objective], A_ub=a_ub or None, b_ub=b_ub or None,
                   A_eq=a_eq or None, b_eq=b_eq or None,
                   bounds=[(None if low is None else float(low), None) for low in lower],
                   method="highs")


HIGHS_STATUS = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}


@pytest.mark.parametrize("k", range(60))
def test_bounded_variables_against_highs_and_bound_rows(k):
    objective, cons, lower = _bounded_lp(k)
    res = lp.solve_lp(objective, cons, lower=lower)
    ref = _highs(objective, cons, lower)
    assert res.status == HIGHS_STATUS[ref.status]
    # the same LP with each bound as a row: same status, same optimum
    n = len(objective)
    rows = [lp.constraint([int(i == j) for i in range(n)], lp.GE, low)
            for j, low in enumerate(lower) if low is not None]
    as_rows = lp.solve_lp(objective, cons + rows)
    assert as_rows.status == res.status
    if res.status == lp.OPTIMAL:
        assert res.objective == as_rows.objective
        assert res.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert all(low is None or x >= low for x, low in zip(res.x, lower))
        for c in cons:
            v = vdot(c.coeffs, res.x)
            assert v >= c.rhs if c.rel == lp.GE else v <= c.rhs if c.rel == lp.LE else v == c.rhs
    elif res.status == lp.UNBOUNDED:
        assert all(low is None or r >= 0 for r, low in zip(res.ray, lower))
    else:
        assert len(res.farkas) == len(cons)


def test_bounds_with_no_constraint_rows():
    assert summary(lp.solve_lp([1, -1], [], lower=[0, None])) == "unbounded ray=0,1"
    assert summary(lp.solve_lp([1, 2], [], lower=[3, "1/2"])) == "optimal x=3,1/2 objective=4"
    assert lp.feasibility([], dim=2, lower=[None, 2]).x == (0, 2)
    with pytest.raises(lp.DimensionMismatchError):
        lp.solve_lp([1, 2], [lp.constraint([1, 1], lp.GE, 0)], lower=[0])
    with pytest.raises(lp.DimensionMismatchError):
        lp.feasibility([], dim=2, lower=[0])


def test_bounded_variables_give_a_farkas_certificate_that_counts_the_bounds():
    # x + y == 1 with x, y >= 1 is empty only because of the bounds
    cons = [lp.constraint([1, 1], lp.EQ, 1)]
    res = lp.feasibility(cons, lower=[1, 1])
    assert res.status == lp.INFEASIBLE
    lp._verify_farkas(cons, res.farkas, [1, 1])
    with pytest.raises(AssertionError):
        lp._verify_farkas(cons, res.farkas)  # free variables: no certificate
    # x >= 1 with x >= 0 is feasible: y = 1 sums to +x, which the bound
    # cannot cancel, though y * 1 - (+1) * 0 > 0
    with pytest.raises(AssertionError):
        lp._verify_farkas([lp.constraint([1], lp.GE, 1)], [rat(1)], [0])
    x = lp.feasibility(cons, lower=[0, Fraction(1, 3)]).x
    assert sum(x) == 1 and x[0] >= 0 and x[1] >= Fraction(1, 3)


def test_one_corrupted_farkas_multiplier_is_refused():
    corrupted = 0
    for k, expected in enumerate(PINNED):
        if not expected.startswith(lp.INFEASIBLE):
            continue
        objective, cons, maximize = seeded_lp(k)
        farkas = lp.solve_lp(objective, cons, maximize=maximize).farkas
        lp._verify_farkas(cons, farkas)
        for i, c in enumerate(cons):
            if any(c.coeffs):
                # every variable is free, so the combination must vanish:
                # moving one multiplier of a nonzero row breaks it
                bad = list(farkas)
                bad[i] += 1
                with pytest.raises(AssertionError):
                    lp._verify_farkas(cons, bad)
                corrupted += 1
    assert corrupted >= 200


@pytest.mark.parametrize(
    "ray,lower,message",
    [
        ((1, 1), None, "leaves the feasible cone"),
        ((-1, 0), None, "does not improve"),
        ((1, -1), [None, 0], "leaves a variable's bound"),
    ],
)
def test_a_corrupted_ray_is_refused(ray, lower, message):
    objective = [-1, 0]
    cons = [lp.constraint([1, 0], lp.GE, 0), lp.constraint([0, 1], lp.EQ, 0)]
    res = lp.solve_lp(objective, cons)
    assert res.status == lp.UNBOUNDED and res.ray == (1, 0)
    lp._verify_ray(objective, cons, res.ray, lower)
    with pytest.raises(AssertionError, match=message):
        lp._verify_ray(objective, cons, tuple(rat(r) for r in ray), lower)
