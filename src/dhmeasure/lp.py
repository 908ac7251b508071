"""Exact rational linear programming (two-phase simplex, Bland's rule) on a
fraction-free integer tableau.

A variable is free or bounded below. A free variable splits into a difference
of nonnegative parts; a bounded one, x_j >= l_j, is the one nonnegative column
x_j - l_j, with no row, slack or artificial of its own. Every row gets an
artificial variable, so certificate extraction is uniform: Farkas
multipliers come out of the phase-1 cost row, unbounded rays out of the
failing phase-2 column. Both certificates are re-verified exactly against
the caller's constraints before they are returned, so a simplex bug cannot
leak a wrong certificate.

The tableau holds Python integers only. Each row is scaled by the lcm s_i of
its denominators when it is built, and the whole tableau shares one
denominator D, the last pivot: the rational tableau is rows / D. A pivot
p > 0 at (r, c) turns every other row a into (p*a - a[c]*row_r) // D, and
that division is always exact (Bareiss, Math. Comp. 22, 1968), so no gcd is
taken until x, a ray or the multipliers are turned back into rationals at
the end. Row i's artificial variable is s_i times the rational one, and the
phase-1 cost charges it 1/s_i: every reduced cost keeps its sign, so every
pivot is the one the rational tableau would take.

Bland's rule (lowest eligible index for entering and leaving variable) makes
every solve deterministic and cycle-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rational import ZERO, ONE, bareiss_step, integer_vector, rat, vdot


class DimensionMismatchError(ValueError):
    pass


GE = ">="
LE = "<="
EQ = "=="
_RELS = (GE, LE, EQ)


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple
    rel: str
    rhs: object


def constraint(coeffs, rel, rhs) -> LinearConstraint:
    if rel not in _RELS:
        raise ValueError(f"bad relation {rel!r}")
    return LinearConstraint(tuple(rat(c) for c in coeffs), rel, rat(rhs))


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: tuple | None = None
    objective: object | None = None
    ray: tuple | None = None      # feasible direction with objective . ray < 0
    farkas: tuple | None = None   # one multiplier per input constraint


class _Tableau:
    def __init__(self, rows, basis):
        self.rows = rows          # integer lists, rhs last
        self.basis = basis        # basic column per row
        self.den = 1              # common denominator D, the last pivot

    def pivot(self, r, c, cost=None):
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        if p < 0:  # only the drive-out of artificials pivots on a negative
            prow = rows[r] = [-a for a in prow]
            p = -p
        den = self.den
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = bareiss_step(row, prow, p, row[c], den)
        if cost is not None:
            cost[:] = bareiss_step(cost, prow, p, cost[c], den)
        self.den = p
        self.basis[r] = c

    def run(self, cost):
        """Minimize over the columns of cost but its last (the rhs).
        Returns 'optimal' or ('unbounded', entering_col)."""
        rows, basis = self.rows, self.basis
        while True:
            enter = next((j for j in range(len(cost) - 1) if cost[j] < 0), -1)
            if enter < 0:
                return OPTIMAL, -1
            leave = -1
            for i, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    if leave >= 0:  # row[-1] / a against the best b / q
                        lhs, rhs = row[-1] * q, b * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    leave, b, q = i, row[-1], a
            if leave < 0:
                return UNBOUNDED, enter
            self.pivot(leave, enter, cost)


def _standardize(constraints, lower):
    """Integer rows with slacks and artificials. Returns the rows, each row's
    flip (-1 when its rhs was negative) and scale, and the column layout:
    the n variables, the negative parts of the free ones, slacks, then
    artificials from art0."""
    n = len(lower)
    for c in constraints:
        if len(c.coeffs) != n:
            raise DimensionMismatchError(
                f"constraint has {len(c.coeffs)} coefficients, the objective {n}"
            )
    free = [j for j, low in enumerate(lower) if low is None]
    shift = [(j, low) for j, low in enumerate(lower) if low]
    m = len(constraints)
    slack = n + len(free)
    art0 = slack + sum(1 for c in constraints if c.rel != EQ)
    zeros = [0] * (art0 - slack + m)

    rows, flips, scales = [], [], []
    for i, c in enumerate(constraints):
        rhs = c.rhs
        for j, low in shift:
            rhs -= c.coeffs[j] * low
        ints, s = integer_vector((*c.coeffs, rhs))
        flip = -1 if rhs < 0 else 1
        if flip < 0:
            ints = [-a for a in ints]
        row = ints[:n] + [-ints[j] for j in free] + zeros + ints[n:]
        if c.rel != EQ:
            row[slack] = -flip * s if c.rel == GE else flip * s
            slack += 1
        row[art0 + i] = 1
        rows.append(row)
        flips.append(flip)
        scales.append(s)
    return rows, flips, scales, free, art0


def _unconstrained(objective, lower) -> LPResult:
    """Minimize with no constraint rows: unbounded along the first variable
    whose objective coefficient its bound (or its freedom) lets improve."""
    for j, (c, low) in enumerate(zip(objective, lower)):
        if c < 0 or (c > 0 and low is None):
            ray = [ZERO] * len(objective)
            ray[j] = -ONE if c > 0 else ONE
            return LPResult(UNBOUNDED, ray=tuple(ray))
    x = tuple(ZERO if low is None else low for low in lower)
    return LPResult(OPTIMAL, x=x, objective=vdot(objective, x))


def _unsplit(full, den, n, free):
    """The n variables' column values full / den, each free one less its
    negative part."""
    out = list(full[:n])
    for k, j in enumerate(free):
        out[j] -= full[n + k]
    return [rat(v, den) for v in out]


def solve_lp(objective, constraints, *, maximize=False, lower=None) -> LPResult:
    """Optimize objective . x over the constraint system. lower[j] is x_j's
    lower bound, None for a free variable; every variable is free by default."""
    objective = tuple(rat(c) for c in objective)
    if maximize:
        inner = solve_lp(tuple(-c for c in objective), constraints, lower=lower)
        if inner.objective is not None:
            inner.objective = -inner.objective
        return inner
    constraints = list(constraints)
    n = len(objective)
    if lower is None:
        lower = (None,) * n
    else:
        lower = tuple(None if low is None else rat(low) for low in lower)
        if len(lower) != n:
            raise DimensionMismatchError(f"{len(lower)} lower bounds for {n} variables")
    if not constraints:
        return _unconstrained(objective, lower)
    rows, flips, scales, free, art0 = _standardize(constraints, lower)
    m = len(rows)
    tab = _Tableau(rows, [art0 + i for i in range(m)])

    # phase 1: minimize the artificial sum; row i's artificial costs 1/s_i,
    # so the cost row is kept times L, the lcm of the scales, and times D
    big = math.lcm(*scales)
    weights = [big // s for s in scales]
    cost = [-sum(w * a for w, a in zip(weights, col)) for col in zip(*rows)]
    cost[art0:-1] = [0] * m
    tab.run(cost)
    if cost[-1] < 0:
        # Farkas: y_i = 1 - s_i * (reduced cost of artificial i), flipped back
        ld = big * tab.den
        farkas = tuple(
            rat(flip * (ld - s * cost[art0 + i]), ld)
            for i, (flip, s) in enumerate(zip(flips, scales))
        )
        _verify_farkas(constraints, farkas, lower)
        return LPResult(INFEASIBLE, farkas=farkas)

    # drive remaining artificials out of the basis where possible, then
    # drop the rows where that fails and every artificial column
    keep = []
    for i in range(m):
        if tab.basis[i] >= art0:
            piv = next((j for j in range(art0) if tab.rows[i][j] != 0), -1)
            if piv < 0:
                continue
            tab.pivot(i, piv)
        keep.append(i)
    tab.rows = [tab.rows[i][:art0] + tab.rows[i][-1:] for i in keep]
    tab.basis = [tab.basis[i] for i in keep]

    # phase 2, its cost row kept times the lcm of the objective's
    # denominators and times D
    cints, _ = integer_vector(objective)
    cvals = cints + [-cints[j] for j in free] + [0] * (art0 - n - len(free))
    den = tab.den
    cost = [v * den for v in cvals] + [0]
    for row, b in zip(tab.rows, tab.basis):
        f = cvals[b]
        if f:
            cost = [a - f * x for a, x in zip(cost, row)]
    status, enter = tab.run(cost)
    den = tab.den
    full = [0] * art0
    if status == UNBOUNDED:
        full[enter] = den
        for row, b in zip(tab.rows, tab.basis):
            full[b] = -row[enter]
        ray = tuple(_unsplit(full, den, n, free))
        _verify_ray(objective, constraints, ray, lower)
        return LPResult(UNBOUNDED, ray=ray)

    for row, b in zip(tab.rows, tab.basis):
        full[b] = row[-1]
    x = tuple(v + low if low else v for v, low in zip(_unsplit(full, den, n, free), lower))
    return LPResult(OPTIMAL, x=x, objective=vdot(objective, x))


def feasibility(constraints, dim=None, lower=None) -> LPResult:
    """Feasibility with witness or exact Farkas certificate; lower as in
    solve_lp."""
    constraints = list(constraints)
    if not constraints:
        if dim is None:
            raise ValueError("feasibility of an empty system needs dim")
        return solve_lp((ZERO,) * dim, [], lower=lower)
    n = len(constraints[0].coeffs)
    return solve_lp(tuple(ZERO for _ in range(n)), constraints, lower=lower)


def _verify_farkas(constraints, farkas, lower=None):
    """y proves infeasibility: sum y_i a_i = z with z_j = 0 on free and
    z_j <= 0 on bounded variables, and sum y_i b_i > z . l."""
    n = len(constraints[0].coeffs)
    combo = [ZERO] * n
    rhs = ZERO
    for c, y in zip(constraints, farkas):
        if c.rel == GE and y < 0:
            raise AssertionError("farkas sign violated on >= row")
        if c.rel == LE and y > 0:
            raise AssertionError("farkas sign violated on <= row")
        for j, a in enumerate(c.coeffs):
            combo[j] += y * a
        rhs += y * c.rhs
    for v, low in zip(combo, lower or (None,) * n):
        if v > 0 or (v < 0 and low is None):
            raise AssertionError("invalid farkas certificate (simplex bug)")
        if low is not None:
            rhs -= v * low
    if rhs <= 0:
        raise AssertionError("invalid farkas certificate (simplex bug)")


def _verify_ray(objective, constraints, ray, lower=None):
    if vdot(objective, ray) >= 0:
        raise AssertionError("unbounded ray does not improve the objective")
    if any(low is not None and r < 0 for r, low in zip(ray, lower or ())):
        raise AssertionError("unbounded ray leaves a variable's bound")
    for c in constraints:
        v = vdot(c.coeffs, ray)
        ok = v >= 0 if c.rel == GE else v <= 0 if c.rel == LE else v == 0
        if not ok:
            raise AssertionError("unbounded ray leaves the feasible cone")
