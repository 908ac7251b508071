"""Exact rational linear programming (two-phase simplex, Bland's rule).

Variables are free; internally each splits into a difference of nonnegative
parts and every row gets an artificial variable, so certificate extraction is
uniform: Farkas multipliers come out of the phase-1 cost row, unbounded rays
out of the failing phase-2 column. Both certificates are re-verified exactly
before they are returned, so a simplex bug cannot leak a wrong certificate.

Bland's rule (lowest eligible index for entering and leaving variable) makes
every solve deterministic and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import ZERO, ONE, rat, vdot


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
    def __init__(self, rows, ncols):
        self.rows = rows          # list of lists, length ncols + 1 (rhs last)
        self.basis = []           # basic column per row
        self.ncols = ncols

    def pivot(self, r, c, cost):
        row = self.rows[r]
        pv = row[c]
        if pv != ONE:
            inv = ONE / pv
            self.rows[r] = row = [x * inv for x in row]
        for i, other in enumerate(self.rows):
            if i != r and other[c] != 0:
                f = other[c]
                self.rows[i] = [a - f * b for a, b in zip(other, row)]
        if cost[c] != 0:
            f = cost[c]
            for k in range(len(cost)):
                if row[k] != 0:
                    cost[k] -= f * row[k]
        self.basis[r] = c

    def run(self, cost, allowed):
        """Minimize. Returns 'optimal' or ('unbounded', entering_col)."""
        while True:
            enter = -1
            for j in range(self.ncols):
                if allowed[j] and cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, -1
            leave = -1
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED, enter
            self.pivot(leave, enter, cost)


def _standardize(objective, constraints):
    """Split free vars, add slacks and artificials. Returns layout info."""
    n = len(constraints[0].coeffs) if constraints else len(objective)
    for c in constraints:
        if len(c.coeffs) != n:
            raise DimensionMismatchError(
                f"constraint has {len(c.coeffs)} coefficients, expected {n}"
            )
    m = len(constraints)
    n_slack = sum(1 for c in constraints if c.rel != EQ)
    ncols = 2 * n + n_slack + m
    art0 = 2 * n + n_slack

    rows = []
    flips = []
    slack_at = 0
    for i, c in enumerate(constraints):
        row = [ZERO] * (ncols + 1)
        for j, a in enumerate(c.coeffs):
            row[j] = a
            row[n + j] = -a
        if c.rel == GE:
            row[2 * n + slack_at] = -ONE
            slack_at += 1
        elif c.rel == LE:
            row[2 * n + slack_at] = ONE
            slack_at += 1
        row[-1] = c.rhs
        if c.rhs < 0:
            row = [-x for x in row]
            flips.append(-ONE)
        else:
            flips.append(ONE)
        row[art0 + i] = ONE
        rows.append(row)
    return n, m, ncols, art0, rows, flips


def solve_lp(objective, constraints, *, maximize=False) -> LPResult:
    """Optimize objective . x over the constraint system (free variables)."""
    objective = tuple(rat(c) for c in objective)
    if maximize:
        inner = solve_lp(tuple(-c for c in objective), constraints)
        if inner.objective is not None:
            inner.objective = -inner.objective
        return inner
    constraints = list(constraints)
    n = len(objective)
    if not constraints:
        if all(c == 0 for c in objective):
            return LPResult(OPTIMAL, x=tuple(ZERO for _ in range(n)), objective=ZERO)
        j = next(i for i, c in enumerate(objective) if c != 0)
        ray = [ZERO] * n
        ray[j] = -ONE if objective[j] > 0 else ONE
        return LPResult(UNBOUNDED, ray=tuple(ray))

    n2, m, ncols, art0, rows, flips = _standardize(objective, constraints)
    if n2 != n:
        raise DimensionMismatchError(
            f"objective has {n} coefficients, constraints have {n2}"
        )
    tab = _Tableau(rows, ncols)
    tab.basis = [art0 + i for i in range(m)]

    # phase 1: minimize the artificial sum
    cost = [ZERO] * (ncols + 1)
    for j in range(art0):
        cost[j] = -sum((row[j] for row in tab.rows), ZERO)
    cost[-1] = -sum((row[-1] for row in tab.rows), ZERO)
    allowed = [True] * ncols
    tab.run(cost, allowed)
    phase1 = -cost[-1]
    if phase1 > 0:
        # Farkas: y_i = 1 - reduced cost of artificial i, flipped back
        farkas = []
        for i in range(m):
            y = ONE - cost[art0 + i]
            farkas.append(flips[i] * y)
        _verify_farkas(constraints, farkas)
        return LPResult(INFEASIBLE, farkas=tuple(farkas))

    # drive remaining artificials out of the basis where possible
    drop_rows = []
    for i in range(m):
        if tab.basis[i] >= art0:
            piv = next((j for j in range(art0) if tab.rows[i][j] != 0), -1)
            if piv >= 0:
                tab.pivot(i, piv, cost)
            else:
                drop_rows.append(i)
    if drop_rows:
        tab.rows = [r for i, r in enumerate(tab.rows) if i not in drop_rows]
        tab.basis = [b for i, b in enumerate(tab.basis) if i not in drop_rows]

    # phase 2
    allowed = [j < art0 for j in range(ncols)]
    cost2 = [ZERO] * (ncols + 1)
    for j in range(n):
        cost2[j] = objective[j]
        cost2[n + j] = -objective[j]
    for i, b in enumerate(tab.basis):
        if cost2[b] != 0:
            f = cost2[b]
            for k in range(len(cost2)):
                if tab.rows[i][k] != 0:
                    cost2[k] -= f * tab.rows[i][k]
    status, enter = tab.run(cost2, allowed)
    if status == UNBOUNDED:
        d = [ZERO] * ncols
        d[enter] = ONE
        for i, b in enumerate(tab.basis):
            d[b] = -tab.rows[i][enter]
        ray = tuple(d[j] - d[n + j] for j in range(n))
        _verify_ray(objective, constraints, ray)
        return LPResult(UNBOUNDED, ray=ray)

    xfull = [ZERO] * ncols
    for i, b in enumerate(tab.basis):
        xfull[b] = tab.rows[i][-1]
    x = tuple(xfull[j] - xfull[n + j] for j in range(n))
    return LPResult(OPTIMAL, x=x, objective=vdot(objective, x))


def feasibility(constraints, dim=None) -> LPResult:
    """Feasibility with witness or exact Farkas certificate."""
    constraints = list(constraints)
    if not constraints:
        if dim is None:
            raise ValueError("feasibility of an empty system needs dim")
        return LPResult(OPTIMAL, x=tuple(ZERO for _ in range(dim)), objective=ZERO)
    n = len(constraints[0].coeffs)
    return solve_lp(tuple(ZERO for _ in range(n)), constraints)


def _verify_farkas(constraints, farkas):
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
    if any(v != 0 for v in combo) or rhs <= 0:
        raise AssertionError("invalid farkas certificate (simplex bug)")


def _verify_ray(objective, constraints, ray):
    if vdot(objective, ray) >= 0:
        raise AssertionError("unbounded ray does not improve the objective")
    for c in constraints:
        v = vdot(c.coeffs, ray)
        ok = v >= 0 if c.rel == GE else v <= 0 if c.rel == LE else v == 0
        if not ok:
            raise AssertionError("unbounded ray leaves the feasible cone")
