"""The density engine's recursion data in exact Fractions, built the way the
library built it before the kernel came straight from one fraction-free
elimination: Fraction inverse rows from `solve`, a Fraction determinant per
leaf, and an lcm conversion to integer rows. The tests compare the library's
`det`, `_kernel` and densities against it.
"""

from __future__ import annotations

import math
from functools import lru_cache

from dhmeasure.rational import ONE, ZERO, rank, rat, rref, solve, vdot


def fraction_det(rows):
    """Determinant by Gaussian elimination in Fractions."""
    n = len(rows)
    m = [[rat(x) for x in r] for r in rows]
    result = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        pv = m[c][c]
        result *= pv
        inv = ONE / pv
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


@lru_cache(maxsize=1024)
def fraction_plan(factors) -> tuple:
    """Nodes (scale, rows, children, ties) of a sorted spanning factor tuple,
    children before parents and the root last, with Fraction rows of the
    inverse of each node's basis and Fraction scales 1/(k - d) or 1/|det C|;
    cached, since the density tests evaluate one plan at many points."""
    d = len(factors[0])
    total = tuple(sum(f[j] for f in factors) for j in range(d))
    nodes = []
    index = {}

    def columns(vectors):
        return [[v[j] for v in vectors] for j in range(d)]

    def build(vectors):
        if vectors in index:
            return index[vectors]
        basis = [vectors[p] for p in rref(columns(vectors))[1]]
        B = columns(basis)
        rows = solve(B, [[ONE if i == j else ZERO for j in range(d)] for i in range(d)])
        if len(vectors) == d:
            ties = tuple(
                next(1 if v > 0 else -1 for v in (vdot(row, total),) + row if v != 0)
                for row in rows
            )
            node = (ONE / abs(fraction_det(B)), rows, None, ties)
        else:
            others = list(vectors)
            for b in basis:
                others.remove(b)
            kept, children = [], []
            for b, row in zip(basis, rows):
                if any(vdot(row, v) != 0 for v in others):
                    p = vectors.index(b)
                    kept.append(row)
                    children.append(build(vectors[:p] + vectors[p + 1:]))
            node = (ONE / (len(vectors) - d), tuple(kept), tuple(children), None)
        nodes.append(node)
        index[vectors] = len(nodes) - 1
        return index[vectors]

    assert rank(columns(factors)) == d
    build(factors)
    return tuple(nodes)


def lcm_kernel(plan) -> tuple:
    """(nodes, Q): the plan's rows times the lcm of their denominators and,
    for an inner node, times L / Q_child, with L the lcm of its children's
    Q_child; leaf scale and Q the numerator and denominator of 1/|det C|."""
    nodes, dens = [], []
    for scale, rows, children, ties in plan:
        rowden = math.lcm(*(a.denominator for row in rows for a in row))
        den = int(scale.denominator)
        if children is None:
            mults = (1,) * len(rows)
        else:
            lcm = math.lcm(*(dens[k] for k in children))
            mults = tuple(lcm // dens[k] for k in children)
            den *= rowden * lcm
        int_rows = tuple(
            tuple(int(a.numerator) * (rowden // int(a.denominator)) * m for a in row)
            for row, m in zip(rows, mults)
        )
        nodes.append((int(scale.numerator), int_rows, children, ties))
        dens.append(den)
    return tuple(nodes), dens[-1]


def fraction_density(factors, mu):
    """The truncated power of the factors at the rational point mu, by the
    Dahmen-Micchelli recursion on the Fraction plan."""
    values = []
    for scale, rows, children, ties in fraction_plan(tuple(sorted(factors))):
        if children is None:
            inside = all(
                lam > 0 or (lam == 0 and tie > 0)
                for lam, tie in ((vdot(row, mu), tie) for row, tie in zip(rows, ties))
            )
            values.append(scale if inside else ZERO)
        else:
            values.append(scale * sum(
                (vdot(row, mu) * values[k] for row, k in zip(rows, children)), ZERO
            ))
    return values[-1]
