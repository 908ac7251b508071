"""Exact rational scalars and small dense linear algebra over them.

gmpy2.mpq backs the scalar when available (much faster); fractions.Fraction
otherwise. Nothing here touches floats except through explicit conversion by
callers, so every predicate built on top stays tolerance-free.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    import gmpy2

    _MPQ = gmpy2.mpq
    _RAT_SCALAR = type(_MPQ(0))
except ImportError:  # gmpy2 is optional (the `fast` extra)
    _MPQ = None
    _RAT_SCALAR = Fraction


def rat(value=0, den=None):
    """Coerce ``value`` (int, str like "3/2" or "1.5", float, Fraction, mpq)
    to the exact scalar type. Floats convert exactly (every float is rational).
    A zero denominator, as in "1/0", is a ValueError.
    """
    if den is not None:
        if den == 0:
            raise ValueError(f"zero denominator in {value}/{den}")
        if _MPQ is not None:
            return _MPQ(value, den)
        return Fraction(value, den)
    if isinstance(value, _RAT_SCALAR):
        return value
    if isinstance(value, (str, float)):
        try:
            f = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        if _MPQ is not None:
            return _MPQ(f.numerator, f.denominator)
        return f
    if isinstance(value, Fraction):
        if _MPQ is not None:
            return _MPQ(value.numerator, value.denominator)
        return value
    if isinstance(value, int):
        if _MPQ is not None:
            return _MPQ(value)
        return Fraction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a rational")


ZERO = rat(0)
ONE = rat(1)


def rat_str(x) -> str:
    """Wire format: "5", "-2/3"."""
    return str(rat(x))


def vec(values) -> tuple:
    """An exact vector. A string or a dict (a JSON object) is refused: its
    characters or keys would read as coordinates."""
    if isinstance(values, (str, dict)):
        raise ValueError(f"a vector must be an array, not {values!r}")
    return tuple(rat(v) for v in values)


def vdot(a, b):
    s = ZERO
    for x, y in zip(a, b, strict=True):
        s += x * y
    return s


def vsub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def mat_vec(rows, v) -> tuple:
    return tuple(vdot(r, v) for r in rows)


def _copy_rows(rows):
    return [[rat(x) for x in r] for r in rows]


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns)."""
    m = _copy_rows(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def solve(rows, rhs):
    """One exact solution of ``rows @ x = rhs`` or None if inconsistent.

    As in numpy.linalg.solve, rhs is a vector or a matrix given by its rows;
    a matrix rhs is solved by one elimination for all its columns and gives
    the solution matrix by rows, or None if any column is inconsistent.
    Free variables are set to zero.
    """
    if not rows:
        return ()
    ncols = len(rows[0])
    matrix = bool(rhs) and isinstance(rhs[0], (list, tuple))
    aug = [list(r) + (list(b) if matrix else [b]) for r, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    # a pivot in an rhs column means 0 = 1
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[ZERO] * (len(aug[0]) - ncols) for _ in range(ncols)]
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols:]
    if matrix:
        return tuple(tuple(r) for r in x)
    return tuple(r[0] for r in x)


def nullspace(rows, ncols=None):
    """Basis of the kernel of the matrix (list of tuples)."""
    if not rows:
        if ncols is None:
            raise ValueError("nullspace of an empty matrix needs ncols")
        return [tuple(ONE if j == i else ZERO for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    return basis


def det(rows):
    """Exact determinant (fraction-free not needed at these sizes)."""
    n = len(rows)
    m = _copy_rows(rows)
    result = ONE
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot = i
                break
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


def primitive(v) -> tuple:
    """Canonical representative of the LINE through v: integer entries,
    gcd 1, first nonzero entry positive. Zero vector maps to itself.
    The sign normalization loses the side of the ray; use primitive_ray
    when orientation matters."""
    p = primitive_ray(v)
    for i in p:
        if i != 0:
            if i < 0:
                p = tuple(-k for k in p)
            break
    return p


def primitive_ray(v) -> tuple:
    """Shortest integer vector on the ray through v, orientation kept."""
    if all(x == 0 for x in v):
        return tuple(ZERO for _ in v)
    denoms = [int(rat(x).denominator) for x in v]
    scale = math.lcm(*denoms)
    ints = [int(rat(x) * scale) for x in v]
    g = math.gcd(*(abs(i) for i in ints))
    return tuple(rat(i // g) for i in ints)
