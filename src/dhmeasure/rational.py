"""Exact rational scalars and small dense linear algebra over them.

gmpy2.mpq backs the scalar when available (much faster); fractions.Fraction
otherwise. Nothing here touches floats except through explicit conversion by
callers, so every predicate built on top stays tolerance-free.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

try:
    import gmpy2

    _MPQ = gmpy2.mpq
    _RAT_SCALAR = type(_MPQ(0))
except ImportError:  # gmpy2 is optional (the `fast` extra)
    _MPQ = None
    _RAT_SCALAR = Fraction


def rat(value=0, den=None):
    """Coerce ``value`` (int or another integral type such as mpz, str like
    "3/2" or "1.5", float, Fraction, mpq) to the exact scalar type. Floats
    convert exactly (every float is rational). A zero denominator, as in
    "1/0", is a ValueError; a bool is a TypeError.
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
        if type(value) is bool:  # JSON true/false, not the numbers 1 and 0
            raise TypeError(f"{value!r} is a boolean, not a number")
        if _MPQ is not None:
            return _MPQ(value)
        return Fraction(value)
    if hasattr(type(value), "__index__"):
        return rat(operator.index(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to a rational")


ZERO = rat(0)
ONE = rat(1)


class PureDeltaError(ValueError):
    """A point mass has no density function (engine and oracles alike)."""


def dimension(value) -> int:
    """A dimension read from input: an integer at least 0, where an integral
    float such as 2.0 reads as 2. Anything else, a boolean included, is a
    ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not a dimension (an integer at least 0)")
    return value


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


def integer_vector(values):
    """(ints, scale): the rationals ``values`` times scale, the lcm of their
    denominators, read off numerators and denominators with no gcd taken.
    The integers are Python ints on either backend (gmpy2 reads off mpz)."""
    scale = math.lcm(*(v.denominator for v in values))
    return [int(v.numerator) * (scale // int(v.denominator)) for v in values], scale


def bareiss_step(row, prow, p, f, den):
    """One fraction-free row update, (p*row - f*prow) // den, for pivot p
    on the pivot row prow, row's entry f in the pivot column and den the
    previous pivot. On a tableau whose every row takes the step the division
    is always exact (Bareiss, Math. Comp. 22, 1968)."""
    if f == 0:
        return row if p == den else [a * p // den for a in row]
    return [(p * a - f * b) // den for a, b in zip(row, prow)]


def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan elimination, behind rref, rank, solve,
    nullspace and det.

    Returns (m, pivots, den, sign, scales): each row times scales[i], the
    lcm of its denominators, reduced by bareiss_step to integer rows m whose
    quotient by den, the last pivot (1 if none), is the reduced row echelon
    form; pivots are its pivot columns and sign the parity of the row swaps.
    A square matrix of full rank has det = sign * den / prod(scales).
    Python ints are read as they are, anything else through rat().
    """
    scaled = [integer_vector([x if type(x) is int else rat(x) for x in r]) for r in rows]
    m = [ints for ints, _ in scaled]
    pivots = []
    r, den, sign = 0, 1, 1
    nrows = len(m)
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            if i != r:
                m[i] = bareiss_step(m[i], prow, p, m[i][c], den)
        den = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, den, sign, [s for _, s in scaled]


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns): the
    integer rows of _gauss_jordan over its last pivot, as rationals."""
    m, pivots, den, _, _ = _gauss_jordan(rows)
    return [[rat(a, den) for a in row] for row in m], pivots


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
    """Exact determinant of a square matrix: sign * den / prod(scales) of
    the fraction-free elimination, 0 when it is singular, 1 for 0x0."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("the determinant needs a square matrix")
    _, pivots, den, sign, scales = _gauss_jordan(rows)
    if len(pivots) < n:
        return ZERO
    return rat(sign * den, math.prod(scales))


def primitive_ray(v) -> tuple:
    """Shortest integer vector on the ray through v, orientation kept."""
    if all(x == 0 for x in v):
        return tuple(ZERO for _ in v)
    ints, _ = integer_vector([rat(x) for x in v])
    g = math.gcd(*ints)
    return tuple(rat(i // g) for i in ints)
