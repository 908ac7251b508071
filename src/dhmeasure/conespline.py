"""Signed cone splines: translated Heaviside convolutions and their densities.

A term delta_base * H_{b1} * ... * H_{bn} pushes Lebesgue measure on the
positive orthant R^n_+ forward under s -> base + sum s_i b_i. When the
factors span R^d its density at mu is the multivariate truncated power
T_B(mu - base), the volume of the fiber {s >= 0 : B s = mu - base} over the
coarea factor. One engine evaluates it, the Dahmen-Micchelli recursion

    (n - d) T_B(x) = sum_{p in C} lambda_p(x) T_{B - b_p}(x),

with C a basis among the factors and lambda = C^-1 x (Dahmen-Micchelli,
Trans. AMS 308, 1988; De Concini-Procesi, Topics in Hyperplane
Arrangements, Polytopes and Box-Splines, 2011, ch. 7). A child that no
longer spans R^d is dropped; a leaf (n = d) is 1/|det C| on cone(C) and 0
off it. The bases, the integer rows of their inverses, the leaf weights
and the spanning children come from one fraction-free elimination per node
and are cached per factor tuple, each node with one common denominator.
heaviside_density and spline_density put a rational point over one common
denominator D and run the recursion on Python integers; the density is the
integer result over (root denominator) * D^(n - d), normalized once per
call, an exact rational with error bound 0. Both also take an N x d batch
of points, such as a density grid: every point and every term base goes
over one common denominator, each term's kernel is looked up once, and its
recursion runs once on all N points, on numpy object arrays of Python
integers with the same tie rule; the batch result is a tuple of the values
the per-point calls give. DensityEvaluator runs the same integer recursion
at float points, for quadrature.

On a wall, where the density jumps, the value is the limit from inside the
term's cone: along mu + eps*c + eps^2*e_1 + ... + eps^(d+1)*e_d for small
eps > 0, with c the sum of the term's factors. That is the volume of the
closed fiber. Factors that do not span R^d push forward to a measure with
no density function: evaluating such a term raises ValueError, as a point
mass (no factors) raises PureDeltaError.

All measures here are unit-normalized: H_b integrates f along t -> t*b with
plain dt and no 2*pi factors. The Monte-Carlo calibration suite in
dhmeasure.verify measures how Darboux-coordinate Lebesgue measure relates to
this normalization.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from . import polycone
from .rational import (
    ZERO,
    _gauss_jordan,
    dimension,
    integer_vector,
    is_zero_vec,
    rank,
    rat,
    rat_str,
    vdot,
    vec,
    vsub,
)

REGULARITY_RTOL = 1e-12  # |<b, zeta>| must exceed this times |b||zeta|


class NonProperConeError(ValueError):
    pass


class NonRegularZetaError(ValueError):
    pass


class PureDeltaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomial multipliers


@dataclass(frozen=True)
class Polynomial:
    """Rational-coefficient polynomial as {exponent tuple: coefficient}."""

    dim: int
    coeffs: tuple  # tuple of (exponent tuple, Q) pairs, sorted

    @staticmethod
    def from_dict(dim, d) -> "Polynomial":
        items = tuple(sorted((tuple(int(e) for e in k), rat(v)) for k, v in d.items() if rat(v) != 0))
        return Polynomial(dim, items)

    @staticmethod
    def constant(dim, c) -> "Polynomial":
        c = rat(c)
        return Polynomial(dim, ((tuple([0] * dim), c),) if c != 0 else ())

    @staticmethod
    def linear(coeffs) -> "Polynomial":
        coeffs = vec(coeffs)
        dim = len(coeffs)
        items = []
        for j, c in enumerate(coeffs):
            if c != 0:
                e = [0] * dim
                e[j] = 1
                items.append((tuple(e), c))
        return Polynomial(dim, tuple(sorted(items)))

    @staticmethod
    def product_of_linear(factors):
        factors = [vec(f) for f in factors]
        dim = len(factors[0])
        p = Polynomial.constant(dim, 1)
        for f in factors:
            p = p * Polynomial.linear(f)
        return p

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        acc = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, ZERO) + c1 * c2
        return Polynomial(self.dim, tuple(sorted((e, c) for e, c in acc.items() if c != 0)))

    def eval_exact(self, point):
        point = vec(point)
        total = ZERO
        for e, c in self.coeffs:
            term = c
            for x, k in zip(point, e):
                for _ in range(k):
                    term *= x
            total += term
        return total

    def __call__(self, point) -> float:
        total = 0.0
        for e, c in self.coeffs:
            term = float(c)
            for x, k in zip(point, e):
                if k:
                    term *= float(x) ** k
            total += term
        return total

    def to_json(self) -> dict:
        return {",".join(str(k) for k in e): rat_str(c) for e, c in self.coeffs}

    @staticmethod
    def from_json(dim, data) -> "Polynomial":
        return Polynomial.from_dict(dim, {tuple(int(t) for t in k.split(",")): v for k, v in data.items()})


# ---------------------------------------------------------------------------
# spline types


_PROVEN_MAX = 4096
_proven = {}  # factor tuples known to span a proper cone, oldest first


def _remember_proper(factors):
    if len(_proven) >= _PROVEN_MAX:
        del _proven[next(iter(_proven))]
    _proven[factors] = None


def _proper_factor_cone(factors) -> bool:
    """Do the factors span a proper cone (none zero, no line inside)?

    A tuple already proven, by an LP here or by a certificate offered to
    _certify_proper, is answered from a bounded cache; any other tuple is
    decided by an exact LP for a functional positive on every factor.
    """
    if factors in _proven:
        return True
    live = [f for f in factors if not is_zero_vec(f)]
    if len(live) != len(factors):
        return False
    if live and polycone.strict_positive_functional(live) is None:
        return False
    _remember_proper(factors)
    return True


def _certify_proper(factors, certificate) -> bool:
    """_proper_factor_cone with a candidate proof: a covector that pairs
    strictly positively with every factor, checked exactly. A certificate
    that does not prove it leaves the question to the LP."""
    if factors not in _proven and all(vdot(f, certificate) > 0 for f in factors):
        _remember_proper(factors)
    return _proper_factor_cone(factors)


@dataclass(frozen=True)
class ConeSplineTerm:
    sign: int
    base: tuple
    factors: tuple  # tuple of covectors; may be empty (pure point mass)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("term sign must be +1 or -1")
        for f in self.factors:
            if len(f) != len(self.base):
                raise ValueError("factor/base dimension mismatch")
        if not _proper_factor_cone(self.factors):
            raise NonProperConeError("term factors do not span a proper cone")

    @property
    def dim(self) -> int:
        return len(self.base)


def spline_term(sign, base, factors) -> ConeSplineTerm:
    return ConeSplineTerm(int(sign), vec(base), tuple(vec(f) for f in factors))


@dataclass(frozen=True)
class SignedConeSpline:
    dim: int
    terms: tuple
    poly: Polynomial | None = None

    def __post_init__(self):
        ns = {len(t.factors) for t in self.terms}
        if len(ns) > 1:
            raise ValueError("all terms must have the same number of factors")
        for t in self.terms:
            if t.dim != self.dim:
                raise ValueError("term dimension mismatch")
        if self.poly is not None and self.poly.dim != self.dim:
            raise ValueError("polynomial dimension mismatch")

    @property
    def nfactors(self) -> int:
        return len(self.terms[0].factors) if self.terms else 0


def spline(dim, terms, poly=None) -> SignedConeSpline:
    return SignedConeSpline(dim, tuple(terms), poly)


@dataclass(frozen=True)
class DensityValue:
    """A density and a bound on its absolute error; spline_density returns
    an exact rational value, so the bound is 0."""

    value: object
    abs_error_bound: float


# ---------------------------------------------------------------------------
# density engine: the Dahmen-Micchelli recursion


@lru_cache(maxsize=1024)
def _plan(factors) -> tuple:
    """Integer recursion data of a sorted factor tuple that spans R^d.

    Returns (nodes, Q): the nodes the recursion visits, each one
    sub-multiset of the factors, children before parents and the root
    last, such that _truncated_power(nodes, X) / (Q * D^(n - d)) is the
    density at X / D for an integer vector X and D > 0. A node is
    (scale, rows, children, ties), all integers.

    One fraction-free elimination of [A | I], with A's columns the node's
    factors, picks a basis C on its pivot columns and leaves den * C^-1 in
    the right block and den * C^-1 v in A's other columns, den being the
    last pivot. Row p of C^-1 applied to x is the coefficient lambda_p of
    x on basis vector c_p. The node keeps rows of the right block divided
    by their gcd with den, signed like den, so each is the exact row times
    one positive integer R.

    An inner node (k > d factors) keeps the rows of the c_p whose removal
    leaves a spanning set: those with a nonzero entry in a non-pivot column
    of A. children holds the plan index of each such child, and the row for
    a child is further multiplied by L / Q_child, with L the lcm of the
    children's Q_child. A child that no longer spans R^d is dropped: its
    measure lives on the hyperplane where lambda_p vanishes. The scale is 1
    and Q = (k - d) * R * L.

    A leaf (k = d) keeps all d rows and has children None; scale / Q is
    1/|det C| = prod(row scales) / |den| in lowest terms. Per row, ties
    holds the side taken when lambda_p = 0: the sign of the first nonzero
    of (C^-1 c)_p, (C^-1 e_1)_p, ..., (C^-1 e_d)_p, with c the sum of all
    the factors. That is the limit along x + eps c + eps^2 e_1 + ..., the
    same curve for every node, so the recursion returns the limit of the
    density from inside the factor cone.
    """
    d = len(factors[0])
    total = tuple(sum(f[j] for f in factors) for j in range(d))
    nodes, dens = [], []
    index = {}

    def build(vectors):
        if vectors in index:
            return index[vectors]
        k = len(vectors)
        m, pivots, den, _, scales = _gauss_jordan(
            [[v[j] for v in vectors] + [int(i == j) for i in range(d)] for j in range(d)]
        )
        if k == d:
            kept, children = range(d), None
        else:
            kept = [r for r in range(d) if any(m[r][c] for c in range(k) if c not in pivots)]
            children = tuple(build(vectors[:pivots[r]] + vectors[pivots[r] + 1:]) for r in kept)
        rows = [m[r][k:] for r in kept]
        g = math.gcd(den, *(a for row in rows for a in row)) * (-1 if den < 0 else 1)
        rows = [[a // g for a in row] for row in rows]
        if children is None:
            ties = tuple(
                next(1 if v > 0 else -1 for v in (vdot(row, total), *row) if v != 0)
                for row in rows
            )
            weight = math.prod(scales)
            h = math.gcd(weight, den)
            scale, q, mults = weight // h, abs(den) // h, [1] * d
        else:
            lcm = math.lcm(*(dens[c] for c in children))
            ties, scale, q = None, 1, (k - d) * (den // g) * lcm
            mults = [lcm // dens[c] for c in children]
        rows = tuple(tuple(a * mult for a in row) for row, mult in zip(rows, mults))
        nodes.append((scale, rows, children, ties))
        dens.append(q)
        index[vectors] = len(nodes) - 1
        return index[vectors]

    if rank([[f[j] for f in factors] for j in range(d)]) < d:
        raise ValueError(
            "factors do not span the ambient space: the measure has no density function"
        )
    build(factors)
    return tuple(nodes), dens[-1]


@lru_cache(maxsize=1024)
def _kernel(factors) -> tuple:
    """The plan of a factor tuple, keyed in the order given; checks once
    that the factors span a proper cone."""
    if not _proper_factor_cone(factors):
        raise NonProperConeError("factors do not span a proper cone")
    return _plan(tuple(sorted(factors)))


def _truncated_power(plan, x):
    """T(x) by the recursion (k - d) T_Y(x) = sum_p lambda_p(x) T_{Y - c_p}(x),
    on an integer kernel with integer or float x."""
    values = []
    for scale, rows, children, ties in plan:
        if children is None:
            value = scale
            for row, tie in zip(rows, ties):
                lam = sum(map(mul, row, x))
                if lam < 0 or (lam == 0 and tie < 0):
                    value = 0 * scale
                    break
        else:
            value = scale * sum(
                [sum(map(mul, row, x)) * values[k] for row, k in zip(rows, children)]
            )
        values.append(value)
    return values[-1]


def _truncated_powers(plan, X):
    """_truncated_power at every column of X, a d x N numpy object array of
    Python ints, as an N-array of ints.

    Each row is a positive multiple g of a primitive one, which is applied
    to X once (row @ X) for all the nodes. A leaf tests signs elementwise,
    with the same tie rule. Every node is a combination of leaf values, so
    the inner nodes are evaluated only on the columns where some leaf is
    nonzero; elsewhere the result is 0."""
    dots, lam, inside, values = {}, {}, {}, []

    def dot(row):
        g = math.gcd(*row)
        key = tuple(a // g for a in row)
        if key not in dots:  # entries are mostly 0 and +-1: add and subtract rows of X
            (a, x), *rest = [(a, x) for a, x in zip(key, X) if a]
            acc = x if a == 1 else a * x
            for a, x in rest:
                acc = acc + x if a == 1 else acc - x if a == -1 else acc + a * x
            dots[key] = acc
        return dots[key], g

    for i, (_scale, rows, children, ties) in enumerate(plan):
        if children is None:
            tests = [(dot(row)[0], tie) for row, tie in zip(rows, ties)]
            inside[i] = np.logical_and.reduce([x >= 0 if tie > 0 else x > 0 for x, tie in tests])
    active = np.flatnonzero(np.logical_or.reduce(list(inside.values())))
    for i, (scale, rows, children, _ties) in enumerate(plan):
        if children is None:
            values.append(inside[i][active].astype(object) * scale)
            continue
        for row in rows:
            if row not in lam:
                x, g = dot(row)
                lam[row] = x[active] * g if g != 1 else x[active]
        products = [lam[row] * values[k] for row, k in zip(rows, children)]
        values.append(sum(products[1:], products[0]))  # an inner node's scale is 1
    out = np.zeros(X.shape[1], dtype=object)
    out[active] = values[-1]
    return out


def _is_batch(mu) -> bool:
    """Is mu an N x d batch of points rather than one point? numpy's
    leading-axis convention: a point is one-dimensional."""
    if isinstance(mu, np.ndarray):
        return mu.ndim == 2
    return isinstance(mu, (tuple, list)) and bool(mu) and isinstance(mu[0], (tuple, list, np.ndarray))


def _integer_points(points, d):
    """A batch of rational points over one common denominator D > 0: (X, D)
    with X the points times D, a d x N numpy object array of Python ints.
    A batch of Python ints is read as it is, with D = 1."""
    P = np.array(points, dtype=object)
    if P.ndim != 2 or P.shape[1] != d:
        raise ValueError("point/factor dimension mismatch")
    if all(type(x) is int for x in P.flat):
        return P.T, 1
    ints, common = integer_vector([rat(x) for x in P.flat])
    return np.array(ints, dtype=object).reshape(P.shape).T, common


def heaviside_density(factors, mu):
    """Density of H_{b1} * ... * H_{bn} at mu, unit normalization.

    The multivariate truncated power of the factors, evaluated by the
    Dahmen-Micchelli recursion; exact (a rational) for rational input. On a
    wall the value is the limit from inside the factor cone, which equals
    the volume of the closed fiber. Raises NonProperConeError when the
    factor cone contains a line, PureDeltaError for no factors, and
    ValueError when the factors do not span R^d (the measure is then
    singular and has no density function).

    mu may also be an N x d batch of points (a 2-D array, or a sequence of
    points); the result is then a tuple of N exact values, from one kernel
    lookup and one pass of the recursion over all N points.
    """
    factors = tuple(vec(f) for f in factors)
    if not factors:
        raise PureDeltaError("a point mass has no density function")
    d, n = len(factors[0]), len(factors)
    if _is_batch(mu):
        X, common = _integer_points(mu, d)
        nodes, den = _kernel(factors)
        den *= common ** (n - d)
        return tuple(rat(t, den) if t else ZERO for t in _truncated_powers(nodes, X))
    mu = vec(mu)
    if len(mu) != d:
        raise ValueError("point/factor dimension mismatch")
    nodes, den = _kernel(factors)
    scaled, common = integer_vector(mu)
    return rat(_truncated_power(nodes, scaled), den * common ** (n - d))


def spline_density(S: SignedConeSpline, mu) -> DensityValue:
    """Signed density of the spline at mu (poly multiplier applied); exact.

    mu may also be an N x d batch of points; the result is then a tuple of
    N DensityValues. The points and the term bases are put over one common
    denominator D, and each term is one heaviside_density call on its
    shifted integer points x = D * (mu - base), which is D^(n - d) times the
    density at mu - base. The terms are added up over the lcm of their
    denominators, the polynomial multiplier is evaluated in integers too, and
    each point is divided once.
    """
    if S.nfactors == 0 and S.terms:
        raise PureDeltaError("point-mass spline has no density function")
    if _is_batch(mu):
        return tuple(DensityValue(v, 0.0) for v in _spline_values(S, mu))
    mu = vec(mu)
    total = ZERO
    for t in S.terms:
        total += t.sign * heaviside_density(t.factors, vsub(mu, t.base))
    if S.poly is not None:
        total *= S.poly.eval_exact(mu)
    return DensityValue(total, 0.0)


def _spline_values(S, points):
    """The exact densities of spline_density at a batch of points."""
    n = len(points)
    X, common = _integer_points([*points, *(t.base for t in S.terms)], S.dim)
    terms = [
        heaviside_density(t.factors, (X[:, :n] - X[:, [n + j]]).T) for j, t in enumerate(S.terms)
    ]
    lcm = math.lcm(*{int(v.denominator) for values in terms for v in values})
    num = np.zeros(n, dtype=object)
    for t, values in zip(S.terms, terms):
        nums = np.array([int(v.numerator) for v in values], dtype=object)
        dens = np.array([int(v.denominator) for v in values], dtype=object)
        num += t.sign * nums * (lcm // dens)
    den = lcm * common ** (S.nfactors - S.dim)
    if S.poly is not None:
        pnum, pden = _poly_integers(S.poly, X[:, :n], common)
        num, den = num * pnum, den * pden
    return [rat(v, den) for v in num]


def _poly_integers(poly, X, common):
    """(P, E): the polynomial at the points X / common is P / E, with P an
    N-array (or 0) and E a positive integer."""
    deg = max((sum(e) for e, _ in poly.coeffs), default=0)
    pden = math.lcm(*(int(c.denominator) for _, c in poly.coeffs)) * common**deg
    return sum(
        int(c.numerator) * (pden // (int(c.denominator) * common ** sum(e)))
        * math.prod(x**k for x, k in zip(X, e) if k)
        for e, c in poly.coeffs
    ), pden


# ---------------------------------------------------------------------------
# Laplace transforms (closed form)


def _check_regular(factors, zeta):
    zn = math.sqrt(sum(abs(z) ** 2 for z in zeta))
    vals = []
    for f in factors:
        fb = [float(x) for x in f]
        p = sum(x * z for x, z in zip(fb, zeta))
        fn = math.sqrt(sum(x * x for x in fb))
        if abs(p) <= REGULARITY_RTOL * fn * zn:
            raise NonRegularZetaError(f"zeta is non-regular for factor {f}")
        vals.append(p)
    return vals


def _check_interior(factors, zeta):
    for f in factors:
        s = sum(float(x) * z.imag for x, z in zip(f, zeta))
        if s <= 0:
            raise NonRegularZetaError(
                "Im(zeta) is not strictly inside the dual of the factor cone"
            )


def laplace_factor(factors, zeta) -> complex:
    """(i)^n / prod <b_i, zeta>: the transform of H_{b1} * ... * H_{bn}."""
    factors = tuple(vec(f) for f in factors)
    zeta = tuple(complex(z) for z in zeta)
    vals = _check_regular(factors, zeta)
    out = 1j ** len(factors)
    for p in vals:
        out /= p
    return out


def spline_laplace(S: SignedConeSpline, zeta, strict: bool = True) -> complex:
    """Sum of sign * e^{i <base, zeta>} * laplace_factor per term.

    strict=True insists Im(zeta) lies in the common dual-cone interior of all
    terms; strict=False evaluates the same closed form anywhere regular
    (analytic continuation, e.g. real-limit samples).
    """
    if S.poly is not None:
        raise ValueError(
            "polynomial multipliers transform through the symbolic route"
        )
    zeta = tuple(complex(z) for z in zeta)
    if strict:
        for t in S.terms:
            _check_interior(t.factors, zeta)
    total = 0.0 + 0.0j
    for t in S.terms:
        phase = 1j * sum(float(b) * z for b, z in zip(t.base, zeta))
        total += t.sign * np.exp(phase) * laplace_factor(t.factors, zeta)
    return complex(total)


# ---------------------------------------------------------------------------
# float front end (for quadrature)


class DensityEvaluator:
    """Float evaluation of a spline's density: the integer recursion of
    heaviside_density run at float points, _truncated_power(nodes, x) / Q."""

    def __init__(self, S: SignedConeSpline):
        if S.nfactors == 0 and S.terms:
            raise PureDeltaError("point-mass spline has no density function")
        self.poly = S.poly
        self._terms = [
            (t.sign, tuple(float(b) for b in t.base), *_kernel(t.factors))
            for t in S.terms
        ]

    def __call__(self, point) -> float:
        mu = [float(x) for x in point]
        total = 0.0
        for sign, base, nodes, den in self._terms:
            x = [m - b for m, b in zip(mu, base)]
            total += sign * (_truncated_power(nodes, x) / den)
        if self.poly is not None:
            total *= self.poly(mu)
        return total


# ---------------------------------------------------------------------------
# serialization


def spline_to_json(S: SignedConeSpline) -> dict:
    out = {
        "dim": S.dim,
        "terms": [
            {
                "sign": t.sign,
                "base": [rat_str(x) for x in t.base],
                "factors": [[rat_str(x) for x in f] for f in t.factors],
            }
            for t in S.terms
        ],
    }
    if S.poly is not None:
        out["poly"] = S.poly.to_json()
    return out


def spline_from_json(data) -> SignedConeSpline:
    if isinstance(data, str):
        data = json.loads(data)
    dim = dimension(data["dim"])
    terms = [
        spline_term(t["sign"], t["base"], t["factors"]) for t in data["terms"]
    ]
    poly = Polynomial.from_json(dim, data["poly"]) if data.get("poly") else None
    return SignedConeSpline(dim, tuple(terms), poly)


def write_density_csv(path, dim, rows):
    """rows: iterable of (point, value, error). Header is fixed:
    mu_1,...,mu_d,density,error_bound. The write is atomic: a temp file in
    the target directory is renamed over the destination."""
    header = ",".join([f"mu_{j + 1}" for j in range(dim)] + ["density", "error_bound"])
    lines = [header]
    for point, value, err in rows:
        # + 0.0 folds negative zero into plain zero
        cells = [repr(float(x) + 0.0) for x in point] + [
            repr(float(value) + 0.0),
            repr(float(err) + 0.0),
        ]
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
