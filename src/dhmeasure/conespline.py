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

One recursion evaluates them, with the same arithmetic on d coordinates
that are numbers, for one point, or numpy object arrays, for N points such
as a density grid. heaviside_density and spline_density take one point or
a Lattice (integer columns over one denominator, as the CLI builds a grid)
and run it on Python integers over one common denominator D: the density
is the integer result over (root denominator) * D^(n - d), an exact
rational with error bound 0; there is no float density path. A point gives
one exact value, a Lattice the integer numerators over one denominator,
with no rational made per point. write_density_csv writes a grid's
coordinates as the nearest doubles of the exact points and each density as
its nearest double, with the caller's bound on that rounding.

On a wall, where the density jumps, the value is the limit from inside the
term's cone: along mu + eps*c + eps^2*e_1 + ... + eps^(d+1)*e_d for small
eps > 0, with c the sum of the term's factors. That is the volume of the
closed fiber. Factors that do not span R^d push forward to a measure with
no density function: evaluating such a term raises ValueError, as a point
mass (no factors) raises PureDeltaError.

A spline's closed-form transform, localize's fixed-point sum and
hermitian's reduced transform are all sums of c * e^{i<phi, zeta>} / prod
<w, zeta>^m: each is compiled once per spline, model or orbit into one
CompiledTransform, and every zeta is one call of its one evaluator.

All measures here are unit-normalized: H_b integrates f along t -> t*b with
plain dt and no 2*pi factors. The Monte-Carlo calibration suite in
dhmeasure.verify measures how Darboux-coordinate Lebesgue measure relates to
this normalization.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import polycone
from .rational import (
    ZERO,
    PureDeltaError,
    _gauss_jordan,
    dimension,
    integer_vector,
    is_zero_vec,
    rank,
    rat,
    rat_str,
    vdot,
    vec,
)

REGULARITY_RTOL = 1e-12  # |<b, zeta>| must exceed this times |b||zeta|


class NonProperConeError(ValueError):
    pass


class NonRegularZetaError(ValueError):
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
    that proves it seeds the cache and answers; one that does not leaves the
    question to the LP."""
    if factors in _proven:
        return True
    if all(vdot(f, certificate) > 0 for f in factors):
        _remember_proper(factors)
        return True
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

    @cached_property
    def cones(self) -> tuple:
        """The terms grouped by cone, derived once per spline: per distinct
        factor multiset, in order of first appearance, the factors of its
        first term as given and the indices of its terms. Each distinct
        factor is hashed once, to a small int, and a multiset is keyed by its
        sorted ints."""
        ids, groups = {}, {}
        for j, t in enumerate(self.terms):
            key = tuple(sorted(ids.setdefault(f, len(ids)) for f in t.factors))
            groups.setdefault(key, []).append(j)
        return tuple((self.terms[js[0]].factors, tuple(js)) for js in groups.values())

    @cached_property
    def transform(self) -> "CompiledTransform":
        """The closed-form transform of the terms, without the polynomial
        multiplier, compiled once per spline (_compile)."""
        return _compile((t.sign, t.base, t.factors) for t in self.terms)


def spline(dim, terms, poly=None) -> SignedConeSpline:
    return SignedConeSpline(dim, tuple(terms), poly)


@dataclass(frozen=True)
class DensityValue:
    """A density and a bound on its absolute error; spline_density returns
    an exact rational value, so the bound is 0."""

    value: object
    abs_error_bound: float


@dataclass(frozen=True, eq=False)
class Lattice:
    """Points X / D of R^d held as integers: d coordinates X over one
    denominator D > 0, Python ints for one point or numpy object N-arrays of
    Python ints for N points. Given a lattice, heaviside_density and
    spline_density return (numerators, denominator): the exact densities
    are the numerators, an int or an N-array of Python ints, over one
    positive int, not necessarily in lowest terms."""

    columns: tuple
    denominator: int


# ---------------------------------------------------------------------------
# density engine: the Dahmen-Micchelli recursion


@lru_cache(maxsize=1024)
def _plan(factors) -> tuple:
    """Integer recursion data of a sorted factor tuple that spans R^d.

    Returns (nodes, Q, program): the nodes the recursion visits, each one
    sub-multiset of the factors, children before parents and the root
    last, such that the recursion over them at an integer vector X, over
    Q * D^(n - d), is the density at X / D for D > 0. A node is
    (scale, rows, children, ties), all integers; program is _program(nodes).

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
    # integral entries as Python ints, which the elimination reads as they are
    entries = [[int(x) if x.denominator == 1 else x for x in f] for f in factors]
    nodes, dens = [], []
    index = {}

    def build(ids):
        if ids in index:
            return index[ids]
        k = len(ids)
        m, pivots, den, _, scales = _gauss_jordan(
            [[entries[i][j] for i in ids] + [int(i == j) for i in range(d)] for j in range(d)]
        )
        if k == d:
            kept, children = range(d), None
        else:
            kept = [r for r in range(d) if any(m[r][c] for c in range(k) if c not in pivots)]
            children = tuple(build(ids[:pivots[r]] + ids[pivots[r] + 1:]) for r in kept)
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
        index[ids] = len(nodes) - 1
        return index[ids]

    if rank([[f[j] for f in factors] for j in range(d)]) < d:
        raise ValueError(
            "factors do not span the ambient space: the measure has no density function"
        )
    # a node is keyed by the indices of its factors, each equal factor read
    # as its first copy's index, so a sub-multiset has one key
    build(tuple(factors.index(f) for f in factors))
    return tuple(nodes), dens[-1], _program(nodes)


@lru_cache(maxsize=1024)
def _kernel(factors) -> tuple:
    """The plan of a factor tuple, keyed in the order given; checks once
    that the factors span a proper cone."""
    if not _proper_factor_cone(factors):
        raise NonProperConeError("factors do not span a proper cone")
    return _plan(tuple(sorted(factors)))


def _program(nodes) -> tuple:
    """(table, leaves, lams, inner, top): the nodes compiled for _leaf_masks
    and _truncated_powers. Each row is a positive multiple g of a primitive
    row, which table holds once as its nonzero (column, entry) pairs. Per
    leaf, leaves holds its table indices and ties; lams holds the distinct
    (table index, g * child's scale) pairs, and inner, per inner node, its
    lams indices and children, with the leaves numbered first. top is the
    root's scale."""
    order = sorted(range(len(nodes)), key=lambda i: nodes[i][2] is not None)
    position = {i: p for p, i in enumerate(order)}
    table, lams, leaves, inner = {}, {}, [], []

    def primitive(row):
        g = math.gcd(*row)
        return table.setdefault(tuple((j, a // g) for j, a in enumerate(row) if a), len(table)), g

    for i in order:
        _scale, rows, children, ties = nodes[i]
        if children is None:
            leaves.append((tuple(primitive(row)[0] for row in rows), ties))
        else:
            lam = tuple(
                lams.setdefault((r, g * nodes[k][0]), len(lams))
                for (r, g), k in zip(map(primitive, rows), children)
            )
            inner.append((lam, tuple(position[k] for k in children)))
    return tuple(table), tuple(leaves), tuple(lams), tuple(inner), nodes[-1][0]


def _leaf_masks(program, X):
    """(dots, masks): each primitive row of the kernel applied to X once, and
    per leaf where every lambda_p >= 0, or > 0 on the side its tie excludes.

    X is d coordinates: Python ints for one point, or numpy object
    N-arrays of Python ints for N points. Both run this code and
    _truncated_powers, with the same +, -, *, comparisons and &."""
    table, leaves = program[:2]
    dots = []
    for (j, a), *rest in table:  # entries are mostly +-1: add and subtract
        acc = X[j] if a == 1 else a * X[j]
        for j, a in rest:
            acc = acc + X[j] if a == 1 else acc - X[j] if a == -1 else acc + a * X[j]
        dots.append(acc)
    masks = []
    for rs, ties in leaves:
        inside = True
        for r, tie in zip(rs, ties):
            inside = inside & (dots[r] >= 0 if tie > 0 else dots[r] > 0)
        masks.append(inside)
    return dots, masks


def _truncated_powers(program, dots, masks):
    """T(x) by the recursion (k - d) T_Y(x) = sum_p lambda_p(x) T_{Y - c_p}(x),
    over the kernel's integers, from _leaf_masks at x: a number, or an
    N-array for N points. A leaf's value is its mask, as each node's scale
    is in its parent's rows (an inner node's scale is 1)."""
    _table, _leaves, lams, inner, _top = program
    lam = [dots[r] if m == 1 else dots[r] * m for r, m in lams]
    values = list(masks)
    for ps, ks in inner:
        terms = [lam[p] * values[k] for p, k in zip(ps, ks)]
        values.append(sum(terms[1:], terms[0]))
    return values[-1]


def _integer_points(mu, d):
    """(X, D, N): a Lattice's own columns over its own denominator, with N
    its point count, or None for columns of Python ints; or the point mu
    times the lcm D > 0 of its denominators, as d Python ints, with N None.
    Several points, as a sequence of points or a 2-D array, are refused:
    they are evaluated as a Lattice."""
    if isinstance(mu, Lattice):
        X = list(mu.columns)
        if len(X) != d:
            raise ValueError("point/factor dimension mismatch")
        return X, mu.denominator, len(X[0]) if isinstance(X[0], np.ndarray) else None
    if isinstance(mu, np.ndarray):
        points = mu.ndim > 1
    else:
        points = isinstance(mu, (tuple, list)) and bool(mu) and isinstance(mu[0], (tuple, list, np.ndarray))
    if points:
        raise ValueError("a density takes one point or a Lattice of points")
    mu = vec(mu)
    if len(mu) != d:
        raise ValueError("point/factor dimension mismatch")
    return (*integer_vector(mu), None)


def heaviside_density(factors, mu):
    """Density of H_{b1} * ... * H_{bn} at mu, unit normalization.

    The multivariate truncated power of the factors, evaluated by the
    Dahmen-Micchelli recursion; exact (a rational) for rational input. On a
    wall the value is the limit from inside the factor cone, which equals
    the volume of the closed fiber. Raises NonProperConeError when the
    factor cone contains a line, PureDeltaError for no factors, and
    ValueError when the factors do not span R^d (the measure is then
    singular and has no density function).

    mu may also be a Lattice X / D; the result is then (numerators,
    denominator) in the lattice's form, the recursion's integers over
    Q * D^(n - d). One point and a Lattice of N points run the same
    recursion, the N points on numpy object arrays: one kernel lookup and
    one pass over all of them, whose inner nodes run only on the points
    inside some leaf.
    """
    factors = tuple(vec(f) for f in factors)
    if not factors:
        raise PureDeltaError("a point mass has no density function")
    d, n = len(factors[0]), len(factors)
    X, common, count = _integer_points(mu, d)
    _nodes, den, program = _kernel(factors)
    top, den = program[-1], den * common ** (n - d)
    dots, masks = _leaf_masks(program, X)
    if count is None:
        values = top * _truncated_powers(program, dots, masks)
    else:
        live = np.flatnonzero(np.logical_or.reduce(masks))
        values = np.zeros(count, dtype=object)
        values[live] = _truncated_powers(program, [x[live] for x in dots], [m[live] for m in masks])
        # a leaf root's values are its mask's bools: * top makes them ints
        values = values * top
    if isinstance(mu, Lattice):
        return values, den
    return rat(values, den)


def spline_density(S: SignedConeSpline, mu) -> DensityValue:
    """Signed density of the spline at mu (poly multiplier applied); exact.

    mu may also be a Lattice; the result is then (numerators, denominator)
    in the lattice's form, with no DensityValue made. The points and the
    term bases are put over one common denominator D, and each cone of the
    spline (S.cones) is one heaviside_density call on the Lattice of the
    shifted integer points x = D * (mu - base) of its terms, stacked term by
    term, which gives the density at each mu - base as integers over one
    denominator. The terms are added up over the lcm of their denominators,
    the polynomial multiplier is evaluated in integers too, and a point is
    divided once. A spline with no terms has density 0.
    """
    if S.nfactors == 0 and S.terms:
        raise PureDeltaError("point-mass spline has no density function")
    d = S.dim
    X, common, count = _integer_points(mu, d)
    bases, q = integer_vector([b for t in S.terms for b in t.base])
    D = math.lcm(common, q)
    X = [x * (D // common) for x in X]
    num, den = 0, 1
    for factors, members in S.cones:
        shifted = [[a - b * (D // q) for a, b in zip(X, bases[j * d:(j + 1) * d])] for j in members]
        if len(members) == 1:
            columns = shifted[0]
        elif count is None:
            columns = [np.array(c, dtype=object) for c in zip(*shifted)]
        else:
            columns = [np.concatenate(c) for c in zip(*shifted)]
        nums, q_t = heaviside_density(factors, Lattice(tuple(columns), D))
        # per term of the cone, its values: a number, or a row of the block
        if len(members) == 1:
            nums = (nums,)
        elif count is not None:
            nums = nums.reshape(len(members), count)
        lcm = math.lcm(den, q_t)
        num, scale = num * (lcm // den), lcm // q_t
        for j, term_nums in zip(members, nums):
            num = num + S.terms[j].sign * scale * term_nums
        den = lcm
    if S.poly is not None:
        pnum, pden = _poly_integers(S.poly, X, D)
        num, den = num * pnum, den * pden
    if count is not None and not isinstance(num, np.ndarray):
        num = np.full(count, num, dtype=object)
    if isinstance(mu, Lattice):
        return num, den
    return DensityValue(rat(num, den), 0.0)


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


class CompiledTransform(NamedTuple):
    """A sum of float terms coeff * e^{i<exponent, zeta>} / prod <form, zeta>^mult,
    each term given by indices into the distinct exponents and the distinct
    denominator powers."""

    exponents: tuple  # distinct float exponents
    powers: tuple  # distinct (float form, its norm, mult)
    terms: tuple  # (coeff, exponent index, power indices)


def _float_forms(forms) -> list:
    """(float form, its Euclidean norm) per exact form."""
    floats = [tuple(float(x) for x in form) for form in forms]
    return [(f, math.sqrt(sum(x**2 for x in f))) for f in floats]


def _times_i_power(c, n) -> complex:
    """c * i^n for a float c, exactly: i^n is read off (1, i, -1, -i)."""
    re, im = ((c, 0.0), (0.0, c), (-c, 0.0), (0.0, -c))[n % 4]
    return complex(re, im)


def _compile(terms) -> CompiledTransform:
    """sum sign * e^{i<base, zeta>} * i^n / prod <b_i, zeta> over the
    (sign, base, factors) terms, n being the number of factors, as a
    CompiledTransform: coefficient sign * i^n, and each base and factor
    read to floats once, a factor as a power of mult 1. Equal floats are
    stored once, keyed by the floats: hashing the exact rationals would
    cost more than reading them."""
    exponents, powers, out = {}, {}, []
    for sign, base, factors in terms:
        indices = tuple(powers.setdefault((*fn, 1), len(powers)) for fn in _float_forms(factors))
        e = exponents.setdefault(tuple(float(x) for x in base), len(exponents))
        out.append((_times_i_power(float(sign), len(factors)), e, indices))
    return CompiledTransform(tuple(exponents), tuple(powers), tuple(out))


def _evaluate(transform, zeta) -> complex:
    """The CompiledTransform's sum at zeta, term by term in the given order:
    the one float evaluator of every closed-form transform. Each distinct
    phase and denominator power is computed once, before the sum; a form
    with |<form, zeta>| within REGULARITY_RTOL * |form| * |zeta| of 0
    raises NonRegularZetaError."""
    zeta = tuple(complex(z) for z in zeta)
    zn = math.sqrt(sum(abs(z) ** 2 for z in zeta))
    phases = [np.exp(1j * sum(x * z for x, z in zip(expo, zeta)))
              for expo in transform.exponents]
    powers = []
    for form, norm, mult in transform.powers:
        fz = sum(x * z for x, z in zip(form, zeta))
        if abs(fz) <= REGULARITY_RTOL * norm * zn:
            raise NonRegularZetaError("a denominator form vanishes at zeta")
        powers.append(fz**mult)
    total = 0.0 + 0.0j
    for coeff, e, indices in transform.terms:
        val = coeff * phases[e]
        for i in indices:
            val /= powers[i]
        total += val
    return complex(total)


def in_tube(factors, eta) -> bool:
    """Is eta = Im(zeta), in floats, strictly positive on every factor?"""
    return all(sum(float(x) * y for x, y in zip(f, eta)) > 0 for f in factors)


def _check_interior(factors, zeta):
    if not in_tube(factors, [complex(z).imag for z in zeta]):
        raise NonRegularZetaError(
            "Im(zeta) is not strictly inside the dual of the factor cone"
        )


def laplace_factor(factors, zeta) -> complex:
    """(i)^n / prod <b_i, zeta>: the transform of H_{b1} * ... * H_{bn}."""
    zeta = tuple(complex(z) for z in zeta)
    base = (0,) * len(zeta)
    return _evaluate(_compile([(1, base, [vec(f) for f in factors])]), zeta)


def spline_laplace(S: SignedConeSpline, zeta, strict: bool = True) -> complex:
    """Sum of sign * e^{i <base, zeta>} * laplace_factor per term.

    strict=True insists Im(zeta) lies in the common dual-cone interior of all
    terms; strict=False evaluates the same closed form anywhere regular
    (analytic continuation, e.g. real-limit samples). The terms are compiled
    once per spline (S.transform); each zeta only evaluates them.
    """
    if S.poly is not None:
        raise ValueError(
            "polynomial multipliers transform through the symbolic route"
        )
    if strict:
        _check_interior([form for form, _, _ in S.transform.powers], zeta)
    return _evaluate(S.transform, zeta)


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


def write_density_csv(path, axes, values):
    """A density table on a grid: axes holds each axis's coordinates and
    values each grid point's (density, error bound), in itertools.product
    order over the axes. Header is fixed: mu_1,...,mu_d,density,error_bound.
    Every cell is the repr of a double, with negative zero folded into
    zero; an axis's cells are formatted once. The write is atomic: a temp
    file in the target directory is renamed over the destination."""
    header = ",".join([f"mu_{j + 1}" for j in range(len(axes))] + ["density", "error_bound"])
    cells = [[_cell(x) for x in axis] for axis in axes]
    lines = [header]
    lines.extend(
        ",".join((*point, _cell(value), _cell(err)))
        for point, (value, err) in zip(itertools.product(*cells), values, strict=True)
    )
    atomic_write_text(path, "\n".join(lines) + "\n")


def _cell(x) -> str:
    # + 0.0 folds negative zero into plain zero
    return repr(float(x) + 0.0)


def atomic_write_text(path, text: str):
    """Write text to path through a temp file in the same directory, renamed
    over it. The file gets the mode open(path, "w") would give, 0o666 less
    the umask (mkstemp creates it 0o600)."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
