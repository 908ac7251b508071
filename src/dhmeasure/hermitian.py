"""Root data of Hermitian symmetric pairs and their elliptic orbit measures.

A family is data (FAMILIES): its supported parameters, a torus basis B by
rows in ambient coordinates, the scale c of the trace form, and its positive
ambient roots with compact flags. Supported: AIII(p, q) = su(p, q) with
p, q >= 1 and p + q <= 5, and CI(r) = sp(r, R) with r <= 3. One function,
build_pair, derives the rest:

  roots    B * root, compact first; weight evaluation is a dot product
  duals    trace-form duals G^-1 * root, with G = c * B * B^T
  center   the vector that is 0 on compact and 1 on noncompact roots
  weyl     the compact Weyl group, closed from the simple compact reflections
           s_a(x) = x - 2<x, dual_a>/<a, dual_a> a (identity first, then
           sorted)
  signs    the determinant of each Weyl element, in the order of weyl

and checks every structural invariant. An orbit's lambda is given in
ambient coordinates and measured as B * lambda. The trace form fixes the
compact-root duals and the wall polynomial up to one positive scalar per
family; every check downstream is scale-free.

The orbit machinery: fixed points of the torus action on an elliptic orbit
are the compact-Weyl translates w*lam; the weights there are the tangent
weights, w*b for each noncompact root b and -w*a for each compact root a
(a compact direction points against its root). The full-torus measure is
localize.dh_measure of that model; the reduced measure keeps only
noncompact convolution factors and multiplies by the product of the
compact-root wall functionals. Its transform is derived symbolically, with
exact Gaussian-rational coefficients, and compiled to float terms.

Exact data is derived once and evaluated many times: build_pair caches the
root data per family, and an OrbitSpec builds its orbit model and compiles
its symbolic transform on first use, so every further zeta only evaluates
float terms.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import localize
from .conespline import (
    REGULARITY_RTOL,
    NonRegularZetaError,
    Polynomial,
    SignedConeSpline,
    _certify_proper,
    spline_term,
)
from .rational import ONE, ZERO, det, mat_vec, rat, rat_str, solve, vdot, vec

WEYL_CAP = 5000


class UnsupportedFamilyError(ValueError):
    pass


class OrbitValidationError(ValueError):
    pass


@dataclass(frozen=True)
class HermitianPairData:
    family: str
    params: tuple
    rank: int  # torus dimension d
    roots: tuple  # positive roots, compact first
    k: int  # number of compact positive roots
    duals: tuple  # trace-form duals of the roots, in the order of roots
    weyl: tuple  # compact Weyl group as d x d matrices (row tuples)
    center_vector: tuple  # xi0 with value 1 on every noncompact root

    @property
    def noncompact(self) -> tuple:
        return self.roots[self.k :]

    @property
    def compact(self) -> tuple:
        return self.roots[: self.k]

    @property
    def killing_duals(self) -> tuple:
        """Trace-form duals of the compact roots."""
        return self.duals[: self.k]

    @cached_property
    def signs(self) -> tuple:
        """The determinant of each Weyl element, in the order of weyl."""
        return tuple(weyl_det(m) for m in self.weyl)


def weyl_det(matrix) -> int:
    d = det([list(row) for row in matrix])
    if d not in (1, -1):
        raise ValueError("Weyl matrix determinant is not a unit")
    return int(d)


# ---------------------------------------------------------------------------
# families as data


@dataclass(frozen=True)
class Family:
    """What a family supplies; build_pair derives the rest.

    The torus basis B is given by rows in ambient coordinates, and the
    positive roots as ambient vectors, so a root's torus coordinates are its
    values on the basis, B * root. The trace form on the torus is
    scale * B * B^T.
    """

    supported: tuple  # the parameter tuples build_pair accepts
    scale: int
    basis: Callable  # (*params) -> rows of B
    roots: Callable  # (*params) -> ((ambient root, compact?), ...) in order


def _ambient(n, i, j, sign):
    """e_i + sign * e_j in n ambient coordinates."""
    v = [0] * n
    v[i] += 1
    v[j] += sign
    return v


FAMILIES = {
    # su(p, q): the torus is the trace-zero diagonal, with basis
    # h_a = E_aa - E_{a+1,a+1}; e_i - e_j is compact when i, j share a block
    "AIII": Family(
        ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)),
        1,
        lambda p, q: [_ambient(p + q, a, a + 1, -1) for a in range(p + q - 1)],
        lambda p, q: [
            (_ambient(p + q, i, j, -1), (i < p) == (j < p))
            for i in range(p + q)
            for j in range(i + 1, p + q)
        ],
    ),
    # sp(r, R): standard coordinates e_i; compact roots e_i - e_j, noncompact
    # positive roots e_i + e_j (i <= j)
    "CI": Family(
        ((1,), (2,), (3,)),
        2,
        lambda r: [_ambient(r, i, i, 0) for i in range(r)],
        lambda r: [(_ambient(r, i, j, -1), True) for i in range(r) for j in range(i + 1, r)]
        + [(_ambient(r, i, j, 1), False) for i in range(r) for j in range(i, r)],
    ),
}


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(n)), ZERO) for j in range(n))
        for i in range(n)
    )


def _weyl_closure(dim, generators):
    ident = tuple(
        tuple(rat(1) if i == j else ZERO for j in range(dim)) for i in range(dim)
    )
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = _mat_mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
        if len(seen) > WEYL_CAP:
            raise ValueError("Weyl closure exceeded the hard cap")
    # stable deterministic order: identity first, then sorted
    rest = sorted(seen - {ident})
    return (ident,) + tuple(rest)


def _reflection(root, dual):
    """s(x) = x - 2<x, dual>/<root, dual> root, as a matrix by rows."""
    f = 2 / vdot(root, dual)
    n = len(root)
    return tuple(
        tuple((ONE if r == c else ZERO) - f * root[r] * dual[c] for c in range(n))
        for r in range(n)
    )


def build_pair(family, params) -> HermitianPairData:
    """Construct the root data and verify every structural invariant.

    The data is immutable, so it is built and verified once per
    (family, params) and shared afterwards. The parameters are looked up
    in the family's table by value, so 2.0 is read as 2 and 1.7 is rejected;
    a boolean, which would equal 0 or 1, is rejected by type."""
    spec = FAMILIES.get(family)
    if spec is None:
        raise UnsupportedFamilyError(f"unknown family {family!r}")
    params = tuple(params)
    if any(isinstance(x, bool) for x in params) or params not in spec.supported:
        raise UnsupportedFamilyError(
            f"{family} supports params {', '.join(map(str, spec.supported))}"
        )
    return _build_pair(family, spec.supported[spec.supported.index(params)])


@lru_cache(maxsize=16)
def _build_pair(family, params) -> HermitianPairData:
    spec = FAMILIES[family]
    basis, inverse = _coordinates(family, params)
    flagged = [(mat_vec(basis, a), compact) for a, compact in spec.roots(*params)]
    compact = tuple(a for a, c in flagged if c)
    roots = compact + tuple(a for a, c in flagged if not c)
    k = len(compact)
    # G = scale * B * B^T, so G^-1 * root = (B * B^T)^-1 * root / scale
    duals = tuple(tuple(x / spec.scale for x in mat_vec(inverse, a)) for a in roots)
    center = solve(roots, [0] * k + [1] * (len(roots) - k))
    # the simple compact roots, those that are no sum of two compact roots,
    # generate the group
    simple = [
        _reflection(a, b)
        for a, b in zip(compact, duals)
        if not any(tuple(x - y for x, y in zip(a, c)) in compact for c in compact)
    ]
    weyl = _weyl_closure(len(basis), simple)
    pair = HermitianPairData(family, params, len(basis), roots, k, duals, weyl, center)
    _verify_pair(pair)
    return pair


@lru_cache(maxsize=16)
def _coordinates(family, params) -> tuple:
    """The torus basis B of a supported pair by exact rows, and the inverse
    of B * B^T (the Euclidean form on ambient coordinates) by rows."""
    basis = tuple(vec(row) for row in FAMILIES[family].basis(*params))
    d = len(basis)
    ident = [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]
    return basis, solve([[vdot(u, v) for v in basis] for u in basis], ident)


def _compact_match_sign(pair, m) -> int:
    """(-1) to the number of compact roots a with -w*a a compact root (w is
    invertible, so this matches images to roots); a w*a that is no compact
    root up to sign means corrupt group data, a hard error."""
    sign = 1
    for a in pair.compact:
        wa = mat_vec(m, a)
        if wa not in pair.compact:
            if tuple(-x for x in wa) not in pair.compact:
                raise ValueError("compact-root relabelling failed")
            sign = -sign
    return sign


def _verify_pair(pair):
    roots, duals, nc, xi0 = pair.roots, pair.duals, pair.noncompact, pair.center_vector
    if any(
        vdot(a, db) != vdot(b, da)
        for a, da in zip(roots, duals)
        for b, db in zip(roots, duals)
    ):
        raise ValueError("trace-form duals are not symmetric")
    if any(vdot(a, xi0) != 0 for a in pair.compact):
        raise ValueError("center vector does not annihilate a compact root")
    if any(vdot(b, xi0) != 1 for b in nc):
        raise ValueError("center vector is not 1 on a noncompact root")
    if any(vdot(a, db) < 0 for a in nc for db in duals[pair.k :]):
        raise ValueError("negative pairing between noncompact roots")
    # Weyl group: noncompact roots stable, closed under every compact
    # reflection (|W| * k products), determinants (units, checked first)
    # equal to the compact relabelling signs and cancelling
    elements = set(pair.weyl)
    reflections = [_reflection(a, b) for a, b in zip(pair.compact, pair.killing_duals)]
    base = sorted(nc)
    for m in pair.weyl:
        if sorted(mat_vec(m, b) for b in nc) != base:
            raise ValueError("noncompact root set moves under the Weyl group")
        if any(_mat_mul(s, m) not in elements for s in reflections):
            raise ValueError("Weyl set is not closed under the compact reflections")
    for m, sign in zip(pair.weyl, pair.signs):
        if _compact_match_sign(pair, m) != sign:
            raise ValueError("compact matching sign differs from the determinant")
    if len(pair.weyl) > 1 and sum(pair.signs) != 0:
        raise ValueError("Weyl determinants do not cancel")


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitSpec:
    pair: HermitianPairData
    lam: tuple  # in measure coordinates: B * lam_native
    lam_native: tuple  # as supplied, in ambient coordinates

    @cached_property
    def model(self) -> "OrbitModel":
        """The orbit model, built on first use."""
        return orbit_model(self)

    @cached_property
    def transform(self) -> tuple:
        """The reduced transform compiled to float terms, on first use."""
        return _compile_transform(self)


def orbit_spec(pair: HermitianPairData, lam_native) -> OrbitSpec:
    lam_native = vec(lam_native)
    basis, _ = _coordinates(pair.family, pair.params)
    if len(lam_native) != len(basis[0]):
        raise OrbitValidationError(
            f"{pair.family}({', '.join(map(str, pair.params))}) expects "
            f"{len(basis[0])} entries of lambda"
        )
    O = OrbitSpec(pair, mat_vec(basis, lam_native), lam_native)
    _validate_orbit(O)
    return O


def _validate_orbit(O: OrbitSpec):
    pair = O.pair
    for idx in range(pair.k, len(pair.roots)):
        val = vdot(O.lam, pair.duals[idx])
        if val <= 0:
            raise OrbitValidationError(
                "lambda pairs nonpositively with a noncompact root "
                f"({[str(x) for x in pair.roots[idx]]}: {val})"
            )
    pval = wall_polynomial(pair).eval_exact(O.lam)
    if pval == 0:
        raise OrbitValidationError("P(lambda)=0: lambda lies on a compact wall")


def wall_polynomial(pair: HermitianPairData) -> Polynomial:
    """Product of the compact-root wall functionals (constant 1 when k=0)."""
    if pair.k == 0:
        return Polynomial.constant(pair.rank, 1)
    return Polynomial.product_of_linear(pair.killing_duals)


def orbit_chamber(O: OrbitSpec) -> tuple:
    """The dual of lambda, (B B^T)^-1 lambda: the canonical chamber point.

    It is the trace-form dual up to the family's positive scale."""
    _, inverse = _coordinates(O.pair.family, O.pair.params)
    return mat_vec(inverse, O.lam)


@dataclass(frozen=True)
class OrbitModel:
    model: localize.FixedPointModel
    chamber: tuple  # dual of lambda
    wall_values: tuple  # (label, exact P(w*lam)) per fixed point


def orbit_model(O: OrbitSpec) -> OrbitModel:
    """One fixed point per Weyl element: image w*lam, and the tangent
    weights there, -w*a per compact root a (compact first) and w*b per
    noncompact root b."""
    pair = O.pair
    P = wall_polynomial(pair)
    pts = []
    wall_values = []
    for wi, m in enumerate(pair.weyl):
        image = mat_vec(m, O.lam)
        weights = tuple(tuple(-x for x in mat_vec(m, a)) for a in pair.compact)
        weights += tuple(mat_vec(m, b) for b in pair.noncompact)
        label = f"w{wi}"
        pts.append(localize.fixed_point(image, weights, label))
        pv = P.eval_exact(image)
        if pv == 0:
            raise OrbitValidationError(
                f"moment image at {label} lies on a compact wall"
            )
        wall_values.append((label, pv))
    M = localize.model(pair.rank, pts)
    return OrbitModel(M, orbit_chamber(O), tuple(wall_values))


def t_type_measure(O: OrbitSpec, xi=None) -> SignedConeSpline:
    """Full-torus orbit measure: the synthesis of the orbit model, a
    nonnegative density whose transform is the model's localization sum.

    The chamber must be the one containing lambda; the default is the
    trace-form dual of lambda. The term sign at w*lam must be (-1)^k times
    the Weyl determinant of w, and this is checked.
    """
    om = O.model
    pair = O.pair
    xi = vec(xi) if xi is not None else om.chamber
    _check_lambda_chamber(O, xi)
    S = localize.dh_measure(om.model, xi)
    parity = (-1) ** pair.k
    for wi, (sign, t) in enumerate(zip(pair.signs, S.terms)):
        if t.sign != parity * sign:
            raise ValueError(
                f"synthesized sign at w{wi} differs from the Weyl determinant"
            )
    return S


def _check_lambda_chamber(O: OrbitSpec, xi):
    # the weight hyperplanes of the orbit model are the root hyperplanes, so
    # xi shares lambda's chamber iff their sign patterns agree on every root
    pair = O.pair
    for idx, a in enumerate(pair.roots):
        lam_side = vdot(O.lam, pair.duals[idx])
        xi_side = vdot(a, xi)
        if xi_side == 0:
            raise localize.NonRegularXiError("xi pairs to zero with a root")
        if (lam_side > 0) != (xi_side > 0):
            raise OrbitValidationError("xi does not lie in the chamber of lambda")


def k_type_measure(O: OrbitSpec) -> SignedConeSpline:
    """Reduced measure: noncompact factors only, times the wall polynomial.

    Term signs are the Weyl determinants (equal to the compact relabelling
    signs, checked once per pair); the noncompact factor multiset is
    Weyl-stable, so every term carries the same canonically ordered factors.
    """
    pair = O.pair
    factors = tuple(sorted(pair.noncompact))
    _certify_proper(factors, pair.center_vector)
    terms = tuple(
        spline_term(sign, pt.image, factors)
        for sign, pt in zip(pair.signs, O.model.model.points)
    )
    poly = wall_polynomial(pair) if pair.k > 0 else None
    return SignedConeSpline(pair.rank, terms, poly)


# ---------------------------------------------------------------------------
# the reduced transform, compiled to float terms


def _float_forms(forms) -> list:
    """(float form, its Euclidean norm) per exact form."""
    out = []
    for form in forms:
        f = tuple(float(x) for x in form)
        out.append((f, math.sqrt(sum(x**2 for x in f))))
    return out


def _evaluate(terms, zeta) -> complex:
    """Sum of float terms (coeff, exponent, ((form, |form|, mult), ...)) at
    zeta: coeff * e^{i<exponent, zeta>} / prod <form, zeta>^mult, term by
    term in the given order. Each distinct phase and denominator power is
    computed once; they are the same floats either way."""
    zeta = tuple(complex(z) for z in zeta)
    zn = math.sqrt(sum(abs(z) ** 2 for z in zeta))
    phases = {}
    powers = {}
    total = 0.0 + 0.0j
    for coeff, expo, denom in terms:
        phase = phases.get(expo)
        if phase is None:
            phase = np.exp(1j * sum(x * z for x, z in zip(expo, zeta)))
            phases[expo] = phase
        val = coeff * phase
        for form, norm, mult in denom:
            key = (form, mult)
            power = powers.get(key)
            if power is None:
                fz = sum(x * z for x, z in zip(form, zeta))
                if abs(fz) <= REGULARITY_RTOL * norm * zn:
                    raise NonRegularZetaError("a denominator form vanishes at zeta")
                power = fz**mult
                powers[key] = power
            val /= power
        total += val
    return complex(total)


def _compile_transform(O: OrbitSpec) -> tuple:
    """Float terms of the reduced transform, before its prefactor.

    Starts from the fixed-point sum with noncompact denominators only and
    applies one directional derivative per compact root, in the trace-form
    dual direction. At a fixed point w*lam the denominator forms w*b stay
    fixed and a derivative only moves coefficients between multiplicity
    tuples, so the chain runs per point on {multiplicities: coefficient}.
    A phase derivative multiplies by i, so every term of multiplicity sum
    n_c + j took k - j of them: its exact coefficient is a rational times
    i^(k - j), kept rational until the end. Terms come out sorted by
    (exponent, denominator), with exact zeros pruned. The images w*lam are
    distinct (lam is off every compact wall), so no two points share an
    exponent.
    """
    pair = O.pair
    n_c = len(pair.noncompact)
    points = sorted(
        zip(O.model.model.points, pair.weyl, pair.signs), key=lambda pms: pms[0].image
    )
    terms = []
    for pt, m, sign in points:
        forms = tuple(sorted(mat_vec(m, b) for b in pair.noncompact))
        acc = {(1,) * n_c: rat(sign)}
        for dual in pair.killing_duals:
            pairing = vdot(pt.image, dual)
            slopes = [(j, vdot(f, dual)) for j, f in enumerate(forms)]
            slopes = [(j, s) for j, s in slopes if s != 0]
            nxt = {}
            for mults, c in acc.items():
                if pairing != 0:
                    nxt[mults] = nxt.get(mults, ZERO) + c * pairing
                for j, s in slopes:
                    bumped = mults[:j] + (mults[j] + 1,) + mults[j + 1 :]
                    nxt[bumped] = nxt.get(bumped, ZERO) - c * mults[j] * s
            acc = {mults: c for mults, c in nxt.items() if c != 0}
        expo = tuple(float(x) for x in pt.image)
        fforms = _float_forms(forms)
        for mults in sorted(acc):
            c = acc[mults]
            # c * i^(k - j) as an exact Gaussian pair
            re, im = ((c, ZERO), (ZERO, c), (-c, ZERO), (ZERO, -c))[
                (pair.k + n_c - sum(mults)) % 4
            ]
            denom = tuple((f, n, mult) for (f, n), mult in zip(fforms, mults))
            terms.append((complex(float(re), float(im)), expo, denom))
    return tuple(terms)


def laplace_nu_symbolic(O: OrbitSpec, zeta) -> complex:
    """Transform of the reduced measure, computed symbolically.

    The fixed-point sum with noncompact denominators only, differentiated
    once per compact root in the trace-form dual direction, is compiled
    once per orbit (OrbitSpec.transform); each zeta only evaluates it.

    Prefactor bookkeeping: with n_c noncompact factors, the transform of the
    underlying convolution carries i^(n_c); each wall functional pulls one
    factor of 1/i out of a plain zeta-derivative. Net prefactor i^(n_c - k),
    which keeps the result conjugate-symmetric as the transform of a real
    measure must be. Im(zeta) must lie strictly inside the noncompact dual
    cone, where the transform converges.
    """
    pair = O.pair
    zeta = tuple(complex(z) for z in zeta)
    for b in pair.noncompact:
        if sum(float(x) * z.imag for x, z in zip(b, zeta)) <= 0:
            raise NonRegularZetaError(
                "Im(zeta) is not strictly inside the noncompact dual cone"
            )
    power = (len(pair.noncompact) - pair.k) % 4
    return (1j**power) * _evaluate(O.transform, zeta)


# ---------------------------------------------------------------------------
# serialization


def orbit_to_json(O: OrbitSpec) -> dict:
    return {
        "family": O.pair.family,
        "params": list(O.pair.params),
        "lambda": [rat_str(x) for x in O.lam_native],
    }


def orbit_from_json(data) -> OrbitSpec:
    if isinstance(data, str):
        data = json.loads(data)
    pair = build_pair(data["family"], data["params"])
    return orbit_spec(pair, data["lambda"])


def weyl_to_json(pair: HermitianPairData) -> list:
    return [
        {"matrix": [[rat_str(x) for x in row] for row in m], "det": sign}
        for m, sign in zip(pair.weyl, pair.signs)
    ]
