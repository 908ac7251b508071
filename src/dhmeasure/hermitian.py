"""Root data for two families of noncompact pairs and their orbit measures.

Supported families:

  AIII(p, q): su(p, q), p + q <= 5. Torus coordinates are values on the
      simple coroot basis h_a = E_aa - E_{a+1,a+1} (d = p + q - 1 numbers);
      an element of the torus Lie algebra is stored by its coefficients on
      {h_a}, so weight evaluation is a plain dot product. Roots are e_i-e_j
      on the diagonal; compact means both indices in the same block.
  CI(r): sp(r, R), r <= 3. Standard coordinates e_i; compact roots e_i-e_j,
      noncompact positive e_i+e_j (i <= j).

The invariant form is the trace form of the defining representation. It
fixes the compact-root dual vectors and the wall polynomial up to one
positive scalar per family; every check downstream is scale-free.

The orbit machinery: fixed points of the torus action on an elliptic orbit
are the compact-Weyl translates w*lam; the weights there are w*roots. The
full-torus measure comes from localize.dh_measure; the reduced measure keeps
only noncompact convolution factors and multiplies by the product of the
compact-root wall functionals. Its transform is computed symbolically in an
exponential-rational algebra with exact Gaussian-rational coefficients.

Exact data is derived once and evaluated many times: build_pair caches the
root data per family, and an OrbitSpec builds its orbit model and compiles
its symbolic transform on first use, so every further zeta only evaluates
float terms.
"""

from __future__ import annotations

import json
import math
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
from .rational import ZERO, det, mat_vec, rat, rat_str, vdot, vec

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


def weyl_det(matrix) -> int:
    d = det([list(row) for row in matrix])
    if d == 1:
        return 1
    if d == -1:
        return -1
    raise ValueError("Weyl matrix determinant is not a unit")


# ---------------------------------------------------------------------------
# family constructions


def _aiii_root(i, j, d):
    """e_i - e_j in coroot-basis coordinates (1-based ambient indices)."""
    out = []
    for a in range(1, d + 1):
        v = ZERO
        if i == a:
            v += 1
        if i == a + 1:
            v -= 1
        if j == a:
            v -= 1
        if j == a + 1:
            v += 1
        out.append(v)
    return tuple(out)


def _aiii_dual(i, j, d):
    """Trace-form dual of e_i - e_j: coefficients on {h_a}."""
    return tuple(rat(1) if i <= a < j else ZERO for a in range(1, d + 1))


def _aiii_transposition_matrix(a, d):
    """Action on coordinates of swapping ambient diagonal slots a, a+1."""
    cols = []
    for b in range(1, d + 1):
        w = [rat(1) if idx <= b else ZERO for idx in range(1, d + 2)]
        w[a - 1], w[a] = w[a], w[a - 1]
        cols.append(tuple(w[c] - w[c + 1] for c in range(d)))
    return tuple(tuple(cols[b][r] for b in range(d)) for r in range(d))


def _ci_transposition_matrix(a, d):
    rows = []
    for r in range(d):
        src = r
        if r == a - 1:
            src = a
        elif r == a:
            src = a - 1
        rows.append(tuple(rat(1) if c == src else ZERO for c in range(d)))
    return tuple(rows)


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


def build_pair(family, params) -> HermitianPairData:
    """Construct the root data and verify every structural invariant.

    The data is immutable, so it is built and verified once per
    (family, params) and shared afterwards."""
    return _build_pair(family, tuple(params))


@lru_cache(maxsize=16)
def _build_pair(family, params) -> HermitianPairData:
    if family == "AIII":
        p, q = (int(x) for x in params)
        if p < 1 or q < 1 or p + q > 5:
            raise UnsupportedFamilyError("AIII supports p,q >= 1 with p+q <= 5")
        amb = p + q
        d = amb - 1
        compact, duals_c = [], []
        for i in range(1, amb + 1):
            for j in range(i + 1, amb + 1):
                same = (j <= p) or (i > p)
                if same:
                    compact.append(_aiii_root(i, j, d))
                    duals_c.append(_aiii_dual(i, j, d))
        noncompact, duals_n = [], []
        for i in range(1, p + 1):
            for j in range(p + 1, amb + 1):
                noncompact.append(_aiii_root(i, j, d))
                duals_n.append(_aiii_dual(i, j, d))
        z = [rat(q, amb)] * p + [rat(-p, amb)] * q
        # partial sums of the trace-zero diagonal give the coefficients
        xi0 = tuple(_cumsum(z)[:d])
        gens = [
            _aiii_transposition_matrix(a, d)
            for a in range(1, amb)
            if a != p
        ]
    elif family == "CI":
        (r,) = (int(x) for x in params)
        if r < 1 or r > 3:
            raise UnsupportedFamilyError("CI supports 1 <= r <= 3")
        d = r
        compact, duals_c = [], []
        for i in range(r):
            for j in range(i + 1, r):
                root = [ZERO] * r
                root[i], root[j] = rat(1), rat(-1)
                compact.append(tuple(root))
                duals_c.append(tuple(x / 2 for x in root))
        noncompact, duals_n = [], []
        for i in range(r):
            for j in range(i, r):
                root = [ZERO] * r
                root[i] += 1
                root[j] += 1
                noncompact.append(tuple(root))
                duals_n.append(tuple(x / 2 for x in root))
        xi0 = tuple(rat(1, 2) for _ in range(r))
        gens = [_ci_transposition_matrix(a, d) for a in range(1, r)]
    else:
        raise UnsupportedFamilyError(f"unknown family {family!r}")

    weyl = _weyl_closure(d, gens)
    pair = HermitianPairData(
        family,
        tuple(int(x) for x in params),
        d,
        tuple(compact) + tuple(noncompact),
        len(compact),
        tuple(duals_c) + tuple(duals_n),
        weyl,
        xi0,
    )
    _verify_pair(pair)
    return pair


def _cumsum(values):
    out = []
    acc = ZERO
    for v in values:
        acc += v
        out.append(acc)
    return out


def _verify_pair(pair):
    duals = pair.duals
    duals_n = duals[pair.k :]
    roots = pair.roots
    n = len(roots)
    # trace-form duality is symmetric
    for i in range(n):
        for j in range(n):
            if vdot(roots[i], duals[j]) != vdot(roots[j], duals[i]):
                raise ValueError("trace-form duals are not symmetric")
    # center vector: 1 on noncompact, 0 on compact
    for a in pair.compact:
        if vdot(a, pair.center_vector) != 0:
            raise ValueError("center vector does not annihilate a compact root")
    for a in pair.noncompact:
        if vdot(a, pair.center_vector) != 1:
            raise ValueError("center vector is not 1 on a noncompact root")
    # nonnegative pairings among noncompact roots
    nc = pair.noncompact
    for a in nc:
        for dual_b in duals_n:
            if vdot(a, dual_b) < 0:
                raise ValueError("negative pairing between noncompact roots")
    # Weyl group: closure, units, noncompact stability, sign sum
    dets = []
    index = {m: i for i, m in enumerate(pair.weyl)}
    for m in pair.weyl:
        dets.append(weyl_det(m))
        for g in pair.weyl:
            if _mat_mul(m, g) not in index:
                raise ValueError("Weyl set is not closed under products")
        moved = sorted(mat_vec(m, b) for b in nc)
        if moved != sorted(nc):
            raise ValueError("noncompact root set moves under the Weyl group")
        moved_c = sorted(
            min(mat_vec(m, a), tuple(-x for x in mat_vec(m, a))) for a in pair.compact
        )
        base_c = sorted(min(a, tuple(-x for x in a)) for a in pair.compact)
        if moved_c != base_c:
            raise ValueError("compact root arrangement moves under the Weyl group")
    if len(pair.weyl) > 1 and sum(dets) != 0:
        raise ValueError("Weyl determinants do not cancel")


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitSpec:
    pair: HermitianPairData
    lam: tuple  # in measure coordinates
    lam_native: tuple  # as supplied (diagonal entries for AIII)

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
    if pair.family == "AIII":
        amb = pair.rank + 1
        if len(lam_native) != amb:
            raise OrbitValidationError(
                f"AIII{pair.params} expects {amb} diagonal entries"
            )
        lam = tuple(
            lam_native[a] - lam_native[a + 1] for a in range(pair.rank)
        )
    else:
        if len(lam_native) != pair.rank:
            raise OrbitValidationError(
                f"CI({pair.params[0]}) expects {pair.rank} entries"
            )
        lam = lam_native
    O = OrbitSpec(pair, lam, lam_native)
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
    """The trace-form dual of lambda: the canonical chamber point."""
    pair = O.pair
    if pair.family == "AIII":
        amb = pair.rank + 1
        total = sum(O.lam_native, ZERO)
        shifted = [x - total / amb for x in O.lam_native]
        return tuple(_cumsum(shifted)[: pair.rank])
    return O.lam


@dataclass(frozen=True)
class OrbitModel:
    model: localize.FixedPointModel
    energy_direction: tuple  # xi0: value 1 on every noncompact weight
    chamber: tuple  # dual of lambda
    wall_values: tuple  # (label, exact P(w*lam)) per fixed point


def orbit_model(O: OrbitSpec) -> OrbitModel:
    """One fixed point per Weyl element: image w*lam, weights w*roots."""
    pair = O.pair
    P = wall_polynomial(pair)
    pts = []
    wall_values = []
    for wi, m in enumerate(pair.weyl):
        image = mat_vec(m, O.lam)
        weights = tuple(mat_vec(m, a) for a in pair.roots)
        label = f"w{wi}"
        pts.append(localize.fixed_point(image, weights, label))
        pv = P.eval_exact(image)
        if pv == 0:
            raise OrbitValidationError(
                f"moment image at {label} lies on a compact wall"
            )
        wall_values.append((label, pv))
    M = localize.model(pair.rank, pts)
    return OrbitModel(M, pair.center_vector, orbit_chamber(O), tuple(wall_values))


def _compact_match_sign(pair, m) -> int:
    """Match {w*compact roots} to {+-compact roots} exactly; the product of
    the signs is the compact bookkeeping factor. Failure means the group
    data is corrupt, so it is a hard error."""
    remaining = list(pair.compact)
    sign = 1
    for a in pair.compact:
        wa = mat_vec(m, a)
        neg = tuple(-x for x in wa)
        if wa in remaining:
            remaining.remove(wa)
        elif neg in remaining:
            remaining.remove(neg)
            sign = -sign
        else:
            raise ValueError("compact-root relabelling failed")
    return sign


def compact_orientation(pair: HermitianPairData) -> int:
    """Sign relating the model's relabelled weights to the true tangent
    orientation: each compact direction points against its stored weight,
    so the pushforward flips once per compact root."""
    return -1 if pair.k % 2 else 1


def t_type_measure(O: OrbitSpec, xi=None) -> SignedConeSpline:
    """Full-torus orbit measure: all positive-root factors at each w*lam.

    The chamber must be the one containing lambda; the default is the
    trace-form dual of lambda. The renormalized sign at each point must equal
    the Weyl determinant, and this is checked; the returned term signs carry
    the extra compact_orientation factor that makes the density the honest
    (nonnegative) pushforward. The transform of the result therefore equals
    compact_orientation(pair) times the localization sum of the raw model.
    """
    om = O.model
    pair = O.pair
    xi = vec(xi) if xi is not None else om.chamber
    _check_lambda_chamber(O, xi)
    R = localize.renormalize(om.model, xi)
    for wi, (m, rp) in enumerate(zip(pair.weyl, R.points)):
        if rp.sign != weyl_det(m):
            raise ValueError(
                f"synthesized sign at w{wi} differs from the Weyl determinant"
            )
    S = localize.dh_measure(om.model, xi)
    if compact_orientation(pair) == 1:
        return S
    flipped = tuple(spline_term(-t.sign, t.base, t.factors) for t in S.terms)
    return SignedConeSpline(S.dim, flipped, S.poly)


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

    Term signs are the compact relabelling signs (equal to the Weyl
    determinants); the noncompact factor multiset is Weyl-stable, so every
    term carries the same canonically ordered factors.
    """
    om = O.model
    pair = O.pair
    factors = tuple(sorted(pair.noncompact))
    _certify_proper(factors, pair.center_vector)
    terms = []
    for m, pt in zip(pair.weyl, om.model.points):
        sign = _compact_match_sign(pair, m)
        if sign != weyl_det(m):
            raise ValueError("compact matching sign differs from the determinant")
        terms.append(spline_term(sign, pt.image, factors))
    poly = wall_polynomial(pair) if pair.k > 0 else None
    return SignedConeSpline(pair.rank, tuple(terms), poly)


# ---------------------------------------------------------------------------
# exponential-rational algebra (exact Gaussian-rational coefficients)


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@dataclass(frozen=True)
class ExpRationalSum:
    """Sum of c * e^{i<mu, zeta>} / prod ell_j(zeta)^{m_j} terms.

    Coefficients are exact Gaussian rationals (re, im); exponents mu and
    denominator forms ell are rational covectors. Terms with equal
    (exponent, denominator multiset) merge on construction and exact-zero
    coefficients are pruned, which keeps repeated differentiation compact.
    """

    dim: int
    terms: tuple  # of (coeff (re, im), exponent tuple, denom tuple of (form, mult))

    @staticmethod
    def build(dim, raw_terms) -> "ExpRationalSum":
        acc = {}
        for coeff, expo, denom in raw_terms:
            coeff = (rat(coeff[0]), rat(coeff[1]))
            expo = vec(expo)
            denom = tuple(sorted((vec(f), int(m)) for f, m in denom))
            key = (expo, denom)
            acc[key] = _gadd(acc.get(key, (ZERO, ZERO)), coeff)
        terms = tuple(
            (c, e, dnm)
            for (e, dnm), c in sorted(acc.items())
            if not (c[0] == 0 and c[1] == 0)
        )
        return ExpRationalSum(dim, terms)

    def __add__(self, other: "ExpRationalSum") -> "ExpRationalSum":
        return ExpRationalSum.build(self.dim, self.terms + other.terms)

    def scale(self, re, im=0) -> "ExpRationalSum":
        c = (rat(re), rat(im))
        return ExpRationalSum.build(
            self.dim, tuple((_gmul(c, t[0]), t[1], t[2]) for t in self.terms)
        )

    def d_dir(self, xi) -> "ExpRationalSum":
        """Plain directional derivative in zeta along xi."""
        xi = vec(xi)
        out = []
        for coeff, expo, denom in self.terms:
            pairing = vdot(expo, xi)  # d/dt e^{i<mu, zeta + t xi>} = i<mu,xi> e
            out.append((_gmul(coeff, (ZERO, pairing)), expo, denom))
            for j, (form, mult) in enumerate(denom):
                fxi = vdot(form, xi)
                if fxi == 0:
                    continue
                bumped = list(denom)
                bumped[j] = (form, mult + 1)
                out.append(
                    ((coeff[0] * (-mult) * fxi, coeff[1] * (-mult) * fxi),
                     expo,
                     tuple(bumped))
                )
        return ExpRationalSum.build(self.dim, out)

    @cached_property
    def _float_terms(self) -> tuple:
        out = []
        for coeff, expo, denom in self.terms:
            forms = _float_forms(form for form, _ in denom)
            out.append((
                complex(float(coeff[0]), float(coeff[1])),
                tuple(float(x) for x in expo),
                tuple((f, n, mult) for (f, n), (_, mult) in zip(forms, denom)),
            ))
        return tuple(out)

    def evaluate(self, zeta) -> complex:
        return _evaluate(self._float_terms, zeta)


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
    i^(k - j), kept rational until the end. Terms come out as
    ExpRationalSum would give them: sorted by (exponent, denominator), with
    exact zeros pruned. The images w*lam are distinct (lam is off every
    compact wall), so no two points share an exponent.
    """
    pair = O.pair
    n_c = len(pair.noncompact)
    points = sorted(zip(O.model.model.points, pair.weyl), key=lambda pm: pm[0].image)
    terms = []
    for pt, m in points:
        forms = tuple(sorted(mat_vec(m, b) for b in pair.noncompact))
        acc = {(1,) * n_c: rat(_compact_match_sign(pair, m))}
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


def laplace_nu_symbolic(O: OrbitSpec, zeta, strict: bool = True) -> complex:
    """Transform of the reduced measure, computed symbolically.

    The fixed-point sum with noncompact denominators only, differentiated
    once per compact root in the trace-form dual direction, is compiled
    once per orbit (OrbitSpec.transform); each zeta only evaluates it.

    Prefactor bookkeeping: with n_c noncompact factors, the transform of the
    underlying convolution carries i^(n_c); each wall functional pulls one
    factor of 1/i out of a plain zeta-derivative. Net prefactor i^(n_c - k),
    which keeps the result conjugate-symmetric as the transform of a real
    measure must be.
    """
    pair = O.pair
    zeta = tuple(complex(z) for z in zeta)
    if strict:
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
        {"matrix": [[rat_str(x) for x in row] for row in m], "det": weyl_det(m)}
        for m in pair.weyl
    ]
