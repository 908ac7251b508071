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

and checks every structural invariant. The roots and the reflections are
integral (checked once; anything else raises), so the roots and the Weyl
matrices are held in Python ints, and the closure, the checks, the signs,
the tangent weights and each orbit's images w*lam run in ints; the duals
and the center vector stay exact rationals, read over one common
denominator where they meet the integer data. An orbit's lambda is given in
ambient coordinates and measured as B * lambda. The trace form fixes the
compact-root duals and the wall polynomial up to one positive scalar per
family; every check downstream is scale-free.

The orbit machinery: fixed points of the torus action on an elliptic orbit
are the compact-Weyl translates w*lam; the weights there are the tangent
weights, w*b for each noncompact root b and -w*a for each compact root a
(a compact direction points against its root). The full-torus measure is
localize.dh_measure of that model; the reduced measure keeps only
noncompact convolution factors and multiplies by the product P of the
compact-root wall functionals. The Weyl group permutes the compact roots up
to the signs _verify_pair counts against the determinants, so P alternates:
P(w*lam) = det(w) * P(lam). The noncompact set is Weyl-stable, so the
reduced transform has the same denominator forms at every fixed point. Its
transform is derived symbolically, with exact Gaussian-rational
coefficients, and compiled to float terms (a conespline.CompiledTransform).

Exact data is derived once and evaluated many times: build_pair caches the
root data per family, with the lam-free data derived on first use (the
tangent weights per Weyl element, and the noncompact forms and their slopes
once per pair), and an OrbitSpec derives its chamber point and P(lam),
builds its orbit model and compiles its symbolic transform on first use, so
every further zeta is a tube check and one evaluation.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import localize
from .conespline import (
    CompiledTransform,
    ConeSplineTerm,
    Polynomial,
    SignedConeSpline,
    _check_interior,
    _evaluate,
    _float_forms,
    _times_i_power,
)
from .rational import (
    ONE,
    ZERO,
    det,
    integer_vector,
    mat_vec,
    rat,
    rat_str,
    solve,
    vdot,
    vec,
)

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
    def wall_polynomial(self) -> Polynomial:
        """Product of the compact-root wall functionals (constant 1 when
        k=0), expanded once per pair."""
        if self.k == 0:
            return Polynomial.constant(self.rank, 1)
        return Polynomial.product_of_linear(self.killing_duals)

    @cached_property
    def signs(self) -> tuple:
        """The determinant of each Weyl element, in the order of weyl."""
        return tuple(weyl_det(m) for m in self.weyl)

    @cached_property
    def tangent_weights(self) -> tuple:
        """The tangent weights at w*lam for each Weyl element w, in the order
        of weyl and shared by every orbit of the pair: -w*a per compact root
        a, then w*b per noncompact root b, in ints."""
        return tuple(
            tuple(tuple(-x for x in _apply(m, a)) for a in self.compact)
            + tuple(_apply(m, b) for b in self.noncompact)
            for m in self.weyl
        )

    @cached_property
    def reduced_forms(self) -> tuple:
        """(forms, float forms, walls) of the reduced transform, the same at
        every fixed point: the noncompact set is Weyl-stable (checked with
        the pair), so the forms w*b, sorted, are the sorted noncompact roots.
        The float forms are _float_forms(forms), (float form, its norm)
        each. Per compact dual d_i, walls holds (s_i*d_i as ints, s_i,
        ((j, <forms[j], s_i*d_i>), ...) for the nonzero slopes only), where
        s_i clears d_i's denominators."""
        forms = tuple(sorted(self.noncompact))
        walls = []
        for dual, s in map(integer_vector, self.killing_duals):
            slopes = [(j, _dot(f, dual)) for j, f in enumerate(forms)]
            walls.append((tuple(dual), s, tuple((j, x) for j, x in slopes if x != 0)))
        return forms, tuple(_float_forms(forms)), tuple(walls)


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


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _apply(m, v) -> tuple:
    """m * v, for a matrix m by rows: in ints for integer m and v."""
    return tuple(_dot(row, v) for row in m)


def _mat_mul(A, B):
    columns = tuple(zip(*B))
    return tuple(tuple(_dot(row, col) for col in columns) for row in A)


def _weyl_closure(dim, generators):
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
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
    """s(x) = x - 2<x, dual>/<root, dual> root, as an integer matrix by rows,
    for an integer root. s does not change when dual is scaled, so it is
    computed on dual's integers; an entry that is no integer raises
    ValueError."""
    dual, _ = integer_vector(dual)
    pairing = _dot(root, dual)
    rows = []
    for r, a in enumerate(root):
        row = []
        for c, b in enumerate(dual):
            q, rest = divmod(2 * a * b, pairing)
            if rest:
                raise ValueError("a compact reflection is not integral in torus coordinates")
            row.append(int(r == c) - q)
        rows.append(tuple(row))
    return tuple(rows)


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
    """The pair's data: roots and Weyl matrices as Python ints (a root that
    is not integral in torus coordinates raises ValueError, and so does a
    compact reflection), duals and the center vector exact."""
    spec = FAMILIES[family]
    basis, inverse = _coordinates(family, params)
    flagged = [(mat_vec(basis, a), compact) for a, compact in spec.roots(*params)]
    if any(x.denominator != 1 for a, _ in flagged for x in a):
        raise ValueError("a root is not integral in torus coordinates")
    flagged = [(tuple(int(x.numerator) for x in a), compact) for a, compact in flagged]
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
        wa = _apply(m, a)
        if wa not in pair.compact:
            if tuple(-x for x in wa) not in pair.compact:
                raise ValueError("compact-root relabelling failed")
            sign = -sign
    return sign


def _over_common(vectors):
    """The exact vectors as integer vectors over one common denominator:
    (integer vectors, the denominator)."""
    ints, scale = integer_vector([x for v in vectors for x in v])
    n = len(vectors[0]) if vectors else 0
    return [ints[i : i + n] for i in range(0, len(ints), n)], scale


def _verify_pair(pair):
    """Every structural invariant, in ints: the roots and Weyl matrices are
    integral, and the duals and the center vector are read over one common
    denominator each."""
    roots, nc = pair.roots, pair.noncompact
    duals, _ = _over_common(pair.duals)
    (xi0,), unit = _over_common([pair.center_vector])
    if any(
        _dot(a, db) != _dot(b, da)
        for a, da in zip(roots, duals)
        for b, db in zip(roots, duals)
    ):
        raise ValueError("trace-form duals are not symmetric")
    if any(_dot(a, xi0) != 0 for a in pair.compact):
        raise ValueError("center vector does not annihilate a compact root")
    if any(_dot(b, xi0) != unit for b in nc):
        raise ValueError("center vector is not 1 on a noncompact root")
    if any(_dot(a, db) < 0 for a in nc for db in duals[pair.k :]):
        raise ValueError("negative pairing between noncompact roots")
    # Weyl group: noncompact roots stable, closed under every compact
    # reflection (|W| * k products), determinants (units, checked first)
    # equal to the compact relabelling signs and cancelling
    elements = set(pair.weyl)
    reflections = [_reflection(a, b) for a, b in zip(pair.compact, pair.killing_duals)]
    base = sorted(nc)
    for m in pair.weyl:
        if sorted(_apply(m, b) for b in nc) != base:
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
    def chamber(self) -> tuple:
        """The dual of lambda, (B B^T)^-1 lambda: the canonical chamber
        point, the trace-form dual of lambda up to the family's positive
        scale."""
        _, inverse = _coordinates(self.pair.family, self.pair.params)
        return mat_vec(inverse, self.lam)

    @cached_property
    def wall_value(self):
        """P(lambda) = prod <lambda, d_i> over the compact duals d_i (exactly
        1 when k=0); each fixed point's wall value is det(w) times it."""
        return math.prod((vdot(self.lam, d) for d in self.pair.killing_duals), start=ONE)

    @cached_property
    def model(self) -> "OrbitModel":
        """The orbit model, built on first use."""
        return orbit_model(self)

    @cached_property
    def transform(self) -> CompiledTransform:
        """The reduced transform compiled to indexed float terms on first
        use, by one integer derivative chain per fixed point over the
        pair's reduced forms."""
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
    """lambda pairs positively with every noncompact dual and lies off every
    compact wall: P(lambda) = prod <lambda, d_i> is 0 iff one factor is."""
    pair = O.pair
    for root, dual in zip(pair.noncompact, pair.duals[pair.k :]):
        val = vdot(O.lam, dual)
        if val <= 0:
            raise OrbitValidationError(
                "lambda pairs nonpositively with a noncompact root "
                f"({[str(x) for x in root]}: {val})"
            )
    if O.wall_value == 0:
        raise OrbitValidationError("P(lambda)=0: lambda lies on a compact wall")


@dataclass(frozen=True)
class OrbitModel:
    model: localize.FixedPointModel
    wall_values: tuple  # (label, exact P(w*lam)) per fixed point


def orbit_model(O: OrbitSpec) -> OrbitModel:
    """One fixed point per Weyl element: image w*lam, and the pair's tangent
    weights there, -w*a per compact root a (compact first) and w*b per
    noncompact root b. With lam = X / L over its common denominator, each
    image is w*X / L, in ints. The wall value at w*lam is
    P(w*lam) = det(w) * P(lambda), by the alternation of P; lambda is off
    every compact wall (checked with the orbit), so none is 0."""
    pair = O.pair
    X, L = integer_vector(O.lam)
    pts = [
        localize.fixed_point([rat(x, L) for x in _apply(m, X)], weights, f"w{wi}")
        for wi, (m, weights) in enumerate(zip(pair.weyl, pair.tangent_weights))
    ]
    wall_values = tuple((p.label, sign * O.wall_value) for p, sign in zip(pts, pair.signs))
    return OrbitModel(localize.model(pair.rank, pts), wall_values)


def t_chamber(O: OrbitSpec, xi=None) -> localize.RenormalizedModel:
    """The chamber of the full-torus measure: the orbit model renormalized
    by xi, which must lie in the chamber of lambda; the default is the
    trace-form dual of lambda. It gives both the measure (t_type_measure)
    and the tube of its transform check."""
    xi = vec(xi) if xi is not None else O.chamber
    _check_lambda_chamber(O, xi)
    return localize.renormalize(O.model.model, xi)


def t_type_measure(O: OrbitSpec, xi=None) -> SignedConeSpline:
    """Full-torus orbit measure: the synthesis of the orbit model, a
    nonnegative density whose transform is the model's localization sum.

    The chamber must be the one containing lambda; the default is the
    trace-form dual of lambda. xi is a chamber point, or the chamber of
    O's orbit model itself (t_chamber), which is then used as it is. The
    term sign at w*lam must be (-1)^k times the Weyl determinant of w, and
    this is checked.
    """
    pair = O.pair
    if isinstance(xi, localize.RenormalizedModel):
        _check_lambda_chamber(O, xi.chamber_point)
        R = xi
    else:
        R = t_chamber(O, xi)
    S = localize.dh_measure(R)
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
        xi_side = vdot(xi, a)
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
    factors = tuple(vec(b) for b in sorted(pair.noncompact))
    terms = tuple(
        ConeSplineTerm(sign, pt.image, factors, pair.center_vector)
        for sign, pt in zip(pair.signs, O.model.model.points)
    )
    poly = pair.wall_polynomial if pair.k > 0 else None
    return SignedConeSpline(pair.rank, terms, poly)


# ---------------------------------------------------------------------------
# the reduced transform, compiled to float terms


def _compile_transform(O: OrbitSpec) -> CompiledTransform:
    """The reduced transform as a CompiledTransform, before its prefactor.

    Starts from the fixed-point sum with noncompact denominators only and
    applies one directional derivative per compact root d_i, in the
    trace-form dual direction. At a fixed point w*lam the denominator forms
    stay fixed and a derivative only moves coefficients between
    multiplicity tuples, so the chain runs per point on {multiplicities:
    coefficient}. The forms, integer duals s_i*d_i and slopes are the
    pair's reduced forms, the same at every point, so the block offsets of
    the denominator powers are laid out once. The chain runs in Python ints:
    with w*lam = image / L over its common
    denominator, each step multiplies both branches by s_i * L, the pairing
    branch by <image, s_i*d_i> and the slope branch by m_j * slope * L, so
    a coefficient is its integer over prod s_i * L^k, and one int true
    division gives its correctly rounded float. A phase derivative
    multiplies by i, so every term of multiplicity sum n_c + j took k - j of
    them: its coefficient is real times i^(k - j). Terms come out sorted by
    (exponent, denominator), with exact zeros pruned. The images w*lam are
    distinct (lam is off every compact wall), so each point adds one
    exponent; each term names its denominator powers by index.
    """
    pair = O.pair
    n_c = len(pair.noncompact)
    _, float_forms, walls = pair.reduced_forms
    top = pair.k + 1  # multiplicities start at 1, and each derivative adds at most 1
    # each distinct (form, norm) owns the powers of mult 1..top, in one block
    blocks = {}
    offsets = [blocks.setdefault(fn, len(blocks) * top) - 1 for fn in float_forms]
    points = sorted(zip(O.model.model.points, pair.signs), key=lambda ps: ps[0].image)
    exponents, terms = [], []
    for pt, sign in points:
        image, L = integer_vector(pt.image)
        acc = {(1,) * n_c: sign}
        den = 1
        for dual, s, slopes in walls:
            pairing = sum(x * y for x, y in zip(image, dual))
            den *= s * L
            nxt = {}
            for mults, c in acc.items():
                if pairing != 0:
                    nxt[mults] = nxt.get(mults, 0) + c * pairing
                for j, slope in slopes:
                    bumped = mults[:j] + (mults[j] + 1,) + mults[j + 1 :]
                    nxt[bumped] = nxt.get(bumped, 0) - c * mults[j] * slope * L
            acc = {mults: c for mults, c in nxt.items() if c != 0}
        exponents.append(tuple(x / L for x in image))
        for mults in sorted(acc):
            indices = tuple(map(operator.add, offsets, mults))
            # c * i^(k - j)
            coeff = _times_i_power(acc[mults] / den, pair.k + n_c - sum(mults))
            terms.append((coeff, len(exponents) - 1, indices))
    powers = tuple((f, n, m) for f, n in blocks for m in range(1, top + 1))
    return CompiledTransform(tuple(exponents), powers, tuple(terms))


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
    _check_interior(pair.noncompact, zeta)
    power = (len(pair.noncompact) - pair.k) % 4
    return (1j**power) * _evaluate(O.transform, zeta)


# ---------------------------------------------------------------------------
# serialization


def orbit_from_json(data) -> OrbitSpec:
    pair = build_pair(data["family"], data["params"])
    return orbit_spec(pair, data["lambda"])


def weyl_to_json(pair: HermitianPairData) -> list:
    return [
        {"matrix": [[rat_str(x) for x in row] for row in m], "det": sign}
        for m, sign in zip(pair.weyl, pair.signs)
    ]
