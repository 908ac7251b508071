import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from dhmeasure import conespline, hermitian, localize, oracle
from dhmeasure.hermitian import (
    HermitianPairData,
    OrbitValidationError,
    UnsupportedFamilyError,
    build_pair,
    k_type_measure,
    laplace_nu_symbolic,
    orbit_model,
    orbit_spec,
    t_type_measure,
    weyl_det,
)
from dhmeasure.rational import ZERO, det, integer_vector, mat_vec, rat, solve, vdot, vec
from exp_rational import ExpRationalSum, exact_float


def su11():
    return orbit_spec(build_pair("AIII", (1, 1)), (2, -1))


def su21():
    return orbit_spec(build_pair("AIII", (2, 1)), (3, 1, -4))


def sp2():
    return orbit_spec(build_pair("CI", (2,)), (5, 2))


def test_su11_pair_shape():
    pair = build_pair("AIII", (1, 1))
    assert pair.rank == 1
    assert pair.k == 0
    assert len(pair.noncompact) == 1
    assert len(pair.weyl) == 1


def test_su21_pair_shape():
    pair = build_pair("AIII", (2, 1))
    assert pair.rank == 2
    assert pair.k == 1
    assert len(pair.noncompact) == 2
    assert len(pair.weyl) == 2
    dets = sorted(weyl_det(m) for m in pair.weyl)
    assert dets == [-1, 1]


def test_sp2_pair_shape():
    pair = build_pair("CI", (2,))
    assert pair.rank == 2
    assert pair.k == 1
    assert len(pair.noncompact) == 3
    assert len(pair.weyl) == 2


def test_unsupported_family():
    # True == 1 and hashes alike: a cached AIII(1, 1) must not answer (True, 1)
    build_pair("AIII", (1, 1))
    for family, params in [
        ("EVII", (3,)),
        ("BDI", (3, 2)),
        ("AIII", (3, 3)),
        ("AIII", (1, 5)),
        ("AIII", (0, 2)),
        ("CI", (4,)),
        ("CI", (0,)),
        ("CI", (1, 1)),
        ("AIII", (2,)),
        ("AIII", (1.7, 1)),
        ("AIII", (True, 1)),
        ("CI", (2.5,)),
        ("CI", ("2",)),
        ("CI", (float("nan"),)),
    ]:
        with pytest.raises(UnsupportedFamilyError):
            build_pair(family, params)


def test_integral_float_params_are_integers():
    assert build_pair("AIII", (2.0, 1)) is build_pair("AIII", (2, 1))


def test_fixed_points_are_weyl_orbit_of_lambda():
    for spec in (su11(), su21(), sp2()):
        om = orbit_model(spec)
        pair = spec.pair
        images = [p.image for p in om.model.points]
        assert images == [mat_vec(m, spec.lam) for m in pair.weyl]
        for m, p in zip(pair.weyl, om.model.points):
            # tangent weights: each compact direction points against its root
            assert p.weights == tuple(
                tuple(-x for x in mat_vec(m, a)) for a in pair.compact
            ) + tuple(mat_vec(m, b) for b in pair.noncompact)


def test_wall_lambda_rejected():
    # equal leading diagonal entries put lambda on the compact wall
    with pytest.raises(OrbitValidationError):
        orbit_model(orbit_spec(build_pair("AIII", (2, 1)), (3, 3, -6)))


def test_lambda_dimension_guard():
    with pytest.raises(OrbitValidationError):
        orbit_spec(build_pair("AIII", (2, 1)), (3, 1))


def test_t_measure_matches_localization():
    spec = su21()
    St = t_type_measure(spec)
    om = orbit_model(spec)
    region = localize.gamma_region(om.model, spec.chamber)
    eta = np.array([float(x) for x in region.sample_interior()])
    rng = np.random.default_rng(5)
    for _ in range(8):
        im = eta * rng.uniform(0.7, 1.6)
        zeta = tuple(
            complex(r, i) for r, i in zip(rng.uniform(-1, 1, 2), im)
        )
        closed = conespline.spline_laplace(St, zeta)
        loc = localize.localization_sum(om.model, zeta, region)
        assert abs(closed - loc) <= 1e-10 * abs(loc)


def test_k_measure_nonnegative_and_invariant():
    for spec in (su11(), su21(), sp2()):
        Sk = k_type_measure(spec)
        pair = spec.pair
        rng = np.random.default_rng(7)
        center = np.array([float(x) for x in pair.center_vector])
        points = []
        for _ in range(60):
            raw = rng.normal(0, 4, pair.rank) + center * rng.uniform(0, 6)
            points.append(tuple(rat_from_float(x) for x in raw))
        values = [conespline.spline_density(Sk, mu).value for mu in points]
        assert min(values) >= 0
        for m in pair.weyl:
            images = [conespline.spline_density(Sk, mat_vec(m, mu)).value for mu in points]
            assert images == values


def rat_from_float(x):
    return rat(int(round(x * 4096)), 4096)


def test_k_measure_term_signs_are_weyl_determinants():
    for spec in (su21(), sp2()):
        Sk = k_type_measure(spec)
        dets = [weyl_det(m) for m in spec.pair.weyl]
        assert [t.sign for t in Sk.terms] == dets


@pytest.mark.parametrize("family,params,lams", [
    ("AIII", (2, 1), [(3, 1, -4), (5, 2, -1)]),
    ("CI", (3,), [(5, 3, 1), (9, 4, 2)]),
])
def test_k_measures_of_one_pair_share_its_wall_polynomial(family, params, lams):
    pair = build_pair(family, params)
    first, second = (k_type_measure(orbit_spec(pair, lam)).poly for lam in lams)
    # expanded once per pair, not once per orbit
    assert first is second is pair.wall_polynomial
    assert first == conespline.Polynomial.product_of_linear(pair.killing_duals)


def test_symbolic_transform_agrees_with_numeric():
    for spec in (su11(), su21(), sp2()):
        pair = spec.pair
        Sk = k_type_measure(spec)
        rng = np.random.default_rng(9)
        for zeta in localize.tube_zetas(rng, pair.center_vector, pair.noncompact, 4):
            sym = laplace_nu_symbolic(spec, zeta)
            num, _ = oracle.numeric_laplace_spline(Sk, zeta, method="mapped")
            assert abs(num - sym) <= 1e-9 * abs(sym)


def test_symbolic_transform_conjugate_symmetry():
    # the transform of a real measure obeys L(-conj(zeta)) = conj(L(zeta))
    spec = su21()
    zeta = (0.4 + 1.2j, -0.3 + 1.9j)
    a = laplace_nu_symbolic(spec, zeta)
    b = laplace_nu_symbolic(spec, tuple(-z.conjugate() for z in zeta))
    assert b == pytest.approx(a.conjugate())


def test_su11_closed_form():
    # one noncompact weight: the measure is a shifted half-line indicator
    spec = su11()
    Sk = k_type_measure(spec)
    assert len(Sk.terms) == 1
    assert Sk.poly is None
    z = 0.5 + 1.1j
    base = float(Sk.terms[0].base[0])
    w = float(Sk.terms[0].factors[0][0])
    expect = np.exp(1j * base * z) * (1j / (w * z)) * w
    # factor pushforward carries 1/|w| Jacobian folded into the density
    got = laplace_nu_symbolic(spec, (z,))
    assert got == pytest.approx(expect / w)


def test_orbit_json_round_trip():
    spec = su21()
    data = {"family": "AIII", "params": [2, 1], "lambda": ["3", 1, "-4"]}
    spec2 = hermitian.orbit_from_json(data)
    assert spec2.pair.family == spec.pair.family
    assert spec2.pair.params == spec.pair.params
    assert spec2.lam == spec.lam


def test_weyl_json_shape():
    pair = build_pair("CI", (2,))
    data = hermitian.weyl_to_json(pair)
    assert len(data) == len(pair.weyl)


def test_wall_values_nonzero():
    om = orbit_model(su21())
    for label, val in om.wall_values:
        assert val != 0


SUPPORTED_PAIRS = [
    ("AIII", (p, q)) for p in range(1, 5) for q in range(1, 5) if p + q <= 5
] + [("CI", (r,)) for r in (1, 2, 3)]


def _blocks(family, params):
    """The ambient sizes of the positive and the nonpositive block of a
    lambda that pairs positively with every noncompact root."""
    return params if family == "AIII" else (params[0], 0)


@pytest.mark.parametrize("family,params", SUPPORTED_PAIRS)
def test_every_compact_wall_is_refused(family, params):
    pair = build_pair(family, params)
    p, q = _blocks(family, params)
    base = list(range(2 * p, p, -1)) + list(range(0, -q, -1))
    compact = [a for a, is_compact in hermitian.FAMILIES[family].roots(*params) if is_compact]
    assert len(compact) == pair.k
    orbit_spec(pair, base)
    for root in compact:
        # e_i - e_j within a block: lambda_i = lambda_j is its wall
        i, j = root.index(1), root.index(-1)
        lam = list(base)
        lam[j] = lam[i]
        with pytest.raises(OrbitValidationError, match="compact wall"):
            orbit_spec(pair, lam)


@pytest.mark.parametrize("family,params", SUPPORTED_PAIRS)
def test_wall_refusal_is_the_wall_polynomial_vanishing(family, params):
    pair = build_pair(family, params)
    P = pair.wall_polynomial
    basis = [vec(row) for row in hermitian.FAMILIES[family].basis(*params)]
    p, q = _blocks(family, params)
    rng = np.random.default_rng(sum(params) + 7 * len(family))
    for _ in range(20):
        # 2n values for a block of n, so many lambda repeat one within a block
        lam = [int(x) for x in rng.integers(1, 2 * p + 1, size=p)]
        lam += [int(x) for x in rng.integers(1 - 2 * q, 1, size=q)]
        if P.eval_exact(mat_vec(basis, lam)) == 0:
            with pytest.raises(OrbitValidationError, match="compact wall"):
                orbit_spec(pair, lam)
        else:
            assert orbit_spec(pair, lam).lam == mat_vec(basis, lam)


def _duals_in_root_order(pair):
    """Trace-form duals of every root, compact first, derived apart from
    build_pair: sum of h_a over i <= a < j for e_i - e_j in AIII, half the
    root in CI."""
    if pair.family == "CI":
        return tuple(tuple(x / 2 for x in root) for root in pair.roots)
    p, q = pair.params
    amb, d = p + q, p + q - 1
    pairs = [(i, j) for i in range(1, amb + 1) for j in range(i + 1, amb + 1)
             if j <= p or i > p]
    pairs += [(i, j) for i in range(1, p + 1) for j in range(p + 1, amb + 1)]
    return tuple(
        tuple(rat(1) if i <= a < j else rat(0) for a in range(1, d + 1))
        for i, j in pairs
    )


@pytest.mark.parametrize("family,params", SUPPORTED_PAIRS)
def test_stored_duals_cover_every_root(family, params):
    pair = build_pair(family, params)
    assert pair.duals == _duals_in_root_order(pair)
    assert pair.killing_duals == pair.duals[: pair.k]
    for root, dual in zip(pair.roots, pair.duals):
        assert vdot(root, dual) > 0


def test_build_pair_is_built_and_verified_once(monkeypatch):
    hermitian._build_pair.cache_clear()
    verified = []
    real = hermitian._verify_pair
    monkeypatch.setattr(
        hermitian, "_verify_pair", lambda pair: verified.append(pair) or real(pair)
    )
    first = build_pair("AIII", [2, 1])
    assert build_pair("AIII", (2, 1)) is first
    assert len(verified) == 1


def _derive_from_scratch(spec):
    """The reduced transform's exact expression, rebuilt with the
    exponential-rational algebra: the fixed-point sum, then one d_dir per
    compact dual."""
    pair = spec.pair
    raw = []
    for m, pt in zip(pair.weyl, orbit_model(spec).model.points):
        sign = hermitian._compact_match_sign(pair, m)
        denom = tuple((mat_vec(m, b), 1) for b in pair.noncompact)
        raw.append(((sign, 0), pt.image, denom))
    expr = ExpRationalSum.build(pair.rank, raw)
    for dual in pair.killing_duals:
        expr = expr.d_dir(dual)
    return expr


def _evaluate_term_by_term(expr, zeta):
    zeta = tuple(complex(z) for z in zeta)
    total = 0.0 + 0.0j
    for coeff, expo, denom in expr.terms:
        val = complex(exact_float(coeff[0]), exact_float(coeff[1]))
        val *= np.exp(1j * sum(exact_float(x) * z for x, z in zip(expo, zeta)))
        for form, mult in denom:
            val /= sum(float(x) * z for x, z in zip(form, zeta)) ** mult
        total += val
    return complex(total)


def _rational_lambda(rng, family, params):
    """A seeded regular lambda with non-integral entries: top block positive,
    bottom block nonpositive (AIII), or positive (CI), distinct and in random
    order within each block, so not only the dominant compact chamber."""
    p, q = params if family == "AIII" else (params[0], 0)

    def draw(lo, hi, n):
        return {Fraction(int(rng.integers(lo, hi)), int(rng.integers(2, 7))) for _ in range(n)}

    while True:
        top, low = draw(1, 60, p), draw(-59, 1, q)
        if len(top) == p and len(low) == q and any(x.denominator > 1 for x in top | low):
            break
    blocks = [sorted(top), sorted(low)]
    for block in blocks:
        rng.shuffle(block)
    return tuple(str(x) for x in blocks[0] + blocks[1])


# five integral lambdas, then two seeded non-integral ones on every pair
COMPILED_CASES = [
    ("AIII", (1, 1), (2, -1)),
    ("AIII", (2, 1), (3, 1, -4)),
    ("CI", (2,), (5, 2)),
    ("CI", (3,), (7, 4, 1)),
    ("AIII", (3, 2), (5, 3, 1, -1, -4)),
] + [
    (family, params, _rational_lambda(np.random.default_rng([26, i, j]), family, params))
    for i, (family, params) in enumerate(SUPPORTED_PAIRS)
    for j in range(2)
]


@pytest.mark.parametrize("family,params,lam", COMPILED_CASES)
def test_compiled_transform_equals_from_scratch_route(family, params, lam):
    spec = orbit_spec(build_pair(family, params), lam)
    pair = spec.pair
    # the tangent weights, -w*a then w*b per Weyl element, and the reduced
    # forms are shared by every orbit of the pair
    for m, weights in zip(pair.weyl, pair.tangent_weights, strict=True):
        assert weights == tuple(
            tuple(-x for x in mat_vec(m, a)) for a in pair.compact
        ) + tuple(mat_vec(m, b) for b in pair.noncompact)
    # 2 * lam is another regular lambda of the pair
    other = hermitian.orbit_from_json({"family": family, "params": list(params),
                                       "lambda": [str(2 * Fraction(x)) for x in lam]})
    assert other.lam != spec.lam
    assert other.pair.tangent_weights is pair.tangent_weights
    assert other.pair.reduced_forms is pair.reduced_forms
    if any(Fraction(x).denominator > 1 for x in lam):
        # the images need a common denominator L > 1, and on CI the compact
        # duals (roots / 2) one s_i > 1
        assert any(integer_vector(p.image)[1] > 1 for p in spec.model.model.points)
        assert (family == "CI" and pair.k > 0) == any(
            s > 1 for _, s, _ in pair.reduced_forms[2]
        )
    expr = _derive_from_scratch(spec)
    power = (len(pair.noncompact) - pair.k) % 4
    center = np.array([float(x) for x in pair.center_vector])
    rng = np.random.default_rng(3)
    for _ in range(3):
        im = center * rng.uniform(1.0, 1.8)
        zeta = tuple(complex(r, i) for r, i in zip(rng.uniform(-1, 1, pair.rank), im))
        scratch = _evaluate_term_by_term(expr, zeta)
        # bit for bit, not approximately
        assert expr.evaluate(zeta) == scratch
        assert laplace_nu_symbolic(spec, zeta) == (1j**power) * scratch


@pytest.mark.parametrize("family,params,lam", COMPILED_CASES[1:5])
def test_evaluate_refuses_a_zeta_on_a_denominator_wall(family, params, lam):
    # laplace_nu_symbolic refuses such a zeta earlier, as outside the tube,
    # so only a direct call reaches the evaluator's own check
    transform = orbit_spec(build_pair(family, params), lam).transform
    rng = np.random.default_rng(33)
    for form, _, _ in transform.powers:
        f = np.array(form)
        v = rng.uniform(-1, 1, len(f)) + 1j * rng.uniform(0.5, 1.5, len(f))
        zeta = v - (f @ v) / (f @ f) * f  # in the form's kernel, up to rounding
        with pytest.raises(conespline.NonRegularZetaError, match="vanishes"):
            conespline._evaluate(transform, zeta)


# ---------------------------------------------------------------------------
# the per-family construction that the family table replaced, kept as the
# reference: each family in its own coordinates


def _ref_aiii_root(i, j, d):
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


def _ref_aiii_dual(i, j, d):
    """Trace-form dual of e_i - e_j: coefficients on {h_a}."""
    return tuple(rat(1) if i <= a < j else ZERO for a in range(1, d + 1))


def _ref_aiii_transposition_matrix(a, d):
    """Action on coordinates of swapping ambient diagonal slots a, a+1."""
    cols = []
    for b in range(1, d + 1):
        w = [rat(1) if idx <= b else ZERO for idx in range(1, d + 2)]
        w[a - 1], w[a] = w[a], w[a - 1]
        cols.append(tuple(w[c] - w[c + 1] for c in range(d)))
    return tuple(tuple(cols[b][r] for b in range(d)) for r in range(d))


def _ref_ci_transposition_matrix(a, d):
    rows = []
    for r in range(d):
        src = r
        if r == a - 1:
            src = a
        elif r == a:
            src = a - 1
        rows.append(tuple(rat(1) if c == src else ZERO for c in range(d)))
    return tuple(rows)


def _ref_cumsum(values):
    out = []
    acc = ZERO
    for v in values:
        acc += v
        out.append(acc)
    return out


def _ref_pair(family, params):
    if family == "AIII":
        p, q = params
        amb = p + q
        d = amb - 1
        compact, duals_c = [], []
        for i in range(1, amb + 1):
            for j in range(i + 1, amb + 1):
                if (j <= p) or (i > p):
                    compact.append(_ref_aiii_root(i, j, d))
                    duals_c.append(_ref_aiii_dual(i, j, d))
        noncompact, duals_n = [], []
        for i in range(1, p + 1):
            for j in range(p + 1, amb + 1):
                noncompact.append(_ref_aiii_root(i, j, d))
                duals_n.append(_ref_aiii_dual(i, j, d))
        z = [rat(q, amb)] * p + [rat(-p, amb)] * q
        # partial sums of the trace-zero diagonal give the coefficients
        xi0 = tuple(_ref_cumsum(z)[:d])
        gens = [_ref_aiii_transposition_matrix(a, d) for a in range(1, amb) if a != p]
    else:
        (r,) = params
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
        gens = [_ref_ci_transposition_matrix(a, d) for a in range(1, r)]
    return HermitianPairData(
        family,
        tuple(params),
        d,
        tuple(compact) + tuple(noncompact),
        len(compact),
        tuple(duals_c) + tuple(duals_n),
        hermitian._weyl_closure(d, gens),
        xi0,
    )


def _ref_lam(pair, lam_native):
    if pair.family == "AIII":
        return tuple(lam_native[a] - lam_native[a + 1] for a in range(pair.rank))
    return lam_native


def _ref_chamber(pair, lam_native):
    if pair.family == "AIII":
        amb = pair.rank + 1
        total = sum(lam_native, ZERO)
        return tuple(_ref_cumsum([x - total / amb for x in lam_native])[: pair.rank])
    return lam_native


@pytest.mark.parametrize("family,params", SUPPORTED_PAIRS)
def test_family_table_reproduces_the_per_family_construction(family, params):
    pair = build_pair(family, params)
    assert pair == _ref_pair(family, params)
    # the integral pair data is held in Python ints
    assert all(type(x) is int for m in pair.weyl for row in m for x in row)
    assert all(type(x) is int for a in pair.roots for x in a)
    rng = np.random.default_rng(sum(params) + 10 * len(family))
    if family == "AIII":
        p, q = params
    else:
        p, q = params[0], 0
    for _ in range(30):
        # top block positive, bottom block nonpositive, distinct within each
        top = rng.choice(np.arange(1, 60), size=p, replace=False)
        low = rng.choice(np.arange(-60, 1), size=q, replace=False)
        lam_native = vec(
            Fraction(int(x), int(rng.integers(1, 5))) for x in list(top) + list(low)
        )
        if len(set(lam_native)) < p + q:
            continue
        spec = orbit_spec(pair, lam_native)
        assert spec.lam == _ref_lam(pair, lam_native)
        assert spec.chamber == _ref_chamber(pair, lam_native)


# ---------------------------------------------------------------------------
# the orbit model carries the tangent weights: its plain synthesis is the
# full-torus measure, a nonnegative density whose transform is the
# fixed-point sum with no extra factor


def _regular_lambda(rng, family, params):
    """A seeded lambda, decreasing within each compact block: top block
    positive, bottom block nonpositive (AIII), or positive (CI)."""
    p, q = params if family == "AIII" else (params[0], 0)
    top = sorted(rng.choice(np.arange(1, 12), size=p, replace=False), reverse=True)
    low = sorted(rng.choice(np.arange(-10, 1), size=q, replace=False), reverse=True)
    return [int(x) for x in top + low]


def _support_points(rng, spec, count):
    """Generic rational points of the orbit's image: a convex combination of
    the fixed-point images plus a nonnegative combination of the noncompact
    roots, with a small exact perturbation off every wall."""
    pair = spec.pair
    images = [p.image for p in spec.model.model.points]
    out = []
    for _ in range(count):
        c = rng.integers(1, 9, size=len(images))
        t = rng.integers(0, 9, size=len(pair.noncompact))
        mu = [
            sum((Fraction(int(ci), int(c.sum())) * im[j] for ci, im in zip(c, images)), ZERO)
            + sum((Fraction(int(ti), 4) * b[j] for ti, b in zip(t, pair.noncompact)), ZERO)
            + Fraction(int(rng.integers(1, 97)), 997)
            for j in range(pair.rank)
        ]
        out.append(tuple(mu))
    return out


@pytest.mark.parametrize("family,params", SUPPORTED_PAIRS)
def test_orbit_model_synthesis_is_the_t_measure(family, params):
    rng = np.random.default_rng(sum(params) + 31 * len(family))
    spec = orbit_spec(build_pair(family, params), _regular_lambda(rng, family, params))
    om = spec.model
    S = localize.dh_measure(om.model, spec.chamber)
    assert S.terms == t_type_measure(spec).terms
    values = [conespline.spline_density(S, mu).value for mu in _support_points(rng, spec, 10)]
    assert min(values) >= 0
    assert max(values) > 0
    region = localize.gamma_region(om.model, spec.chamber)
    for zeta in localize.tube_zetas(rng, region.sample_interior(), region.factors, 3):
        closed = conespline.spline_laplace(S, zeta)
        loc = localize.localization_sum(om.model, zeta, region)
        assert abs(closed - loc) <= 1e-9 * abs(loc)


# ---------------------------------------------------------------------------
# every gate of _verify_pair fires on a pair corrupted in its one way


def _negated(m):
    return tuple(tuple(-x for x in row) for row in m)


@pytest.mark.parametrize(
    "family,params,corrupt,message",
    [
        ("AIII", (2, 2), lambda pair: {"weyl": pair.weyl[:-1]},
         "not closed under the compact reflections"),
        ("CI", (2,), lambda pair: {"center_vector": tuple(2 * x for x in pair.center_vector)},
         "center vector is not 1 on a noncompact root"),
        ("AIII", (2, 1), lambda pair: {"duals": (tuple(2 * x for x in pair.duals[0]),)
                                       + pair.duals[1:]},
         "trace-form duals are not symmetric"),
        ("AIII", (2, 1), lambda pair: {"weyl": pair.weyl + (_negated(pair.weyl[0]),)},
         "noncompact root set moves under the Weyl group"),
    ],
)
def test_verify_pair_rejects_a_corrupted_pair(family, params, corrupt, message):
    pair = build_pair(family, params)
    hermitian._verify_pair(pair)
    with pytest.raises(ValueError, match=message):
        hermitian._verify_pair(dataclasses.replace(pair, **corrupt(pair)))


def test_verify_pair_rejects_a_determinant_that_is_not_the_relabelling_sign(monkeypatch):
    pair = build_pair("CI", (3,))
    monkeypatch.setattr(hermitian, "weyl_det", lambda m: 1)
    # a fresh copy: the cached pair holds its signs already
    with pytest.raises(ValueError, match="compact matching sign differs from the determinant"):
        hermitian._verify_pair(dataclasses.replace(pair))


def test_pair_signs_are_the_weyl_determinants():
    for family, params in SUPPORTED_PAIRS:
        pair = build_pair(family, params)
        assert pair.signs == tuple(weyl_det(m) for m in pair.weyl)
        assert [w["det"] for w in hermitian.weyl_to_json(pair)] == list(pair.signs)


# ---------------------------------------------------------------------------
# the pair data as it was built in Fractions before it moved to Python ints,
# kept as the reference for the integer construction


def _fraction_mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(n)), ZERO) for j in range(n))
        for i in range(n)
    )


def _fraction_closure(dim, generators):
    ident = tuple(tuple(rat(int(i == j)) for j in range(dim)) for i in range(dim))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = _fraction_mat_mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return (ident,) + tuple(sorted(seen - {ident}))


def _fraction_reflection(root, dual):
    f = 2 / vdot(root, dual)
    n = len(root)
    return tuple(
        tuple(rat(int(r == c)) - f * root[r] * dual[c] for c in range(n)) for r in range(n)
    )


def _fraction_pair(family, params):
    """(roots, k, duals, weyl, center vector, signs, tangent weights, reduced
    forms), all in Fractions: roots B * root, compact first; duals
    (B B^T)^-1 root / scale; the Weyl group closed from the simple compact
    reflections; per Weyl element its tangent weights; and the sorted
    noncompact forms, their floats and norms, and per compact dual its
    integers, their scale and the nonzero slopes of the forms, built per
    Weyl element and asserted equal for all of them."""
    spec = hermitian.FAMILIES[family]
    basis = tuple(vec(row) for row in spec.basis(*params))
    d = len(basis)
    inverse = solve([[vdot(u, v) for v in basis] for u in basis],
                    [[rat(int(i == j)) for j in range(d)] for i in range(d)])
    flagged = [(mat_vec(basis, vec(a)), compact) for a, compact in spec.roots(*params)]
    compact = tuple(a for a, c in flagged if c)
    roots = compact + tuple(a for a, c in flagged if not c)
    k = len(compact)
    duals = tuple(tuple(x / spec.scale for x in mat_vec(inverse, a)) for a in roots)
    center = solve(roots, [0] * k + [1] * (len(roots) - k))
    simple = [
        _fraction_reflection(a, b)
        for a, b in zip(compact, duals)
        if not any(tuple(x - y for x, y in zip(a, c)) in compact for c in compact)
    ]
    weyl = _fraction_closure(d, simple)
    signs = tuple(int(det(m)) for m in weyl)
    frames = []
    for m in weyl:
        weights = tuple(tuple(-x for x in mat_vec(m, a)) for a in compact)
        weights += tuple(mat_vec(m, b) for b in roots[k:])
        forms = tuple(sorted(weights[k:]))
        floats = tuple(
            (tuple(float(x) for x in f), math.sqrt(sum(float(x) ** 2 for x in f))) for f in forms
        )
        walls = []
        for dual in duals[:k]:
            ints, scale = integer_vector(dual)
            slopes = [(j, vdot(f, ints)) for j, f in enumerate(forms)]
            walls.append((tuple(ints), scale, tuple((j, x) for j, x in slopes if x != 0)))
        frames.append((weights, (forms, floats, tuple(walls))))
    tangent_weights = tuple(weights for weights, _ in frames)
    reduced = frames[0][1]
    assert all(other == reduced for _, other in frames)
    return roots, k, duals, weyl, center, signs, tangent_weights, reduced


@pytest.mark.parametrize("family,params", SUPPORTED_PAIRS)
def test_integer_pair_data_equals_the_fraction_construction(family, params):
    pair = build_pair(family, params)
    got = (pair.roots, pair.k, pair.duals, pair.weyl, pair.center_vector, pair.signs,
           pair.tangent_weights, pair.reduced_forms)
    assert got == _fraction_pair(family, params)
    assert all(type(x) is int for weights in pair.tangent_weights for w in weights for x in w)
    forms, _, walls = pair.reduced_forms
    assert all(type(x) is int for f in forms for x in f)
    assert all(type(x) is int for _, _, slopes in walls for _, x in slopes)


@pytest.mark.parametrize(
    "basis,message",
    [
        # B * (e_0 - e_1) = (1, -1/2)
        ([[1, 0], [0, rat(1, 2)]], "a root is not integral"),
        # the root (1, -3) is integral, its dual (1, -1/3) makes the
        # reflection [[0, 1/3], [3, 0]]
        ([[1, 0], [0, 3]], "a compact reflection is not integral"),
    ],
)
def test_non_integral_pair_data_raises(basis, message, monkeypatch):
    family = hermitian.Family(
        ((2,),), 1, lambda n: basis, lambda n: [([1, -1], True), ([1, 1], False)]
    )
    # a fresh name per case: the torus coordinates are cached per family
    name = f"TEST{basis}"
    monkeypatch.setitem(hermitian.FAMILIES, name, family)
    with pytest.raises(ValueError, match=message):
        build_pair(name, (2,))


# integral lambdas outside the dominant compact chamber
NON_DOMINANT_CASES = [
    ("CI", (3,), (3, 5, 1)),
    ("AIII", (2, 1), (1, 3, -4)),
    ("AIII", (3, 1), (2, 7, 4, -3)),
    ("AIII", (2, 2), (1, 5, -6, -2)),
]


@pytest.mark.parametrize("family,params,lam", COMPILED_CASES + NON_DOMINANT_CASES)
def test_orbit_images_and_wall_values_equal_the_fraction_route(family, params, lam):
    # the images are computed in ints over lam's common denominator;
    # non-integral lam make that denominator L > 1. The wall values are
    # det(w) * P(lam), which the alternation of P makes P(w*lam)
    spec = orbit_spec(build_pair(family, params), lam)
    pair = spec.pair
    P = pair.wall_polynomial
    om = orbit_model(spec)
    images = [mat_vec(m, spec.lam) for m in pair.weyl]
    assert [p.image for p in om.model.points] == images
    assert om.wall_values == tuple((f"w{i}", P.eval_exact(im)) for i, im in enumerate(images))
    assert om.wall_values == tuple(
        (f"w{i}", sign * P.eval_exact(spec.lam)) for i, sign in enumerate(pair.signs)
    )
    assert spec.wall_value == P.eval_exact(spec.lam) != 0
    # exact rationals throughout, k = 0 pairs (constant P = 1) included
    assert {type(x) for p in om.model.points for x in p.image} == {type(ZERO)}
    assert {type(v) for _, v in om.wall_values} == {type(ZERO)}


@pytest.mark.parametrize("family,params,lam", COMPILED_CASES[:5])
def test_t_measure_of_a_chamber_is_the_t_measure_of_its_point(family, params, lam):
    spec = orbit_spec(build_pair(family, params), lam)
    chamber = hermitian.t_chamber(spec)
    assert chamber.chamber_point == spec.chamber
    S = t_type_measure(spec, chamber)
    assert S == t_type_measure(spec) == t_type_measure(spec, chamber.chamber_point)
    # a chamber that is not lambda's is refused as a point is
    other = localize.renormalize(spec.model.model, tuple(-x for x in spec.chamber))
    with pytest.raises(OrbitValidationError, match="chamber of lambda"):
        t_type_measure(spec, other)
