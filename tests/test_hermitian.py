import dataclasses
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
from dhmeasure.rational import ZERO, mat_vec, rat, vdot, vec
from exp_rational import ExpRationalSum


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
    region = localize.gamma_region(om.model, om.chamber)
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
        ev = conespline.DensityEvaluator(Sk)
        rng = np.random.default_rng(7)
        center = np.array([float(x) for x in pair.center_vector])
        for _ in range(60):
            raw = rng.normal(0, 4, pair.rank) + center * rng.uniform(0, 6)
            mu = tuple(rat_from_float(x) for x in raw)
            v = ev(mu)
            assert v >= -1e-9
            for m in pair.weyl:
                assert abs(ev(mat_vec(m, mu)) - v) <= 1e-9 * (1 + abs(v))


def rat_from_float(x):
    return rat(int(round(x * 4096)), 4096)


def test_k_measure_term_signs_are_weyl_determinants():
    for spec in (su21(), sp2()):
        Sk = k_type_measure(spec)
        dets = [weyl_det(m) for m in spec.pair.weyl]
        assert [t.sign for t in Sk.terms] == dets


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
    spec2 = hermitian.orbit_from_json(hermitian.orbit_to_json(spec))
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
        val = complex(float(coeff[0]), float(coeff[1]))
        val *= np.exp(1j * sum(float(x) * z for x, z in zip(expo, zeta)))
        for form, mult in denom:
            val /= sum(float(x) * z for x, z in zip(form, zeta)) ** mult
        total += val
    return complex(total)


@pytest.mark.parametrize(
    "family,params,lam",
    [
        ("AIII", (1, 1), (2, -1)),
        ("AIII", (2, 1), (3, 1, -4)),
        ("CI", (2,), (5, 2)),
        ("CI", (3,), (7, 4, 1)),
        ("AIII", (3, 2), (5, 3, 1, -1, -4)),
    ],
)
def test_compiled_transform_equals_from_scratch_route(family, params, lam):
    spec = orbit_spec(build_pair(family, params), lam)
    pair = spec.pair
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
    assert all(type(x) is Fraction for m in pair.weyl for row in m for x in row)
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
        assert hermitian.orbit_chamber(spec) == _ref_chamber(pair, lam_native)


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
    S = localize.dh_measure(om.model, om.chamber)
    assert S.terms == t_type_measure(spec).terms
    values = [conespline.spline_density(S, mu).value for mu in _support_points(rng, spec, 10)]
    assert min(values) >= 0
    assert max(values) > 0
    region = localize.gamma_region(om.model, om.chamber)
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
