import dataclasses
import itertools
import math
import os
import re
import stat
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from dhmeasure import cli, conespline, hermitian, localize, polycone, verify
from dhmeasure.conespline import (
    ConeSplineTerm,
    NonProperConeError,
    NonRegularZetaError,
    Polynomial,
    atomic_write_text,
    heaviside_density,
    laplace_factor,
    spline,
    spline_density,
    spline_laplace,
    spline_term,
    write_density_csv,
)
from dhmeasure.rational import ONE, ZERO, integer_vector, rat, vec, vsub
from fraction_plan import fraction_density, fraction_plan, lcm_kernel


def test_heaviside_single_weight_is_flat():
    assert heaviside_density([(1,)], (7,)) == 1.0
    assert heaviside_density([(1,)], (-1,)) == 0.0


def test_heaviside_repeated_weight_is_linear():
    # two copies of the same 1-D weight convolve to a ramp
    assert heaviside_density([(1,), (1,)], (3,)) == pytest.approx(3.0)
    assert heaviside_density([(1,), (1,)], (0.5,)) == pytest.approx(0.5)


def test_heaviside_triangle_weights():
    factors = [(1, 0), (0, 1), (1, 1)]
    assert heaviside_density(factors, (2, 5)) == pytest.approx(2.0)
    assert heaviside_density(factors, (5, 2)) == pytest.approx(2.0)
    assert heaviside_density(factors, (-1, 1)) == 0.0


def test_heaviside_exact_rational_value():
    # cross-checked by exact triangulation of the exact fiber vertices
    factors = [(0, 1, 1), (3, -2, 2), (-1, 2, -1), (2, 0, 1), (1, 1, -1), (0, 0, 1)]
    mu = (Fraction(13, 2), Fraction(19, 3), Fraction(23, 6))
    assert heaviside_density(factors, mu) == Fraction(819923, 81000)


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    st.fractions(min_value=Fraction(1, 1000), max_value=50),
)
def test_heaviside_one_dimensional_closed_form(weights, x):
    n = len(weights)
    want = x ** (n - 1) / (math.factorial(n - 1) * math.prod(weights))
    assert heaviside_density([(a,) for a in weights], (x,)) == want


def test_heaviside_wall_values_are_limits_from_inside():
    a = Fraction(7, 3)
    assert heaviside_density([(1, 0), (1, 0), (0, 1)], (a, 0)) == a
    assert heaviside_density([(1,)], (0,)) == 1
    square = [(2, 1), (1, 3)]  # |det| = 5
    for mu in ((0, 0), (4, 2), (Fraction(1, 3), 1)):
        assert heaviside_density(square, mu) == Fraction(1, 5)
    assert heaviside_density(square, (1, 5)) == 0


def test_heaviside_improper_cone_rejected():
    with pytest.raises(NonProperConeError):
        heaviside_density([(1,), (-1,)], (0,))


def test_laplace_factor_quadrant():
    z = (1j, 2j)
    val = laplace_factor([(1, 0), (0, 1)], z)
    assert val == pytest.approx((1j / z[0]) * (1j / z[1]))


def test_laplace_factor_single_halfline():
    # transform of the Heaviside step is i/zeta
    z = 0.7 + 1.3j
    assert laplace_factor([(1,)], (z,)) == pytest.approx(1j / z)


def test_spline_laplace_matches_term_sum():
    S = spline(
        1,
        [
            spline_term(1, (0,), [(1,)]),
            spline_term(-1, (2,), [(1,)]),
        ],
    )
    z = 0.4 + 1.1j
    expect = (1j / z) * (1 - np.exp(2j * z))
    assert spline_laplace(S, (z,)) == pytest.approx(expect)


def test_transforms_are_compiled_on_the_first_zeta_only(monkeypatch):
    calls = []
    real, real_orbit = conespline._compile, hermitian._compile_transform
    for module in (conespline, localize):
        monkeypatch.setattr(module, "_compile", lambda terms: calls.append("terms") or real(terms))
    monkeypatch.setattr(
        hermitian, "_compile_transform", lambda O: calls.append("orbit") or real_orbit(O)
    )
    M = verify.projective_plane_model(2)
    region = localize.gamma_region(M, (1, 2))
    S = localize.dh_measure(region)
    O = hermitian.orbit_spec(hermitian.build_pair("AIII", (2, 1)), (3, 1, -4))
    eta = np.array([float(x) for x in region.sample_interior()])
    center = np.array([float(x) for x in O.pair.center_vector])
    rng = np.random.default_rng(39)
    for _ in range(4):
        re = rng.uniform(-1, 1, 2)
        zeta = tuple(complex(r, i) for r, i in zip(re, eta * rng.uniform(0.6, 2.0)))
        assert spline_laplace(S, zeta) == pytest.approx(localize.localization_sum(M, zeta, region))
        zeta = tuple(complex(r, i) for r, i in zip(re, center * rng.uniform(1.0, 1.8)))
        hermitian.laplace_nu_symbolic(O, zeta)
        # the spline, then the model, then the orbit: each once
        assert calls == ["terms", "terms", "orbit"]


def test_a_zeta_in_a_factor_kernel_is_refused_by_every_route():
    factors = [(1, 0), (1, 1)]
    S = spline(2, [spline_term(1, (0, 0), factors), spline_term(-1, (1, 0), factors)])
    # (1, 0) vanishes at (0, i) and lies within REGULARITY_RTOL of 0 at (1e-14, i)
    for zeta in ((0, 1j), (1e-14, 1j)):
        with pytest.raises(NonRegularZetaError):
            spline_laplace(S, zeta, strict=False)
        with pytest.raises(NonRegularZetaError):
            laplace_factor(factors, zeta)
        with pytest.raises(NonRegularZetaError, match="vanishes"):
            conespline._evaluate(S.transform, zeta)
    # beyond the band every route evaluates
    zeta = (1e-10, 1j)
    want = -1 / (zeta[0] * (zeta[0] + zeta[1]))
    assert laplace_factor(factors, zeta) == pytest.approx(want, rel=1e-12)
    assert spline_laplace(S, zeta, strict=False) == pytest.approx(
        want * (1 - np.exp(1j * zeta[0])), rel=1e-9)


def test_spline_density_interval():
    # difference of shifted half-lines is the indicator of [0, 2)
    S = spline(
        1,
        [
            spline_term(1, (0,), [(1,)]),
            spline_term(-1, (2,), [(1,)]),
        ],
    )
    assert spline_density(S, (1,)).value == pytest.approx(1.0)
    assert spline_density(S, (3,)).value == pytest.approx(0.0)
    assert spline_density(S, (-1,)).value == pytest.approx(0.0)


def test_spline_with_polynomial_multiplier():
    P = Polynomial.linear((1,))
    S = spline(1, [spline_term(1, (0,), [(1,)])], poly=P)
    assert spline_density(S, (3,)).value == 3
    assert P.eval_exact((rat(5, 2),)) == spline_density(S, (rat(5, 2),)).value == rat(5, 2)


def test_polynomial_algebra():
    p = Polynomial.linear((2, 1))
    q = Polynomial.linear((0, 1))
    prod = p * q
    assert prod.eval_exact((1, 1)) == 3
    assert prod.eval_exact((rat(1, 2), 2)) == 6
    assert Polynomial.product_of_linear([(1, 0), (1, 0)]).eval_exact((3, 9)) == 9


def test_laplace_requires_damping_when_strict():
    S = spline(1, [spline_term(1, (0,), [(1,)])])
    with pytest.raises(conespline.NonRegularZetaError):
        spline_laplace(S, (0.5 - 1j,))
    # relaxed mode evaluates the analytic continuation
    val = spline_laplace(S, (2.0,), strict=False)
    assert val == pytest.approx(1j / 2.0)


def test_spline_json_round_trip():
    P = Polynomial.linear((1, 2))
    S = spline(
        2,
        [
            spline_term(1, (0, 0), [(1, 0), (0, 1)]),
            spline_term(-1, (rat(1, 2), 1), [(1, 0), (0, 1)]),
        ],
        poly=P,
    )
    S2 = conespline.spline_from_json(conespline.spline_to_json(S))
    assert S2.dim == S.dim
    assert S2.terms == S.terms
    assert S2.poly.coeffs == S.poly.coeffs


def test_zero_multiplier_survives_the_json_round_trip():
    # the zero polynomial writes as {}, which reads back as the zero
    # multiplier (density 0), not as no multiplier (density 1)
    S = spline(1, [spline_term(1, (0,), [(1,)])], poly=Polynomial(1, ()))
    data = conespline.spline_to_json(S)
    assert data["poly"] == {}
    S2 = conespline.spline_from_json(data)
    assert S2 == S
    assert spline_density(S2, (1,)).value == spline_density(S, (1,)).value == 0
    assert conespline.spline_from_json({k: v for k, v in data.items() if k != "poly"}).poly is None


@pytest.mark.parametrize("key,exponent", [("1", "(1,)"), ("-1,0", "(-1, 0)")])
def test_polynomial_refuses_an_exponent_that_is_not_dim_nonnegative_ints(key, exponent):
    # in dimension 2, (1,) would evaluate as x_1 alone and (-1, 0) would fail
    # deep in the density: both are refused where they are read
    with pytest.raises(ValueError, match=re.escape(f"exponent {exponent} is not 2 nonnegative")):
        Polynomial.from_json(2, {key: "1"})
    data = {"dim": 2, "terms": [{"sign": 1, "base": [0, 0], "factors": [[1, 0], [0, 1]]}],
            "poly": {"0,0": "2", key: "1"}}
    with pytest.raises(ValueError, match="nonnegative integers"):
        conespline.spline_from_json(data)
    for bad in ((1.0, 0), (True, 0), "10", 1):
        with pytest.raises(ValueError, match="nonnegative integers"):
            Polynomial.from_dict(2, {bad: 1})
    assert Polynomial.from_dict(2, {(1, 0): 1, (0, 0): 0}) == Polynomial(2, (((1, 0), ONE),))


def test_written_files_get_the_mode_open_would_give(tmp_path):
    # mkstemp creates its file 0o600, which the rename used to keep
    old = os.umask(0o022)
    try:
        write_density_csv(tmp_path / "a.csv", [(1.0,)], [(0.5, 0.0)])
        os.umask(0o077)
        atomic_write_text(tmp_path / "b.json", "{}\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "a.csv").st_mode) == 0o644
    assert stat.S_IMODE(os.stat(tmp_path / "b.json").st_mode) == 0o600


def test_write_density_csv_format(tmp_path):
    path = tmp_path / "density.csv"
    write_density_csv(path, [(1.0,), (-0.0,)], [(-0.0, 1e-12)])
    lines = path.read_text().splitlines()
    assert lines[0] == "mu_1,mu_2,density,error_bound"
    assert lines[1] == "1.0,0.0,0.0,1e-12"
    # no stray temp files
    assert os.listdir(tmp_path) == ["density.csv"]


def test_term_validation():
    with pytest.raises(NonProperConeError):
        spline_term(1, (0, 0), [(1, 0), (-1, 0)])
    with pytest.raises(ValueError):
        spline_term(2, (0,), [(1,)])
    with pytest.raises(ValueError):
        spline(1, [spline_term(1, (0,), [(1,)]), spline_term(1, (0,), [])])


translation = st.tuples(
    st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)
)


@given(translation)
def test_density_translation_equivariance(shift):
    factors = [(1, 0), (0, 1), (1, 2)]
    S0 = spline(2, [spline_term(1, (0, 0), factors)])
    S1 = spline(2, [spline_term(1, shift, factors)])
    probe = (rat(7, 3), rat(5, 2))
    shifted = (probe[0] + shift[0], probe[1] + shift[1])
    assert spline_density(S1, shifted).value == pytest.approx(
        spline_density(S0, probe).value
    )


@given(st.integers(min_value=1, max_value=6))
def test_laplace_scaling_in_one_dim(k):
    # k-fold convolution of the step has transform (i/zeta)^k
    S = spline(1, [spline_term(1, (0,), [(1,)] * k)])
    z = 0.3 + 0.9j
    assert spline_laplace(S, (z,)) == pytest.approx((1j / z) ** k)


def test_heaviside_rank_deficient_direction():
    # factors that do not span have no density function, on or off their span
    with pytest.raises(ValueError):
        heaviside_density([(1, 0)], (0, 1))
    with pytest.raises(ValueError):
        heaviside_density([(1, 0), (2, 0)], (3, 0))


def test_density_error_bound_is_reported():
    S = spline(1, [spline_term(1, (0,), [(1,)])])
    dv = spline_density(S, (1,))
    assert dv.abs_error_bound == 0
    factors = [(3,), (2,)]
    S = spline(1, [spline_term(1, (0,), factors), spline_term(-1, (1,), factors)])
    dv = spline_density(S, (Fraction(7, 2),))
    assert dv.value == Fraction(1, 6)
    assert dv.abs_error_bound == 0


def test_integer_kernel_equals_fraction_recursion():
    rng = np.random.default_rng(17)
    factor_sets = []
    for _ in range(60):
        d = int(rng.integers(1, 4))
        n = d + int(rng.integers(0, 4))
        ints, _ = verify.random_proper_factors(rng, d, n)
        # positive rescaling keeps the cone: rational, non-integer factors
        factors = [
            tuple(Fraction(int(a), q) for a in f) for f in ints for q in (int(rng.integers(1, 5)),)
        ]
        factor_sets.append(factors)
        points = [
            tuple(Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 8))) for _ in range(d)),
            tuple(float(x) for x in rng.uniform(-4, 4, d)),  # binary denominators
            tuple(int(x) for x in rng.integers(-4, 5, d)),
        ]
        # wall points: non-negative combinations of at most d - 1 factors
        for k in range(d):
            picks = rng.choice(n, size=k, replace=False)
            coeffs = [Fraction(int(rng.integers(0, 6)), int(rng.integers(1, 4))) for _ in picks]
            points.append(tuple(
                sum((c * factors[i][j] for c, i in zip(coeffs, picks)), Fraction(0))
                for j in range(d)
            ))
        for mu in points:
            got = heaviside_density(factors, mu)
            want = fraction_density([vec(f) for f in factors], vec(mu))
            assert got == want and type(got) is type(want)
    for _name, M, chambers in verify.model_library():
        factor_sets += [t.factors for xi in chambers for t in localize.dh_measure(M, xi).terms]
    for family, params, lam in (
        ("AIII", (2, 1), (3, 1, -4)), ("CI", (3,), (5, 3, 1)), ("AIII", (3, 2), (5, 3, 1, -1, -4))
    ):
        O = hermitian.orbit_spec(hermitian.build_pair(family, params), lam)
        for S in (hermitian.t_type_measure(O), hermitian.k_type_measure(O)):
            factor_sets += [t.factors for t in S.terms]
    for factors in {tuple(vec(f) for f in fs) for fs in factor_sets}:
        nodes, den, _program = conespline._kernel(factors)
        assert (nodes, den) == lcm_kernel(fraction_plan(tuple(sorted(factors))))


def test_synthesized_terms_are_proven_proper_without_lp(monkeypatch):
    calls = []
    real = polycone.strict_positive_functional
    monkeypatch.setattr(
        polycone, "strict_positive_functional", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    monkeypatch.setattr(conespline, "_proven", {})
    conespline._kernel.cache_clear()
    splines = [localize.dh_measure(verify.projective_plane_model(2), (1, 2))]
    for family, params, lam in (("AIII", (2, 1), (3, 1, -4)), ("CI", (2,), (5, 3))):
        O = hermitian.orbit_spec(hermitian.build_pair(family, params), lam)
        splines += [hermitian.t_type_measure(O), hermitian.k_type_measure(O)]
    for S in splines:
        for t in S.terms:
            spline_density(S, tuple(b + 1 for b in t.base))
    assert calls == []


def test_non_certifying_certificate_leaves_improper_terms_rejected():
    factors = vec((1, 0)), vec((-1, 0)), vec((0, 1))
    with pytest.raises(NonProperConeError):
        ConeSplineTerm(1, vec((0, 0)), factors, vec((0, 1)))
    with pytest.raises(NonProperConeError):
        spline_term(1, (0, 0), factors)
    with pytest.raises(NonProperConeError):
        heaviside_density(factors, (0, 1))


def test_failing_certificate_on_a_proper_cone_falls_back_to_the_lp(monkeypatch):
    calls = []
    real = polycone.strict_positive_functional
    monkeypatch.setattr(
        polycone, "strict_positive_functional", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    monkeypatch.setattr(conespline, "_proven", {})
    factors = vec((1, 0)), vec((1, 1))
    # (0, 1) pairs to 0 with (1, 0): no proof, so the LP decides and accepts
    term = ConeSplineTerm(1, vec((0, 0)), factors, vec((0, 1)))
    assert len(calls) == 1 and factors in conespline._proven
    # the proof is cached, and the certificate is no field of the term
    assert term == spline_term(1, (0, 0), factors) and len(calls) == 1
    assert [f.name for f in dataclasses.fields(term)] == ["sign", "base", "factors"]


def _wall_points(rng, S):
    """Seeded wall points: each of a few bases, and such a base plus a
    non-negative combination of d - 1 of its term's factors."""
    d = S.dim
    points = []
    for t in S.terms[:4]:
        picks = rng.choice(len(t.factors), size=d - 1, replace=False)
        coeffs = [Fraction(int(rng.integers(0, 6)), int(rng.integers(1, 4))) for _ in picks]
        points.append(t.base)
        points.append(tuple(
            t.base[j] + sum(c * t.factors[i][j] for c, i in zip(coeffs, picks)) for j in range(d)
        ))
    return points


def _probe_points(rng, S, count):
    """Seeded rational and float points around the spline's bases, then
    _wall_points."""
    d = S.dim
    points = []
    for _ in range(count):
        base = S.terms[int(rng.integers(len(S.terms)))].base
        points.append(tuple(
            b + Fraction(int(rng.integers(-12, 37)), int(rng.integers(1, 7))) for b in base
        ))
    points += [tuple(float(x) for x in rng.uniform(-2, 8, d)) for _ in range(3)]
    return points + _wall_points(rng, S)


def _batch_splines():
    rng = np.random.default_rng(23)
    for _ in range(8):  # rational factors: leaves of weight other than 1
        d = int(rng.integers(1, 4))
        ints, _ = verify.random_proper_factors(rng, d, d + int(rng.integers(0, 3)))
        factors = [[Fraction(int(a), q) for a in f] for f in ints for q in (int(rng.integers(1, 5)),)]
        bases = [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(d)]
                 for _ in range(2)]
        yield spline(d, [spline_term(1, bases[0], factors), spline_term(-1, bases[1], factors)],
                     poly=Polynomial.linear(bases[0]) if any(bases[0]) else None)
    for _name, M, chambers in verify.model_library():
        for xi in chambers:
            yield localize.dh_measure(M, xi)
    for family, params, lam in (
        ("AIII", (2, 1), (3, 1, -4)), ("CI", (3,), (5, 3, 1)),
        ("AIII", (3, 2), (5, 3, 1, -1, -4)), ("AIII", (2, 2), (5, 2, -1, -4)),
    ):
        O = hermitian.orbit_spec(hermitian.build_pair(family, params), lam)
        yield hermitian.t_type_measure(O)
        yield hermitian.k_type_measure(O)


def test_point_and_batch_equal_the_fraction_recursion():
    rng = np.random.default_rng(11)
    for S in _batch_splines():
        points = [vec(mu) for mu in _probe_points(rng, S, 12)]
        terms = []
        for t in S.terms:
            shifted = [vsub(mu, t.base) for mu in points]
            want = [fraction_density(t.factors, x) for x in shifted]
            one_by_one = [heaviside_density(t.factors, x) for x in shifted]
            assert _on_lattice(heaviside_density, t.factors, shifted) == want == one_by_one
            assert {type(v) for v in one_by_one} == {type(rat(0))}
            terms.append([t.sign * v for v in want])
        want = [
            sum(column, rat(0)) * (S.poly.eval_exact(mu) if S.poly is not None else 1)
            for mu, column in zip(points, zip(*terms))
        ]
        got = [spline_density(S, mu) for mu in points]
        assert [dv.value for dv in got] == want
        assert _on_lattice(spline_density, S, points) == want
        assert {dv.abs_error_bound for dv in got} == {0}


def test_zero_spline_density_is_an_exact_zero():
    for S in (spline(2, []), spline(2, [], poly=Polynomial.linear((1, 3)))):
        point = spline_density(S, (rat(7, 3), 1))
        assert point.value == 0 and type(point.value) is type(rat(0))
        nums, den = spline_density(S, _lattice_of([(rat(7, 3), 1), (0.5, -2), (4, 4)]))
        assert [(n, type(n)) for n in nums.tolist()] == [(0, int)] * 3 and den > 0
        assert spline_density(S, _EMPTY_LATTICE)[0].tolist() == []


def test_batch_edge_cases():
    factors = [(1, 0), (0, 1), (1, 2)]
    S = spline(
        2,
        [spline_term(1, (0, 0), factors), spline_term(-1, (rat(1, 2), 1), factors)],
        poly=Polynomial.linear((1, 3)),
    )
    mu = (rat(7, 3), rat(5, 2))
    assert _on_lattice(heaviside_density, factors, [mu]) == [heaviside_density(factors, mu)]
    assert _on_lattice(spline_density, S, [mu]) == [spline_density(S, mu).value]
    assert heaviside_density(factors, _EMPTY_LATTICE)[0].tolist() == []
    assert spline_density(S, _EMPTY_LATTICE)[0].tolist() == []
    # a leaf root (n = d) of rational factors: its mask times 1/|det C| = 6
    leaf = [(rat(1, 2), 0), (0, rat(1, 3))]
    points = [(1, 1), (-1, 1), (rat(1, 2), 0)]
    assert [heaviside_density(leaf, x) for x in points] == [6, 0, 6]
    assert _on_lattice(heaviside_density, leaf, points) == [6, 0, 6]


def test_several_points_are_refused_unless_a_lattice():
    factors = [(1, 0), (0, 1), (1, 2)]
    S = spline(2, [spline_term(1, (0, 0), factors)], poly=Polynomial.linear((1, 3)))
    mu = (rat(7, 3), rat(5, 2))
    for many in ([mu, (1, 1)], [(1, 2), (1, 2, 3)], np.array([mu, (1, 1)], dtype=object),
                 np.zeros((3, 3)), np.empty((0, 2))):
        with pytest.raises(ValueError, match="Lattice"):
            heaviside_density(factors, many)
        with pytest.raises(ValueError, match="Lattice"):
            spline_density(S, many)
    with pytest.raises(ValueError, match="dimension mismatch"):
        heaviside_density(factors, (1, 2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        spline_density(S, (1, 2, 3))


def test_a_grid_makes_one_kernel_lookup_per_cone(monkeypatch):
    O = hermitian.orbit_spec(hermitian.build_pair("CI", (3,)), (5, 3, 1))
    S = hermitian.t_type_measure(O)
    # the six terms of the orbit measure share one cone up to order
    assert len(S.terms) == 6 and len(S.cones) == 1
    lookups = []
    real = conespline._kernel
    monkeypatch.setattr(conespline, "_kernel", lambda factors: lookups.append(factors) or real(factors))
    grid = list(itertools.product([rat(3 * k, 2) for k in range(5)], repeat=3))
    assert len(spline_density(S, _lattice_of(grid))[0]) == 125
    assert lookups == [S.terms[0].factors]
    spline_density(S, grid[7])
    assert len(lookups) == 2


def _cone_splines():
    """Every model-library chamber, the t- and k-measures of four orbits
    (each one cone up to order), and a spline whose terms lie on two cones,
    one of them given in two orders."""
    for _name, M, chambers in verify.model_library():
        for xi in chambers:
            yield localize.dh_measure(M, xi)
    for family, params, lam in (
        ("AIII", (2, 1), (3, 1, -4)), ("CI", (2,), (5, 2)),
        ("AIII", (2, 2), (5, 2, -1, -4)), ("CI", (3,), (5, 3, 1)),
    ):
        O = hermitian.orbit_spec(hermitian.build_pair(family, params), lam)
        for S in (hermitian.t_type_measure(O), hermitian.k_type_measure(O)):
            assert len(S.cones) == 1
            yield S
    S = spline(2, [
        spline_term(1, (0, 0), [(1, 0), (1, 2), (1, 0)]),
        spline_term(-1, (rat(1, 2), 1), [(0, 1), (1, 1), (1, 1)]),
        spline_term(1, (2, rat(-1, 3)), [(1, 0), (1, 0), (1, 2)]),
    ], poly=Polynomial.linear((1, -2)))
    assert [members for _, members in S.cones] == [(0, 2), (1,)]
    yield S


def test_grouped_density_is_the_sum_of_its_terms(monkeypatch):
    rng = np.random.default_rng(35)
    calls = []
    real = conespline.heaviside_density
    monkeypatch.setattr(conespline, "heaviside_density",
                        lambda factors, mu: calls.append((factors, type(mu))) or real(factors, mu))
    for S in _cone_splines():
        points = [vec(mu) for mu in _probe_points(rng, S, 12)]
        want = [
            sum((t.sign * heaviside_density(t.factors, vsub(mu, t.base)) for t in S.terms), rat(0))
            * (S.poly.eval_exact(mu) if S.poly is not None else 1)
            for mu in points
        ]
        calls.clear()
        assert _on_lattice(spline_density, S, points) == want
        # one call per cone, with the factors of its first term as given, on
        # the integer lattice of its shifted points
        assert calls == [(factors, conespline.Lattice) for factors, _ in S.cones]
        assert [spline_density(S, mu).value for mu in points] == want


def _lattice_of(points, scale=1):
    """The points as a Lattice over scale times the lcm of their
    denominators, so a scale above 1 gives a denominator that is not
    minimal."""
    d = len(points[0])
    ints, D = integer_vector([rat(x) for p in points for x in p])
    columns = [np.array([a * scale for a in ints[j::d]], dtype=object) for j in range(d)]
    return conespline.Lattice(tuple(columns), D * scale)


_EMPTY_LATTICE = conespline.Lattice((np.array([], dtype=object),) * 2, 1)


def _on_lattice(density, first, points):
    """density(first, Lattice of the points) as one exact value per point."""
    nums, den = density(first, _lattice_of(points))
    return [rat(n, den) for n in nums.tolist()]


def test_lattice_densities_equal_the_fraction_batch():
    rng = np.random.default_rng(38)
    for S in _cone_splines():
        points = [vec(mu) for mu in _probe_points(rng, S, 12)]  # wall points included
        want = [spline_density(S, mu).value for mu in points]
        for scale in (1, 6):
            lattice = _lattice_of(points, scale)
            got = spline_density(S, lattice)
            assert type(got) is tuple and isinstance(got[0], np.ndarray)
            nums, den = got
            assert {type(n) for n in nums.tolist()} == {int} and type(den) is int and den > 0
            assert [rat(n, den) for n in nums.tolist()] == want
            for factors, members in S.cones:
                shifted = [vsub(mu, S.terms[members[-1]].base) for mu in points]
                batch = [heaviside_density(factors, x) for x in shifted]
                nums, den = heaviside_density(factors, _lattice_of(shifted, scale))
                assert [rat(n, den) for n in nums.tolist()] == batch
                # one point as a lattice of Python ints
                point = _lattice_of(shifted[-1:], scale)
                num, den = heaviside_density(factors, conespline.Lattice(
                    tuple(int(c[0]) for c in point.columns), point.denominator))
                assert type(num) is int and rat(num, den) == batch[-1]


def _fraction_rows(S, axes):
    """The grid's rows by the Fraction route: exact axis values, their
    product as Fraction points, their densities as Fractions, and each one
    rounded from its lowest terms."""
    values = [[lo + k * (hi - lo) / (count - 1) for k in range(count)] if count > 1 else [lo]
              for lo, hi, count in axes]
    dens = [spline_density(S, mu).value for mu in itertools.product(*values)]
    rows = [cli._rounded(int(v.numerator), int(v.denominator)) for v in dens]
    return [[float(x) for x in axis] for axis in values], rows, values


def test_lattice_rows_equal_the_fraction_route():
    for S in _cone_splines():
        base = S.terms[0].base
        # fractional ends, with the first term's base (a wall point) on the grid
        step = rat(5, 6)
        grids = [tuple((b - 2 * step, b + 3 * step, 6) for b in base)]
        # one axis of one point
        grids.append(((base[0], base[0] + 1, 1),) + grids[0][1:])
        for axes in grids:
            coords, rows, values = _fraction_rows(S, axes)
            lattice, got_coords = cli._lattice(axes)
            points = [tuple(rat(x, lattice.denominator) for x in p) for p in zip(*lattice.columns)]
            assert points == list(itertools.product(*values))
            assert tuple(base) in points
            assert cli._density_rows(S, (lattice, got_coords)) == (coords, rows)
            if axes is grids[0]:  # the full grid meets the support
                assert any(value for value, _bound in rows)


def test_default_grid_ends_are_exact_and_the_lattice_is_the_fraction_grid():
    # an axis whose images span less than 1 takes the span 1, exactly: its
    # ends are rationals (a float compares == to its rational) a quarter
    # below and three quarters above
    axes = cli.default_grid([(0, 0), (2, 0)], 2)
    assert axes == ((rat(-1, 2), rat(7, 2), 25), (rat(-1, 4), rat(3, 4), 25))
    assert all(type(x) is type(ZERO) for lo, hi, _ in axes for x in (lo, hi))
    planar = [S for S in _cone_splines() if S.dim == 2]
    assert len(planar) > 3
    for S in planar:
        base = S.terms[0].base
        # one image (both axes span 0), then two whose second axis spans 0
        for images in ([base], [base, (base[0] + 2, base[1])]):
            axes = cli.default_grid(images, 2)
            assert all(type(x) is type(ZERO) for lo, hi, _ in axes for x in (lo, hi))
            coords, rows, values = _fraction_rows(S, axes)
            lattice, got_coords = cli._lattice(axes)
            points = [tuple(rat(x, lattice.denominator) for x in p) for p in zip(*lattice.columns)]
            assert points == list(itertools.product(*values))
            assert tuple(base) in points
            assert got_coords == coords
            assert cli._density_rows(S, (lattice, got_coords)) == (coords, rows)
            assert any(value for value, _bound in rows)
