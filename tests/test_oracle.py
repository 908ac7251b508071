import ast
import json
import logging
import math
import os
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from dhmeasure import conespline, lp, oracle, verify
from dhmeasure.conespline import spline, spline_term
from dhmeasure.oracle import (
    MonteCarloConfig,
    QuadratureConfig,
    lattice_count,
    montecarlo_pushforward,
    numeric_laplace_spline,
    quadrature_convolution,
    truncated_circle_check,
)
from dhmeasure.rational import rat, vdot, vec


def test_oracle_imports_no_engine_module():
    # engine and oracles stay independent code paths: oracle.py imports
    # none of the engine's modules, at module level or inside a function
    engine = {"conespline", "localize", "hermitian"}
    path = os.path.join(os.path.dirname(oracle.__file__), "oracle.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert "polycone" in imported  # the walk sees the relative imports
    assert not imported & engine


def test_quadrature_single_weight():
    val, err = quadrature_convolution([(1,)], (7,))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_quadrature_ramp():
    val, err = quadrature_convolution([(1,), (1,)], (3,))
    assert val == pytest.approx(3.0, abs=max(err, 1e-8))


def test_quadrature_triangle():
    val, err = quadrature_convolution([(1, 0), (0, 1), (1, 1)], (2, 5))
    assert val == pytest.approx(2.0, abs=max(err, 1e-7))


def test_quadrature_agrees_with_engine_density():
    rng = np.random.default_rng(4)
    factors = [(1, 0), (0, 1), (1, 1), (1, 2)]
    for _ in range(6):
        mu = tuple(rng.uniform(0.5, 4.0, 2))
        want = conespline.heaviside_density(factors, mu)
        got, err = quadrature_convolution(factors, mu)
        assert got == pytest.approx(want, abs=1e-6 * (1 + want) + err)


def test_quadrature_needs_spanning_factors():
    with pytest.raises(ValueError):
        quadrature_convolution([(1, 0)], (1, 0))


def _fiber_points(rng, factors):
    """A generic rational, a float-derived, a lattice and a wall point."""
    d, n = len(factors[0]), len(factors)

    def combination(cs, idx):
        return tuple(sum((c * factors[i][r] for c, i in zip(cs, idx)), Fraction(0))
                     for r in range(d))

    ratios = [Fraction(int(a), int(b)) for a, b in
              zip(rng.integers(0, 7, size=n), rng.integers(1, 5, size=n))]
    wall = rng.choice(n, size=d - 1, replace=False)
    return [
        combination(ratios, range(n)),
        verify.random_interior_mu(rng, factors),
        tuple(int(v) for v in rng.integers(-1, 5, size=d)),
        combination([Fraction(int(a), int(b)) for a, b in
                     zip(rng.integers(0, 6, size=d - 1), rng.integers(1, 4, size=d - 1))],
                    wall),
    ]


def test_fiber_volume_equals_engine_density():
    rng = np.random.default_rng(30)
    checked = 0
    for _ in range(260):
        d = int(rng.integers(1, 4))
        factors, _ = verify.random_proper_factors(rng, d, int(rng.integers(d, d + 4)))
        for mu in _fiber_points(rng, factors):
            assert oracle.fiber_volume(factors, mu) == conespline.heaviside_density(factors, mu)
            checked += 1
    assert checked >= 1000


def test_fiber_volume_exact_rational_value():
    factors = [(0, 1, 1), (3, -2, 2), (-1, 2, -1), (2, 0, 1), (1, 1, -1), (0, 0, 1)]
    mu = (Fraction(13, 2), Fraction(19, 3), Fraction(23, 6))
    assert oracle.fiber_volume(factors, mu) == Fraction(819923, 81000)


def test_quadrature_entry_point_finds_a_narrow_fiber():
    # nested quadrature returned (0.0, 0.0) here: its outer integrand has
    # narrow support, and every sample missed it
    factors = [(-1, 1, 0), (0, -1, 2), (1, -3, 3), (-2, 0, 3), (-1, 2, 2), (3, -2, 3)]
    mu = verify.random_interior_mu(np.random.default_rng(0), factors)
    exact = oracle.fiber_volume(factors, mu)
    assert exact == conespline.heaviside_density(factors, mu)
    val, bound = quadrature_convolution(factors, mu)
    assert val == pytest.approx(0.1365755492547, rel=1e-12)
    assert abs(rat(val) - exact) <= rat(bound)


def test_quadrature_entry_point_bound_is_the_float_rounding():
    # 3 and 1/8 are doubles, 1/3 is not; the factors and point may be
    # spline-JSON strings
    assert quadrature_convolution([(1,), (1,)], (3,)) == (3.0, 0.0)
    assert quadrature_convolution([["1/2"], ["1/2"]], ["1/4"]) == (1.0, 0.0)
    val, bound = quadrature_convolution([(3,)], ["5"])
    assert (val, bound) == (1 / 3, math.ulp(1 / 3))
    assert 0 < abs(rat(val) - Fraction(1, 3)) <= rat(bound)


def test_fiber_volume_rejects_what_has_no_density():
    with pytest.raises(ValueError, match="no factors"):
        oracle.fiber_volume([], ())
    with pytest.raises(oracle.ImproperConeError):
        oracle.fiber_volume([(1,), (-1,)], (0,))
    with pytest.raises(ValueError, match="do not span"):
        oracle.fiber_volume([(1, 0), (2, 0)], (1, 0))
    with pytest.raises(ValueError, match="limit"):
        oracle.fiber_volume([(1,)] * 10, (1,))
    assert oracle.fiber_volume([(1,)] * 3, (2,)) == 2


def _refuse_lp(monkeypatch):
    # building a spline checks each term's cone by LP; the box route itself
    # must solve none
    def refuse(*a, **k):
        raise AssertionError("the box route solved an LP")

    monkeypatch.setattr(lp, "solve_lp", refuse)


def test_numeric_laplace_spline_box_route_one_dim(monkeypatch):
    S = spline(1, [spline_term(1, (2,), [(1,)])])
    _refuse_lp(monkeypatch)
    # the box route integrates its own line density, not the engine's
    monkeypatch.setattr(conespline, "_kernel", None)
    z = 0.6 + 1.2j
    closed = conespline.spline_laplace(S, (z,))
    val, tail = numeric_laplace_spline(
        S, (z,), QuadratureConfig(1e-9, 1e-9), decay_log=26.0, method="box"
    )
    assert abs(val - closed) <= 1e-6 * abs(closed) + tail


def test_numeric_laplace_cone_quadrant():
    # one quadrant on the mapped route, against its transform written out by hand
    zeta = (0.5 + 1.0j, -0.7 + 1.4j)
    quadrant = spline(2, [spline_term(1, (0, 0), [(1, 0), (0, 1)])])
    val, _tail = numeric_laplace_spline(quadrant, zeta, method="mapped")
    want = (1j / zeta[0]) * (1j / zeta[1])
    assert val == pytest.approx(want, abs=1e-8)


def test_numeric_laplace_spline_mapped_matches_closed_form():
    zeta = (0.5 + 1.0j, -0.7 + 1.4j)
    S = spline(
        2,
        [
            spline_term(1, (0, 0), [(1, 0), (0, 1)]),
            spline_term(-1, (1, 1), [(1, 0), (0, 1)]),
        ],
    )
    closed = conespline.spline_laplace(S, zeta)
    val, tail = numeric_laplace_spline(S, zeta, method="mapped")
    assert abs(val - closed) <= 1e-9 * abs(closed) + tail


def test_mapped_route_requires_damping():
    S = spline(2, [spline_term(1, (0, 0), [(1, 0), (0, -1)])])
    with pytest.raises(ValueError, match="damp"):
        numeric_laplace_spline(S, (1j, 1j), method="mapped")
    # with a multiplier, a zeta that damps one factor and not the other
    P = conespline.Polynomial.from_dict(2, {(3, 0): 1, (1, 1): -2})
    S = spline(2, [spline_term(1, (0, 0), [(1, 0), (0, 1)]),
                   spline_term(-1, (1, 1), [(1, 0), (0, 1)])], poly=P)
    with pytest.raises(ValueError, match="damp"):
        numeric_laplace_spline(S, (0.3 + 1.0j, 0.5 - 0.2j), method="mapped")


def test_mapped_route_handles_polynomial_multiplier():
    P = conespline.Polynomial.linear((1, 1))
    S = spline(2, [spline_term(1, (0, 0), [(1, 0), (0, 1)])], poly=P)
    zeta = (0.3 + 1.1j, 0.2 + 0.9j)
    # transform of (x+y) on the quadrant: sum of coordinate moments
    z1, z2 = zeta
    want = (1j / z1) ** 2 * (1j / z2) + (1j / z1) * (1j / z2) ** 2
    val, tail = numeric_laplace_spline(S, zeta, method="mapped")
    assert abs(val - want) <= 1e-9 * abs(want) + tail


def test_mapped_and_box_routes_agree(monkeypatch):
    S = spline(
        1,
        [
            spline_term(1, (0,), [(1,), (2,), (1,)]),
            spline_term(-1, (rat(3, 2),), [(1,), (2,), (1,)]),
        ],
    )
    _refuse_lp(monkeypatch)
    zeta = (0.4 + 1.3j,)
    mapped, mtail = numeric_laplace_spline(S, zeta, method="mapped")
    box, btail = numeric_laplace_spline(
        S, zeta, QuadratureConfig(1e-7, 1e-7), decay_log=14.0, method="box"
    )
    assert abs(mapped - box) <= 2e-3 * abs(mapped) + mtail + btail


def test_lattice_count_examples():
    assert lattice_count([(1,), (1,)], (5,)) == 6
    assert lattice_count([(1, 0), (0, 1), (1, 1)], (7, 7)) == 8
    assert lattice_count([(1,)], (5,)) == 1
    assert lattice_count([(1,), (1,)], (-1,)) == 0


def test_lattice_count_scaling():
    base = lattice_count([(1,), (1,)], (4,), t=1)
    scaled = lattice_count([(1,), (1,)], (4,), t=3)
    assert base == 5
    assert scaled == 13


def test_lattice_count_rejects_non_integer():
    with pytest.raises(ValueError):
        lattice_count([(1.5,)], (3,))


def _reference_lattice_count(weights, mu, t=1):
    """Recursion over the first n - 1 orthant coordinates, the last one solved.

    The counter lattice_count used before it enumerated only the fiber; kept
    as the reference its counts must equal.
    """
    weights = [vec(w) for w in weights]
    target = tuple(x * t for x in vec(mu))
    eta = oracle._positive_functional(weights)
    pair = [vdot(w, eta) for w in weights]

    def rec(idx, residual):
        if idx == len(weights) - 1:
            b = weights[idx]
            s = None
            for rcomp, bcomp in zip(residual, b):
                if bcomp != 0:
                    s = rcomp / bcomp
                    break
            if s is None or s.denominator != 1 or s < 0:
                return 0
            return 1 if all(rc == s * bc for rc, bc in zip(residual, b)) else 0
        level = vdot(residual, eta)
        if level < 0:
            return 0
        top = int(level / pair[idx])
        b = weights[idx]
        return sum(
            rec(idx + 1, tuple(rc - s * bc for rc, bc in zip(residual, b)))
            for s in range(top + 1)
        )

    return rec(0, target)


# non-unimodular, index 2, rank-deficient, repeated weights, three dimensions
_NAMED_LATTICE_SYSTEMS = (
    ((2, 1), (1, 3), (1, 1)),
    ((2, 0), (0, 2), (1, 1)),
    ((1, 1), (2, 2), (3, 3)),
    ((1, 0), (1, 0), (0, 1), (1, 1)),
    ((1,), (1,), (2,)),
    ((2,), (3,)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 2, 0)),
)


def _lattice_systems():
    """Named and seeded weight systems, each with targets on the lattice,
    off it, outside the cone and at 0."""
    rng = np.random.default_rng(18)
    systems = list(_NAMED_LATTICE_SYSTEMS)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(dim, min(dim + 2, 4) + 1))
        factors, _ = verify.random_proper_factors(rng, dim, n, spanning=False)
        systems.append(tuple(factors))
    for weights in systems:
        dim = len(weights[0])
        inside = [sum(int(c) * w[j] for c, w in zip(rng.integers(0, 3, size=len(weights)),
                                                      weights)) for j in range(dim)]
        anywhere = [int(x) for x in rng.integers(-2, 5, size=dim)]
        outside = [-x for x in weights[0]]
        yield weights, [inside, anywhere, outside, [0] * dim]


def test_lattice_count_equals_reference_recursion():
    checked = 0
    for weights, targets in _lattice_systems():
        for mu in targets:
            for t in (0, 1, 2, 3):
                assert lattice_count(weights, mu, t=t) == _reference_lattice_count(
                    weights, mu, t), (weights, mu, t)
                checked += 1
    assert checked == 4 * 4 * (len(_NAMED_LATTICE_SYSTEMS) + 30)
    # a rational target that the scale makes integral, and one it does not
    assert lattice_count([(1,), (2,)], (Fraction(5, 2),), t=2) == 3
    with pytest.raises(ValueError, match="integer target"):
        lattice_count([(1,), (2,)], (Fraction(5, 2),), t=3)


def test_lattice_count_enumeration_bound(monkeypatch):
    assert lattice_count([(1, 0), (0, 1), (1, 1)], (40, 40)) == 41
    monkeypatch.setattr(oracle, "LATTICE_MAX_NODES", 30)
    with pytest.raises(ValueError, match="enumeration bound"):
        lattice_count([(1, 0), (0, 1), (1, 1)], (40, 40))


@pytest.mark.parametrize("t", [0.5, 2.0, True, "2"])
def test_lattice_count_rejects_a_non_integer_scale(t):
    with pytest.raises(ValueError, match="integer scale"):
        lattice_count([(1,), (1,)], (4,), t=t)


def test_lattice_count_dimension_mismatch_names_both_lengths():
    with pytest.raises(ValueError, match="length 3 but a weight has length 2"):
        lattice_count([(1, 0), (0, 1)], (1, 2, 3))
    with pytest.raises(ValueError, match="length 1 but a weight has length 2"):
        lattice_count([(1, 0), (0, 1)], (1,))


def test_lattice_count_negative_scale_and_improper_cone():
    assert lattice_count([(1, 0), (0, 1), (1, 1)], (2, 3), t=-1) == 0
    assert lattice_count([(1,), (2,)], (0,), t=-2) == 1
    with pytest.raises(oracle.ImproperConeError):
        lattice_count([(1,), (-1,)], (2,))


def test_montecarlo_deterministic():
    cfg = MonteCarloConfig(seed=11, samples=20_000, bins=8)
    a = montecarlo_pushforward([(1,)], (0,), cfg)
    b = montecarlo_pushforward([(1,)], (0,), cfg)
    assert a.counts == b.counts
    assert a.density == b.density


def test_montecarlo_seed_keys_a_64_bit_stream():
    for bad in (-1, 2**64, 1.5):
        with pytest.raises(ValueError, match="seed"):
            MonteCarloConfig(seed=bad)

    def counts(seed):
        cfg = MonteCarloConfig(seed=seed, samples=10_000, bins=4)
        return montecarlo_pushforward([(1,)], (0,), cfg).counts

    # below 2^63 the streams are those of the earlier list key
    assert counts(0) == (2547, 2499, 2479, 2475)
    assert counts(5) == (2472, 2523, 2489, 2516)
    assert counts(2**63 - 1) == (2461, 2442, 2547, 2550)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        high = [counts(s) for s in (2**63, 2**63 + 5, 2**64 - 1)]
    assert high[0] != high[1]


@pytest.mark.parametrize("field, value", [
    ("cutoff_radius", math.nan), ("cutoff_radius", math.inf), ("cutoff_radius", -math.inf),
    ("cutoff_radius", 0.0), ("cutoff_radius", "4"), ("bins", 2.5), ("bins", 8.0),
    ("bins", True), ("bins", 1), ("samples", 1e5), ("samples", True), ("samples", 9_999),
    ("seed", True), ("cutoff_radius", True),
])
def test_montecarlo_config_rejects_what_cannot_run(field, value):
    # nan and inf radii once ran to all-zero counts and nan densities, and
    # float bins and samples to a TypeError in the middle of the run; a
    # bool seed or radius once ran as 1
    with pytest.raises(ValueError, match=field[:3]):
        MonteCarloConfig(**{field: value})


def test_montecarlo_config_takes_numpy_integers_and_rational_radii():
    cfg = MonteCarloConfig(samples=np.int64(10_000), bins=np.int32(4),
                           cutoff_radius=Fraction(5, 2))
    table = montecarlo_pushforward([(1, 0), (1, 1)], (0, 0), cfg)
    # a rational radius runs as its float
    same = MonteCarloConfig(samples=10_000, bins=4, cutoff_radius=2.5)
    assert table == montecarlo_pushforward([(1, 0), (1, 1)], (0, 0), same)


# counts pinned from np.histogramdd binning: the stream (normals, then
# uniforms, per chunk) and every per-sample float operation must stay
@pytest.mark.parametrize("weights, phi0, radius, bins, seed, samples, counts", [
    # the two n = 2 systems of verify._MC_CASES, d = 1 and d = 2
    (((1,), (1,)), (0,), 2.6, 14, 0, 20_000,
     (99, 367, 498, 653, 928, 1149, 1265, 1548, 1677, 1968, 2135, 2401, 2542, 2770)),
    (((1, 0), (0, 1)), (0, 0), 2.6, 9, 3, 20_000,
     (498, 502, 505, 509, 513, 486, 470, 516, 250, 519, 491, 497, 461, 507, 472, 486,
      244, 0, 476, 503, 475, 479, 490, 505, 240, 0, 0, 505, 502, 494, 527, 516, 235,
      0, 0, 0, 482, 476, 490, 513, 265, 0, 0, 0, 0, 508, 449, 451, 253, 0, 0, 0, 0, 0,
      493, 484, 226, 0, 0, 0, 0, 0, 0, 534, 261, 0, 0, 0, 0, 0, 0, 0, 242, 0, 0, 0, 0,
      0, 0, 0, 0)),
    # a sample count that 8 chunks do not divide
    (((1,),), (0,), 3.0, 16, 5, 10_007,
     (634, 605, 617, 617, 539, 673, 642, 672, 589, 602, 655, 642, 614, 630, 668, 608)),
    # n = 4: 8 real coordinates, where the norm's sum is pairwise
    (((1, 0), (0, 1), (1, 1), (1, 2)), (1, -1), 2.0, 5, 2**63, 10_000,
     (77, 132, 54, 0, 0, 244, 829, 447, 4, 0, 258, 1410, 1132, 110, 0, 261, 1318, 1476,
      455, 10, 138, 487, 671, 429, 58)),
    # d = 2 with 3 samples over, all in the last chunk
    (((1, 0), (0, 1), (1, 1)), (0, 0), 2.2, 6, 7, 15_003,
     (137, 217, 190, 212, 230, 141, 193, 529, 606, 654, 565, 224, 216, 604, 974, 993,
      647, 207, 208, 636, 964, 939, 573, 211, 195, 551, 658, 637, 516, 207, 159, 205,
      215, 219, 222, 149)),
])
def test_montecarlo_counts_are_pinned(weights, phi0, radius, bins, seed, samples, counts,
                                      monkeypatch):
    cfg = MonteCarloConfig(seed=seed, samples=samples, cutoff_radius=radius, bins=bins)
    assert montecarlo_pushforward(weights, phi0, cfg).counts == counts
    # the same counts from one worker thread: the chunk sum is exact
    _one_core(monkeypatch)
    assert montecarlo_pushforward(weights, phi0, cfg).counts == counts


def _one_core(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def test_montecarlo_logs_its_workers_and_joins_them(monkeypatch, caplog):
    cfg = MonteCarloConfig(seed=1, samples=10_000, bins=4)
    workers = min(oracle.MONTECARLO_CHUNKS, oracle._usable_cores())
    before = set(threading.enumerate())
    with caplog.at_level(logging.DEBUG, logger="dhmeasure"):
        montecarlo_pushforward([(1,)], (0,), cfg)
        _one_core(monkeypatch)
        montecarlo_pushforward([(1,)], (0,), cfg)
    assert set(threading.enumerate()) == before
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("montecarlo")]
    assert [line.rsplit(", ", 1)[0] for line in lines] == [
        f"montecarlo: 10000 samples, 8 chunks, {workers} workers",
        "montecarlo: 10000 samples, 8 chunks, 1 workers",
    ]


@pytest.mark.parametrize("n, d", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (5, 3), (7, 1)])
def test_ball_image_is_bitwise_the_plain_formula(n, d):
    # n <= 3 takes the column sum of squares, n >= 4 the row-wise reduce;
    # either off np.linalg.norm's bits moves an image by about an ulp, too
    # little to move any pinned count, so only this test would see it
    A = np.random.default_rng(n * 10 + d).integers(-3, 4, size=(n, d)).astype(float)
    phi0 = np.arange(d) - 0.5
    key = np.array([2**64 - 1, 3], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    got = oracle._ball_image(rng, 1001, 2.6, phi0, A)
    rng = np.random.Generator(np.random.Philox(key=key))
    g = rng.standard_normal((1001, 2 * n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    pts = g * (2.6 * rng.random(1001) ** (1.0 / (2 * n)))[:, None]
    t = (pts[:, 0::2] ** 2 + pts[:, 1::2] ** 2) / 2.0
    assert got.tobytes() == (phi0[None, :] + t @ A).tobytes()


def _around(e, outside):
    """Each edge, the floats just below and above it, and values outside."""
    return np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), outside])


def test_bin_counts_equal_histogramdd_on_and_around_every_edge():
    # the first two as montecarlo_pushforward pads them; the third is so
    # narrow that the spacing guess lands on the wrong bin, the last has no
    # width at all
    e0 = np.linspace(-0.1 - 1e-9, 7.3 + 1e-9, 26)
    e1 = np.linspace(-3.7, 1e-9, 26)
    e2 = np.linspace(2.0, 2.0 + 1e-12, 26)
    for e in (e0, e1, e2, np.full(26, 2.0)):
        x = _around(e, [e[0] - 1.0, e[-1] + 1.0, -1e300, 1e300, (e[0] + e[-1]) / 2])
        ref = np.searchsorted(e, x, "right")
        ref[x == e[-1]] -= 1
        assert oracle._axis_bins(x, e).tolist() == ref.tolist()
    # every pairing of those values across two axes
    a, b = _around(e0, [-5.0, 9.0]), _around(e1, [-9.0, 5.0])
    mu = np.array([(u, v) for u in a for v in b])
    for pts, edges in ((mu, [e0, e1]), (mu[:, 1:], [e1])):
        h, _ = np.histogramdd(pts, bins=edges)
        got = oracle._bin_counts(pts, edges)
        assert got.dtype == np.int64
        assert got.tolist() == h.astype(np.int64).reshape(-1).tolist()


def test_montecarlo_flat_on_halfline():
    cfg = MonteCarloConfig(seed=3, samples=400_000, bins=10, cutoff_radius=3.0)
    table = montecarlo_pushforward([(1,)], (0,), cfg)
    dens = np.array(table.density)
    sig = np.array(table.sigma)
    centers = np.array([c[0] for c in table.centers()])
    inside = centers < 3.5
    level = dens[inside].mean()
    assert np.all(np.abs(dens[inside] - level) <= 4 * sig[inside])


def test_montecarlo_table_json():
    cfg = MonteCarloConfig(seed=1, samples=10_000, bins=4)
    table = montecarlo_pushforward([(1, 0), (0, 1)], (0, 0), cfg)
    data = json.loads(json.dumps(table.to_json()))
    assert data["dim"] == 2
    assert data["samples"] == 10_000


def test_circle_check_report():
    rep = truncated_circle_check(2, 0.4 + 1.0j, 9.0)
    assert rep["resolved_sign"] == 1
    assert rep["resolved_coeff"] == "1/alpha"
    assert rep["resolved_abs_diff"] <= 1e-8


def test_circle_check_boundary_decay():
    rep = truncated_circle_check(2, 0.5 + 0.6j, 45.0)
    fp = complex(*rep["fixed_point_term"])
    assert rep["boundary_magnitude"] / abs(fp) < 1e-6


def test_spline_tail_bound_shrinks():
    S = spline(1, [spline_term(1, (0,), [(1,)])])
    *_interval, loose = oracle._line_truncation(S, 1.0, 10.0)
    *_interval, tight = oracle._line_truncation(S, 1.0, 30.0)
    assert tight < loose


def _reference_truncation_box(S, im_zeta, decay_log):
    """The box by exact LPs: per coordinate, the least and greatest value
    over each term's cone cut by the damping slab <mu - base, Im zeta> <= L."""
    im = vec([rat(float(v)) for v in im_zeta])
    lo = [None] * S.dim
    hi = [None] * S.dim
    L = rat(float(decay_log))
    for t in S.terms:
        n = len(t.factors)
        pair_im = [vdot(f, im) for f in t.factors]
        if any(p <= 0 for p in pair_im):
            raise ValueError("Im(zeta) does not damp every factor direction")
        cons = [lp.constraint([rat(int(j == i)) for j in range(n)], lp.GE, 0)
                for i in range(n)]
        cons.append(lp.constraint(pair_im, lp.LE, L))
        for j in range(S.dim):
            obj = [f[j] for f in t.factors]
            for maximize in (False, True):
                res = lp.solve_lp(obj, cons, maximize=maximize)
                assert res.status == lp.OPTIMAL
                v = t.base[j] + res.objective
                if maximize:
                    hi[j] = v if hi[j] is None or v > hi[j] else hi[j]
                else:
                    lo[j] = v if lo[j] is None or v < lo[j] else lo[j]
    out = []
    for a, b in zip(lo, hi):
        fa, fb = float(a), float(b)
        pad = 1e-9 * (1.0 + abs(fa) + abs(fb))
        out.append((fa - pad, fb + pad))
    return out


def _reference_tail_bound(S, im_zeta, decay_log):
    """The Gamma(n) tail per term, summed in a separate float pass."""
    L = float(decay_log)
    total = 0.0
    for t in S.terms:
        n = len(t.factors)
        prod_c = 1.0
        for f in t.factors:
            c = sum(float(x) * v for x, v in zip(f, im_zeta))
            prod_c *= c
        gam = sum(L**k / math.factorial(k) for k in range(n))
        base_damp = math.exp(-sum(float(b) * v for b, v in zip(t.base, im_zeta)))
        total += base_damp * math.exp(-L) * gam / prod_c
    return total


def _damped_splines(count, seed=19):
    """Seeded one-dimensional splines with 1-3 terms, rational bases and
    1 to 4 factors per term (one count per spline), each factor damped by
    the drawn Im zeta, of either sign."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        im = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
        n = int(rng.integers(1, 5))
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            sign = 1 if im > 0 else -1
            factors = [(sign * Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3))),)
                       for _ in range(n)]
            base = (Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))),)
            terms.append(spline_term(int(rng.choice([-1, 1])), base, factors))
        yield spline(1, terms), (im,), float(rng.choice([0.0, 3.5, 14.0, 22.0, 30.0]))


def test_spline_truncation_equals_lp_box_and_float_tail():
    for S, im, decay_log in _damped_splines(210):
        lo, hi, tail = oracle._line_truncation(S, im[0], decay_log)
        assert [(lo, hi)] == _reference_truncation_box(S, im, decay_log)
        assert tail == _reference_tail_bound(S, im, decay_log)


def test_spline_truncation_requires_damping():
    S = spline(1, [spline_term(1, (0,), [(1,), (2,)]),
                   spline_term(1, (1,), [(-1,), (-3,)])])
    for call in (lambda: oracle._line_truncation(S, 1.0, 10.0),
                 lambda: numeric_laplace_spline(S, (0.5 + 1.0j,), method="box")):
        with pytest.raises(ValueError, match="Im\\(zeta\\) does not damp every factor direction"):
            call()


def test_numeric_laplace_spline_names_its_route():
    S = spline(1, [spline_term(1, (0,), [(1,)])])
    with pytest.raises(TypeError):
        numeric_laplace_spline(S, (1j,))
    with pytest.raises(ValueError, match="method"):
        numeric_laplace_spline(S, (1j,), method="auto")


def _orthant_expansion(poly, base, factors):
    """Expand poly(base + factors^T s) into orthant-coordinate monomials.

    Returns ((exponent tuple over s, float coefficient), ...). The identity
    holds for any factor count because the multiplier is constant on
    the fibers of the orthant map.
    """
    n = len(factors)
    one = {(0,) * n: 1.0}
    if poly is None:
        return tuple(one.items())

    def poly_mul(a, b):
        acc = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0.0) + ca * cb
        return acc

    # linear form for each volume coordinate: mu_i = base_i + sum_j F_ji s_j
    coords = []
    for i in range(len(base)):
        lin = {(0,) * n: float(base[i])}
        for j, f in enumerate(factors):
            fij = float(f[i])
            if fij != 0.0:
                e = tuple(1 if k == j else 0 for k in range(n))
                lin[e] = lin.get(e, 0.0) + fij
        coords.append(lin)
    out = {}
    for e, c in poly.coeffs:
        mono = one
        for i, k in enumerate(e):
            for _ in range(k):
                mono = poly_mul(mono, coords[i])
        for es, cs in mono.items():
            out[es] = out.get(es, 0.0) + float(c) * cs
    return tuple((e, c) for e, c in out.items() if c != 0.0)


def _term_by_term_mapped(S, zeta):
    """The mapped route written out per term and per monomial: every moment
    k! (i/w)^(k+1) is evaluated afresh from its own power."""
    value = 0.0 + 0.0j
    for term in S.terms:
        phase = np.exp(1j * sum(float(b) * z for b, z in zip(term.base, zeta)))
        ws = [complex(sum(float(x) * z for x, z in zip(f, zeta))) for f in term.factors]
        term_value = 0.0 + 0.0j
        for es, c in _orthant_expansion(S.poly, term.base, term.factors):
            term_value += c * math.prod(
                math.factorial(k) * (1j / w) ** (k + 1) for k, w in zip(es, ws)
            )
        value += term.sign * complex(term_value * phase)
    return complex(value)


@pytest.mark.parametrize(
    "family,params,lam",
    [("AIII", (2, 1), (3, 1, -4)), ("CI", (2,), (5, 2)), ("AIII", (3, 2), (5, 3, 1, -1, -4))]
    # every other supported pair, and AIII(3, 2) again, with rational fixed points
    + [("AIII", (1, 1), ("7/3", -1)), ("AIII", (1, 2), ("9/2", -1, -3)),
       ("AIII", (1, 3), (5, -1, "-5/2", -4)), ("AIII", (1, 4), (6, -1, -2, "-7/2", -5)),
       ("AIII", (2, 2), ("11/3", 1, -1, -3)), ("AIII", (2, 3), (5, "5/2", -1, -2, -4)),
       ("AIII", (3, 1), (6, 4, "3/2", -2)), ("AIII", (4, 1), (7, 5, "7/2", 1, -3)),
       ("AIII", (3, 2), ("11/2", 3, "1/3", -1, "-9/2")), ("CI", (1,), ("5/2",)),
       ("CI", (3,), (7, "9/2", 1))],
)
def test_shared_mapped_oracle_equals_term_by_term_sum(family, params, lam):
    from dhmeasure import hermitian

    spec = hermitian.orbit_spec(hermitian.build_pair(family, params), lam)
    Sk = hermitian.k_type_measure(spec)
    center = np.array([float(x) for x in spec.pair.center_vector])
    rng = np.random.default_rng(29)
    for _ in range(3):
        im = center * rng.uniform(1.0, 1.8)
        zeta = tuple(complex(r, i) for r, i in zip(rng.uniform(-1, 1, spec.pair.rank), im))
        value, tail = numeric_laplace_spline(Sk, zeta, method="mapped")
        want = _term_by_term_mapped(Sk, zeta)
        assert abs(value - want) <= 1e-13 * abs(want)
        assert tail == 0.0


def _moment_quad(k, w, decay_log=36.0):
    """Reference moment: s^k e^{isw} integrated over [0, T] by oscillatory
    quadrature, T past where the damped integrand falls below e^(-decay_log)."""
    a, r = w.real, w.imag
    top = (decay_log + 4.0 * max(k, 1)) / r
    if k:
        top = (decay_log + k * math.log(max(top, 2.0))) / r
    parts = [
        integrate.quad(lambda s: s**k * math.exp(-r * s), 0.0, top, weight=weight,
                       wvar=a, epsabs=0.0, epsrel=1e-10, limit=400)[0]
        for weight in ("cos", "sin")
    ]
    return complex(*parts)


@pytest.mark.parametrize("w", [0.5 + 1.0j, -0.7 + 1.4j, 0.03 + 0.05j, 0.3j, -25 + 2j, 40 + 3j])
def test_mapped_moments_equal_truncated_quadrature(w):
    # one factor (1,) at base 0 with multiplier x^k: the route's value is
    # exactly its k-th moment
    for k in range(5):
        P = conespline.Polynomial.from_dict(1, {(k,): 1})
        S = spline(1, [spline_term(1, (0,), [(1,)])], poly=P)
        value, tail = numeric_laplace_spline(S, (w,), method="mapped")
        want = _moment_quad(k, w)
        assert abs(value - want) <= 1e-9 * abs(want)
        assert tail == 0.0


def test_mapped_route_calls_no_quadrature(monkeypatch):
    def refuse(*a, **k):
        raise AssertionError("the mapped route integrated numerically")

    monkeypatch.setattr(oracle.integrate, "quad", refuse)
    P = conespline.Polynomial.linear((1, 2))
    S = spline(2, [spline_term(1, (1, 0), [(1, 0), (1, 1)]),
                   spline_term(-1, (0, 2), [(0, 1), (1, 1)])], poly=P)
    zeta = (0.3 + 1.1j, -0.2 + 0.9j)
    value, tail = numeric_laplace_spline(S, zeta, method="mapped")
    assert value == pytest.approx(_term_by_term_mapped(S, zeta), rel=1e-13)
    assert tail == 0.0


def _assert_mapped_equals_term_by_term(S, zeta):
    value, tail = numeric_laplace_spline(S, zeta, method="mapped")
    want = _term_by_term_mapped(S, zeta)
    assert abs(value - want) <= 1e-13 * abs(want), (S, zeta)
    assert tail == 0.0


_CUBIC = conespline.Polynomial.from_dict(
    2, {(3, 0): 1, (1, 2): Fraction(-2, 3), (0, 1): 5, (0, 0): Fraction(1, 7)})


@pytest.mark.parametrize("poly", [None, _CUBIC])
def test_mapped_route_point_masses(poly):
    # a term with no factors is sign * P(base) * e^{i<base, zeta>}
    S = spline(2, [spline_term(1, (Fraction(1, 2), -3), []),
                   spline_term(-1, (2, Fraction(1, 3)), [])], poly=poly)
    zeta = (0.4 + 0.7j, -1.1 + 0.2j)
    _assert_mapped_equals_term_by_term(S, zeta)
    value, _ = numeric_laplace_spline(S, zeta, method="mapped")
    want = sum(t.sign * (float(poly.eval_exact(t.base)) if poly else 1.0)
               * np.exp(1j * sum(float(b) * z for b, z in zip(t.base, zeta))) for t in S.terms)
    assert value == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("poly", [None, _CUBIC])
def test_mapped_route_of_no_terms_is_zero(poly):
    assert numeric_laplace_spline(spline(2, [], poly=poly), (0.3 + 1j, 1j),
                                  method="mapped") == (0j, 0.0)


def test_mapped_route_two_factor_groups_share_a_cubic():
    # the groups alternate, so the first one's moment sums are needed again
    # after the second's
    F, G = [(1, 0), (1, 1), (1, 2)], [(0, 1), (2, -1), (Fraction(1, 3), 1)]
    S = spline(2, [spline_term(1, (1, Fraction(-1, 2)), F),
                   spline_term(-1, (0, 2), G),
                   spline_term(1, (Fraction(3, 4), 1), F)], poly=_CUBIC)
    for zeta in ((0.3 + 1.1j, -0.2 + 0.9j), (-1.7 + 0.8j, 0.6 + 1.3j)):
        _assert_mapped_equals_term_by_term(S, zeta)


def test_mapped_route_keys_its_substitution_on_the_multiplier():
    # one factor tuple under two multipliers of different exponents: a
    # substitution cached on the factors alone would serve the second the
    # first one's expansions
    factors = [(1, 0), (1, 1), (Fraction(1, 2), 3)]
    terms = [spline_term(1, (1, 2), factors), spline_term(-1, (Fraction(-2, 3), 0), factors)]
    zeta = (0.5 + 1.2j, -0.3 + 0.7j)
    for coeffs in ({(2, 0): 1}, {(1, 1): 1}, {(2, 0): 1, (0, 3): -4}):
        S = spline(2, terms, poly=conespline.Polynomial.from_dict(2, coeffs))
        _assert_mapped_equals_term_by_term(S, zeta)


def test_box_route_takes_one_dimension_only():
    S = spline(2, [spline_term(1, (0, 0), [(1, 0), (0, 1), (1, 1)])])
    with pytest.raises(ValueError, match="one-dimensional"):
        numeric_laplace_spline(S, (0.4 + 1.3j, -0.2 + 1.5j), method="box")


def test_line_density_equals_the_engine_density():
    # per n = 1..5, seeded splines whose terms have their own signs, bases
    # and factor signs, rational factors; points: every base, every base
    # plus a factor, and seeded rationals around them
    rng = np.random.default_rng(32)
    checked = nonzero = 0
    for n in range(1, 6):
        for _ in range(8):
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                s = int(rng.choice((-1, 1)))
                factors = [(s * Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 4))),)
                           for _ in range(n)]
                base = (Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4))),)
                terms.append(spline_term(int(rng.choice((-1, 1))), base, factors))
            S = spline(1, terms)
            density = oracle.line_density(S)
            points = [t.base for t in S.terms] + [(t.base[0] + t.factors[0][0],) for t in S.terms]
            points += [(Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 7))),)
                       for _ in range(50)]
            for mu in points:
                exact = density(mu)
                assert exact == conespline.spline_density(S, mu).value, (S, mu)
                assert type(exact) is type(rat(0))
                approx = density((float(mu[0]),))
                assert type(approx) is float
                assert approx == pytest.approx(float(exact), rel=1e-9, abs=1e-6)
                checked += 1
                nonzero += exact != 0
    assert checked >= 2000 and nonzero >= checked // 4


def test_box_route_refuses_a_point_mass():
    S = spline(1, [spline_term(1, (2,), [])])
    with pytest.raises(conespline.PureDeltaError):
        numeric_laplace_spline(S, (0.5 + 1.0j,), method="box")


def test_box_route_refuses_polynomial_multiplier():
    P = conespline.Polynomial.linear((1,))
    S = spline(1, [spline_term(1, (0,), [(1,)])], poly=P)
    with pytest.raises(ValueError, match="polynomial"):
        numeric_laplace_spline(S, (0.5 + 1.0j,), method="box")
