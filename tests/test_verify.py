import itertools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dhmeasure import conespline, localize, oracle, polycone, verify


def test_suite_rng_is_stable():
    a = verify.suite_rng(0, "cones").integers(0, 100, 5)
    b = verify.suite_rng(0, "cones").integers(0, 100, 5)
    assert list(a) == list(b)
    c = verify.suite_rng(1, "cones").integers(0, 100, 5)
    assert list(a) != list(c)


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
def test_suite_rng_keeps_the_list_key_streams_below_two_to_the_63(seed):
    old = np.random.Generator(np.random.Philox(key=[seed, 13]))
    assert list(verify.suite_rng(seed, "laplace").random(6)) == list(old.random(6))


def test_suite_rng_keys_every_64_bit_seed_apart():
    # a list key goes through float64, so 2^63 and 2^63 + 5 were one stream
    # and 2^64 - 1 a cast warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [list(verify.suite_rng(s, 101).random(4))
                 for s in (2**63, 2**63 + 5, 2**64 - 1)]
    assert draws[0] != draws[1] != draws[2] != draws[0]


def test_random_polyhedron_dimensions():
    rng = verify.suite_rng(2, "cones")
    for dim in (1, 2, 3, 4):
        P = verify.random_polyhedron(rng, dim)
        assert P.dim == dim
        assert len(P.halfspaces) <= 12


def test_random_proper_factors_are_proper():
    rng = verify.suite_rng(3, "laplace")
    for dim in (1, 2, 3):
        factors, eta = verify.random_proper_factors(rng, dim, dim + 1)
        assert polycone.strict_positive_functional(factors) is not None


def test_model_library_entries_have_two_chambers():
    lib = verify.model_library()
    assert len(lib) == 10
    for name, M, chambers in lib:
        assert len(chambers) >= 2
        for xi in chambers:
            assert localize.is_regular(M, xi)


def test_cones_suite_small():
    rep = verify.cones_suite(seed=0, count=15)
    assert rep["failed"] == 0


def test_cones_suite_lists_a_float_lp_miss_and_passes_at_seed_1():
    # case 51 of seed 1 is a 3-dimensional set that HiGHS calls empty; the
    # InfeasibleSetError used to escape the suite and `dhk verify` exit 2
    rep = verify.cones_suite(seed=1, count=52)
    assert rep["passed"] and not rep["failures"]
    assert rep["float_oracle_misses"] == [
        {"case": 51, "dim": 3, "predicate": "compactness"},
        {"case": 51, "dim": 3, "predicate": "bounded_below (1, 2, 1)"},
    ]


def _empty_by_float_lp(P, *args):
    raise polycone.InfeasibleSetError("empty in the float re-derivation")


@pytest.mark.parametrize("witness_in_p", [True, False])
def test_a_float_lp_miss_fails_the_cones_suite_only_without_a_witness(witness_in_p, monkeypatch):
    def unit_box(rng, dim):
        units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        return polycone.polyhedron(dim, [(e, 0) for e in units]
                                   + [(tuple(-x for x in e), -1) for e in units])

    monkeypatch.setattr(verify, "random_polyhedron", unit_box)
    monkeypatch.setattr(verify, "compact_by_float_lp", _empty_by_float_lp)
    monkeypatch.setattr(verify, "bounded_below_by_float_lp", _empty_by_float_lp)
    if not witness_in_p:
        monkeypatch.setattr(polycone.PolyhedralSet, "contains", lambda P, x: False)
    rep = verify.cones_suite(seed=0, count=1)
    assert rep["passed"] is witness_in_p
    assert len(rep["float_oracle_misses"]) == (3 if witness_in_p else 0)
    if not witness_in_p:
        mismatches = rep["failures"][0]["mismatches"]
        assert mismatches[:2] == ["feasible witness",
                                  "compactness (float LP calls the set empty)"]


def test_convolution_suite_small():
    rep = verify.convolution_suite(seed=0, count=8)
    assert rep["failed"] == 0


def test_laplace_suite_small():
    rep = verify.laplace_suite(seed=0, sets=5, zetas=2)
    assert rep["failed"] == 0


def test_suite_elapsed_survives_a_wall_clock_step(monkeypatch):
    # the wall clock steps back an hour after its first read; a suite timed
    # by it would report elapsed_s near -3600
    wall = time.time
    reads = itertools.count()
    monkeypatch.setattr(time, "time", lambda: wall() - (3600.0 if next(reads) else 0.0))
    rep = verify.circle_suite()
    assert rep["passed"]
    assert 0 <= rep["elapsed_s"] < 60


def test_montecarlo_suite_reduced_samples():
    rep = verify.montecarlo_suite(seed=0, samples=200_000)
    assert rep["failed"] == 0
    consts = [c["per_factor"] for c in rep["cases"]]
    assert max(consts) / min(consts) - 1 <= 0.02


def test_montecarlo_suite_fails_a_density_scaled_by_one_percent(monkeypatch):
    # every case's constant per complex line moves by 1.01^(-1/n), within
    # the cross-case 2% but 7 sigma or more from 2 pi at 10^6 samples
    real = conespline.heaviside_density
    monkeypatch.setattr(conespline, "heaviside_density",
                        lambda factors, mu: real(factors, mu) * Fraction(101, 100))
    rep = verify.montecarlo_suite(seed=0, samples=1_000_000)
    assert not rep["passed"]
    liouville = [f["case"] for f in rep["failures"] if "per_factor_sigma" in f]
    assert liouville == list(range(len(verify._MC_CASES)))
    for c in rep["cases"]:
        assert abs(c["per_factor"] - 2 * math.pi) > 4 * c["per_factor_sigma"] > 0


def _lp_interior_mask(weights, phi0, table, radius):
    """verify._mc_interior_mask's bins by one HiGHS LP per bin centre:
    the largest sum(s) on {s >= 0 : A^T s = c - phi0}."""
    from scipy.optimize import linprog

    A = np.array([[float(x) for x in w] for w in weights])
    n, d = A.shape
    diam = math.sqrt(sum((e[1] - e[0]) ** 2 for e in table.edges))
    limit = radius * radius / 2.0 * 0.9 - diam
    mask = []
    for c in table.centers():
        rhs = [c[j] - float(phi0[j]) for j in range(d)]
        res = linprog([-1.0] * n, A_eq=A.T, b_eq=rhs, bounds=[(0.0, None)] * n,
                      method="highs")
        mask.append(res.status == 0 and -res.fun <= limit)
    return mask


@pytest.mark.parametrize("weights, phi0, radius, bins, kept", [
    *(case + (kept,) for case, kept in zip(verify._MC_CASES, (13, 12, 21))),
    (((1, 0), (0, 1), (1, 1)), (0, 0), 2.6, 10, 28),
    (((1, 0), (0, 1), (1, 1), (1, 2)), (1, -1), 2.0, 8, 6),
    (((2, 1), (1, 3), (1, 1)), (0.5, 0), 2.5, 15, 25),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), (0, 0, 0), 2.0, 6, 10),
])
def test_mc_interior_mask_reads_the_lp_optimum_off_the_fiber_vertices(
        weights, phi0, radius, bins, kept):
    cfg = oracle.MonteCarloConfig(samples=10_000, cutoff_radius=radius, bins=bins)
    table = oracle.montecarlo_pushforward(weights, phi0, cfg)
    mask = verify._mc_interior_mask(weights, phi0, table, radius)
    assert mask == _lp_interior_mask(weights, phi0, table, radius)
    assert sum(mask) == kept


def test_lattice_suite_reduced_scale():
    rep = verify.lattice_suite(t=40)
    assert rep["failed"] == 0


@pytest.mark.parametrize("name", [c[0] for c in verify._LATTICE_CASES])
def test_lattice_suite_fails_on_one_count_off_by_one(name, monkeypatch):
    weights = next(w for n, w, _ in verify._LATTICE_CASES if n == name)
    real = oracle.lattice_count
    hit = []

    def off_by_one(w, mu, t=1):
        count = real(w, mu, t=t)
        # one count of the exact path, which runs at t != 100
        if tuple(w) == weights and t != 100 and not hit:
            hit.append((mu, t))
            return count + 1
        return count

    monkeypatch.setattr(oracle, "lattice_count", off_by_one)
    rep = verify.lattice_suite(t=100)
    assert hit and [f["system"] for f in rep["failures"]] == [name]


def test_leading_coefficient_of_a_partition_count():
    # partitions of t into parts 1, 2, 3: degree 2, period 6, t^2 / 12 + ...
    def count(t):
        return oracle.lattice_count([(1,), (2,), (3,)], (1,), t=t)

    assert verify.maximal_minors([(1,), (2,), (3,)]) == [1, 2, 3]
    assert verify.leading_coefficient(count, 6, 2) == Fraction(1, 12)
    assert verify.maximal_minors([(2, 0), (0, 2), (1, 1)]) == [4, 2, 2]


def test_circle_suite():
    rep = verify.circle_suite()
    assert rep["failed"] == 0


def test_run_suites_aggregates():
    out = verify.run_suites(["circle", "lattice"], seed=0, lattice={"t": 30})
    assert out["passed"] is True
    assert {r["suite"] for r in out["suites"]} == {"circle", "lattice"}


def test_chamber_independence_library_spot_check():
    rng = np.random.default_rng(6)
    for name, M, chambers in verify.model_library()[:4]:
        Sa = localize.dh_measure(M, chambers[0])
        Sb = localize.dh_measure(M, chambers[1])
        for _ in range(20):
            mu = tuple(rng.uniform(-4, 4, M.dim))
            da = conespline.spline_density(Sa, mu).value
            db = conespline.spline_density(Sb, mu).value
            assert abs(da - db) <= 1e-9 * (1 + abs(da))
