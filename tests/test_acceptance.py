"""Top-level acceptance gates, one per published bar.

Every test prints a single PASS/FAIL line with its measured numbers and
asserts both the numeric bar and the runtime budget. Randomized checks ride
the deterministic suite generators, so failures reproduce exactly.
"""

import math
import time
from fractions import Fraction

import numpy as np

from dhmeasure import conespline, hermitian, localize, oracle, verify
from dhmeasure.rational import mat_vec, rat


def _gate(num, label, ok, detail, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = (
        f"{status} criterion {num} [{label}]: {detail} "
        f"({elapsed:.1f}s of {budget:.0f}s budget)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_cone_predicates_vs_lp_rederivations():
    t0 = time.time()
    rep = verify.cones_suite(seed=0, count=100)
    elapsed = time.time() - t0
    _gate(
        1,
        "cone calculus",
        rep["failed"] == 0,
        f"{rep['checks'] - rep['failed']}/{rep['checks']} predicate groups agree",
        elapsed,
        30.0,
    )


def test_criterion_2_transform_duality():
    t0 = time.time()
    rep = verify.laplace_suite(seed=0, sets=25, zetas=5)
    elapsed = time.time() - t0
    worst = rep["worst_rel_by_route"]
    _gate(
        2,
        "transform duality",
        rep["failed"] == 0 and worst["box"] <= 1e-6 and worst["mapped"] <= 1e-12,
        f"125 transforms, worst rel {worst['box']:.2e} <= 1e-6 on the box route,"
        f" {worst['mapped']:.2e} <= 1e-12 on the mapped route",
        elapsed,
        120.0,
    )


def test_criterion_3_synthesis_equals_localization():
    t0 = time.time()
    rng = verify.suite_rng(0, "models")
    worst = 0.0
    checks = 0
    for i in range(20):
        dim = int(rng.integers(1, 4))
        npts = int(rng.integers(1, 5))
        M = verify.random_model(rng, dim, 4, npts)
        xi = localize.default_chamber(M)
        S = localize.dh_measure(M, xi)
        region = localize.gamma_region(M, xi)
        eta = np.array([float(x) for x in region.sample_interior()], dtype=float)
        eta /= max(1e-12, np.linalg.norm(eta))
        for _ in range(20):
            im = eta * rng.uniform(0.6, 2.5)
            if not region.contains_im(im):
                im = eta
            re = rng.uniform(-2.0, 2.0, dim)
            zeta = tuple(complex(a, b) for a, b in zip(re, im))
            closed = conespline.spline_laplace(S, zeta)
            loc = localize.localization_sum(M, zeta, region)
            worst = max(worst, abs(closed - loc) / abs(loc))
            checks += 1
    elapsed = time.time() - t0
    _gate(
        3,
        "synthesis vs localization",
        worst <= 1e-10,
        f"{checks} evaluations, worst rel {worst:.2e} <= 1e-10",
        elapsed,
        60.0,
    )


def test_criterion_4_chamber_independence():
    t0 = time.time()
    rng = verify.suite_rng(0, "models")
    lib = verify.model_library()
    worst = 0.0
    assert len(lib) == 10
    for name, M, chambers in lib:
        splines = [localize.dh_measure(M, xi) for xi in chambers[:2]]
        images = np.array(
            [[float(x) for x in p.image] for p in M.points], dtype=float
        )
        lo = images.min(axis=0) - 1.5
        hi = images.max(axis=0) + 2.5
        for _ in range(100):
            mu = tuple(rng.uniform(lo, hi))
            da = conespline.spline_density(splines[0], mu).value
            db = conespline.spline_density(splines[1], mu).value
            worst = max(worst, abs(da - db))
    elapsed = time.time() - t0
    _gate(
        4,
        "chamber independence",
        worst <= 1e-9,
        f"10 models x 100 points, worst spread {worst:.2e} <= 1e-9",
        elapsed,
        60.0,
    )


def test_criterion_5_fiber_volume_vs_quadrature():
    t0 = time.time()
    rep = verify.convolution_suite(seed=0, count=50)
    elapsed = time.time() - t0
    _gate(
        5,
        "engine vs exact fiber volume",
        rep["failed"] == 0,
        f"50 instances x 3 points, worst scaled diff {rep['worst_rel']:.2e} == 0",
        elapsed,
        120.0,
    )


def test_criterion_6_montecarlo_calibration():
    t0 = time.time()
    rep = verify.montecarlo_suite(seed=0, samples=1_000_000)
    elapsed = time.time() - t0
    consts = [c["per_factor"] for c in rep["cases"]]
    spread = max(consts) / min(consts) - 1.0
    zmax = max(c["max_z"] for c in rep["cases"])
    _gate(
        6,
        "model-manifold calibration",
        rep["failed"] == 0 and spread <= 0.02,
        f"max |z| {zmax:.2f} < 3, per-area constants {consts[0]:.4f}/"
        f"{consts[1]:.4f}/{consts[2]:.4f} spread {100 * spread:.2f}% <= 2%",
        elapsed,
        300.0,
    )


def test_criterion_7_compact_cross_check():
    t0 = time.time()
    lam = 2.0
    M = verify.sphere_model(2)
    S = localize.dh_measure(M, (1,))
    rng = np.random.default_rng(7)
    flat_dev = 0.0
    for t in rng.uniform(-lam + 1e-3, lam - 1e-3, 200):
        flat_dev = max(flat_dev, abs(conespline.spline_density(S, (t,)).value - 1.0))
    outside_dev = 0.0
    for t in np.concatenate([rng.uniform(lam + 1e-3, 9, 50), rng.uniform(-9, -lam - 1e-3, 50)]):
        outside_dev = max(outside_dev, abs(conespline.spline_density(S, (t,)).value))
    worst = 0.0
    for z in rng.uniform(0.3, 4.0, 10):
        got = conespline.spline_laplace(S, (complex(z, 0.0),), strict=False)
        want = 2.0 * math.sin(z * lam) / z
        worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    _gate(
        7,
        "compact cross-check",
        flat_dev <= 1e-9 and outside_dev <= 1e-9 and worst <= 1e-6,
        f"flat dev {flat_dev:.1e}, outside dev {outside_dev:.1e}, "
        f"transform dev {worst:.2e} <= 1e-6 at 10 real samples",
        elapsed,
        10.0,
    )


def test_criterion_8_orbit_families():
    t0 = time.time()
    specs = [
        hermitian.orbit_spec(hermitian.build_pair("AIII", (1, 1)), (2, -1)),
        hermitian.orbit_spec(hermitian.build_pair("AIII", (2, 1)), (3, 1, -4)),
        hermitian.orbit_spec(hermitian.build_pair("CI", (2,)), (5, 2)),
    ]
    rng = verify.suite_rng(0, "models")
    fixed_ok = True
    inv_mismatches = 0
    neg_worst = 0
    rel_worst = 0.0
    for spec in specs:
        pair = spec.pair
        om = hermitian.orbit_model(spec)
        for m, p in zip(pair.weyl, om.model.points):
            fixed_ok = fixed_ok and p.image == mat_vec(m, spec.lam)
            fixed_ok = fixed_ok and p.weights == tuple(
                tuple(-x for x in mat_vec(m, a)) for a in pair.compact
            ) + tuple(mat_vec(m, b) for b in pair.noncompact)
        Sk = hermitian.k_type_measure(spec)
        center = np.array([float(x) for x in pair.center_vector])
        points = []
        for _ in range(100):
            raw = rng.normal(0, 4, pair.rank) + center * rng.uniform(0, 6)
            points.append(tuple(rat(int(round(x * 8192)), 8192) for x in raw))
        values = [conespline.spline_density(Sk, mu).value for mu in points]
        neg_worst = min(neg_worst, *values)
        for m in pair.weyl:
            images = [conespline.spline_density(Sk, mat_vec(m, mu)).value for mu in points]
            inv_mismatches += sum(a != v for a, v in zip(images, values))
        for zeta in localize.tube_zetas(rng, pair.center_vector, pair.noncompact, 10):
            sym = hermitian.laplace_nu_symbolic(spec, zeta)
            num, _ = oracle.numeric_laplace_spline(Sk, zeta, method="mapped")
            rel_worst = max(rel_worst, abs(num - sym) / abs(sym))
    elapsed = time.time() - t0
    _gate(
        8,
        "elliptic orbit families",
        fixed_ok
        and inv_mismatches == 0
        and neg_worst >= 0
        and rel_worst <= 1e-9,
        "fixed points and weights exact; exact densities at 100 points x 3 families, "
        f"Weyl-image mismatches {inv_mismatches} == 0; min density {float(neg_worst):.1e} >= 0; "
        f"transform rel {rel_worst:.2e} <= 1e-9 at 10 zeta x 3 families",
        elapsed,
        180.0,
    )


def test_criterion_9_lattice_asymptotics():
    t0 = time.time()
    rep = verify.lattice_suite(t=100)
    elapsed = time.time() - t0
    worst = max(max(s["deviations"]) for s in rep["systems"])
    # the exact leading coefficient over the density is the lattice index
    exact = all(
        {Fraction(c) for c in s["exact_constants"]} == {s["lattice_index"]}
        for s in rep["systems"]
    )
    _gate(
        9,
        "lattice asymptotics",
        rep["failed"] == 0 and exact and worst <= 0.05,
        f"{len(rep['systems'])} weight systems, leading coefficient == lattice index"
        f" x density exactly; at t=100 worst deviation {100 * worst:.2f}% <= 5%",
        elapsed,
        5.0,
    )


def test_criterion_10_truncated_circle_identity():
    t0 = time.time()
    rep = verify.circle_suite(tol=1e-8)
    elapsed = time.time() - t0
    worst = max(c["abs_diff"] for c in rep["cases"])
    _gate(
        10,
        "truncated circle identity",
        rep["failed"] == 0 and worst <= 1e-8 and rep["decay_ratio"] < 1e-6,
        f"5 cases worst |diff| {worst:.1e} <= 1e-8, "
        f"boundary decay ratio {rep['decay_ratio']:.1e} < 1e-6",
        elapsed,
        30.0,
    )
