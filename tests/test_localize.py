import json
import time

import numpy as np
import pytest

from dhmeasure import cli, conespline, localize, verify
from dhmeasure.rational import rat, vdot, vec


def sphere(lam=2):
    return verify.sphere_model(lam)


def test_model_construction_and_halfdim():
    M = sphere()
    assert M.dim == 1
    assert M.halfdim == 1
    assert len(M.points) == 2


def test_validate_model_reports_chamber():
    assert localize.validate_model(sphere()) is None


def test_zero_weight_rejected():
    with pytest.raises(localize.ModelValidationError):
        localize.model(1, [localize.fixed_point((0,), [(0,)])])


def test_validation_names_every_issue():
    M = localize.FixedPointModel(
        1, 1, (localize.fixed_point((0, 0), [(0,)], "a"), localize.fixed_point((1,), [(1,)], "a"))
    )
    with pytest.raises(localize.ModelValidationError) as info:
        localize.validate_model(M)
    assert str(info.value) == "; ".join([
        "fixed-point labels must be distinct",
        "moment image of a has the wrong dimension",
        "a carries a zero weight",
    ])


def _old_seed_direction(M):
    """The seed search as it was before its range was bounded: at most 999
    points of the moment curve."""
    if M.energy_direction is not None and localize.is_regular(M, M.energy_direction):
        return M.energy_direction
    for t in range(1, 1000):
        xi = vec([t**j for j in range(M.dim)])
        if localize.is_regular(M, xi):
            return xi
    raise localize.NonRegularXiError("could not find a regular element")


def _pencil(count):
    """One fixed point with the weights (a, -1), a = 1..count: t = a puts
    (1, t) on the wall of (a, -1), so the first regular t is count + 1."""
    return localize.model(2, [localize.fixed_point((0, 0), [(a, -1) for a in range(1, count + 1)])])


def test_seed_of_the_five_weight_pencil():
    assert localize._seed_direction(_pencil(5)) == (1, 6)


def test_seed_direction_equals_the_999_point_search():
    models = [M for _name, M, _chambers in verify.model_library()]
    for seed in range(50):
        rng = np.random.default_rng(seed)
        models.append(verify.random_model(rng, 1 + seed % 3, 4, 1 + seed % 4))
    for M in models:
        assert localize._seed_direction(M) == _old_seed_direction(M)


def test_a_model_past_999_curve_points_is_valid_at_once():
    start = time.perf_counter()
    M = _pencil(999)
    assert time.perf_counter() - start < 1.0
    assert M.halfdim == 999


def _plane2(xi0=None):
    return localize.model(2, verify.projective_plane_model(2).points, xi0)


def test_energy_direction_survives_a_json_round_trip():
    M = _plane2((2, 1))
    M2 = localize.model_from_json(localize.model_to_json(M))
    assert M2.energy_direction == M.energy_direction == vec((2, 1))


def test_a_regular_energy_direction_is_the_seed():
    # the moment curve alone gives (1, 2): (1, 1) pairs to zero with (-1, 1)
    assert localize._seed_direction(_plane2()) == (1, 2)
    assert localize._seed_direction(_plane2((2, 1))) == (2, 1)


@pytest.mark.parametrize(
    "xi0,issue",
    [((1, 1), "pairs to zero"), ((1, 2, 3), "wrong dimension")],
)
def test_a_bad_energy_direction_is_refused(xi0, issue, tmp_path, capsys):
    with pytest.raises(localize.ModelValidationError, match=issue):
        _plane2(xi0)
    data = {**localize.model_to_json(_plane2()), "xi0": [str(x) for x in xi0]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert cli.main(["abelian", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and issue in err
    assert len(err.splitlines()) == 1


def test_regularity_detection():
    M = verify.projective_plane_model(2)
    assert localize.is_regular(M, (1, 2))
    # (1, -1) pairs to zero with the weight (-1, 1) at the second point
    assert not localize.is_regular(M, (1, 1))


def test_renormalize_flips_to_positive_pairing():
    M = sphere()
    R = localize.renormalize(M, (1,))
    for p in R.points:
        for w in p.factors:
            assert sum(a * b for a, b in zip(w, (1,))) > 0
        assert p.sign in (1, -1)


def test_nonregular_xi_raises():
    M = verify.projective_plane_model(2)
    with pytest.raises(localize.NonRegularXiError):
        localize.renormalize(M, (1, 1))


def test_dh_measure_sphere_is_flat_interval():
    M = sphere(2)
    S = localize.dh_measure(M, (1,))
    rng = np.random.default_rng(0)
    for t in rng.uniform(-1.9, 1.9, 40):
        assert conespline.spline_density(S, (t,)).value == pytest.approx(1.0)
    for t in (2.5, -2.5, 7.0):
        assert conespline.spline_density(S, (t,)).value == pytest.approx(0.0)


def test_chamber_independence_on_sphere():
    M = sphere(3)
    Sa = localize.dh_measure(M, (1,))
    Sb = localize.dh_measure(M, (-1,))
    rng = np.random.default_rng(1)
    for t in rng.uniform(-4, 4, 60):
        da = conespline.spline_density(Sa, (t,))
        db = conespline.spline_density(Sb, (t,))
        assert abs(da.value - db.value) <= 1e-12


def test_localization_sum_equals_spline_transform():
    M = verify.projective_plane_model(2)
    S = localize.dh_measure(M, (1, 2))
    region = localize.gamma_region(M, (1, 2))
    rng = np.random.default_rng(2)
    eta = np.array([float(x) for x in region.sample_interior()])
    for _ in range(12):
        im = eta * rng.uniform(0.6, 2.0)
        re = rng.uniform(-2, 2, 2)
        zeta = tuple(complex(a, b) for a, b in zip(re, im))
        closed = conespline.spline_laplace(S, zeta)
        loc = localize.localization_sum(M, zeta, region)
        assert abs(closed - loc) <= 1e-10 * abs(loc)


def test_localization_rejects_zeta_outside_tube():
    M = sphere(2)
    with pytest.raises(localize.NonRegularXiError):
        localize.localization_sum(M, (0.5 - 1.0j,), localize.gamma_region(M, (1,)))


def test_strict_localization_sum_decides_the_tube_without_renormalizing(monkeypatch):
    cases = [
        (M, localize.gamma_region(M, xi), localize.dh_measure(M, xi))
        for _, M, chambers in verify.model_library()
        for xi in chambers
    ]
    for _, region, S in cases:
        assert region.factors == tuple(dict.fromkeys(f for t in S.terms for f in t.factors))
    calls = []
    for name in ("renormalize", "gamma_region"):
        real = getattr(localize, name)
        monkeypatch.setattr(
            localize, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k)
        )
    rng = np.random.default_rng(17)
    inside = outside = 0
    for M, region, S in cases:
        for _ in range(12):
            # small integers put some draws exactly on a tube wall
            eta = rng.integers(-2, 3, size=M.dim) * rng.choice([1.0, 0.3])
            zeta = tuple(complex(r, i) for r, i in zip(rng.uniform(-1, 1, M.dim), eta))
            if region.contains_im(eta):
                localize.localization_sum(M, zeta, region)
                conespline.spline_laplace(S, zeta)
                inside += 1
            else:
                with pytest.raises(localize.NonRegularXiError, match="tube"):
                    localize.localization_sum(M, zeta, region)
                with pytest.raises(conespline.NonRegularZetaError):
                    conespline.spline_laplace(S, zeta)
                outside += 1
    assert calls == []
    with pytest.raises(localize.NonRegularXiError, match="pairs to zero"):
        localize.gamma_region(sphere(2), (0,))
    assert inside > 10 and outside > 10


def test_dh_measure_of_a_chamber_renormalizes_nothing(monkeypatch):
    cases = [(M, xi, localize.gamma_region(M, xi)) for _, M, chambers in verify.model_library()
             for xi in chambers]
    calls = []
    real = localize.renormalize
    monkeypatch.setattr(localize, "renormalize", lambda *a: calls.append(a) or real(*a))
    for M, xi, region in cases:
        from_chamber = localize.dh_measure(region)
        assert calls == []
        assert from_chamber == localize.dh_measure(M, xi)
        calls.clear()
    with pytest.raises(ValueError, match="chamber already"):
        localize.dh_measure(region, xi)


def test_tube_zetas_land_in_tube():
    rng = verify.suite_rng(4, "laplace")
    cases = [verify.random_proper_factors(rng, dim, dim + 1) for dim in (1, 2, 3)]
    # a direction near a wall, where the jitter often leaves the tube
    cases.append(([(1, 0), (0, 1)], (0.01, 1)))
    for factors, eta in cases:
        d = len(eta)
        draws = verify.suite_rng(5, "laplace")
        zetas = localize.tube_zetas(draws, eta, factors, 20)
        assert len(zetas) == 20
        # 1 + 2d uniforms per zeta, so later draws stay aligned
        spent = verify.suite_rng(5, "laplace")
        spent.uniform(size=20 * (1 + 2 * d))
        assert draws.uniform() == spent.uniform()
        for zeta in zetas:
            assert all(-1 <= z.real <= 1 for z in zeta)
            for f in factors:
                rate = sum(float(a) * z.imag for a, z in zip(f, zeta))
                assert rate >= (0.8 - 1e-12) * np.linalg.norm(np.array(f, dtype=float))
    with pytest.raises(ValueError, match="inside the tube"):
        localize.tube_zetas(rng, (1, -1), [(1, 0), (0, 1)], 1)


def test_gamma_region_membership():
    M = sphere(2)
    region = localize.gamma_region(M, (1,))
    assert region.contains_im(region.sample_interior())
    assert not region.contains_im([-float(x) for x in region.sample_interior()])


def test_support_min():
    M = sphere(2)
    assert localize.renormalize(M, (1,)).support_min == -2
    assert localize.renormalize(M, (-1,)).support_min == -2


def test_support_min_flat_space():
    M = verify.flat_space_model([(1, 0), (0, 1)], (1, 1))
    assert localize.renormalize(M, (1, 1)).support_min == 2


def test_default_chamber_is_deterministic():
    M = verify.projective_plane_model(2)
    assert localize.default_chamber(M) == localize.default_chamber(M)
    S0 = localize.dh_measure(M)
    S1 = localize.dh_measure(M)
    assert S0.terms == S1.terms


def test_model_json_round_trip():
    M = verify.projective_plane_model(rat(5, 2))
    M2 = localize.model_from_json(localize.model_to_json(M))
    assert M2.dim == M.dim
    assert [p.image for p in M2.points] == [p.image for p in M.points]
    assert [p.weights for p in M2.points] == [p.weights for p in M.points]


def test_model_json_rejects_bad_halfdim():
    data = localize.model_to_json(sphere())
    data["halfdim"] = 5
    with pytest.raises(localize.ModelValidationError):
        localize.model_from_json(data)


def test_renormalized_cone_always_proper():
    # even a non-proper raw weight set renormalizes to a proper one
    M = localize.model(
        1,
        [
            localize.fixed_point((2,), [(-1,)]),
            localize.fixed_point((-2,), [(1,)]),
        ],
    )
    region = localize.gamma_region(M, (1,))
    from dhmeasure import polycone

    assert polycone.cone_is_proper(
        polycone.cone_from_generators(1, region.factors)
    )


def test_dh_measure_signs_sum_to_zero_on_compact_models():
    # densities vanish far away, so the term signs must cancel
    M = verify.sphere_product_model((2, 3))
    S = localize.dh_measure(M, (1, 2))
    assert sum(t.sign for t in S.terms) == 0


def test_dh_measure_checks_a_chamber_certificate(monkeypatch):
    # a hand-made chamber whose point pairs to zero with its factors, which
    # span a line: the certificate proves nothing, and the LP refuses them
    monkeypatch.setattr(conespline, "_proven", {})
    R = localize.RenormalizedModel(
        2, vec((0, 1)), (localize.RenormalizedPoint("p0", vec((0, 0)), (vec((1, 0)), vec((-1, 0))), 1),)
    )
    with pytest.raises(conespline.NonProperConeError):
        localize.dh_measure(R)


def test_renormalisation_runs_no_lp(monkeypatch):
    from dhmeasure import lp

    M = verify.projective_plane_model(2)
    xi = (1, 2)
    # term construction checks each factor tuple's cone once and caches it
    localize.dh_measure(M, xi)
    region = localize.gamma_region(M, xi)
    eta = [float(x) for x in region.sample_interior()]
    zeta = tuple(complex(0.3 * (j + 1), e) for j, e in enumerate(eta))
    solves = []
    real = lp.solve_lp
    monkeypatch.setattr(
        lp, "solve_lp", lambda *a, **k: solves.append(a) or real(*a, **k)
    )
    localize.renormalize(M, xi)
    localize.dh_measure(M, xi)
    localize.gamma_region(M, xi)
    localize.localization_sum(M, zeta, region)
    localize.renormalize(M, xi).support_min
    assert solves == []


def test_renormalized_factors_pair_positively_with_regular_xi():
    rng = np.random.default_rng(4)
    models = [
        sphere(3),
        verify.projective_plane_model(2),
        verify.sphere_product_model((2, 3)),
        verify.flat_space_model([(1, 0), (-1, 2)], (1, 1)),
    ]
    for M in models:
        for _ in range(6):
            xi = tuple(int(x) for x in rng.integers(-5, 6, M.dim))
            if not localize.is_regular(M, xi):
                continue
            R = localize.renormalize(M, xi)
            for p in R.points:
                assert all(vdot(f, xi) > 0 for f in p.factors)
