"""Hand-checkable reference values pinned across all modules."""

import numpy as np
import pytest

from dhmeasure import conespline, hermitian, localize, polycone
from dhmeasure.rational import rat, vdot
from exp_rational import ExpRationalSum


def test_equality_strip_is_feasible():
    # x - y >= 0 and y - x >= 0 force x = y; x >= 3 picks the tail
    P = polycone.polyhedron(2, [((1, -1), 0), ((-1, 1), 0), ((1, 0), 3)])
    assert polycone.is_feasible(P)
    x = polycone.feasible_point(P)
    assert x[0] == x[1] and x[0] >= 3


def test_dual_of_halfplane_is_single_ray():
    C = polycone.cone_from_normals(2, [(1, 0)])
    D = polycone.dual_cone(C)
    assert D.generators == ((1, 0),)


def test_dual_of_origin_cone_is_everything():
    C = polycone.cone_from_normals(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    D = polycone.dual_cone(C)
    # generated by all four normals: contains +-e1 and +-e2
    assert set(D.generators) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert not polycone.cone_is_proper(D)


def test_properness_with_offset_halfspace():
    P = polycone.polyhedron(2, [((1, 1), 0), ((1, -1), 0), ((1, 0), -1)])
    assert polycone.is_proper(P)


def test_quadrant_unbounded_along_mixed_direction():
    quad = polycone.polyhedron(2, [((1, 0), 0), ((0, 1), 0)])
    assert polycone.bounded_below(quad, (1, 1))
    assert not polycone.bounded_below(quad, (1, -1))


def test_compact_slab_bounded_in_every_direction():
    slab = polycone.polyhedron(1, [((1,), 2), ((-1,), -2)])
    for xi in ((1,), (-1,), (rat(7, 3),)):
        assert polycone.bounded_below(slab, xi)


def test_projection_fails_on_vanishing_ray():
    quad = polycone.polyhedron(2, [((1, 0), 0), ((0, 1), 0)])
    assert not polycone.proper_projection_directions(quad, (1, 0))


def test_projection_along_negative_direction():
    P = polycone.polyhedron(1, [((1,), 1)])
    assert polycone.proper_projection_directions(P, (-1,))


def test_interior_point_of_ray_in_plane_errors():
    ray = polycone.cone_from_generators(2, [(1, 0)])
    with pytest.raises(polycone.NotFullDimensionalError):
        polycone.interior_point(ray)


def test_interior_point_generator_form_is_strict():
    C = polycone.cone_from_generators(2, [(1, 0), (1, 1)])
    x = polycone.interior_point(C)
    # strict against both dual inequalities
    assert vdot(x, (0, 1)) > 0 or vdot(x, (1, -1)) > 0
    D = polycone.dual_cone(C)
    for n in D.normals:
        assert vdot(n, x) > 0


def test_unit_determinant_density():
    assert conespline.heaviside_density([(1, 0), (0, 1)], (3, 4)) == 1.0


def test_two_point_difference_density():
    S = conespline.spline(
        1,
        [
            conespline.spline_term(1, (-1,), [(1,)]),
            conespline.spline_term(-1, (1,), [(1,)]),
        ],
    )
    assert conespline.spline_density(S, (0,)).value == pytest.approx(1.0)
    assert conespline.spline_density(S, (2,)).value == pytest.approx(0.0)


def test_translated_halfline_density():
    S = conespline.spline(1, [conespline.spline_term(1, (2,), [(1,)])])
    assert conespline.spline_density(S, (1,)).value == pytest.approx(0.0)
    assert conespline.spline_density(S, (5,)).value == pytest.approx(1.0)


def test_laplace_factor_pinned_values():
    assert conespline.laplace_factor([(1, 0), (0, 1)], (1j, 1j)) == pytest.approx(1.0)
    assert conespline.laplace_factor([(1, 0), (0, 1)], (2j, 1j)) == pytest.approx(0.5)


def test_spline_laplace_orthant_closed_form():
    d = 3
    S = conespline.spline(
        d, [conespline.spline_term(1, (0,) * d, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])]
    )
    zeta = (0.2 + 1.0j, -0.4 + 0.8j, 0.1 + 1.5j)
    want = 1j**d / np.prod(zeta)
    assert conespline.spline_laplace(S, zeta) == pytest.approx(want)


def test_spline_laplace_empty_terms():
    S = conespline.spline(1, [])
    assert conespline.spline_laplace(S, (1j,)) == 0


def test_validate_single_point_same_sign_weights():
    M = localize.model(1, [localize.fixed_point((0,), [(1,), (1,)])])
    assert localize.validate_model(M) is None
    R = localize.renormalize(M, (1,))
    assert R.points[0].sign == 1


def test_validate_mixed_sign_weights_and_flip_sign():
    M = localize.model(1, [localize.fixed_point((0,), [(1,), (-1,)])])
    R = localize.renormalize(M, (1,))
    assert R.points[0].sign == -1
    assert R.points[0].factors == ((1,), (1,))


def test_is_regular_pinned():
    M = localize.model(
        1,
        [
            localize.fixed_point((1,), [(-1,)]),
            localize.fixed_point((-1,), [(1,)]),
        ],
    )
    assert localize.is_regular(M, (1,))
    assert not localize.is_regular(M, (0,))


def test_localization_single_point_at_origin():
    M = localize.model(2, [localize.fixed_point((0, 0), [(1, 0), (0, 1)])])
    zeta = (0.5 + 1.0j, -0.3 + 0.7j)
    want = 1j**2 / (zeta[0] * zeta[1])
    assert localize.localization_sum(M, zeta, localize.gamma_region(M, (1, 1))) == pytest.approx(want)


def test_localization_scaled_weight():
    M = localize.model(1, [localize.fixed_point((5,), [(2,)])])
    got = localize.localization_sum(M, (1j,), localize.gamma_region(M, (1,)))
    assert got == pytest.approx(np.exp(-5.0) / 2.0)


def test_dh_measure_quadrant_flat():
    M = localize.model(2, [localize.fixed_point((0, 0), [(1, 0), (0, 1)])])
    S = localize.dh_measure(M, (1, 1))
    assert len(S.terms) == 1 and S.terms[0].sign == 1
    assert conespline.spline_density(S, (2, 3)).value == pytest.approx(1.0)


def test_dh_measure_unimodular_skew_cone():
    M = localize.model(2, [localize.fixed_point((0, 0), [(1, 0), (1, 1)])])
    S = localize.dh_measure(M, (1, 1))
    assert conespline.spline_density(S, (3, 1)).value == pytest.approx(1.0)
    assert conespline.spline_density(S, (1, 3)).value == pytest.approx(0.0)


def test_gamma_region_pinned():
    M = localize.model(2, [localize.fixed_point((0, 0), [(1, 0), (0, 1)])])
    g = localize.gamma_region(M, (1, 1))
    assert set(g.factors) == {(1, 0), (0, 1)}
    M1 = localize.model(1, [localize.fixed_point((0,), [(1,), (1,)])])
    g1 = localize.gamma_region(M1, (1,))
    assert g1.factors == ((1,),)
    M2 = localize.model(2, [localize.fixed_point((0, 0), [(1, 0), (1, 1)])])
    g2 = localize.gamma_region(M2, (1, 1))
    assert set(g2.factors) == {(1, 0), (1, 1)}
    assert g2.contains_im((1.0, 0.1))
    assert not g2.contains_im((-1.0, 0.5))


def test_support_min_single_point_origin():
    M = localize.model(1, [localize.fixed_point((0,), [(1,)])])
    assert localize.renormalize(M, (1,)).support_min == 0
    M2 = localize.model(
        1,
        [
            localize.fixed_point((1,), [(1,)]),
            localize.fixed_point((3,), [(1,)]),
        ],
    )
    assert localize.renormalize(M2, (1,)).support_min == 1


def test_su11_reduced_equals_full_measure():
    # no compact roots: reducing changes nothing
    spec = hermitian.orbit_spec(hermitian.build_pair("AIII", (1, 1)), (2, -1))
    St = hermitian.t_type_measure(spec)
    Sk = hermitian.k_type_measure(spec)
    assert St.terms == Sk.terms
    assert Sk.poly is None
    assert len(St.terms) == 1 and St.terms[0].sign == 1
    assert St.terms[0].base == spec.lam
    # constant density on the shifted half-line, zero before the shift
    base = float(St.terms[0].base[0])
    vals = [conespline.spline_density(St, (base + t,)).value for t in (0.5, 2.0, 7.0)]
    assert vals[0] > 0 and vals[0] == pytest.approx(vals[1]) == pytest.approx(vals[2])
    assert conespline.spline_density(St, (base - 0.5,)).value == 0.0


def test_symbolic_derivative_one_step():
    # d/dt of e^{i<mu, z + t xi>} / ell(z + t xi) at t=0:
    # i<mu,xi> e/ell - ell(xi) e/ell^2
    mu = (3, 1)
    ell = (1, 2)
    xi = (1, 0)
    E = ExpRationalSum.build(2, [(((1, 0)), mu, ((ell, 1),))])
    D = E.d_dir(xi)
    want = {
        (tuple(rat(x) for x in mu), ((tuple(rat(x) for x in ell), 1),)): (0, 3),
        (tuple(rat(x) for x in mu), ((tuple(rat(x) for x in ell), 2),)): (-1, 0),
    }
    got = {(e, d): (c[0], c[1]) for c, e, d in D.terms}
    assert got == {k: (rat(a), rat(b)) for k, (a, b) in want.items()}
    zeta = (0.4 + 0.9j, -0.3 + 1.1j)
    lz = ell[0] * zeta[0] + ell[1] * zeta[1]
    ph = np.exp(1j * (mu[0] * zeta[0] + mu[1] * zeta[1]))
    assert D.evaluate(zeta) == pytest.approx(1j * 3 * ph / lz - 1 * ph / lz**2)


@pytest.mark.parametrize(
    "family,params,lam",
    [("AIII", (2, 1), (3, 1, -4)), ("CI", (2,), (5, 2))],
)
def test_full_measure_density_nonnegative(family, params, lam):
    spec = hermitian.orbit_spec(hermitian.build_pair(family, params), lam)
    St = hermitian.t_type_measure(spec)
    rng = np.random.default_rng(12)
    points = [tuple(rng.uniform(-6, 12, 2)) for _ in range(300)]
    assert min(conespline.spline_density(St, mu).value for mu in points) >= 0


def test_reduced_density_vanishes_on_compact_wall():
    spec = hermitian.orbit_spec(hermitian.build_pair("AIII", (2, 1)), (3, 1, -4))
    Sk = hermitian.k_type_measure(spec)
    f = spec.pair.killing_duals[0]
    # mu orthogonal to the single wall functional
    for t in (rat(1, 2), -3, rat(13, 3)):
        mu = (-t * f[1], t * f[0])
        assert Sk.poly is not None and Sk.poly.eval_exact(mu) == 0
        assert conespline.spline_density(Sk, mu).value == pytest.approx(0.0, abs=1e-15)
