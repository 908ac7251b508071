"""Deterministic verification suites pairing engine paths with verifiers.

Each suite draws reproducible random instances, runs a closed-form engine
path and an independent re-derivation (floating-point LP, exact fiber
volumes, Monte Carlo, enumeration), and reports agreement. The suites
back both the command-line `verify` mode and the acceptance tests, so the
random generators live here and are shared.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from . import conespline, hermitian, localize, oracle, polycone
from .rational import det as exact_det
from .rational import rank as exact_rank
from .rational import rat

_SUITE_TAGS = {
    "cones": 11,
    "convolution": 12,
    "laplace": 13,
    "montecarlo": 14,
    "lattice": 15,
    "circle": 16,
    "models": 17,
}


def suite_rng(seed: int, tag) -> np.random.Generator:
    """Philox generator keyed by (seed, tag), 0 <= seed < 2^64. The key is a
    uint64 array: a list key goes through float64 above 2^63, where nearby
    seeds collide."""
    if isinstance(tag, str):
        tag = _SUITE_TAGS[tag]
    key = np.array([int(seed), int(tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# shared random instance generators


def random_polyhedron(rng: np.random.Generator, dim: int) -> polycone.PolyhedralSet:
    """Mixed zoo: boxes, cones, slabs, generic and infeasible systems."""
    kind = int(rng.integers(0, 6))
    hs = []
    if kind == 0:
        # box, compact
        for j in range(dim):
            lo = int(rng.integers(-4, 1))
            hi = lo + int(rng.integers(1, 6))
            e = [0] * dim
            e[j] = 1
            hs.append((tuple(e), lo))
            hs.append((tuple(-x for x in e), -hi))
    elif kind == 1:
        # homogeneous cone, possibly improper
        for _ in range(int(rng.integers(dim, 7))):
            n = _nonzero_int_vec(rng, dim, 4)
            hs.append((n, 0))
    elif kind == 2:
        # shifted cone, feasible and unbounded
        for _ in range(int(rng.integers(dim, 7))):
            n = _nonzero_int_vec(rng, dim, 4)
            hs.append((n, -int(rng.integers(0, 5))))
    elif kind == 3:
        # slab over the nonnegative orthant
        a = _nonzero_int_vec(rng, dim, 3)
        a = tuple(abs(x) if x else 1 for x in a)
        width = int(rng.integers(1, 8))
        hs.append((a, 0))
        hs.append((tuple(-x for x in a), -width))
        for j in range(dim):
            e = [0] * dim
            e[j] = 1
            hs.append((tuple(e), 0))
    elif kind == 4:
        # generic small system
        for _ in range(int(rng.integers(1, 13))):
            n = _nonzero_int_vec(rng, dim, 4)
            hs.append((n, int(rng.integers(-5, 6))))
    else:
        # infeasible sandwich plus noise
        a = _nonzero_int_vec(rng, dim, 3)
        hs.append((a, 1))
        hs.append((tuple(-x for x in a), 0))
        for _ in range(int(rng.integers(0, 4))):
            hs.append((_nonzero_int_vec(rng, dim, 4), int(rng.integers(-4, 5))))
    rng.shuffle(hs)
    return polycone.polyhedron(dim, hs[:12])


def _nonzero_int_vec(rng, dim, bound):
    while True:
        v = tuple(int(x) for x in rng.integers(-bound, bound + 1, size=dim))
        if any(v):
            return v


def random_proper_factors(rng, dim, n, spanning: bool = True):
    """n integer vectors strictly positive against a hidden functional.

    Properness holds by construction; spanning=True additionally rejects
    sets of rank below dim.
    """
    eta = tuple(int(x) for x in rng.integers(1, 4, size=dim))
    while True:
        out = []
        guard = 0
        while len(out) < n:
            guard += 1
            if guard > 500:
                break
            v = _nonzero_int_vec(rng, dim, 3)
            if sum(a * b for a, b in zip(v, eta)) >= 1:
                out.append(v)
        if len(out) < n:
            continue
        if not spanning or exact_rank([list(v) for v in out]) == dim:
            return out, eta


def random_interior_mu(rng, factors):
    """Generic support point: strictly positive float combination."""
    cs = rng.uniform(0.2, 2.0, size=len(factors))
    d = len(factors[0])
    return tuple(
        float(sum(c * f[j] for c, f in zip(cs, factors))) for j in range(d)
    )


def random_model(rng, dim, halfdim_max, npts):
    """Random fixed-point data with a usable default chamber."""
    while True:
        # one weight count for the whole model: the points share a manifold
        nw = int(rng.integers(max(1, dim - 1), halfdim_max + 1))
        pts = []
        for _ in range(npts):
            image = tuple(int(x) for x in rng.integers(-4, 5, size=dim))
            ws = [_nonzero_int_vec(rng, dim, 3) for _ in range(nw)]
            pts.append(localize.fixed_point(image, ws))
        try:
            M = localize.model(dim, pts)
            localize.dh_measure(M)
        except (localize.ModelValidationError, localize.NonRegularXiError):
            continue
        return M


# ---------------------------------------------------------------------------
# genuine-model library (measures with at least two usable chambers)


def sphere_model(lam):
    return localize.model(
        1,
        [
            localize.fixed_point((lam,), [(-1,)]),
            localize.fixed_point((-lam,), [(1,)]),
        ],
    )


def sphere_product_model(lams):
    d = len(lams)
    pts = []
    for signs in np.ndindex(*(2,) * d):
        image = tuple(lams[j] if s == 0 else -lams[j] for j, s in enumerate(signs))
        ws = []
        for j, s in enumerate(signs):
            w = [0] * d
            w[j] = -1 if s == 0 else 1
            ws.append(tuple(w))
        pts.append(localize.fixed_point(image, ws))
    return localize.model(d, pts)


def projective_plane_model(scale):
    return localize.model(
        2,
        [
            localize.fixed_point((0, 0), [(1, 0), (0, 1)]),
            localize.fixed_point((scale, 0), [(-1, 0), (-1, 1)]),
            localize.fixed_point((0, scale), [(0, -1), (1, -1)]),
        ],
    )


def flat_space_model(weights, phi0=None):
    d = len(weights[0])
    phi0 = phi0 if phi0 is not None else (0,) * d
    return localize.model(d, [localize.fixed_point(phi0, weights)])


def model_library():
    """(name, model, chamber points) with the chambers pairwise distinct
    and every listed direction admissible for the synthesis."""
    entries = []
    entries.append(("sphere_2", sphere_model(2), [(1,), (-1,)]))
    entries.append(("sphere_3h", sphere_model(rat(3, 2)), [(2,), (-3,)]))
    entries.append(
        ("bisphere_23", sphere_product_model((2, 3)), [(1, 2), (-1, 3), (2, -1), (-1, -1)])
    )
    entries.append(
        ("bisphere_11", sphere_product_model((1, 1)), [(2, 5), (-3, 1), (1, -4)])
    )
    entries.append(("plane_proj_2", projective_plane_model(2), [(1, 2), (-1, -3), (3, 1)]))
    entries.append(("plane_proj_5h", projective_plane_model(rat(5, 2)), [(2, 1), (-2, 3)]))
    entries.append(
        ("trisphere_123", sphere_product_model((1, 2, 3)), [(1, 2, 3), (-2, 1, 1), (1, -1, 2)])
    )
    entries.append(
        ("trisphere_222", sphere_product_model((2, 2, 2)), [(3, 1, 1), (1, 1, -3)])
    )
    orb1 = hermitian.orbit_model(
        hermitian.orbit_spec(hermitian.build_pair("AIII", (2, 1)), (3, 1, -4))
    )
    entries.append(("disc_orbit_a21", orb1.model, [(1, 1), (1, 4)]))
    orb2 = hermitian.orbit_model(
        hermitian.orbit_spec(hermitian.build_pair("CI", (2,)), (5, 2))
    )
    entries.append(("disc_orbit_c2", orb2.model, [(2, 1), (1, 2)]))
    return entries


# ---------------------------------------------------------------------------
# definition-level floating-point LP re-derivations


def _float_lp(c, P: polycone.PolyhedralSet, extra_eq=None, upper=None):
    A_ub, b_ub = [], []
    for h in P.halfspaces:
        A_ub.append([-float(x) for x in h.normal])
        b_ub.append(-float(h.offset))
    if upper is not None:
        row, rhs = upper
        A_ub.append([float(x) for x in row])
        b_ub.append(float(rhs))
    A_eq = b_eq = None
    if extra_eq is not None:
        A_eq = [[float(x) for x in extra_eq]]
        b_eq = [0.0]
    return linprog(
        [float(x) for x in c],
        A_ub=A_ub or None,
        b_ub=b_ub or None,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * P.dim,
        method="highs",
    )


def feasible_by_float_lp(P) -> bool:
    return _float_lp([0.0] * P.dim, P).status == 0


def bounded_below_by_float_lp(P, xi) -> bool:
    res = _float_lp([float(x) for x in xi], P)
    if res.status == 2:
        raise polycone.InfeasibleSetError("empty in the float re-derivation")
    return res.status == 0


def compact_by_float_lp(P) -> bool:
    # compact == every coordinate bounded above and below
    for j in range(P.dim):
        for s in (1.0, -1.0):
            c = [0.0] * P.dim
            c[j] = s
            res = _float_lp(c, P)
            if res.status == 2:
                raise polycone.InfeasibleSetError("empty in the float re-derivation")
            if res.status == 3:
                return False
            if res.status != 0:
                raise RuntimeError(f"float LP status {res.status}")
    return True


def proper_by_float_rank(P) -> bool:
    # asymptotic cone has a line iff the normal matrix drops rank
    A = np.array(
        [[float(x) for x in h.normal] for h in P.halfspaces], dtype=float
    )
    if A.size == 0:
        return P.dim == 0
    return np.linalg.matrix_rank(A, tol=1e-8) == P.dim


def projection_proper_by_probe(P, xi) -> bool:
    """Asymptotic cone meets ker(xi) only at zero: probe 2*dim bounded LPs."""
    hom = polycone.PolyhedralSet(
        P.dim, tuple(polycone.halfspace(h.normal, 0) for h in P.halfspaces)
    )
    for j in range(P.dim):
        for s in (1.0, -1.0):
            c = [0.0] * P.dim
            c[j] = -s
            row = [0.0] * P.dim
            row[j] = s
            res = _float_lp(c, hom, extra_eq=xi, upper=(row, 1.0))
            if res.status == 0 and -res.fun > 0.5:
                return False
    return True


def pointed_by_dependence_lp(generators) -> bool:
    """Generated cone is pointed iff no nonzero nonnegative dependence."""
    gens = [g for g in generators if any(float(x) != 0 for x in g)]
    if not gens:
        return True
    k = len(gens)
    d = len(gens[0])
    A_eq = [[float(g[j]) for g in gens] for j in range(d)]
    A_eq.append([1.0] * k)
    b_eq = [0.0] * d + [1.0]
    res = linprog(
        [0.0] * k,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * k,
        method="highs",
    )
    return res.status != 0


# ---------------------------------------------------------------------------
# suites


def _report(name, seed, checks, failures, t0, extra=None):
    rep = {
        "suite": name,
        "seed": seed,
        "checks": checks,
        "failed": len(failures),
        "passed": not failures,
        "failures": failures[:10],
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    if extra:
        rep.update(extra)
    return rep


def cones_suite(seed: int = 0, count: int = 100) -> dict:
    """Polyhedral predicates against definition-level float LP reruns.

    A float rerun that calls a set empty although the exact feasible witness
    lies in it is a miss of the float oracle, not of the engine: it is listed
    under float_oracle_misses and does not fail the suite. Without a witness
    in the set it stays a failure.
    """
    rng = suite_rng(seed, "cones")
    t0 = time.perf_counter()
    failures = []
    misses = []
    for i in range(count):
        dim = int(rng.integers(1, 5))
        P = random_polyhedron(rng, dim)
        bad = []

        def agree(predicate, exact, rederive, *args):
            try:
                if exact != rederive(*args):
                    bad.append(predicate)
            except polycone.InfeasibleSetError:
                if witness_in_p:
                    misses.append({"case": i, "dim": dim, "predicate": predicate})
                else:
                    bad.append(f"{predicate} (float LP calls the set empty)")

        feas_e = polycone.is_feasible(P)
        if feas_e != feasible_by_float_lp(P):
            bad.append("feasibility")
        if feas_e:
            witness_in_p = P.contains(polycone.feasible_point(P))
            if not witness_in_p:
                bad.append("feasible witness")
            agree("compactness", polycone.is_compact(P), compact_by_float_lp, P)
            if polycone.is_proper(P) != proper_by_float_rank(P):
                bad.append("properness")
            for _ in range(2):
                xi = _nonzero_int_vec(rng, dim, 3)
                agree(f"bounded_below {xi}", polycone.bounded_below(P, xi),
                      bounded_below_by_float_lp, P, xi)
                if polycone.proper_projection_directions(P, xi) != projection_proper_by_probe(P, xi):
                    bad.append(f"projection {xi}")
            asym = polycone.asymptotic_cone(P)
            if polycone.cone_is_proper(asym):
                rays = polycone.extreme_rays(asym)
                for r in rays:
                    if not asym.contains(r):
                        bad.append("ray outside cone")
                        break
                if rays and polycone.cone_is_proper(
                    polycone.cone_from_generators(dim, rays)
                ) != pointed_by_dependence_lp(rays):
                    bad.append("generator pointedness")
        if bad:
            failures.append({"case": i, "dim": dim, "mismatches": bad})
    return _report("cones", seed, count, failures, t0, {"float_oracle_misses": misses})


def convolution_suite(seed: int = 0, count: int = 50) -> dict:
    """Engine densities == exact fiber volumes (oracle.fiber_volume), per
    case at a generic point, a wall point (a nonnegative rational
    combination of d - 1 factors, where the engine takes the limit from
    inside the factor cone) and a lattice point. A failure records exact
    values as strings."""
    rng = suite_rng(seed, "convolution")
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for i in range(count):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(dim, min(dim + 2, 5) + 1))
        factors, _ = random_proper_factors(rng, dim, n)
        points = [random_interior_mu(rng, factors)]
        wall = [Fraction(int(a), int(b))
                for a, b in zip(rng.integers(0, 6, n), rng.integers(1, 4, n))]
        for j in rng.choice(n, size=n - dim + 1, replace=False):
            wall[j] = 0
        for cs in (wall, [int(c) for c in rng.integers(0, 3, n)]):
            points.append([sum(c * f[r] for c, f in zip(cs, factors)) for r in range(dim)])
        for kind, mu in zip(("generic", "wall", "lattice"), points):
            engine = conespline.heaviside_density(factors, mu)
            volume = oracle.fiber_volume(factors, mu)
            worst = max(worst, float(abs(engine - volume) / (1 + abs(volume))))
            if engine != volume:
                failures.append({"case": i, "point": kind, "factors": factors,
                                 "mu": [str(rat(x)) for x in mu], "engine": str(engine),
                                 "fiber_volume": str(volume)})
    return _report("convolution", seed, 3 * count, failures, t0,
                   {"worst_rel": worst})


# relative gate per numeric route: the box route carries the quadrature's
# error (1e-8 relative asked), the mapped route only float rounding
LAPLACE_REL = {"box": 1e-6, "mapped": 1e-12}


def laplace_suite(seed: int = 0, sets: int = 25, zetas: int = 5) -> dict:
    """Closed-form cone transforms against numeric routes.

    One-dimensional sets take the box route, which integrates the oracle's
    own line density by quadrature: that is the part that checks the
    transform against a density. That density must == spline_density at the
    base, base + one factor and base + half the factor sum (no draw).
    Higher-dimensional sets take the mapped route, which sums closed-form
    orthant moments; for these single cones without a multiplier that is
    laplace_factor again by Fubini, so those sets check only its
    factorisation into per-factor transforms. Each route is gated at its
    own relative bound, LAPLACE_REL.
    """
    rng = suite_rng(seed, "laplace")
    t0 = time.perf_counter()
    failures = []
    worst = dict.fromkeys(LAPLACE_REL, 0.0)
    checks = sets * zetas
    for i in range(sets):
        dim = int(rng.integers(1, 4))
        if dim == 3:
            n = 3
        else:
            n = int(rng.integers(dim, (4 if dim == 1 else 5) + 1))
        factors, eta = random_proper_factors(rng, dim, n)
        S = conespline.spline(
            dim, [conespline.spline_term(+1, (0,) * dim, factors)]
        )
        route = "box" if dim == 1 else "mapped"
        if dim == 1:
            checks += 3
            density = oracle.line_density(S)
            for x in (0, factors[0][0], Fraction(sum(f[0] for f in factors), 2)):
                if density((x,)) != conespline.spline_density(S, (x,)).value:
                    failures.append({"case": i, "factors": factors, "line_density_at": str(x)})
        for k, zeta in enumerate(localize.tube_zetas(rng, eta, factors, zetas)):
            closed = conespline.laplace_factor(factors, zeta)
            num, _tail = oracle.numeric_laplace_spline(S, zeta, method=route)
            rel = abs(num - closed) / abs(closed)
            worst[route] = max(worst[route], rel)
            if rel > LAPLACE_REL[route]:
                failures.append(
                    {"case": (i, k), "route": route, "factors": factors,
                     "zeta": [[z.real, z.imag] for z in zeta], "rel": rel}
                )
    return _report("laplace", seed, checks, failures, t0,
                   {"worst_rel": max(worst.values()), "worst_rel_by_route": worst})


_MC_CASES = (
    (((1,),), (0,), 3.0, 16),
    (((1,), (1,)), (0,), 2.6, 14),
    (((1, 0), (0, 1)), (0, 0), 2.6, 9),
)


def _mc_interior_mask(weights, phi0, table, radius):
    """Bins whose full fiber lies inside the sampling ball (unbiased bins).

    The fiber of a bin centre c is {s >= 0 : A^T s = c - phi0}, bounded
    because the weights span a proper cone, so the largest sum(s) on it is
    reached at a vertex: a basic solution, B s_B = c - phi0 on d independent
    weights B with s_B >= 0 and s = 0 off B. An empty fiber has no vertex.
    """
    A = np.array([[float(x) for x in w] for w in weights])
    n, d = A.shape
    half_r2 = radius * radius / 2.0
    widths = [e[1] - e[0] for e in table.edges]
    diam = math.sqrt(sum(w * w for w in widths))
    rhs = np.array(table.centers()) - np.array([float(x) for x in phi0])
    best = np.full(len(rhs), -np.inf)
    for basis in itertools.combinations(range(n), d):
        if exact_det([weights[i] for i in basis]) == 0:
            continue
        s = np.linalg.solve(A[list(basis)].T, rhs.T)
        # 1e-7 is the primal feasibility tolerance of a HiGHS LP on the same fiber
        feasible = (s >= -1e-7).all(axis=0)
        best = np.where(feasible, np.maximum(best, s.sum(axis=0)), best)
    return [bool(b > -np.inf and b <= half_r2 * 0.9 - diam) for b in best]


def montecarlo_suite(seed: int = 0, samples: int = 1_000_000) -> dict:
    """Sampled pushforward against the unit-normalized engine density.

    The empirical-to-engine ratio, fitted by weighted least squares over
    the unbiased bins, is the model-space area constant to the power n. Its
    n-th root c, the constant per complex line, must be 2 pi within 4
    sigma_c, with sigma_ratio = 1 / sqrt(sum e^2 / s^2) from the same fit
    and sigma_c = c * sigma_ratio / (n * ratio). The ratio must also be flat
    across bins (3 sigma), and c consistent across cases.
    """
    t0 = time.perf_counter()
    failures = []
    per_factor = []
    details = []
    for ci, (weights, phi0, radius, bins) in enumerate(_MC_CASES):
        cfg = oracle.MonteCarloConfig(
            seed=seed, samples=samples, cutoff_radius=radius, bins=bins
        )
        table = oracle.montecarlo_pushforward(weights, phi0, cfg)
        engine = [conespline.heaviside_density(weights, c) for c in table.centers()]
        mask = _mc_interior_mask(weights, phi0, table, radius)
        used = [(d_emp, e, s) for d_emp, e, s, ok in zip(table.density, engine, table.sigma, mask)
                if ok and e > 1e-9 and s > 0]
        num = den = 0.0
        for d_emp, e, s in used:
            num += d_emp * e / (s * s)
            den += e * e / (s * s)
        if den == 0:
            failures.append({"case": ci, "reason": "no unbiased bins"})
            continue
        ratio = num / den
        zmax = max((abs(d_emp - ratio * e) / s for d_emp, e, s in used), default=0.0)
        n = len(weights)
        c = ratio ** (1.0 / n)
        sigma_c = c / math.sqrt(den) / (n * ratio)
        per_factor.append(c)
        details.append(
            {"case": ci, "ratio": ratio, "per_factor": c, "per_factor_sigma": sigma_c,
             "max_z": zmax, "bins_used": len(used)}
        )
        if zmax > 3.0:
            failures.append({"case": ci, "max_z": zmax})
        if abs(c - 2 * math.pi) > 4 * sigma_c:
            failures.append({"case": ci, "per_factor": c, "per_factor_sigma": sigma_c})
    if per_factor:
        lo, hi = min(per_factor), max(per_factor)
        if (hi - lo) / lo > 0.02:
            failures.append({"case": "cross", "per_factor": per_factor})
    return _report(
        "montecarlo", seed, len(_MC_CASES) + 1, failures, t0,
        {"cases": details,
         "per_factor_constant": sum(per_factor) / len(per_factor) if per_factor else None},
    )


_LATTICE_CASES = (
    ("segment_pair", ((1,), (1,)), ((3,), (5,), (9,))),
    ("triangle_triple", ((1, 0), (0, 1), (1, 1)), ((2, 5), (3, 3), (4, 7))),
    ("non_unimodular", ((2, 1), (1, 3), (1, 1)), ((5, 4), (7, 9), (5, 8))),
    ("index_two", ((2, 0), (0, 2), (1, 1)), ((3, 1), (2, 5), (4, 7))),
)


def maximal_minors(weights) -> list:
    """|det| of every nonsingular d x d minor of integer weights in Z^d.

    For weights spanning R^d, their lcm bounds the denominators of every
    vertex of a fiber polytope, and their gcd is the index of the lattice
    the weights generate in Z^d.
    """
    d = len(weights[0])
    dets = (abs(exact_det([weights[i] for i in idx]))
            for idx in itertools.combinations(range(len(weights)), d))
    return [int(m) for m in dets if m]


def leading_coefficient(count, period: int, degree: int) -> Fraction:
    """Exact leading coefficient of a quasi-polynomial count(t) in t.

    The quasi-polynomial has the given degree and a period dividing
    `period`, so along t = period * k it is a polynomial in k, whose
    degree-th finite difference over k = 1 .. degree + 1 is
    degree! period^degree times the leading coefficient.
    """
    values = [count(period * k) for k in range(1, degree + 2)]
    diff = sum((-1) ** (degree - j) * math.comb(degree, j) * v
               for j, v in enumerate(values))
    return Fraction(diff, math.factorial(degree) * period**degree)


def lattice_suite(t: int = 100) -> dict:
    """Lattice-point counts against the engine density, at t and exactly.

    At the scale t, the count over t^(n-d) must be one constant times the
    density within 5%. Exactly: #{s >= 0 : sum s_i b_i = t mu} counts the
    points of t times the fiber polytope, whose vertices have denominators
    dividing q, the lcm of the maximal minors. So it is a quasi-polynomial
    of degree n - d with period dividing q (Ehrhart), and its leading
    coefficient must equal the index of the weight lattice in Z^d (the gcd
    of the maximal minors) times the density, at every point.
    """
    t0 = time.perf_counter()
    failures = []
    details = []
    for name, weights, mus in _LATTICE_CASES:
        n, d = len(weights), len(weights[0])
        minors = maximal_minors(weights)
        period, index = math.lcm(*minors), math.gcd(*minors)
        ratios = []
        exact = []
        for mu in mus:
            count = oracle.lattice_count(weights, mu, t=t)
            f = conespline.heaviside_density(weights, mu)
            ratios.append(count / t ** (n - d) / f)
            lead = leading_coefficient(
                lambda s: oracle.lattice_count(weights, mu, t=s), period, n - d)
            exact.append(lead / f)
        c = sum(ratios) / len(ratios)
        devs = [abs(r - c) / c for r in ratios]
        details.append({"system": name, "constant": c, "deviations": devs,
                        "lattice_index": index,
                        "exact_constants": [str(e) for e in exact]})
        if max(devs) > 0.05 or any(e != index for e in exact):
            failures.append({"system": name, "deviations": devs,
                             "exact_constants": [str(e) for e in exact]})
    return _report("lattice", 0, len(_LATTICE_CASES), failures, t0,
                   {"systems": details})


_CIRCLE_CASES = (
    (1, complex(0.8, 0.6), 6.0),
    (2, complex(-1.1, 0.9), 9.0),
    (3, complex(0.3, 0.5), 14.0),
    (2, complex(1.5, 0.7), 11.0),
    (1, complex(-0.4, 1.2), 8.0),
)


def circle_suite(tol: float = 1e-8) -> dict:
    """Truncated rank-one transforms against the two-term closed form."""
    t0 = time.perf_counter()
    failures = []
    details = []
    for alpha, z, a in _CIRCLE_CASES:
        rep = oracle.truncated_circle_check(alpha, z, a)
        calibrated = rep["candidates"]["sign=+1,coeff=1/alpha"]["abs_diff"]
        ok = calibrated <= tol
        if alpha > 1:
            # at alpha 1 the two coefficient candidates coincide
            ok = ok and rep["resolved_sign"] == 1 and rep["resolved_coeff"] == "1/alpha"
        details.append(
            {"alpha": alpha, "z": [z.real, z.imag], "a": a,
             "abs_diff": float(calibrated),
             "resolved": (rep["resolved_sign"], rep["resolved_coeff"])}
        )
        if not ok:
            failures.append(details[-1])
    decay = oracle.truncated_circle_check(2, complex(0.5, 0.6), 45.0)
    fp = abs(complex(*decay["fixed_point_term"]))
    ratio = decay["boundary_magnitude"] / fp
    if ratio >= 1e-6:
        failures.append({"case": "decay", "ratio": ratio})
    return _report("circle", 0, len(_CIRCLE_CASES) + 1, failures, t0,
                   {"cases": details, "decay_ratio": ratio})


SUITES = {
    "cones": cones_suite,
    "convolution": convolution_suite,
    "laplace": laplace_suite,
    "montecarlo": montecarlo_suite,
    "lattice": lattice_suite,
    "circle": circle_suite,
}


def run_suites(names=None, seed: int = 0, **overrides) -> dict:
    """Run named suites (all by default); returns an aggregate report."""
    names = list(names) if names else list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    reports = []
    for n in names:
        fn = SUITES[n]
        kwargs = dict(overrides.get(n, {}))
        if "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            kwargs.setdefault("seed", seed)
        reports.append(fn(**kwargs))
    return {
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
