"""The four benchmark workloads: seeded inputs, timed cases, untimed checks.

Every workload is a closed loop: one caller runs a case, checks it, and only
then starts the next. A case runs the same `dhk` subcommand a user would
(`dhmeasure.cli.main` in process, writing its outputs into a scratch
directory), or, for `oracles`, one `dhk verify` oracle check with its engine
counterpart. Inputs come from the generators below, keyed by the benchmark
seed and the round number; they share no code with `dhmeasure.verify`'s
generators, so a change there cannot change the workload.

Why these four:
  cones    exact LP and cone predicates do nearly all the work; density,
           transform and oracle layers do none.
  models   many small models evaluated a few times each: the one-shot path,
           where per-model synthesis and per-zeta LP cost is not amortised.
  orbits   few orbits with many grid points and zetas each: the amortised
           path, dominated by exact densities and symbolic transforms.
  oracles  the brute-force verifiers, which the engine barely touches.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from dhmeasure import conespline, hermitian, oracle, polycone, verify

WORKLOADS = ("cones", "models", "orbits", "oracles")
_TAGS = {"cones": 71, "models": 72, "orbits": 73, "oracles": 74}

# Approximate seconds one round's cases and checks take on a 2-core x86
# virtual machine (Fraction backend). Fixed constants: the number of rounds
# depends only on --seconds, so a run does the same work on every machine.
# Every round draws fresh inputs of the same shapes.
ROUND_SECONDS = {"cones": 2.4, "models": 1.6, "orbits": 15.0, "oracles": 1.8}

DENSITY_TOL = 1e-9  # two exact-vertex evaluations of one density agree to this
QUAD_REL = 1e-6  # the convolution suite's quadrature tolerance
NUMERIC_REL = 1e-3  # the laplace and orbit suites' numeric-transform tolerance
ZETA_SAMPLES = 3
GENERIC_MARGIN = 1e-6  # a grid point this far from every wall is generic


def round_rng(workload, seed, round_index):
    key = [int(seed) % 2**64, _TAGS[workload] * 1_000_000 + round_index]
    return np.random.Generator(np.random.Philox(key=key))


def round_cases(workload, seed, round_index):
    """One round's cases in a seed-drawn order. The generators emit each
    kind's cases together; run in that order, a slow spell of the machine a
    second or two long would fall on one kind (the one holding the median
    case, say) instead of on cases of every kind."""
    rng = round_rng(workload, seed, round_index)
    cases = globals()[f"generate_{workload}"](rng)
    return [cases[i] for i in rng.permutation(len(cases))]


def rounds_for(workload, seconds):
    """At least two rounds, so run_s is always a median of batches."""
    return max(2, round(seconds / ROUND_SECONDS[workload]))


class Checks:
    """Tally of check outcomes by kind. Failures of a known defect (listed in
    run.KNOWN_DEFECTS) are counted apart from the rest."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}
        self.known = {}
        self.examples = []

    def add(self, kind, ok, known=False, **detail):
        self.attempted += 1
        if ok:
            return
        bucket = self.known if known else self.failed
        bucket[kind] = bucket.get(kind, 0) + 1
        if len(self.examples) < 20:
            self.examples.append({"kind": kind, "known": known, **detail})

    @property
    def n_failed(self):
        return sum(self.failed.values())

    @property
    def n_known(self):
        return sum(self.known.values())

    @property
    def ratio(self):
        """(failed + known-defect failures) / attempted: the fail_ratio."""
        return (self.n_failed + self.n_known) / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# small exact helpers for the checks (independent of dhmeasure.rational)


def _det(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def _hyperplane_normal(vectors, dim):
    """Cofactor normal of dim-1 vectors in dimension dim (zero if dependent)."""
    return [
        (-1) ** j * _det([[v[k] for k in range(dim) if k != j] for v in vectors])
        for j in range(dim)
    ]


def walls(spline_json):
    """(base, normal) of every wall of every term: the hyperplanes through
    the term's base spanned by dim-1 of its factors (in dimension 1, the
    base itself, with normal 1)."""
    dim = int(spline_json["dim"])
    out = []
    for term in spline_json["terms"]:
        base = [Fraction(b) for b in term["base"]]
        factors = [[Fraction(c) for c in f] for f in term["factors"]]
        if dim == 1:
            out.append((base, [Fraction(1)]))
            continue
        for sub in itertools.combinations(factors, dim - 1):
            normal = _hyperplane_normal(sub, dim)
            if any(normal):
                out.append((base, normal))
    return out


def on_wall(wall_list, mu):
    """Exactly on some wall (mu as the exact rational of its floats)?"""
    mu = [Fraction(x) for x in mu]
    return any(sum(n * (m - b) for n, m, b in zip(normal, mu, base)) == 0
               for base, normal in wall_list)


def wall_distance(wall_list, mu):
    """Euclidean distance from mu to the nearest wall."""
    best = math.inf
    for base, normal in wall_list:
        n = [float(x) for x in normal]
        d = abs(sum(a * (m - float(b)) for a, m, b in zip(n, mu, base)))
        best = min(best, d / math.sqrt(sum(a * a for a in n)))
    return best


def read_density_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [([float(c) for c in row[:-2]], float(row[-2])) for row in rows[1:]]


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _grid_arg(axes):
    return "--grid=" + ",".join(f"{lo!r}:{hi!r}:{count}" for lo, hi, count in axes)


def _small_grid(images, counts):
    """The dhk default grid rule (a quarter span below, three quarters above
    the moment images) with a small per-axis point count."""
    arr = np.array([[float(Fraction(x)) for x in im] for im in images])
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    return [
        (float(lo[j] - 0.25 * span[j]), float(hi[j] + 0.75 * span[j]), int(c))
        for j, c in enumerate(counts)
    ]


def _int_vec(rng, dim, bound):
    while True:
        v = [int(x) for x in rng.integers(-bound, bound + 1, size=dim)]
        if any(v):
            return v


def _proper_set(rng, dim, n, bound=3):
    """n integer vectors strictly positive on a hidden functional, spanning."""
    eta = [int(x) for x in rng.integers(1, 4, size=dim)]
    while True:
        out = []
        while len(out) < n:
            v = _int_vec(rng, dim, bound)
            if sum(a * b for a, b in zip(v, eta)) >= 1:
                out.append(v)
        if np.linalg.matrix_rank(np.array(out, dtype=float)) == dim:
            return out, eta


def _strs(v):
    return [str(x) for x in v]


# ---------------------------------------------------------------------------
# cones: polyhedral sets (dim 1-4) and generator cones, two --xi each


def _polyhedron_spec(rng, dim, kind):
    hs = []
    if kind == "box":
        for j in range(dim):
            lo = int(rng.integers(-5, 2))
            e = [0] * dim
            e[j] = 1
            hs.append((e, lo))
            hs.append(([-x for x in e], -(lo + int(rng.integers(1, 7)))))
    elif kind == "simplex":
        for j in range(dim):
            e = [0] * dim
            e[j] = 1
            hs.append((e, int(rng.integers(-3, 1))))
        a = [int(x) for x in rng.integers(1, 4, size=dim)]
        hs.append(([-x for x in a], -int(rng.integers(3, 12))))
    elif kind == "cone":
        for _ in range(dim + 1):
            hs.append((_int_vec(rng, dim, 4), 0))
    elif kind == "shifted":
        for _ in range(dim + 1):
            hs.append((_int_vec(rng, dim, 4), -int(rng.integers(0, 6))))
    elif kind == "lineal":
        # every normal is orthogonal to v, so the asymptotic cone holds a line
        # (in dimension 1 no normal survives and the set is the whole line)
        v = _int_vec(rng, dim, 3)
        vv = sum(x * x for x in v)
        for _ in range(dim + 1):
            u = _int_vec(rng, dim, 3)
            uv = sum(p * q for p, q in zip(u, v))
            n = [vv * a - uv * b for a, b in zip(u, v)]
            if any(n):
                hs.append((n, int(rng.integers(-4, 3))))
    elif kind == "generic":
        # random normals around a feasible point x0
        x0 = [int(x) for x in rng.integers(-2, 3, size=dim)]
        for _ in range(dim + 2):
            n = _int_vec(rng, dim, 4)
            hs.append((n, sum(a * b for a, b in zip(n, x0)) - int(rng.integers(0, 4))))
    else:  # empty: a sandwich a.x >= 1, -a.x >= 0, plus noise
        a = _int_vec(rng, dim, 3)
        hs.append((a, 1))
        hs.append(([-x for x in a], 0))
        for _ in range(2):
            hs.append((_int_vec(rng, dim, 4), int(rng.integers(-4, 5))))
    order = rng.permutation(len(hs))
    return {
        "dim": dim,
        "halfspaces": [{"normal": _strs(hs[i][0]), "offset": str(hs[i][1])}
                       for i in order],
    }


def _cone_spec(rng, dim, pointed):
    n = int(rng.integers(dim, dim + 3))
    if pointed:
        gens, _ = _proper_set(rng, dim, n)
    else:
        gens = [_int_vec(rng, dim, 3) for _ in range(n)]
    return {"dim": dim, "generators": [_strs(g) for g in gens]}


# fixed halfspace counts per kind: the case cost then varies with the
# geometry drawn, not with how many constraints were drawn
_POLY_KINDS = ("box", "simplex", "cone", "shifted", "lineal", "generic", "empty")


def generate_cones(rng):
    """One round: every polyhedron kind and four generator cones per
    dimension. The cheap cases (dimension 1, empty sets, generator cones)
    are three fifths of a round, so the median case falls inside them
    rather than on the step up to the LP-heavy polyhedra."""
    cases = []
    for dim in (1, 2, 3, 4):
        for kind in _POLY_KINDS:
            cases.append({"input": _polyhedron_spec(rng, dim, kind), "kind": kind})
        for pointed in (True, False, True, False):
            cases.append({"input": _cone_spec(rng, dim, pointed),
                          "kind": "pointed" if pointed else "generators"})
    for c in cases:
        c["xi"] = _directions(rng, c["input"])
    return cases


def _directions(rng, data):
    """The two --xi of a case. For a polyhedron {a_i.x >= b_i}, s = sum a_i
    (made primitive) and -s: <s, .> is bounded below on P, and <-s, .> is
    not unless the asymptotic cone is a linear space (P compact, say). Random
    directions would draw that split at random, and the predicates' cost
    with it; this way every set of one shape takes the same branches.
    Generator cones ignore --xi and get a random pair, as does a set whose
    normals sum to 0."""
    if "halfspaces" in data:
        s = [0] * data["dim"]
        for h in data["halfspaces"]:
            s = [a + int(b) for a, b in zip(s, h["normal"])]
        g = math.gcd(*s)
        if g:
            return [[x // g for x in s], [-x // g for x in s]]
    return [_int_vec(rng, data["dim"], 3) for _ in range(2)]


def run_cones(case, workdir):
    inp = os.path.join(workdir, "input.json")
    out = os.path.join(workdir, "report.json")
    argv = ["cones", "--input", inp, "--out", out]
    argv += ["--xi=" + ",".join(str(x) for x in xi) for xi in case["xi"]]
    return argv


def _float_in_cone_interior(gens, x):
    """Is x = G lam with every lam_i >= t for some t > 0 (G spanning)?"""
    k = len(gens)
    d = len(x)
    a_eq = [[float(g[j]) for g in gens] + [0.0] for j in range(d)]
    a_ub = [[-1.0 if i == j else 0.0 for j in range(k)] + [1.0] for i in range(k)]
    res = linprog([0.0] * k + [-1.0], A_ub=a_ub, b_ub=[0.0] * k, A_eq=a_eq,
                  b_eq=[float(v) for v in x],
                  bounds=[(0.0, None)] * k + [(None, 1.0)], method="highs")
    return res.status == 0 and -res.fun > 1e-9


def check_cones(case, rc, report, checks):
    checks.add("exit", rc == 0, rc=rc)
    if report is None:
        checks.add("report", False)
        return
    data = case["input"]
    if "halfspaces" in data:
        P = polycone.polyhedron_from_json(data)
        checks.add("feasible", report["feasible"] == verify.feasible_by_float_lp(P))
        if not report["feasible"]:
            return
        x = tuple(Fraction(v) for v in report["feasible_point"])
        witness = P.contains(x)
        checks.add("witness", witness)

        def agree(kind, value, rederive, *args):
            try:
                checks.add(kind, value == rederive(*args))
            except polycone.InfeasibleSetError:
                # HiGHS called the set empty; with an exact witness in P
                # that is the float re-derivation's known false alarm
                checks.add("float_lp_false_infeasible", False, known=witness, check=kind)

        agree("compact", report["compact"], verify.compact_by_float_lp, P)
        checks.add("proper", report["proper"] == verify.proper_by_float_rank(P))
        dirs = report.get("directions", [])
        checks.add("directions", len(dirs) == len(case["xi"]))
        for d, xi in zip(dirs, case["xi"]):
            agree("bounded_below", d["bounded_below"], verify.bounded_below_by_float_lp, P, xi)
            agree("projection", d["proper_projection"],
                  verify.projection_proper_by_probe, P, xi)
        if report["proper"]:
            asym = polycone.asymptotic_cone(P)
            rays = polycone.extreme_rays(asym)
            for r in rays:
                checks.add("extreme_ray", asym.contains(r))
            if rays:
                gen = polycone.cone_from_generators(P.dim, rays)
                checks.add("ray_pointedness", polycone.cone_is_proper(gen)
                           == verify.pointed_by_dependence_lp(rays))
    else:
        gens = data["generators"]
        checks.add("pointed", report["pointed"] == verify.pointed_by_dependence_lp(gens))
        rank = np.linalg.matrix_rank(np.array([[float(Fraction(c)) for c in g] for g in gens]))
        spans = rank == data["dim"]
        ip = report.get("interior_point")
        checks.add("interior_exists", (ip is not None) == spans)
        if ip is not None:
            checks.add("witness", _float_in_cone_interior(gens, [Fraction(v) for v in ip]))


# ---------------------------------------------------------------------------
# models: sphere products, simplices and flat spaces, dhk abelian in two
# chambers on a small grid


def _rat(rng, num_hi, den_hi):
    return Fraction(int(rng.integers(1, num_hi + 1)), int(rng.integers(1, den_hi + 1)))


def _sphere_product(rng, dim):
    lams = [_rat(rng, 6, 2) for _ in range(dim)]
    pts = []
    for signs in itertools.product((0, 1), repeat=dim):
        image = [lams[j] if s == 0 else -lams[j] for j, s in enumerate(signs)]
        ws = []
        for j, s in enumerate(signs):
            w = [0] * dim
            w[j] = -1 if s == 0 else 1
            ws.append(w)
        pts.append((image, ws))
    return pts, None


def _simplex(rng, dim):
    """Projective space CP^dim with its standard torus: vertices of a
    scaled simplex, inward edge directions as weights."""
    s = _rat(rng, 6, 3)
    c = [Fraction(int(x), 2) for x in rng.integers(-4, 5, size=dim)]
    eye = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    pts = [(c, eye)]
    for i in range(dim):
        image = [c[j] + (s if j == i else 0) for j in range(dim)]
        ws = [[-x for x in eye[i]]]
        ws += [[a - b for a, b in zip(eye[j], eye[i])] for j in range(dim) if j != i]
        pts.append((image, ws))
    return pts, None


def _flat(rng, dim):
    """C^n with a proper linear torus action; eta is its energy direction."""
    ws, eta = _proper_set(rng, dim, dim + 1)
    phi0 = [Fraction(int(x), 2) for x in rng.integers(-4, 5, size=dim)]
    return [(phi0, ws)], eta


def _seed_direction(weights, dim):
    # first point (1, t, t^2, ...) of the moment curve off every weight wall
    for t in itertools.count(1):
        xi = [t**j for j in range(dim)]
        if all(sum(a * b for a, b in zip(w, xi)) != 0 for w in weights):
            return xi


def _other_chamber(rng, weights, dim, energy):
    """A second regular direction. A compact model gets one whose chamber
    differs from the seed direction's; a non-compact one must keep every
    weight positive (the only chamber where the synthesis is the
    pushforward), so it gets another point of that chamber."""
    seed = energy or _seed_direction(weights, dim)
    base = [sum(a * b for a, b in zip(w, seed)) > 0 for w in weights]
    while True:
        xi = _int_vec(rng, dim, 5)
        pair = [sum(a * b for a, b in zip(w, xi)) for w in weights]
        if not all(pair) or xi == seed:
            continue
        if ([p > 0 for p in pair] == base) == (energy is not None):
            return xi


_MODEL_MIX = (("sphere", 1), ("sphere", 2), ("sphere", 2), ("sphere", 3),
              ("simplex", 2), ("simplex", 2), ("simplex", 3),
              ("flat", 1), ("flat", 2), ("flat", 2), ("flat", 3)) * 2
_MODEL_GRID = {1: (9,), 2: (5, 5), 3: (3, 3, 3)}
_QUAD_POINTS = 3  # generic grid points per model checked against quadrature


def generate_models(rng):
    makers = {"sphere": _sphere_product, "simplex": _simplex, "flat": _flat}
    cases = []
    for kind, dim in _MODEL_MIX:
        pts, energy = makers[kind](rng, dim)
        weights = [w for _, ws in pts for w in ws]
        model = {"dim": dim, "points": [
            {"image": _strs(im), "weights": [_strs(w) for w in ws]} for im, ws in pts]}
        if energy is not None:
            model["xi0"] = _strs(energy)
        cases.append({
            "kind": f"{kind}{dim}",
            "input": model,
            "grid": _small_grid([im for im, _ in pts], _MODEL_GRID[dim]),
            "chamber": _other_chamber(rng, weights, dim, energy),
        })
    return cases


def run_models(case, workdir):
    """Two dhk abelian runs: the default chamber, then a second one. The
    zetas come from dhk's default draw seed, as for a user who gives none:
    the cost of a transform check moves with the zetas drawn, and a
    seed-drawn draw seed would add that to every case's cost."""
    inp = os.path.join(workdir, "input.json")
    base = ["abelian", "--input", inp, _grid_arg(case["grid"]),
            "--zeta-samples", str(ZETA_SAMPLES)]
    chamber = "--chamber=" + ",".join(str(x) for x in case["chamber"])
    return [base + ["--out", os.path.join(workdir, "a")],
            base + ["--out", os.path.join(workdir, "b"), chamber]]


def _check_abelian_report(report, checks):
    samples = report.get("laplace_samples", [])
    checks.add("zeta_count", len(samples) == ZETA_SAMPLES, found=len(samples))
    for s in samples:
        checks.add("transform", s["rel_difference"] <= report["laplace_tol"],
                   rel=s["rel_difference"])


def _quadrature_density(spline_json, mu):
    value = err = 0.0
    for term in spline_json["terms"]:
        x = [m - float(Fraction(b)) for m, b in zip(mu, term["base"])]
        q, e = oracle.quadrature_convolution(term["factors"], x)
        value += term["sign"] * q
        err += e
    return value, err


def check_models(case, rcs, workdir, checks):
    for rc in rcs:
        checks.add("exit", rc == 0, rc=rc)
    dirs = [os.path.join(workdir, s) for s in ("a", "b")]
    try:
        reports = [_load(os.path.join(d, "report.json")) for d in dirs]
        splines = [_load(os.path.join(d, "spline.json")) for d in dirs]
        grids = [read_density_csv(os.path.join(d, "density.csv")) for d in dirs]
    except OSError as exc:
        checks.add("outputs", False, error=str(exc))
        return
    for rep in reports:
        _check_abelian_report(rep, checks)
    expected = math.prod(c for _, _, c in case["grid"])
    checks.add("grid_size", len(grids[0]) == expected == len(grids[1]))
    wall_list = walls(splines[0]) + walls(splines[1])
    generic = []
    for (mu, a), (mu_b, b) in zip(*grids):
        wall = on_wall(wall_list, mu)
        same = mu == mu_b and abs(a - b) <= DENSITY_TOL * (1 + abs(a) + abs(b))
        if same or not wall:
            checks.add("chamber", same, mu=mu, a=a, b=b)
        else:
            checks.add("wall_mismatch", False, known=True, mu=mu, a=a, b=b)
        # the quadrature oracle works in floats: keep clear of every wall
        if wall_distance(wall_list, mu) > GENERIC_MARGIN:
            generic.append((abs(a) == 0.0, mu, a))
    # prefer generic points inside the support
    generic.sort(key=lambda g: g[0])
    picked = generic[:_QUAD_POINTS]
    checks.add("quadrature_points", bool(picked))
    for _, mu, a in picked:
        q, err = _quadrature_density(splines[0], mu)
        checks.add("quadrature", abs(a - q) <= QUAD_REL * (1 + abs(q)) + err,
                   mu=mu, engine=a, quadrature=q)


# ---------------------------------------------------------------------------
# orbits: dhk orbit --measure both on a per-family capped grid


# (family, params, cases per round, grid points per axis). The counts of the
# cheap families put the median case in the middle of the 28 AIII(2,1) cases
# of two rounds and the tail case (the 11th slowest) at the third slowest of
# the 14 CI(2) ones, not on the step between two families nor on a median
# of a few cases.
_ORBIT_MIX = (
    ("AIII", (1, 1), 10, (9,)),
    ("AIII", (2, 1), 14, (5, 5)),
    ("CI", (2,), 7, (5, 5)),
    ("AIII", (2, 2), 1, (3, 3, 3)),
    ("AIII", (3, 1), 1, (3, 3, 3)),
    ("CI", (3,), 1, (2, 2, 1)),
    ("AIII", (3, 2), 1, (2, 1, 1, 1)),
)
# generic grid points at which the reduced density's Weyl invariance is checked
_WEYL_POINTS = {1: 3, 2: 3, 3: 2, 4: 1}
_WEYL_ELEMENTS = 5  # non-identity Weyl elements applied at each point


def _orbit_lambda(rng, family, params):
    """Regular lambda, decreasing within each compact block (the dominant
    compact chamber; see `weyl_parity_probe` for the other chambers)."""
    if family == "AIII":
        p, q = params
        top = sorted(rng.choice(np.arange(1, 8), size=p, replace=False), reverse=True)
        low = sorted(rng.choice(np.arange(-6, 1), size=q, replace=False), reverse=True)
        return [int(x) for x in top] + [int(x) for x in low]
    (r,) = params
    return [int(x) for x in sorted(rng.choice(np.arange(1, 9), size=r, replace=False),
                                   reverse=True)]


def weyl_parity_probe(case, checks):
    """The orbit through lambda with two compact-block entries swapped is the
    same orbit, so t_type_measure must accept it. It raises instead (an odd
    compact Weyl parity trips its sign invariant, and dhk exits 2): a known
    defect, counted apart like the wall mismatches."""
    data = case["input"]
    lam = list(data["lambda"])
    if data["family"] == "AIII":
        p = data["params"][0]
        blocks = [(0, p), (p, len(lam))]
    else:
        blocks = [(0, len(lam))]
    i = next((a for a, b in blocks if b - a >= 2), None)
    if i is None:
        return
    lam[i], lam[i + 1] = lam[i + 1], lam[i]
    try:
        hermitian.t_type_measure(hermitian.orbit_from_json({**data, "lambda": lam}))
    except ValueError as exc:
        known = "Weyl determinant" in str(exc)
        checks.add("weyl_sign_mismatch", False, known=known, error=str(exc))
        return
    checks.add("weyl_sign_mismatch", True)


def orbit_images(family, params, lam):
    """Fixed-point moment images of the orbit in measure coordinates: the
    compact Weyl group permutes lambda within blocks (AIII, whose measure
    coordinates are consecutive differences) or entrywise (CI)."""
    lam = [Fraction(x) for x in lam]
    if family == "AIII":
        p = params[0]
        out = []
        for a in itertools.permutations(lam[:p]):
            for b in itertools.permutations(lam[p:]):
                entries = list(a) + list(b)
                out.append([x - y for x, y in zip(entries, entries[1:])])
        return out
    return [list(x) for x in itertools.permutations(lam)]


def generate_orbits(rng):
    cases = []
    for family, params, count, grid in _ORBIT_MIX:
        for _ in range(count):
            lam = _orbit_lambda(rng, family, params)
            cases.append({
                "kind": f"{family}{params}".replace(" ", ""),
                "input": {"family": family, "params": list(params),
                          "lambda": _strs(lam)},
                "grid": _small_grid(orbit_images(family, params, lam), grid),
            })
    return cases


def run_orbits(case, workdir):
    """dhk orbit with its default draw seed, as in `run_models`."""
    inp = os.path.join(workdir, "input.json")
    return ["orbit", "--input", inp, "--out", os.path.join(workdir, "out"),
            "--measure", "both", _grid_arg(case["grid"])]


def _is_identity(m):
    return all(Fraction(x) == (i == j) for i, row in enumerate(m) for j, x in enumerate(row))


def _mat_vec(m, v):
    return [sum(Fraction(a) * b for a, b in zip(row, v)) for row in m]


def check_orbits(case, rc, workdir, checks):
    checks.add("exit", rc == 0, rc=rc)
    out = os.path.join(workdir, "out")
    try:
        report = _load(os.path.join(out, "report.json"))
        weyl = _load(os.path.join(out, "weyl.json"))
        k_spline = _load(os.path.join(out, "k_spline.json"))
        t_rows = read_density_csv(os.path.join(out, "t_density.csv"))
        k_rows = read_density_csv(os.path.join(out, "k_density.csv"))
    except OSError as exc:
        checks.add("outputs", False, error=str(exc))
        return
    t_rep = report["t_measure"]
    checks.add("transform", t_rep["localization_worst_rel"] <= report["tol"],
               rel=t_rep["localization_worst_rel"])
    ks = report["k_measure"]["symbolic_vs_numeric"]
    checks.add("zeta_count", len(ks) == ZETA_SAMPLES, found=len(ks))
    for s in ks:
        checks.add("transform", s["rel_difference"] <= max(report["tol"], NUMERIC_REL),
                   rel=s["rel_difference"])
    grid = case["grid"]
    expected = math.prod(c for _, _, c in grid)
    checks.add("grid_size", len(t_rows) == expected == len(k_rows))
    for mu, v in t_rows:
        checks.add("t_nonnegative", v >= -DENSITY_TOL, mu=mu, value=v)
    weyl_parity_probe(case, checks)
    # Weyl invariance of the reduced density at generic grid points, against
    # the written value; when the capped grid has none, at a grid point
    # nudged off the walls, against the density recomputed there
    S = conespline.spline_from_json(k_spline)
    wall_list = walls(k_spline)
    generic = [(v == 0.0, mu, v) for mu, v in k_rows
               if wall_distance(wall_list, mu) > GENERIC_MARGIN]
    generic.sort(key=lambda g: g[0])
    picked = [(mu, v) for _, mu, v in generic[:_WEYL_POINTS[len(grid)]]]
    if not picked:
        mu = [Fraction(x) + Fraction(j + 1, 1024) for j, x in enumerate(k_rows[0][0])]
        picked = [(mu, conespline.spline_density(S, tuple(mu)).value)]
    elements = [w["matrix"] for w in weyl if not _is_identity(w["matrix"])]
    for mu, v in picked:
        exact = [Fraction(x) for x in mu]
        for m in elements[:_WEYL_ELEMENTS]:
            image = _mat_vec(m, exact)
            got = conespline.spline_density(S, tuple(image)).value
            checks.add("weyl_invariance", abs(got - v) <= DENSITY_TOL * (1 + abs(v)),
                       mu=[float(x) for x in mu], value=v, image_value=got)


# ---------------------------------------------------------------------------
# oracles: one dhk verify oracle check per case, with its engine counterpart


# the Monte Carlo suite's model spaces: (weights, phi0, cutoff radius, bins)
_MC_SYSTEMS = (
    (((1,),), (0,), 3.0, 16),
    (((1,), (1,)), (0,), 2.6, 14),
    (((1, 0), (0, 1)), (0, 0), 2.6, 9),
)
MC_SAMPLES = 200_000
# the lattice suite's weight systems, with the scale t each is counted at;
# the triangle comes twice per round, so the tail case (the slowest cases
# of a run are these counts) sits inside their spread, not at its edge
_LATTICE_SYSTEMS = (
    ("segment_pair", ((1,), (1,)), 100),
    ("triangle_triple", ((1, 0), (0, 1), (1, 1)), 14),
    ("triangle_triple", ((1, 0), (0, 1), (1, 1)), 14),
)


def _damping_zeta(rng, factors, eta):
    d = len(eta)
    im = np.array(eta, dtype=float) * float(rng.uniform(0.6, 1.4))
    im = im + rng.uniform(-0.25, 0.25, size=d)
    rates = [float(np.dot(f, im)) / math.sqrt(float(np.dot(f, f))) for f in factors]
    low = min(rates)
    if low < 0.5:
        im = im * (0.5 / low) if low > 0.05 else np.array(eta, dtype=float)
        rates = [float(np.dot(f, im)) / math.sqrt(float(np.dot(f, f))) for f in factors]
        low = min(rates)
        if low < 0.5:
            im = im * (0.5 / low)
    re = rng.uniform(-2.0, 2.0, size=d)
    return [[float(r), float(i)] for r, i in zip(re, im)]


def generate_oracles(rng):
    """One round of oracle checks. The counts put as many cases below the
    mapped-transform checks in cost as above them, so the median case falls
    among those eight rather than on a step between two kinds."""
    cases = []
    for dim, n in ((1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (3, 5)):
        factors, _ = _proper_set(rng, dim, n)
        cs = rng.uniform(0.2, 2.0, size=n)
        mu = [float(sum(c * f[j] for c, f in zip(cs, factors))) for j in range(dim)]
        cases.append({"kind": "quadrature", "factors": factors, "mu": mu})
    for name, weights, t in _LATTICE_SYSTEMS:
        # three distinct interior points on one level <mu, (1,...,1)> = 8, so
        # the enumeration size, which grows with t times the level, is fixed
        if len(weights[0]) == 1:
            mus = [[8], [7], [6]]
        else:
            firsts = rng.choice(np.arange(1, 8), size=3, replace=False)
            mus = [[int(a), 8 - int(a)] for a in firsts]
        cases.append({"kind": "lattice", "system": name, "weights": weights,
                      "mus": mus, "t": t})
    for n in (1, 2, 3, 2):
        factors, eta = _proper_set(rng, 1, n)
        cases.append({"kind": "laplace_box", "factors": factors,
                      "zeta": _damping_zeta(rng, factors, eta)})
    for dim, n in ((2, 2), (2, 3), (3, 3), (3, 4)) * 2:
        factors, eta = _proper_set(rng, dim, n)
        base = [int(x) for x in rng.integers(-2, 3, size=dim)]
        cases.append({"kind": "laplace_mapped", "factors": factors, "base": base,
                      "zeta": _damping_zeta(rng, factors, eta)})
    # Monte Carlo draws use `dhk verify`'s default seed 0 in every round: the
    # suite's 3-sigma flatness test over up to 81 bins has a false-alarm rate
    # of a few percent per seed, so seed-drawn keys would fail runs at random
    for i in range(len(_MC_SYSTEMS)):
        cases.append({"kind": "montecarlo", "system": i, "mc_seed": 0})
    for _ in range(10):
        cases.append({"kind": "circle", "alpha": int(rng.integers(1, 4)),
                      "z": [float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.5, 1.2))],
                      "a": float(rng.uniform(6.0, 14.0))})
    return cases


def run_oracle(case):
    """Run one oracle check and its engine counterpart; returns raw results."""
    kind = case["kind"]
    if kind == "quadrature":
        engine = conespline.heaviside_density(case["factors"], case["mu"])
        value, err = oracle.quadrature_convolution(case["factors"], case["mu"])
        return {"engine": engine, "oracle": value, "error": err}
    if kind == "lattice":
        w, t = case["weights"], case["t"]
        counts = [oracle.lattice_count(w, mu, t=t) for mu in case["mus"]]
        engine = [conespline.heaviside_density(w, mu) for mu in case["mus"]]
        return {"counts": counts, "engine": engine}
    if kind in ("laplace_box", "laplace_mapped"):
        zeta = [complex(*z) for z in case["zeta"]]
        dim = len(case["factors"][0])
        base = case.get("base", [0] * dim)
        S = conespline.spline(dim, [conespline.spline_term(1, base, case["factors"])])
        closed = conespline.spline_laplace(S, zeta)
        if kind == "laplace_box":
            numeric, _ = oracle.numeric_laplace_spline(
                S, zeta, oracle.QuadratureConfig(1e-7, 1e-7), decay_log=22.0,
                method="box")
        else:
            numeric, _ = oracle.numeric_laplace_spline(S, zeta, method="mapped")
        return {"engine": closed, "oracle": numeric}
    if kind == "montecarlo":
        weights, phi0, radius, bins = _MC_SYSTEMS[case["system"]]
        cfg = oracle.MonteCarloConfig(seed=case["mc_seed"], samples=MC_SAMPLES,
                                      cutoff_radius=radius, bins=bins)
        table = oracle.montecarlo_pushforward(weights, phi0, cfg)
        engine = [conespline.heaviside_density(weights, c) for c in table.centers()]
        return {"table": table, "engine": engine}
    if kind == "circle":
        return {"report": oracle.truncated_circle_check(case["alpha"], complex(*case["z"]),
                                                        case["a"])}
    raise ValueError(f"unknown oracle case {kind!r}")


def _unbiased_bins(weights, phi0, table, radius):
    """Bins whose whole fiber lies inside the sampling ball (float LP)."""
    A = np.array([[float(x) for x in w] for w in weights])
    n = A.shape[0]
    diam = math.sqrt(sum((e[1] - e[0]) ** 2 for e in table.edges))
    limit = radius * radius / 2.0 * 0.9 - diam
    mask = []
    for c in table.centers():
        rhs = [c[j] - float(phi0[j]) for j in range(len(c))]
        res = linprog([-1.0] * n, A_eq=A.T, b_eq=rhs, bounds=[(0.0, None)] * n,
                      method="highs")
        mask.append(res.status == 0 and -res.fun <= limit)
    return mask


def _hull_volume_error(case, engine, quad):
    """Is a quadrature mismatch the float hull volume's known error?

    heaviside_density enumerates fiber vertices exactly and measures the
    fiber with a float convex hull only when the fiber has dimension 2 or
    more. A mismatch counts as that defect when the fiber is such, the
    mismatch is small (relative 1e-3), and quadrature at 1000x tighter
    tolerances confirms the suite-tolerance quadrature value.
    """
    factors = case["factors"]
    fiber_dim = len(factors) - np.linalg.matrix_rank(np.array(factors, dtype=float))
    if fiber_dim < 2 or abs(engine - quad) > 1e-3 * abs(quad):
        return False
    tight, err = oracle.quadrature_convolution(
        factors, case["mu"], oracle.QuadratureConfig(1e-13, 1e-12))
    return abs(tight - quad) + err <= QUAD_REL * (1 + abs(quad))


def check_oracle(case, result, checks):
    kind = case["kind"]
    if kind == "quadrature":
        e, q, err = result["engine"], result["oracle"], result["error"]
        ok = abs(e - q) <= QUAD_REL * (1 + abs(q)) + err
        if ok or not _hull_volume_error(case, e, q):
            checks.add("quadrature", ok, engine=e, quadrature=q)
        else:
            checks.add("hull_volume", False, known=True, engine=e, quadrature=q,
                       factors=case["factors"], mu=case["mu"])
    elif kind == "lattice":
        n, d = len(case["weights"]), len(case["weights"][0])
        t = case["t"]
        ok = all(f > 0 for f in result["engine"])
        if ok:
            ratios = [c / t ** (n - d) / f for c, f in zip(result["counts"], result["engine"])]
            mean = sum(ratios) / len(ratios)
            ok = max(abs(r - mean) / mean for r in ratios) <= 0.05
        checks.add("lattice", ok, system=case["system"], counts=result["counts"])
    elif kind in ("laplace_box", "laplace_mapped"):
        e, q = result["engine"], result["oracle"]
        checks.add(kind, abs(q - e) <= NUMERIC_REL * abs(e), engine=str(e), numeric=str(q))
    elif kind == "montecarlo":
        weights, phi0, radius, _ = _MC_SYSTEMS[case["system"]]
        table, engine = result["table"], result["engine"]
        mask = _unbiased_bins(weights, phi0, table, radius)
        used = [(d, e, s) for d, e, s, ok in zip(table.density, engine, table.sigma, mask)
                if ok and e > 1e-9 and s > 0]
        ok = bool(used)
        zmax = None
        if ok:
            ratio = (sum(d * e / (s * s) for d, e, s in used)
                     / sum(e * e / (s * s) for _, e, s in used))
            zmax = max(abs(d - ratio * e) / s for d, e, s in used)
            ok = zmax <= 3.0
        checks.add("montecarlo", ok, system=case["system"], max_z=zmax)
    elif kind == "circle":
        rep = result["report"]
        ok = rep["candidates"]["sign=+1,coeff=1/alpha"]["abs_diff"] <= 1e-8
        if case["alpha"] > 1:
            ok = ok and rep["resolved_sign"] == 1 and rep["resolved_coeff"] == "1/alpha"
        checks.add("circle", ok, alpha=case["alpha"], z=case["z"], a=case["a"])
