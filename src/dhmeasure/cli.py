"""Command-line front end.

Subcommands:
  cones    predicates and witnesses for a polyhedral set or cone
  abelian  density table, tube data and transform report for a model
  orbit    torus and reduced measures for an elliptic orbit
  verify   deterministic cross-check suites

Exit codes: 0 success, 1 a verification or tolerance check failed,
2 bad usage or invalid input. Logging level comes from DHK_LOG.
"""

from __future__ import annotations

import argparse
import cmath
import json
import logging
import math
import os
import sys
from decimal import Decimal
from functools import cache, partial

import numpy as np

from . import conespline, hermitian, localize, oracle, polycone, verify
from .conespline import atomic_write_text
from .rational import integer_vector, rat, rat_str, vec

log = logging.getLogger("dhmeasure")


def parse_vector(text: str):
    try:
        return vec([rat(part.strip()) for part in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a count of at least 1")
    return value


def seed_value(text: str) -> int:
    """A draw seed keys a 64-bit counter-based generator: 0 <= seed < 2^64."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"{text} is not a seed in [0, 2^64)")
    return value


def positive_tolerance(text: str) -> float:
    """A tolerance is positive and finite: inf would pass every check and nan
    none, so both are bad input rather than a verdict."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite tolerance")
    return value


def parse_grid(text: str):
    """--grid lo:hi:count per axis, comma separated; lo and hi are exact
    rationals ("-1.5", "1/3") within the float range."""
    axes = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise argparse.ArgumentTypeError(
                f"grid axis {part!r} is not lo:hi:count"
            )
        lo, hi, count = rat(pieces[0]), rat(pieces[1]), int(pieces[2])
        if count < 1 or not hi > lo or max(-lo, hi) > sys.float_info.max:
            raise argparse.ArgumentTypeError(f"bad grid axis {part!r}")
        axes.append((lo, hi, count))
    return tuple(axes)


def _axis_integers(lo, hi, count):
    """(ints, q): the axis's values lo + k * (hi - lo) / (count - 1), k <
    count (lo alone when count is 1), read exactly as Python ints over one
    denominator q > 0."""
    return integer_vector([rat(lo + k * (hi - lo) / (count - 1)) for k in range(count)]
                          if count > 1 else [rat(lo)])


DEFAULT_GRID_POINTS = 25**3  # the whole default grid, at most 25 per axis


def default_grid(images, dim):
    """Per axis, from a quarter of the images' span (at least 1) below them
    to three quarters above, exact. Each axis takes 25 points, or as many as
    keep the whole grid within DEFAULT_GRID_POINTS. An axis that leaves the
    float range is bad input."""
    count = next(c for c in range(25, 0, -1) if c**dim <= DEFAULT_GRID_POINTS)
    axes = []
    for j in range(dim):
        lo = min(im[j] for im in images)
        hi = max(im[j] for im in images)
        span = rat(max(hi - lo, 1))  # exact, also where it is the int 1
        lo, hi = lo - span / 4, hi + 3 * span / 4
        if max(-lo, hi) > sys.float_info.max:
            raise ValueError(f"default grid axis {j + 1} leaves the float range; give --grid")
        axes.append((lo, hi, count))
    return tuple(axes)


def write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _finite_number(text):
    """JSON number hook: Infinity, NaN, overflowing literals and nonzero
    literals that underflow to 0.0 are bad input."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in input JSON")
    if value == 0 and not Decimal(text).is_zero():
        raise ValueError(f"number {text} in input JSON underflows to 0")
    return value


def _check_float_range(what, vectors):
    """Transforms and tube draws read the input's coordinates as floats: each
    must lie within the float range and, unless 0, not round to 0."""
    for v in vectors:
        for x in v:
            try:
                f = float(x)
            except OverflowError:
                f = math.inf
            if math.isinf(f) or (f == 0 and x != 0):
                value = (Decimal(int(x.numerator)) / int(x.denominator)).normalize()
                raise ValueError(f"{what} coordinate {value:.6g} does not fit a float")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_finite_number, parse_float=_finite_number)


def _emit(payload, out_path):
    if out_path:
        write_json(out_path, payload)
        log.info("wrote %s", out_path)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _of_dimension(flag, value, dim, unit):
    """The value of flag if given (None otherwise), checked against the
    input's dimension before any work, so a wrong one writes nothing."""
    if value is not None and len(value) != dim:
        raise ValueError(
            f"{flag} has {len(value)} {unit} but the input has dimension {dim}"
        )
    return value


# ---------------------------------------------------------------------------
# cones


def _on_polyhedron(P):
    return lambda xi: (polycone.bounded_below(P, xi), polycone.proper_projection_directions(P, xi))


def cmd_cones(args) -> int:
    data = _load_json(args.input)
    report = {"input": args.input}
    decide = None  # xi -> (bounded_below, proper_projection)
    if "halfspaces" in data and "generators" not in data:
        P = polycone.polyhedron_from_json(data)
        for xi in args.xi:
            _of_dimension("--xi", xi, P.dim, "coordinates")
        report["kind"] = "polyhedron"
        report["dim"] = P.dim
        feas = polycone.is_feasible(P)
        report["feasible"] = feas
        if feas:
            report["feasible_point"] = [rat_str(x) for x in polycone.feasible_point(P)]
            report["compact"] = polycone.is_compact(P)
            report["proper"] = polycone.is_proper(P)
            decide = _on_polyhedron(P)
    else:
        C = polycone.cone_from_json(data)
        for xi in args.xi:
            _of_dimension("--xi", xi, C.dim, "coordinates")
        report["kind"] = "cone"
        report["dim"] = C.dim
        proper = polycone.cone_is_proper(C)
        report["pointed"] = proper
        if C.normals is not None and proper:
            rays = polycone.extreme_rays(C)
            report["extreme_rays"] = [[rat_str(x) for x in r] for r in rays]
        try:
            ip = polycone.interior_point(C)
            report["interior_point"] = [rat_str(x) for x in ip]
        except polycone.NotFullDimensionalError:
            report["interior_point"] = None
        if C.normals is not None and C.generators is not None:
            report["representations_consistent"] = polycone.cone_consistency_check(C)
        decide = (_on_polyhedron(polycone.polyhedron(C.dim, [(n, 0) for n in C.normals]))
                  if C.normals is not None else partial(polycone.generator_directions, C))
    if args.xi and decide:
        report["directions"] = [
            {"xi": [rat_str(x) for x in xi],
             **dict(zip(("bounded_below", "proper_projection"), decide(xi)))}
            for xi in args.xi
        ]
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# transform checks and density grids, shared by abelian and orbit


def _compare_samples(zetas, reference, **evaluations):
    """At each zeta call the two named evaluations, in the order given, and
    record both values and their difference relative to the one named
    reference. A reference that is 0 or not finite (its terms left the
    float range) would compare nothing: that is bad input, a ValueError.
    numpy does not warn on such overflow; the values are checked here. An
    other value that is not finite is a failed comparison."""
    samples = []
    for zeta in zetas:
        with np.errstate(all="ignore"):
            values = {name: f(zeta) for name, f in evaluations.items()}
        ref = values[reference]
        if not (cmath.isfinite(ref) and ref != 0):
            raise ValueError(
                f"the {reference} transform is {ref} at a drawn zeta, so the check would "
                "compare nothing: the input's scale leaves the float range"
            )
        a, b = values.values()
        sample = {name: [v.real, v.imag] for name, v in values.items()}
        sample["zeta"] = [[z.real, z.imag] for z in zeta]
        rel = abs(a - b) / abs(ref)
        sample["rel_difference"] = rel if math.isfinite(rel) else math.inf
        samples.append(sample)
    return samples


def _localization_samples(S, M, region, rng, count):
    """Draw count zetas in the region's tube, around its interior direction,
    and at each compare the spline's closed transform with the fixed-point
    sum, in that order."""
    return _compare_samples(
        localize.tube_zetas(rng, region.sample_interior(), region.factors, count),
        "localization_sum",
        spline_transform=lambda zeta: conespline.spline_laplace(S, zeta),
        localization_sum=lambda zeta: localize.localization_sum(M, zeta, region),
    )


def _worst(samples):
    return max((s["rel_difference"] for s in samples), default=0.0)


def _rounded(num, den):
    """(f, bound): the nearest double f to num / den, den > 0 and the
    fraction not necessarily in lowest terms, and a bound on |f - num / den|:
    0.0 when f is the value and half an ulp otherwise. Only a value whose
    lowest-terms denominator is a power of two can be exact, that is when
    den's odd part divides num, so other values skip the round-trip check,
    which cross-multiplies."""
    try:
        f = num / den
    except OverflowError:
        raise ValueError(f"density {Decimal(num) / den:.6g} does not fit a float") from None
    if num % (den // (den & -den)) == 0:
        p, q = f.as_integer_ratio()
        if p * den == num * q:
            return f, 0.0
    return f, math.ulp(f) / 2


def _lattice(axes):
    """(lattice, coords): the grid of the axes as one conespline.Lattice, in
    itertools.product order, and each axis's values as their nearest
    doubles. Each axis is read as integers once (_axis_integers), and the
    grid's columns are their product over the lcm of the axes'
    denominators, with no rational per point."""
    per_axis = [_axis_integers(*axis) for axis in axes]
    D = math.lcm(*(q for _, q in per_axis))
    shape = [len(ints) for ints, _ in per_axis]
    index = np.unravel_index(np.arange(math.prod(shape)), shape)
    columns = tuple(
        np.array([a * (D // q) for a in ints], dtype=object)[k] for (ints, q), k in zip(per_axis, index)
    )
    coords = [[a / q for a in ints] for ints, q in per_axis]
    return conespline.Lattice(columns, D), coords


def _density_rows(S, grid):
    """S's density on the grid (lattice, coords) as write_density_csv's
    (axes, values), computed before any file is written: each density is
    its nearest double, with error_bound bounding that rounding."""
    lattice, coords = grid
    nums, den = conespline.spline_density(S, lattice)
    return coords, [_rounded(num, den) for num in nums.tolist()]


def _finish(args, report, files) -> int:
    """The one place abelian and orbit write. With --out, make the directory
    and write files in order (a name ending .csv maps to (axes, values), any
    other to a JSON payload), then report.json; without it, print the
    report. The callers compute every value first, so a failure writes
    nothing. 0 if the report passed, else 1."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, data in {**files, "report.json": report}.items():
            path = os.path.join(args.out, name)
            if name.endswith(".csv"):
                conespline.write_density_csv(path, *data)
            else:
                write_json(path, data)
        log.info("wrote %s", args.out)
    else:
        _emit(report, None)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# abelian models


def cmd_abelian(args) -> int:
    M = localize.model_from_json(_load_json(args.input))
    _check_float_range("model", [v for p in M.points for v in (p.image, *p.weights)])
    axes = _of_dimension("--grid", args.grid, M.dim, "axes")
    grid = _lattice(axes or default_grid([p.image for p in M.points], M.dim)) if args.out else None
    xi = _of_dimension("--chamber", args.chamber, M.dim, "coordinates") or localize.default_chamber(M)
    region = localize.gamma_region(M, xi)
    S = localize.dh_measure(region)
    rng = verify.suite_rng(args.seed, 101)

    report = {
        "input": args.input,
        "dim": M.dim,
        "halfdim": M.halfdim,
        "points": len(M.points),
        "chamber": [rat_str(x) for x in xi],
        "terms": len(S.terms),
        "gamma_region": {
            "factors": [[rat_str(x) for x in f] for f in region.factors],
            "interior_direction": [rat_str(x) for x in region.sample_interior()],
        },
        "support_min": rat_str(region.support_min),
    }
    # the densities, then the transform check
    files = {"density.csv": _density_rows(S, grid),
             "spline.json": conespline.spline_to_json(S)} if args.out else {}
    samples = _localization_samples(S, M, region, rng, args.zeta_samples)
    report["laplace_samples"] = samples
    report["laplace_worst_rel"] = _worst(samples)
    report["laplace_tol"] = args.tol
    report["passed"] = report["laplace_worst_rel"] <= args.tol
    return _finish(args, report, files)


# ---------------------------------------------------------------------------
# orbits


def cmd_orbit(args) -> int:
    O = hermitian.orbit_from_json(_load_json(args.input))
    _check_float_range("lambda", [O.lam_native])
    pair = O.pair
    axes = _of_dimension("--grid", args.grid, pair.rank, "axes")
    om = O.model
    M = om.model
    _check_float_range("fixed-point image", [p.image for p in M.points])
    # one lattice for both measures
    grid = _lattice(axes or default_grid([p.image for p in M.points], pair.rank)) if args.out else None
    rng = verify.suite_rng(args.seed, 202)

    report = {
        "input": args.input,
        "family": pair.family,
        "params": list(pair.params),
        "rank": pair.rank,
        "lambda": [rat_str(x) for x in O.lam_native],
        "weyl_order": len(pair.weyl),
        "fixed_points": [
            {"label": p.label, "image": [rat_str(x) for x in p.image]}
            for p in M.points
        ],
        "wall_values": [(lbl, rat_str(v)) for lbl, v in om.wall_values],
    }

    chamber = _of_dimension("--chamber", args.chamber, pair.rank, "coordinates")
    measures = {}
    if args.measure != "k":
        # one chamber gives the measure and the tube of its check
        region = hermitian.t_chamber(O, chamber)
        measures["t"] = hermitian.t_type_measure(O, region)
    if args.measure != "t":
        measures["k"] = hermitian.k_type_measure(O)
    # the densities, then the transform checks
    files = {}
    if args.out:
        files["weyl.json"] = hermitian.weyl_to_json(pair)
        for tag, S in measures.items():
            files[f"{tag}_spline.json"] = conespline.spline_to_json(S)
            files[f"{tag}_density.csv"] = _density_rows(S, grid)

    worst = []
    if "t" in measures:
        samples = _localization_samples(measures["t"], M, region, rng, args.zeta_samples)
        worst.append(_worst(samples))
        report["t_measure"] = {
            "chamber": [rat_str(x) for x in region.chamber_point],
            "terms": len(measures["t"].terms),
            "localization_samples": samples,
            "localization_worst_rel": worst[-1],
        }
    if "k" in measures:
        Sk = measures["k"]
        zsamples = _compare_samples(
            localize.tube_zetas(rng, pair.center_vector, pair.noncompact, args.zeta_samples),
            "symbolic",
            symbolic=lambda zeta: hermitian.laplace_nu_symbolic(O, zeta),
            numeric=lambda zeta: oracle.numeric_laplace_spline(Sk, zeta, method="mapped")[0],
        )
        worst.append(_worst(zsamples))
        report["k_measure"] = {
            "terms": len(Sk.terms),
            "wall_polynomial": Sk.poly.to_json() if Sk.poly is not None else None,
            "symbolic_vs_numeric": zsamples,
            "worst_rel": worst[-1],
        }
    report["tol"] = args.tol
    report["passed"] = all(w <= args.tol for w in worst)
    return _finish(args, report, files)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    overrides = {}
    if args.samples is not None:
        overrides["montecarlo"] = {"samples": args.samples}
    names = [s.strip() for s in args.suites.split(",")] if args.suites else None
    result = verify.run_suites(names, seed=args.seed, **overrides)
    for rep in result["suites"]:
        status = "pass" if rep["passed"] else "FAIL"
        print(f"{rep['suite']:<12} {status}  checks={rep['checks']} "
              f"failed={rep['failed']} time={rep['elapsed_s']}s")
    if args.out:
        write_json(args.out, result)
        log.info("wrote %s", args.out)
    return 0 if result["passed"] else 1


# ---------------------------------------------------------------------------
# argument wiring


@cache
def build_parser() -> argparse.ArgumentParser:
    """The dhk parser, built once and shared: parse_args leaves it as it is."""
    top = argparse.ArgumentParser(
        prog="dhk",
        description="Measures on moment images from fixed-point data.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, draws=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--out", default=None, help="output file or directory")
        if draws:
            p.add_argument("--seed", type=seed_value, default=0,
                           help="draw seed, 0 <= seed < 2^64 (default 0)")

    p = sub.add_parser("cones", help="polyhedral predicates and witnesses")
    common(p, draws=False)
    p.add_argument(
        "--xi",
        action="append",
        type=parse_vector,
        default=[],
        help="direction for boundedness checks; repeatable",
    )

    p = sub.add_parser("abelian", help="measure synthesis for a model")
    common(p)
    p.add_argument("--grid", type=parse_grid, default=None,
                   help="density grid, lo:hi:count per axis, comma separated")
    p.add_argument("--zeta-samples", type=positive_int, default=5)
    p.add_argument("--chamber", type=parse_vector, default=None)
    p.add_argument("--tol", type=positive_tolerance, default=1e-6)

    p = sub.add_parser("orbit", help="orbit measures for a Hermitian pair")
    common(p)
    p.add_argument("--grid", type=parse_grid, default=None)
    p.add_argument("--zeta-samples", type=positive_int, default=3)
    p.add_argument("--chamber", type=parse_vector, default=None)
    p.add_argument("--measure", choices=("t", "k", "both"), default="both")
    p.add_argument("--tol", type=positive_tolerance, default=1e-6)

    p = sub.add_parser("verify", help="run cross-check suites")
    common(p, needs_input=False)
    p.add_argument(
        "--suites",
        default=None,
        help=f"comma list from {{{','.join(verify.SUITES)}}} (default all)",
    )
    p.add_argument("--samples", type=int, default=None,
                   help="Monte Carlo sample override")

    return top


_COMMANDS = {
    "cones": cmd_cones,
    "abelian": cmd_abelian,
    "orbit": cmd_orbit,
    "verify": cmd_verify,
}


_DASH_VALUE_FLAGS = {"--grid", "--xi", "--chamber"}


def _merge_dash_values(argv):
    """Join '--grid -3:3:9' into '--grid=-3:3:9' so argparse does not read
    the negative-leading value as an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _DASH_VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and not argv[i + 1].startswith("--")
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("DHK_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    argv = _merge_dash_values(sys.argv[1:] if argv is None else list(argv))
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        OSError,
        json.JSONDecodeError,
        KeyError,
        TypeError,
        ValueError,
    ) as exc:
        # printed, not logged: basicConfig's root handler would repeat it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
