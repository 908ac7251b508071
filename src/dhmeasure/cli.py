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
import itertools
import json
import logging
import math
import os
import sys
from decimal import Decimal
from functools import cache

from . import conespline, hermitian, localize, oracle, polycone, verify
from .conespline import atomic_write_text
from .rational import rat, rat_str, vec

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


def grid_points(axes):
    """The grid's points, exact: lo + k * (hi - lo) / (count - 1) per axis,
    or lo alone when count is 1."""
    lin = [
        [lo + k * (hi - lo) / (count - 1) for k in range(count)] if count > 1 else [lo]
        for lo, hi, count in axes
    ]
    return list(itertools.product(*lin))


def default_grid(images, dim, count=25):
    """Per axis, from a quarter of the images' span (at least 1) below them
    to three quarters above, exact."""
    axes = []
    for j in range(dim):
        lo = min(im[j] for im in images)
        hi = max(im[j] for im in images)
        span = max(hi - lo, 1)
        axes.append((lo - span / 4, hi + 3 * span / 4, count))
    return tuple(axes)


def write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _finite_number(text):
    """JSON number hook: Infinity, NaN and overflowing literals are bad input."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in input JSON")
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
                value = (Decimal(x.numerator) / x.denominator).normalize()
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


# ---------------------------------------------------------------------------
# cones


def _check_directions(args, dim):
    """Every --xi must have the input's dimension; checked before any LP."""
    for xi in args.xi:
        if len(xi) != dim:
            raise ValueError(
                f"--xi has {len(xi)} coordinates but the input has dimension {dim}"
            )


def cmd_cones(args) -> int:
    data = _load_json(args.input)
    report = {"input": args.input}
    if "halfspaces" in data and "generators" not in data:
        P = polycone.polyhedron_from_json(data)
        _check_directions(args, P.dim)
        report["kind"] = "polyhedron"
        report["dim"] = P.dim
        feas = polycone.is_feasible(P)
        report["feasible"] = feas
        if feas:
            report["feasible_point"] = [rat_str(x) for x in polycone.feasible_point(P)]
            report["compact"] = polycone.is_compact(P)
            report["proper"] = polycone.is_proper(P)
            per_xi = []
            for xi in args.xi:
                per_xi.append(
                    {
                        "xi": [rat_str(x) for x in xi],
                        "bounded_below": polycone.bounded_below(P, xi),
                        "proper_projection": polycone.proper_projection_directions(P, xi),
                    }
                )
            if per_xi:
                report["directions"] = per_xi
    else:
        C = polycone.cone_from_json(data)
        _check_directions(args, C.dim)
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
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# transform checks and density grids, shared by abelian and orbit


def _chamber(args, dim):
    """--chamber if given (None otherwise), checked against the dimension."""
    if args.chamber is not None and len(args.chamber) != dim:
        raise ValueError(
            f"--chamber has {len(args.chamber)} coordinates but the model "
            f"has dimension {dim}"
        )
    return args.chamber


def _localization_samples(S, M, region, rng, count):
    """Draw count zetas in the region's tube, around its interior direction,
    and at each compare the spline's closed transform with the fixed-point
    sum, in that order."""
    samples = []
    direction = region.sample_interior()
    for zeta in localize.tube_zetas(rng, direction, region.factors, count):
        closed = conespline.spline_laplace(S, zeta)
        loc = localize.localization_sum(M, zeta, region)
        samples.append(
            {
                "zeta": [[z.real, z.imag] for z in zeta],
                "spline_transform": [closed.real, closed.imag],
                "localization_sum": [loc.real, loc.imag],
                "rel_difference": abs(closed - loc) / max(abs(loc), 1e-300),
            }
        )
    return samples


def _worst(samples):
    return max((s["rel_difference"] for s in samples), default=0.0)


def _write_density(path, S, points):
    rows = []
    for mu in points:
        dv = conespline.spline_density(S, mu)
        rows.append((mu, dv.value, dv.abs_error_bound))
    conespline.write_density_csv(path, S.dim, rows)


# ---------------------------------------------------------------------------
# abelian models


def cmd_abelian(args) -> int:
    M = localize.model_from_json(_load_json(args.input))
    _check_float_range("model", [v for p in M.points for v in (p.image, *p.weights)])
    xi = _chamber(args, M.dim) or localize.default_chamber(M)
    S = localize.dh_measure(M, xi)
    region = localize.gamma_region(M, xi)
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
        "support_min": rat_str(localize.support_min(M, xi)),
    }
    samples = _localization_samples(S, M, region, rng, args.zeta_samples)
    report["laplace_samples"] = samples
    report["laplace_worst_rel"] = _worst(samples)
    report["laplace_tol"] = args.tol
    report["passed"] = report["laplace_worst_rel"] <= args.tol

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        axes = args.grid or default_grid([p.image for p in M.points], M.dim)
        _write_density(os.path.join(args.out, "density.csv"), S, grid_points(axes))
        write_json(os.path.join(args.out, "spline.json"), conespline.spline_to_json(S))
        write_json(os.path.join(args.out, "report.json"), report)
        log.info("wrote %s", args.out)
    else:
        _emit(report, None)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# orbits


def cmd_orbit(args) -> int:
    O = hermitian.orbit_from_json(_load_json(args.input))
    _check_float_range("lambda", [O.lam_native])
    pair = O.pair
    om = O.model
    M = om.model
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

    want_t = args.measure in ("t", "both")
    want_k = args.measure in ("k", "both")
    passed = True
    chamber = _chamber(args, pair.rank)

    St = Sk = None
    if want_t:
        xi = chamber or om.chamber
        St = hermitian.t_type_measure(O, xi)
        region = localize.gamma_region(M, xi)
        samples = _localization_samples(St, M, region, rng, args.zeta_samples)
        worst = _worst(samples)
        report["t_measure"] = {
            "chamber": [rat_str(x) for x in xi],
            "terms": len(St.terms),
            "localization_samples": samples,
            "localization_worst_rel": worst,
        }
        passed = passed and worst <= args.tol

    if want_k:
        Sk = hermitian.k_type_measure(O)
        zsamples = []
        for zeta in localize.tube_zetas(
            rng, pair.center_vector, pair.noncompact, args.zeta_samples
        ):
            symbolic = hermitian.laplace_nu_symbolic(O, zeta)
            numeric, _ = oracle.numeric_laplace_spline(Sk, zeta, method="mapped")
            zsamples.append(
                {
                    "zeta": [[z.real, z.imag] for z in zeta],
                    "symbolic": [symbolic.real, symbolic.imag],
                    "numeric": [numeric.real, numeric.imag],
                    "rel_difference": abs(symbolic - numeric)
                    / max(abs(symbolic), 1e-300),
                }
            )
        worst = _worst(zsamples)
        report["k_measure"] = {
            "terms": len(Sk.terms),
            "wall_polynomial": Sk.poly.to_json() if Sk.poly is not None else None,
            "symbolic_vs_numeric": zsamples,
            "worst_rel": worst,
        }
        passed = passed and worst <= args.tol

    report["tol"] = args.tol
    report["passed"] = passed

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        axes = args.grid or default_grid([p.image for p in M.points], pair.rank)
        pts = grid_points(axes)
        write_json(os.path.join(args.out, "weyl.json"), hermitian.weyl_to_json(pair))
        for tag, S in (("t", St), ("k", Sk)):
            if S is None:
                continue
            write_json(
                os.path.join(args.out, f"{tag}_spline.json"),
                conespline.spline_to_json(S),
            )
            _write_density(os.path.join(args.out, f"{tag}_density.csv"), S, pts)
        write_json(os.path.join(args.out, "report.json"), report)
        log.info("wrote %s", args.out)
    else:
        _emit(report, None)
    return 0 if passed else 1


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
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
