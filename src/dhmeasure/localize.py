"""Fixed-point models and Duistermaat-Heckman synthesis.

A model records, for each torus fixed point p, the moment image and the list
of isotropy weights. Given a regular element xi of the torus Lie algebra,
every weight is flipped to pair positively with xi; the product of flip signs
becomes the sign of the point's Heaviside-convolution term. The resulting
signed cone spline is the pushforward measure, and its closed-form transform
matches the oscillatory fixed-point sum on the tube where both converge.
Both are compiled transforms of conespline; the fixed-point sum is compiled
once per model (FixedPointModel.transform).

renormalize(M, xi) makes that choice once. The RenormalizedModel it
returns is the chamber: its signed points give dh_measure's terms, and
its distinct flipped weights the tube of localization_sum (gamma_region
returns the same object, and dh_measure takes it in place of the model).
They span a proper cone, and xi is the certificate: it pairs strictly
positively with every one of them, and dh_measure passes it to each term,
so no term of a chamber runs an LP. A model with nonzero weights always
has a regular element, so validation searches for none (_seed_direction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import polycone
from .conespline import (
    CompiledTransform,
    ConeSplineTerm,
    SignedConeSpline,
    _compile,
    _evaluate,
    in_tube,
)
from .rational import dimension, is_zero_vec, rat_str, vdot, vec


class ModelValidationError(ValueError):
    pass


class NonRegularXiError(ValueError):
    pass


@dataclass(frozen=True)
class FixedPointDatum:
    label: str
    image: tuple  # moment image in the dual of the torus Lie algebra
    weights: tuple  # isotropy weights, one covector per normal direction


@dataclass(frozen=True)
class FixedPointModel:
    dim: int
    halfdim: int  # number of weights carried by every fixed point
    points: tuple
    energy_direction: tuple | None = None  # optional properness direction

    @cached_property
    def transform(self) -> CompiledTransform:
        """The fixed-point sum with the raw weights, sum over the points of
        e^{i<image, zeta>} * i^n / prod <w, zeta>, compiled once per model."""
        return _compile((1, p.image, p.weights) for p in self.points)


def fixed_point(image, weights, label=None) -> FixedPointDatum:
    return FixedPointDatum(
        "" if label is None else str(label),
        vec(image),
        tuple(vec(w) for w in weights),
    )


def model(dim, points, energy_direction=None) -> FixedPointModel:
    pts = []
    for i, p in enumerate(points):
        if not isinstance(p, FixedPointDatum):
            p = fixed_point(*p)
        if not p.label:
            p = FixedPointDatum(f"p{i}", p.image, p.weights)
        pts.append(p)
    halfdim = len(pts[0].weights) if pts else 0
    M = FixedPointModel(
        int(dim),
        halfdim,
        tuple(pts),
        vec(energy_direction) if energy_direction is not None else None,
    )
    validate_model(M)
    return M


def validate_model(M: FixedPointModel):
    """Raise ModelValidationError naming every issue of M. A model that
    passes has a regular element (_seed_direction), so none is searched
    for here."""
    issues = []
    if M.dim < 1:
        issues.append("dimension must be at least 1")
    if not M.points:
        issues.append("a model needs at least one fixed point")
    for p in M.points:
        if len(p.weights) != M.halfdim:
            issues.append("all fixed points must carry the same number of weights")
            break
    labels = [p.label for p in M.points]
    if len(set(labels)) != len(labels):
        issues.append("fixed-point labels must be distinct")
    for p in M.points:
        if len(p.image) != M.dim:
            issues.append(f"moment image of {p.label} has the wrong dimension")
        for w in p.weights:
            if len(w) != M.dim:
                issues.append(f"a weight of {p.label} has the wrong dimension")
            elif is_zero_vec(w):
                issues.append(f"{p.label} carries a zero weight")
    if M.energy_direction is not None and len(M.energy_direction) != M.dim:
        issues.append("energy direction has the wrong dimension")
    if not issues and M.energy_direction is not None and not is_regular(M, M.energy_direction):
        issues.append("energy direction pairs to zero with some weight")
    if issues:
        raise ModelValidationError("; ".join(issues))


def is_regular(M: FixedPointModel, xi) -> bool:
    """Exact check that xi avoids every weight hyperplane."""
    xi = vec(xi)
    return all(vdot(w, xi) != 0 for p in M.points for w in p.weights)


def _seed_direction(M: FixedPointModel):
    """Deterministic regular element: the energy direction if it works, else
    the first point (1, t, t^2, ...) of the moment curve off all hyperplanes.

    A nonzero weight pairs with (1, t, ..., t^(d-1)) to a nonzero polynomial
    in t of degree below d, which has at most d - 1 roots. The N weights of
    M thus rule out at most N(d - 1) values of t, and one of t = 1, ...,
    N(d - 1) + 1 is regular: only a zero weight, which validate_model
    rejects, exhausts that range."""
    if M.energy_direction is not None and is_regular(M, M.energy_direction):
        return M.energy_direction
    n = sum(len(p.weights) for p in M.points)
    for t in range(1, n * (M.dim - 1) + 2):
        xi = vec([t**j for j in range(M.dim)])
        if is_regular(M, xi):
            return xi
    raise NonRegularXiError("could not find a regular element")


def default_chamber(M: FixedPointModel):
    """Canonical chamber point: renormalize once with a deterministic seed,
    then take a rational interior point of the dual cone. The result pairs
    strictly positively with every renormalized weight, hence is regular."""
    xi = _seed_direction(M)
    R = renormalize(M, xi)
    return R.sample_interior() if R.factors else xi


# ---------------------------------------------------------------------------
# renormalization and synthesis


@dataclass(frozen=True)
class RenormalizedPoint:
    label: str
    image: tuple
    factors: tuple  # weights flipped to pair positively with xi
    sign: int  # product of the flips


@dataclass(frozen=True)
class RenormalizedModel:
    """A chamber: the points, weights flipped to pair positively with
    chamber_point, and the tube where Im(zeta) pairs positively with them."""

    dim: int
    chamber_point: tuple
    points: tuple

    @cached_property
    def factors(self):
        """The distinct flipped weights, in order of first appearance."""
        return tuple(dict.fromkeys(f for p in self.points for f in p.factors))

    @property
    def cone(self):
        """The dual cone in halfspace form (boundary included)."""
        return polycone.cone_from_normals(self.dim, self.factors)

    def contains_im(self, eta) -> bool:
        return in_tube(self.factors, [float(x) for x in eta])

    def sample_interior(self):
        """A rational point strictly inside the cone, scaled to primitive
        form; polycone finds it once per cone."""
        return polycone.interior_point(self.cone)

    @property
    def support_min(self):
        """Exact minimum of <mu, chamber_point> over the measure's support,
        which lies in cones bounded below along it, so is attained at an image."""
        return min(vdot(p.image, self.chamber_point) for p in self.points)


def renormalize(M: FixedPointModel, xi=None) -> RenormalizedModel:
    """Flip every weight to pair positively with xi (default: the canonical
    chamber point) and record the flip signs.

    Raises NonRegularXiError if xi pairs to zero with a weight. Otherwise
    xi pairs strictly positively with every flipped weight, which certifies
    that they span a proper cone.
    """
    xi = vec(default_chamber(M) if xi is None else xi)
    pts = []
    for p in M.points:
        sign = 1
        factors = []
        for w in p.weights:
            pairing = vdot(w, xi)
            if pairing == 0:
                raise NonRegularXiError(
                    f"xi pairs to zero with a weight of {p.label}"
                )
            if pairing > 0:
                factors.append(w)
            else:
                factors.append(tuple(-x for x in w))
                sign = -sign
        pts.append(RenormalizedPoint(p.label, p.image, tuple(factors), sign))
    return RenormalizedModel(M.dim, xi, tuple(pts))


def dh_measure(M, xi=None) -> SignedConeSpline:
    """Pushforward measure as a signed cone spline.

    xi picks the chamber; omitted, a deterministic interior point of the
    dual cone is used. Different regular xi give different-looking term data
    with the same total measure. M may also be a chamber already made, the
    RenormalizedModel of renormalize or gamma_region, whose terms are then
    read off with no second renormalization (xi is not given then).
    """
    if isinstance(M, RenormalizedModel):
        if xi is not None:
            raise ValueError("a renormalized model has its chamber already")
        R = M
    else:
        R = renormalize(M, xi)
    terms = tuple(ConeSplineTerm(p.sign, p.image, p.factors, R.chamber_point) for p in R.points)
    return SignedConeSpline(R.dim, terms)


def gamma_region(M: FixedPointModel, xi=None) -> RenormalizedModel:
    """The tube of the chamber of xi: the renormalized model itself."""
    return renormalize(M, xi)


def localization_sum(M: FixedPointModel, zeta, region: RenormalizedModel) -> complex:
    """Oscillatory fixed-point sum with the raw weights, at a zeta whose
    imaginary part lies in the given tube region."""
    if not region.contains_im([complex(z).imag for z in zeta]):
        raise NonRegularXiError("Im(zeta) is outside the convergence tube")
    return _evaluate(M.transform, zeta)


def tube_zetas(rng, direction, factors, count):
    """count zetas with Im strictly inside the tube of the factors.

    Im is direction * U(1.0, 1.8) plus U(-0.15, 0.15) per coordinate, or the
    direction itself where that leaves the tube, then scaled up so every
    factor decays at unit-length rate at least 0.8: that keeps truncation
    boxes and oscillation counts small. Re is U(-1, 1) per coordinate. Each
    zeta draws 1 + 2 * dim uniforms.
    """
    direction = np.array([float(x) for x in direction])
    norms = [math.sqrt(sum(float(a) ** 2 for a in f)) for f in factors]

    def slowest_rate(im):
        return min(
            (sum(float(a) * b for a, b in zip(f, im)) / n for f, n in zip(factors, norms)),
            default=math.inf,
        )

    if not slowest_rate(direction) > 0:
        raise ValueError("the direction is not strictly inside the tube")
    out = []
    for _ in range(count):
        im = direction * float(rng.uniform(1.0, 1.8)) + rng.uniform(
            -0.15, 0.15, size=len(direction)
        )
        m = slowest_rate(im)
        if not m > 0:
            im = direction
            m = slowest_rate(im)
        if m < 0.8:
            im = im * (0.8 / m)
        re = rng.uniform(-1.0, 1.0, size=len(direction))
        out.append(tuple(complex(r, i) for r, i in zip(re, im)))
    return out


# ---------------------------------------------------------------------------
# serialization


def model_to_json(M: FixedPointModel) -> dict:
    out = {
        "dim": M.dim,
        "halfdim": M.halfdim,
        "points": [
            {
                "image": [rat_str(x) for x in p.image],
                "weights": [[rat_str(x) for x in w] for w in p.weights],
            }
            for p in M.points
        ],
    }
    if M.energy_direction is not None:
        out["xi0"] = [rat_str(x) for x in M.energy_direction]
    return out


def model_from_json(data) -> FixedPointModel:
    pts = [fixed_point(p["image"], p["weights"]) for p in data["points"]]
    M = model(dimension(data["dim"]), pts, data.get("xi0"))
    if "halfdim" in data and dimension(data["halfdim"]) != M.halfdim:
        raise ModelValidationError("halfdim does not match the weight lists")
    return M
