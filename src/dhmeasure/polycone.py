"""Exact rational polyhedral sets and cones.

A polyhedral set is a finite intersection of half-spaces
{x : <normal, x> >= offset}; a cone is either an intersection of homogeneous
half-spaces ("halfspace form") or a nonnegative span of finitely many vectors
("generator form"). Every predicate is decided by exact rational LP or exact
linear algebra; there are no float tolerances anywhere in this module.

Duality is representation swapping: the dual of {x : <n_i, x> >= 0} is the
nonnegative span of the n_i, and vice versa. That keeps every operation free
of facet enumeration (extreme_rays exists for tests and consistency checks
on small instances only).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import lp
from .lp import EQ, GE, LE, constraint
from .rational import (
    ONE,
    ZERO,
    dimension,
    is_zero_vec,
    nullspace,
    primitive_ray,
    rank,
    rat,
    vdot,
    vec,
)


EXTREME_RAY_MAX_SUBSETS = 20000  # active sets extreme_rays may try


class InfeasibleSetError(ValueError):
    pass


class NotFullDimensionalError(ValueError):
    pass


@dataclass(frozen=True)
class HalfSpace:
    """{x : <normal, x> >= offset}."""

    normal: tuple
    offset: object

    def __post_init__(self):
        if is_zero_vec(self.normal):
            raise ValueError("half-space normal must be nonzero")


def halfspace(normal, offset=0) -> HalfSpace:
    return HalfSpace(vec(normal), rat(offset))


@dataclass(frozen=True)
class PolyhedralSet:
    dim: int
    halfspaces: tuple

    def __post_init__(self):
        for h in self.halfspaces:
            if len(h.normal) != self.dim:
                raise lp.DimensionMismatchError(
                    f"normal of length {len(h.normal)} in dimension {self.dim}"
                )

    def constraints(self):
        return [constraint(h.normal, GE, h.offset) for h in self.halfspaces]

    @cached_property
    def _feasibility(self):
        """The feasibility LP, solved once per set; every predicate reads it."""
        return lp.feasibility(self.constraints(), dim=self.dim)

    @cached_property
    def _trivial_recession(self):
        """Is the asymptotic cone {0}? Decided once per set, for is_compact
        and proper_projection_directions."""
        return _cone_is_trivial([h.normal for h in self.halfspaces], self.dim)

    def contains(self, x) -> bool:
        x = vec(x)
        return all(vdot(h.normal, x) >= h.offset for h in self.halfspaces)


def polyhedron(dim, halfspaces) -> PolyhedralSet:
    return PolyhedralSet(dim, tuple(halfspace(n, c) for n, c in halfspaces))


@dataclass(frozen=True)
class Cone:
    """Halfspace form, generator form, or both (then consistency is checkable)."""

    dim: int
    normals: tuple | None = None
    generators: tuple | None = None

    def __post_init__(self):
        if self.normals is None and self.generators is None:
            raise ValueError("cone needs normals or generators")
        for group in (self.normals, self.generators):
            if group is not None:
                for v in group:
                    if len(v) != self.dim:
                        raise lp.DimensionMismatchError(
                            f"vector of length {len(v)} in dimension {self.dim}"
                        )

    def contains(self, x) -> bool:
        x = vec(x)
        if self.normals is not None:
            return all(vdot(n, x) >= 0 for n in self.normals)
        # generator form: is x a nonnegative combination?
        return _combination(self.generators, x, 0) is not None


def cone_from_normals(dim, normals) -> Cone:
    return Cone(dim, normals=tuple(vec(n) for n in normals))


def cone_from_generators(dim, generators) -> Cone:
    return Cone(dim, generators=tuple(vec(g) for g in generators))


def is_feasible(P: PolyhedralSet) -> bool:
    return P._feasibility.status == lp.OPTIMAL


def feasible_point(P: PolyhedralSet):
    return P._feasibility.x


def asymptotic_cone(P: PolyhedralSet) -> Cone:
    """Recession directions: drop the offsets. Defined for empty P too."""
    return Cone(P.dim, normals=tuple(h.normal for h in P.halfspaces))


def dual_cone(C: Cone) -> Cone:
    """Dual of a halfspace-form cone is generated by its normals (and the
    dual of a generator-form cone is cut out by its generators). Each normal
    is nonnegative on C by C's own definition, so nothing is left to check."""
    if C.normals is not None:
        return Cone(C.dim, generators=C.normals)
    return Cone(C.dim, normals=C.generators)


def _combination(vectors, target, lower, free=0):
    """c with sum c_i v_i = target, c_i >= lower but for the last `free`, or
    None, by one LP whose bounds are variable bounds, not rows; lp checks a
    Farkas certificate, a c found is checked here."""
    k = len(vectors)
    cons = [constraint([v[j] for v in vectors], EQ, t) for j, t in enumerate(target)]
    res = lp.feasibility(cons, dim=k, lower=[lower] * (k - free) + [None] * free)
    if res.status != lp.OPTIMAL:
        return None
    c = res.x
    sums = [vdot(r.coeffs, c) for r in cons]
    if min(c[: k - free], default=lower) < lower or sums != list(target):
        raise AssertionError("combination certificate failed")  # pragma: no cover
    return c


def _cone_is_trivial(normals, dim, extra_eq=None) -> bool:
    """Is {x : <n,x> >= 0 for all n, extra_eq . x = 0} equal to {0}?

    Exactly when the normals and +-extra_eq positively span R^dim (Davis,
    1954): they span, and sum y_i n_i + t extra_eq = 0 with every y_i >= 1
    and t free. One exact rank and at most one LP decide it.
    """
    vectors = list(normals) if extra_eq is None else [*normals, extra_eq]
    if rank(vectors) < dim:
        return False
    free = len(vectors) - len(normals)
    return _combination(vectors, [ZERO] * dim, 1, free) is not None


def lineality_space(C: Cone):
    """Basis of the largest linear subspace inside a halfspace-form cone."""
    if C.normals is None:
        raise ValueError("halfspace form required")
    return nullspace([list(n) for n in C.normals], ncols=C.dim)


def cone_is_proper(C: Cone) -> bool:
    """No line through the origin; equivalently some functional is strictly
    positive on C minus the origin."""
    if C.normals is not None:
        return not lineality_space(C)
    gens = [g for g in C.generators if not is_zero_vec(g)]
    if not gens:
        return True
    return strict_positive_functional(gens) is not None


def strict_positive_functional(vectors):
    """Exact eta with <v, eta> >= 1 for every v, or None (Gordan's side)."""
    vectors = [vec(v) for v in vectors]
    if not vectors:
        return None
    d = len(vectors[0])
    cons = [constraint(v, GE, 1) for v in vectors]
    res = lp.feasibility(cons, dim=d)
    return res.x if res.status == lp.OPTIMAL else None


def is_proper(P: PolyhedralSet) -> bool:
    """Properness of the asymptotic cone. Errors when P is empty."""
    if not is_feasible(P):
        raise InfeasibleSetError("properness is undefined for an empty set")
    return cone_is_proper(asymptotic_cone(P))


def bounded_below(P: PolyhedralSet, xi) -> bool:
    """Is <xi, .> bounded from below on P? Decided by LP minimization."""
    xi = vec(xi)
    res = lp.solve_lp(xi, P.constraints())
    if res.status == lp.INFEASIBLE:
        raise InfeasibleSetError("boundedness is undefined for an empty set")
    return res.status == lp.OPTIMAL


def proper_projection_directions(P: PolyhedralSet, xi) -> bool:
    """Is x -> <xi, x> a proper map on P (preimages of compacts compact)?

    Exactly when the asymptotic cone meets ker xi only at 0, that is when
    P's normals and +-xi positively span R^dim. A trivial asymptotic cone
    (the set's cached compactness answer) settles it; otherwise one rank and
    at most one LP decide it. For pointed asymptotic cones this is xi lying
    in +-Int of the dual cone.
    """
    xi = vec(xi)
    if not is_feasible(P):
        raise InfeasibleSetError("projection properness is undefined for an empty set")
    if P._trivial_recession:
        return True
    return _cone_is_trivial(asymptotic_cone(P).normals, P.dim, extra_eq=xi)


def generator_directions(C: Cone, xi) -> tuple:
    """(bounded_below, proper_projection) of <xi, .> on a generator-form
    cone, from the signs of <xi, g> over its nonzero generators g, with no
    LP. It is bounded below iff no sign is negative. It is proper iff no
    sign is zero and the signs agree, or the generators span a line (a
    line through 0 meets ker xi only at 0 when xi is not 0 on it)."""
    xi, gens = vec(xi), [g for g in C.generators if not is_zero_vec(g)]
    signs = {(p > 0) - (p < 0) for p in (vdot(xi, g) for g in gens)}
    return -1 not in signs, 0 not in signs and (len(signs) < 2 or rank(gens) == 1)


def is_compact(P: PolyhedralSet) -> bool:
    """Compact iff feasible with trivial asymptotic cone, i.e. positively
    spanning normals: one rank and at most one LP beside P's feasibility LP,
    each solved once per set."""
    if not is_feasible(P):
        raise InfeasibleSetError("compactness check on an empty set")
    return P._trivial_recession


def interior_point(C: Cone):
    """A point with every defining inequality strict, by slack maximization.

    Halfspace form: maximize t subject to <n_i, x> >= t, t <= 1; for a cone
    the optimum is 1 exactly when C is full-dimensional. Generator form: the
    sum of the generators, valid once they span. Deterministic given input
    order, so the halfspace LP runs once per cone; the returned point is
    scaled to a primitive integer vector.
    """
    if C.normals is not None:
        return _slack_interior_point(C.dim, C.normals)
    gens = [g for g in C.generators if not is_zero_vec(g)]
    if rank([list(g) for g in gens]) < C.dim:
        raise NotFullDimensionalError("generators do not span")
    total = [ZERO] * C.dim
    for g in gens:
        for j in range(C.dim):
            total[j] += g[j]
    return primitive_ray(total)


@lru_cache(maxsize=1024)
def _slack_interior_point(d, normals):
    """interior_point of a halfspace-form cone, memoised per (dim, normals):
    the LP is deterministic, so every call on one cone returns one point. A
    cone without interior is not cached and raises on every call."""
    if not normals:
        return tuple([ONE] + [ZERO] * (d - 1)) if d else ()
    cons = []
    for n in normals:
        cons.append(constraint(list(n) + [-ONE], GE, 0))
    tsel = [ZERO] * d + [ONE]
    cons.append(constraint(tsel, LE, 1))
    res = lp.solve_lp(tsel, cons, maximize=True)
    if res.status != lp.OPTIMAL or res.objective <= 0:
        raise NotFullDimensionalError("cone has empty interior")
    x = primitive_ray(res.x[:d])
    if any(vdot(n, x) <= 0 for n in normals):  # pragma: no cover
        raise AssertionError("interior point certificate failed")
    return x


def extreme_rays(C: Cone):
    """Extreme rays of a pointed halfspace-form cone by active-set search.

    Exponential in principle; guarded by EXTREME_RAY_MAX_SUBSETS and meant
    for test-size instances and cross-representation consistency checks.
    """
    if C.normals is None:
        raise ValueError("halfspace form required")
    if not cone_is_proper(C):
        raise ValueError("extreme rays of a non-pointed cone")
    d = C.dim
    normals = [list(n) for n in C.normals]
    if d == 0:
        return []
    count = 0
    seen = set()
    rays = []
    for S in itertools.combinations(range(len(normals)), d - 1):
        count += 1
        if count > EXTREME_RAY_MAX_SUBSETS:
            raise ValueError("too many subsets for extreme ray enumeration")
        ker = nullspace([normals[i] for i in S], ncols=d)
        if len(ker) != 1:
            continue
        for v in (ker[0], tuple(-x for x in ker[0])):
            if all(vdot(n, v) >= 0 for n in normals):
                p = primitive_ray(v)
                if p not in seen:
                    seen.add(p)
                    rays.append(p)
    return rays


def cone_consistency_check(C: Cone) -> bool:
    """When both representations are present, do they describe the same set?

    The halfspace cone H is its lineality space L plus the pointed cone
    H meet L-perp, cut out by H's normals and +-each basis vector of L. So
    H equals the generated cone G exactly when every generator lies in H,
    +-each basis vector of L lies in G, and so does every extreme ray of
    H meet L-perp.
    """
    if C.normals is None or C.generators is None:
        return True
    H = Cone(C.dim, normals=C.normals)
    if not all(H.contains(g) for g in C.generators):
        return False
    G = Cone(C.dim, generators=C.generators)
    lines = [w for v in lineality_space(H) for w in (v, tuple(-x for x in v))]
    pointed = Cone(C.dim, normals=(*C.normals, *lines))
    return all(G.contains(v) for v in (*lines, *extreme_rays(pointed)))


# ---------------------------------------------------------------------------
# reading from JSON: rationals as strings like "5" or "-2/3" (decimals accepted)


def polyhedron_from_json(data) -> PolyhedralSet:
    dim = dimension(data["dim"])
    hs = [
        (vec(h["normal"]), rat(h["offset"]))
        for h in data.get("halfspaces", [])
    ]
    return polyhedron(dim, hs)


def cone_from_json(data) -> Cone:
    dim = dimension(data["dim"])
    normals = None
    if "halfspaces" in data:
        for h in data["halfspaces"]:
            if rat(h.get("offset", 0)) != 0:
                raise ValueError("cone half-spaces must pass through the origin")
        normals = tuple(vec(h["normal"]) for h in data["halfspaces"])
    generators = None
    if "generators" in data:
        generators = tuple(vec(g) for g in data["generators"])
    return Cone(dim, normals=normals, generators=generators)
