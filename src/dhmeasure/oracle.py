"""Brute-force verifiers, each independent of the engine path it checks.

Densities are recomputed exactly, as fiber volumes by Lasserre's facet
recursion, where the engine recurses over bases. Pushforwards are sampled
by Monte Carlo on the model space, and partition counts are found by
fiber enumeration over a weight basis, in integer arithmetic; none of the
three uses the engine. Transforms have two routes, and the caller names
one. The box route takes one-dimensional splines without a multiplier:
it integrates its own closed-form line density (line_density, each term
a truncated power on one side of its base) by one quadrature, so it
checks the closed-form transform against a density written apart from
the engine; its truncation interval and tail bound are closed forms, from
one pass over the terms (_line_truncation). The mapped route writes each
term in orthant coordinates and sums closed-form one-dimensional moments.
Its multiplier is split at the term's base into exact Taylor coefficients
(_taylor_table) and the base-free expansions of the orthant substitution
(_orthant_poly), cached per factor tuple and multiplier exponents and so
shared by every term and every orbit of a family; a zeta needs one table
of moment sums per factor tuple. It reads only the spline's terms and
multiplier, shares no code with the closed-form or symbolic transforms,
and calls no scipy function. Without a multiplier it reduces, by Fubini,
to the same product of factor transforms as conespline.laplace_factor.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from . import polycone
from .rational import ONE, ZERO, PureDeltaError, det, integer_vector, rank, rat, solve, vec

log = logging.getLogger("dhmeasure")


class ImproperConeError(ValueError):
    pass


FIBER_MAX_DIM = 8  # most non-basis factors of fiber_volume
MONTECARLO_CHUNKS = 8  # generator streams per Monte-Carlo run, keyed (seed, chunk)
LATTICE_MAX_NODES = 20_000_000  # enumeration bound of lattice_count


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the box route's quadrature
    (numeric_laplace_spline(method="box"))."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class MonteCarloConfig:
    seed: int = 0
    samples: int = 100_000
    cutoff_radius: float = 4.0
    bins: int = 24

    def __post_init__(self):
        for name in ("samples", "bins"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} {value!r} is not an integer")
        if self.samples < 10_000:
            raise ValueError("need at least 10^4 samples")
        if self.bins < 2:
            raise ValueError("need at least 2 bins per axis")
        r = self.cutoff_radius
        if isinstance(r, bool) or not (
                isinstance(r, numbers.Real) and math.isfinite(r) and r > 0):
            raise ValueError(f"cutoff_radius {r!r} is not a finite number > 0")
        s = self.seed
        if isinstance(s, bool) or not (isinstance(s, numbers.Integral) and 0 <= s < 2**64):
            raise ValueError(f"seed {s!r} is not an integer in [0, 2^64)")


def _positive_functional(factors):
    """Rational eta with <b, eta> >= 1 for every factor, or error."""
    eta = polycone.strict_positive_functional([vec(f) for f in factors])
    if eta is None:
        raise ImproperConeError("factors do not span a proper cone")
    return eta


# ---------------------------------------------------------------------------
# exact fiber volumes


def fiber_volume(factors, x):
    """Density of the factor convolution at x, exactly: the volume of the
    closed fiber {s >= 0 : B s = x}, B's columns the factors.

    One Gauss-Jordan pass on [B | x] picks a basis C among the factors,
    whose pivots multiply to +-det C, and leaves the fiber as the polytope
    {y >= 0 : C^-1 N y <= C^-1 x} over the other factors N. The density is
    its (n - d)-volume over |det C|.
    """
    B = [vec(f) for f in factors]
    x = vec(x)
    d, n = len(x), len(B)
    if not B:
        raise ValueError("no factors to convolve")
    if any(len(b) != d for b in B):
        raise ValueError("point/factor dimension mismatch")
    _positive_functional(B)
    rows = [[b[r] for b in B] + [x[r]] for r in range(d)]
    pivots, det_c = [], ONE
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, d) if rows[i][c] != 0), None)
        if p is not None:
            rows[r], rows[p] = rows[p], rows[r]
            det_c *= rows[r][c]
            rows[r] = [a / rows[r][c] for a in rows[r]]
            rows = [row if i == r or row[c] == 0
                    else [a - row[c] * b for a, b in zip(row, rows[r])]
                    for i, row in enumerate(rows)]
            pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    if len(pivots) < d:
        raise ValueError("the factors do not span the space")
    if len(free) > FIBER_MAX_DIM:
        raise ValueError("fiber dimension exceeds the facet recursion's limit")
    facets = [([row[c] for c in free], row[n]) for row in rows]
    facets += [([-ONE if c == j else ZERO for c in free], ZERO) for j in free]
    return _polytope_volume(facets, len(free)) / abs(det_c)


def _polytope_volume(rows, k):
    """k-volume of {y in R^k : a.y <= b for (a, b) in rows}, a bounded set,
    by Lasserre's facet recursion (J. Optim. Theory Appl. 39, 1983;
    Bueler-Enge-Fukuda, 2000): k vol = sum_i b_i vol(F_i), F_i the facet
    a_i.y = b_i with y_j substituted away, for rows scaled so that their
    first nonzero entry a_ij is +-1 and kept once, as a repeated facet
    would count twice. A zero row with b < 0 empties the set."""
    kept = {}
    for a, b in rows:
        j = next((j for j, v in enumerate(a) if v != 0), None)
        if j is None and b < 0:
            return ZERO
        if j is not None:
            kept[(tuple(v / abs(a[j]) for v in a), b / abs(a[j]))] = j
    if k == 0:
        return ONE
    if k == 1:  # the interval -y <= -lo, y <= hi
        return max(min(b for (a,), b in kept if a > 0) + min(b for (a,), b in kept if a < 0), ZERO)
    total = ZERO
    for (a, b), j in kept.items():
        if b == 0:
            continue
        facet = []  # every row with y_j = a_j (b - sum_{i != j} a_i y_i)
        for c, e in kept:
            f = c[j] * a[j]
            facet.append(([u - f * v for i, (u, v) in enumerate(zip(c, a)) if i != j], e - f * b))
        total += b * _polytope_volume(facet, k - 1)
    return total / k


def quadrature_convolution(factors, mu, cfg: QuadratureConfig | None = None):
    """fiber_volume at mu as (float value, bound on its rounding): 0.0 when
    the float is exact, one ulp otherwise. cfg is ignored."""
    v = fiber_volume(factors, mu)
    f = float(v)
    return f, 0.0 if rat(f) == v else math.ulp(f)


# ---------------------------------------------------------------------------
# damped numeric transforms


def _line_truncation(S, im, decay_log: float):
    """Truncation interval and tail bound of the box route on a
    one-dimensional spline, with im = Im zeta, in one pass over the terms.

    A factor b is damped when b * im > 0, checked exactly. Inside the
    damping slab (mu - base) * im <= L, a term's mass lies between base and
    base + L / im, the vertex of every factor. The interval is the exact
    range of those ends, padded outward in floats. Outside the slab, in
    factor coordinates, a term discards the tail of a Gamma(n) law:
    (prod_j b_j im)^(-1) e^(-L) sum_{k<n} L^k / k!, damped at its base. The
    tail bound sums these. Returns (lo, hi, tail_bound).
    """
    im_q, L, Lf = rat(im), rat(float(decay_log)), float(decay_log)
    ends = []
    tail = 0.0
    for t in S.terms:
        if any(f[0] * im_q <= 0 for f in t.factors):
            raise ValueError("Im(zeta) does not damp every factor direction")
        ends += [t.base[0], t.base[0] + L / im_q]
        prod_c = math.prod(float(f[0]) * im for f in t.factors)
        gam = sum(Lf**k / math.factorial(k) for k in range(len(t.factors)))
        tail += math.exp(-float(t.base[0]) * im) * math.exp(-Lf) * gam / prod_c
    lo, hi = float(min(ends)), float(max(ends))
    pad = 1e-9 * (1.0 + abs(lo) + abs(hi))
    return lo - pad, hi + pad, tail


def line_density(S):
    """The density of a one-dimensional spline with no multiplier, as a
    function of (x,): per term the truncated power sign * y^(n-1) /
    ((n-1)! prod |b_i|) at y = s (x - base) >= 0, with s the common sign
    of its (proper) factors b_i, and 0 elsewhere; closed at the base. Exact
    at a rational x, a float at a float x."""
    if S.poly is not None:
        raise ValueError("the box route takes no polynomial multiplier")
    if S.dim != 1:
        raise ValueError("the box route takes one-dimensional splines only")
    if S.nfactors == 0 and S.terms:
        raise PureDeltaError("point-mass spline has no density function")
    exact = []
    for t in S.terms:
        b = [f[0] for f in t.factors]
        c = ONE / (math.factorial(len(b) - 1) * math.prod(abs(x) for x in b))
        exact.append((t.sign * c, 1 if b[0] > 0 else -1, t.base[0], len(b) - 1))
    # float constants keep a float x in floats: an mpq scalar would make it an mpfr
    floats = [(float(c), s, float(base), k) for c, s, base, k in exact]

    def density(point):
        (x,) = point
        terms, total = (floats, 0.0) if isinstance(x, float) else (exact, ZERO)
        for c, s, base, k in terms:
            y = s * (x - base)
            if y >= 0:
                total += c * y**k
        return total

    return density


def _lower_set(e):
    """Every multi-index beta <= e, in lexicographic order."""
    return itertools.product(*(range(k + 1) for k in e))


@lru_cache(maxsize=64)
def _shift_plan(coeffs):
    """The base-free half of the Taylor shift of a multiplier P, given by its
    (exponent, coefficient) pairs: P(base + y) = sum_beta T_beta y^beta with

        T_beta = d^beta P(base) / beta! = sum_{e >= beta} c_e C(e, beta) base^(e - beta),

    C(e, beta) the product of binomials. Returns (betas, den, top, rows):
    betas the multi-indices below some exponent, sorted; c_e = n_e / den
    over the common denominator; top the degree of P; rows[b] the pairs
    (index of e - beta in betas, n_e C(e, beta)) of betas[b]."""
    betas = tuple(sorted({b for e, _ in coeffs for b in _lower_set(e)}))
    index = {b: i for i, b in enumerate(betas)}
    den = math.lcm(*(int(c.denominator) for _, c in coeffs))
    top = max((sum(e) for e, _ in coeffs), default=0)
    rows = [[] for _ in betas]
    for e, c in coeffs:
        n = int(c.numerator) * (den // int(c.denominator))
        for b in _lower_set(e):
            binom = math.prod(math.comb(x, y) for x, y in zip(e, b))
            rows[index[b]].append((index[tuple(x - y for x, y in zip(e, b))], n * binom))
    return betas, den, top, tuple(map(tuple, rows))


@lru_cache(maxsize=256)
def _taylor_table(coeffs, bases):
    """(betas of _shift_plan(coeffs), per base ((beta index, T_beta), ...)
    for its nonzero Taylor coefficients). Exact in Python ints: with
    base = image / L, T_beta is sum n_e C(e, beta) image^g L^(top - |g|)
    over den L^top, g = e - beta, and one int true division rounds it."""
    betas, den, top, rows = _shift_plan(coeffs)
    out = []
    for base in bases:
        image, L = integer_vector(base)
        mono = [math.prod(x**k for x, k in zip(image, g)) * L ** (top - sum(g)) for g in betas]
        scale = den * L**top
        out.append(tuple((b, n / scale) for b, row in enumerate(rows)
                         if (n := sum(a * mono[g] for g, a in row))))
    return betas, tuple(out)


@lru_cache(maxsize=128)
def _orthant_poly(factors, betas):
    """The base-free substitution of the mapped route for one factor tuple F:
    each (F^T s)^beta = prod_i (sum_j F_ji s_j)^(beta_i) expanded over
    orthant monomials in s, exactly, and rounded once. betas is a lower set
    (the multiplier's, from _shift_plan), so each beta extends an earlier
    one by a linear form. Cached: every term and every orbit with these
    factors and this multiplier's exponents shares it.

    Returns (float factors, top degree per factor, monomials, rows), rows[b]
    the pairs (monomial index, float coefficient) of betas[b].
    """
    n = len(factors)
    forms = {}  # coordinate i -> the linear form sum_j F_ji s_j, built on first use
    expansions = {}
    for beta in betas:
        if not any(beta):
            expansions[beta] = {(0,) * n: 1}
            continue
        i = max(i for i, k in enumerate(beta) if k)
        if i not in forms:
            # integral entries as ints, so that the expansion runs in int arithmetic
            forms[i] = [(j, int(f[i]) if f[i].denominator == 1 else f[i])
                        for j, f in enumerate(factors) if f[i] != 0]
        acc = {}
        for es, c in expansions[beta[:i] + (beta[i] - 1,) + beta[i + 1:]].items():
            for j, x in forms[i]:
                e = es[:j] + (es[j] + 1,) + es[j + 1:]
                acc[e] = acc.get(e, 0) + c * x
        expansions[beta] = {e: c for e, c in acc.items() if c != 0}
    index = {}  # monomial -> its index, in order of first appearance
    rows = tuple(tuple((index.setdefault(e, len(index)), float(c))
                       for e, c in expansions[b].items()) for b in betas)
    monomials = tuple(index)
    top = tuple(map(max, zip(*monomials))) if monomials else (0,) * n
    return tuple(tuple(map(float, f)) for f in factors), top, monomials, rows


def _pairing(f, zeta) -> complex:
    """w = <f, zeta> for a factor f, which zeta must damp: Im w > 0."""
    w = complex(sum(float(x) * z for x, z in zip(f, zeta)))
    if w.imag <= 0:
        raise ValueError("Im(zeta) does not damp every factor direction")
    return w


def _moment_sums(substitution, zeta):
    """M_beta = int_{s >= 0} (F^T s)^beta e^{i<F^T s, zeta>} ds for each row
    of the substitution: with w_j = <f_j, zeta>, the kernel splits into one
    factor e^{i s_j w_j} per factor and each orthant monomial into a
    product of one-dimensional moments, exact when Im w > 0:

        int_0^inf s^k e^{isw} ds = k! (i/w)^{k+1}.
    """
    factors, top, monomials, rows = substitution
    tables = []
    for f, k_top in zip(factors, top):
        ratio = 1j / _pairing(f, zeta)
        moments = [ratio]
        for k in range(1, k_top + 1):
            moments.append(moments[-1] * k * ratio)
        tables.append(moments)
    products = []
    for es in monomials:
        m = 1.0
        for moments, k in zip(tables, es):
            m *= moments[k]
        products.append(m)
    return [sum(c * products[i] for i, c in row) for row in rows]


def _mapped_transform(S, zeta) -> complex:
    """The mapped route: per term, sign * e^{i<base, zeta>} * sum_beta
    T_beta M_beta. Without a multiplier (P = 1, T_0 = 1, M_0 the product
    of the first moments i/w_j) that is Fubini's product, formed directly."""
    value = 0.0 + 0.0j
    if S.poly is None:
        for term in S.terms:
            m = 1.0
            for f in term.factors:
                m *= 1j / _pairing(f, zeta)
            phase = np.exp(1j * sum(float(b) * z for b, z in zip(term.base, zeta)))
            value += term.sign * complex(m * phase)
        return value
    betas, table = _taylor_table(S.poly.coeffs, tuple(t.base for t in S.terms))
    factors = None
    for term, taylor in zip(S.terms, table):
        # terms sharing a factor tuple sit together (a reduced measure's
        # terms all share one), so a comparison finds each group's end
        if term.factors != factors:
            factors = term.factors
            sums = _moment_sums(_orthant_poly(factors, betas), zeta)
        phase = np.exp(1j * sum(float(b) * z for b, z in zip(term.base, zeta)))
        value += term.sign * complex(sum(t * sums[b] for b, t in taylor) * phase)
    return value


def numeric_laplace_spline(S, zeta, cfg: QuadratureConfig | None = None,
                           decay_log: float = 30.0, *, method: str):
    """Transform of a spline's density by the named numeric route.

    Returns (value, tail_bound). method="box" integrates line_density, the
    density of a one-dimensional spline, times the oscillating kernel by
    one quadrature over a truncation interval holding all but
    e^(-decay_log) of the damped mass, and bounds the rest
    (_line_truncation, closed form); it takes no polynomial multiplier.
    cfg and decay_log set only this route. method="mapped" writes each term
    in orthant coordinates, where the kernel splits into closed-form
    one-dimensional moments (any volume dimension, polynomial multipliers
    included); it truncates nothing, so its tail bound is 0.0.
    """
    zeta = tuple(complex(z) for z in zeta)
    if method == "mapped":
        return complex(_mapped_transform(S, zeta)), 0.0
    if method != "box":
        raise ValueError("method must be 'box' or 'mapped'")
    density = line_density(S)
    if not S.terms:
        return 0j, 0.0
    (z,) = zeta
    lo, hi, tail = _line_truncation(S, z.imag, decay_log)
    cfg = cfg or QuadratureConfig()

    def integrand(t):
        v = density((t,))
        if v == 0.0:
            return 0.0 + 0.0j
        return v * np.exp(1j * ((t - lo) * z))

    # the kernel's value at lo is applied after integrating, so the
    # quadrature works at order-one scale even deep in the damping region
    val, _ = integrate.quad(integrand, lo, hi, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                            limit=200, complex_func=True)
    return complex(val * np.exp(1j * (lo * z))), tail


# ---------------------------------------------------------------------------
# Monte-Carlo pushforward on the model space


@dataclass(frozen=True)
class DensityTable:
    dim: int
    edges: tuple  # per-axis bin edges
    counts: tuple  # flattened int counts, C order
    density: tuple  # flattened empirical density (coordinate Lebesgue)
    sigma: tuple  # flattened one-standard-deviation error bars
    samples: int
    seed: int

    def centers(self):
        """Bin centres, in the C order of the flattened counts."""
        axes = ([(e[i] + e[i + 1]) / 2 for i in range(len(e) - 1)] for e in self.edges)
        return list(itertools.product(*axes))


def _axis_bins(x, e):
    """np.histogramdd's index of each x on one axis with edges e.

    That is searchsorted(e, x, "right"), except that x == e[-1] takes the
    last bin: indices 1..len(e)-1 are the bins, 0 and len(e) the outliers.
    The edges come from linspace, so the index is first guessed from their
    uniform spacing, then moved a step at a time until the edge array
    itself brackets x: lower[i] <= x < upper[i].
    """
    bins = len(e) - 1
    top = np.nextafter(e[-1], np.inf)
    lower = np.concatenate(([-np.inf], e[:-1], [top]))
    upper = np.concatenate((e[:-1], [top, np.inf]))
    span = e[-1] - e[0]
    q = np.clip(x, e[0], e[-1])
    q -= e[0]
    q *= bins / span if span > 0 else 0.0
    q += 1.0
    i = q.astype(np.intp)
    while True:
        down = x < lower.take(i)
        up = x >= upper.take(i)
        if not (down.any() or up.any()):
            return i
        i -= down
        i += up


def _bin_counts(mu, edges):
    """np.histogramdd(mu, bins=edges)[0] as int64, flattened in C order.

    The per-axis indices, outlier bins included, are raveled into one
    index, counted by one bincount, and the outlier bins are dropped.
    """
    d = mu.shape[1]
    width = len(edges[0]) + 1  # bins plus an outlier bin at each end
    cols = np.ascontiguousarray(mu.T)
    flat = _axis_bins(cols[0], edges[0])
    for j in range(1, d):
        flat *= width
        flat += _axis_bins(cols[j], edges[j])
    h = np.bincount(flat, minlength=width**d).reshape((width,) * d)
    return h[(slice(1, -1),) * d].reshape(-1)


def _ball_image(rng, m, R, phi0, A):
    """m images phi0 + sum (|z_i|^2 / 2) A[i] of z uniform in the radius-R
    ball of C^n, n = len(A): m x 2n normals, then m uniforms, from rng."""
    n = len(A)
    g = rng.standard_normal((m, 2 * n))
    # the bits of np.linalg.norm: numpy sums a row pairwise, which below 8
    # terms is a plain left-to-right sum; a row-wise reduce costs the same
    # whatever the row length, several times a column sum of 2n < 8 terms
    if 2 * n < 8:
        norm = g[:, 0] * g[:, 0]
        for col in g.T[1:]:
            norm += col * col
    else:
        norm = np.add.reduce(g * g, axis=1)
    np.sqrt(norm, out=norm)
    radii = rng.random(m)
    radii **= 1.0 / (2 * n)
    radii *= R
    for col in g.T:  # a column at a time: a row-wise broadcast is slower
        col /= norm
        col *= radii
    t = g[:, 0::2] ** 2
    t += g[:, 1::2] ** 2
    t /= 2.0
    mu = t @ A
    for col, shift in zip(mu.T, phi0):
        col += shift
    return mu


def _usable_cores():
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def montecarlo_pushforward(weights, phi0, cfg: MonteCarloConfig) -> DensityTable:
    """Empirical pushforward density for a linear model-space action.

    Samples uniformly from the radius-R ball in coordinate space (2n real
    dimensions), maps through phi0 + sum (|z_i|^2 / 2) a_i, and bins on
    cfg.bins equal bins per axis by np.histogramdd's rules: each bin is
    closed below, the last also above, and samples outside the edges are
    dropped. _bin_counts guesses each bin from the uniform spacing and
    corrects it against the edge array, so the counts are np.histogramdd's
    exactly; they do not depend on how the bins are found. The output
    density is per coordinate-Lebesgue volume; comparing it with the
    unit-normalized engine density measures the per-factor area constant.
    Deterministic: each chunk draws from a counter-based generator keyed
    by (seed, chunk) and bins its own samples, and the int64 counts are
    summed exactly, so they do not depend on order. The chunks run on up
    to min(MONTECARLO_CHUNKS, usable cores) threads (numpy releases the GIL
    while it draws and in its large ufuncs); every thread is joined before
    the function returns. Workers call only _ball_image and _bin_counts.
    """
    weights = [vec(w) for w in weights]
    _positive_functional(weights)
    n = len(weights)
    d = len(weights[0])
    phi0 = np.asarray([float(x) for x in vec(phi0)], dtype=float)
    A = np.array([[float(x) for x in w] for w in weights])  # n x d
    R = float(cfg.cutoff_radius)
    half_r2 = R * R / 2.0

    lo = phi0 + half_r2 * np.minimum(A.min(axis=0), 0.0)
    hi = phi0 + half_r2 * np.maximum(A.max(axis=0), 0.0)
    span = hi - lo
    pad = 1e-9 * (1.0 + np.abs(span))
    edges = [
        np.linspace(lo[j] - pad[j], hi[j] + pad[j], cfg.bins + 1) for j in range(d)
    ]

    def chunk(c, m):
        key = np.array([int(cfg.seed), c], dtype=np.uint64)  # a list goes via float64
        rng = np.random.Generator(np.random.Philox(key=key))
        return _bin_counts(_ball_image(rng, m, R, phi0, A), edges)

    t0 = time.perf_counter()
    per = cfg.samples // MONTECARLO_CHUNKS
    sizes = [per] * MONTECARLO_CHUNKS
    sizes[-1] += cfg.samples - per * MONTECARLO_CHUNKS
    workers = min(MONTECARLO_CHUNKS, _usable_cores())
    counts = np.zeros(cfg.bins**d, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(chunk, range(MONTECARLO_CHUNKS), sizes):
            counts += part
    log.debug("montecarlo: %d samples, %d chunks, %d workers, %.3f s",
              cfg.samples, MONTECARLO_CHUNKS, workers, time.perf_counter() - t0)

    vol_ball = math.pi**n * R ** (2 * n) / math.factorial(n)
    cell = np.prod([e[1] - e[0] for e in edges])
    p = counts / cfg.samples
    density = p * vol_ball / cell
    sigma = np.sqrt(np.maximum(p * (1 - p), 1e-300) / cfg.samples) * vol_ball / cell
    return DensityTable(
        d,
        tuple(tuple(float(x) for x in e) for e in edges),
        tuple(int(x) for x in counts),
        tuple(float(x) for x in density),
        tuple(float(x) for x in sigma),
        cfg.samples,
        cfg.seed,
    )


# ---------------------------------------------------------------------------
# lattice vector-partition counts


def lattice_count(weights, mu, t: int = 1) -> int:
    """#{s in Z^n_{>=0} : sum s_i b_i = t mu}, by enumerating the fiber.

    A basis B of the weights' span is fixed, taking the weights that pair
    least with a strictly positive functional eta first. The other coordinates are
    enumerated inside the bound eta puts on them, and at each leaf the
    basis coordinates are solved from B's integer adjugate and determinant
    and kept when integral and nonnegative. Integer arithmetic throughout.
    """
    if isinstance(t, bool) or not isinstance(t, numbers.Integral):
        raise ValueError(f"lattice counting needs an integer scale t, got {t!r}")
    weights = [vec(w) for w in weights]
    mu = vec(mu)
    for w in weights:
        if len(w) != len(mu):
            raise ValueError(
                f"target has length {len(mu)} but a weight has length {len(w)}")
        if any(x.denominator != 1 for x in w):
            raise ValueError("lattice counting needs integer weights")
    target = [x * int(t) for x in mu]
    if any(x.denominator != 1 for x in target):
        raise ValueError("lattice counting needs an integer target")
    eta = _positive_functional(weights)
    scale = math.lcm(*(x.denominator for x in eta))
    eta = [int(x * scale) for x in eta]
    W = [[int(x) for x in w] for w in weights]
    target = [int(x) for x in target]

    def pairing(v):
        return sum(a * b for a, b in zip(v, eta))

    order = sorted(range(len(W)), key=lambda i: pairing(W[i]))
    basis = []
    for i in order:
        if rank([W[j] for j in (*basis, i)]) == len(basis) + 1:
            basis.append(i)
    free = [i for i in order if i not in basis]
    # coordinates on which B has a nonsingular square minor M
    rows = []
    for k in range(len(mu)):
        if rank([[W[j][r] for j in basis] for r in (*rows, k)]) == len(rows) + 1:
            rows.append(k)
    M = [[W[j][r] for j in basis] for r in rows]
    det_m = int(det(M))
    inv = solve(M, [[int(r == c) for c in range(len(M))] for r in range(len(M))])
    adj = [[int(x * det_m) for x in row] for row in inv]
    if det_m < 0:
        det_m, adj = -det_m, [[-x for x in row] for row in adj]

    def numerators(v):
        # det(M) times the basis coordinates solving M s_B = v on the rows
        return [sum(a * v[r] for a, r in zip(row, rows)) for row in adj]

    # Every weight lies in B's span, so a leaf satisfies the rows outside M
    # exactly when the target does: det(M) x = B adj(M) x there.
    num = numerators(target)
    for k in range(len(mu)):
        if k not in rows and det_m * target[k] != sum(
                W[j][k] * v for j, v in zip(basis, num)):
            return 0
    steps = [(pairing(W[j]), numerators(W[j])) for j in free]
    nodes = 0

    def rec(depth, level, num):
        nonlocal nodes
        if depth == len(steps):
            return int(all(v >= 0 and v % det_m == 0 for v in num))
        pair, step = steps[depth]
        top = level // pair
        nodes += top + 1
        if nodes > LATTICE_MAX_NODES:
            raise ValueError("lattice enumeration bound exceeded")
        return sum(
            rec(depth + 1, level - s * pair, [v - s * dv for v, dv in zip(num, step)])
            for s in range(top + 1)
        )

    return rec(0, pairing(target), num)


# ---------------------------------------------------------------------------
# truncated one-dimensional check


def truncated_circle_check(alpha: int, z: complex, a: float) -> dict:
    """Sublevel transform of the rank-one quadratic flow energy.

    Integrates e^{izt} against the pushforward density (1/alpha on [0, inf))
    up to level a by quadrature, and resolves which sign and boundary
    coefficient make the closed two-term expression (fixed-point term plus
    reduced-level boundary term) reproduce it.
    """
    alpha = int(alpha)
    if alpha <= 0:
        raise ValueError("weight must be a positive integer")
    if not (a > 0):
        raise ValueError("truncation level must be positive")
    z = complex(z)

    lhs, aerr = integrate.quad(
        lambda t: np.exp(1j * z * t) / alpha,
        0.0,
        a,
        epsabs=1e-12,
        epsrel=1e-11,
        limit=400,
        complex_func=True,
    )
    fp_term = 1j / (alpha * z)
    boundary_unit = np.exp(1j * z * a) / (1j * z)
    candidates = {}
    best = None
    for sign in (1, -1):
        for coeff_name, coeff in (("1", 1.0), ("1/alpha", 1.0 / alpha)):
            rhs = fp_term + sign * coeff * boundary_unit
            diff = abs(lhs - rhs)
            key = f"sign={sign:+d},coeff={coeff_name}"
            candidates[key] = {"rhs": [rhs.real, rhs.imag], "abs_diff": diff}
            if best is None or diff < best[2]:
                best = (sign, coeff_name, diff)
    return {
        "alpha": alpha,
        "z": [z.real, z.imag],
        "a": a,
        "quadrature": [complex(lhs).real, complex(lhs).imag],
        "quadrature_error": aerr,
        "fixed_point_term": [fp_term.real, fp_term.imag],
        "boundary_magnitude": abs(boundary_unit) / alpha,
        "candidates": candidates,
        "resolved_sign": best[0],
        "resolved_coeff": best[1],
        "resolved_abs_diff": best[2],
    }
